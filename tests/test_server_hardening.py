"""EngineServer hardening: hostile byte streams, quotas, overload replies,
and the client-side deadline/backoff plumbing.

Every test drives a real TCP server; the hostile clients speak raw sockets
so nothing in :class:`ServiceClient` can sanitize the garbage for us.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest

from repro.engine import SortEngine
from repro.models import MachineParams
from repro.service import (
    EngineServer,
    QueueFullError,
    ServiceClient,
    ServiceError,
    SortService,
)
from repro.service.server import MAX_LINE_BYTES

PARAMS = MachineParams(M=64, B=8, omega=4)


@pytest.fixture
def served():
    engine = SortEngine(PARAMS)
    service = SortService(engine, workers=2)
    server = EngineServer(service).start()
    yield server, service
    server.close()
    service.shutdown(drain=False)
    engine.close()


def _raw(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=10)


def _roundtrip(sock: socket.socket, payload: bytes) -> dict:
    sock.sendall(payload)
    return json.loads(sock.makefile("r").readline())


class TestHostileByteStreams:
    def test_garbage_line_gets_error_reply_not_teardown(self, served):
        server, _ = served
        with _raw(server) as sock:
            reply = _roundtrip(sock, b"certainly not json\n")
            assert reply["ok"] is False and "invalid request" in reply["error"]
            # the same connection still serves real requests afterwards
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(sock.makefile("r").readline())["pong"] is True

    def test_non_object_json_is_rejected(self, served):
        server, _ = served
        with _raw(server) as sock:
            reply = _roundtrip(sock, b"[1, 2, 3]\n")
            assert reply["ok"] is False and "JSON object" in reply["error"]

    def test_truncated_line_then_close_leaves_server_healthy(self, served):
        server, _ = served
        killer = _raw(server)
        killer.sendall(b'{"op": "submit", "data": [1, 2')  # no newline
        killer.close()  # client dies mid-send
        with ServiceClient(*server.address) as client:
            assert client.ping()
            assert client.sort([3, 1, 2]) == [1, 2, 3]

    def test_oversized_line_is_refused_and_connection_closed(self, served):
        server, _ = served
        with _raw(server) as sock:
            blob = b'{"op": "submit", "data": [' + b"1," * (MAX_LINE_BYTES // 2)
            reply = _roundtrip(sock, blob + b"1]}\n")
            assert reply["ok"] is False and "exceeds" in reply["error"]
            # the stream is desynchronized: the server hangs up after replying
            assert sock.makefile("r").readline() == ""
        with ServiceClient(*server.address) as client:
            assert client.ping()

    def test_many_hostile_connections_dont_exhaust_the_server(self, served):
        server, _ = served
        for i in range(20):
            with _raw(server) as sock:
                sock.sendall(b"\x00\xff garbage %d\n" % i)
                sock.makefile("r").readline()
        with ServiceClient(*server.address) as client:
            assert client.ping()


def _frame(*records: int) -> bytes:
    return struct.pack(f"<{len(records)}q", *records)


class TestHostileFrames:
    """Raw clients that announce int64 frames (``data_i64``) and then send
    something else than the announced bytes."""

    #: counts that are not a non-negative int, or pass the cap
    BAD_COUNTS = [-1, True, 1.5, "3", MAX_LINE_BYTES // 8 + 1]

    def test_torn_frame_then_close_leaves_server_healthy(self, served):
        server, _ = served
        with _raw(server) as sock:
            # announces 100 records, sends 50, then stops sending
            sock.sendall(b'{"op": "submit", "data_i64": 100}\n' + _frame(*range(50)))
            sock.shutdown(socket.SHUT_WR)
            # the server hangs up without a reply, as for a torn line
            assert sock.makefile("rb").readline() == b""
        with ServiceClient(*server.address) as client:
            assert client.ping()
            assert client.sort([3, 1, 2]) == [1, 2, 3]

    @pytest.mark.parametrize("payload", [
        *({"op": "submit", "data_i64": count} for count in BAD_COUNTS),
        *({"op": "submit_many", "jobs": [{"data_i64": 2}, {"data_i64": count}]}
          for count in BAD_COUNTS),
        # each frame fits the cap, both together do not
        {"op": "submit_many", "jobs": [{"data_i64": MAX_LINE_BYTES // 16 + 1}] * 2},
    ])
    def test_bad_frame_count_is_refused_and_connection_closed(self, served, payload):
        server, service = served
        with _raw(server) as sock:
            reply = _roundtrip(sock, json.dumps(payload).encode() + b"\n")
            assert reply["ok"] is False and "frame" in reply["error"]
            assert sock.makefile("r").readline() == ""
        assert service.stats()["submitted"] == 0  # nothing was dispatched
        with ServiceClient(*server.address) as client:
            assert client.ping()

    def test_rejected_framed_submit_keeps_the_stream_in_sync(self, served):
        server, _ = served
        with _raw(server) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b'{"op": "submit", "data_i64": 3, "priority": "high"}\n'
                         + _frame(3, 1, 2))
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False and "priority" in reply["error"]
            # the frame was read before the rejection: the next line is ours
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline())["pong"] is True
            # a framed submit on the same socket still sorts, little-endian
            sock.sendall(b'{"op": "submit", "data_i64": 3}\n' + _frame(3, -2**63, 2))
            ticket = json.loads(rfile.readline())["ticket"]
            sock.sendall(b'{"op": "result", "ticket": %d}\n' % ticket)
            assert json.loads(rfile.readline())["output"] == [-2**63, 2, 3]

    def test_json_only_client_collects_framed_submission_as_json(self, served):
        server, _ = served
        with ServiceClient(*server.address) as client:
            ticket = client.submit([5, 3, 4])
        with _raw(server) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b'{"op": "result", "ticket": %d}\n' % ticket)
            reply = json.loads(rfile.readline())
            assert reply["output"] == [3, 4, 5] and "output_i64" not in reply
            # no frame trails the line: the next reply is the ping's
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline()) == {
                "ok": True, "pong": True, "frames": ["i64"]
            }


class TestOverloadReply:
    @pytest.fixture
    def bounded(self):
        """A server whose single-worker service has a 1-slot queue, with the
        worker held busy by a gated job — overload is guaranteed, not racy."""
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1, max_queue=1, admission="reject")
        server = EngineServer(service).start()
        gate = threading.Event()
        started = threading.Event()

        class Gated:
            def __iter__(self):
                started.set()
                assert gate.wait(timeout=30)
                return iter([1])

            def __len__(self):
                return 1

        busy = service.submit(Gated())
        assert started.wait(timeout=30)
        yield server, service
        gate.set()
        busy.result(timeout=30)
        server.close()
        service.shutdown(drain=False)
        engine.close()

    def test_submit_overload_is_a_reply_with_retry_after(self, bounded):
        server, _ = bounded
        with ServiceClient(*server.address) as client:
            client.submit([2, 1])  # fills the queue
            reply = client.request({"op": "submit", "data": [3, 2]})
            assert reply["ok"] is False
            assert reply["error"] == "overloaded"
            assert reply["retry_after"] > 0
            assert reply["queued"] == 1 and reply["max_queue"] == 1
            with pytest.raises(ServiceError) as info:
                client.submit([4, 3])
            assert info.value.overloaded
            assert info.value.retry_after > 0

    def test_submit_many_returns_accepted_tickets_on_overload(self, bounded):
        server, _ = bounded
        with ServiceClient(*server.address) as client:
            reply = client.request(
                {"op": "submit_many",
                 "jobs": [{"data": [2, 1]}, {"data": [3, 2]}, {"data": [4, 3]}]}
            )
            assert reply["ok"] is False and reply["error"] == "overloaded"
            assert len(reply["tickets"]) == 1  # the one that fit


class TestResultTimeout:
    """``result`` takes ``null`` or a finite number of seconds as its
    ``timeout``; anything else gets an ``ok: false`` reply before any wait
    and leaves the ticket live, so the sorted output is not lost."""

    @pytest.mark.parametrize(
        "timeout", ['"soon"', "[1]", "true", "NaN", "Infinity", "-Infinity", "1e10"]
    )
    def test_malformed_timeout_keeps_the_ticket(self, served, timeout):
        server, _ = served
        with _raw(server) as sock:
            rfile = sock.makefile("r")

            def roundtrip(line: str) -> dict:
                sock.sendall(line.encode() + b"\n")
                return json.loads(rfile.readline())

            ticket = roundtrip('{"op": "submit", "data": [2, 1]}')["ticket"]
            first = roundtrip(f'{{"op": "result", "ticket": {ticket}, "keep": true}}')
            assert first["output"] == [1, 2]
            reply = roundtrip(
                f'{{"op": "result", "ticket": {ticket}, "timeout": {timeout}}}'
            )
            assert reply["ok"] is False and "kind" not in reply
            assert "'timeout' must be null or a finite number" in reply["error"]
            last = roundtrip(f'{{"op": "result", "ticket": {ticket}, "timeout": 5}}')
            assert last["ok"] is True and last["output"] == [1, 2]


class TestClientQuota:
    @pytest.fixture
    def quotaed(self):
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1)
        server = EngineServer(service, max_client_tickets=2).start()
        yield server
        server.close()
        service.shutdown(drain=False)
        engine.close()

    def test_quota_bounds_uncollected_tickets_per_connection(self, quotaed):
        with ServiceClient(*quotaed.address) as client:
            t1 = client.submit([2, 1])
            t2 = client.submit([3, 2])
            with pytest.raises(ServiceError) as info:
                client.submit([4, 3])
            assert info.value.overloaded
            assert info.value.reply["error"] == "quota exceeded"
            assert info.value.reply["held"] == 2
            # collecting a result releases quota
            assert client.result(t1)["output"] == [1, 2]
            t3 = client.submit([4, 3])
            assert client.result(t2)["output"] == [2, 3]
            assert client.result(t3)["output"] == [3, 4]
            assert client.stats()["quota_rejections"] == 1

    def test_another_connection_has_its_own_quota(self, quotaed):
        with ServiceClient(*quotaed.address) as a:
            a.submit([2, 1])
            a.submit([3, 2])
            with ServiceClient(*quotaed.address) as b:
                # b is a different client: its quota is untouched by a's
                tb = b.submit([6, 5])
                assert b.result(tb)["output"] == [5, 6]

    def test_submit_many_respects_quota_with_partial_acceptance(self, quotaed):
        with ServiceClient(*quotaed.address) as client:
            reply = client.request(
                {"op": "submit_many",
                 "jobs": [{"data": [2, 1]}, {"data": [3, 2]}, {"data": [4, 3]}]}
            )
            assert reply["ok"] is False and reply["error"] == "quota exceeded"
            assert len(reply["tickets"]) == 2
            for ticket in reply["tickets"]:
                client.result(ticket)


class TestClientDeadlines:
    def test_request_timeout_surfaces_as_timeout_error(self):
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1)  # one worker: gated = stalled
        server = EngineServer(service).start()
        gate = threading.Event()
        started = threading.Event()

        class Gated:
            def __iter__(self):
                started.set()
                assert gate.wait(timeout=30)
                return iter([1])

            def __len__(self):
                return 1

        busy = service.submit(Gated())
        assert started.wait(timeout=30)
        try:
            with ServiceClient(*server.address) as client:
                ticket = client.submit([2, 1])
                with pytest.raises(TimeoutError, match="op 'result'"):
                    # blocking result against a stalled worker, bounded by
                    # the per-request socket deadline
                    client.request(
                        {"op": "result", "ticket": ticket}, timeout=0.3
                    )
        finally:
            gate.set()
            busy.result(timeout=30)
            server.close()
            service.shutdown(drain=False)
            engine.close()

    def test_constructor_request_timeout_applies_to_every_request(self, served):
        server, _ = served
        with ServiceClient(*server.address, request_timeout=5.0) as client:
            assert client.ping()  # fast op finishes well inside the deadline
            assert client.sort([3, 1, 2]) == [1, 2, 3]

    def test_connect_retries_back_off_until_server_appears(self):
        # grab a port, delay the server's start, and require the client's
        # backoff loop to outlast the gap
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1)
        box = {}

        def late_start():
            import time

            time.sleep(0.5)
            box["server"] = EngineServer(service, host=host, port=port).start()

        t = threading.Thread(target=late_start)
        t.start()
        try:
            with ServiceClient(host, port, retries=20, retry_delay=0.05) as client:
                assert client.ping()
        finally:
            t.join()
            box["server"].close()
            service.shutdown(drain=False)
            engine.close()


class TestCoordinatorOverload:
    def test_all_hosts_overloaded_raises_queue_full(self):
        from repro.cluster import ClusterCoordinator, ClusterSpec

        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1, max_queue=1, admission="reject")
        server = EngineServer(service).start()
        gate = threading.Event()
        started = threading.Event()

        class Gated:
            def __iter__(self):
                started.set()
                assert gate.wait(timeout=30)
                return iter([1])

            def __len__(self):
                return 1

        busy = service.submit(Gated())
        assert started.wait(timeout=30)
        filler = service.submit([2, 1])  # the queue is now full
        coord = ClusterCoordinator(
            ClusterSpec(hosts=(server.address,), rejoin=False), PARAMS
        )
        try:
            with pytest.raises(QueueFullError) as info:
                coord.submit([5, 4])
            assert info.value.retry_after > 0
            gate.set()
            busy.result(timeout=30)
            filler.result(timeout=30)
            # capacity is back: the coordinator admits again
            handle = coord.submit([5, 4])
            assert coord.result(handle)["output"] == [4, 5]
        finally:
            coord.close()
            server.close()
            service.shutdown(drain=False)
            engine.close()
