"""int64 frames on the wire, against a live :class:`EngineServer`.

A differential over both encodings: whichever one carries the records,
``ServiceClient.sort(data)`` must equal ``sorted(data)`` element by element
with every element's type kept, and bill the reads and writes an in-process
``SortEngine.sort`` bills.  All-int64 lists travel as frames; bools, floats,
strings, ints outside int64, mixed lists and the empty list stay JSON.  Also
pinned here: a server that does not advertise frames gets JSON, a reply
frame cut short is a ``ConnectionError``, and a framed payload costs at
most 8.1 bytes per record in each direction.
"""

from __future__ import annotations

import json
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineParams, SortEngine
from repro.service import EngineServer, ServiceClient, SortService

PARAMS = MachineParams(M=64, B=8, omega=4)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

int64s = st.integers(INT64_MIN, INT64_MAX)
#: unique keys: the default sort path still fails on duplicate keys, so
#: duplicate cases are pinned to the selection sort below
int64_lists = st.lists(int64s, min_size=1, max_size=300, unique=True)
beyond_int64 = st.integers(2**63, 2**80) | st.integers(-(2**80), INT64_MIN - 1)
json_lists = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=2, unique=True),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
             max_size=200, unique=True),
    st.lists(st.text(max_size=8), min_size=1, max_size=100, unique=True),
    st.tuples(beyond_int64, int64_lists).map(
        lambda t: [t[0], *(x for x in t[1] if x != t[0])]
    ),
    # one float among ints: x + 0.5 never equals an int, so keys stay unique
    st.tuples(st.integers(-(10**6), 10**6),
              st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=200,
                       unique=True)).map(lambda t: [*t[1], t[0] + 0.5]),
    st.just([]),
)


class _JsonOnlyServer(EngineServer):
    """A server whose ``ping`` does not advertise frames, as one built
    before frames existed."""

    def _op_ping(self, request, client=None):
        return {"ok": True, "pong": True}


class _Tally:
    """Counts the bytes one :class:`ServiceClient` sends (``sendall``) and
    receives (``readline`` and ``read``), and keeps what it sent."""

    def __init__(self, client: ServiceClient):
        self.sent = bytearray()
        self.received = 0
        sock, rfile, tally = client._sock, client._rfile, self

        class Sock:
            def sendall(self, data, *args):
                tally.sent += data
                return sock.sendall(data, *args)

            def __getattr__(self, name):
                return getattr(sock, name)

        class Reader:
            def readline(self, *args):
                line = rfile.readline(*args)
                tally.received += len(line)
                return line

            def read(self, *args):
                data = rfile.read(*args)
                tally.received += len(data)
                return data

            def __getattr__(self, name):
                return getattr(rfile, name)

        client._sock, client._rfile = Sock(), Reader()


def _served(server_cls):
    engine = SortEngine(PARAMS)
    service = SortService(engine, workers=2)
    server = server_cls(service).start()
    try:
        yield server
    finally:
        server.close()
        service.shutdown(drain=False)
        engine.close()


@pytest.fixture(scope="module")
def framed():
    yield from _served(EngineServer)


@pytest.fixture(scope="module")
def json_only():
    yield from _served(_JsonOnlyServer)


@pytest.fixture(scope="module")
def client(framed):
    with ServiceClient(*framed.address) as c:
        yield c


@pytest.fixture(scope="module")
def reference():
    with SortEngine(PARAMS) as engine:
        yield engine


def _assert_same_answer(client, reference, data, **kwargs):
    record = client.result(client.submit(data, **kwargs))
    expected = sorted(data)
    assert record["output"] == expected
    assert [type(x) for x in record["output"]] == [type(x) for x in expected]
    in_process = reference.sort(data, **kwargs)
    assert (record["reads"], record["writes"]) == (in_process.reads, in_process.writes)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(data=int64_lists)
    def test_framed_int64_lists(self, client, reference, data):
        _assert_same_answer(client, reference, data)

    @pytest.mark.parametrize("data", [
        [INT64_MAX, -1, INT64_MIN, 0],
        [INT64_MIN],
        list(range(500, -500, -1)),
    ])
    def test_framed_edges(self, client, reference, data):
        _assert_same_answer(client, reference, data)

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.integers(-3, 3) | st.sampled_from([INT64_MIN, INT64_MAX]),
                         min_size=1, max_size=200))
    def test_framed_duplicates_on_selection(self, client, reference, data):
        _assert_same_answer(client, reference, data, algorithm="selection")

    @settings(max_examples=80, deadline=None)
    @given(data=json_lists)
    def test_json_path_inputs(self, client, reference, data):
        _assert_same_answer(client, reference, data)

    def test_submit_many_mixes_frames_and_json(self, client):
        batches = [[3, 1, 2], [2.5, 0.5], [], [True, False], [INT64_MAX, INT64_MIN]]
        outputs = [r["output"] for r in client.gather(client.submit_many(batches))]
        assert outputs == [sorted(b) for b in batches]
        assert [[type(x) for x in out] for out in outputs] == [
            [type(x) for x in sorted(b)] for b in batches
        ]


class TestCapability:
    def test_ping_advertises_i64(self, client):
        assert client.request({"op": "ping"})["frames"] == ["i64"]

    def test_frames_are_used_when_advertised(self, framed):
        with ServiceClient(*framed.address) as client:
            tally = _Tally(client)
            assert client.sort([3, 1, 2]) == [1, 2, 3]
            tickets = client.submit_many([[2, 1], [4, 3]])
            assert [r["output"] for r in client.gather(tickets)] == [[1, 2], [3, 4]]
        assert tally.sent.count(b'"data_i64": 2') == 2 and b'"data"' not in tally.sent
        assert b'"frames": true' in tally.sent

    def test_server_without_frames_gets_json(self, json_only):
        with ServiceClient(*json_only.address) as client:
            tally = _Tally(client)
            assert client.sort([3, 1, 2]) == [1, 2, 3]
            tickets = client.submit_many([[2, 1]])
            assert client.gather(tickets)[0]["output"] == [1, 2]
        assert b"data_i64" not in tally.sent and b'"frames"' not in tally.sent
        assert b'"data": [3, 1, 2]' in tally.sent and b'"data": [2, 1]' in tally.sent

    def test_short_reply_frame_is_a_connection_error(self):
        # a fake server that advertises frames, then announces 10 records
        # and dies 5 bytes into the frame
        listener = socket.create_server(("127.0.0.1", 0))

        def fake():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()  # the capability ping
                conn.sendall(b'{"ok": true, "pong": true, "frames": ["i64"]}\n')
                rfile.readline()  # the result request
                conn.sendall(b'{"ok": true, "output_i64": 10}\n' + b"\0" * 5)

        thread = threading.Thread(target=fake)
        thread.start()
        try:
            with ServiceClient(*listener.getsockname()) as client:
                with pytest.raises(ConnectionError, match="mid-frame"):
                    client.result(0)
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


class TestBytesOnTheWire:
    N = 10_000

    def _bytes_per_record(self, address, data) -> tuple[float, float]:
        """(sent, received) bytes per record of one ``sort`` on a fresh
        connection, the capability ping included."""
        with ServiceClient(*address) as client:
            tally = _Tally(client)
            assert client.sort(data) == sorted(data)
        return len(tally.sent) / len(data), tally.received / len(data)

    def test_framed_bytes_per_record(self, framed, json_only, record_property):
        # 40-bit keys, the size of the benchmark's unique scenario keys
        data = random.Random(0).sample(range(2**40), self.N)
        sent, received = self._bytes_per_record(framed.address, data)
        assert 8.0 < sent <= 8.1 and 8.0 < received <= 8.1
        json_sent, json_received = self._bytes_per_record(json_only.address, data)
        record_property("framed_bytes_per_record", f"{sent:.3f} / {received:.3f}")
        record_property("json_bytes_per_record", f"{json_sent:.3f} / {json_received:.3f}")
        print(f"bytes per record (sent / received): framed {sent:.3f} / "
              f"{received:.3f}, JSON {json_sent:.3f} / {json_received:.3f}")
        # the JSON connection really carried JSON arrays both ways
        assert min(json_sent, json_received) > len(json.dumps(data)) / self.N
