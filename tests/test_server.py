"""Tests for the persistent engine server (line protocol) and its client."""

import json
import socket
import threading

import pytest

from repro import MachineParams, SortEngine
from repro.service import EngineServer, ServiceClient, ServiceError, SortService
from repro.workloads import random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)


@pytest.fixture
def served():
    """A live server on an ephemeral port + a connected client."""
    engine = SortEngine(PARAMS)
    service = SortService(engine, workers=2)
    server = EngineServer(service).start()
    host, port = server.address
    client = ServiceClient(host, port, retries=20)
    yield client, service, server
    client.close()
    server.close()
    service.shutdown(drain=False)
    engine.close()


class TestRoundTrip:
    def test_ping(self, served):
        client, _, _ = served
        assert client.ping()

    def test_submit_then_result_is_sorted(self, served):
        client, _, _ = served
        data = random_permutation(500, seed=3)
        ticket = client.submit(data, label="rt")
        res = client.result(ticket)
        assert res["output"] == sorted(data)
        assert res["n"] == 500 and res["ticket"] == ticket
        assert res["reads"] > 0 and res["cost"] > 0
        assert res["algorithm"]

    def test_sort_convenience(self, served):
        client, _, _ = served
        data = random_permutation(200, seed=4)
        assert client.sort(data) == sorted(data)

    def test_pinned_algorithm(self, served):
        client, _, _ = served
        data = random_permutation(300, seed=5)
        ticket = client.submit(data, algorithm="selection")
        assert client.result(ticket)["algorithm"] == "aem-selection"

    def test_submit_many_and_gather(self, served):
        client, _, _ = served
        batches = [random_permutation(100 + 20 * i, seed=i) for i in range(5)]
        tickets = client.submit_many(batches)
        assert len(tickets) == 5
        results = client.gather(tickets)
        for res, batch in zip(results, batches):
            assert res["output"] == sorted(batch)

    def test_result_consumes_ticket_unless_kept(self, served):
        client, _, _ = served
        ticket = client.submit(random_permutation(100, seed=6))
        first = client.result(ticket, keep=True)
        again = client.result(ticket)  # kept: still readable; now consumed
        assert first["output"] == again["output"]
        with pytest.raises(ServiceError, match="unknown ticket"):
            client.result(ticket)

    def test_failed_result_is_consumed_too(self, served):
        client, _, _ = served
        ticket = client.submit([3, 1, 2], algorithm="bogosort")
        with pytest.raises(ServiceError, match="unknown algorithm"):
            client.result(ticket)
        with pytest.raises(ServiceError, match="unknown ticket"):
            client.result(ticket)

    def test_stats_surface_service_counters(self, served):
        client, service, _ = served
        ticket = client.submit(random_permutation(50, seed=7))
        stats = client.stats()
        assert stats["workers"] == service.workers
        assert stats["tickets"] >= 1  # unconsumed ticket still registered
        client.result(ticket)
        stats = client.stats()
        assert stats["completed"] >= 1
        assert stats["tickets"] == 0  # consumed on the terminal result


class TestFailuresOverTheWire:
    def test_job_failure_reported_with_kind(self, served):
        client, _, _ = served
        ticket = client.submit([3, 1, 2], algorithm="bogosort")
        with pytest.raises(ServiceError, match="unknown algorithm") as err:
            client.result(ticket)
        assert err.value.reply["kind"] == "ValueError"

    def test_unknown_ticket(self, served):
        client, _, _ = served
        with pytest.raises(ServiceError, match="unknown ticket"):
            client.result(999_999)

    def test_unknown_op(self, served):
        client, _, _ = served
        reply = client.request({"op": "frobnicate"})
        assert not reply["ok"] and "unknown op" in reply["error"]

    def test_invalid_json_line(self, served):
        client, _, server = served
        host, port = server.address
        with socket.create_connection((host, port)) as raw:
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("r").readline())
        assert not reply["ok"] and "invalid request" in reply["error"]

    def test_submit_without_data(self, served):
        client, _, _ = served
        reply = client.request({"op": "submit"})
        assert not reply["ok"] and "data" in reply["error"]

    def test_non_numeric_priority_rejected_over_the_wire(self, served):
        client, _, _ = served
        reply = client.request({"op": "submit", "data": [2, 1], "priority": "high"})
        assert not reply["ok"] and "priority" in reply["error"]
        # the service (and its heap) survived the bad request
        assert client.sort([3, 1, 2]) == [1, 2, 3]

    def test_result_timeout_reports_pending(self, served):
        client, service, _ = served
        # occupy both workers long enough that a 0-timeout result can race
        # nothing: submit against a queue and ask with timeout=0
        tickets = [client.submit(random_permutation(800, seed=i)) for i in range(4)]
        reply = client.request(
            {"op": "result", "ticket": tickets[-1], "timeout": 0, "keep": True}
        )
        if not reply["ok"]:  # may legitimately have finished already
            assert reply["error"] == "timeout" and reply["pending"]
        client.gather(tickets)  # drain


class TestCancelAndStatus:
    def test_cancel_queued_job(self, served):
        client, service, _ = served
        # stuff the queue so at least the last submission is still pending
        tickets = [client.submit(random_permutation(700, seed=i)) for i in range(6)]
        cancelled = client.cancel(tickets[-1])
        if cancelled:
            with pytest.raises(ServiceError, match="cancelled"):
                client.result(tickets[-1])
        for t in tickets[:-1]:
            client.result(t)

    def test_status_states_are_legal(self, served):
        client, _, _ = served
        ticket = client.submit(random_permutation(60, seed=8))
        assert client.status(ticket) in {"PENDING", "RUNNING", "FINISHED"}
        client.result(ticket, keep=True)  # keep: status stays queryable
        assert client.status(ticket) == "FINISHED"


class _FakeClock:
    """Injectable monotonic clock for deterministic TTL tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTicketEviction:
    """Registry bounds: TTL + capacity eviction of finished tickets."""

    @pytest.fixture
    def served_with(self):
        """Factory: a live server with eviction knobs + client + fake clock."""
        created = []

        def build(**knobs):
            clock = _FakeClock()
            engine = SortEngine(PARAMS)
            service = SortService(engine, workers=2)
            server = EngineServer(service, clock=clock, **knobs).start()
            client = ServiceClient(*server.address, retries=20)
            created.append((client, server, service, engine))
            return client, clock

        yield build
        for client, server, service, engine in created:
            client.close()
            server.close()
            service.shutdown(drain=False)
            engine.close()

    def test_ttl_evicts_finished_kept_ticket(self, served_with):
        client, clock = served_with(ticket_ttl=5.0)
        ticket = client.submit([3, 1, 2])
        client.result(ticket, keep=True)  # finished and deliberately retained
        stats = client.stats()  # first purge after completion stamps it
        assert stats["tickets"] == 1 and stats["ticket_evictions"] == 0
        clock.advance(4.0)
        assert client.stats()["tickets"] == 1  # within TTL: still retained
        clock.advance(2.0)  # now 6s past completion
        stats = client.stats()
        assert stats["tickets"] == 0 and stats["ticket_evictions"] == 1
        with pytest.raises(ServiceError, match="unknown ticket"):
            client.result(ticket)

    def test_ttl_never_evicts_unfinished_tickets(self, served_with):
        client, clock = served_with(ticket_ttl=0.0)
        # ttl=0 is the harshest setting: finished tickets evict on the very
        # next purge, but queued/running ones must survive indefinitely
        tickets = [client.submit(random_permutation(600, seed=i)) for i in range(4)]
        clock.advance(100.0)
        client.stats()  # purge: anything unfinished must be untouched
        for t, data in zip(tickets, [random_permutation(600, seed=i) for i in range(4)]):
            try:
                assert client.result(t)["output"] == sorted(data)
            except ServiceError as err:
                # legal only when the purge saw the job already finished
                assert "unknown ticket" in str(err)

    def test_max_tickets_evicts_oldest_finished(self, served_with):
        client, _ = served_with(max_tickets=2)
        # sequential submit+collect: every ticket is finished-and-kept
        # before the next registers, so eviction order is by ticket age
        tickets = []
        for i in range(4):
            t = client.submit([i, i - 1])
            client.result(t, keep=True)
            tickets.append(t)
        stats = client.stats()  # purge: 4 finished tickets, cap 2
        assert stats["tickets"] == 2
        assert stats["ticket_evictions"] >= 2
        # the survivors are the newest; the oldest finished went first
        for t in tickets[2:]:
            assert client.result(t, keep=True)["output"] is not None
        for t in tickets[:2]:
            with pytest.raises(ServiceError, match="unknown ticket"):
                client.result(t)

    def test_default_server_never_auto_evicts(self, served_with):
        client, clock = served_with()  # no knobs: consumption-only eviction
        ticket = client.submit([2, 1])
        client.result(ticket, keep=True)
        clock.advance(1e9)
        stats = client.stats()
        assert stats["tickets"] == 1 and stats["ticket_evictions"] == 0
        assert client.result(ticket)["output"] == [1, 2]


class TestLifecycle:
    def test_shutdown_op_stops_listener(self):
        engine = SortEngine(PARAMS)
        service = SortService(engine, workers=1)
        server = EngineServer(service).start()
        host, port = server.address
        with ServiceClient(host, port, retries=20) as client:
            assert client.sort([3, 1, 2]) == [1, 2, 3]
            client.shutdown_server()
        # listener is gone: fresh connections are refused (poll briefly —
        # the OS may lag the close)
        import time

        for _ in range(50):
            try:
                socket.create_connection((host, port), timeout=0.2).close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("server still accepting connections after shutdown op")
        server.close()
        service.shutdown(drain=False)
        engine.close()

    @pytest.mark.parametrize("stop", ["close", "with"])
    def test_unstarted_server_closes_and_releases_its_port(self, stop):
        # no serve loop ever ran, so close() has none to wait for
        with SortService(PARAMS, workers=1) as service:
            server = EngineServer(service)
            host, port = server.address

            def close_unstarted():
                if stop == "close":
                    server.close()
                else:
                    with server:
                        pass

            closer = threading.Thread(target=close_unstarted, daemon=True)
            closer.start()
            closer.join(timeout=1)
            assert not closer.is_alive(), "close() of an unstarted server hung"
        with socket.socket() as probe:
            probe.bind((host, port))  # the listener's port is free again

    def test_client_retries_then_fails_cleanly(self):
        with pytest.raises(ConnectionError, match="cannot reach"):
            ServiceClient("127.0.0.1", 1, retries=1, retry_delay=0.01)

    @pytest.mark.parametrize("delay", [0.0, 2.5])
    def test_client_rejects_a_retry_delay_outside_the_backoff(self, delay):
        # rejected before any connect, not after the first failed one
        with pytest.raises(ValueError, match="retry_delay"):
            ServiceClient("127.0.0.1", 1, retries=0, retry_delay=delay)

    def test_concurrent_clients(self, served):
        client, _, server = served
        host, port = server.address
        with ServiceClient(host, port) as second:
            d1, d2 = random_permutation(150, seed=9), random_permutation(150, seed=10)
            t1, t2 = client.submit(d1), second.submit(d2)
            assert second.result(t2)["output"] == sorted(d2)
            assert client.result(t1)["output"] == sorted(d1)
