"""Admission control under the bounded queue: reject, block, shed-lowest.

Every scenario holds the single worker busy with a *gated* dataset (its
``__iter__`` blocks on an Event the test controls), so queue occupancy is
deterministic — no sleeps, no timing races.  The storm tests run whole
submit floods under the locksan lock-order recorder.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

import pytest

from repro.analysis import locksan
from repro.engine import SortEngine
from repro.models import MachineParams
from repro.service import CANCELLED, QueueFullError, SortService

PARAMS = MachineParams(M=64, B=8, omega=4)


@pytest.fixture
def locksan_on():
    was = locksan.locksan_enabled()
    locksan.enable()
    locksan.reset()
    yield
    violations = locksan.violations()
    locksan.reset()
    if not was:
        locksan.disable()
    assert violations == [], violations


class GatedData:
    """A job input whose iteration blocks until the test opens the gate —
    the deterministic way to keep a worker busy mid-job.  ``started`` is
    set the moment the worker begins iterating, i.e. the job has been
    *popped* from the queue and no longer counts against ``max_queue``."""

    def __init__(self, data, gate: threading.Event, started: threading.Event):
        self._data = list(data)
        self._gate = gate
        self._started = started

    def __iter__(self):
        self._started.set()
        assert self._gate.wait(timeout=30), "test gate never opened"
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def _occupy(service, data, priority: float = 0):
    """Submit a gated job and wait until the worker is executing it (queue
    occupancy afterwards is exactly the subsequently-submitted jobs)."""
    gate = threading.Event()
    started = threading.Event()
    future = service.submit(GatedData(data, gate, started), priority=priority)
    assert started.wait(timeout=30), "worker never picked up the gated job"
    return future, gate


@pytest.fixture
def engine():
    with SortEngine(PARAMS) as eng:
        yield eng


def _service(engine, **kwargs):
    return SortService(engine, workers=1, executor="thread", **kwargs)


class TestRejectPolicy:
    def test_overflow_raises_with_backpressure_metadata(self, locksan_on, engine):
        service = _service(engine, max_queue=2, admission="reject")
        busy, gate = _occupy(service, [3, 1, 2])
        gate_queue = [service.submit([2, 1]) for _ in range(2)]  # fills the queue
        with pytest.raises(QueueFullError) as info:
            service.submit([9, 8])
        exc = info.value
        assert exc.policy == "reject"
        assert exc.queued == 2 and exc.max_queue == 2
        assert exc.retry_after > 0
        gate.set()
        assert busy.result(timeout=30).output == [1, 2, 3]
        for fut in gate_queue:
            assert fut.result(timeout=30).output == [1, 2]
        stats = service.stats()
        assert stats["rejected"] == 1 and stats["shed"] == 0
        assert stats["submitted"] == 3 and stats["completed"] == 3
        service.shutdown()

    def test_queue_drains_reopen_admission(self, locksan_on, engine):
        service = _service(engine, max_queue=1, admission="reject")
        _busy, gate = _occupy(service, [1])
        queued = service.submit([5, 4])
        with pytest.raises(QueueFullError):
            service.submit([7, 6])
        gate.set()
        queued.result(timeout=30)
        # the queue drained; admission is open again
        assert service.submit([3, 2]).result(timeout=30).output == [2, 3]
        service.shutdown()

    def test_unbounded_service_never_rejects(self, engine):
        service = _service(engine)  # max_queue=None
        futures = [service.submit([i, i - 1]) for i in range(50)]
        for fut in futures:
            fut.result(timeout=30)
        assert service.stats()["rejected"] == 0
        service.shutdown()

    def test_validation(self, engine):
        with pytest.raises(ValueError, match="max_queue"):
            _service(engine, max_queue=0)
        with pytest.raises(ValueError, match="admission"):
            _service(engine, max_queue=1, admission="fifo-lottery")


class TestBlockPolicy:
    def test_blocks_until_capacity_then_admits(self, locksan_on, engine):
        service = _service(engine, max_queue=1, admission="block")
        _busy, gate = _occupy(service, [1])
        queued = service.submit([2, 1])
        admitted = []

        def blocked_submit():
            admitted.append(service.submit([4, 3]))

        t = threading.Thread(target=blocked_submit)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive(), "submit should still be blocked on a full queue"
        gate.set()  # worker drains; the waiter admits
        t.join(timeout=30)
        assert not t.is_alive()
        assert queued.result(timeout=30).output == [1, 2]
        assert admitted[0].result(timeout=30).output == [3, 4]
        service.shutdown()

    def test_admission_timeout_is_honored(self, locksan_on, engine):
        import time

        service = _service(engine, max_queue=1, admission="block")
        _busy, gate = _occupy(service, [1])
        service.submit([2, 1])
        t0 = time.monotonic()
        with pytest.raises(QueueFullError, match="block"):
            service.submit([9, 8], admission_timeout=0.3)
        elapsed = time.monotonic() - t0
        assert 0.25 <= elapsed < 5.0
        assert service.stats()["rejected"] == 1
        gate.set()
        service.shutdown(drain=True)

    def test_service_wide_block_timeout_default(self, engine):
        service = _service(engine, max_queue=1, admission="block",
                           block_timeout=0.2)
        _busy, gate = _occupy(service, [1])
        service.submit([2, 1])
        with pytest.raises(QueueFullError):
            service.submit([9, 8])  # no per-call timeout: uses block_timeout
        gate.set()
        service.shutdown(drain=True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 1e10, "1"])
    def test_timeouts_must_be_finite_and_non_negative(self, engine, bad):
        # a NaN timeout would make the admission wait poll without sleeping
        with pytest.raises(ValueError, match="block_timeout"):
            _service(engine, max_queue=1, admission="block", block_timeout=bad)
        service = _service(engine, max_queue=1, admission="block")
        with pytest.raises(ValueError, match="admission_timeout"):
            service.submit([2, 1], admission_timeout=bad)
        assert service.stats()["submitted"] == 0
        service.shutdown()

    @pytest.mark.parametrize("drain", [True, False])
    def test_blocked_submitter_fails_when_the_service_shuts_down(
        self, locksan_on, engine, drain
    ):
        service = _service(engine, max_queue=1, admission="block")
        _busy, gate = _occupy(service, [1])
        service.submit([2, 1])
        errors = []

        def blocked_submit():
            try:
                service.submit([4, 3])
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked_submit)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive(), "submit should still be blocked on a full queue"
        # with drain=True the queue stays full: only the shutdown wakes it
        service.shutdown(drain=drain, wait=False)
        t.join(timeout=30)
        assert not t.is_alive()
        assert [str(e) for e in errors] == ["service is shut down"]
        assert not isinstance(errors[0], QueueFullError)
        gate.set()
        service.shutdown()
        assert service.stats()["submitted"] == 2


class TestShedLowestPolicy:
    def test_sheds_exactly_the_lowest_priority_pending_future(
        self, locksan_on, engine
    ):
        service = _service(engine, max_queue=2, admission="shed-lowest")
        busy, gate = _occupy(service, [1], priority=0)
        keep = service.submit([2, 1], priority=5)
        victim = service.submit([3, 2], priority=9)
        incoming = service.submit([4, 3], priority=1)  # sheds the 9
        assert victim.cancelled()
        assert victim.state == CANCELLED
        with pytest.raises(CancelledError):
            victim.result(timeout=1)
        gate.set()
        assert busy.result(timeout=30).output == [1]
        assert keep.result(timeout=30).output == [1, 2]
        assert incoming.result(timeout=30).output == [3, 4]
        stats = service.stats()
        assert stats["shed"] == 1 and stats["cancelled"] == 1
        assert stats["completed"] == 3
        service.shutdown()

    def test_incoming_lower_than_everyone_is_rejected_not_shed(
        self, locksan_on, engine
    ):
        service = _service(engine, max_queue=1, admission="shed-lowest")
        _busy, gate = _occupy(service, [1], priority=0)
        pending = service.submit([2, 1], priority=3)
        # equal priority must not shed (strictly-lower-only), nor may a
        # worse incoming job evict a better pending one
        with pytest.raises(QueueFullError, match="shed"):
            service.submit([9, 8], priority=3)
        with pytest.raises(QueueFullError):
            service.submit([9, 8], priority=7)
        assert not pending.cancelled()
        gate.set()
        assert pending.result(timeout=30).output == [1, 2]
        assert service.stats()["rejected"] == 2
        service.shutdown()


class TestCancelWhileQueued:
    """A job whose future is cancelled while it waits frees its
    ``max_queue`` slot at once and counts in ``cancelled`` exactly once:
    not again when a worker pops its dead entry, nor in a shutdown."""

    def test_reject_admits_once_queued_jobs_are_cancelled(self, locksan_on, engine):
        service = _service(engine, max_queue=2, admission="reject")
        busy, gate = _occupy(service, [3, 1, 2])
        queued = [service.submit([2, 1]) for _ in range(2)]
        assert [fut.cancel() for fut in queued] == [True, True]
        assert service.queued() == service.stats()["queued"] == 0
        third = service.submit([9, 8])  # the cancels freed both slots
        assert service.queued() == 1
        gate.set()
        assert busy.result(timeout=30).output == [1, 2, 3]
        assert third.result(timeout=30).output == [8, 9]
        service.shutdown(drain=True)  # the worker drops both dead entries
        stats = service.stats()
        assert stats["cancelled"] == 2 and stats["rejected"] == 0
        assert stats["completed"] == 2 and stats["queued"] == 0

    def test_shed_lowest_sheds_only_a_live_job(self, locksan_on, engine):
        service = _service(engine, max_queue=2, admission="shed-lowest")
        busy, gate = _occupy(service, [1], priority=0)
        dropped = service.submit([2, 1], priority=9)
        keep = service.submit([3, 2], priority=5)
        assert dropped.cancel()
        victim = service.submit([4, 3], priority=6)  # takes the freed slot
        incoming = service.submit([5, 4], priority=1)  # sheds the live 6
        assert victim.cancelled()
        assert not keep.cancelled() and not incoming.cancelled()
        stats = service.stats()
        assert stats["shed"] == 1 and stats["cancelled"] == 2
        assert service.queued() == stats["queued"] == 2
        gate.set()
        assert busy.result(timeout=30).output == [1]
        assert keep.result(timeout=30).output == [2, 3]
        assert incoming.result(timeout=30).output == [4, 5]
        service.shutdown(drain=True)
        stats = service.stats()
        assert stats["shed"] == 1 and stats["cancelled"] == 2
        assert stats["completed"] == 3

    def test_done_callback_sees_the_freed_slot(self, locksan_on, engine):
        service = _service(engine, max_queue=2, admission="reject")
        busy, gate = _occupy(service, [1])
        queued = service.submit([2, 1])
        service.submit([3, 2])
        seen = []
        queued.add_done_callback(
            lambda f: seen.append((service.queued(), service.stats()["cancelled"]))
        )
        assert queued.cancel()
        assert seen == [(1, 1)]
        gate.set()
        assert busy.result(timeout=30).output == [1]
        service.shutdown()

    def test_shutdown_without_drain_counts_a_cancelled_job_once(
        self, locksan_on, engine
    ):
        service = _service(engine, max_queue=2, admission="reject")
        busy, gate = _occupy(service, [1])
        first = service.submit([2, 1])
        second = service.submit([3, 2])
        assert first.cancel()
        service.shutdown(drain=False, wait=False)
        assert first.cancelled() and second.cancelled()
        gate.set()
        assert busy.result(timeout=30).output == [1]
        service.shutdown()
        assert service.stats()["cancelled"] == 2


class TestSubmitStorms:
    """Concurrent floods against each policy under the lock-order recorder:
    no deadlock, no locksan inversion, counters reconcile exactly."""

    JOBS_PER_THREAD = 12
    THREADS = 6

    def _storm(self, service, priorities=None):
        futures = []
        rejected = []
        fut_lock = threading.Lock()

        def flood(tid: int):
            for i in range(self.JOBS_PER_THREAD):
                priority = priorities[tid] if priorities else 0
                try:
                    fut = service.submit([3, 1, 2], priority=priority)
                except QueueFullError:
                    with fut_lock:
                        rejected.append(tid)
                else:
                    with fut_lock:
                        futures.append(fut)

        threads = [
            threading.Thread(target=flood, args=(t,)) for t in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "storm thread wedged: deadlock"
        return futures, rejected

    def test_reject_storm_reconciles(self, locksan_on, engine):
        service = _service(engine, max_queue=4, admission="reject")
        futures, rejected = self._storm(service)
        total = self.JOBS_PER_THREAD * self.THREADS
        assert len(futures) + len(rejected) == total
        for fut in futures:
            assert fut.result(timeout=30).output == [1, 2, 3]
        stats = service.stats()
        assert stats["submitted"] == len(futures)
        assert stats["rejected"] == len(rejected)
        assert stats["completed"] == len(futures)
        service.shutdown()

    def test_block_storm_admits_everything(self, locksan_on, engine):
        service = _service(engine, max_queue=2, admission="block")
        futures, rejected = self._storm(service)
        assert rejected == []
        assert len(futures) == self.JOBS_PER_THREAD * self.THREADS
        for fut in futures:
            assert fut.result(timeout=30).output == [1, 2, 3]
        service.shutdown()

    def test_shed_storm_every_future_terminal(self, locksan_on, engine):
        service = _service(engine, max_queue=3, admission="shed-lowest")
        priorities = list(range(self.THREADS))  # distinct → shed targets exist
        futures, rejected = self._storm(service, priorities=priorities)
        completed = cancelled = 0
        for fut in futures:
            if fut.cancelled():
                cancelled += 1
                with pytest.raises(CancelledError):
                    fut.result(timeout=1)
            else:
                assert fut.result(timeout=60).output == [1, 2, 3]
                completed += 1
        stats = service.stats()
        assert completed + cancelled == len(futures)
        assert stats["shed"] == cancelled
        assert stats["completed"] == completed
        assert stats["submitted"] == len(futures)
        assert len(futures) + len(rejected) == self.JOBS_PER_THREAD * self.THREADS
        service.shutdown()


class TestEngineSurface:
    def test_engine_service_passes_admission_knobs(self, engine):
        svc = engine.service("thread", max_queue=7, admission="shed-lowest")
        stats = svc.stats()
        assert stats["max_queue"] == 7 and stats["admission"] == "shed-lowest"
        # distinct knobs → distinct cached pools; same knobs → same pool
        assert engine.service("thread", max_queue=7, admission="shed-lowest") is svc
        assert engine.service("thread") is not svc
