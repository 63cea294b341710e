"""Model check of the SortService job lifecycle.

A Hypothesis state machine drives a one-worker thread service whose worker
is parked on a gate job, so nothing is dispatched between steps and every
queue decision is deterministic.  Each step is checked against a model of
the queue: which submit is admitted, rejected or sheds a victim, what
``cancel()`` returns.  The invariants tie the service's counters to its
futures and to ``concurrent.futures.wait``, which counts a cancelled future
as done only once the service has notified it.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis import locksan
from repro.models import MachineParams
from repro.planner.batch import SortJob
from repro.service import QueueFullError, SortService

PARAMS = MachineParams(M=64, B=8, omega=4)


class GatedData:
    """Input whose iteration blocks until ``gate`` opens; ``started`` is set
    once the worker has dispatched the job."""

    def __init__(self, gate: threading.Event, started: threading.Event):
        self._gate, self._started = gate, started

    def __iter__(self):
        self._started.set()
        assert self._gate.wait(timeout=30), "gate never opened"
        return iter([0])

    def __len__(self):
        return 1


class Job:
    """The model's view of one submitted job."""

    def __init__(self, future, data, fails, priority, seq):
        self.future, self.data, self.fails = future, data, fails
        self.priority, self.seq = priority, seq
        self.state = "queued"  # queued -> cancelled | done (gate: running)
        self.fired = 0  # done-callback calls

    def on_done(self, _future):
        self.fired += 1


class ServiceLifecycle(RuleBasedStateMachine):
    @initialize(
        max_queue=st.integers(2, 3),
        admission=st.sampled_from(["reject", "shed-lowest", "block"]),
    )
    def start(self, max_queue, admission):
        if locksan.locksan_enabled():
            locksan.reset()
        extra = {"block_timeout": 0} if admission == "block" else {}
        self.service = SortService(PARAMS, workers=1, executor="thread",
                                   max_queue=max_queue, admission=admission, **extra)
        self.max_queue, self.admission = max_queue, admission
        self.jobs: list[Job] = []
        self.seq = itertools.count()
        self.rejected = self.shed = 0
        self.shut = False
        self._park()

    # ---- helpers ------------------------------------------------------ #
    def _park(self):
        """Hold the (idle) worker on a fresh gate job."""
        self.gate, started = threading.Event(), threading.Event()
        job = self._track(self.service.submit(GatedData(self.gate, started)),
                          [0], False, 0)
        assert started.wait(timeout=30), "gate job never dispatched"
        job.state = "running"
        self.parked = True

    def _track(self, future, data, fails, priority) -> Job:
        job = Job(future, data, fails, priority, next(self.seq))
        future.add_done_callback(job.on_done)
        self.jobs.append(job)
        return job

    def _queued(self) -> list[Job]:
        return [j for j in self.jobs if j.state == "queued"]

    def _submit(self, data, priority, pinned, fails):
        """Submit one job and check the admission decision against the model."""
        job = SortJob(data=data, params=PARAMS,
                      algorithm="bogosort" if fails else None)
        queued = self._queued()
        victim = None
        admitted = len(queued) < self.max_queue
        if not admitted and self.admission == "shed-lowest":
            worst = max(queued, key=lambda j: (j.priority, j.seq))
            if worst.priority > priority:
                victim, admitted = worst, True
        try:
            future = self.service.submit(job, priority,
                                         worker=0 if pinned else None)
        except RuntimeError as exc:
            if self.shut:
                assert str(exc) == "service is shut down"
                return
            assert isinstance(exc, QueueFullError) and not admitted, exc
            self.rejected += 1
            return
        assert not self.shut and admitted
        self._track(future, data, fails, priority)
        if victim is not None:
            assert victim.future.cancelled()
            victim.state = "cancelled"
            self.shed += 1

    # ---- rules -------------------------------------------------------- #
    # distinct keys: the small-input `ram` plan rejects duplicates (ROADMAP
    # item 1), which is not what this machine checks
    jobs_data = st.lists(st.integers(-50, 50), max_size=12, unique=True)

    @rule(data=jobs_data, priority=st.integers(0, 3), pinned=st.booleans(),
          fails=st.booleans())
    def submit(self, data, priority, pinned, fails):
        self._submit(data, priority, pinned, fails)

    @rule(data=jobs_data, priority=st.integers(0, 3))
    def submit_into_full_queue(self, data, priority):
        for _ in range(self.max_queue - len(self._queued()) + 1):
            self._submit(data, priority, False, False)

    @precondition(lambda self: len(self.jobs) > 0)
    @rule(pick=st.integers(0, 1_000))
    def cancel(self, pick):
        job = self.jobs[pick % len(self.jobs)]
        expected = job.state in ("queued", "cancelled")
        assert job.future.cancel() is expected
        if job.state == "queued":
            job.state = "cancelled"

    @precondition(lambda self: self.parked)
    @rule()
    def release_and_drain(self):
        self.gate.set()
        live = [j.future for j in self.jobs if j.state in ("queued", "running")]
        _, not_done = concurrent.futures.wait(live, timeout=30)
        assert not not_done
        for job in self.jobs:
            if job.state in ("queued", "running"):
                job.state = "done"
        self.parked = False
        if not self.shut:
            self._park()

    @precondition(lambda self: not self.shut)
    @rule()
    def shutdown_without_drain(self):
        self.service.shutdown(drain=False, wait=False)
        self.shut = True
        for job in self._queued():
            job.state = "cancelled"

    # ---- invariants --------------------------------------------------- #
    @invariant()
    def counters_match_the_futures(self):
        if not self.parked:
            return
        stats = self.service.stats()
        waiting = [j for j in self.jobs
                   if not j.future.done() and not j.future.running()]
        assert self.service.queued() == stats["queued"] == len(waiting)
        assert len(waiting) == len(self._queued())
        assert stats["submitted"] == (  # + 1: the running gate job
            stats["completed"] + stats["cancelled"] + stats["queued"] + 1
        )
        assert stats["rejected"] == self.rejected
        assert stats["shed"] == self.shed

    @invariant()
    def futures_match_the_model(self):
        if not self.parked:
            return
        futures = [j.future for j in self.jobs]
        done, _ = concurrent.futures.wait(futures, timeout=0)
        for job in self.jobs:
            assert job.future.state == {
                "queued": "PENDING", "running": "RUNNING",
                "cancelled": "CANCELLED", "done": "FINISHED",
            }[job.state]
            assert (job.future in done) is job.future.done()
            # the worker runs a job's callbacks before it takes the gate
            assert job.fired == (1 if job.future.done() else 0)
            if job.state == "done":
                if job.fails:
                    assert isinstance(job.future.exception(), ValueError)
                else:
                    assert job.future.result().output == sorted(job.data)

    def teardown(self):
        self.gate.set()
        self.service.shutdown(drain=True)  # joins the worker
        futures = [j.future for j in self.jobs]
        _, not_done = concurrent.futures.wait(futures, timeout=0)
        assert not not_done
        assert [j.fired for j in self.jobs] == [1] * len(self.jobs)
        stats = self.service.stats()
        assert stats["submitted"] == stats["completed"] + stats["cancelled"]
        assert stats["queued"] == 0
        if locksan.locksan_enabled():
            assert locksan.violations() == []


ServiceLifecycle.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceLifecycle = ServiceLifecycle.TestCase
