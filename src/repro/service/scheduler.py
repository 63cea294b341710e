"""The asynchronous :class:`SortService`: submit jobs, get futures back.

Every pre-existing execution surface blocks: ``engine.sort`` until one sort
finishes, ``engine.batch`` until a whole list does.  A service that must
absorb heavy concurrent traffic needs the opposite shape — accept a job
*now*, return a handle, execute when a worker frees up — so this module
turns the engine into a job service:

* :meth:`SortService.submit` enqueues one job and returns a
  :class:`~repro.service.futures.SortFuture` immediately;
* dispatch is a **priority queue** (lower priority value runs first, FIFO
  within a priority — the submission ticket breaks ties), so latency-
  sensitive jobs overtake bulk backfill;
* the worker pool is **persistent**: thread workers or long-lived worker
  processes (:func:`spawn_persistent_worker`) that survive across
  submissions instead of being rebuilt per batch call, each keeping the
  plans it computed across jobs (a fresh or respawned worker plans each
  size on its first job);
* a worker process that dies (OOM kill, segfault) fails *only* its
  in-flight future with :class:`WorkerDiedError` — the service respawns
  the worker and later submissions run normally;
* :meth:`SortService.gather` folds a list of futures back into the familiar
  :class:`~repro.planner.batch.BatchReport`, which is how
  :meth:`repro.engine.SortEngine.batch` is expressed: ``submit_many`` +
  ``gather`` over a service the engine keeps alive between calls.  This is the only pool that runs batch jobs.

Cost-model note: every job runs
:func:`repro.planner.batch.execute_and_check` on its own simulated machine,
the same per-job function the sequential
:func:`~repro.planner.batch.execute_batch` reference runs.  The service only
changes *scheduling*, so its reports match that reference byte for byte.

Worker processes
----------------
A process worker is a daemon child running :func:`persistent_worker_loop`:
one lockstep request/response exchange per job over a pipe, whose parent
end is :meth:`SortService._process_worker`.  A child that dies mid-job
surfaces to the parent as a broken pipe.

Admission control
-----------------
An unbounded queue is how overload corrupts a service: accepted work piles
up faster than workers drain it, every future's latency grows without
bound, and the process eventually dies holding everybody's jobs.  With
``max_queue`` set, :meth:`SortService.submit` applies one of three
admission policies when the queue is full:

* ``"reject"`` (default) — raise :class:`QueueFullError` immediately; the
  caller (or the wire protocol, which translates it to an ``overloaded``
  reply with a ``retry_after`` hint) decides when to come back;
* ``"block"`` — wait for a slot, bounded by the submit's
  ``admission_timeout`` (falling back to the service's ``block_timeout``);
  :class:`QueueFullError` on deadline expiry.  Either timeout is ``None``
  (wait indefinitely) or a finite number of seconds ``>= 0``;
* ``"shed-lowest"`` — cancel the lowest-priority *pending* future to make
  room, provided the incoming job outranks it (strictly lower priority
  value); otherwise the incoming job is the lowest-value work and is
  rejected.  The shed future reports ``CANCELLED`` exactly like a caller
  cancellation.

Only queued (undispatched) jobs count against ``max_queue``; in-flight jobs
do not: a job cancelled while queued frees its slot at once.

Futures
-------
A :class:`~repro.service.futures.SortFuture` is a
:class:`concurrent.futures.Future`, and the service keeps the stdlib
executor's contract: whoever takes a job out of the queue calls its
future's ``set_running_or_notify_cancel()`` exactly once — the worker that
dispatches it, or, for a job cancelled while queued, the code that dropped
it (``_cancel_queued``, the shed victim in :meth:`SortService.submit`,
:meth:`SortService.shutdown` without drain, a process worker's parked slot).
Without that call ``concurrent.futures.wait`` never counts a cancelled
future as done.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections.abc import Sequence

from ..analysis.locksan import wrap_condition
from ..models.params import MachineParams
from ..planner.batch import BatchReport, JobFailure, SortJob, execute_and_check
from ..planner.plan_cache import PlanCache
from ..testing import faults
from .futures import SortFuture

#: recognised admission policies for a bounded queue
ADMISSION_POLICIES = ("reject", "block", "shed-lowest")


class QueueFullError(RuntimeError):
    """Raised by :meth:`SortService.submit` when the bounded queue cannot
    admit the job under the configured policy.

    ``retry_after`` is the service's estimate (seconds) of when a retry is
    worth attempting — one average job's drain time — which the wire
    protocol forwards in its ``overloaded`` reply.
    """

    def __init__(self, message: str, *, queued: int = 0, max_queue: int = 0,
                 policy: str = "reject", retry_after: float = 0.05):
        super().__init__(message)
        self.queued = queued
        self.max_queue = max_queue
        self.policy = policy
        self.retry_after = retry_after


class WorkerDiedError(RuntimeError):
    """A persistent pool worker process died while a job was in flight.

    Only the in-flight job fails with this; the pool respawns the worker and
    subsequent submissions run normally.
    """


def _check_timeout(name: str, seconds: float | None) -> None:
    # NaN fails both comparisons: Condition.wait_for would poll on it
    # without sleeping, and a lock wait cannot take more than TIMEOUT_MAX
    if seconds is not None and not (
        isinstance(seconds, (int, float)) and 0 <= seconds <= threading.TIMEOUT_MAX
    ):
        raise ValueError(
            f"{name} must be None or finite and >= 0 (at most "
            f"{threading.TIMEOUT_MAX:g} s), got {seconds!r}"
        )


def default_pool_width(executor: str) -> int:
    """Pool width when the caller does not pin one: one worker per core for
    processes (that is the scale-out unit), the familiar capped-at-8 pool
    for GIL-bound threads."""
    cores = os.cpu_count() or 1
    return cores if executor == "process" else min(8, cores)


class _CacheView:
    """Duck-typed :class:`PlanCache` facade that counts one job's own
    hits/misses while delegating storage to the shared cache.

    Thread workers share the engine's cache; per-job deltas read off the
    shared counters would race, so each job plans through a private view.
    The shared cache's totals still advance (the view delegates), meaning
    cache-wide stats and per-job stats agree in sum.
    """

    __slots__ = ("inner", "hits", "misses")

    def __init__(self, inner: PlanCache):
        self.inner = inner
        self.hits = 0
        self.misses = 0

    def plan(self, n, params, algorithms=None, k_max=None, constants=None):
        plan, hit = self.inner.planned(n, params, algorithms, k_max, constants)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return plan


class _Entry:
    """One queue element: a job and its future."""

    __slots__ = ("priority", "seq", "future", "job", "check_sorted", "index",
                 "queued")

    def __init__(self, priority, seq, future, job, check_sorted=False, index=0):
        self.priority = priority
        self.seq = seq
        self.future = future
        self.job = job
        self.check_sorted = check_sorted
        #: index passed to execute_and_check (batch position or ticket) —
        #: appears in check-sorted failure messages
        self.index = index
        #: counted in ``_pending_jobs``; False once popped (or cancelled)
        self.queued = True

    def key(self):
        return (self.priority, self.seq)


# ---------------------------------------------------------------------- #
# worker processes (the child end of SortService._process_worker's pipe)
# ---------------------------------------------------------------------- #
def _picklable_error(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round-trip, else a stand-in that does."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — any pickling failure gets the stand-in
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def persistent_worker_loop(conn, constants=None) -> None:
    """Body of one long-lived worker process.

    Protocol (lockstep request/response over ``conn``):

    * ``("job", index, job, check_sorted)`` → ``("ok", report, dh, dm)``
      or ``("err", picklable_exception, dh, dm)`` where ``dh``/``dm`` are
      this job's plan-cache hit/miss deltas;
    * ``("stop",)`` → exit.

    The worker-local cache persists across jobs: repeated job shapes stop
    paying the ranking after the first submission, without any
    cross-process shared state.
    """
    cache = PlanCache()
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            break
        _kind, index, job, check_sorted = msg
        hits0, misses0 = cache.hits, cache.misses
        try:
            reply = ("ok", execute_and_check(
                index, job, cache=cache, constants=constants, check_sorted=check_sorted
            ))
        except Exception as exc:  # noqa: BLE001 — captured per job by design
            reply = ("err", _picklable_error(exc))
        conn.send((*reply, cache.hits - hits0, cache.misses - misses0))
    conn.close()


def spawn_persistent_worker(constants=None):
    """Fork one persistent worker; returns ``(process, parent_conn)``.

    The process is a daemon (it must never outlive the service that owns
    it); exactly one job is in flight per worker, so the pipe needs no
    framing beyond the lockstep protocol.
    """
    parent_conn, child_conn = multiprocessing.Pipe()
    proc = multiprocessing.Process(
        target=persistent_worker_loop,
        args=(child_conn, constants),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def stop_persistent_worker(proc, conn, timeout: float = 5.0) -> None:
    """Best-effort orderly stop: send the stop message, join, then escalate
    to terminate if the worker does not exit (e.g. wedged mid-job)."""
    try:
        conn.send(("stop",))
    except (OSError, BrokenPipeError):
        pass  # already dead — nothing to stop
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout)
    conn.close()


class SortService:
    """Asynchronous job service over one :class:`~repro.engine.SortEngine`.

    Parameters
    ----------
    engine:
        The engine whose machine, plan cache and calibrated constants every
        job inherits.  A bare :class:`~repro.models.params.MachineParams`
        is also accepted (a private engine is built around it).
    workers / executor:
        Pool width and backend, defaulting to the engine's configuration
        (``executor="thread"`` shares the engine's plan cache under the
        GIL; ``executor="process"`` runs persistent worker processes, one
        worker-local plan cache each, for real multi-core throughput).
    max_queue / admission / block_timeout:
        Admission control (see the module docstring): with ``max_queue``
        set, a full queue rejects, blocks (up to ``block_timeout`` seconds
        unless the submit names its own ``admission_timeout``), or sheds
        the lowest-priority pending job per ``admission``.

    The service starts its pool immediately and accepts submissions until
    :meth:`shutdown`.  Usable as a context manager (drains on exit).
    """

    def __init__(
        self,
        engine=None,
        *,
        workers: int | None = None,
        executor: str | None = None,
        max_queue: int | None = None,
        admission: str = "reject",
        block_timeout: float | None = None,
    ):
        from ..engine import SortEngine

        if isinstance(engine, MachineParams):
            engine = SortEngine(engine)
        if engine is None:
            raise TypeError("SortService needs a SortEngine or MachineParams")
        self.engine = engine
        self.params = engine.params
        self.cache = engine.cache
        self.constants = engine.constants
        self.executor = executor if executor is not None else engine.executor
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {self.executor!r}; choose 'thread' or 'process'"
            )
        if workers is None:
            workers = engine.workers
        if workers is None:
            workers = default_pool_width(self.executor)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        _check_timeout("block_timeout", block_timeout)
        self.max_queue = max_queue
        self.admission = admission
        self.block_timeout = block_timeout

        self._cond = wrap_condition(threading.Condition(), "SortService._cond")
        self._shared: list = []  # heap of (priority, seq, entry)
        self._pinned: list[list] = [[] for _ in range(workers)]
        self._pending_jobs = 0  # jobs queued, not yet dispatched or shed
        self._seq = itertools.count()
        self._tickets = itertools.count()
        self._shutdown = False
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.rejected = 0
        self.shed = 0
        self.respawns = 0
        self.records_sorted = 0  # records across successfully completed jobs
        self.busy_seconds = 0.0  # summed worker-side job wall-clock
        self._started = time.monotonic()

        # one handle slot per worker (process mode); feeder/worker threads
        self._handles: list = [None] * workers
        self._threads: list[threading.Thread] = []
        for index in range(workers):
            if self.executor == "process":
                self._handles[index] = spawn_persistent_worker(self.constants)
                target = self._process_worker
            else:
                target = self._thread_worker
            t = threading.Thread(
                target=target, args=(index,), daemon=True,
                name=f"sort-service-{self.executor}-{index}",
            )
            t.start()
            self._threads.append(t)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortService(workers={self.workers}, executor={self.executor!r}, "
            f"queued={self.queued()}, shutdown={self._shutdown})"
        )

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _normalize(self, job) -> SortJob:
        from dataclasses import replace

        if not isinstance(job, SortJob):
            job = SortJob(data=job)
        if job.params is None:
            job = replace(job, params=self.params)
        return job

    def submit(
        self,
        job,
        priority: float = 0,
        *,
        check_sorted: bool = False,
        worker: int | None = None,
        admission_timeout: float | None = None,
    ) -> SortFuture:
        """Enqueue one job; return its :class:`SortFuture` immediately.

        ``job`` is a :class:`SortJob` or a bare data sequence (wrapped into
        an adaptive job on the service's machine).  ``priority``: lower
        runs first, FIFO within equal priorities.  ``worker`` optionally
        pins the job to one pool slot (see ``submit_many(round_robin=)``;
        normal traffic should leave it ``None`` and let any idle worker
        pull).

        With a bounded queue (``max_queue``), a full queue applies the
        service's admission policy — see the module docstring.
        ``admission_timeout`` bounds a ``"block"`` wait for this one submit
        (default: the service's ``block_timeout``); the other policies
        ignore it.  Raises :class:`QueueFullError` when the job cannot be
        admitted.
        """
        job = self._normalize(job)
        # a non-numeric (or NaN) priority would poison the heap invariant —
        # one bad key makes later sifts raise mid-pop and kills the worker
        # thread that hit it — so reject it at the door
        if not isinstance(priority, (int, float)) or (
            isinstance(priority, float) and priority != priority
        ):
            raise TypeError(f"priority must be a real number, got {priority!r}")
        if worker is not None and not (0 <= worker < self.workers):
            raise ValueError(f"worker must be in [0, {self.workers}), got {worker}")
        _check_timeout("admission_timeout", admission_timeout)
        with self._cond:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            victim = self._admit_locked(priority, admission_timeout)
            ticket = next(self._tickets)
            future = SortFuture(ticket, job=job, priority=priority)
            entry = _Entry(priority, next(self._seq), future=future, job=job,
                           check_sorted=check_sorted, index=ticket)
            future.on_cancel = functools.partial(self._cancel_queued, entry)
            target = self._shared if worker is None else self._pinned[worker]
            heapq.heappush(target, (entry.key(), entry))
            self._pending_jobs += 1
            self.submitted += 1
            self._cond.notify_all()
        if victim is not None:
            # cancel outside the lock: cancel() fires done-callbacks in the
            # calling thread, and a callback re-entering the service (stats,
            # another submit) under the held condition would self-deadlock
            victim.future.cancel()
            with self._cond:
                self.shed += 1
                self.cancelled += 1
            victim.future.set_running_or_notify_cancel()
        return future

    # ------------------------------------------------------------------ #
    # admission control (bounded queue)
    # ------------------------------------------------------------------ #
    def _retry_after_locked(self) -> float:
        """Overload back-pressure hint: about one average job's drain."""
        if self.completed:
            return max(0.01, round(self.busy_seconds / self.completed, 4))
        return 0.05

    def retry_hint(self) -> float:
        """Public back-pressure hint (seconds until a retry is plausible);
        servers forward this to shed clients as ``retry_after``."""
        with self._cond:
            return self._retry_after_locked()

    def _queue_full_locked(self, message: str) -> QueueFullError:
        # caller holds _cond (the _locked suffix is the contract)
        self.rejected += 1  # reprolint: disable=lock-discipline
        return QueueFullError(
            message,
            queued=self._pending_jobs,
            max_queue=self.max_queue or 0,
            policy=self.admission,
            retry_after=self._retry_after_locked(),
        )

    def _admit_locked(self, priority: float, admission_timeout: float | None):
        """Admit one job under the bounded-queue policy (caller holds the
        condition).  Returns the entry to shed (cancel outside the lock),
        or ``None``; raises :class:`QueueFullError` when inadmissible."""
        if self.max_queue is None or self._pending_jobs < self.max_queue:
            return None
        if self.admission == "reject":
            raise self._queue_full_locked(
                f"queue full ({self._pending_jobs}/{self.max_queue}); "
                "admission policy 'reject'"
            )
        if self.admission == "shed-lowest":
            victim = self._shed_victim_locked(priority)
            if victim is None:
                raise self._queue_full_locked(
                    f"queue full ({self._pending_jobs}/{self.max_queue}) "
                    "and no pending job has lower priority than "
                    f"{priority!r}; admission policy 'shed-lowest'"
                )
            return victim
        # "block": wait for a slot or shutdown, bounded by the timeout
        timeout = (admission_timeout if admission_timeout is not None
                   else self.block_timeout)
        if not self._cond.wait_for(
            lambda: self._shutdown or self._pending_jobs < self.max_queue, timeout
        ):
            raise self._queue_full_locked(
                f"queue full ({self._pending_jobs}/{self.max_queue}); "
                "admission policy 'block' deadline expired"
            )
        if self._shutdown:
            raise RuntimeError("service is shut down")
        return None

    def _shed_victim_locked(self, priority: float) -> _Entry | None:
        """Pop the lowest-priority pending job entry (highest key) from
        whichever queue holds it, provided it ranks strictly below the
        incoming ``priority``.  Caller holds the condition and cancels the
        returned entry's future outside it."""
        best_list = None
        best_pos = -1
        for lst in [self._shared, *self._pinned]:
            for pos, (_key, entry) in enumerate(lst):
                if not entry.queued:  # a cancelled job's dead entry
                    continue
                if best_list is None or entry.key() > best_list[best_pos][1].key():
                    best_list, best_pos = lst, pos
        if best_list is None:
            return None
        victim = best_list[best_pos][1]
        if not victim.priority > priority:
            return None
        best_list.pop(best_pos)
        heapq.heapify(best_list)
        self._dequeue_locked(victim)
        return victim

    def _dequeue_locked(self, entry: _Entry) -> None:
        """Take a queued job out of ``_pending_jobs`` (caller holds the
        condition) and wake "block"-policy submitters waiting on a slot.
        Dropping the cancel hook breaks the future -> entry -> future cycle."""
        entry.queued = False
        entry.future.on_cancel = None
        # caller holds _cond (the _locked suffix is the contract)
        self._pending_jobs -= 1  # reprolint: disable=lock-discipline
        if self.max_queue is not None:
            self._cond.notify_all()

    def submit_many(
        self,
        jobs: Sequence,
        priority: float = 0,
        *,
        check_sorted: bool = False,
        round_robin: bool = False,
    ) -> list[SortFuture]:
        """Submit a batch; return its futures in submission order.

        ``round_robin=True`` pins job *i* to worker ``i % workers``.  Which
        worker runs a job then no longer depends on timing, so each
        worker-local plan cache sees a fixed job stream and the per-worker
        hit/miss stats :meth:`gather` reports are deterministic.
        """
        return [
            self.submit(
                job,
                priority,
                check_sorted=check_sorted,
                worker=(i % self.workers) if round_robin else None,
            )
            for i, job in enumerate(jobs)
        ]

    # ------------------------------------------------------------------ #
    # gathering
    # ------------------------------------------------------------------ #
    def gather(self, futures: Sequence[SortFuture]) -> BatchReport:
        """Wait for ``futures`` and fold them into a
        :class:`~repro.planner.batch.BatchReport`: reports in the given
        order, per-job failures captured with their position, plan-cache
        hits/misses summed.  In process mode ``shard_plan_stats`` also
        lists each worker's ``(hits, misses)`` in worker order, since every
        worker owns its cache.
        """
        t0 = time.perf_counter()
        report = BatchReport(executor=self.executor)
        per_worker: dict[int, list[int]] = {}
        for i, fut in enumerate(futures):
            label = getattr(fut.job, "label", "")
            try:
                rep = fut.result()
            except Exception as exc:  # noqa: BLE001 — captured per job by design
                report.failures.append(JobFailure(index=i, label=label, error=exc))
            else:
                report.reports.append(rep)
            if fut.plan_stats is not None:
                worker, dh, dm = fut.plan_stats
                report.plan_hits += dh
                report.plan_misses += dm
                acc = per_worker.setdefault(worker, [0, 0])
                acc[0] += dh
                acc[1] += dm
        if self.executor == "process":
            report.shard_plan_stats = [
                tuple(per_worker[w]) for w in sorted(per_worker)
            ]
        report.wall_seconds = time.perf_counter() - t0
        return report

    # ------------------------------------------------------------------ #
    # worker loops
    # ------------------------------------------------------------------ #
    def _next_entry(self, index: int) -> _Entry | None:
        """Block until an entry is available for worker ``index`` (its pinned
        queue or the shared queue, whichever holds the best key) or the
        service is shut down with nothing left to drain."""
        with self._cond:
            while True:
                pinned = self._pinned[index]
                best = None
                if self._shared and pinned:
                    best = self._shared if self._shared[0][0] <= pinned[0][0] else pinned
                elif self._shared:
                    best = self._shared
                elif pinned:
                    best = pinned
                if best is not None:
                    entry = heapq.heappop(best)[1]
                    if not entry.queued:  # cancelled while queued: drop it
                        continue
                    self._dequeue_locked(entry)
                    return entry
                if self._shutdown:
                    return None
                self._cond.wait()

    def _cancel_queued(self, entry: _Entry) -> None:
        """``entry.future.on_cancel``: a still-queued job frees its slot,
        counts as cancelled and is notified here; a popped one is counted
        and notified by its popper."""
        with self._cond:
            if not entry.queued:
                return
            self._dequeue_locked(entry)
            self.cancelled += 1
        entry.future.set_running_or_notify_cancel()

    def _finish(self, future: SortFuture, worker: int, hits: int, misses: int,
                result=None, error: BaseException | None = None,
                wall: float = 0.0, records: int = 0,
                cpu: float | None = None) -> None:
        future.plan_stats = (worker, hits, misses)
        future.wall_seconds = wall
        future.cpu_seconds = wall if cpu is None else cpu
        # count the job before resolving its future: a caller woken by the
        # future must already see it in stats()
        with self._cond:
            self.completed += 1
            self.busy_seconds += wall
            if error is None:
                self.records_sorted += records
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _thread_worker(self, index: int) -> None:
        while True:
            entry = self._next_entry(index)
            if entry is None:
                return
            fut = entry.future
            if not fut.set_running_or_notify_cancel():
                with self._cond:
                    self.cancelled += 1
                continue
            view = _CacheView(self.cache)
            records = len(entry.job.data) if entry.job.data is not None else 0
            t0 = time.perf_counter()
            c0 = time.thread_time()  # this worker's CPU, contention-free
            try:
                plan = faults.active()
                if plan is not None:
                    # thread workers cannot die without taking the pool down,
                    # so injected "worker death" fails the in-flight job
                    plan.check("worker-death", f"thread worker {index}")
                rep = execute_and_check(
                    entry.index, entry.job, cache=view,
                    constants=self.constants, check_sorted=entry.check_sorted,
                )
            except Exception as exc:  # noqa: BLE001 — captured per job by design
                self._finish(fut, index, view.hits, view.misses, error=exc,
                             wall=time.perf_counter() - t0, records=records,
                             cpu=time.thread_time() - c0)
            else:
                self._finish(fut, index, view.hits, view.misses, result=rep,
                             wall=time.perf_counter() - t0, records=records,
                             cpu=time.thread_time() - c0)

    def _process_worker(self, index: int) -> None:
        """Feeder thread for one persistent worker process: one in-flight
        job at a time over the lockstep pipe protocol."""
        while True:
            entry = self._next_entry(index)
            if entry is None:
                break
            fut = entry.future
            handle = self._handles[index]
            if handle is None:  # respawn was refused (interpreter shutdown)
                # the popper counts a dispatched job's cancel, before the
                # future resolves, as _finish counts a completion
                with self._cond:
                    self.cancelled += 1
                fut.cancel()
                fut.set_running_or_notify_cancel()
                continue
            proc, conn = handle
            if not fut.set_running_or_notify_cancel():
                with self._cond:
                    self.cancelled += 1
                continue
            records = len(entry.job.data) if entry.job.data is not None else 0
            t0 = time.perf_counter()
            if faults.fire("worker-death"):
                # injected worker death takes the REAL failure path: kill the
                # child, let the pipe EOF below raise, fail only this future,
                # respawn — exactly what an OOM kill looks like
                proc.kill()
            try:
                conn.send(("job", entry.index, entry.job, entry.check_sorted))
                status, payload, dh, dm = conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                # the worker process died mid-job: fail ONLY this future,
                # respawn the worker, keep serving the queue
                self._respawn(index)
                self._finish(
                    fut, index, 0, 0,
                    error=WorkerDiedError(
                        f"worker {index} died while running job "
                        f"{entry.index} ({getattr(entry.job, 'label', '')!r}): "
                        f"{exc!r}"
                    ),
                    wall=time.perf_counter() - t0, records=records,
                )
                continue
            wall = time.perf_counter() - t0
            if status == "ok":
                self._finish(fut, index, dh, dm, result=payload,
                             wall=wall, records=records)
            else:
                self._finish(fut, index, dh, dm, error=payload,
                             wall=wall, records=records)
        proc_handle = self._handles[index]
        if proc_handle is not None:
            stop_persistent_worker(*proc_handle)
            with self._cond:
                self._handles[index] = None

    def _respawn(self, index: int) -> None:
        proc, conn = self._handles[index]
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        proc.join(0.1)
        if proc.is_alive():  # pragma: no cover - death races are timing-bound
            proc.terminate()
            proc.join(1.0)
        if not threading.main_thread().is_alive():
            # interpreter shutdown: forking now would leak an orphan that
            # outlives the parent; park the slot instead
            with self._cond:  # pragma: no cover - shutdown race
                self._handles[index] = None
            return
        # fork outside the lock (slow); publish the new handle under it
        handle = spawn_persistent_worker(self.constants)
        with self._cond:
            self._handles[index] = handle
            self.respawns += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def queued(self) -> int:
        """Jobs accepted but not yet dispatched."""
        with self._cond:
            return self._pending_jobs

    def stats(self) -> dict:
        """Service-level counters — the ops dashboard row.

        Throughput fields: ``records_sorted`` (across successfully completed
        jobs), ``busy_seconds`` (summed worker-side job wall-clock),
        ``records_per_sec`` (records over busy time — per-worker execution
        throughput, the number the kernel layer moves), ``avg_job_seconds``
        and ``uptime_seconds``.
        """
        with self._cond:
            completed = self.completed
            busy = self.busy_seconds
            return {
                "executor": self.executor,
                "workers": self.workers,
                "submitted": self.submitted,
                "completed": completed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "shed": self.shed,
                "max_queue": self.max_queue,
                "admission": self.admission,
                "queued": self._pending_jobs,
                "respawns": self.respawns,
                "shutdown": self._shutdown,
                "records_sorted": self.records_sorted,
                "busy_seconds": round(busy, 6),
                "records_per_sec": round(self.records_sorted / busy, 1) if busy else 0.0,
                "avg_job_seconds": round(busy / completed, 6) if completed else 0.0,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            }

    def shutdown(self, drain: bool = True, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting submissions and wind the pool down.

        ``drain=True`` executes everything already queued before workers
        exit; ``drain=False`` cancels all queued (undispatched) jobs —
        their futures raise ``CancelledError`` — while in-flight jobs still
        finish.  ``wait`` joins the worker threads (pass ``False`` to
        return immediately, e.g. while a job you intend to unblock is still
        in flight).  Idempotent.
        """
        with self._cond:
            already = self._shutdown
            self._shutdown = True
            if not drain and not already:
                doomed = [e for _, e in self._shared if e.queued]
                doomed += [e for p in self._pinned for _, e in p if e.queued]
                for entry in doomed:
                    self._dequeue_locked(entry)
                self._shared.clear()
                for p in self._pinned:
                    p.clear()
            else:
                doomed = []
            self._cond.notify_all()
        for entry in doomed:
            if entry.future.cancel():
                with self._cond:
                    self.cancelled += 1
            entry.future.set_running_or_notify_cancel()
        if wait:
            for t in self._threads:
                t.join(timeout)

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
