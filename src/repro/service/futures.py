"""Futures for asynchronous sort jobs.

A :class:`SortFuture` is the handle :meth:`repro.service.SortService.submit`
returns: the submitting thread keeps going while the service's worker pool
sorts in the background, and the future delivers the
:class:`~repro.api.SortReport` (or the failure) whenever the caller is ready
for it.

The semantics deliberately mirror :class:`concurrent.futures.Future` —
``result`` / ``exception`` / ``cancel`` / ``add_done_callback`` — but the
class is implemented here rather than inherited so the service can attach
job metadata (``ticket``, ``priority``, the normalized
:class:`~repro.planner.batch.SortJob`) and the per-job plan-cache accounting
that :meth:`~repro.service.SortService.gather` folds into a
:class:`~repro.planner.batch.BatchReport`.

States and transitions::

    PENDING ──cancel()──▶ CANCELLED
       │
       └─worker picks it up─▶ RUNNING ──▶ FINISHED (result or exception)

``cancel()`` only succeeds while the job is still queued (PENDING); once a
worker has started it there is nothing safe to interrupt, matching the
stdlib contract.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

from ..analysis.locksan import wrap_condition

PENDING = "PENDING"
RUNNING = "RUNNING"
CANCELLED = "CANCELLED"
FINISHED = "FINISHED"

_STATES = (PENDING, RUNNING, CANCELLED, FINISHED)


class SortFuture:
    """The result handle for one submitted sort job.

    Attributes
    ----------
    ticket:
        Service-wide monotonically increasing submission id (also the id the
        line-protocol server hands to remote clients).
    job:
        The normalized :class:`~repro.planner.batch.SortJob` this future
        tracks.
    priority:
        Dispatch priority (lower runs first; FIFO within a priority).
    """

    __slots__ = (
        "ticket",
        "job",
        "priority",
        "_cond",
        "_state",
        "_result",
        "_exception",
        "_callbacks",
        "plan_stats",
        "wall_seconds",
        "cpu_seconds",
        "on_cancel",
    )

    def __init__(self, ticket: int, job=None, priority: float = 0):
        self.ticket = ticket
        self.job = job
        self.priority = priority
        self._cond = wrap_condition(threading.Condition(), "SortFuture._cond")
        self._state = PENDING
        self._result = None
        self._exception: BaseException | None = None
        self._callbacks: list = []
        #: ``(worker_index, plan_hits, plan_misses)`` for this job's
        #: execution, stamped by the worker just before completion —
        #: ``None`` until then (and forever, for cancelled jobs)
        self.plan_stats: tuple[int, int, int] | None = None
        #: worker-measured wall-clock of this job's execution, stamped just
        #: before completion — ``None`` until then (and for cancelled jobs)
        self.wall_seconds: float | None = None
        #: worker-measured CPU time of this job's execution (thread CPU for
        #: thread workers, wall of the dedicated child for process workers).
        #: Unlike ``wall_seconds`` this is not inflated when several workers
        #: timeshare a core, so it is the honest per-job compute figure.
        self.cpu_seconds: float | None = None
        #: set by the job's queue; the cancel() that moves PENDING to
        #: CANCELLED calls it, outside the lock, before the done-callbacks
        self.on_cancel = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = getattr(self.job, "label", "") or ""
        return (
            f"SortFuture(ticket={self.ticket}, state={self._state}"
            + (f", label={label!r}" if label else "")
            + ")"
        )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """One of ``PENDING`` / ``RUNNING`` / ``CANCELLED`` / ``FINISHED``."""
        with self._cond:
            return self._state

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == CANCELLED

    def running(self) -> bool:
        with self._cond:
            return self._state == RUNNING

    def done(self) -> bool:
        with self._cond:
            return self._state in (CANCELLED, FINISHED)

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self) -> bool:
        """Cancel the job if it has not been dispatched yet.

        Returns ``True`` when the future is (now) cancelled, ``False`` when
        the job is already running or finished.  Waiters are released with
        :class:`concurrent.futures.CancelledError` and done-callbacks fire.
        """
        with self._cond:
            if self._state == CANCELLED:
                return True
            if self._state != PENDING:
                return False
            self._state = CANCELLED
            self._cond.notify_all()
        hook = self.on_cancel  # read once: the queue may drop it meanwhile
        if hook is not None:
            hook()
        self._invoke_callbacks()
        return True

    # ------------------------------------------------------------------ #
    # waiting
    # ------------------------------------------------------------------ #
    def result(self, timeout: float | None = None):
        """Block until done; return the :class:`~repro.api.SortReport`.

        Raises the job's exception if it failed,
        :class:`concurrent.futures.CancelledError` if it was cancelled, and
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        with self._cond:
            self._wait_done(timeout)
            if self._state == CANCELLED:
                raise CancelledError(f"job {self.ticket} was cancelled")
            if self._exception is not None:
                raise self._exception
            return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until done; return the job's exception (``None`` on
        success).  Cancellation raises, timeouts raise ``TimeoutError``."""
        with self._cond:
            self._wait_done(timeout)
            if self._state == CANCELLED:
                raise CancelledError(f"job {self.ticket} was cancelled")
            return self._exception

    def _wait_done(self, timeout: float | None) -> None:
        # caller holds the condition
        if self._state in (CANCELLED, FINISHED):
            return
        self._cond.wait_for(
            lambda: self._state in (CANCELLED, FINISHED), timeout=timeout
        )
        if self._state not in (CANCELLED, FINISHED):
            raise TimeoutError(f"job {self.ticket} not done after {timeout}s")

    # ------------------------------------------------------------------ #
    # callbacks
    # ------------------------------------------------------------------ #
    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` when the future completes or is cancelled.

        Fires immediately (in the caller's thread) if already done;
        otherwise fires in the worker thread that completes the job.
        Callback exceptions are swallowed — a misbehaving observer must not
        take down a worker.
        """
        with self._cond:
            if self._state not in (CANCELLED, FINISHED):
                self._callbacks.append(fn)
                return
        self._safe_call(fn)

    def _invoke_callbacks(self) -> None:
        with self._cond:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._safe_call(fn)

    def _safe_call(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 — observer errors must not propagate
            pass

    # ------------------------------------------------------------------ #
    # producer side (the service's workers)
    # ------------------------------------------------------------------ #
    def set_running_or_notify_cancel(self) -> bool:
        """Transition PENDING → RUNNING; ``False`` if already cancelled
        (the worker must then skip the job)."""
        with self._cond:
            if self._state == CANCELLED:
                return False
            if self._state != PENDING:
                raise RuntimeError(
                    f"job {self.ticket} dispatched twice (state {self._state})"
                )
            self._state = RUNNING
            return True

    def set_result(self, result) -> None:
        with self._cond:
            if self._state in (CANCELLED, FINISHED):
                raise RuntimeError(f"job {self.ticket} already {self._state}")
            self._result = result
            self._state = FINISHED
            self._cond.notify_all()
        self._invoke_callbacks()

    def set_exception(self, exception: BaseException) -> None:
        with self._cond:
            if self._state in (CANCELLED, FINISHED):
                raise RuntimeError(f"job {self.ticket} already {self._state}")
            self._exception = exception
            self._state = FINISHED
            self._cond.notify_all()
        self._invoke_callbacks()


def wait(futures, timeout: float | None = None) -> tuple[list, list]:
    """Wait for ``futures`` to finish; return ``(done, not_done)`` lists.

    A blunt instrument compared to :meth:`SortFuture.result` — useful for
    "is the batch drained yet" checks without consuming results.
    """
    import time

    deadline = None if timeout is None else time.monotonic() + timeout
    done: list = []
    not_done: list = []
    for fut in futures:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        with fut._cond:
            try:
                fut._wait_done(remaining)
            except TimeoutError:
                not_done.append(fut)
                continue
        done.append(fut)
    return done, not_done
