"""Futures for asynchronous sort jobs.

A :class:`SortFuture` is the handle :meth:`repro.service.SortService.submit`
returns: the submitting thread keeps going while the service's worker pool
sorts in the background, and the future delivers the
:class:`~repro.api.SortReport` (or the failure) whenever the caller is ready
for it.

It *is* a :class:`concurrent.futures.Future`, so ``concurrent.futures.wait``,
``as_completed`` and ``asyncio.wrap_future`` work on it.  The subclass adds
only the job's metadata (``ticket``, ``job``, ``priority`` and the
worker-stamped ``plan_stats`` / ``wall_seconds`` / ``cpu_seconds``) and the
queue's ``on_cancel`` hook.  ``cancel()`` only succeeds while the job is
still queued (PENDING).
"""

from __future__ import annotations

from concurrent import futures
from concurrent.futures._base import (
    CANCELLED,
    CANCELLED_AND_NOTIFIED,
    FINISHED,
    PENDING,
    RUNNING,
)

from ..analysis.locksan import wrap_condition

__all__ = ["CANCELLED", "FINISHED", "PENDING", "RUNNING", "SortFuture"]


class SortFuture(futures.Future):
    """The result handle for one submitted sort job.

    ``ticket`` is the service-wide submission id (also the id the
    line-protocol server hands to remote clients), ``job`` the normalized
    :class:`~repro.planner.batch.SortJob`, ``priority`` its dispatch
    priority (lower runs first; FIFO within a priority).
    """

    def __init__(self, ticket: int, job=None, priority: float = 0):
        super().__init__()
        self._condition = wrap_condition(self._condition, "SortFuture._cond")
        self.ticket = ticket
        self.job = job
        self.priority = priority
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

    @property
    def state(self) -> str:
        """One of ``PENDING`` / ``RUNNING`` / ``CANCELLED`` / ``FINISHED``
        (the stdlib's ``CANCELLED_AND_NOTIFIED`` reads ``CANCELLED``)."""
        state = self._state
        return CANCELLED if state == CANCELLED_AND_NOTIFIED else state

    def cancel(self) -> bool:
        """Cancel the job if it has not been dispatched yet: ``True`` when
        the future is (now) cancelled, ``False`` once it runs or finished."""
        with self._condition:
            if self._state != PENDING:
                return self._state in (CANCELLED, CANCELLED_AND_NOTIFIED)
            self._state = CANCELLED
            self._condition.notify_all()
        hook = self.on_cancel  # read once: the queue may drop it meanwhile
        if hook is not None:
            hook()
        self._invoke_callbacks()
        return True

    def result(self, timeout: float | None = None):
        """The job's :class:`~repro.api.SortReport`; an expired ``timeout``
        raises the builtin :class:`TimeoutError` on every Python version."""
        try:
            return super().result(timeout)
        except futures.TimeoutError as exc:
            if exc is self._exception:  # the job's own failure
                raise
            raise _builtin_timeout(self, timeout) from None

    def exception(self, timeout: float | None = None):
        """The job's exception (``None`` on success); timeouts as in
        :meth:`result`."""
        try:
            return super().exception(timeout)
        except futures.TimeoutError:
            raise _builtin_timeout(self, timeout) from None

    def set_running_or_notify_cancel(self) -> bool:
        # defined here, not only inherited: perfbench times queue waits by
        # patching this name in SortFuture's own class dict
        return super().set_running_or_notify_cancel()


def _builtin_timeout(future: SortFuture, timeout) -> TimeoutError:
    # before Python 3.11 concurrent.futures.TimeoutError is its own class
    return TimeoutError(f"job {future.ticket} not done after {timeout}s")
