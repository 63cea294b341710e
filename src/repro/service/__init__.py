"""Asynchronous sort-job service: submit/futures, priority dispatch, serving.

The execution surface up through the :class:`~repro.engine.SortEngine`
redesign was synchronous — every entry point blocked its caller until the
sort finished.  This subsystem adds the submission-oriented surface a
persistent, heavily-trafficked deployment needs:

* :mod:`~repro.service.futures` — :class:`SortFuture`, a
  :class:`concurrent.futures.Future` that carries its job's ticket,
  priority and plan-cache stats (stdlib ``wait`` / ``as_completed`` /
  ``asyncio.wrap_future`` work on it);
* :mod:`~repro.service.scheduler` — :class:`SortService`, the
  priority-queue dispatcher over a **persistent** worker pool (thread or
  long-lived worker processes that survive across submissions, with
  worker-death isolation and respawn);
* :mod:`~repro.service.server` — ``python -m repro serve``: the
  newline-delimited-JSON line protocol over a local socket, plus
  :class:`ServiceClient` for Python callers.

``engine.batch()`` is a thin client of this layer (``submit_many`` +
``gather``): it is the only pool that runs batch jobs.  Its reports are
tested against the sequential :func:`~repro.planner.batch.execute_batch`
reference.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".backoff": ("backoff_delay",),
    ".futures": ("CANCELLED", "FINISHED", "PENDING", "RUNNING", "SortFuture"),
    ".scheduler": (
        "ADMISSION_POLICIES",
        "QueueFullError",
        "SortService",
        "WorkerDiedError",
        "default_pool_width",
    ),
    ".server": ("EngineServer", "ServiceClient", "ServiceError"),
})

__all__ = [
    "ADMISSION_POLICIES",
    "CANCELLED",
    "EngineServer",
    "FINISHED",
    "PENDING",
    "QueueFullError",
    "RUNNING",
    "ServiceClient",
    "ServiceError",
    "SortFuture",
    "SortService",
    "WorkerDiedError",
    "backoff_delay",
    "default_pool_width",
]
