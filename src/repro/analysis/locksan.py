"""locksan — the lock-order recorder.

The service layer holds several locks with well-defined, but so far only
*conventional*, discipline: :class:`~repro.service.SortService` serializes
queue state under one condition, :class:`~repro.service.EngineServer` guards
its ticket registry, :class:`~repro.planner.plan_cache.PlanCache` guards the
memo table.  A new code path that nests two of them in opposite orders in
two threads is a latent deadlock that no amount of passing tests will
surface — lock inversions are timing bugs.  locksan makes the discipline
machine-checked: every acquisition of a registered lock is recorded against
the locks the acquiring thread already holds, building a global
*lock-order graph*; an edge observed in both directions is an inversion and
is reported as a violation (as is re-acquiring a held non-reentrant lock,
which is a guaranteed self-deadlock).

Integration is at construction time, not by monkeypatching: the lock-owning
classes create their locks through :func:`wrap_lock` /
:func:`wrap_condition`, which return the lock unchanged while the recorder
is disabled (zero overhead on the hot path) and a recording proxy while it
is enabled.  Enable *before* constructing the objects under test::

    from repro.analysis import locksan
    locksan.enable()
    service = SortService(engine)          # locks are now recorded
    ...
    assert locksan.violations() == []

``REPRO_LOCKSAN=1`` in the environment enables recording at ``import
repro``.  Violations are *recorded* by default (so a stress test can drive
the system hard and assert at the end); :func:`set_raise_on_violation`
turns them into immediate :class:`LockOrderError`\\ s for debugging.
"""

from __future__ import annotations

import threading

_enabled = False
_raise_on_violation = False
_state_lock = threading.Lock()  # guards the graph + violation list
_edges: dict[tuple[str, str], str] = {}  # (held, acquired) -> description
_violations: list[str] = []
_held = threading.local()  # per-thread stack of (name, id) pairs


class LockOrderError(RuntimeError):
    """Raised on a recorded violation when raise-on-violation is set, and
    always on re-acquisition of a held non-reentrant lock (proceeding would
    deadlock the calling thread)."""


def enable() -> None:
    """Start handing out recording proxies from :func:`wrap_lock` /
    :func:`wrap_condition` (affects locks created *after* this call)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def locksan_enabled() -> bool:
    return _enabled


def set_raise_on_violation(flag: bool) -> None:
    global _raise_on_violation
    _raise_on_violation = flag


def reset() -> None:
    """Clear the recorded order graph and violations (between tests)."""
    with _state_lock:
        _edges.clear()
        _violations.clear()


def violations() -> list[str]:
    """Inversions observed so far (empty = discipline held)."""
    with _state_lock:
        return list(_violations)


def order_graph() -> dict[tuple[str, str], str]:
    """Snapshot of the dynamic lock-order graph: ``(held, acquired) →
    description``.  The static lockset analysis must cover every edge here
    (static ⊇ dynamic) — the cross-check test enforces exactly that."""
    with _state_lock:
        return dict(_edges)


def dump_order_graph(path: str) -> None:
    """Serialize the observed order graph + violations as JSON."""
    import json

    with _state_lock:
        payload = {
            "edges": [
                {"held": held, "acquired": acquired, "via": via}
                for (held, acquired), via in sorted(_edges.items())
            ],
            "violations": list(_violations),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _install_dump_hook() -> None:
    """When ``REPRO_LOCKSAN_DUMP`` names a file, write the order graph
    there at interpreter exit — how a stress-suite subprocess hands its
    observations to the static/dynamic cross-check."""
    import atexit
    import os

    target = os.environ.get("REPRO_LOCKSAN_DUMP")
    if target:
        atexit.register(dump_order_graph, target)


_install_dump_hook()


def _stack() -> list[tuple[str, int]]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


def _note_acquire(name: str, ident: int) -> None:
    stack = _stack()
    thread = threading.current_thread().name
    for held_name, held_ident in stack:
        if held_ident == ident:
            # same instance twice in one thread: guaranteed self-deadlock —
            # always raise, because delegating acquire would hang forever
            message = (
                f"self-deadlock: thread {thread!r} re-acquired held lock "
                f"{name}"
            )
            with _state_lock:
                _violations.append(message)
            raise LockOrderError(message)
        if held_name == name:
            continue  # two instances of one class: no class-level ordering
        edge = (held_name, name)
        reverse = (name, held_name)
        with _state_lock:
            if reverse in _edges and edge not in _edges:
                _violations.append(
                    f"lock-order inversion: thread {thread!r} acquired "
                    f"{name} while holding {held_name}, but the opposite "
                    f"order was seen earlier ({_edges[reverse]})"
                )
            _edges.setdefault(edge, f"thread {thread!r}")
        if reverse in _edges and edge in _edges and _raise_on_violation:
            raise LockOrderError(_violations[-1])
    stack.append((name, ident))


def _note_release(name: str, ident: int) -> None:
    stack = _stack()
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] == (name, ident):
            del stack[i]
            return


class RecordingLock:
    """Order-recording proxy around a :class:`threading.Lock`."""

    def __init__(self, inner, name: str):
        self._inner = inner
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _note_acquire(self.name, id(self._inner))
        got = self._inner.acquire(blocking, timeout)
        if not got:
            _note_release(self.name, id(self._inner))
        return got

    def release(self) -> None:
        self._inner.release()
        _note_release(self.name, id(self._inner))

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "RecordingLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordingLock({self.name})"


class RecordingCondition(RecordingLock):
    """Order-recording proxy around a :class:`threading.Condition`.

    ``wait`` / ``wait_for`` release the underlying lock while blocked, so
    the proxy pops the condition from the held stack for the duration and
    re-records it on wakeup (the re-acquisition cannot introduce a new
    edge: the thread held exactly the same locks before the wait).
    """

    def wait(self, timeout: float | None = None):
        ident = id(self._inner)
        _note_release(self.name, ident)
        try:
            return self._inner.wait(timeout)
        finally:
            _stack().append((self.name, ident))

    def wait_for(self, predicate, timeout: float | None = None):
        ident = id(self._inner)
        _note_release(self.name, ident)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            _stack().append((self.name, ident))

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


def wrap_lock(lock, name: str):
    """Return ``lock`` untouched while disabled, a recording proxy while
    enabled.  ``name`` should be the owning ``Class.attribute`` so
    violations read like the source."""
    if not _enabled:
        return lock
    return RecordingLock(lock, name)


def wrap_condition(cond, name: str):
    """Condition counterpart of :func:`wrap_lock`."""
    if not _enabled:
        return cond
    return RecordingCondition(cond, name)
