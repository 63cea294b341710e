"""Benchmark-side tracing: timing wrappers around each layer's public calls.

Nothing here edits ``src/``.  :func:`install` swaps a layer's public
function (or method) for a wrapper that records a span, and
:meth:`Patches.undo` puts the original back.  A span is timed on
``perf_counter``; each thread keeps its own stack, so a span's *self* time
is its duration minus the time of the spans that ran inside it.

The same wrappers run inside ``python -m repro serve`` children:
``perfbench/site/sitecustomize.py`` calls :func:`trace_process` when the
``PERFBENCH_TRACE_DIR`` environment variable is set, and the child writes
its aggregated spans to that directory when it exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import threading
import time

#: (owner, attribute, span) — owner is ``module`` or ``module:Class``
SPAN_TARGETS = (
    ("repro.engine:SortEngine", "sort", "engine.sort"),
    ("repro.engine", "aem_samplesort", "core.samplesort"),
    ("repro.engine", "aem_mergesort", "core.mergesort"),
    ("repro.engine", "aem_heapsort", "core.heapsort"),
    ("repro.engine", "selection_sort", "core.selection"),
    ("repro.cluster.coordinator", "shard_merge", "core.shardmerge"),
    ("repro.models.external_memory:BlockWriter", "extend", "models.writer_extend"),
    ("repro.service.server:ServiceClient", "submit", "server.submit"),
    ("repro.cluster.coordinator:ClusterCoordinator", "sort", "cluster.sort"),
)

#: spans whose every call is also kept in ``Tracer.events``: the wire calls'
#: percentiles and the cluster's phases are read from them
EVENT_SPANS = frozenset({"cluster.sort", "server.submit", "server.result"})

#: CostCounter charge methods -> the count they add to
CHARGE_TARGETS = (
    ("charge_block_read", "models.block_reads"),
    ("charge_reads", "models.block_reads"),
    ("charge_block_write", "models.block_writes"),
    ("charge_writes", "models.block_writes"),
)


class Tracer:
    """In-memory span and count aggregates, safe across threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        #: name -> measured values (seconds), for percentiles
        self.samples: dict[str, list] = {}
        #: ``(name, start, end)`` of every call to one of :data:`EVENT_SPANS`
        self.events: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            agg = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]
            if frame[0] in EVENT_SPANS:
                self.events.append((frame[0], frame[1], end))

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def export(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def merge(self, exported: dict) -> None:
        """Add another tracer's :meth:`export` (e.g. a server child's)."""
        with self._lock:
            for name, (calls, total, self_s) in exported["spans"].items():
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for name, n in exported["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + n
            for name, values in exported["samples"].items():
                self.samples.setdefault(name, []).extend(values)

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def durations(self, name: str) -> list:
        """Seconds of each call to ``name``, one of :data:`EVENT_SPANS`."""
        return [end - start for event, start, end in self.events if event == name]


def _span_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


class _TimedIter:
    """Iterator proxy that times every ``next()`` as one span."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer.exit(frame)


def _generator_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIter(tracer, name, fn(*args, **kwargs))

    return wrapper


def _charge_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(self, n=1):
        fn(self, n)
        tracer.count(name, n)

    return wrapper


def _planned_wrapper(tracer: Tracer, fn):
    """``PlanCache.planned`` returns ``(plan, hit)``: time it, count hits."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter("planner.plan")
        try:
            plan, hit = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.count("planner.hits", int(hit))
        return plan, hit

    return wrapper


def _result_wrapper(tracer: Tracer, fn):
    """``ServiceClient.result``: time the call and keep the job's execution
    times from the result record the server sends back."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter("server.result")
        try:
            record = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.sample("service.exec", record["wall_seconds"])
        tracer.sample("service.exec_cpu", record["cpu_seconds"])
        return record

    return wrapper


def _queue_wait_wrappers(tracer: Tracer, entry_init, set_running):
    """Time each job from its queue entry's creation (admission, under the
    service lock) to its dispatch (``set_running_or_notify_cancel``)."""
    admitted: dict[int, float] = {}

    @functools.wraps(entry_init)
    def init(self, *args, **kwargs):
        entry_init(self, *args, **kwargs)
        if self.future is not None:
            admitted[id(self.future)] = time.perf_counter()

    @functools.wraps(set_running)
    def dispatch(self):
        t0 = admitted.pop(id(self), None)
        if t0 is not None:
            tracer.sample("service.queue_wait", time.perf_counter() - t0)
        return set_running(self)

    return init, dispatch


def _ram_sorts_wrapper(tracer: Tracer, sorts: dict) -> dict:
    return {key: _span_wrapper(tracer, fn, "core.ram") for key, fn in sorts.items()}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Patches:
    """The swaps :func:`install` made, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def swap(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary in :data:`SPAN_TARGETS`, the planner's
    cache, ``ServiceClient.result``, the service queue, the engine's RAM sorts,
    ``AEMachine.scan_blocks`` and the ``CostCounter`` charges."""
    from repro.models.counters import CostCounter
    from repro.models.external_memory import AEMachine
    from repro.planner.plan_cache import PlanCache
    from repro.service.futures import SortFuture
    from repro.service.scheduler import _Entry
    from repro.service.server import ServiceClient

    patches = Patches()
    for owner_path, attr, name in SPAN_TARGETS:
        owner = _resolve(owner_path)
        patches.swap(owner, attr, _span_wrapper(tracer, getattr(owner, attr), name))
    patches.swap(PlanCache, "planned", _planned_wrapper(tracer, PlanCache.planned))
    patches.swap(ServiceClient, "result", _result_wrapper(tracer, ServiceClient.result))
    init, dispatch = _queue_wait_wrappers(
        tracer, _Entry.__init__, SortFuture.set_running_or_notify_cancel
    )
    patches.swap(_Entry, "__init__", init)
    patches.swap(SortFuture, "set_running_or_notify_cancel", dispatch)
    engine = _resolve("repro.engine")
    patches.swap(engine, "RAM_SORTS", _ram_sorts_wrapper(tracer, engine.RAM_SORTS))
    patches.swap(
        AEMachine,
        "scan_blocks",
        _generator_wrapper(tracer, AEMachine.scan_blocks, "models.scan_blocks"),
    )
    for attr, name in CHARGE_TARGETS:
        patches.swap(
            CostCounter, attr, _charge_wrapper(tracer, getattr(CostCounter, attr), name)
        )
    return patches


# ---------------------------------------------------------------------- #
# wire byte counting
# ---------------------------------------------------------------------- #
class _CountingSocket:
    def __init__(self, sock, tracer: Tracer):
        self._sock, self._tracer = sock, tracer

    def sendall(self, data, *args):
        self._tracer.count("server.bytes", len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


class _CountingReader:
    def __init__(self, rfile, tracer: Tracer):
        self._rfile, self._tracer = rfile, tracer

    def readline(self, *args):
        line = self._rfile.readline(*args)
        # the protocol is ASCII JSON (json.dumps escapes non-ASCII), so
        # characters equal bytes
        self._tracer.count("server.bytes", len(line))
        return line

    def __getattr__(self, attr):
        return getattr(self._rfile, attr)


def count_wire_bytes(client, tracer: Tracer) -> None:
    """Count every request and reply byte of one ``ServiceClient``."""
    client._sock = _CountingSocket(client._sock, tracer)
    client._rfile = _CountingReader(client._rfile, tracer)


# ---------------------------------------------------------------------- #
# server children
# ---------------------------------------------------------------------- #
def trace_process(out_dir: str) -> Tracer:
    """Trace this whole process and write the aggregates to
    ``out_dir/trace-<pid>.json`` at interpreter exit."""
    tracer = Tracer()
    install(tracer)
    path = os.path.join(out_dir, f"trace-{os.getpid()}.json")

    def _dump() -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)

    atexit.register(_dump)
    return tracer


def load_process_traces(out_dir: str) -> list[dict]:
    """Every child aggregate :func:`trace_process` wrote to ``out_dir``."""
    traces = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("trace-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                traces.append(json.load(fh))
    return traces
