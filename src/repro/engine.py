"""The :class:`SortEngine` session façade: one object, every entry point.

The public surface had grown call-by-call — ``sort_external`` / ``sort_ram``
/ ``sort_auto`` / ``run_batch`` / ``calibrate`` each re-threaded ``params``,
``constants=``, ``cache=`` and executor knobs — and none of them could accept
records *incrementally*.  ``SortEngine`` is the canonical entry point that
owns the configuration once:

* one :class:`~repro.models.params.MachineParams` (the machine every call
  runs on unless a batch job pins its own),
* one :class:`~repro.planner.plan_cache.PlanCache` shared by every adaptive
  path (one-shot, batch, streaming), so plans are memoised across the whole
  session,
* one optional :class:`~repro.planner.calibration.CostConstants` so every
  ranking uses the same calibrated leading constants (refreshable in place
  via :meth:`SortEngine.calibrate`),
* the default batch executor (``"thread"`` or ``"process"``) and pool width.

Entry points
------------
``engine.sort(data, algorithm="auto")``
    One-shot sort: adaptive planning by default, or any registry algorithm
    (``mergesort`` / ``samplesort`` / ``heapsort`` / ``selection`` / ``ram``).
``engine.batch(jobs)``
    Concurrent execution of many jobs through the engine's shared plan cache
    and constants (:class:`~repro.planner.batch.BatchReport`) — since the
    service redesign, a thin ``submit_many`` + ``gather`` client of
    ``engine.service()``, the persistent :class:`~repro.service.SortService`
    pool the engine keeps alive across calls (shut down via
    :meth:`SortEngine.close` or the engine's context manager).
``engine.calibrate()``
    Measure + fit :class:`CostConstants` on the engine's machine and adopt
    them for every subsequent ranking.
``engine.stream()``
    The streaming/online entry point: a context manager yielding a
    :class:`StreamSession` that ingests records incrementally into a §4.3
    :class:`~repro.core.buffer_tree.BufferTree` at amortized
    ``O((1/B) log_{kM/B}(n/B))`` block I/O per record, with general deletions,
    and drains to a sorted :class:`~repro.api.SortReport` on ``flush()`` /
    ``close()`` — or partially via ``pop_min(m)`` (top-m extraction without
    a full flush).

The legacy module-level calls (``sort_external`` & co. in :mod:`repro.api`,
``run_batch`` in :mod:`repro.planner.batch`) are thin backward-compatible
shims over a throwaway engine instance.  The asynchronous
submission surface (futures, priorities, the socket server) lives in
:mod:`repro.service`.

Uniform external-sort registry
------------------------------
:data:`EXTERNAL_SORTS` gives every §4 external sort one dispatch signature
``run(machine, arr, k, guard)`` — the Lemma 4.2 selection sort (which has no
branching factor) simply ignores ``k`` instead of being special-cased behind
a ``None`` sentinel as the old ``api._EXTERNAL_SORTS`` table did.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable

from .core.aem_heapsort import aem_heapsort
from .core.aem_mergesort import aem_mergesort
from .core.aem_samplesort import aem_samplesort
from .core.buffer_tree import BufferTree
from .core.ram_sort import RAM_SORTS
from .core.selection_sort import selection_sort
from .models.counters import CostCounter
from .models.external_memory import AEMachine, ExtArray, MemoryGuard, collector_paused
from .models.params import MachineParams


# ---------------------------------------------------------------------- #
# the uniform external-sort registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExternalSortSpec:
    """One §4 external sort with a uniform dispatch signature.

    ``run(machine, arr, k, guard)`` for every entry; ``takes_k`` records
    whether the algorithm actually has a branching factor (it shapes the
    report label and extras, not the call).
    """

    family: str
    run: Callable[[AEMachine, ExtArray, int, MemoryGuard], ExtArray]
    takes_k: bool = True

    def label(self, k: int | None) -> str:
        if not self.takes_k:
            return f"aem-{self.family}"
        return f"aem-{self.family}(k={k})"

    def extras(self, k: int | None) -> dict:
        return {"k": k} if self.takes_k else {}


def _run_mergesort(machine, arr, k, guard):
    return aem_mergesort(machine, arr, k, guard=guard)


def _run_samplesort(machine, arr, k, guard):
    return aem_samplesort(machine, arr, k, guard=guard)


def _run_heapsort(machine, arr, k, guard):
    return aem_heapsort(machine, arr, k, guard=guard)


def _run_selection(machine, arr, k, guard):
    # Lemma 4.2 has no branching factor; the uniform signature ignores k
    return selection_sort(machine, arr, guard=guard)


#: every §4 external sort, uniformly callable as ``run(machine, arr, k, guard)``
EXTERNAL_SORTS: dict[str, ExternalSortSpec] = {
    "mergesort": ExternalSortSpec("mergesort", _run_mergesort),
    "samplesort": ExternalSortSpec("samplesort", _run_samplesort),
    "heapsort": ExternalSortSpec("heapsort", _run_heapsort),
    "selection": ExternalSortSpec("selection", _run_selection, takes_k=False),
}


# ---------------------------------------------------------------------- #
# machine-independent report builders (shared by the engine and the shims)
# ---------------------------------------------------------------------- #
def external_sort_report(
    data: Sequence,
    params: MachineParams,
    algorithm: str = "mergesort",
    k: int | None = None,
):
    """Run one registry sort on a fresh AEM machine and report block costs."""
    from .api import SortReport

    spec = EXTERNAL_SORTS.get(algorithm)
    if spec is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(EXTERNAL_SORTS)}"
        )
    if spec.takes_k and k is None:
        from .analysis.ktuning import choose_k

        k = choose_k(params, n=len(data))
    machine = AEMachine(params)
    guard = MemoryGuard()
    # the input and output arrays are temporaries: their blocks are freed
    # before the pause ends, so no collection has them to traverse after it
    with collector_paused():
        arr = machine.from_list(data, name="input")
        output = spec.run(machine, arr, k, guard).peek_list()
        del arr
    return SortReport(
        algorithm=spec.label(k),
        n=len(data),
        params=params,
        output=output,
        counter=machine.counter,
        memory_high_water=guard.high_water,
        extras=spec.extras(k),
        family=spec.family,
        granularity="block",
    )


def ram_sort_report(data: Sequence, algorithm: str = "bst-rb"):
    """Sort in the Asymmetric RAM model (§3), element granularity."""
    from .api import SortReport

    if algorithm not in RAM_SORTS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(RAM_SORTS)}"
        )
    out, counter = RAM_SORTS[algorithm](data)
    return SortReport(
        algorithm=f"ram-{algorithm}",
        n=len(data),
        params=None,
        output=out,
        counter=counter,
        family="ram",
        granularity="element",
    )


def ram_on_machine_report(
    data: Sequence, params: MachineParams, algorithm: str = "bst-rb"
):
    """The in-memory plan at AEM *block* granularity: one scan in
    (``ceil(n/B)`` reads), any :data:`RAM_SORTS` sort for free in primary
    memory, one stream out (``ceil(n/B)`` writes).

    Raises ``ValueError`` when ``n > M`` — the input would not fit, exactly
    as :func:`repro.planner.cost_model.predict_candidate` rejects the
    ``ram`` plan for such an ``n``.
    """
    if len(data) > params.M:
        raise ValueError(f"ram sort requires n <= M, got n={len(data)} > M={params.M}")
    report = ram_sort_report(data, algorithm=algorithm)
    report.params = params
    blocks = math.ceil(len(data) / params.B)
    report.counter.charge_block_read(blocks)
    report.counter.charge_block_write(blocks)
    report.granularity = "block"
    return report


# ---------------------------------------------------------------------- #
# the engine
# ---------------------------------------------------------------------- #
class SortEngine:
    """Stateful session façade over the planner, the executors and the sorts.

    Parameters
    ----------
    params:
        The machine every call runs on (batch jobs may pin their own).
    constants:
        Optional calibrated :class:`CostConstants` used by every adaptive
        ranking; :meth:`calibrate` fits and adopts a fresh set in place.
    cache:
        The shared :class:`PlanCache`; one is created when ``None``.  All
        paths — one-shot, batch, streaming — consult this single cache.
    executor / workers:
        Default batch backend (``"thread"`` or ``"process"``) and pool
        width, overridable per :meth:`batch` call.
    """

    def __init__(
        self,
        params: MachineParams,
        *,
        constants=None,
        cache=None,
        executor: str = "thread",
        workers: int | None = None,
    ):
        from .planner.plan_cache import PlanCache

        if not isinstance(params, MachineParams):
            raise TypeError(f"params must be MachineParams, got {type(params).__name__}")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; choose 'thread' or 'process'"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        self.params = params
        self.constants = constants
        self.cache = cache if cache is not None else PlanCache()
        self.executor = executor
        self.workers = workers
        # persistent SortService pools, keyed by (executor, workers) — the
        # batch path reuses them across calls instead of rebuilding per run
        self._services: dict = {}
        # persistent ClusterCoordinators, keyed by the host tuple — same
        # reuse contract as _services, torn down by close()
        self._clusters: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SortEngine({self.params}, executor={self.executor!r}, "
            f"calibrated={self.constants is not None})"
        )

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(self, n: int, algorithms: tuple[str, ...] | None = None, k_max: int | None = None):
        """The memoised ranked :class:`SortPlan` for ``n`` records on the
        engine's machine, under the engine's constants."""
        return self.cache.plan(
            n, self.params, algorithms=algorithms, k_max=k_max, constants=self.constants
        )

    # ------------------------------------------------------------------ #
    # one-shot sorting
    # ------------------------------------------------------------------ #
    def sort(
        self,
        data: Sequence,
        algorithm: str = "auto",
        k: int | None = None,
        algorithms: tuple[str, ...] | None = None,
        ram_algorithm: str = "bst-rb",
    ):
        """Sort ``data`` on the engine's machine.

        ``algorithm="auto"`` plans through the shared cache and executes the
        minimum-predicted-cost candidate (the plan rides along in
        ``extras["plan"]``); a registry name pins the external sort; ``"ram"``
        pins the in-memory plan, executed with ``ram_algorithm`` (any
        :data:`~repro.core.ram_sort.RAM_SORTS` entry) at block granularity.
        """
        if algorithm == "auto":
            plan = self.plan(len(data), algorithms=algorithms)
            chosen = plan.chosen
            if chosen.model == "ram":
                report = ram_on_machine_report(data, self.params, algorithm=ram_algorithm)
            else:
                report = external_sort_report(
                    data, self.params, algorithm=chosen.algorithm, k=chosen.k
                )
            report.extras["plan"] = plan.as_dict()
            return report
        if algorithm == "ram":
            return ram_on_machine_report(data, self.params, algorithm=ram_algorithm)
        return external_sort_report(data, self.params, algorithm=algorithm, k=k)

    # ------------------------------------------------------------------ #
    # batch execution (a thin client of the job service)
    # ------------------------------------------------------------------ #
    def service(
        self,
        executor: str | None = None,
        workers: int | None = None,
        warm_cache=None,
        *,
        max_queue: int | None = None,
        admission: str = "reject",
        block_timeout: float | None = None,
    ):
        """The engine's persistent :class:`~repro.service.SortService` for
        the given pool shape (created on first use, then reused — workers
        live across :meth:`batch` calls and direct submissions alike).

        ``executor`` / ``workers`` default to the engine's configuration;
        ``warm_cache`` pre-seeds planning when the pool is first built (use
        :meth:`~repro.service.SortService.warm` to reheat a live pool).
        ``max_queue`` bounds the pending queue; ``admission`` picks the
        overload policy (``"reject"`` / ``"block"`` / ``"shed-lowest"``,
        see :class:`~repro.service.SortService`).  Admission knobs are part
        of the cache key — a bounded and an unbounded service for the same
        pool shape are distinct pools.
        """
        from .service import SortService

        executor = executor if executor is not None else self.executor
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; choose 'thread' or 'process'"
            )
        if workers is None:
            workers = self.workers
        key = (executor, workers, max_queue, admission, block_timeout)
        svc = self._services.get(key)
        if svc is None:
            svc = SortService(
                self,
                workers=workers,
                executor=executor,
                warm_cache=warm_cache,
                max_queue=max_queue,
                admission=admission,
                block_timeout=block_timeout,
            )
            self._services[key] = svc
        elif warm_cache is not None:
            svc.warm(warm_cache)
        return svc

    def cluster(
        self,
        hosts,
        *,
        retries: int = 2,
        connect_retries: int = 25,
        timeout: float | None = None,
        warm_cache=None,
    ):
        """The engine's persistent
        :class:`~repro.cluster.ClusterCoordinator` over the given
        EngineServer ``hosts`` (created on first use, then reused) —
        symmetric with :meth:`service` for the distributed case.

        ``hosts`` is an iterable of ``(host, port)`` pairs (or a
        :class:`~repro.cluster.ClusterSpec`, whose knobs then win).
        ``warm_cache`` replays a plan-cache snapshot's sizes on every host
        when passed (first build *and* reuse — rewarming a live fleet is
        cheap and idempotent).  Coordinators are closed by
        :meth:`close` / the engine's context manager; the remote servers
        belong to their owners and keep running.
        """
        from .cluster import ClusterCoordinator, ClusterSpec

        if isinstance(hosts, ClusterSpec):
            spec = hosts
        else:
            spec = ClusterSpec(
                hosts=tuple((str(h), int(p)) for h, p in hosts),
                retries=retries,
                connect_retries=connect_retries,
                timeout=timeout,
            )
        key = spec.hosts
        coord = self._clusters.get(key)
        if coord is None:
            coord = ClusterCoordinator(spec, self.params)
            self._clusters[key] = coord
        if warm_cache is not None:
            coord.warm(warm_cache)
        return coord

    def batch(
        self,
        jobs: Sequence,
        *,
        check_sorted: bool = False,
        executor: str | None = None,
        workers: int | None = None,
        warm_cache=None,
    ):
        """Execute many jobs through the engine's cache and constants.

        This is ``submit_many`` + ``gather`` on the engine's persistent
        :meth:`service` pool, the one pool that runs batch jobs; the worker
        pool survives across calls.  The
        :class:`~repro.planner.batch.BatchReport` it returns is tested
        against the sequential :func:`~repro.planner.batch.execute_batch`
        reference.

        ``jobs`` items are :class:`~repro.planner.batch.SortJob`\\ s (a bare
        data sequence is wrapped into an adaptive job on the engine's
        machine; a job with ``params=None`` inherits the engine's machine).
        ``executor`` / ``workers`` default to the engine's configuration;
        ``warm_cache`` pre-seeds planning (per-worker in process mode) with
        a parent cache's hot entries.
        """
        import time as _time

        from .planner.batch import BatchReport

        executor = executor if executor is not None else self.executor
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; choose 'thread' or 'process'"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"max_workers must be >= 1 or None, got {workers}")
        jobs = list(jobs)
        if not jobs:
            return BatchReport(executor=executor)
        # workers=None maps to ONE shared default-width pool (keyed
        # (executor, None)) rather than a pool per distinct batch size —
        # otherwise batches of varying lengths would each leave a live pool
        # behind on a long-lived engine
        svc = self.service(executor=executor, workers=workers, warm_cache=warm_cache)
        t0 = _time.perf_counter()
        # round-robin pinning in process mode gives each worker-local cache
        # a fixed job stream, so per-worker plan stats are deterministic
        futures = svc.submit_many(
            jobs, check_sorted=check_sorted, round_robin=(executor == "process")
        )
        report = svc.gather(futures)
        report.wall_seconds = _time.perf_counter() - t0
        return report

    def close(self) -> None:
        """Shut down the engine's persistent service pools (idempotent).

        Queued-but-undispatched jobs are cancelled; in-flight jobs finish.
        Worker threads/processes are daemons, so an unclosed engine cannot
        hang interpreter exit — closing simply reclaims them earlier.
        """
        services, self._services = list(self._services.values()), {}
        for svc in services:
            svc.shutdown(drain=False, wait=True)
        clusters, self._clusters = list(self._clusters.values()), {}
        for coord in clusters:
            coord.close()

    def __enter__(self) -> "SortEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        sizes: Sequence[int] | None = None,
        algorithms: Sequence[str] | None = None,
        scenario: str = "uniform",
        seed: int = 0,
        adopt: bool = True,
    ):
        """Measure the real sorts on the engine's machine, fit
        :class:`CostConstants`, and (by default) adopt them for every
        subsequent adaptive call.  Returns the fitted constants.

        Adoption never stales the plan cache: constants are part of every
        cache key, so rankings under the new constants are computed fresh.
        """
        from .planner.calibration import (
            CALIBRATABLE_ALGORITHMS,
            DEFAULT_SIZES,
            calibrate,
        )

        constants = calibrate(
            self.params,
            sizes=tuple(sizes) if sizes is not None else DEFAULT_SIZES,
            algorithms=tuple(algorithms) if algorithms is not None else CALIBRATABLE_ALGORITHMS,
            scenario=scenario,
            seed=seed,
        )
        if adopt:
            self.constants = constants
        return constants

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def stream(self, k: int | None = None) -> "StreamSession":
        """Open a buffer-tree-backed :class:`StreamSession` on a fresh AEM
        machine (usable directly or as a context manager).

        ``k`` is the §4.3 extra branching factor; the default is the
        Appendix-A ``n``-blind recipe (``n`` is unknown up front in a
        stream), clamped to the tree's feasible range.
        """
        if k is None:
            from .analysis.ktuning import choose_k

            k = choose_k(self.params)
            # the tree needs fanout kM/B >= 4; bump k on narrow machines
            while self.params.fanout(k) < 4:
                k += 1
        return StreamSession(self, k=k)


class StreamSession:
    """Incremental ingestion into a §4.3 :class:`BufferTree`, draining to
    sorted :class:`~repro.api.SortReport`\\ s.

    Records are pushed (and deleted — §4.3.1 general deletions) one at a
    time or in bulk; each record costs amortized
    ``O((1/B)(1 + log_{kM/B}(n/B)))`` block writes and ``k`` times that in
    reads (Theorem 4.10's buffer-tree terms).  ``flush()`` drains everything
    currently held into a sorted report billed with the block I/O incurred
    since the previous flush; ``close()`` performs a final flush and seals
    the session (also called by ``with engine.stream() as s:``, after which
    ``s.report`` holds the final report).

    Duplicate keys are legal: following the paper's §2 remark that "a
    position index can always be added to make keys unique", records enter
    the tree as ``(key, uid)`` pairs, ``uid`` being the session's push count,
    and are unwrapped on drain, so equal keys coexist and drain in arrival
    order.  ``delete(key)`` removes the most recently pushed live instance
    of ``key`` (raising ``KeyError`` if none is live); the per-key liveness
    index is in-memory session bookkeeping, free under the model like the
    priority queue's implicit-deletion pair list.
    """

    def __init__(self, engine: SortEngine, k: int = 1):
        self.engine = engine
        self.params = engine.params
        self.k = k
        self.machine = AEMachine(self.params)
        self.tree = BufferTree(self.machine, k=k)
        self.closed = False
        #: total records pushed / deleted over the session's lifetime
        self.pushed = 0
        self.deleted = 0
        #: reports of every drain (flushes and pop_mins), in order;
        #: ``report`` is the most recent one
        self.reports: list = []
        self.report = None
        self._live: dict = {}  # key -> live uids (most recent last)
        self._reads_mark = 0
        self._writes_mark = 0
        self._ops_mark = 0  # tree ops billed by earlier drains
        self._reinserts = 0  # surplus records pop_min returned to the tree

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # don't mask an in-flight exception with a drain of a half-built tree
        if exc_type is None:
            self.close()
        else:
            self.closed = True

    def __len__(self) -> int:
        return self.tree.size

    def _require_open(self) -> None:
        if self.closed:
            raise RuntimeError("stream session is closed")

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def push(self, record) -> None:
        """Ingest one record (amortized buffer-tree insert)."""
        self._require_open()
        uid = self.pushed  # the push count doubles as the position index
        self.tree.insert((record, uid))
        self._live.setdefault(record, []).append(uid)
        self.pushed += 1

    def push_many(self, records: Iterable) -> None:
        """Ingest records in bulk (one amortized insert each)."""
        for rec in records:
            self.push(rec)

    def delete(self, key) -> None:
        """Remove the most recently pushed live instance of ``key``.

        Raises ``KeyError`` immediately when no instance is live (unlike raw
        :meth:`BufferTree.delete`, which defers to application time — the
        session's liveness index can afford to fail fast).
        """
        self._require_open()
        uids = self._live.get(key)
        if not uids:
            raise KeyError(f"delete of absent key {key!r}")
        uid = uids.pop()
        if not uids:
            del self._live[key]
        self.tree.delete((key, uid))
        self.deleted += 1

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #
    def flush(self):
        """Drain every record currently held into a sorted
        :class:`~repro.api.SortReport` and return it.

        The report's counters carry the block I/O incurred since the
        previous flush (ingestion + this drain), so its ``cost()`` is the
        stream's actual bill; ``extras`` records the tree's structural
        statistics and the Theorem 4.10 unit-constant prediction for every
        operation billed here (pushes *and* deletes).  The session stays
        open for further pushes.
        """
        self._require_open()
        return self._drain()

    def close(self):
        """Final flush (any remaining records — possibly none) and seal the
        session.  Returns the final report, also kept as ``self.report``."""
        if self.closed:
            return self.report
        report = self._drain()
        self.closed = True
        return report

    # ------------------------------------------------------------------ #
    # windowed/partial drains
    # ------------------------------------------------------------------ #
    def pop_min(self, m: int):
        """Extract the ``m`` smallest records currently held — without a
        full flush — and return a delta-billed
        :class:`~repro.api.SortReport` of just those records.

        Leaves are popped off the tree's left edge
        (:meth:`BufferTree.pop_leftmost_leaf`, the §4.3.3 refill move) until
        ``m`` records are in hand; the surplus from the last leaf is
        re-inserted (amortized buffer-tree inserts — the re-insertion I/O is
        billed to this report and counted in its prediction, so the bill
        stays honest).  The session stays open: later pushes, deletes,
        ``pop_min`` and ``flush`` calls all compose, and the delta-I/O
        accounting is identical to :meth:`flush` — each report carries
        exactly the block I/O incurred since the previous report.

        Fewer than ``m`` records may be returned when the session holds
        fewer; an empty session yields an empty report.
        """
        self._require_open()
        if m < 1:
            raise ValueError(f"pop_min needs m >= 1, got {m}")
        taken: list = []
        while len(taken) < m and self.tree.size > 0:
            leaf = self.tree.pop_leftmost_leaf()
            if leaf is None:
                break
            taken.extend(self.machine.scan(leaf))
        surplus = taken[m:]
        taken = taken[:m]
        # the last leaf rarely lands exactly on m: everything beyond goes
        # back into the tree as ordinary (key, uid) inserts, keeping their
        # original uids so arrival order survives the round trip
        for pair in surplus:
            self.tree.insert(pair)
        self._reinserts += len(surplus)
        # the extracted records leave the session's liveness index
        for key, uid in taken:
            uids = self._live.get(key)
            if uids is not None:
                try:
                    uids.remove(uid)
                except ValueError:  # pragma: no cover - index out of sync
                    pass
                if not uids:
                    del self._live[key]
        out = [key for key, _uid in taken]
        return self._delta_report(out, algorithm=f"stream-pop-min(k={self.k})")

    def _drain(self):
        # unwrap the (key, uid) uniquifying pairs (§2 position index)
        out = [key for key, _uid in self.tree.drain_stream()]
        self._live.clear()
        return self._delta_report(out, algorithm=f"stream-buffer-tree(k={self.k})")

    def _delta_report(self, out: list, algorithm: str):
        """Bill a drain (full flush or partial pop) with the block I/O
        incurred since the previous report, stamp the Theorem 4.10
        unit-constant prediction for the ops covered, and record it."""
        from .api import SortReport
        from .planner.cost_model import predict_stream_io

        counter = self.machine.counter
        delta = CostCounter(
            block_reads=counter.block_reads - self._reads_mark,
            block_writes=counter.block_writes - self._writes_mark,
        )
        self._reads_mark = counter.block_reads
        self._writes_mark = counter.block_writes
        # the prediction covers every operation billed in this report —
        # deletes are buffer-tree ops too (a delete-heavy session is
        # compared against the work it actually did, not just its
        # survivors), and so are pop_min's surplus re-insertions
        total_ops = self.pushed + self.deleted + self._reinserts
        ops = total_ops - self._ops_mark
        self._ops_mark = total_ops
        pred_reads, pred_writes = predict_stream_io(ops, self.params, self.k)
        report = SortReport(
            algorithm=algorithm,
            n=len(out),
            params=self.params,
            output=out,
            counter=delta,
            extras={
                "k": self.k,
                "pushed": self.pushed,
                "deleted": self.deleted,
                "reinserted": self._reinserts,
                **self.tree.io_stats(),
                "predicted_reads": pred_reads,
                "predicted_writes": pred_writes,
            },
            family="stream",
            granularity="block",
        )
        self.reports.append(report)
        self.report = report
        return report
