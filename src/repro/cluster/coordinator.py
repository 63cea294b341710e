"""The cluster coordinator: scatter-gather and routing over EngineServer hosts.

One :class:`ClusterCoordinator` owns a :class:`~repro.service.ServiceClient`
per host and speaks the existing serve line protocol — no new wire ops.  Two
traffic shapes:

* **Scatter-gather** (:meth:`ClusterCoordinator.sort`) for one huge job:
  sample splitters centrally from a strided prefix scan (the Theorem 4.5
  pivot-sampling structure lifted one level), partition into per-host
  shards, submit the shard sorts remotely in parallel, and k-way merge the
  sorted shards with the contracted ``shardmerge`` kernel — the merge I/O is
  billed through a real :class:`~repro.models.counters.CostCounter`, so the
  cluster-level :class:`~repro.api.SortReport` stays contract-honest (remote
  shard I/O rides along in ``extras``).
* **Load-aware routing** (:meth:`submit` / :meth:`result`) for many small
  jobs: each job goes to the least-loaded live host (local in-flight
  accounting plus polled ``stats()`` queue depth, TTL-cached).

Fault tolerance reuses :class:`~repro.service.WorkerDiedError` semantics at
host granularity: a dead host fails only its in-flight shards, which are
resubmitted on the least-loaded survivor within a bounded retry budget
(shard sorts are idempotent — the coordinator retains the shard data until
its result lands).  :meth:`warm` replays a :class:`~repro.planner.PlanCache`
snapshot's problem sizes as control-priority jobs on every host, warming the
remote plan caches through the existing ``submit``/``result`` ops.

Lock discipline: the coordinator lock guards only host bookkeeping (alive
flags, in-flight counts, counters, the stats cache).  Every wire call —
connect, submit, result, stats — happens strictly outside the lock; routing
decisions are computed under it, I/O runs outside it, outcomes are published
back under it (the same fork-outside/publish-under pattern as the
scheduler's respawn path).
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field

from ..analysis.locksan import wrap_lock
from ..core.shard_merge import shard_merge
from ..models.external_memory import AEMachine, MemoryGuard, collector_paused
from ..models.params import MachineParams
from ..planner.cost_model import plan_cluster_shards
from ..service.backoff import backoff_delay
from ..service.scheduler import PRIORITY_CONTROL, QueueFullError, WorkerDiedError
from ..service.server import ServiceClient, ServiceError

#: wire-level failures that mean "this host is gone" (vs a job-level error)
_HOST_DOWN = (ConnectionError, OSError)


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one cluster: hosts plus coordinator knobs."""

    #: ``((host, port), ...)`` of the EngineServer fleet
    hosts: tuple[tuple[str, int], ...]
    #: resubmissions allowed per job when hosts die mid-flight
    retries: int = 2
    #: connect polls per host at coordinator construction
    connect_retries: int = 25
    connect_delay: float = 0.1
    #: socket timeout for every wire call (None = block)
    timeout: float | None = None
    #: splitter sample records per host (scatter planning)
    oversample: int = 32
    #: seconds a polled per-host stats() load stays fresh for routing
    stats_ttl: float = 0.25
    #: retry backoff: first delay and cap for the capped-exponential curve
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: per-request socket deadline for routed wire calls (None = block)
    request_timeout: float | None = None
    #: dead hosts re-enter service automatically when a probation-interval
    #: ping succeeds (set ``rejoin=False`` for permanent funerals)
    rejoin: bool = True
    rejoin_interval: float = 0.5

    def __post_init__(self):
        if not self.hosts:
            raise ValueError("ClusterSpec needs at least one host")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                "need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.rejoin_interval <= 0:
            raise ValueError(
                f"rejoin_interval must be > 0, got {self.rejoin_interval}"
            )


@dataclass
class ClusterTicket:
    """Coordinator-side handle for one routed job.

    Retains the job's input so a host death can resubmit it idempotently on
    a survivor (the remote sort has no side effects beyond its ticket).
    """

    host_index: int
    ticket: int
    n: int
    data: list = field(repr=False)
    priority: float = 0
    kwargs: dict = field(default_factory=dict, repr=False)
    attempts: int = 0


class ClusterCoordinator:
    """Scatter-gather and load-aware routing over N EngineServer hosts.

    ``spec`` is a :class:`ClusterSpec` (or a bare iterable of ``(host,
    port)`` pairs); ``params`` is the AEM machine the coordinator's merge is
    billed on (the remote hosts run their own configured machines — point
    them at the same ``M:B:omega`` for meaningful aggregate counters).
    """

    def __init__(self, spec, params: MachineParams):
        if not isinstance(spec, ClusterSpec):
            spec = ClusterSpec(hosts=tuple((str(h), int(p)) for h, p in spec))
        if not isinstance(params, MachineParams):
            raise TypeError(f"params must be MachineParams, got {type(params).__name__}")
        self.spec = spec
        self.params = params
        self._clients = [
            ServiceClient(
                host,
                port,
                retries=spec.connect_retries,
                retry_delay=spec.connect_delay,
                timeout=spec.timeout,
                request_timeout=spec.request_timeout,
            )
            for host, port in spec.hosts
        ]
        self._lock = wrap_lock(threading.Lock(), "ClusterCoordinator._lock")
        self._alive = [True] * len(self._clients)
        self._inflight = [0] * len(self._clients)
        self._stats_cache: dict[int, tuple[float, int]] = {}
        #: rejoin probation: earliest monotonic stamp to re-probe each dead
        #: host, plus an in-progress guard so only one thread probes a host
        self._next_probe: dict[int, float] = {}
        self._probing: set[int] = set()
        #: distinct warm sizes replayed so far — a rejoining host's plan
        #: cache is re-warmed from these
        self._warm_sizes: set[int] = set()
        self._retries = 0
        self._rebalances = 0
        self._scatter_jobs = 0
        self._routed_jobs = 0
        self._rejoins = 0
        self._closed = False
        #: test seam: called between scatter and gather (e.g. to kill a host)
        self._fault_hook = None

    # ------------------------------------------------------------------ #
    # host bookkeeping (lock-guarded; no wire I/O under the lock)
    # ------------------------------------------------------------------ #
    def live_hosts(self) -> list[int]:
        """Indices of hosts still believed alive."""
        with self._lock:
            return [i for i, alive in enumerate(self._alive) if alive]

    def _mark_dead(self, index: int) -> None:
        now = time.monotonic()
        with self._lock:
            was_alive = self._alive[index]
            self._alive[index] = False
            self._inflight[index] = 0
            self._stats_cache.pop(index, None)
            if self.spec.rejoin:
                self._next_probe[index] = now + self.spec.rejoin_interval
        if was_alive:
            try:
                self._clients[index].close()
            except OSError:  # pragma: no cover - already torn down
                pass

    # ------------------------------------------------------------------ #
    # host auto-rejoin (probation ping, then re-warm and re-admit)
    # ------------------------------------------------------------------ #
    def _maybe_rejoin(self) -> None:
        """Probe dead hosts whose probation expired; re-admit responders.

        Piggybacked on routing and stats traffic rather than run on a timer
        thread.  Due probes are *claimed* under the lock (so concurrent
        callers never double-probe one host), then the ping, the client
        rebuild and the cache re-warm all run outside it — the same
        fork-outside/publish-under pattern as every other wire call here.
        """
        if not self.spec.rejoin:
            return
        now = time.monotonic()
        with self._lock:
            if self._closed:
                return
            due = [
                i for i, at in self._next_probe.items()
                if now >= at and not self._alive[i] and i not in self._probing
            ]
            self._probing.update(due)
        for index in due:
            self._probe(index)

    def _probe(self, index: int) -> None:
        """One probation ping against a dead host (caller claimed it)."""
        host, port = self.spec.hosts[index]
        client: ServiceClient | None = None
        try:
            client = ServiceClient(
                host,
                port,
                timeout=self.spec.timeout,
                request_timeout=self.spec.request_timeout,
            )
            client.ping()
        except (*_HOST_DOWN, ServiceError):
            if client is not None:
                try:
                    client.close()
                except OSError:  # pragma: no cover - already torn down
                    pass
            with self._lock:  # still dead: next probation window
                self._next_probe[index] = time.monotonic() + self.spec.rejoin_interval
                self._probing.discard(index)
            return
        with self._lock:
            warm_sizes = sorted(self._warm_sizes)
        self._rewarm_client(client, warm_sizes)
        old = self._clients[index]
        with self._lock:
            self._clients[index] = client
            self._alive[index] = True
            self._next_probe.pop(index, None)
            self._probing.discard(index)
            self._rejoins += 1
        try:
            old.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    @staticmethod
    def _rewarm_client(client: ServiceClient, sizes) -> None:
        """Re-warm one fresh host's plan cache before it takes real traffic
        (a respawned server boots cold; rejoin must not reintroduce
        first-query planning latency)."""
        handles = []
        for n in sizes:
            try:
                handles.append(
                    client.submit(
                        list(range(n)), PRIORITY_CONTROL, label=f"rewarm(n={n})"
                    )
                )
            except (*_HOST_DOWN, ServiceError):  # pragma: no cover - benign
                return
        for ticket in handles:
            try:
                client.result(ticket)
            except (*_HOST_DOWN, ServiceError):  # pragma: no cover - benign
                return

    def _polled_load(self, index: int) -> float:
        """The host's queued depth from ``stats()``, TTL-cached."""
        now = time.monotonic()
        with self._lock:
            cached = self._stats_cache.get(index)
        if cached is not None and now - cached[0] < self.spec.stats_ttl:
            return cached[1]
        try:
            stats = self._clients[index].stats()
        except _HOST_DOWN:
            self._mark_dead(index)
            return float("inf")
        load = int(stats.get("queued", 0))
        with self._lock:
            self._stats_cache[index] = (now, load)
        return load

    def _pick_host(self, exclude=()) -> int:
        """Least-loaded live host: local in-flight + polled queue depth."""
        self._maybe_rejoin()
        live = [i for i in self.live_hosts() if i not in exclude]
        if not live:
            raise WorkerDiedError(
                "no live cluster host left to take the job "
                f"({len(self._clients)} configured)"
            )
        loads = {i: self._polled_load(i) for i in live}
        with self._lock:
            return min(live, key=lambda i: (self._inflight[i] + loads[i], i))

    # ------------------------------------------------------------------ #
    # load-aware routing of many small jobs
    # ------------------------------------------------------------------ #
    def submit(self, data, priority: float = 0, **kwargs) -> ClusterTicket:
        """Route one job to the least-loaded live host; return its handle."""
        handle = self._submit_once(list(data), priority, dict(kwargs))
        with self._lock:
            self._routed_jobs += 1
        return handle

    def _submit_once(self, data, priority, kwargs, exclude=(), prefer=None) -> ClusterTicket:
        tried = set(exclude)
        shedding: list[float] = []
        last: Exception | None = None
        for _ in range(len(self._clients)):
            if prefer is not None and prefer not in tried:
                index, prefer = prefer, None
            else:
                try:
                    index = self._pick_host(exclude=tried)
                except WorkerDiedError:
                    if shedding:  # every reachable host shed us
                        break
                    raise
            try:
                ticket = self._clients[index].submit(data, priority, **kwargs)
            except _HOST_DOWN as exc:
                last = exc
                tried.add(index)
                self._mark_dead(index)
                with self._lock:
                    self._retries += 1
                continue
            except ServiceError as exc:
                if not exc.overloaded:
                    raise
                # the host is alive but shedding load: skip it this round
                # and propagate its back-pressure hint if nobody admits us
                last = exc
                tried.add(index)
                shedding.append(exc.retry_after or 0.05)
                continue
            with self._lock:
                self._inflight[index] += 1
            return ClusterTicket(index, ticket, len(data), data, priority, kwargs)
        if shedding:
            raise QueueFullError(
                f"all {len(shedding)} reachable host(s) are overloaded: {last}",
                policy="reject",
                retry_after=min(shedding),
            )
        raise WorkerDiedError(f"no live host accepted the job: {last}")

    def result(self, handle: ClusterTicket, timeout: float | None = None) -> dict:
        """Block for one routed job's result record (the serve ``result``
        reply: ``output`` / ``reads`` / ``writes`` / ``cost`` …).

        A host death (or a remote worker death) fails only this in-flight
        attempt: the retained input is resubmitted on the least-loaded
        survivor, bounded by ``spec.retries`` per job, after which the
        failure surfaces as :class:`WorkerDiedError`.
        """
        while True:
            try:
                record = self._clients[handle.host_index].result(handle.ticket, timeout)
            except _HOST_DOWN as exc:
                self._mark_dead(handle.host_index)
                self._retry(handle, exclude={handle.host_index}, cause=exc)
                continue
            except ServiceError as exc:
                with self._lock:
                    if self._inflight[handle.host_index] > 0:
                        self._inflight[handle.host_index] -= 1
                if exc.reply.get("kind") != WorkerDiedError.__name__:
                    raise
                # the remote pool lost its worker mid-job: same semantics
                # as a dead host, minus the host funeral
                self._retry(handle, exclude=(), cause=exc)
                continue
            with self._lock:
                if self._inflight[handle.host_index] > 0:
                    self._inflight[handle.host_index] -= 1
            return record

    def _retry(self, handle: ClusterTicket, exclude, cause: Exception) -> None:
        """Resubmit a failed handle in place (or give up loudly)."""
        with self._lock:
            self._retries += 1
            self._rebalances += 1
        if handle.attempts >= self.spec.retries:
            raise WorkerDiedError(
                f"job of n={handle.n} failed {handle.attempts + 1} time(s); "
                f"retry budget {self.spec.retries} exhausted: {cause}"
            ) from cause
        # capped exponential backoff with jitter before the resubmit: a
        # fleet-wide hiccup must not turn every coordinator into a
        # synchronized retry stampede (sleep taken outside the lock)
        time.sleep(
            backoff_delay(
                handle.attempts,
                base=self.spec.backoff_base,
                cap=self.spec.backoff_cap,
            )
        )
        replacement = self._submit_once(
            handle.data, handle.priority, handle.kwargs, exclude=exclude
        )
        handle.host_index = replacement.host_index
        handle.ticket = replacement.ticket
        handle.attempts += 1

    def gather(self, handles, timeout: float | None = None) -> list[dict]:
        return [self.result(h, timeout) for h in handles]

    # ------------------------------------------------------------------ #
    # scatter-gather for one huge job
    # ------------------------------------------------------------------ #
    def sort(
        self,
        data,
        *,
        algorithm: str | None = None,
        k: int | None = None,
        check_sorted: bool = False,
        label: str = "scatter",
    ):
        """Sort one large input across every live host and merge the shards.

        Returns a cluster-level :class:`~repro.api.SortReport` whose counter
        carries exactly the coordinator's ``shardmerge`` I/O (certified
        against the Section 4.1 contract); the remote shard sorts' aggregate
        reads/writes/cost ride in ``extras`` alongside the splitters, the
        realized shard sizes and the :class:`ClusterShardPlan` prediction.
        """
        from ..api import SortReport

        data = list(data)
        n = len(data)
        live = self.live_hosts()
        if not live:
            raise WorkerDiedError("no live cluster hosts to scatter over")
        with self._lock:
            retries_before = self._retries
        plan = plan_cluster_shards(
            n, len(live), self.params, oversample=self.spec.oversample
        )
        splitters = self._splitters(data, plan)
        shards: list[list] = [[] for _ in range(len(live))]
        for rec in data:
            shards[bisect.bisect_right(splitters, rec)].append(rec)

        # scatter: one shard per live host, preferring its planned host but
        # falling back through _submit_once's routing when one is dead
        handles = [
            self._submit_once(
                shard,
                0,
                {
                    "algorithm": algorithm,
                    "k": k,
                    "label": f"{label}/shard{i}",
                    "check_sorted": check_sorted,
                },
                prefer=host_index,
            )
            for i, (host_index, shard) in enumerate(zip(live, shards))
        ]
        with self._lock:
            self._scatter_jobs += 1

        if self._fault_hook is not None:
            self._fault_hook(self)

        # gather: servers sort concurrently; a host death mid-gather
        # resubmits only that host's shard on a survivor
        records = self.gather(handles)

        # merge the sorted shards on a real AEM machine: shards load free
        # (their I/O was billed remotely), the k-way merge is billed here
        machine = AEMachine(self.params)
        guard = MemoryGuard()
        # the shard and merged arrays are freed before the pause ends (see
        # engine.external_sort_report)
        with collector_paused():
            arrays = [
                machine.from_list(rec["output"], name=f"shard{i}")
                for i, rec in enumerate(records)
            ]
            output = shard_merge(machine, arrays, guard).peek_list()
            del arrays
        with self._lock:
            scatter_retries = self._retries - retries_before
        report = SortReport(
            algorithm=f"cluster-scatter(hosts={len(live)})+shardmerge",
            n=n,
            params=self.params,
            output=output,
            counter=machine.counter,
            memory_high_water=guard.high_water,
            extras={
                "hosts": len(live),
                "splitters": splitters,
                "shard_sizes": [len(s) for s in shards],
                "shard_tickets": [(h.host_index, h.ticket) for h in handles],
                "remote_reads": sum(r["reads"] for r in records),
                "remote_writes": sum(r["writes"] for r in records),
                "remote_cost": sum(r["cost"] for r in records),
                # worker-measured per-shard timings: cpu is the honest
                # compute figure when hosts timeshare cores (scale-out
                # benches reconstruct the data-parallel critical path
                # from it), wall is the raw figure
                "shard_walls": [r.get("wall_seconds", 0.0) for r in records],
                "shard_cpu_seconds": [
                    r.get("cpu_seconds", 0.0) for r in records
                ],
                "retries": scatter_retries,
                "plan": plan.as_dict(),
            },
            family="cluster",
            granularity="block",
        )
        if check_sorted and not report.is_sorted():
            raise AssertionError("cluster scatter-gather produced unsorted output")
        return report

    def _splitters(self, data, plan) -> list:
        """``hosts - 1`` splitters at even quantiles of a strided sample.

        One pass over the input in scan order, keeping every ``step``-th
        record — Theorem 4.5's pivot sampling lifted to the host level.
        Duplicate-heavy inputs may repeat a splitter; equal keys then all
        land in one shard (``bisect_right``) and some shards come back
        empty, which the merge kernel skips for free.
        """
        if plan.hosts <= 1 or plan.n == 0:
            return []
        step = max(1, plan.n // plan.sample_size)
        sample = sorted(data[::step])
        return [
            sample[min(len(sample) - 1, (i * len(sample)) // plan.hosts)]
            for i in range(1, plan.hosts)
        ]

    # ------------------------------------------------------------------ #
    # cache warming and stats
    # ------------------------------------------------------------------ #
    def warm(self, source) -> int:
        """Warm every live host's plan cache from a local cache snapshot.

        ``source`` is a :class:`~repro.planner.PlanCache` (or an iterable of
        its ``(key, plan)`` snapshot entries); the distinct problem sizes
        are replayed as control-priority sort jobs on every live host — the
        warming rides the existing ``submit``/``result`` wire ops, no new
        protocol.  Returns the number of distinct sizes replayed.
        """
        entries = source.snapshot() if hasattr(source, "snapshot") else list(source)
        sizes = sorted({key[0] for key, _plan in entries})
        with self._lock:
            self._warm_sizes.update(sizes)  # rejoining hosts re-warm from these
        handles = []
        for n in sizes:
            probe = list(range(n))
            for index in self.live_hosts():
                try:
                    ticket = self._clients[index].submit(
                        probe, PRIORITY_CONTROL, label=f"warm(n={n})"
                    )
                except _HOST_DOWN:
                    self._mark_dead(index)
                    continue
                handles.append((index, ticket))
        for index, ticket in handles:
            try:
                self._clients[index].result(ticket)
            except _HOST_DOWN:
                self._mark_dead(index)
            except ServiceError:  # pragma: no cover - warm probes are benign
                pass
        return len(sizes)

    def stats(self) -> dict:
        """Per-host polled stats plus cluster-level aggregates."""
        self._maybe_rejoin()
        per_host = []
        records_per_sec = 0.0
        completed = 0
        for index, (host, port) in enumerate(self.spec.hosts):
            with self._lock:
                alive = self._alive[index]
                inflight = self._inflight[index]
            entry: dict = {
                "host": host,
                "port": port,
                "alive": alive,
                "in_flight": inflight,
            }
            if alive:
                try:
                    remote = self._clients[index].stats()
                except _HOST_DOWN:
                    self._mark_dead(index)
                    entry["alive"] = False
                else:
                    entry.update(remote)
                    records_per_sec += float(remote.get("records_per_sec", 0.0))
                    completed += int(remote.get("completed", 0))
            per_host.append(entry)
        with self._lock:
            aggregate = {
                "hosts": len(self._clients),
                "live_hosts": sum(self._alive),
                "records_per_sec": records_per_sec,
                "completed": completed,
                "in_flight": sum(self._inflight),
                "retries": self._retries,
                "rebalances": self._rebalances,
                "scatter_jobs": self._scatter_jobs,
                "routed_jobs": self._routed_jobs,
                "rejoins": self._rejoins,
            }
        return {"aggregate": aggregate, "per_host": per_host}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Drain-shutdown the fleet: ask every live host to stop listening
        (in-flight work drains server-side), then close the connections."""
        for index in self.live_hosts():
            try:
                self._clients[index].shutdown_server()
            except (*_HOST_DOWN, ServiceError):  # pragma: no cover - racing death
                pass
        self.close()

    def close(self) -> None:
        """Close every client connection (idempotent; servers keep running)."""
        with self._lock:
            already = self._closed
            self._closed = True
        if already:
            return
        for client in self._clients:
            try:
                client.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
