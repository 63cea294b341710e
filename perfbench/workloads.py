"""The benchmark's three workloads, all on ``MachineParams(M=2048, B=32,
omega=16)``, where the planner picks the paper's write-reduced ``k=2``
variants.

* ``bulk`` — closed loop, one caller, no wire: in-process
  ``SortEngine.sort`` of n=200 000 records, cycling three algorithms
  (``auto``, ``mergesort``, ``heapsort``) over four scenarios.
* ``wire-jobs`` — open loop against one ``python -m repro serve`` child
  (thread executor, 2 workers): jobs of seeded-uniform size in [500, 8000]
  sent on a fixed, evenly spaced schedule over one connection and collected
  over a second; latency is timed from when each job was due.  The schedule
  runs in one-second chunks, and each chunk's ``sorted()`` references are
  timed once its last result is in, with the server idle.
* ``cluster-scatter`` — closed loop, one coordinator: ``ClusterCoordinator
  .sort`` of n=200 000 records over a 2-host ``LocalCluster``.

Each workload makes its inputs from the seed before the clock starts and
checks every output against ``sorted(input)``.  Each is driven in three
steps: the constructor prepares inputs, :meth:`system` brings the system up
(its set-up time is measured) and :meth:`window` measures one stretch.
"""

from __future__ import annotations

import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import MachineParams, SortEngine
from repro.cluster import LocalCluster
from repro.service.server import ServiceClient, ServiceError
from repro.workloads import make_scenario

from .spans import Tracer, count_wire_bytes
from .stats import MIN_BEYOND, REFERENCE_START_S, peak_rss_mb, percentile

PARAMS = MachineParams(M=2048, B=32, omega=16)
SCENARIOS = ("uniform", "nearly-sorted", "gaussian", "zipf")
ALGORITHMS = ("auto", "mergesort", "heapsort")
#: a window holds at least this many operations, so its median is reportable
MIN_SAMPLES = 2 * MIN_BEYOND
#: socket deadline for the benchmark's own wire calls
REQUEST_TIMEOUT = 120.0
SITE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "site")
#: the top-level kernel spans, whose sum is compared with ``sorted()``
KERNEL_SPANS = (
    "core.samplesort", "core.mergesort", "core.heapsort",
    "core.selection", "core.ram", "core.shardmerge",
)


#: the offered wire rate in jobs per second: about half of what one server
#: sustains when the benchmark and its children share one CPU (p95 latency
#: climbs past 90/s)
WIRE_RATE = 50.0
#: the wire schedule runs in chunks of this many seconds of jobs
WIRE_CHUNK_SECONDS = 1.0


@dataclass(frozen=True)
class Scale:
    bulk_n: int
    cluster_n: int
    wire_sizes: tuple[int, int]
    setup_repeats: int


FULL = Scale(200_000, 200_000, (500, 8000), 9)
#: seconds-long smoke scale for the benchmark's own tests
TINY = Scale(3_000, 4_000, (500, 3000), 1)


@dataclass
class Op:
    """One operation's outcome; ``latency`` in seconds."""

    n: int
    latency: float
    reads: int = 0
    writes: int = 0
    ok: bool = True
    #: ``sorted()`` of the same input, timed off the operation's clock but
    #: close to it, so both see the host at the same speed: right after it
    #: (closed loops) or once its one-second chunk is done (open loop)
    sorted_s: float = 0.0


@dataclass
class Window:
    """One measured stretch of one workload."""

    ops: list
    #: untimed operations run first, so that lazy set-up and first-touch
    #: memory costs are paid before the clock starts (still checked)
    warmup: list
    records_per_s: float
    #: a closed loop's cycle length (operation ``i`` repeats kind
    #: ``i % cycle``); ``None`` for an open loop, whose jobs are all distinct
    cycle: int | None
    #: the operations the per-record counters and the digest cover: one
    #: full cycle of a closed loop, the whole schedule of an open loop
    counter_ops: list
    peak_rss_mb: float
    #: every repeat of an input charged exactly the counters of its first run
    repeats_exact: bool = True
    #: named samples from result records (per-layer medians come from these)
    samples: dict = field(default_factory=dict)
    #: per-layer values the workload measures itself
    layer: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.warmup) + len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.warmup + self.ops)


def _sorted_seconds(data) -> float:
    t0 = time.perf_counter()
    sorted(data)
    return time.perf_counter() - t0


def _closed_loop(cycle, seconds: float, run_op) -> list:
    """Whole cycles of ``run_op(item)`` until ``seconds`` have passed and
    at least :data:`MIN_SAMPLES` operations ran."""
    ops: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_SAMPLES:
        ops.extend(run_op(item) for item in cycle)
    return ops


def _repeats_exact(ops, cycle_len: int) -> bool:
    first = [(op.reads, op.writes) for op in ops[:cycle_len]]
    return all(
        (op.reads, op.writes) == first[i % cycle_len]
        for i, op in enumerate(ops)
        if op.ok
    )


def _wire_bytes(tracer: Tracer | None) -> int:
    return tracer.counts.get("server.bytes", 0) if tracer is not None else 0


def _closed_loop_rate(ops, cycle_len: int) -> float:
    """Median over whole cycles of records sorted per second, so that a
    few seconds of a busy host move it less than a mean would."""
    rates = []
    for i in range(0, len(ops), cycle_len):
        cycle = ops[i : i + cycle_len]
        rates.append(sum(op.n for op in cycle if op.ok) / sum(op.latency for op in cycle))
    return statistics.median(rates)


@contextmanager
def _child_env(trace_dir: str | None):
    """Environment for server children: traced ones load the site hook."""
    keys = ("PYTHONPATH", "PERFBENCH_TRACE_DIR")
    saved = {key: os.environ.get(key) for key in keys}
    os.environ.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        path = saved["PYTHONPATH"]
        os.environ["PYTHONPATH"] = SITE_DIR + (os.pathsep + path if path else "")
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _stop_fleet(fleet: LocalCluster, stop) -> None:
    """Ask the servers to exit cleanly (traced ones write their spans at
    exit), then reap them."""
    try:
        stop()
    except (OSError, ServiceError):
        pass
    try:
        fleet.wait(timeout=30)
    except subprocess.TimeoutExpired:
        pass
    fleet.shutdown()


# ---------------------------------------------------------------------- #
class Bulk:
    name = "bulk"

    def __init__(self, seed: int, scale: Scale, seconds: float):
        rng = random.Random(seed)
        self.n = scale.bulk_n
        self.inputs = [
            make_scenario(s, self.n, seed=rng.randrange(2**31)) for s in SCENARIOS
        ]
        self.expected = [sorted(data) for data in self.inputs]

    _PROBE = (
        "import time\nt = time.perf_counter()\n"
        "from repro import MachineParams, SortEngine\n"
        "SortEngine(MachineParams(M={M}, B={B}, omega={omega})).plan({n})\n"
        "print(time.perf_counter() - t)"
    )

    @contextmanager
    def system(self, trace_dir: str | None):
        """Set-up is what a fresh interpreter pays before its first sort:
        importing ``repro``, building the engine and planning ``n``."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
        probe = self._PROBE.format(M=PARAMS.M, B=PARAMS.B, omega=PARAMS.omega, n=self.n)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        yield float(out), SortEngine(PARAMS)

    def window(self, engine: SortEngine, seconds: float, tracer: Tracer | None) -> Window:
        def run_op(item) -> Op:
            algorithm, i = item
            data = self.inputs[i]
            t0 = time.perf_counter()
            try:
                rep = engine.sort(data, algorithm=algorithm)
            except Exception:  # noqa: BLE001 — a raising sort is a failed operation
                return Op(len(data), time.perf_counter() - t0, ok=False)
            latency = time.perf_counter() - t0
            return Op(len(data), latency, rep.reads, rep.writes,
                      rep.output == self.expected[i], _sorted_seconds(data))

        cycle = [(a, i) for i in range(len(self.inputs)) for a in ALGORITHMS]
        warmup = [run_op(item) for item in cycle]
        ops = _closed_loop(cycle, seconds, run_op)
        return Window(
            ops=ops,
            warmup=warmup,
            records_per_s=_closed_loop_rate(ops, len(cycle)),
            cycle=len(cycle),
            counter_ops=ops[: len(cycle)],
            peak_rss_mb=peak_rss_mb(),
            repeats_exact=_repeats_exact(ops, len(cycle)),
        )


# ---------------------------------------------------------------------- #
class WireJobs:
    name = "wire-jobs"
    workers = 2
    #: untimed schedule run first on every server
    warmup_seconds = 1.0

    def __init__(self, seed: int, scale: Scale, seconds: float):
        rng = random.Random(seed)
        self.warm = self._schedule(rng, scale, self.warmup_seconds)
        self.main = self._schedule(rng, scale, seconds)

    def _schedule(self, rng: random.Random, scale: Scale, seconds: float) -> dict:
        """``seconds`` of jobs at the offered rate, with their expected
        outputs.  Sizes are stratified: one per equal slice of the size
        range, shuffled — every seed offers the same size mix."""
        lo, hi = scale.wire_sizes
        count = max(MIN_SAMPLES, round(WIRE_RATE * seconds))
        width = (hi - lo + 1) / count
        sizes = [lo + int((i + rng.random()) * width) for i in range(count)]
        rng.shuffle(sizes)
        jobs = [
            make_scenario(SCENARIOS[i % len(SCENARIOS)], size, seed=rng.randrange(2**31))
            for i, size in enumerate(sizes)
        ]
        return {"jobs": jobs, "expected": [sorted(job) for job in jobs]}

    @contextmanager
    def system(self, trace_dir: str | None):
        """One ``python -m repro serve`` child and two connections to it."""
        t0 = time.perf_counter()
        with _child_env(trace_dir):
            fleet = LocalCluster(1, workers=self.workers, executor="thread", params=PARAMS)
        clients: list[ServiceClient] = []
        try:
            host, port = fleet.addresses[0]
            for _ in range(2):
                clients.append(
                    ServiceClient(host, port, retries=50, request_timeout=REQUEST_TIMEOUT)
                )
            clients[0].ping()
            yield time.perf_counter() - t0, (fleet, clients)
        finally:
            def stop():
                if clients:
                    clients[0].shutdown_server()
                for client in clients:
                    client.close()

            _stop_fleet(fleet, stop)

    @staticmethod
    def _open_loop(jobs, expected, submitter, collector):
        """Send ``jobs`` on the fixed schedule over ``submitter`` while
        collecting results in order over ``collector``.  Returns ``(ops,
        late, wall)``: one operation per job, with latency from when the job
        was due, and how late each job was sent."""
        interval = 1.0 / WIRE_RATE
        handoff: queue.Queue = queue.Queue()
        start = time.perf_counter() + 0.05

        def submit_all() -> None:
            for i, job in enumerate(jobs):
                due = start + i * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    ticket = submitter.submit(job)
                except (OSError, ServiceError):
                    ticket = None
                handoff.put((i, ticket, due, sent))
            handoff.put(None)

        thread = threading.Thread(target=submit_all, name="perfbench-submit")
        thread.start()
        ops: list[Op] = []
        late: list[float] = []
        last_done = start
        try:
            while (item := handoff.get()) is not None:
                i, ticket, due, sent = item
                try:
                    if ticket is None:
                        raise ServiceError("submit failed")
                    rec = collector.result(ticket)
                except (OSError, ServiceError):
                    ops.append(Op(len(jobs[i]), time.perf_counter() - due, ok=False))
                    continue
                last_done = time.perf_counter()
                ops.append(Op(len(jobs[i]), last_done - due, rec["reads"], rec["writes"],
                              rec["output"] == expected[i]))
                late.append(sent - due)
        finally:
            thread.join()
        return ops, late, last_done - start

    def _run(self, schedule: dict, count: int, submitter, collector):
        """The first ``count`` jobs of ``schedule``, one chunk of
        :data:`WIRE_CHUNK_SECONDS` at a time.  Once a chunk's last result
        is in, the server is idle, and ``sorted()`` of each of its jobs is
        timed then.  Returns ``(ops, late, wall)``, ``wall`` summed over
        the chunks."""
        per_chunk = round(WIRE_RATE * WIRE_CHUNK_SECONDS)
        ops: list[Op] = []
        late: list[float] = []
        wall = 0.0
        for lo in range(0, count, per_chunk):
            jobs = schedule["jobs"][lo : min(count, lo + per_chunk)]
            chunk_ops, chunk_late, chunk_wall = self._open_loop(
                jobs, schedule["expected"][lo:], submitter, collector
            )
            for op, job in zip(chunk_ops, jobs):  # one operation per job, in order
                op.sorted_s = _sorted_seconds(job)
            ops += chunk_ops
            late += chunk_late
            wall += chunk_wall
        return ops, late, wall

    def window(self, handle, seconds: float, tracer: Tracer | None) -> Window:
        fleet, (submitter, collector) = handle
        if tracer is not None:
            count_wire_bytes(submitter, tracer)
            count_wire_bytes(collector, tracer)
        warmup, _, _ = self._run(self.warm, len(self.warm["jobs"]), submitter, collector)
        busy0 = submitter.stats()["busy_seconds"]
        bytes0 = _wire_bytes(tracer)
        count = max(MIN_SAMPLES, min(len(self.main["jobs"]), round(WIRE_RATE * seconds)))
        ops, late, wall = self._run(self.main, count, submitter, collector)
        layer = {"server.bytes": _wire_bytes(tracer) - bytes0}
        busy = submitter.stats()["busy_seconds"] - busy0
        layer["service.busy_frac"] = busy / (wall * self.workers)
        return Window(
            ops=ops,
            warmup=warmup,
            records_per_s=sum(op.n for op in ops if op.ok) / wall,
            cycle=None,
            counter_ops=ops,
            peak_rss_mb=peak_rss_mb(fleet.procs[0].pid),
            samples={"late": late},
            layer=layer,
        )


# ---------------------------------------------------------------------- #
class ClusterScatter:
    name = "cluster-scatter"
    hosts = 2

    def __init__(self, seed: int, scale: Scale, seconds: float):
        rng = random.Random(seed)
        self.inputs = [
            make_scenario(s, scale.cluster_n, seed=rng.randrange(2**31)) for s in SCENARIOS
        ]
        self.expected = [sorted(data) for data in self.inputs]

    @contextmanager
    def system(self, trace_dir: str | None):
        """Two ``python -m repro serve`` hosts (1 worker each) and a
        coordinator connected to both."""
        t0 = time.perf_counter()
        with _child_env(trace_dir):
            fleet = LocalCluster(self.hosts, workers=1, executor="thread", params=PARAMS)
        coord = None
        try:
            coord = fleet.connect()
            yield time.perf_counter() - t0, (fleet, coord)
        finally:
            _stop_fleet(fleet, coord.shutdown if coord is not None else lambda: None)

    @staticmethod
    def _busy(coord) -> float:
        return sum(h.get("busy_seconds", 0.0) for h in coord.stats()["per_host"])

    def window(self, handle, seconds: float, tracer: Tracer | None) -> Window:
        fleet, coord = handle
        if tracer is not None:
            for client in coord._clients:
                count_wire_bytes(client, tracer)
        samples: dict[str, list] = {"remote_cpu": [], "imbalance": []}

        def run_op(i: int) -> Op:
            data = self.inputs[i]
            t0 = time.perf_counter()
            try:
                rep = coord.sort(data)
            except Exception:  # noqa: BLE001 — a raising sort is a failed operation
                return Op(len(data), time.perf_counter() - t0, ok=False)
            latency = time.perf_counter() - t0
            extras = rep.extras
            sizes = extras["shard_sizes"]
            samples["remote_cpu"].append(max(extras["shard_cpu_seconds"]))
            samples["imbalance"].append(max(sizes) / (sum(sizes) / len(sizes)))
            return Op(len(data), latency,
                      rep.reads + extras["remote_reads"],
                      rep.writes + extras["remote_writes"],
                      rep.output == self.expected[i], _sorted_seconds(data))

        cycle = range(len(self.inputs))
        warmup = [run_op(i) for i in cycle]
        busy0 = self._busy(coord)
        bytes0 = _wire_bytes(tracer)
        start = time.perf_counter()
        ops = _closed_loop(cycle, seconds, run_op)
        wall = time.perf_counter() - start
        layer = {"server.bytes": _wire_bytes(tracer) - bytes0}
        layer["service.busy_frac"] = (self._busy(coord) - busy0) / (wall * self.hosts)
        rss = peak_rss_mb() + sum(peak_rss_mb(p.pid) for p in fleet.procs)
        return Window(
            ops=ops,
            warmup=warmup,
            records_per_s=_closed_loop_rate(ops, len(cycle)),
            cycle=len(cycle),
            counter_ops=ops[: len(cycle)],
            peak_rss_mb=rss,
            repeats_exact=_repeats_exact(ops, len(cycle)),
            samples=samples,
            layer=layer,
        )


WORKLOADS = {w.name: w for w in (Bulk, WireJobs, ClusterScatter)}


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def _p50_ms(window: Window) -> float:
    p50 = percentile([op.latency for op in window.ops if op.ok], 50)
    if p50 is None:
        raise RuntimeError(f"too few operations for a median: {len(window.ops)}")
    return p50 * 1e3


def slowdown(window: Window) -> float:
    """Operation time over ``sorted()`` time on the same input.

    Both are timed next to each other, so a shared host's changing speed
    largely cancels out of the ratio.  A closed loop takes the median ratio
    of each kind of operation over its repeats, then the geometric mean
    over kinds; an open loop, whose jobs are all distinct, takes the
    median over jobs."""
    if window.cycle is None:
        return statistics.median(op.latency / op.sorted_s for op in window.ops if op.ok)
    per_kind = [
        statistics.median(
            op.latency / op.sorted_s for op in window.ops[kind :: window.cycle] if op.ok
        )
        for kind in range(window.cycle)
    ]
    return statistics.geometric_mean(per_kind)


def raw_timings(window: Window, setups: list) -> dict:
    """Wall-clock figures as a user sees them on this host (unbounded: they
    move with the host's speed; see :func:`slowdown`).  ``setups`` holds
    the raw set-up seconds, if set-up was timed."""
    raw = {"records_per_s": window.records_per_s, "latency_p50_ms": _p50_ms(window)}
    if setups:
        raw["setup_s"] = statistics.median(setups)
    return raw


def end_to_end(window: Window, setup_ratios: list) -> dict:
    """``setup_ratios`` holds each set-up's seconds over the reference start
    timed right before it; ``setup_s`` puts their median on the scale of
    the host the bounds were set on (see :data:`REFERENCE_START_S`)."""
    n = sum(op.n for op in window.counter_ops)
    reads = sum(op.reads for op in window.counter_ops)
    writes = sum(op.writes for op in window.counter_ops)
    return {
        "slowdown_vs_sorted": slowdown(window),
        "block_reads_per_record": reads / n,
        "block_writes_per_record": writes / n,
        "aem_cost_per_record": (reads + PARAMS.omega * writes) / n,
        "setup_s": statistics.median(setup_ratios) * REFERENCE_START_S,
        "peak_rss_mb": window.peak_rss_mb,
    }


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def cluster_phases(tracer: Tracer) -> dict:
    """Each traced ``ClusterCoordinator.sort`` split into partition /
    scatter / gather / merge seconds by the wire calls made during it
    (one sort runs at a time)."""
    phases: dict[str, list] = {k: [] for k in ("partition", "scatter", "gather", "merge")}
    events = tracer.events
    for name, begin, end in events:
        if name != "cluster.sort":
            continue
        inside = [e for e in events if begin <= e[1] and e[2] <= end]
        submits = [e for e in inside if e[0] == "server.submit"]
        results = [e for e in inside if e[0] == "server.result"]
        phases["partition"].append(min(e[1] for e in submits) - begin)
        phases["scatter"].append(sum(e[2] - e[1] for e in submits))
        phases["gather"].append(sum(e[2] - e[1] for e in results))
        phases["merge"].append(end - max(e[2] for e in results))
    return phases


def per_layer(traced: Window, plain: Window, tracer: Tracer) -> dict:
    """Per-layer metrics of a traced window (``plain`` is the untraced
    window run just before it, for the tracing overhead).  The service,
    server and cluster timings come from the tracer: a workload that
    bypasses a layer reads zero there because no call into it was made."""
    # spans, events and counts cover the warm-up too (the servers trace
    # from start)
    every = traced.warmup + traced.ops
    ops = len(every)
    records = sum(op.n for op in every)
    sorted_s = sum(op.sorted_s for op in every if op.ok)
    kernel_s = sum(tracer.total(name) for name in KERNEL_SPANS)
    s = traced.samples
    phases = cluster_phases(tracer)

    def per_call(name: str) -> float:
        calls = tracer.calls(name)
        return tracer.total(name) / calls if calls else 0.0

    plans = tracer.calls("planner.plan")
    return {
        "core.samplesort_s": per_call("core.samplesort"),
        "core.mergesort_s": per_call("core.mergesort"),
        "core.heapsort_s": per_call("core.heapsort"),
        "core.selection_s": per_call("core.selection"),
        "core.ram_s": per_call("core.ram"),
        "core.shardmerge_s": per_call("core.shardmerge"),
        "core.vs_sorted": kernel_s / sorted_s if sorted_s else 0.0,
        "models.scan_blocks_s": tracer.total("models.scan_blocks") / ops,
        "models.writer_extend_s": tracer.total("models.writer_extend") / ops,
        "models.block_reads": tracer.counts.get("models.block_reads", 0) / records,
        "models.block_writes": tracer.counts.get("models.block_writes", 0) / records,
        "planner.plan_s": per_call("planner.plan"),
        "planner.hit_ratio": tracer.counts.get("planner.hits", 0) / plans if plans else 0.0,
        # from the result records ServiceClient.result returns
        "service.exec_ms_p50": _median(tracer.samples.get("service.exec"), 1e3),
        "service.exec_cpu_ms_p50": _median(tracer.samples.get("service.exec_cpu"), 1e3),
        # measured in the server: admission to dispatch of each job
        "service.queue_wait_ms_p50": _median(tracer.samples.get("service.queue_wait"), 1e3),
        "service.busy_frac": traced.layer.get("service.busy_frac", 0.0),
        "server.submit_ms_p50": _median(tracer.durations("server.submit"), 1e3),
        "server.result_ms_p50": _median(tracer.durations("server.result"), 1e3),
        "server.bytes_per_record": traced.layer.get("server.bytes", 0) / sum(op.n for op in traced.ops),
        "cluster.partition_s": _median(phases["partition"]),
        "cluster.scatter_s": _median(phases["scatter"]),
        "cluster.gather_s": _median(phases["gather"]),
        "cluster.remote_sort_cpu_s": _median(s.get("remote_cpu")),
        "cluster.merge_s": _median(phases["merge"]),
        "cluster.shard_imbalance": _median(s.get("imbalance")),
        "trace.overhead_frac": slowdown(traced) / slowdown(plain) - 1.0,
    }
