"""Overload SLO benchmark: 2x-capacity storms against each admission policy.

A load generator offers jobs at twice the service's measured capacity and
records what each admission policy does with the excess:

* ``reject`` — overflow is refused at the door with back-pressure metadata;
  admitted jobs keep a bounded queue wait, so tail latency stays flat.
* ``block`` — the generator itself is throttled (submit blocks until space);
  nothing is refused, the queue bound becomes a rate limiter.
* ``shed-lowest`` — overflow evicts the worst pending job, so high-priority
  work keeps flowing while low-priority work is sacrificed.

Headline numbers land in ``BENCH_bench_overload_slo.json``: per-policy
p50/p95/p99 completion latency (submit → done-callback, milliseconds) and
goodput (completed jobs/s) against the offered rate.  The SLO claim
asserted here is structural, not a wall-clock number: every policy keeps
goodput positive under 2x overload, the bounding policies actually
exercise their overflow path, and ``block`` completes every job it admits.
"""

import threading
import time
from concurrent.futures import CancelledError

from conftest import run_once

from repro import MachineParams
from repro.service import QueueFullError, SortService
from repro.workloads import make_scenario

PARAMS = MachineParams(M=64, B=8, omega=8)
WORKERS = 2
MAX_QUEUE = 6
JOB_N = 1_500  # records per job: big enough to measure, small enough to flood
OVERLOAD = 2.0  # offered rate as a multiple of measured capacity
STORM_JOBS = 60  # jobs offered per policy storm


def _percentile(sorted_values, q):
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]


def _measure_capacity():
    """Jobs/s the worker pool sustains with no queueing pressure."""
    jobs = [make_scenario("uniform", JOB_N, seed=i) for i in range(WORKERS * 6)]
    with SortService(PARAMS, workers=WORKERS, executor="thread") as svc:
        t0 = time.perf_counter()
        futures = [svc.submit(data) for data in jobs]
        for fut in futures:
            fut.result(timeout=60)
        wall = time.perf_counter() - t0
    return len(jobs) / wall


def _storm(policy: str, offered_jps: float) -> dict:
    """Offer STORM_JOBS at ``offered_jps`` against one admission policy."""
    interval = 1.0 / offered_jps
    done_at: dict[int, float] = {}
    done_lock = threading.Lock()

    def _stamp(i):
        def _cb(_fut):
            with done_lock:
                done_at[i] = time.perf_counter()

        return _cb

    submitted_at: dict[int, float] = {}
    futures: dict[int, object] = {}
    rejected = 0
    with SortService(
        PARAMS,
        workers=WORKERS,
        executor="thread",
        max_queue=MAX_QUEUE,
        admission=policy,
    ) as svc:
        t_start = time.perf_counter()
        for i in range(STORM_JOBS):
            data = make_scenario("uniform", JOB_N, seed=i)
            t_sub = time.perf_counter()
            try:
                # cycling priorities give shed-lowest real eviction targets
                fut = svc.submit(data, priority=i % 10)
            except QueueFullError:
                rejected += 1
            else:
                submitted_at[i] = t_sub
                futures[i] = fut
                fut.add_done_callback(_stamp(i))
            # pace the generator at the offered rate (drift-corrected)
            next_due = t_start + (i + 1) * interval
            pause = next_due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
        shed = 0
        for i, fut in futures.items():
            try:
                fut.result(timeout=120)
            except CancelledError:
                shed += 1
        stats = svc.stats()
    wall = max(done_at.values(), default=time.perf_counter()) - t_start
    latencies = sorted(
        done_at[i] - submitted_at[i]
        for i in futures
        if i in done_at and not futures[i].cancelled()
    )
    completed = len(latencies)
    return {
        "policy": policy,
        "offered_jps": round(offered_jps, 2),
        "goodput_jps": round(completed / wall, 2) if wall > 0 else 0.0,
        "p50_ms": round(1e3 * _percentile(latencies, 0.50), 3),
        "p95_ms": round(1e3 * _percentile(latencies, 0.95), 3),
        "p99_ms": round(1e3 * _percentile(latencies, 0.99), 3),
        "submitted": len(futures),
        "completed": completed,
        "rejected": rejected,
        "shed": shed,
        "stats_rejected": stats["rejected"],
        "stats_shed": stats["shed"],
    }


def _sweep():
    capacity = _measure_capacity()
    offered = OVERLOAD * capacity
    rows = {policy: _storm(policy, offered) for policy in
            ("reject", "block", "shed-lowest")}
    return capacity, rows


def bench_overload_slo(benchmark):
    capacity, rows = run_once(benchmark, _sweep)

    for policy, row in rows.items():
        # goodput survives the storm and percentiles are coherent
        assert row["completed"] > 0, row
        assert row["goodput_jps"] > 0, row
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"], row
    # the refusing policies must actually exercise their overflow path at 2x
    assert rows["reject"]["rejected"] > 0, rows["reject"]
    assert rows["shed-lowest"]["rejected"] + rows["shed-lowest"]["shed"] > 0, (
        rows["shed-lowest"]
    )
    # block admits and completes everything: the generator is the throttle
    block = rows["block"]
    assert block["rejected"] == 0 and block["shed"] == 0, block
    assert block["completed"] == block["submitted"] == STORM_JOBS, block
    # counters reconcile with the service's own books
    reject = rows["reject"]
    assert reject["rejected"] == reject["stats_rejected"], reject
    assert rows["shed-lowest"]["shed"] == rows["shed-lowest"]["stats_shed"], (
        rows["shed-lowest"]
    )

    benchmark.extra_info.update(
        {
            "workers": WORKERS,
            "max_queue": MAX_QUEUE,
            "overload_factor": OVERLOAD,
            "capacity_jps": round(capacity, 2),
            "policies": rows,
        }
    )
