"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk|wire-jobs|cluster-scatter \\
        --seed N --seconds S --trace 0|1

Run from a checkout: the program is imported from ``src/`` next to this
directory and never from anywhere else, so a tree without ``src/repro``
exits with code 2.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json``: set-up is repeated, each time right after a reference
interpreter start, and the median ratio reported as normalised seconds;
then one window of ``--seconds`` is measured.  ``--trace 1`` measures the per-layer
metrics: half the time untraced, half traced (the difference is the
tracing overhead).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, prefixed ``PERFBENCH_RECORD``, holds the full record (host
fingerprint, counter digest, failure share, tail latency, layer table).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RECORD_PREFIX = "PERFBENCH_RECORD "


def _load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the full record (see the module docstring)."""
    from perfbench import workloads as wl
    from perfbench.spans import Tracer, install, load_process_traces
    from perfbench.stats import (
        counter_digest, fingerprint, reference_start_seconds, tail_percentile,
    )

    scale = wl.TINY if tiny else wl.FULL
    host = fingerprint(ROOT)
    # one CPU for this process and every child it starts: how many cores a
    # shared host lends at the moment then cannot change the figures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = wl.WORKLOADS[workload](seed, scale, seconds)
    tracer = None
    setups: list[float] = []
    if not trace:
        ratios = []
        for repeat in range(scale.setup_repeats):
            reference_s = reference_start_seconds()
            with bench.system(None) as (setup_s, handle):
                setups.append(setup_s)
                ratios.append(setup_s / reference_s)
                if repeat == scale.setup_repeats - 1:
                    window = bench.window(handle, seconds, None)
        values = wl.end_to_end(window, ratios)
        plain = window
    else:
        with bench.system(None) as (_, handle):
            plain = bench.window(handle, seconds / 2, None)
        tracer = Tracer()
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        trace_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".perfbench"))
        try:
            with bench.system(trace_dir) as (_, handle):
                patches = install(tracer)
                try:
                    window = bench.window(handle, seconds / 2, tracer)
                finally:
                    patches.undo()
            for child in load_process_traces(trace_dir):
                tracer.merge(child)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        values = wl.per_layer(window, plain, tracer)

    latencies = [op.latency for op in window.ops if op.ok]
    tail = tail_percentile(latencies)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": host,
        "values": values,
        "raw": wl.raw_timings(window, setups),
        "attempted": window.attempted,
        "failed": window.failed,
        "failed_frac": window.failed / window.attempted,
        "repeats_exact": window.repeats_exact and plain.repeats_exact,
        "counter_digest": counter_digest((op.reads, op.writes) for op in window.counter_ops),
        "latency_samples": len(latencies),
        "latency_tail": {"p": tail[0], "ms": tail[1] * 1e3} if tail else None,
    }
    if "late" in window.samples:
        late = sorted(window.samples["late"])
        record["generator_late_ms"] = {
            "p50": late[len(late) // 2] * 1e3, "max": late[-1] * 1e3,
        }
    if tracer is not None:
        exported = tracer.export()
        record["spans"] = exported["spans"]
        record["counts"] = exported["counts"]
        record["sampled"] = {name: len(v) for name, v in exported["samples"].items()}
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The result line (last line of output): exactly the metrics the spec names."""
    metrics = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    out = {}
    for metric in metrics:
        value = record["values"][metric["name"]]
        if not math.isfinite(value):
            raise RuntimeError(f"metric {metric['name']} is not finite: {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": record["failed"] == 0 and record["repeats_exact"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }


def print_human(record: dict, spec: dict) -> None:
    metrics = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed_frac={record['failed_frac']:.4f} "
          f"digest={record['counter_digest']}")
    for metric in metrics:
        print(f"  {metric['name']:<28} {record['values'][metric['name']]:>14.6g} {metric['unit']}")
    raw = record["raw"]
    print(f"  wall clock on this host: {raw['records_per_s']:.6g} records/s, "
          f"latency p50 {raw['latency_p50_ms']:.3f} ms", end="")
    tail = record["latency_tail"]
    if tail and tail["p"] > 50:
        print(f", p{tail['p']:g} {tail['ms']:.3f} ms", end="")
    print(f" ({record['latency_samples']} samples)", end="")
    print(f", set-up {raw['setup_s']:.4f} s" if "setup_s" in raw else "")
    if record.get("spans"):
        print_spans(record["spans"])


def print_spans(spans: dict) -> None:
    print(f"  {'span':<24} {'calls':>9} {'total s':>10} {'self s':>10} {'per call ms':>12}")
    for name in sorted(spans):
        calls, total, self_s = spans[name]
        print(f"  {name:<24} {calls:>9} {total:>10.4f} {self_s:>10.4f} {total / calls * 1e3:>12.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record, spec)
    print_human(record, spec)
    print(RECORD_PREFIX + json.dumps(record))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
