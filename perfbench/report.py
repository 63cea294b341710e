"""Run the benchmark's workloads and print their metric tables.

    python3 perfbench/report.py [--workloads bulk,wire-jobs,cluster-scatter]
        [--seeds 1,2,3] [--seconds S] [--no-trace]

For each workload, one ``perfbench/run.py --trace 0`` run per seed gives
every end-to-end metric by name and unit: the median over the seeds, the
inter-quartile spread as a share of the median (with three or more seeds)
and the bound from ``BENCHMARK.json``; then, per seed, ``failed_frac``, the
counter digest and the raw wall-clock figures.  Then one ``--trace 1`` run
(first seed) gives the per-layer table, ``trace.overhead_frac`` included,
and the span table with self time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import RECORD_PREFIX, benchmark_spec, print_spans  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` child; returns its record plus its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    (record,) = [json.loads(x[len(RECORD_PREFIX):]) for x in lines if x.startswith(RECORD_PREFIX)]
    record["line"] = json.loads(lines[-1])
    return record


def end_to_end_table(workload: str, records: list, spec: dict) -> None:
    seeds = [r["seed"] for r in records]
    print(f"\n== {workload}: end-to-end, trace off, seeds {seeds}")
    print(f"  {'metric':<26} {'unit':<6} {'median':>14} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [r["values"][metric["name"]] for r in records]
        iqr = f"{spread(values):8.4f}" if len(values) >= 3 else f"{'-':>8}"
        print(f"  {metric['name']:<26} {metric['unit']:<6} "
              f"{statistics.median(values):>14.6g} {iqr} {metric['bound']:>6}")
    for r in records:
        tail = r["latency_tail"]
        print(f"  seed {r['seed']}: failed_frac={r['failed_frac']:.4f} "
              f"attempted={r['attempted']} correct={r['line']['correct']} "
              f"digest={r['counter_digest']} records/s={r['raw']['records_per_s']:.6g} "
              f"raw set-up={r['raw']['setup_s']:.4f} s "
              f"latency p50={r['raw']['latency_p50_ms']:.3f} ms "
              f"p{tail['p']:g}={tail['ms']:.3f} ms (n={r['latency_samples']})")
    fp = records[0]["fingerprint"]
    print(f"  host: python {fp['python']}, git {fp['git_sha']}, src {fp['src_digest']}, "
          f"nproc {fp['nproc']}, effective parallelism {fp['effective_parallelism']}")


def per_layer_table(workload: str, record: dict, spec: dict) -> None:
    print(f"\n== {workload}: per-layer, traced run, seed {record['seed']}")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<28} {record['values'][metric['name']]:>14.6g} {metric['unit']}")
    print_spans(record["spans"])


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the per-layer run")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        records = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        end_to_end_table(workload, records, spec)
        if not args.no_trace:
            per_layer_table(workload, run_once(workload, seeds[0], args.seconds, 1), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
