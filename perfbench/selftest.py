"""The benchmark's own tests (seconds each, tiny inputs).

    python3 -m pytest perfbench/selftest.py -q

Not named ``test_*.py`` on purpose: the smokes start server children, so
they run when asked for, not with the repository's test suite.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run  # noqa: E402
from perfbench.stats import counter_digest, percentile, spread, tail_percentile  # noqa: E402

run._load_program()
SPEC = run.benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
def test_median_needs_ten_samples_above_it():
    assert percentile(range(20), 50) == 9
    assert percentile(range(19), 50) is None


def test_p95_needs_two_hundred_samples():
    assert percentile(range(200), 95) == 189
    assert percentile(range(199), 95) is None


def test_percentile_is_a_measured_value_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    assert percentile(values, 50) in values
    assert percentile(values, 50) == percentile(sorted(values), 50)


def test_tail_percentile_is_the_highest_allowed():
    assert tail_percentile(range(1000)) == (99.0, 989)
    assert tail_percentile(range(30)) == (50.0, 14)
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None


def test_spread_and_digest():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert counter_digest([(1, 2), (3, 4)]) == counter_digest([(1, 2), (3, 4)])
    assert counter_digest([(1, 2), (3, 4)]) != counter_digest([(3, 4), (1, 2)])


# ---------------------------------------------------------------------- #
# BENCHMARK.json
# ---------------------------------------------------------------------- #
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    assert set(layer_map["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    mapped = [entry["metric"] for entry in layer_map["layers"]]
    assert mapped == [m["name"] for m in SPEC["per_layer"]]
    for entry in layer_map["layers"]:
        for metric, workload in entry["moves"] + entry.get("no_move", []):
            assert metric in layer_map["end_to_end"] and workload in WORKLOADS


# ---------------------------------------------------------------------- #
# tiny smokes
# ---------------------------------------------------------------------- #
_records: dict = {}


def _record(workload: str, trace: bool) -> dict:
    key = (workload, trace)
    if key not in _records:
        _records[key] = run.measure(workload, seed=3, seconds=1.0, trace=trace, tiny=True)
    return _records[key]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_present_and_finite(workload, trace):
    record = _record(workload, trace)
    line = run.result_line(record, SPEC)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in expected]
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert record["failed_frac"] == 0
    assert line["correct"] is True and line["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_bulk_bypasses_service_server_and_cluster():
    record = _record("bulk", True)
    # the wrappers sit on the classes, so a bulk path that touched the wire,
    # the cluster or a service queue would leave spans or samples here
    for name in ("server.submit", "server.result", "cluster.sort", "core.shardmerge"):
        assert name not in record["spans"]
    assert not [name for name in record["sampled"] if name.startswith("service.")]
    values = record["values"]
    for name in ("service.exec_ms_p50", "service.queue_wait_ms_p50", "server.submit_ms_p50",
                 "server.result_ms_p50", "cluster.scatter_s", "cluster.gather_s"):
        assert values[name] == 0
    assert values["core.mergesort_s"] > 0 and values["models.scan_blocks_s"] > 0


def test_wire_workloads_leave_the_spans_bulk_must_not():
    # the bypass check above can fail: the same spans do show on the wire
    for workload in ("wire-jobs", "cluster-scatter"):
        record = _record(workload, True)
        assert record["spans"]["server.submit"][0] > 0
        assert record["spans"]["server.result"][0] > 0
        assert record["sampled"]["service.exec"] > 0


@pytest.mark.parametrize("workload,layers", [
    ("wire-jobs", ("planner.plan_s", "service.exec_ms_p50", "service.queue_wait_ms_p50",
                   "server.submit_ms_p50", "server.result_ms_p50", "server.bytes_per_record",
                   "core.ram_s")),
    ("cluster-scatter", ("cluster.partition_s", "cluster.scatter_s", "cluster.gather_s",
                         "cluster.merge_s", "core.shardmerge_s", "cluster.remote_sort_cpu_s",
                         "service.exec_ms_p50", "server.bytes_per_record")),
])
def test_traced_layers_are_measured(workload, layers):
    values = _record(workload, True)["values"]
    assert all(values[name] > 0 for name in layers)


def test_layer_counts_match_end_to_end_counters():
    # closed loops run whole cycles, so both windows see the same input mix
    for workload in ("bulk", "cluster-scatter"):
        e2e, traced = _record(workload, False)["values"], _record(workload, True)["values"]
        assert traced["models.block_reads"] == pytest.approx(e2e["block_reads_per_record"])
        assert traced["models.block_writes"] == pytest.approx(e2e["block_writes_per_record"])


def test_counters_and_digest_repeat_for_a_seed():
    again = run.measure("bulk", seed=3, seconds=0.5, trace=False, tiny=True)
    first = _record("bulk", False)
    assert again["counter_digest"] == first["counter_digest"]
    for name in ("block_reads_per_record", "block_writes_per_record", "aem_cost_per_record"):
        assert again["values"][name] == first["values"][name]


def test_tree_without_program_exits_nonzero():
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
