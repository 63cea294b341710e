"""Tests for batches on the process executor: ``engine.batch`` over the
SortService worker-process pool and its per-worker plan caches, each of
which plans a size on its first job."""

import pytest

from repro import MachineParams, SortEngine, SortJob
from repro.workloads import make_scenario, random_permutation

SMALL = MachineParams(M=64, B=8, omega=8)


def _mixed_jobs(count=12, base_n=200):
    mix = ["uniform", "presorted", "reversed", "duplicates"]
    return [
        SortJob(
            data=make_scenario(mix[i % 4], base_n + 31 * i, seed=i),
            params=SMALL,
            label=f"{mix[i % 4]}/{i}",
        )
        for i in range(count)
    ]


class TestProcessExecutor:
    def test_thread_and_process_identical_aggregates(self):
        # the acceptance criterion: identical model-level totals from both
        # executors on the identical job list (same per-job simulation, only
        # scheduling differs)
        jobs = _mixed_jobs(12)
        with SortEngine(SMALL) as engine:
            thread = engine.batch(jobs)
        with SortEngine(SMALL, executor="process", workers=2) as engine:
            process = engine.batch(jobs)
        assert not thread.failures and not process.failures
        assert process.total_reads == thread.total_reads
        assert process.total_writes == thread.total_writes
        assert process.total_cost() == thread.total_cost()
        assert process.total_records == thread.total_records
        assert process.algorithm_mix() == thread.algorithm_mix()
        assert [r.n for r in process.reports] == [r.n for r in thread.reports]
        assert process.executor == "process" and thread.executor == "thread"

    def test_reports_in_submission_order(self):
        jobs = [
            SortJob(data=random_permutation(100 + i, seed=i), params=SMALL)
            for i in range(10)
        ]
        with SortEngine(SMALL, executor="process", workers=3) as engine:
            report = engine.batch(jobs)
        assert [r.n for r in report.reports] == [100 + i for i in range(10)]

    def test_failures_captured_per_job(self):
        good = SortJob(data=random_permutation(100, seed=0), params=SMALL)
        bad = SortJob(data=[3, 1, 2], params=SMALL, algorithm="bogosort", label="bad")
        with SortEngine(SMALL, executor="process", workers=2) as engine:
            report = engine.batch([good, bad, good])
        assert report.jobs_completed == 2
        assert len(report.failures) == 1
        assert report.failures[0].index == 1
        assert report.failures[0].label == "bad"
        assert isinstance(report.failures[0].error, ValueError)

    def test_pinned_ram_oversized_is_a_captured_failure(self):
        # a job whose pinned "ram" algorithm exceeds M is recorded as a
        # JobFailure, not dropped — and the rest of the batch completes
        jobs = [
            SortJob(data=random_permutation(500, seed=0), params=SMALL,
                    algorithm="ram", label="too-big"),
            SortJob(data=random_permutation(50, seed=1), params=SMALL,
                    algorithm="ram", label="fits"),
        ]
        with SortEngine(SMALL, executor="process", workers=2) as engine:
            report = engine.batch(jobs)
        assert report.jobs_completed == 1
        assert [f.label for f in report.failures] == ["too-big"]
        assert isinstance(report.failures[0].error, ValueError)
        summary = report.summary()
        assert summary["jobs"] == 1 and summary["failed"] == 1

    def test_check_sorted_enforced_in_workers(self):
        jobs = [SortJob(data=random_permutation(300, seed=7), params=SMALL)]
        with SortEngine(SMALL, executor="process", workers=1) as engine:
            report = engine.batch(jobs, check_sorted=True)
        assert report.jobs_completed == 1 and not report.failures

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SortEngine(SMALL, executor="gpu")
        # engine.service() leaves the check to SortService
        with SortEngine(SMALL) as engine:
            with pytest.raises(ValueError, match="unknown executor"):
                engine.service("gpu")

    def test_nonpositive_workers_rejected_by_both_backends(self):
        for executor in ("thread", "process"):
            with pytest.raises(ValueError, match="workers"):
                SortEngine(SMALL, executor=executor, workers=0)
            with SortEngine(SMALL, executor=executor) as engine:
                with pytest.raises(ValueError, match="workers"):
                    engine.service(workers=0)

    def test_empty_batch(self):
        with SortEngine(SMALL, executor="process") as engine:
            report = engine.batch([])
        assert report.jobs_completed == 0 and report.executor == "process"

    def test_per_shard_plan_caches_report_hits(self):
        # 8 jobs of the same n over 2 shards: each shard plans once and hits
        # three times; merged stats show 2 misses + 6 hits
        jobs = [
            SortJob(data=random_permutation(400, seed=i), params=SMALL)
            for i in range(8)
        ]
        with SortEngine(SMALL, executor="process", workers=2) as engine:
            report = engine.batch(jobs)
        assert report.plan_misses == 2
        assert report.plan_hits == 6
        assert report.summary()["plan_hits"] == 6


class TestPerShardStats:
    def test_merged_report_carries_per_shard_hit_miss(self):
        jobs = [
            SortJob(data=random_permutation(400, seed=i), params=SMALL)
            for i in range(8)
        ]
        with SortEngine(SMALL, executor="process", workers=2) as engine:
            report = engine.batch(jobs)
        assert report.shard_plan_stats == [(3, 1), (3, 1)]
        assert report.summary()["plan_per_shard"] == "3/1,3/1"

    def test_thread_mode_reports_no_shard_breakdown(self):
        jobs = _mixed_jobs(4)
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs)
        assert report.shard_plan_stats == []
        assert report.summary()["plan_per_shard"] == "-"
