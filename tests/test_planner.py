"""Tests for the adaptive sort planner and the batch execution layer."""

import pytest

from repro import MachineParams, PlanCache, SortEngine, SortJob, plan_sort, rank_plans
from repro.planner.cost_model import PLANNABLE_ALGORITHMS, predict_candidate
from repro.workloads import SCENARIOS, make_scenario, random_permutation

SMALL = MachineParams(M=64, B=8, omega=8)


class TestCostModel:
    def test_rank_is_sorted_by_predicted_cost(self):
        ranked = rank_plans(20_000, SMALL)
        costs = [c.predicted_cost for c in ranked]
        assert costs == sorted(costs)

    def test_ram_candidate_only_when_fits(self):
        assert any(c.algorithm == "ram" for c in rank_plans(64, SMALL))
        assert not any(c.algorithm == "ram" for c in rank_plans(65, SMALL))

    def test_ram_candidate_rejects_oversized_explicit(self):
        with pytest.raises(ValueError, match="n <= M"):
            predict_candidate("ram", 1000, SMALL)

    def test_explicitly_requested_ram_oversized_raises(self):
        # regression: an explicit algorithms=("ram", ...) request must not be
        # silently dropped when n > M — only the algorithms=None auto-field
        # skips the infeasible in-memory plan
        with pytest.raises(ValueError, match="n <= M"):
            rank_plans(1000, SMALL, algorithms=("ram",))
        with pytest.raises(ValueError, match="n <= M"):
            rank_plans(1000, SMALL, algorithms=("mergesort", "ram"))
        # the default field still auto-skips
        assert not any(c.algorithm == "ram" for c in rank_plans(1000, SMALL))

    def test_explicitly_requested_infeasible_recursive_sort_raises(self):
        # same contract for the k-parameterised sorts: on an M = B machine
        # the merge fanout is degenerate — the auto field drops them quietly,
        # an explicit request must raise
        degenerate = MachineParams(M=8, B=8, omega=8)
        with pytest.raises(ValueError, match="infeasible"):
            rank_plans(100, degenerate, algorithms=("mergesort", "selection"))
        assert [c.algorithm for c in rank_plans(100, degenerate)] == ["selection"]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            predict_candidate("bogosort", 100, SMALL)

    def test_candidate_k_is_feasible(self):
        from repro.analysis.ktuning import k_improves

        for n in (1_000, 50_000):
            for omega in (2, 8, 32):
                p = MachineParams(M=64, B=8, omega=omega)
                for c in rank_plans(n, p):
                    if c.k is not None and c.k > 1:
                        assert k_improves(c.k, p), (n, omega, c)

    def test_scan_floor_applied(self):
        # Theorem 4.10's amortized form dips below one block transfer for
        # tiny n; the planner floors at ceil(n/B) reads and writes.
        c = predict_candidate("heapsort", 1, SMALL)
        assert c.predicted_reads >= 1 and c.predicted_writes >= 1

    def test_degenerate_fanout_machine_falls_back_to_selection(self):
        # M = B passes MachineParams validation but gives merge fanout
        # kM/B = k, and Corollary 4.4 admits only k = 1 there (fanout 1:
        # the recursion never shrinks) — the recursive sorts must drop out
        # of the ranking instead of dividing by log(1)
        p = MachineParams(M=8, B=8, omega=8)
        ranked = rank_plans(100, p)
        assert [c.algorithm for c in ranked] == ["selection"]
        rep = SortEngine(p).sort(random_permutation(100, seed=6))
        assert rep.algorithm.startswith("aem-selection")
        assert rep.is_sorted()
        # and ram joins when the input fits
        assert [c.algorithm for c in rank_plans(8, p)] == ["ram", "selection"]

    def test_plan_dict_roundtrip(self):
        plan = plan_sort(5_000, SMALL)
        d = plan.as_dict()
        assert d["chosen"]["algorithm"] == plan.chosen.algorithm
        assert len(d["ranked"]) == len(plan.ranked)


class TestTieBreaking:
    def test_tie_prefers_fewer_writes_then_preference_order(self):
        # n <= M: ram, selection (single phase) and samplesort (one level)
        # all predict ceil(n/B) reads + omega * ceil(n/B) writes — an exact
        # three-way tie resolved by the documented preference order.
        ranked = rank_plans(40, SMALL)
        tied = [c for c in ranked if c.predicted_cost == ranked[0].predicted_cost]
        assert len(tied) >= 2, "expected a predicted-cost tie at n <= M"
        assert ranked[0].algorithm == "ram"

    def test_tie_order_is_deterministic(self):
        first = [c.algorithm for c in rank_plans(40, SMALL)]
        for _ in range(5):
            assert [c.algorithm for c in rank_plans(40, SMALL)] == first

    def test_selection_beats_samplesort_on_equal_cost(self):
        # just above M: selection's ceil(n/M)=2 phases tie samplesort's
        # k=2 single level; equal writes -> earlier preference entry wins
        ranked = rank_plans(128, SMALL)
        names = [c.algorithm for c in ranked]
        assert names.index("selection") < names.index("samplesort")


class TestSortAuto:
    """``engine.sort`` (``algorithm="auto"``) must execute the
    argmin-predicted-cost algorithm.

    The three regimes pin three *different* winners, so the routing logic
    (not a constant choice) is what passes this test.
    """

    REGIMES = [
        # (n, params, expected executed-algorithm prefix)
        (48, MachineParams(M=64, B=8, omega=8), "ram-"),            # fits in memory
        (150, MachineParams(M=64, B=8, omega=8), "aem-selection"),  # few phases win
        (20_000, MachineParams(M=64, B=8, omega=8), "aem-samplesort"),  # deep recursion
        (20_000, MachineParams(M=64, B=8, omega=32), "aem-samplesort"),  # high omega
    ]

    @pytest.mark.parametrize("n,params,prefix", REGIMES)
    def test_selects_min_predicted_cost(self, n, params, prefix):
        plan = plan_sort(n, params)
        best = min(plan.ranked, key=lambda c: c.predicted_cost)
        assert plan.chosen.predicted_cost == best.predicted_cost
        rep = SortEngine(params).sort(random_permutation(n, seed=7))
        assert rep.algorithm.startswith(prefix)
        assert rep.is_sorted()
        assert rep.n == n

    def test_chosen_k_executed(self):
        params = MachineParams(M=64, B=8, omega=32)
        plan = plan_sort(20_000, params)
        rep = SortEngine(params).sort(random_permutation(20_000, seed=3))
        assert f"k={plan.chosen.k}" in rep.algorithm

    def test_report_carries_plan(self):
        rep = SortEngine(SMALL).sort(random_permutation(300, seed=1))
        plan = rep.extras["plan"]
        assert plan["chosen"]["algorithm"] == plan["ranked"][0]["algorithm"]
        assert len(plan["ranked"]) >= 3

    def test_ram_path_attaches_params(self):
        rep = SortEngine(SMALL).sort(random_permutation(32, seed=2))
        assert rep.algorithm.startswith("ram-")
        assert rep.params == SMALL
        assert rep.cost() == rep.reads + SMALL.omega * rep.writes

    def test_ram_path_reports_block_granularity(self):
        # the ram route reports the AEM transfer cost of the in-memory plan
        # (one scan in, one stream out), so its cost is commensurable with
        # external reports and with extras["plan"]'s prediction
        rep = SortEngine(SMALL).sort(random_permutation(32, seed=2))
        assert rep.granularity == "block"
        assert rep.reads == 4 and rep.writes == 4  # ceil(32/8) each way
        assert rep.cost() == rep.extras["plan"]["chosen"]["predicted_cost"]
        # in-memory element work remains visible on the raw counter
        assert rep.counter.element_reads > 0

    def test_restricted_field(self):
        rep = SortEngine(SMALL).sort(
            random_permutation(300, seed=4), algorithms=("mergesort",)
        )
        assert rep.algorithm.startswith("aem-mergesort")


class TestBatchExecutor:
    def test_empty_batch(self):
        with SortEngine(SMALL) as engine:
            rep = engine.batch([])
        assert rep.jobs_completed == 0 and rep.failures == []

    def test_fifty_job_mixed_workload(self):
        # the acceptance-criterion run: 50 jobs across the four headline
        # scenarios, adaptively planned, aggregated into one report
        mix = ["uniform", "presorted", "reversed", "duplicates"]
        jobs = [
            SortJob(
                data=make_scenario(mix[i % 4], 200 + 37 * i, seed=i),
                params=SMALL,
                label=f"job{i}",
            )
            for i in range(50)
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs, check_sorted=True)
        assert report.jobs_completed == 50
        assert not report.failures
        assert report.total_records == sum(200 + 37 * i for i in range(50))
        assert report.total_reads > 0 and report.total_writes > 0
        assert report.total_cost() == pytest.approx(
            sum(r.cost() for r in report.reports)
        )
        assert report.wall_seconds > 0
        assert report.jobs_per_second > 0
        assert report.records_per_second > 0
        summary = report.summary()
        assert summary["jobs"] == 50 and summary["failed"] == 0
        # every executed algorithm appears in the mix breakdown
        mix_rows = report.mix_rows()
        assert sum(r["jobs"] for r in mix_rows) == 50

    def test_reports_in_submission_order(self):
        jobs = [
            SortJob(data=random_permutation(100 + i, seed=i), params=SMALL)
            for i in range(10)
        ]
        with SortEngine(SMALL, workers=4) as engine:
            report = engine.batch(jobs)
        assert [r.n for r in report.reports] == [100 + i for i in range(10)]

    def test_pinned_algorithm(self):
        jobs = [
            SortJob(
                data=random_permutation(300, seed=i),
                params=SMALL,
                algorithm="mergesort",
                k=2,
            )
            for i in range(3)
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs)
        assert all(r.algorithm == "aem-mergesort(k=2)" for r in report.reports)

    def test_failure_captured_not_fatal(self):
        good = SortJob(data=random_permutation(100, seed=0), params=SMALL)
        bad = SortJob(data=[1, 2, 3], params=SMALL, algorithm="bogosort", label="bad")
        with SortEngine(SMALL) as engine:
            report = engine.batch([good, bad, good])
        assert report.jobs_completed == 2
        assert len(report.failures) == 1
        assert report.failures[0].label == "bad"
        assert isinstance(report.failures[0].error, ValueError)

    def test_scenarios_registry_covers_cli_mix(self):
        for name in ("uniform", "presorted", "reversed", "duplicates"):
            assert name in SCENARIOS
            data = make_scenario(name, 50, seed=1)
            assert len(data) == 50

    def test_make_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("chaos", 10)

    def test_pinned_ram_report_costs_with_job_params(self):
        # regression: a pinned ram job must carry the job's machine params so
        # the aggregated cost/summary doesn't raise "omega required"
        jobs = [
            SortJob(data=random_permutation(50, seed=i), params=SMALL, algorithm="ram")
            for i in range(3)
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs, check_sorted=True)
        assert report.jobs_completed == 3 and not report.failures
        assert report.total_cost() > 0
        assert report.summary()["jobs"] == 3

    def test_pinned_ram_oversized_is_a_captured_failure(self):
        # n > M cannot be sorted "in memory": the forced ram plan fails the
        # job (same precondition the planner enforces) without killing the batch
        jobs = [
            SortJob(data=random_permutation(500, seed=0), params=SMALL,
                    algorithm="ram", label="too-big"),
            SortJob(data=random_permutation(50, seed=1), params=SMALL,
                    algorithm="ram"),
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs)
        assert report.jobs_completed == 1
        assert len(report.failures) == 1
        assert report.failures[0].label == "too-big"
        assert isinstance(report.failures[0].error, ValueError)

    def test_plannable_algorithms_executable(self):
        # every plannable algorithm can be pinned and completes
        with SortEngine(SMALL) as engine:
            for alg in PLANNABLE_ALGORITHMS:
                job = SortJob(
                    data=random_permutation(60, seed=5), params=SMALL, algorithm=alg, k=1
                )
                report = engine.batch([job], check_sorted=True)
                assert report.jobs_completed == 1, (alg, report.failures)

    def test_summary_surfaces_plan_cache_stats(self):
        # adaptive jobs with a repeated (n, machine) shape hit the memoised
        # plan; pinned jobs never consult the cache
        jobs = [
            SortJob(data=random_permutation(400, seed=i), params=SMALL)
            for i in range(6)
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs)
        assert report.plan_misses == 1 and report.plan_hits == 5
        summary = report.summary()
        assert summary["plan_hits"] == 5 and summary["plan_misses"] == 1
        assert summary["executor"] == "thread"
        pinned = [
            SortJob(data=random_permutation(80, seed=i), params=SMALL,
                    algorithm="mergesort", k=2)
            for i in range(3)
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(pinned)
        assert report.plan_hits == 0 and report.plan_misses == 0

    def test_caller_supplied_cache_reused_across_batches(self):
        # two engines over one caller-supplied cache
        cache = PlanCache()
        jobs = [
            SortJob(data=random_permutation(500, seed=i), params=SMALL)
            for i in range(4)
        ]
        with SortEngine(SMALL, cache=cache) as engine:
            first = engine.batch(jobs)
        assert first.plan_misses == 1 and first.plan_hits == 3
        with SortEngine(SMALL, cache=cache) as engine:
            second = engine.batch(jobs)
        # warm cache: every plan is a hit, and per-batch stats are deltas
        assert second.plan_misses == 0 and second.plan_hits == 4

    def test_mix_keyed_on_family_not_k(self):
        # two different pinned k values land in one "mergesort" bucket, and
        # selection (no branching factor) is one bucket too
        jobs = [
            SortJob(data=random_permutation(300, seed=0), params=SMALL,
                    algorithm="mergesort", k=2),
            SortJob(data=random_permutation(300, seed=1), params=SMALL,
                    algorithm="mergesort", k=3),
            SortJob(data=random_permutation(300, seed=2), params=SMALL,
                    algorithm="selection"),
        ]
        with SortEngine(SMALL) as engine:
            report = engine.batch(jobs)
        assert report.algorithm_mix() == {"mergesort": 2, "selection": 1}
        rows = {row["family"]: row["jobs"] for row in report.mix_rows()}
        assert rows == {"mergesort": 2, "selection": 1}
