"""Tests for the SortEngine session façade and the streaming entry point."""

import pytest

from repro import (
    EXTERNAL_SORTS,
    MachineParams,
    PlanCache,
    SortEngine,
    SortJob,
    sort_ram,
)
from repro.models import AEMachine, MemoryGuard
from repro.planner.batch import execute_batch
from repro.planner.cost_model import predict_stream_io
from repro.workloads import random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)
TINY = MachineParams(M=16, B=4, omega=8)


class TestEngineConstruction:
    def test_defaults(self):
        engine = SortEngine(PARAMS)
        assert engine.params == PARAMS
        assert engine.constants is None
        assert isinstance(engine.cache, PlanCache)
        assert engine.executor == "thread"

    def test_rejects_bad_params(self):
        with pytest.raises(TypeError):
            SortEngine((64, 8, 8))

    def test_rejects_bad_executor(self):
        with pytest.raises(ValueError):
            SortEngine(PARAMS, executor="gpu")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            SortEngine(PARAMS, workers=0)


class TestEngineSort:
    @pytest.mark.parametrize("alg", ["mergesort", "samplesort", "heapsort", "selection"])
    def test_external_algorithms(self, alg):
        data = random_permutation(600, seed=1)
        rep = SortEngine(PARAMS).sort(data, algorithm=alg, k=2)
        assert rep.output == sorted(data)
        assert rep.family == alg

    def test_auto_attaches_plan(self):
        data = random_permutation(2000, seed=2)
        rep = SortEngine(PARAMS).sort(data)
        assert rep.output == sorted(data)
        assert "plan" in rep.extras
        assert rep.extras["plan"]["chosen"]["algorithm"] == rep.family

    def test_auto_uses_shared_cache(self):
        engine = SortEngine(PARAMS)
        engine.sort(random_permutation(500, seed=3))
        assert engine.cache.stats()["misses"] == 1
        engine.sort(random_permutation(500, seed=4))
        assert engine.cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_ram_pin_with_algorithm_choice(self):
        data = random_permutation(50, seed=5)
        rep = SortEngine(PARAMS).sort(data, algorithm="ram", ram_algorithm="quicksort")
        assert rep.algorithm == "ram-quicksort"
        assert rep.granularity == "block"
        assert rep.output == sorted(data)
        assert rep.reads == rep.writes == 7  # ceil(50/8) each way

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SortEngine(PARAMS).sort([1], algorithm="bogosort")

    def test_unknown_algorithm_lists_every_accepted_value(self):
        with pytest.raises(ValueError, match="unknown algorithm") as err:
            SortEngine(PARAMS).sort([1], algorithm="bogus")
        for name in ("auto", "ram", *EXTERNAL_SORTS):
            assert repr(name) in str(err.value)


class TestLegacyShimParity:
    """Pinned sorts return exactly what the raw algorithm modules return on
    a fresh machine."""

    def test_sort_external_matches_raw_machine_run(self):
        from repro.core.aem_mergesort import aem_mergesort

        data = random_permutation(700, seed=6)
        rep = SortEngine(PARAMS).sort(data, algorithm="mergesort", k=3)
        machine = AEMachine(PARAMS)
        guard = MemoryGuard()
        out = aem_mergesort(machine, machine.from_list(data, name="input"), 3, guard=guard)
        assert rep.output == out.peek_list()
        assert rep.reads == machine.counter.block_reads
        assert rep.writes == machine.counter.block_writes
        assert rep.memory_high_water == guard.high_water
        assert rep.algorithm == "aem-mergesort(k=3)"

    def test_sort_external_selection_matches_raw(self):
        from repro.core.selection_sort import selection_sort

        data = random_permutation(300, seed=7)
        rep = SortEngine(PARAMS).sort(data, algorithm="selection", k=9)
        machine = AEMachine(PARAMS)
        out = selection_sort(machine, machine.from_list(data, name="input"),
                             guard=MemoryGuard())
        assert rep.output == out.peek_list()
        assert rep.reads == machine.counter.block_reads
        assert rep.writes == machine.counter.block_writes
        assert rep.algorithm == "aem-selection"
        assert rep.extras == {}

    def test_sort_ram_matches_raw(self):
        from repro.core.ram_sort import RAM_SORTS

        data = random_permutation(200, seed=8)
        rep = sort_ram(data, algorithm="bst-rb")
        out, counter = RAM_SORTS["bst-rb"](data)
        assert rep.output == out
        assert rep.reads == counter.element_reads
        assert rep.writes == counter.element_writes
        assert rep.granularity == "element"


class TestUniformRegistry:
    def test_no_none_sentinels(self):
        assert all(spec.run is not None for spec in EXTERNAL_SORTS.values())

    def test_registry_covers_the_four_external_sorts(self):
        assert set(EXTERNAL_SORTS) == {"mergesort", "samplesort", "heapsort", "selection"}

    @pytest.mark.parametrize("name", sorted(EXTERNAL_SORTS))
    def test_uniform_dispatch_signature(self, name):
        # every entry — selection included — runs through one call shape
        spec = EXTERNAL_SORTS[name]
        data = random_permutation(100, seed=10)
        machine = AEMachine(PARAMS)
        out = spec.run(machine, machine.from_list(data, name="input"), 2, MemoryGuard())
        assert out.peek_list() == sorted(data)

    def test_selection_has_no_k(self):
        spec = EXTERNAL_SORTS["selection"]
        assert not spec.takes_k
        assert spec.label(5) == "aem-selection"
        assert spec.extras(5) == {}

    def test_k_annotated_labels(self):
        spec = EXTERNAL_SORTS["mergesort"]
        assert spec.label(4) == "aem-mergesort(k=4)"
        assert spec.extras(4) == {"k": 4}

    def test_old_sentinel_table_is_gone(self):
        import repro.api as api

        assert not hasattr(api, "_EXTERNAL_SORTS")


class TestRamAlgorithmThreading:
    """Satellite: ``algorithm=`` reaches the in-memory plan everywhere."""

    @pytest.mark.parametrize("alg", ["bst-rb", "quicksort", "heapsort"])
    def test_ram_report_on_machine_accepts_algorithm(self, alg):
        data = random_permutation(40, seed=11)
        rep = SortEngine(PARAMS).sort(data, algorithm="ram", ram_algorithm=alg)
        assert rep.algorithm == f"ram-{alg}"
        assert rep.granularity == "block"
        assert rep.output == sorted(data)
        # transfer cost is algorithm-independent: one scan in, one stream out
        assert rep.reads == rep.writes == 5

    def test_ram_report_rejects_oversized_input(self):
        with pytest.raises(ValueError, match="n <= M"):
            SortEngine(PARAMS).sort(list(range(PARAMS.M + 1)), algorithm="ram")

    def test_sort_auto_routes_ram_algorithm(self):
        data = random_permutation(30, seed=12)
        rep = SortEngine(PARAMS).sort(data, ram_algorithm="quicksort")
        assert rep.algorithm == "ram-quicksort"
        assert rep.extras["plan"]["chosen"]["algorithm"] == "ram"


class TestEngineBatch:
    def test_bare_sequences_become_adaptive_jobs(self):
        engine = SortEngine(PARAMS)
        batch = engine.batch([random_permutation(300, seed=i) for i in range(4)])
        assert batch.jobs_completed == 4
        assert all(r.is_sorted() for r in batch.reports)

    def test_jobs_without_params_inherit_the_engine_machine(self):
        engine = SortEngine(PARAMS)
        batch = engine.batch([SortJob(random_permutation(200, seed=13))])
        assert batch.reports[0].params == PARAMS

    def test_batch_shares_the_engine_plan_cache(self):
        engine = SortEngine(PARAMS)
        engine.sort(random_permutation(500, seed=14))  # warms n=500
        batch = engine.batch([SortJob(random_permutation(500, seed=i)) for i in range(3)])
        assert batch.plan_hits == 3  # every batch job hit the one-shot's plan
        assert batch.plan_misses == 0

    def test_process_executor_matches_thread_aggregates(self):
        jobs = [SortJob(random_permutation(400, seed=i), PARAMS) for i in range(6)]
        with SortEngine(PARAMS) as engine:
            thread = engine.batch(jobs)
        with SortEngine(PARAMS, executor="process", workers=2) as engine:
            process = engine.batch(jobs)
        assert thread.total_reads == process.total_reads
        assert thread.total_writes == process.total_writes
        assert thread.algorithm_mix() == process.algorithm_mix()

    def test_sequential_batch_requires_job_params(self):
        # no engine fills in a machine here: the job fails, named, and the
        # batch goes on
        report = execute_batch([SortJob(data=[3, 1, 2])])
        assert report.jobs_completed == 0
        assert [type(f.error) for f in report.failures] == [ValueError]
        assert "machine params" in str(report.failures[0].error)


class TestEngineCalibrate:
    def test_calibrate_adopts_constants(self):
        engine = SortEngine(TINY)
        constants = engine.calibrate(sizes=(128, 512))
        assert engine.constants is constants
        assert set(constants.families()) <= {
            "selection", "samplesort", "mergesort", "heapsort"
        }
        # subsequent plans rank under the fitted constants (fresh cache keys)
        plan = engine.plan(1000)
        assert plan.chosen.predicted_cost > 0

    def test_calibrate_without_adoption(self):
        engine = SortEngine(TINY)
        constants = engine.calibrate(sizes=(128,), adopt=False)
        assert engine.constants is None
        assert constants.families()


class TestStreamSession:
    def test_empty_session(self):
        with SortEngine(PARAMS).stream() as s:
            pass
        rep = s.report
        assert rep.n == 0
        assert rep.output == []
        assert rep.reads == 0 and rep.writes == 0 and rep.cost() == 0
        assert s.closed

    def test_single_flush_small_n(self):
        # n <= B: everything resolves in one root-leaf flush
        data = [5, 3, 7, 1]
        with SortEngine(PARAMS).stream() as s:
            s.push_many(data)
        assert s.report.output == sorted(data)
        assert s.report.n == 4
        assert s.report.reads >= 1 and s.report.writes >= 1

    @pytest.mark.parametrize("n", [1, 8, 9, 500, 3000])
    def test_output_identical_to_sorted(self, n):
        data = random_permutation(n, seed=n)
        with SortEngine(PARAMS).stream() as s:
            s.push_many(data)
        assert s.report.output == sorted(data)

    def test_interleaved_inserts_and_deletes(self):
        engine = SortEngine(TINY)
        with engine.stream() as s:
            live = set()
            for i in range(1200):
                s.push(i)
                live.add(i)
                if i % 3 == 2:
                    s.delete(i - 1)
                    live.discard(i - 1)
        assert s.report.output == sorted(live)
        assert s.deleted == 400

    def test_duplicate_keys_coexist_and_delete_one_instance(self):
        with SortEngine(PARAMS).stream() as s:
            s.push_many([7, 7, 3, 7, 3])
            s.delete(7)  # removes one live instance
        assert s.report.output == [3, 3, 7, 7]

    def test_many_duplicates_drain_in_order(self):
        data = [i % 5 for i in range(800)]
        with SortEngine(TINY).stream() as s:
            s.push_many(data)
        assert s.report.output == sorted(data)

    def test_delete_absent_key_raises_fast(self):
        s = SortEngine(PARAMS).stream()
        s.push(1)
        with pytest.raises(KeyError, match="absent"):
            s.delete(2)
        s.close()

    def test_delete_exhausted_duplicates_raises(self):
        s = SortEngine(PARAMS).stream()
        s.push(4)
        s.delete(4)
        with pytest.raises(KeyError):
            s.delete(4)
        s.close()

    def test_closed_session_rejects_operations(self):
        s = SortEngine(PARAMS).stream()
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.push(1)
        with pytest.raises(RuntimeError, match="closed"):
            s.flush()
        assert s.close() is s.report  # idempotent

    def test_multiple_flushes_bill_deltas(self):
        engine = SortEngine(PARAMS)
        s = engine.stream()
        s.push_many(random_permutation(300, seed=15))
        first = s.flush()
        assert first.n == 300 and first.is_sorted()
        s.push_many([2, 1])
        second = s.flush()
        assert second.n == 2 and second.output == [1, 2]
        # the second flush bills only its own delta, not the first 300
        assert second.reads < first.reads
        final = s.close()
        assert final.n == 0
        assert s.reports == [first, second, final]

    def test_exception_inside_context_is_not_masked(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SortEngine(PARAMS).stream() as s:
                s.push(1)
                raise RuntimeError("boom")
        assert s.closed
        assert s.report is None  # no drain happened


class TestStreamCostBounds:
    """Acceptance: per-record amortized block I/O matches the §4.3 bound."""

    @pytest.mark.parametrize("params,n", [(TINY, 2000), (PARAMS, 5000)])
    def test_amortized_io_within_buffer_tree_bound(self, params, n):
        engine = SortEngine(params)
        data = random_permutation(n, seed=16)
        with engine.stream() as s:
            s.push_many(data)
        rep = s.report
        pred_reads, pred_writes = predict_stream_io(n, params, s.k)
        # totals (hence per-record amortized I/O) within a 2x constant of the
        # Theorem 4.10 unit-constant closed form — measured ratios sit at
        # 0.3-0.9 (reads) and 0.6-1.3 (writes) across the machine grid
        assert rep.reads <= 2 * pred_reads
        assert rep.writes <= 2 * pred_writes
        assert rep.extras["predicted_reads"] == pred_reads
        assert rep.extras["predicted_writes"] == pred_writes

    def test_prediction_covers_deletes_too(self):
        # a delete is a buffer-tree op: the billed prediction must cover it
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            for i in range(1000):
                s.push(i)
            for i in range(0, 1000, 2):
                s.delete(i)
        rep = s.report
        assert (rep.extras["predicted_reads"], rep.extras["predicted_writes"]) == (
            predict_stream_io(1500, PARAMS, s.k)
        )
        assert rep.reads <= 2 * rep.extras["predicted_reads"]
        assert rep.writes <= 2 * rep.extras["predicted_writes"]

    def test_parity_with_sort_auto_on_same_records(self):
        data = random_permutation(4000, seed=17)
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(data)
        auto = engine.sort(data)
        assert s.report.output == auto.output == sorted(data)
        assert s.report.granularity == auto.granularity == "block"
        # streaming pays the online overhead but stays within a small
        # constant of the planned one-shot cost on the same machine
        assert s.report.cost() <= 6 * auto.cost()

    def test_per_record_amortization_improves_with_k(self):
        n = 4000
        data = random_permutation(n, seed=18)
        costs = {}
        for k in (1, 4):
            with SortEngine(PARAMS).stream(k=k) as s:
                s.push_many(data)
            costs[k] = s.report.writes
        # larger fanout -> fewer emptying levels -> fewer block writes
        assert costs[4] < costs[1]


class TestStreamPopMin:
    """Windowed/partial drains: top-m extraction without a full flush."""

    def test_pop_min_returns_the_m_smallest_in_order(self):
        engine = SortEngine(PARAMS)
        data = random_permutation(500, seed=21)
        with engine.stream() as s:
            s.push_many(data)
            top = s.pop_min(10)
            assert top.output == list(range(10))
            assert top.n == 10 and top.family == "stream"
            assert top.algorithm.startswith("stream-pop-min")

    def test_successive_pops_continue_the_order(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(random_permutation(400, seed=22))
            assert s.pop_min(7).output == list(range(7))
            assert s.pop_min(5).output == list(range(7, 12))
            rest = s.flush()
            assert rest.output == list(range(12, 400))

    def test_pop_then_push_then_flush_composes(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(random_permutation(300, seed=23))
            s.pop_min(50)
            # pushing keys below the popped window is legal — they simply
            # belong to the next drain
            s.push(-1)
            rest = s.flush()
            assert rest.output == [-1] + list(range(50, 300))

    def test_surplus_reinsertion_is_billed_and_reported(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(random_permutation(600, seed=24))
            top = s.pop_min(3)  # leaf holds far more than 3: surplus goes back
            assert top.extras["reinserted"] > 0
            assert top.reads > 0  # leaf pops + re-inserts billed here
            # delta billing: the next report starts from a clean mark
            mid = s.pop_min(3)
            assert mid.reads < top.reads
            rest = s.close()
            assert rest.n == 594
        # every record drained exactly once across the three reports
        assert top.n + mid.n + rest.n == 600

    def test_pop_more_than_held_returns_what_exists(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many([5, 3, 9])
            rep = s.pop_min(10)
            assert rep.output == [3, 5, 9]
            assert len(s) == 0
            assert s.pop_min(1).output == []

    def test_pop_min_respects_deletes_and_duplicates(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many([4, 1, 4, 2])
            s.delete(4)  # most recent instance of 4
            rep = s.pop_min(3)
            assert rep.output == [1, 2, 4]

    def test_deleting_a_popped_key_fails_fast(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many([1, 2, 3])
            s.pop_min(1)  # 1 left the session
            with pytest.raises(KeyError):
                s.delete(1)
            s.delete(2)  # still held: fine

    def test_prediction_covers_reinserts(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(random_permutation(500, seed=25))
            top = s.pop_min(5)
            reinserted = top.extras["reinserted"]
            assert reinserted > 0
            pred = predict_stream_io(500 + reinserted, PARAMS, s.k)
            assert (top.extras["predicted_reads"], top.extras["predicted_writes"]) == pred

    def test_invalid_m_rejected(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push(1)
            with pytest.raises(ValueError, match="m >= 1"):
                s.pop_min(0)

    def test_closed_session_rejects_pop_min(self):
        engine = SortEngine(PARAMS)
        s = engine.stream()
        s.close()
        with pytest.raises(RuntimeError, match="closed"):
            s.pop_min(1)

    def test_pop_min_reports_recorded_like_flushes(self):
        engine = SortEngine(PARAMS)
        with engine.stream() as s:
            s.push_many(random_permutation(100, seed=26))
            a = s.pop_min(10)
            b = s.flush()
        final = s.report
        assert s.reports[:2] == [a, b]
        assert final is s.reports[-1]
