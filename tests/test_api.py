"""Tests for the sort reports of pinned external sorts and the §3 RAM sort."""

import pytest

from repro import CostCounter, MachineParams, SortEngine, SortReport, sort_ram
from repro.workloads import random_permutation

PARAMS = MachineParams(M=64, B=8, omega=8)
#: pinned external sorts never consult the plan cache, so one engine serves all
ENGINE = SortEngine(PARAMS)


class TestSortExternal:
    @pytest.mark.parametrize("alg", ["mergesort", "samplesort", "heapsort", "selection"])
    def test_algorithms(self, alg):
        data = random_permutation(800, seed=1)
        rep = ENGINE.sort(data, algorithm=alg, k=2)
        assert rep.is_sorted()
        assert rep.output == sorted(data)
        assert rep.n == 800
        assert rep.reads > 0 and rep.writes > 0

    def test_default_k_from_ktuning(self):
        rep = ENGINE.sort(random_permutation(500, seed=2), algorithm="mergesort")
        assert rep.extras["k"] >= 1
        assert f"k={rep.extras['k']}" in rep.algorithm

    def test_default_k_uses_n(self):
        # regression: choose_k must receive n = len(data) so the Appendix-A
        # level-budget recipe (not the 0.3*omega fallback) picks k on the
        # default path.  Pinned against choose_k's own n-aware answers.
        from repro.analysis.ktuning import choose_k

        for n in (500, 20_000):
            rep = ENGINE.sort(random_permutation(n, seed=2), algorithm="mergesort")
            assert rep.extras["k"] == choose_k(PARAMS, n=n)
        # concrete values so a silent fallback to choose_k(params) regresses
        # loudly: the n-blind rule of thumb says 2 for omega=8, but the
        # level-budget recipe picks 1 at n=500 and 7 at n=20000
        for n, k in ((500, 1), (20_000, 7)):
            rep = ENGINE.sort(random_permutation(n, seed=2), algorithm="mergesort")
            assert rep.extras["k"] == k

    def test_selection_label_has_no_k(self):
        # regression: selection (Lemma 4.2) has no branching factor — the
        # label and extras must not carry one (k fragments batch aggregation)
        rep = ENGINE.sort(random_permutation(300, seed=8), algorithm="selection", k=5)
        assert rep.algorithm == "aem-selection"
        assert rep.extras == {}
        assert rep.family == "selection"
        assert rep.is_sorted()

    def test_family_is_canonical(self):
        rep = ENGINE.sort(random_permutation(200, seed=6), algorithm="mergesort", k=3)
        assert rep.family == "mergesort"
        assert rep.algorithm == "aem-mergesort(k=3)"

    def test_cost_uses_machine_omega(self):
        rep = ENGINE.sort(random_permutation(300, seed=3), algorithm="mergesort", k=1)
        assert rep.cost() == rep.reads + 8 * rep.writes
        assert rep.cost(omega=2) == rep.reads + 2 * rep.writes

    def test_memory_high_water_reported(self):
        rep = ENGINE.sort(random_permutation(1000, seed=4), algorithm="mergesort", k=2)
        assert 0 < rep.memory_high_water <= PARAMS.M + 2 * PARAMS.B

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ENGINE.sort([1], algorithm="bogosort")

    @pytest.mark.parametrize("alg", ["mergesort", "samplesort", "heapsort", "selection"])
    @pytest.mark.parametrize("n", [0, 1, 8, 9])  # 0, 1, B, B+1
    def test_edge_sizes(self, alg, n):
        data = list(range(n - 1, -1, -1))
        rep = ENGINE.sort(data, algorithm=alg, k=2)
        assert rep.output == sorted(data)
        assert rep.n == n
        if n == 0:
            assert rep.reads == 0 and rep.writes == 0 and rep.cost() == 0
        else:
            assert rep.reads >= 1 and rep.writes >= 1


class TestSortReportAccounting:
    """Regression: granularity is decided by the model, never by falsy-or."""

    def test_zero_block_transfers_not_masked_by_element_counts(self):
        # an external sort that legitimately performed zero block reads must
        # report 0, even if element-granularity tallies are non-zero
        counter = CostCounter(element_reads=5, element_writes=7)
        rep = SortReport(
            algorithm="aem-x", n=0, params=PARAMS, output=[], counter=counter
        )
        assert rep.granularity == "block"
        assert rep.reads == 0 and rep.writes == 0
        assert rep.cost() == 0

    def test_element_report_ignores_block_counts(self):
        counter = CostCounter(element_reads=10, element_writes=3, block_reads=99)
        rep = SortReport(
            algorithm="ram-x",
            n=5,
            params=None,
            output=[],
            counter=counter,
            granularity="element",
        )
        assert rep.reads == 10 and rep.writes == 3
        assert rep.cost(omega=2) == 10 + 2 * 3

    def test_empty_external_sort_reports_zero(self):
        rep = ENGINE.sort([], algorithm="mergesort", k=1)
        assert rep.reads == 0 and rep.writes == 0 and rep.cost() == 0

    def test_cost_consistent_with_reads_writes(self):
        rep = ENGINE.sort(random_permutation(100, seed=9), algorithm="mergesort", k=2)
        assert rep.cost() == rep.reads + PARAMS.omega * rep.writes
        assert rep.reads == rep.counter.block_reads
        assert rep.writes == rep.counter.block_writes


class TestSortRam:
    @pytest.mark.parametrize(
        "alg", ["bst-rb", "bst-treap", "bst-avl", "bst-avl-naive", "quicksort", "mergesort", "heapsort"]
    )
    def test_algorithms(self, alg):
        data = random_permutation(400, seed=5)
        rep = sort_ram(data, algorithm=alg)
        assert rep.output == sorted(data)
        assert rep.reads > 0

    def test_family_is_ram(self):
        rep = sort_ram(random_permutation(50, seed=7), algorithm="quicksort")
        assert rep.family == "ram"
        assert rep.algorithm == "ram-quicksort"

    def test_cost_requires_omega_without_params(self):
        rep = sort_ram([2, 1])
        with pytest.raises(ValueError):
            rep.cost()
        assert rep.cost(omega=4) > 0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            sort_ram([1], algorithm="sleepsort")
