"""Tests for the closed-form bounds, k-tuning, and table rendering."""

import math

import pytest

from repro.analysis import formulas as F
from repro.analysis.ktuning import choose_k, feasible_k_region, k_improves, sweep_k
from repro.analysis.tables import format_cell, format_table
from repro.models import MachineParams


class TestFormulas:
    def test_pram_bounds_monotone(self):
        assert F.pram_sort_reads(2000) > F.pram_sort_reads(1000)
        assert F.pram_sort_writes(2000) == 2000
        assert F.pram_sort_depth(1000, 16) == 2 * F.pram_sort_depth(1000, 8)

    def test_em_sort_transfers_reference_point(self):
        # n/B = 1000, M/B = 8 -> log_8(1000) = 3.32
        v = F.em_sort_transfers(8000, 64, 8)
        assert abs(v - 1000 * math.log(1000) / math.log(8)) < 1e-9

    def test_mergesort_bounds_vs_k(self):
        n, M, B = 20000, 64, 8
        # larger k: fewer levels -> fewer writes, reads grow with k
        assert F.mergesort_writes(n, M, B, 8) <= F.mergesort_writes(n, M, B, 1)
        assert F.mergesort_reads(n, M, B, 8) > F.mergesort_reads(n, M, B, 1) / 3

    def test_mergesort_io_cost_formula(self):
        n, M, B, k, w = 20000, 64, 8, 4, 8
        levels = F.mergesort_levels(n, M, B, k)
        assert F.mergesort_io_cost(n, M, B, k, w) == (w + k + 1) * math.ceil(n / B) * levels

    def test_levels_tiny_input(self):
        assert F.mergesort_levels(4, 64, 8, 1) == 1

    def test_pq_amortized_decreasing_in_B(self):
        assert F.pq_amortized_reads(10000, 64, 8, 2) > F.pq_amortized_reads(
            10000, 64, 16, 2
        )

    def test_co_sort_write_read_ratio_is_omega(self):
        n, M, B = 100000, 256, 16
        for omega in (2, 8, 32):
            r = F.co_sort_reads(n, M, B, omega)
            w = F.co_sort_writes(n, M, B, omega)
            assert abs(r / w - omega) < 1e-9

    def test_matmul_co_omega_advantage(self):
        n, M, B = 512, 256, 16
        classic = F.matmul_co_classic_transfers(n, M, B)
        for omega in (4, 16):
            assert F.matmul_co_writes(n, M, B, omega) < classic

    def test_lru_bound_requires_bigger_cache(self):
        with pytest.raises(ValueError):
            F.lru_competitive_bound(100, 64, 64, 8, 8)

    def test_lru_bound_value(self):
        # M_L = 2 M_I: factor 2 plus the additive term
        b = F.lru_competitive_bound(100, 128, 64, 8, 7)
        assert b == 2 * 100 + 8 * 64 / 8

    def test_work_stealing_extra_misses(self):
        assert F.work_stealing_extra_misses(4, 100, 64, 8) == 4 * 100 * 8


class TestKTuning:
    PARAMS = MachineParams(M=64, B=8, omega=8)

    def test_k1_always_feasible(self):
        assert k_improves(1, self.PARAMS)

    def test_feasibility_threshold(self):
        # Corollary 4.4: k/log k < omega/log(M/B).  omega=8, M/B=8 gives
        # threshold 8/3 = 2.667 -> k=6: 6/2.585 = 2.32 ok;
        # k=8: 8/3 = 2.667 sits exactly on the (strict) boundary -> no;
        # k=12: 12/3.58 = 3.35 -> no
        assert k_improves(6, self.PARAMS)
        assert not k_improves(8, self.PARAMS)
        assert not k_improves(12, self.PARAMS)

    def test_choose_k_candidates_feasible(self):
        # every k choose_k can return passes the Corollary 4.4 test
        for omega in (2, 4, 8, 16, 32):
            p = MachineParams(M=64, B=8, omega=omega)
            for n in (500, 5_000, 50_000, 500_000):
                k = choose_k(p, n)
                assert k == 1 or k_improves(k, p), (omega, n, k)

    def test_feasible_region_contiguous_prefix(self):
        region = feasible_k_region(self.PARAMS)
        assert region[0] == 1
        assert region == sorted(region)

    def test_memoized_region_matches_the_comprehension(self):
        for M, B in ((16, 4), (64, 8), (2048, 32), (256, 256)):
            for omega in (1, 2, 8, 16, 64):
                p = MachineParams(M=M, B=B, omega=omega)
                for k_max in (None, 1, 3, 2 * omega, 100):
                    top = 4 * omega if k_max is None else k_max
                    plain = [k for k in range(1, top + 1) if k_improves(k, p)]
                    assert feasible_k_region(p, k_max) == plain, (p, k_max)
                    assert feasible_k_region(p, k_max) == plain  # a hit

    def test_memoized_region_is_a_fresh_list(self):
        p = MachineParams(M=64, B=8, omega=16)
        first = feasible_k_region(p)
        expected = list(first)
        first.clear()
        second = feasible_k_region(p)
        assert second == expected and second is not first
        second.append(10_000)
        assert feasible_k_region(p) == expected

    def test_region_grows_with_omega(self):
        small = feasible_k_region(MachineParams(M=64, B=8, omega=4))
        big = feasible_k_region(MachineParams(M=64, B=8, omega=32))
        assert set(small) <= set(big)

    def test_k_improves_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_improves(0, self.PARAMS)

    def test_sweep_rows(self):
        rows = sweep_k(20000, self.PARAMS, k_max=8)
        assert [r["k"] for r in rows] == list(range(1, 9))
        assert all(r["predicted_cost"] > 0 for r in rows)

    def test_choose_k_without_n_rule_of_thumb(self):
        assert choose_k(MachineParams(M=64, B=8, omega=32)) == 9
        assert choose_k(MachineParams(M=64, B=8, omega=2)) == 1

    def test_choose_k_with_n_minimises_cost(self):
        from repro.analysis.formulas import mergesort_io_cost

        n = 20000
        k = choose_k(self.PARAMS, n)
        cost_k = mergesort_io_cost(n, 64, 8, k, 8)
        cost_1 = mergesort_io_cost(n, 64, 8, 1, 8)
        assert cost_k <= cost_1


class TestTables:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(123456.0) == "1.23e+05"
        assert format_cell("x") == "x"

    def test_format_table_basic(self):
        out = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_subset(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]
