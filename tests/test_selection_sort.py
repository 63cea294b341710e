"""Tests for the Lemma 4.2 selection-sort base case — exact bound checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import selection_sort_reads as predicted_reads
from repro.analysis.formulas import selection_sort_writes as predicted_writes
from repro.core.selection_sort import selection_sort
from repro.models import AEMachine, MachineParams, MemoryGuard
from repro.workloads import random_permutation, reverse_sorted


def run(data, M=64, B=8, omega=8):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    arr = machine.from_list(data)
    guard = MemoryGuard()
    out = selection_sort(machine, arr, guard=guard)
    return out, machine, guard


class TestCorrectness:
    def test_basic(self):
        out, _, _ = run(random_permutation(200, seed=1))
        assert out.peek_list() == list(range(200))

    def test_empty(self):
        out, machine, _ = run([])
        assert out.peek_list() == []
        assert machine.counter.total_io() == 0

    def test_single_block(self):
        out, _, _ = run([3, 1, 2])
        assert out.peek_list() == [1, 2, 3]

    def test_exactly_M(self):
        out, machine, _ = run(reverse_sorted(64))
        assert out.peek_list() == list(range(64))
        # one phase: n/B reads, n/B writes
        assert machine.counter.block_reads == 8
        assert machine.counter.block_writes == 8

    def test_partial_final_block(self):
        out, _, _ = run(random_permutation(67, seed=2))
        assert out.peek_list() == list(range(67))

    @given(st.lists(st.integers(), unique=True, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_property(self, data):
        out, _, _ = run(data, M=16, B=4)
        assert out.peek_list() == sorted(data)


class TestLemma42Bounds:
    @pytest.mark.parametrize("mult", [1, 2, 3, 5, 8])
    def test_exact_bounds(self, mult):
        M, B = 64, 8
        n = mult * M
        data = random_permutation(n, seed=n)
        out, machine, guard = run(data, M=M, B=B)
        assert out.peek_list() == sorted(data)
        k = math.ceil(n / M)
        assert machine.counter.block_reads <= k * math.ceil(n / B)
        assert machine.counter.block_writes == math.ceil(n / B)

    def test_predicted_helpers(self):
        assert predicted_writes(100, 8) == 13
        assert predicted_reads(100, 64, 8) == 2 * 13

    def test_memory_within_m_plus_buffers(self):
        M, B = 64, 8
        _, _, guard = run(random_permutation(5 * M, seed=3), M=M, B=B)
        assert guard.high_water <= M + 2 * B

    def test_writes_independent_of_passes(self):
        """Writes must not grow with k: every record written exactly once."""
        M, B = 16, 4
        for mult in (1, 4, 16):
            n = mult * M
            _, machine, _ = run(random_permutation(n, seed=n), M=M, B=B)
            assert machine.counter.block_writes == math.ceil(n / B)
