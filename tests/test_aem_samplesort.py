"""Tests for the §4.2 AEM sample sort."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import samplesort_reads as predicted_reads
from repro.analysis.formulas import samplesort_writes as predicted_writes
from repro.core.aem_samplesort import _partition, aem_samplesort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.models import AEMachine, MachineParams, MemoryGuard
from repro.workloads import (
    few_distinct,
    gaussian_keys,
    random_permutation,
    reverse_sorted,
    sorted_run,
    zipf_keys,
)


def run(data, M=64, B=8, omega=8, k=2, seed=0):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    arr = machine.from_list(data)
    guard = MemoryGuard()
    out = aem_samplesort(machine, arr, k=k, seed=seed, guard=guard)
    return out, machine, guard


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_random(self, k):
        data = random_permutation(3000, seed=k)
        out, _, _ = run(data, k=k)
        assert out.peek_list() == sorted(data)

    @pytest.mark.parametrize(
        "gen", [sorted_run, reverse_sorted, few_distinct, gaussian_keys, zipf_keys]
    )
    def test_workloads(self, gen):
        data = gen(1500)
        out, _, _ = run(data, k=2)
        assert out.peek_list() == sorted(data)

    def test_base_case(self):
        data = random_permutation(100, seed=1)
        out, _, _ = run(data, k=2)
        assert out.peek_list() == sorted(data)

    def test_empty(self):
        out, _, _ = run([])
        assert out.peek_list() == []

    def test_seed_determinism(self):
        data = random_permutation(2000, seed=1)
        _, m1, _ = run(data, seed=5)
        _, m2, _ = run(data, seed=5)
        assert m1.counter.as_dict() == m2.counter.as_dict()

    def test_rejects_bad_k(self, machine):
        arr = machine.from_list([1])
        with pytest.raises(ValueError):
            aem_samplesort(machine, arr, k=0)

    @given(
        data=st.lists(st.integers(), unique=True, max_size=400),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_property(self, data, seed):
        out, _, _ = run(data, M=16, B=4, k=2, seed=seed)
        assert out.peek_list() == sorted(data)


class TestDeterministicSplitters:
    """§4.2's closing remark, implemented: Aggarwal–Vitter-style selection."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_sorts(self, k):
        data = random_permutation(4000, seed=k)
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        out = aem_samplesort(machine, machine.from_list(data), k=k,
                             splitters="deterministic")
        assert out.peek_list() == sorted(data)

    @pytest.mark.parametrize("gen", [sorted_run, reverse_sorted, zipf_keys])
    def test_workloads(self, gen):
        data = gen(2000)
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        out = aem_samplesort(machine, machine.from_list(data), k=2,
                             splitters="deterministic")
        assert out.peek_list() == sorted(data)

    def test_rejects_unknown_mode(self, machine):
        with pytest.raises(ValueError, match="splitter mode"):
            aem_samplesort(machine, machine.from_list([1]), splitters="psychic")

    def test_deterministic_balance_guarantee(self):
        """Top-level buckets bounded ~2n/l deterministically, even on inputs
        adversarial for any fixed random seed."""
        from repro.core.aem_samplesort import _choose_splitters_deterministic

        M, B, k = 64, 8, 2
        params = MachineParams(M=M, B=B, omega=8)
        n = 8000
        l = k * M // B
        for seed in range(5):
            data = random_permutation(n, seed=seed)
            machine = AEMachine(params)
            arr = machine.from_list(data)
            splitters = _choose_splitters_deterministic(machine, arr, l)
            assert splitters == sorted(splitters)
            bounds = [None] + splitters + [None]
            sizes = []
            for lo, hi in zip(bounds, bounds[1:]):
                sizes.append(
                    sum(
                        1
                        for x in data
                        if (lo is None or x >= lo) and (hi is None or x < hi)
                    )
                )
            assert sum(sizes) == n
            assert max(sizes) <= 3 * n / l  # ~2n/l + slack for sub-selection

    def test_same_cost_shape_as_random(self):
        data = random_permutation(8000, seed=7)
        costs = {}
        for mode in ("random", "deterministic"):
            machine = AEMachine(MachineParams(M=64, B=8, omega=8))
            aem_samplesort(machine, machine.from_list(data), k=2, splitters=mode)
            costs[mode] = machine.counter.block_cost(8)
        assert costs["deterministic"] < 2 * costs["random"]

    @given(data=st.lists(st.integers(), unique=True, max_size=400))
    @settings(max_examples=20, deadline=None)
    def test_property(self, data):
        machine = AEMachine(MachineParams(M=16, B=4, omega=4))
        out = aem_samplesort(machine, machine.from_list(data), k=2,
                             splitters="deterministic")
        assert out.peek_list() == sorted(data)


class TestTheorem45Shape:
    def test_bounded_ratio_to_prediction(self):
        """Measured counts stay within a constant of the Theorem 4.5 forms."""
        M, B, k = 64, 8, 3
        for n in (4000, 16000):
            data = random_permutation(n, seed=n)
            _, machine, _ = run(data, M=M, B=B, k=k)
            r_ratio = machine.counter.block_reads / predicted_reads(n, M, B, k)
            w_ratio = machine.counter.block_writes / predicted_writes(n, M, B, k)
            assert r_ratio < 6.0, f"read blow-up at n={n}"
            assert w_ratio < 6.0, f"write blow-up at n={n}"

    def test_writes_decrease_with_k(self):
        n = 16000
        data = random_permutation(n, seed=9)
        _, m1, _ = run(data, k=1)
        _, m4, _ = run(data, k=4)
        assert m4.counter.block_writes < m1.counter.block_writes

    def test_asymmetric_cost_beats_classic_at_high_omega(self):
        n = 12000
        omega = 16
        data = random_permutation(n, seed=10)
        _, m1, _ = run(data, omega=omega, k=1)
        _, mk, _ = run(data, omega=omega, k=5)
        assert mk.counter.block_cost(omega) < m1.counter.block_cost(omega)

    def test_memory_budget_partitioning(self):
        """Thm 4.5 memory: M + B + M/B (+ the sample-sorting run buffer)."""
        M, B = 64, 8
        _, _, guard = run(random_permutation(8000, seed=11), M=M, B=B, k=4)
        assert guard.high_water <= 2 * M  # coarse envelope; see DESIGN.md


def partition_both(data, splitters):
    """``_partition`` under both kernels (M=16, B=4: four buckets per
    round), each on a fresh machine.  Asserts identical bucket blocks
    (records, scan order and block boundaries) and counters, and that each
    bucket holds its records in scan order; returns the counter."""
    results = {}
    for kernel in (VECTORIZED, SLOW_REFERENCE):
        machine = AEMachine(MachineParams(M=16, B=4, omega=4))
        buckets = _partition(
            machine, machine.from_list(data), splitters, 1, MemoryGuard(),
            kernel=kernel,
        )
        results[kernel] = ([b._blocks for b in buckets], machine.counter.as_dict())
    assert results[VECTORIZED] == results[SLOW_REFERENCE]
    blocks, counter = results[VECTORIZED]
    expected = [
        [r for r in data if bisect.bisect_right(splitters, r) == j]
        for j in range(len(splitters) + 1)
    ]
    assert [[r for block in bucket for r in block] for bucket in blocks] == [
        bucket for bucket in expected if bucket
    ]
    return counter


class TestDistributeBlocks:
    """The vectorized bucket routing against ``_partition``'s reference
    per-record loop: same bucket layouts, same charges."""

    def test_bounded_round(self):
        # 12 buckets in 3 rounds: the middle round has both lo (12) and
        # hi (24) set, and the input holds records equal to every splitter
        splitters = [3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33]
        rng = random.Random(7)
        data = [rng.randrange(40) for _ in range(300)] + splitters
        counter = partition_both(data, splitters)
        assert counter["block_reads"] == 3 * -(-len(data) // 4)

    def test_repeated_splitters(self):
        splitters = [5, 5, 5, 9, 12, 12, 20, 20, 20, 20, 31]
        rng = random.Random(8)
        data = [rng.randrange(40) for _ in range(200)] + [5, 12, 20] * 3
        partition_both(data, splitters)

    @pytest.mark.parametrize("splitters", [[], [4, 8, 15, 16]])
    def test_single_bucket(self, splitters):
        """No splitters at all, and a last round of one bucket (lo set)."""
        rng = random.Random(9)
        partition_both([rng.randrange(30) for _ in range(150)], splitters)

    @given(
        data=st.lists(st.integers(0, 50), max_size=200),
        splitters=st.lists(st.integers(0, 50), max_size=14).map(sorted),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, data, splitters):
        partition_both(data, splitters)
