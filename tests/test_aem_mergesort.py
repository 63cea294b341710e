"""Tests for Algorithm 2 (AEM mergesort), including the stranding regression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.formulas import mergesort_levels as merge_levels
from repro.analysis.formulas import mergesort_reads as predicted_reads
from repro.analysis.formulas import mergesort_writes as predicted_writes
from repro.core.aem_mergesort import StrandingDetected, _merge, aem_mergesort
from repro.models import AEMachine, MachineParams, MemoryGuard
from repro.workloads import (
    adversarial_merge_killer,
    few_distinct,
    nearly_sorted,
    random_permutation,
    reverse_sorted,
    sorted_run,
)


def run(data, M=64, B=8, omega=8, k=2):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    arr = machine.from_list(data)
    guard = MemoryGuard()
    out = aem_mergesort(machine, arr, k=k, guard=guard)
    return out, machine, guard


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_random(self, k):
        data = random_permutation(3000, seed=k)
        out, _, _ = run(data, k=k)
        assert out.peek_list() == sorted(data)

    @pytest.mark.parametrize(
        "gen", [sorted_run, reverse_sorted, nearly_sorted, few_distinct]
    )
    def test_workloads(self, gen):
        data = gen(1500)
        out, _, _ = run(data, k=3)
        assert out.peek_list() == sorted(data)

    def test_adversarial_striping(self):
        data = adversarial_merge_killer(2048, l=16)
        out, _, _ = run(data, k=2)
        assert out.peek_list() == sorted(data)

    def test_base_case_only(self):
        data = random_permutation(100, seed=1)  # n < kM
        out, _, _ = run(data, k=2)
        assert out.peek_list() == sorted(data)

    def test_empty(self):
        out, _, _ = run([])
        assert out.peek_list() == []

    def test_cramped_machine(self):
        data = random_permutation(600, seed=2)
        out, _, _ = run(data, M=16, B=4, k=2)
        assert out.peek_list() == sorted(data)

    def test_rejects_bad_k(self, machine):
        arr = machine.from_list([1])
        with pytest.raises(ValueError):
            aem_mergesort(machine, arr, k=0)

    def test_rejects_degenerate_fanout(self):
        machine = AEMachine(MachineParams(M=4, B=4, omega=2))
        arr = machine.from_list([2, 1])
        with pytest.raises(ValueError, match="fanout"):
            aem_mergesort(machine, arr, k=1)

    @given(
        data=st.lists(st.integers(), unique=True, max_size=400),
        k=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_property(self, data, k):
        out, _, _ = run(data, M=16, B=4, k=k)
        assert out.peek_list() == sorted(data)


class TestStrandingRegression:
    """The Algorithm-2 pseudocode erratum (DESIGN.md).

    Construct runs so that a phase-1-rejected record would be overtaken by
    larger phase-2 admissions under the paper's literal filter.  With the
    round-threshold fix every record must still be emitted exactly once.
    """

    def test_interleaved_runs_with_tight_queue(self):
        # tiny queue (M=8) forces constant capacity events during merges
        data = adversarial_merge_killer(512, l=8)
        out, _, _ = run(data, M=8, B=4, omega=4, k=2)
        assert out.peek_list() == sorted(data)

    def test_phase2_stranding_regression(self):
        # Runs engineered per the DESIGN.md scenario: one run holds a large
        # key early (rejected while the queue is full of small keys); other
        # runs then stream larger keys through phase 2.
        run_a = [10, 50] + list(range(1000, 1030))
        run_b = list(range(11, 45)) + [60, 61] + list(range(2000, 2030))
        run_c = list(range(100, 164))
        data = run_a + run_b + run_c
        out, _, _ = run(data, M=8, B=4, omega=4, k=2)
        assert out.peek_list() == sorted(data)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_no_record_lost_under_tiny_queue(self, seed):
        data = random_permutation(300, seed=seed)
        out, _, _ = run(data, M=8, B=4, omega=4, k=3)
        assert out.peek_list() == sorted(data)

    # -- the erratum, demonstrated ------------------------------------- #
    # Four sorted runs, queue capacity M = 8, B = 4.  Round 1 fills the
    # queue with 1..8; during phase 2, popping run0's block-last (4) loads
    # its next block [45,60,61,62], which the paper-literal filter admits
    # (queue no longer full => Q.max = +inf) and outputs — advancing lastV
    # to 62 past the still-unread records 9..52 in the other runs' current
    # blocks.  Round 2's filter (lastV, Q.max) then rejects them forever.
    STRAND_RUNS = [
        [1, 2, 3, 4, 45, 60, 61, 62],
        [5, 6, 7, 8],
        [9, 11, 12, 40],
        [10, 50, 51, 52],
    ]

    def _make_runs(self, machine):
        return [machine.from_list(r) for r in self.STRAND_RUNS]

    def test_paper_literal_merge_strands_records(self):
        machine = AEMachine(MachineParams(M=8, B=4, omega=4))
        runs = self._make_runs(machine)
        with pytest.raises(StrandingDetected):
            _merge(machine, runs, MemoryGuard(), round_threshold=False)

    def test_round_threshold_fix_handles_the_same_input(self):
        machine = AEMachine(MachineParams(M=8, B=4, omega=4))
        runs = self._make_runs(machine)
        out = _merge(machine, runs, MemoryGuard(), round_threshold=True)
        expected = sorted(x for r in self.STRAND_RUNS for x in r)
        assert out.peek_list() == expected

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_paper_literal_ok_or_detected_never_wrong(self, seed):
        """The ablation either sorts correctly or raises — it must never
        silently emit a wrong answer."""
        data = random_permutation(200, seed=seed)
        machine = AEMachine(MachineParams(M=8, B=4, omega=4))
        arr = machine.from_list(data)
        try:
            out = aem_mergesort(machine, arr, k=2, round_threshold=False)
        except StrandingDetected:
            return
        assert out.peek_list() == sorted(data)


class TestTheorem43Bounds:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_read_write_upper_bounds(self, k):
        M, B = 64, 8
        n = 20000
        data = random_permutation(n, seed=k)
        out, machine, _ = run(data, M=M, B=B, k=k)
        assert out.peek_list() == sorted(data)
        assert machine.counter.block_reads <= predicted_reads(n, M, B, k)
        assert machine.counter.block_writes <= predicted_writes(n, M, B, k)

    def test_writes_decrease_with_k(self):
        n = 20000
        data = random_permutation(n, seed=5)
        _, m1, _ = run(data, k=1)
        _, m8, _ = run(data, k=8)
        assert m8.counter.block_writes < m1.counter.block_writes

    def test_reads_increase_with_k(self):
        n = 20000
        data = random_permutation(n, seed=5)
        _, m1, _ = run(data, k=1)
        _, m8, _ = run(data, k=8)
        assert m8.counter.block_reads > m1.counter.block_reads

    def test_levels_formula(self):
        import math

        for k in (1, 2, 8):
            l = k * 64 // 8
            expected = max(1, math.ceil(math.log(20000 / 8) / math.log(l)))
            assert merge_levels(20000, 64, 8, k) == expected

    def test_memory_budget(self):
        M, B = 64, 8
        _, _, guard = run(random_permutation(8000, seed=6), M=M, B=B, k=4)
        # Lemma 4.1's M + 2B (+ pointer allowance we don't count in records)
        assert guard.high_water <= M + 2 * B

    def test_classic_k1_matches_em_bound(self):
        """k=1 must behave exactly like the classic EM mergesort."""
        M, B, n = 64, 8, 20000
        data = random_permutation(n, seed=7)
        _, machine, _ = run(data, M=M, B=B, k=1)
        levels = merge_levels(n, M, B, 1)
        # classic: ~ (n/B) transfers per level in each direction
        assert machine.counter.block_writes <= (n // B) * levels + levels
        assert machine.counter.block_reads <= 2 * (n // B) * levels + levels

    def test_classic_k1_write_counts_pay_full_omega(self):
        """The classic (k=1) mergesort's writes scale with the level count —
        the quantity the asymmetric variants shrink."""
        data = random_permutation(8000, seed=3)
        _, machine, _ = run(data, M=64, B=8, k=1)
        # 3 levels at n=8000, M/B=8: ~1000 blocks x 3
        assert machine.counter.block_writes >= 3 * (8000 // 8)
