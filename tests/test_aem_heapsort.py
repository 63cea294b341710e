"""Tests for the §4.3.3 priority queue and buffer-tree heapsort."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aem_heapsort import AEMPriorityQueue, aem_heapsort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.models import AEMachine, MachineParams
from repro.workloads import random_permutation, reverse_sorted, sorted_run


def make_pq(M=64, B=8, omega=8, k=1):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    return AEMPriorityQueue(machine, k=k), machine


class TestPriorityQueue:
    def test_insert_delete_min_basic(self):
        pq, _ = make_pq()
        for x in [5, 1, 4, 2, 3]:
            pq.insert(x)
        assert [pq.delete_min() for _ in range(5)] == [1, 2, 3, 4, 5]

    def test_empty_delete_raises(self):
        pq, _ = make_pq()
        with pytest.raises(IndexError):
            pq.delete_min()

    def test_len(self):
        pq, _ = make_pq()
        pq.insert(1)
        pq.insert(2)
        pq.delete_min()
        assert len(pq) == 1

    def test_rejects_bad_k(self):
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        with pytest.raises(ValueError):
            AEMPriorityQueue(machine, k=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_large_sort_workload(self, k):
        pq, _ = make_pq(k=k)
        data = random_permutation(5000, seed=k)
        for x in data:
            pq.insert(x)
        out = [pq.delete_min() for _ in range(len(data))]
        assert out == sorted(data)

    def test_interleaved_against_reference(self):
        """Random op mix checked against heapq at every step."""
        pq, _ = make_pq(M=16, B=4, omega=4, k=1)
        ref: list = []
        rng = random.Random(12)
        keys = iter(random_permutation(5000, seed=12))
        for _ in range(3000):
            if ref and rng.random() < 0.45:
                assert pq.delete_min() == heapq.heappop(ref)
            else:
                x = next(keys)
                pq.insert(x)
                heapq.heappush(ref, x)
        while ref:
            assert pq.delete_min() == heapq.heappop(ref)
        assert len(pq) == 0

    def test_exercises_all_refill_paths(self):
        pq, _ = make_pq(M=16, B=4, omega=4, k=2)
        data = random_permutation(4000, seed=13)
        for x in data:
            pq.insert(x)
        out = [pq.delete_min() for _ in range(len(data))]
        assert out == sorted(data)
        assert pq.alpha_refills > 0
        assert pq.tree_refills > 0
        assert pq.beta_rebuilds > 0

    def test_beta_overflow_path(self):
        """Fill beta via inserts landing inside its key range until it
        exceeds 2kM valid records, forcing the spill into the tree.

        Sparse tree keys give the first leaf (hence beta) a wide key range;
        dense inserts inside that range then pile up in beta.
        """
        pq, _ = make_pq(M=16, B=4, omega=4, k=1)
        sparse = [x * 1_000_000 for x in range(500)]
        for x in sparse:
            pq.insert(x)
        assert pq.delete_min() == 0  # activates alpha and beta from a leaf
        assert pq._beta_max is not None and pq._beta_max >= 1_000_000
        fill = list(range(10, 10 + 3 * pq.beta_capacity))  # inside beta range
        for x in fill:
            pq.insert(x)
        assert pq.beta_overflows > 0
        expected = sorted(set(sparse) - {0} | set(fill))
        got = [pq.delete_min() for _ in range(len(pq))]
        assert got == expected

    @given(
        ops=st.lists(
            st.one_of(st.integers(0, 10_000), st.none()), min_size=1, max_size=300
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_against_reference(self, ops):
        """None = delete-min (when non-empty); ints = insert (deduped)."""
        pq, _ = make_pq(M=16, B=4, omega=4, k=1)
        ref: list = []
        seen = set()
        for op in ops:
            if op is None:
                if ref:
                    assert pq.delete_min() == heapq.heappop(ref)
            elif op not in seen:
                seen.add(op)
                pq.insert(op)
                heapq.heappush(ref, op)
        while ref:
            assert pq.delete_min() == heapq.heappop(ref)


class TestHeapsort:
    @pytest.mark.parametrize("k", [1, 2])
    def test_sorts(self, k):
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        data = random_permutation(3000, seed=k)
        arr = machine.from_list(data)
        out = aem_heapsort(machine, arr, k=k)
        assert out.peek_list() == sorted(data)

    @pytest.mark.parametrize("gen", [sorted_run, reverse_sorted])
    def test_presorted_inputs(self, gen):
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        data = gen(2000)
        out = aem_heapsort(machine, machine.from_list(data), k=2)
        assert out.peek_list() == sorted(data)

    def test_k_reduces_writes(self):
        n = 8000
        data = random_permutation(n, seed=14)
        counts = {}
        for k in (1, 2):
            machine = AEMachine(MachineParams(M=64, B=8, omega=8))
            aem_heapsort(machine, machine.from_list(data), k=k)
            counts[k] = machine.counter.snapshot()
        assert counts[2].block_writes < counts[1].block_writes

    def test_same_asymptotics_as_mergesort(self):
        """§4.3: heapsort matches the other sorts within constant factors."""
        from repro.core.aem_mergesort import aem_mergesort

        n = 8000
        data = random_permutation(n, seed=15)
        machine_h = AEMachine(MachineParams(M=64, B=8, omega=8))
        aem_heapsort(machine_h, machine_h.from_list(data), k=2)
        machine_m = AEMachine(MachineParams(M=64, B=8, omega=8))
        aem_mergesort(machine_m, machine_m.from_list(data), k=2)
        ratio_w = machine_h.counter.block_writes / machine_m.counter.block_writes
        ratio_r = machine_h.counter.block_reads / machine_m.counter.block_reads
        assert ratio_w < 12, "buffer-tree write constant blew up"
        assert ratio_r < 12, "buffer-tree read constant blew up"


# ---------------------------------------------------------------------- #
# the vectorized queue's run path (beta as one sorted run) against the
# record-at-a-time reference
# ---------------------------------------------------------------------- #
def queue_ops(seed: int, M: int, B: int, k: int) -> list:
    """A seeded mix of ``insert``, ``insert_block``, ``delete_min`` and
    ``pop_batch`` on unique keys.  It opens with ``4kM`` sparse keys (a
    multiple of ``stride`` each) and one DELETE-MIN, so beta holds the
    first leaf, which spans many strides.  Half the later keys fall below
    ``2 * stride``: they route into alpha or beta for as long as either
    holds a record.  Pops are rare in the first ``8kM`` operations, which
    overflow beta, and common in the last ``6kM``, which drain it."""
    rng = random.Random(seed)
    stride = 1 << 20
    used: set = set()

    def fresh() -> int:
        hi = 2 * stride if rng.random() < 0.5 else 1 << 40
        while True:
            key = rng.randrange(hi)
            if key % stride and key not in used:
                used.add(key)
                return key

    ops: list = [("insert_block", [i * stride for i in range(4 * k * M)]),
                 ("delete_min", None)]
    for i in range(14 * k * M):
        fill = i < 8 * k * M
        r = rng.random()
        if r < (0.08 if fill else 0.3):
            ops.append(("delete_min", None))
        elif r < (0.09 if fill else 0.4):
            ops.append(("pop_batch", None))
        elif r < (0.19 if fill else 0.5):
            ops.append(("insert_block", [fresh() for _ in range(rng.randrange(1, 3 * B))]))
        else:
            ops.append(("insert", fresh()))
    return ops


def run_queue(ops: list, params: MachineParams, k: int, kernel: str) -> dict:
    """Apply ``ops`` (pops on an empty queue are skipped), drain the rest
    with ``pop_batch``, and return everything the two kernels must share."""
    machine = AEMachine(params)
    pq = AEMPriorityQueue(machine, k=k, kernel=kernel)
    popped: list = []
    for op, arg in ops:
        if op == "insert":
            pq.insert(arg)
        elif op == "insert_block":
            pq.insert_block(arg)
        elif len(pq) == 0:
            continue
        elif op == "delete_min":
            popped.append(pq.delete_min())
        else:
            popped.extend(pq.pop_batch())
    while len(pq):
        popped.extend(pq.pop_batch())
    return {
        "popped": popped,
        "counters": machine.counter.as_dict(),
        "beta_rebuilds": pq.beta_rebuilds,
        "beta_overflows": pq.beta_overflows,
        "alpha_refills": pq.alpha_refills,
        "tree_refills": pq.tree_refills,
        "tree": pq.tree.io_stats(),
    }


class TestRunPath:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("B", [2, 4, 8])
    @pytest.mark.parametrize("blocks_in_memory", [8, 16])
    def test_interleaved_fuzz_matches_reference(self, k, B, blocks_in_memory):
        """Popped records, counters, rebuilds, overflows, refills and the
        tree's structural counters equal the reference's, on a mix that
        overflows beta and then drains the kept half as a run."""
        M = blocks_in_memory * B
        params = MachineParams(M=M, B=B, omega=4)
        ops = queue_ops(1000 * k + 10 * B + blocks_in_memory, M, B, k)
        fast = run_queue(ops, params, k, VECTORIZED)
        ref = run_queue(ops, params, k, SLOW_REFERENCE)
        keys = [key for op, arg in ops if op != "delete_min" and op != "pop_batch"
                for key in (arg if op == "insert_block" else [arg])]
        assert fast["popped"] == ref["popped"]
        assert sorted(fast["popped"]) == sorted(keys)
        assert fast == ref
        assert fast["beta_overflows"] > 0
        assert fast["beta_rebuilds"] > fast["beta_overflows"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 500, 3001])
    def test_heapsort_never_filters_beta(self, k, n, monkeypatch):
        """On unique keys heapsort's whole drain reads beta as one sorted
        run: the general path's filter never runs, and the counters equal
        the reference's (which never takes the run path)."""
        params = MachineParams(M=32, B=4, omega=4)
        data = random_permutation(n, seed=n + k)
        ref_machine = AEMachine(params)
        ref = aem_heapsort(ref_machine, ref_machine.from_list(data), k=k,
                           kernel=SLOW_REFERENCE)

        def no_filter(self):
            raise AssertionError("the run path fell back to _valid_beta")

        monkeypatch.setattr(AEMPriorityQueue, "_valid_beta", no_filter)
        machine = AEMachine(params)
        out = aem_heapsort(machine, machine.from_list(data), k=k, kernel=VECTORIZED)
        assert out.peek_list() == sorted(data)
        assert out._blocks == ref._blocks
        assert machine.counter.as_dict() == ref_machine.counter.as_dict()

    def test_every_pass_over_beta_is_consumed(self, monkeypatch):
        """``scan_blocks`` charges on its first step, so the counters cannot
        tell a pass abandoned early: count the blocks each pass yields.
        On the run path every refill and every rebuild makes one pass over
        beta, and every pass reads every non-empty block."""
        machine = AEMachine(MachineParams(M=32, B=4, omega=4))
        scans = []
        scan_blocks = machine.scan_blocks

        def counted(arr):
            scans.append([arr.name, 0, sum(1 for bi in range(arr.num_blocks) if arr.block_len(bi))])
            for block in scan_blocks(arr):
                scans[-1][1] += 1
                yield block

        monkeypatch.setattr(machine, "scan_blocks", counted)
        pq = AEMPriorityQueue(machine, k=2, kernel=VECTORIZED)
        data = random_permutation(3000, seed=7)
        pq.insert_block(data)
        got = []
        while len(pq):
            got += pq.pop_batch()
        assert got == sorted(data)
        beta = [scan for scan in scans if scan[0] == "beta"]
        assert len(beta) == pq.alpha_refills + pq.beta_rebuilds
        assert all(done == blocks for _, done, blocks in scans)

    def test_beta_append_ends_the_run(self, monkeypatch):
        """A record appended to beta ends the run: the next refill takes the
        general path (one ``_valid_beta`` filter) and still pops in order;
        an overflow's kept half starts a new run, drained without one."""
        pq, _ = make_pq(M=16, B=4, omega=4, k=1)
        sparse = [x * 1_000_000 for x in range(500)]
        pq.insert_block(sparse)
        assert pq.delete_min() == 0  # tree refill: beta is one sorted run
        assert pq._run is not None
        filters = []
        valid_beta = AEMPriorityQueue._valid_beta

        def counted(self):
            filters.append(self._run)
            return valid_beta(self)

        monkeypatch.setattr(AEMPriorityQueue, "_valid_beta", counted)
        between = pq._alpha[-1] + 500_000
        assert between < pq._beta_max
        pq.insert(between)  # alpha's max < key < beta's max: appended to beta
        assert pq._run is None
        got = [0, *pq.pop_batch()]
        assert filters == []  # alpha was not empty: no refill yet
        got += pq.pop_batch()
        assert filters == [None, None]  # the refill, then (k = 1) the rebuild
        fill = []
        while not pq.beta_overflows:  # keys inside beta's range, past got
            fill.append(got[-1] + 1 + len(fill))
            assert fill[-1] < pq._beta_max
            pq.insert(fill[-1])
        assert pq._run is not None  # the overflow's kept half
        del filters[:]
        while len(pq):
            got += pq.pop_batch()
        assert filters == []
        assert got == sorted([*sparse, between, *fill])
