"""Parity suite for the block-kernel layer (``repro.core.kernels``).

The vectorized kernels are required to be **I/O-invisible**: for every sort
path, the block-granular fast path must produce byte-identical output blocks
and *exactly* the same ``reads`` / ``writes`` / ``cost`` tallies as the
record-at-a-time ``slow_reference`` implementations — the counters are the
paper's claim, so vectorization must not perturb them.  These tests pin the
two modes against each other at the acceptance sizes
``n ∈ {0, 1, B, B+1, 10_000}`` for all of mergesort / samplesort / heapsort /
buffer tree (plus the selection sort, the sample-sorting 2-way EM mergesort
and the parallel sample sort that ride on the same primitives).
"""

import importlib
import random

import pytest

from repro import MachineParams, AEMachine
from repro.analysis.boundcheck import CONTRACTS
from repro.core.aem_heapsort import aem_heapsort
from repro.core.aem_mergesort import aem_mergesort
from repro.core.aem_samplesort import aem_samplesort
from repro.core.buffer_tree import BufferTree
from repro.core.em_utils import em_two_way_mergesort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED, resolve_kernel
from repro.core.parallel_samplesort import parallel_samplesort
from repro.core.selection_sort import selection_sort

PARAMS = MachineParams(M=64, B=8, omega=8)

#: acceptance sizes: empty, single record, one block, block+1, large
SIZES = (0, 1, PARAMS.B, PARAMS.B + 1, 10_000)

SORTS = {
    "mergesort": lambda m, a, kernel: aem_mergesort(m, a, k=4, kernel=kernel),
    "samplesort": lambda m, a, kernel: aem_samplesort(m, a, k=4, seed=23, kernel=kernel),
    "heapsort": lambda m, a, kernel: aem_heapsort(m, a, k=4, kernel=kernel),
    "selection": lambda m, a, kernel: selection_sort(m, a, kernel=kernel),
    "em2way": lambda m, a, kernel: em_two_way_mergesort(m, a, kernel=kernel),
}


def _run(name, data, kernel, params=PARAMS):
    machine = AEMachine(params)
    arr = machine.from_list(data)
    out = SORTS[name](machine, arr, kernel)
    return out, machine.counter


def _data(n, seed=29):
    return random.Random(seed).sample(range(3 * n or 1), n)


class TestSortParity:
    @pytest.mark.parametrize("name", sorted(SORTS))
    @pytest.mark.parametrize("n", SIZES)
    def test_output_blocks_and_counters_identical(self, name, n):
        data = _data(n)
        fast, fast_counter = _run(name, data, VECTORIZED)
        slow, slow_counter = _run(name, data, SLOW_REFERENCE)
        assert fast.peek_list() == sorted(data)
        # byte-identical output: same records in the same physical blocks
        assert fast._blocks == slow._blocks
        # identical I/O accounting: reads, writes, and therefore cost
        assert fast_counter.as_dict() == slow_counter.as_dict()
        assert fast_counter.block_cost(PARAMS.omega) == slow_counter.block_cost(
            PARAMS.omega
        )

    @pytest.mark.parametrize("name", ["mergesort", "samplesort", "heapsort"])
    def test_parity_across_machines(self, name):
        data = _data(3000, seed=11)
        for params in (
            MachineParams(M=16, B=4, omega=2),
            MachineParams(M=256, B=16, omega=8),
            MachineParams(M=64, B=64, omega=4),
        ):
            if name == "heapsort" and params.fanout(4) < 4:
                continue
            fast, fc = _run(name, data, VECTORIZED, params)
            slow, sc = _run(name, data, SLOW_REFERENCE, params)
            assert fast._blocks == slow._blocks, params
            assert fc.as_dict() == sc.as_dict(), params

    def test_deterministic_splitters_parity(self):
        data = _data(5000, seed=3)
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            arr = machine.from_list(data)
            out = aem_samplesort(
                machine, arr, k=2, splitters="deterministic", kernel=kernel
            )
            results[kernel] = (out._blocks, machine.counter.as_dict())
        assert results[VECTORIZED] == results[SLOW_REFERENCE]

    def test_mergesort_k1_classic_parity(self):
        data = _data(4000, seed=5)
        for kernel in (VECTORIZED,):
            machine = AEMachine(PARAMS)
            out = aem_mergesort(machine, machine.from_list(data), k=1, kernel=kernel)
            slow_machine = AEMachine(PARAMS)
            ref = aem_mergesort(
                slow_machine, slow_machine.from_list(data), k=1,
                kernel=SLOW_REFERENCE,
            )
            assert out._blocks == ref._blocks
            assert machine.counter.as_dict() == slow_machine.counter.as_dict()


class TestBufferTreeParity:
    def test_insert_drain_parity(self):
        data = _data(6000, seed=17)
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            tree = BufferTree(machine, k=2, kernel=kernel)
            tree.insert_many(data)
            drained = list(tree.drain_stream())
            results[kernel] = (drained, machine.counter.as_dict(), tree.io_stats())
        assert results[VECTORIZED][0] == sorted(data)
        assert results[VECTORIZED] == results[SLOW_REFERENCE]

    def test_general_deletions_parity(self):
        keys = _data(2000, seed=41)
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            tree = BufferTree(machine, k=2, kernel=kernel)
            alive: list = []
            rng = random.Random(42)
            for i, key in enumerate(keys):
                tree.insert(key)
                alive.append(key)
                if i % 3 == 2 and len(alive) > 4:
                    victim = alive.pop(rng.randrange(len(alive)))
                    tree.delete(victim)
            drained = tree.drain_sorted()
            results[kernel] = (drained, machine.counter.as_dict(), sorted(alive))
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            assert results[kernel][0] == results[kernel][2]
        assert results[VECTORIZED][:2] == results[SLOW_REFERENCE][:2]

    def test_duplicate_insert_raises_in_both_kernels(self):
        # enough duplicate inserts to force a leaf emptying with the clash
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            tree = BufferTree(machine, k=1, kernel=kernel)
            n = tree.buffer_limit + 8
            with pytest.raises(KeyError, match="duplicate insert"):
                tree.insert_many([7] * n)
                tree.drain_sorted()


class TestParallelSamplesortParity:
    @pytest.mark.parametrize("n", (0, 1, PARAMS.B, PARAMS.B + 1, 3000))
    def test_parity(self, n):
        data = _data(n, seed=13)
        fast = parallel_samplesort(PARAMS, data, k=2, seed=3, kernel=VECTORIZED)
        slow = parallel_samplesort(PARAMS, data, k=2, seed=3, kernel=SLOW_REFERENCE)
        assert fast.output.peek_list() == sorted(data)
        assert fast.output._blocks == slow.output._blocks
        assert fast.machine.counter.as_dict() == slow.machine.counter.as_dict()
        assert fast.ledger.costs == slow.ledger.costs


class TestKernelModeSwitch:
    def test_default_is_vectorized(self):
        assert resolve_kernel(None) == VECTORIZED

    def test_resolve_kernel_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            resolve_kernel("turbo")

    @pytest.mark.parametrize("name", sorted(CONTRACTS))
    def test_every_entry_rejects_unknown_mode(self, name):
        """A typo such as ``kernel="slow"`` must fail at every contracted
        entry point instead of silently running the vectorized path."""
        module, symbol = CONTRACTS[name].entry.split(":")
        entry = getattr(importlib.import_module(module), symbol)
        machine = AEMachine(PARAMS)
        data = _data(100)
        if name == "parallel-samplesort":
            args = (PARAMS, data)
        elif name == "buffer-tree":
            args = (machine,)
        elif name == "shardmerge":
            args = (machine, [machine.from_list(sorted(data))])
        else:
            args = (machine, machine.from_list(data))
        with pytest.raises(ValueError, match="unknown kernel mode 'turbo'"):
            entry(*args, kernel="turbo")


class TestDuplicateKeyParity:
    def test_duplicate_heavy_input_sorts_identically(self):
        # §2: "a position index can always be added to make keys unique" —
        # the selection paths uniquify below the engine, so a duplicate-heavy
        # input sorts (stably) instead of stalling the phase cutoff, with the
        # exact Lemma 4.2 counters in both kernels
        from repro.analysis.formulas import selection_sort_reads as predicted_reads
        from repro.analysis.formulas import selection_sort_writes as predicted_writes

        rng = random.Random(0)
        data = [rng.randrange(8) for _ in range(200)]
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            out = selection_sort(machine, machine.from_list(data), kernel=kernel)
            results[kernel] = (out._blocks, machine.counter.as_dict())
        assert results[VECTORIZED] == results[SLOW_REFERENCE]
        blocks, counts = results[VECTORIZED]
        assert [rec for blk in blocks for rec in blk] == sorted(data)
        assert counts["block_reads"] == predicted_reads(len(data), PARAMS.M, PARAMS.B)
        assert counts["block_writes"] == predicted_writes(len(data), PARAMS.B)

    def test_all_equal_keys_sort(self):
        # the worst case for the old distinct-keys assumption: one giant
        # duplicate run, several phases long
        data = [7] * (3 * PARAMS.M + 5)
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            out = selection_sort(machine, machine.from_list(data), kernel=kernel)
            assert out.peek_list() == data


class TestShardMergeParity:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", (1, 3))
    def test_output_blocks_and_counters_identical(self, n, k):
        from repro.analysis.formulas import shard_merge_reads, shard_merge_writes
        from repro.core.shard_merge import shard_merge

        data = _data(n, seed=7)
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            shards = [
                machine.from_list(sorted(data[i::k]), name=f"s{i}")
                for i in range(k)
            ]
            out = shard_merge(machine, shards, kernel=kernel)
            results[kernel] = (out._blocks, machine.counter.as_dict())
        assert results[VECTORIZED] == results[SLOW_REFERENCE]
        blocks, counts = results[VECTORIZED]
        assert [rec for blk in blocks for rec in blk] == sorted(data)
        assert counts["block_reads"] == shard_merge_reads(n, PARAMS.B, k)
        assert counts["block_writes"] == shard_merge_writes(n, PARAMS.B)

    def test_duplicate_heavy_shards(self):
        from repro.core.shard_merge import shard_merge

        rng = random.Random(31)
        data = [rng.randrange(6) for _ in range(500)]
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            shards = [
                machine.from_list(sorted(data[i::4]), name=f"s{i}")
                for i in range(4)
            ]
            out = shard_merge(machine, shards, kernel=kernel)
            results[kernel] = (out._blocks, machine.counter.as_dict())
        assert results[VECTORIZED] == results[SLOW_REFERENCE]
        merged = [rec for blk in results[VECTORIZED][0] for rec in blk]
        assert merged == sorted(data)

    @staticmethod
    def _range_partitioned(k, shared_boundaries):
        """``k`` live shards shaped like the coordinator's: disjoint key
        ranges, balanced sizes (62 or 61 records, never a multiple of B),
        and an empty shard before, between and after them.  With
        ``shared_boundaries`` each shard ends on the key its right
        neighbour starts with, as an ``int`` there and a ``float`` in the
        neighbour; the first such pair is ``1`` and ``1.0``."""
        sizes = [62] + [61] * (k - 1)
        n = sum(sizes)
        rng = random.Random(k)
        keys = sorted(rng.sample(range(-10 * n, 0), sizes[0]))
        keys += sorted(rng.sample(range(2, 10 * n), n - sizes[0]))
        live, start = [], 0
        for size in sizes:
            live.append(keys[start:start + size])
            start += size
        if shared_boundaries:
            for left, right in zip(live, live[1:]):
                boundary = 1 if left is live[0] else right[0]
                left[-1], right[0] = boundary, float(boundary)
        shards = [[]]
        for shard in live:
            shards += [shard, []]
        return shards

    @pytest.mark.parametrize(
        "k, shared_boundaries",
        [(1, False), (2, False), (2, True), (5, False), (5, True)],
    )
    def test_coordinator_shaped_shards(self, k, shared_boundaries):
        from repro.analysis.formulas import shard_merge_reads, shard_merge_writes
        from repro.core.shard_merge import shard_merge

        shards = self._range_partitioned(k, shared_boundaries)
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = AEMachine(PARAMS)
            arrays = [
                machine.from_list(shard, name=f"s{i}")
                for i, shard in enumerate(shards)
            ]
            out = shard_merge(machine, arrays, kernel=kernel)
            # typed records: 1 and 1.0 compare equal, so pin which is which
            blocks = [[(rec, type(rec)) for rec in blk] for blk in out._blocks]
            results[kernel] = (blocks, machine.counter.as_dict())
        assert results[VECTORIZED] == results[SLOW_REFERENCE]
        blocks, counts = results[VECTORIZED]
        # ties break by shard index: the concatenation is the merged order
        assert [rec for blk in blocks for rec in blk] == [
            (rec, type(rec)) for shard in shards for rec in shard
        ]
        n = sum(len(shard) for shard in shards)
        assert counts["block_reads"] == shard_merge_reads(n, PARAMS.B, k)
        assert counts["block_reads"] == sum(
            -(-len(shard) // PARAMS.B) for shard in shards
        )
        assert counts["block_writes"] == shard_merge_writes(n, PARAMS.B)

    def test_vectorized_scans_each_live_shard_once_to_the_end(self, monkeypatch):
        from repro.core.shard_merge import shard_merge

        machine = AEMachine(PARAMS)
        arrays = [
            machine.from_list(shard, name=f"s{i}")
            for i, shard in enumerate(self._range_partitioned(5, True))
        ]
        scans = []
        scan_blocks = machine.scan_blocks

        def counted(arr):
            scans.append([arr.name, 0])
            for block in scan_blocks(arr):
                scans[-1][1] += 1
                yield block

        monkeypatch.setattr(machine, "scan_blocks", counted)
        shard_merge(machine, arrays, kernel=VECTORIZED)
        assert scans == [[a.name, a.num_blocks] for a in arrays if a.length]


class TestPriorityQueueInsertBlock:
    def test_insert_block_parity_with_populated_working_sets(self):
        """Regression: with live alpha/beta state (raised beta_max on spill,
        mid-block overflows) insert_block must match looped insert exactly —
        contents AND counters."""
        from repro.core.aem_heapsort import AEMPriorityQueue

        params = MachineParams(M=16, B=4, omega=2)
        rng = random.Random(5)
        ops = []
        live = 0
        for _ in range(80):
            if live > 6 and rng.random() < 0.35:
                ops.append(("pop", None))
                live -= 4
            else:
                block = rng.sample(range(100000), 8)
                ops.append(("block", block))
                live += 8

        def run(use_block):
            machine = AEMachine(params)
            pq = AEMPriorityQueue(machine, k=1, kernel=VECTORIZED)
            popped = []
            for op, payload in ops:
                if op == "pop":
                    for _ in range(min(4, len(pq))):
                        popped.append(pq.delete_min())
                elif use_block:
                    pq.insert_block(payload)
                else:
                    for key in payload:
                        pq.insert(key)
            while len(pq):
                popped.append(pq.delete_min())
            return popped, machine.counter.as_dict()

        bulk = run(True)
        looped = run(False)
        assert bulk == looped
