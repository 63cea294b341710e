"""White-box tests for the buffer tree's streaming/splitting machinery."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer_tree import (
    BufferTree,
    _Delete,
    _external_prefix_sort,
    _Node,
    _prefix_blocks,
    _skip_stream,
    _skip_stream_blocks,
)
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.models import AEMachine, MachineParams
from repro.workloads import random_permutation


def make_machine(M=16, B=4, omega=4) -> AEMachine:
    return AEMachine(MachineParams(M=M, B=B, omega=omega))


def concat_layout(machine: AEMachine, *parts):
    """Fragments concatenated without re-blocking: a partial block inside,
    and an empty placeholder block for each empty part."""
    arrays = []
    for part in parts:
        arr = machine.from_list(part)
        if not part:
            machine.write_block(arr, 0, [])
        arrays.append(arr)
    return machine.concat(arrays)


def prefix_sort(build, prefix_len: int):
    """``_external_prefix_sort`` under both kernels, each on a fresh machine
    holding the buffer ``build(machine)``.  Asserts identical output
    blocks, reads and writes; returns the sorted records and the counter."""
    results = {}
    for kernel in (VECTORIZED, SLOW_REFERENCE):
        machine = make_machine()
        out = _external_prefix_sort(machine, build(machine), prefix_len, kernel)
        results[kernel] = (out._blocks, machine.counter.as_dict())
    assert results[VECTORIZED] == results[SLOW_REFERENCE]
    blocks, counter = results[VECTORIZED]
    return [rec for block in blocks for rec in block], counter


class TestExternalPrefixSort:
    def test_sorts_prefix_only(self):
        out, _ = prefix_sort(lambda m: m.from_list([5, 3, 8, 1, 9, 2, 7, 4]), 4)
        assert out == [1, 3, 5, 8]

    def test_prefix_across_partial_blocks(self):
        # two fragments with a partial block in the middle (concat layout)
        out, counter = prefix_sort(lambda m: concat_layout(m, [9, 7], [8, 1, 2]), 3)
        assert out == [7, 8, 9]
        assert counter["block_reads"] == 2  # the partial block + the straddler

    def test_full_buffer(self):
        data = random_permutation(100, seed=1)
        out, _ = prefix_sort(lambda m: m.from_list(data), 100)
        assert out == sorted(data)

    def test_write_bound(self):
        """Lemma 4.2 shape: each prefix record written exactly once."""
        data = random_permutation(64, seed=2)
        _, counter = prefix_sort(lambda m: m.from_list(data), 64)
        assert counter["block_writes"] == 64 // 4

    @given(
        data=st.lists(st.integers(), unique=True, min_size=1, max_size=120),
        cut=st.integers(1, 120),
    )
    @settings(max_examples=30, deadline=None)
    def test_property(self, data, cut):
        cut = min(cut, len(data))
        out, _ = prefix_sort(lambda m: m.from_list(data), cut)
        assert out == sorted(data[:cut])

    def test_equal_records_leave_in_scan_order(self):
        # a key and its delete marker tie: arrival order must survive the
        # phase boundary, which falls inside the run of 5s (M = 16)
        ops = [5] * 10 + [_Delete(5)] + [5] * 10 + [3, 9]
        out, _ = prefix_sort(lambda m: m.from_list(ops), len(ops))
        assert out == sorted(ops)
        assert [i for i, op in enumerate(out) if type(op) is _Delete] == [11]


class TestPrefixBlocks:
    @pytest.mark.parametrize("prefix_len", [0, 1, 2, 3, 5, 9])
    @pytest.mark.parametrize("layout", [
        [[0, 1], [2, 3, 4, 5, 6, 7, 8]],
        [[0, 1], [], [2, 3, 4, 5, 6, 7, 8]],
    ])
    def test_blocks_cover_the_prefix_only(self, layout, prefix_len):
        """A list of blocks, charged by one batched read when called:
        truncated at the straddling block, one read per non-empty block
        covering the prefix, and neither an empty placeholder nor a block
        past the prefix read."""
        machine = make_machine()
        arr = concat_layout(machine, *layout)
        lengths = [arr.block_len(bi) for bi in range(arr.num_blocks)]
        starts = [0, *itertools.accumulate(lengths)]
        covering = sum(
            1 for n, start in zip(lengths, starts) if n and start < prefix_len
        )
        batches = []
        charge_reads = machine.counter.charge_reads
        machine.counter.charge_reads = lambda n: (batches.append(n), charge_reads(n))
        reads = machine.counter.block_reads
        blocks = _prefix_blocks(machine, arr, prefix_len)
        assert isinstance(blocks, list)
        assert [rec for block in blocks for rec in block] == list(range(prefix_len))
        assert all(blocks)
        assert machine.counter.block_reads - reads == len(blocks) == covering
        assert batches == ([covering] if covering else [])


def typed(ops) -> list:
    """Operations with their kind spelled out: a ``_Delete`` marker equals
    its key, so plain ``==`` cannot tell a key from its marker."""
    return [("del", op.key) if type(op) is _Delete else ("ins", op) for op in ops]


def drain_both(build):
    """``BufferTree._drain_buffer_sorted`` under both kernels, each on a
    fresh machine and a leaf whose buffer is ``build(machine)`` (or none).
    Asserts the same records, kinds, reads and writes; returns the typed
    run and the counter."""
    results = {}
    for kernel in (VECTORIZED, SLOW_REFERENCE):
        machine = make_machine()
        tree = BufferTree(machine, k=1, kernel=kernel)  # l = 4, lB = 16
        node = _Node(is_leaf=True)
        node.buffer = build(machine)
        node.buffer_count = node.buffer.length if node.buffer is not None else 0
        run = typed(tree._drain_buffer_sorted(node))
        assert node.buffer is None and node.buffer_count == 0
        results[kernel] = (run, machine.counter.as_dict())
    assert results[VECTORIZED] == results[SLOW_REFERENCE]
    return results[VECTORIZED]


class TestDrainedRun:
    """The vectorized drain (prefix and tail merged by one stable sort)
    against the reference's record-by-record merge of the two runs."""

    PREFIX = [9, 5, _Delete(7), 3, 12, 1, 14, 7, 2, 11, 4, 6, 8, 10, 13, 15]
    TAIL = [_Delete(5), 7, _Delete(9), 12, 20, 21]  # sorted, ties the prefix

    def test_tail_ties_go_to_the_prefix(self):
        ops = self.PREFIX + self.TAIL
        # the lB boundary (16) falls inside a block: 14 + [2 prefix, 2 tail]
        run, counter = drain_both(
            lambda m: concat_layout(m, ops[:14], ops[14:18], ops[18:])
        )
        assert run == typed(sorted(ops))  # stable: each tie keeps the prefix first
        assert run[run.index(("del", 5)) - 1] == ("ins", 5)
        assert run[run.index(("ins", 7)) - 1] == ("del", 7)
        assert counter["block_reads"] > 0 and counter["block_writes"] > 0

    def test_buffer_below_lb_has_no_tail(self):
        ops = [9, _Delete(3), 5, 3, 1, _Delete(5), 8]
        run, _ = drain_both(lambda m: m.from_list(ops))
        assert run == typed(sorted(ops))

    @pytest.mark.parametrize("allocated", [False, True])
    def test_empty_buffer(self, allocated):
        run, counter = drain_both(
            lambda m: m.allocate("buf") if allocated else None
        )
        assert run == []
        assert counter["block_reads"] == counter["block_writes"] == 0


class TestEmptyInternal:
    def test_children_match_the_reference_with_routers_in_the_buffer(self):
        """Records equal to a router go to the router's right child; every
        child buffer ends up with the reference's blocks, counts and
        charges, including one that already held a partial block."""
        ops = [
            30, 5, _Delete(20), 25, 10, 35, 15, 20, 1, 22, 28, 12,
            _Delete(10), 33, 18, 2,  # the lB = 16 prefix
            _Delete(1), 10, 20, _Delete(30), 30,  # a sorted tail
        ]
        results = {}
        for kernel in (VECTORIZED, SLOW_REFERENCE):
            machine = make_machine()
            tree = BufferTree(machine, k=1, kernel=kernel)
            node = _Node(is_leaf=False)
            node.keys = [10, 20, 30]
            node.children = [_Node(is_leaf=True) for _ in range(4)]
            held = node.children[2]
            held.buffer = machine.from_list([21, 29])
            held.buffer_count = 2
            node.buffer = concat_layout(machine, ops[:15], ops[15:])
            node.buffer_count = len(ops)
            full_internal, full_leaves = [], []
            tree._empty_internal(node, full_internal, full_leaves)
            results[kernel] = (
                [
                    (
                        [typed(b) for b in child.buffer._blocks]
                        if child.buffer is not None else None,
                        child.buffer_count,
                    )
                    for child in node.children
                ],
                [node.children.index(leaf) for leaf in full_leaves],
                full_internal,
                machine.counter.as_dict(),
            )
        assert results[VECTORIZED] == results[SLOW_REFERENCE]
        children = results[VECTORIZED][0]
        flat = [[op for block in blocks for op in block] for blocks, _ in children]
        assert ("ins", 10) in flat[1] and ("del", 10) in flat[1]
        assert ("del", 20) in flat[2] and ("ins", 30) in flat[3]
        assert flat[2][:2] == [("ins", 21), ("ins", 29)]


class TestSkipStream:
    def test_skips_whole_blocks_without_reading(self):
        machine = make_machine()
        arr = machine.from_list(range(16))  # 4 blocks of 4
        got = list(_skip_stream(machine, arr, skip=8))
        assert got == list(range(8, 16))
        assert machine.counter.block_reads == 2  # first two blocks unread

    def test_straddling_block_read_once(self):
        machine = make_machine()
        arr = machine.from_list(range(10))
        got = list(_skip_stream(machine, arr, skip=5))
        assert got == list(range(5, 10))

    def test_skip_zero_and_all(self):
        machine = make_machine()
        arr = machine.from_list(range(7))
        assert list(_skip_stream(machine, arr, skip=0)) == list(range(7))
        assert list(_skip_stream(machine, arr, skip=7)) == []

    def test_partial_block_layout(self):
        machine = make_machine()
        a = machine.from_list([0, 1, 2])  # partial block
        b = machine.from_list([3, 4, 5, 6, 7])
        arr = machine.concat([a, b])
        assert list(_skip_stream(machine, arr, skip=4)) == [4, 5, 6, 7]

    @pytest.mark.parametrize("skip", range(0, 11))
    @pytest.mark.parametrize("layout", [
        [list(range(10))],  # full blocks and a partial tail
        [[0, 1, 2], [3, 4, 5, 6, 7, 8, 9]],  # concat: a partial block inside
        [[0], [1, 2], [3, 4, 5, 6, 7], [8, 9]],
        [[0, 1, 2], [], [3, 4, 5, 6, 7, 8, 9], []],  # empty placeholders
    ])
    def test_block_variant_matches_record_stream(self, layout, skip):
        """``_skip_stream_blocks`` yields non-empty chunks whose
        concatenation is ``_skip_stream``'s records, with the same reads:
        one per non-empty block at or past the skip point (an empty
        placeholder is not read, as in ``AEMachine.scan``)."""
        machine = make_machine()
        arr = concat_layout(machine, *layout)
        records = list(_skip_stream(machine, arr, skip))
        reads = machine.counter.block_reads
        lengths = [arr.block_len(bi) for bi in range(arr.num_blocks)]
        ends = itertools.accumulate(lengths)
        assert reads == sum(1 for n, end in zip(lengths, ends) if n and end > skip)
        machine = make_machine()
        chunks = list(
            _skip_stream_blocks(machine, concat_layout(machine, *layout), skip)
        )
        assert all(chunks), "empty chunk yielded"
        assert [rec for chunk in chunks for rec in chunk] == records
        assert records == list(range(skip, 10))
        assert machine.counter.block_reads == reads


class TestMultiwaySplit:
    def test_massive_leaf_split_keeps_arity_window(self):
        """A bulk load that splits one leaf into many pieces at once must
        still satisfy the (a,b) arity bounds at every internal node."""
        machine = AEMachine(MachineParams(M=16, B=4, omega=4))
        tree = BufferTree(machine, k=1)  # l = 4: tiny fanout, deep tree
        tree.insert_many(random_permutation(8000, seed=3))
        tree.check_invariants()

        def max_fanout(node) -> int:
            if node.is_leaf:
                return 0
            return max([len(node.children)] + [max_fanout(c) for c in node.children])

        assert max_fanout(tree.root) <= tree.l

    def test_drain_after_heavy_splitting(self):
        machine = AEMachine(MachineParams(M=16, B=4, omega=4))
        tree = BufferTree(machine, k=1)
        data = random_permutation(8000, seed=4)
        tree.insert_many(data)
        assert tree.internal_splits > 0
        assert tree.drain_sorted() == sorted(data)


class TestArrivalOrder:
    """Buffers keep no sequence number: a delete is a ``_Delete`` marker
    that compares like its key, and equal keys' operations keep arrival
    order because every sort and merge over a buffer is stable."""

    @pytest.mark.parametrize("key, smaller, larger", [(5, 4, 6), ((5, 2), (5, 1), (6, 0))])
    def test_marker_compares_like_its_key(self, key, smaller, larger):
        marker = _Delete(key)
        assert marker == key and key == marker
        assert not (marker != key) and not (key != marker)
        assert marker <= key <= marker and marker >= key >= marker
        assert not (marker < key) and not (key < marker)
        assert smaller < marker < larger
        assert larger > marker > smaller
        assert marker != smaller and smaller != marker
        assert _Delete(smaller) < marker < _Delete(larger)
        assert marker == _Delete(key)

    def test_sort_keeps_marker_in_arrival_order(self):
        ops = [7, _Delete(3), 3, 1, _Delete(7), _Delete(3), 3]
        ops.sort()
        assert [(type(op) is _Delete, op) for op in ops] == [
            (False, 1), (True, 3), (False, 3), (True, 3), (False, 3),
            (False, 7), (True, 7),
        ]

    def test_marker_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(_Delete(1))
        with pytest.raises(TypeError):
            {_Delete(1)}

    def test_alternating_ops_on_one_key_through_cascades(self):
        """Insert / delete / insert ... of one key, with filler between the
        operations: at fanout 4 each filler batch overfills the root buffer,
        so the key's operations are sorted, routed and merged together with
        others through several levels before they meet at their leaf."""
        tree = BufferTree(make_machine(M=16, B=4), k=1)
        rng = random.Random(0)
        fresh = iter(rng.sample(range(0, 100_000, 2), 1_000))
        key = 50_001
        filler: set = set()
        for i in range(9):
            if i % 2 == 0:
                tree.insert(key)
            else:
                tree.delete(key)
            batch = [next(fresh) for _ in range(24)]
            emptyings = tree.emptyings
            tree.insert_many(batch)
            assert tree.emptyings > emptyings
            filler.update(batch)
        assert tree.internal_splits > 0
        assert tree.drain_sorted() == sorted(filler | {key})
        # five inserts and four deletes: each delete removed the key either
        # from a leaf's payload or, when it met the insert before it in one
        # leaf emptying, by annihilation (pinned for this seed)
        assert tree.annihilations == 3
