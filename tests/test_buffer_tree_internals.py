"""White-box tests for the buffer tree's streaming/splitting machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer_tree import (
    BufferTree,
    _Delete,
    _external_prefix_sort,
    _skip_stream,
)
from repro.models import AEMachine, MachineParams
from repro.workloads import random_permutation


def make_machine(M=16, B=4, omega=4) -> AEMachine:
    return AEMachine(MachineParams(M=M, B=B, omega=omega))


class TestExternalPrefixSort:
    def test_sorts_prefix_only(self):
        machine = make_machine()
        buf = machine.from_list([5, 3, 8, 1, 9, 2, 7, 4])
        out = _external_prefix_sort(machine, buf, prefix_len=4)
        assert out.peek_list() == [1, 3, 5, 8]

    def test_prefix_across_partial_blocks(self):
        machine = make_machine()
        # two fragments with a partial block in the middle (concat layout)
        a = machine.from_list([9, 7])
        b = machine.from_list([8, 1, 2])
        buf = machine.concat([a, b])
        out = _external_prefix_sort(machine, buf, prefix_len=3)
        assert out.peek_list() == [7, 8, 9]

    def test_full_buffer(self):
        machine = make_machine()
        data = random_permutation(100, seed=1)
        buf = machine.from_list(data)
        out = _external_prefix_sort(machine, buf, prefix_len=100)
        assert out.peek_list() == sorted(data)

    def test_write_bound(self):
        """Lemma 4.2 shape: each prefix record written exactly once."""
        machine = make_machine()
        data = random_permutation(64, seed=2)
        buf = machine.from_list(data)
        _external_prefix_sort(machine, buf, prefix_len=64)
        assert machine.counter.block_writes == 64 // 4

    @given(
        data=st.lists(st.integers(), unique=True, min_size=1, max_size=120),
        cut=st.integers(1, 120),
    )
    @settings(max_examples=30, deadline=None)
    def test_property(self, data, cut):
        cut = min(cut, len(data))
        machine = make_machine()
        buf = machine.from_list(data)
        out = _external_prefix_sort(machine, buf, prefix_len=cut)
        assert out.peek_list() == sorted(data[:cut])


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
