"""Tests for the §4.3 buffer tree (structure, emptying, splits, leaf pops)."""

import functools
import random
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine as engine_module
from repro.core.buffer_tree import BufferTree, _even_split, _merge_streams
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.engine import SortEngine
from repro.models import AEMachine, MachineParams
from repro.workloads import random_permutation


def make_tree(M=64, B=8, omega=8, k=1):
    machine = AEMachine(MachineParams(M=M, B=B, omega=omega))
    return BufferTree(machine, k=k), machine


class TestHelpers:
    def test_even_split(self):
        assert _even_split(10, 3) == [4, 3, 3]
        assert _even_split(9, 3) == [3, 3, 3]
        assert sum(_even_split(1234, 7)) == 1234

    def test_merge_streams(self):
        a = iter([1, 4, 6])
        b = iter([2, 3, 5, 7])
        assert list(_merge_streams(a, b)) == [1, 2, 3, 4, 5, 6, 7]

    def test_merge_streams_empty_sides(self):
        assert list(_merge_streams(iter([]), iter([1]))) == [1]
        assert list(_merge_streams(iter([1]), iter([]))) == [1]
        assert list(_merge_streams(iter([]), iter([]))) == []


class TestConstruction:
    def test_rejects_bad_k(self):
        machine = AEMachine(MachineParams(M=64, B=8, omega=8))
        with pytest.raises(ValueError):
            BufferTree(machine, k=0)

    def test_rejects_degenerate_fanout(self):
        machine = AEMachine(MachineParams(M=8, B=4, omega=2))
        with pytest.raises(ValueError, match="fanout"):
            BufferTree(machine, k=1)

    def test_parameters(self):
        tree, _ = make_tree(k=2)
        assert tree.l == 16
        assert tree.leaf_capacity == 16 * 8


class TestInsertAndDrain:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [50, 500, 3000])
    def test_drain_sorted(self, k, n):
        tree, _ = make_tree(k=k)
        data = random_permutation(n, seed=n + k)
        tree.insert_many(data)
        assert tree.drain_sorted() == sorted(data)
        assert tree.size == 0

    def test_invariants_during_growth(self):
        tree, _ = make_tree(M=16, B=4, k=1)  # small tree: splits early
        data = random_permutation(2000, seed=3)
        for i, x in enumerate(data):
            tree.insert(x)
            if i % 400 == 399:
                tree.check_invariants()
        tree.check_invariants()
        assert tree.leaf_splits > 0, "workload too small to exercise splits"

    def test_internal_splits_occur_when_deep(self):
        tree, _ = make_tree(M=16, B=4, k=1)  # fanout 4: depth grows quickly
        tree.insert_many(random_permutation(5000, seed=4))
        assert tree.internal_splits > 0
        tree.check_invariants()

    def test_sorted_input(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        n = 1500
        tree.insert_many(range(n))
        assert tree.drain_sorted() == list(range(n))

    def test_reverse_input(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        n = 1500
        tree.insert_many(range(n - 1, -1, -1))
        assert tree.drain_sorted() == list(range(n))

    @given(data=st.lists(st.integers(), unique=True, max_size=600))
    @settings(max_examples=20, deadline=None)
    def test_property_drain(self, data):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(data)
        assert tree.drain_sorted() == sorted(data)

    def test_drain_stream_matches_and_charges_leaf_reads(self):
        # the public streaming hook: sorted order, machine billed per leaf
        tree, machine = make_tree(M=16, B=4, k=1)
        data = random_permutation(800, seed=5)
        tree.insert_many(data)
        reads_before = machine.counter.block_reads
        assert list(tree.drain_stream()) == sorted(data)
        assert tree.size == 0
        assert machine.counter.block_reads > reads_before

    def test_io_stats_surface(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(random_permutation(1500, seed=6))
        stats = tree.io_stats()
        assert set(stats) == {
            "emptyings", "leaf_splits", "internal_splits", "annihilations"
        }
        assert stats["emptyings"] > 0


class TestLeftmostLeafPop:
    def test_pop_returns_global_prefix(self):
        tree, machine = make_tree(M=16, B=4, k=1)
        data = random_permutation(1200, seed=7)
        tree.insert_many(data)
        leaf = tree.pop_leftmost_leaf()
        vals = leaf.peek_list()
        assert vals == sorted(vals)
        expected = sorted(data)[: len(vals)]
        assert vals == expected

    def test_pop_empty_tree(self):
        tree, _ = make_tree()
        assert tree.pop_leftmost_leaf() is None

    def test_pop_interleaved_with_inserts(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        rng = random.Random(8)
        reference: list[int] = []
        popped: list[int] = []
        next_key = 0
        for _ in range(60):
            batch = [next_key + i for i in range(rng.randint(1, 80))]
            rng.shuffle(batch)
            next_key += len(batch)
            # only insert keys above everything already popped (PQ discipline)
            tree.insert_many(batch)
            reference.extend(batch)
            if rng.random() < 0.3 and tree.size > 0:
                leaf = tree.pop_leftmost_leaf()
                if leaf is not None:
                    popped.extend(leaf.peek_list())
        popped.extend(tree.drain_sorted())
        assert popped == sorted(reference)


class TestGeneralDeletions:
    """§4.3.1's 'not much harder' extension: buffered delete operations."""

    def test_insert_then_delete_annihilates(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        data = random_permutation(1000, seed=20)
        tree.insert_many(data)
        evens = [x for x in data if x % 2 == 0]
        for x in evens:
            tree.delete(x)
        assert tree.size == 1000 - len(evens)
        assert tree.drain_sorted() == sorted(x for x in data if x % 2 == 1)

    def test_delete_buffered_insert_before_it_reaches_a_leaf(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert(42)  # still sitting in the root buffer
        tree.delete(42)
        assert tree.size == 0
        assert tree.drain_sorted() == []

    def test_annihilations_counted(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        n = 600
        tree.insert_many(range(n))
        for x in range(0, n, 3):
            tree.delete(x)
        out = tree.drain_sorted()
        assert out == [x for x in range(n) if x % 3 != 0]

    def test_delete_absent_key_raises_at_application(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(range(100))
        tree.delete(10_000)  # not in the tree
        with pytest.raises(KeyError, match="absent"):
            tree.drain_sorted()

    def test_duplicate_insert_raises_at_application(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert(5)
        tree.insert(5)
        with pytest.raises(KeyError, match="duplicate"):
            tree.drain_sorted()

    def test_reinsert_after_delete_is_legal(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(range(200))
        tree.delete(50)
        tree.insert(50)  # later seq: applies after the delete
        out = tree.drain_sorted()
        assert out == list(range(200))

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 60), st.booleans()), min_size=1, max_size=300
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_against_set_semantics(self, ops):
        """Replay (key, is_delete) ops against a reference set, skipping
        ops that would be invalid (delete-absent / duplicate-insert)."""
        tree, _ = make_tree(M=16, B=4, k=1)
        ref: set[int] = set()
        for key, is_delete in ops:
            if is_delete:
                if key in ref:
                    ref.discard(key)
                    tree.delete(key)
            elif key not in ref:
                ref.add(key)
                tree.insert(key)
        assert tree.drain_sorted() == sorted(ref)


@contextmanager
def shallow_stack(headroom: int = 150):
    """Cap the recursion limit a little above the caller's depth, so code
    that recurses once per emptied leaf fails on a small tree."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


class TestEmptiedLeaves:
    """A leaf whose keys were all deleted detaches empty; popping must move
    on to the next leaf in a loop, not with one call per empty leaf."""

    N = 6000

    def test_drain_past_many_emptied_leaves(self):
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(range(self.N))
        first = tree.pop_leftmost_leaf().peek_list()
        for key in range(len(first), self.N - 10):
            tree.delete(key)
        with shallow_stack():
            out = tree.drain_sorted()
        assert out == list(range(self.N - 10, self.N))
        assert tree.size == 0

    def test_stream_pop_min_past_many_emptied_leaves(self):
        from repro import SortEngine

        session = SortEngine(MachineParams(M=16, B=4, omega=4)).stream(k=1)
        session.push_many(range(self.N))
        session.flush()
        session.push_many(range(self.N))
        for key in range(self.N - 10):
            session.delete(key)
        with shallow_stack():
            popped = session.pop_min(5).output
            rest = session.close().output
        assert popped == list(range(self.N - 10, self.N - 5))
        assert rest == list(range(self.N - 5, self.N))

    def test_pop_after_a_raised_emptying_ends(self):
        # the bad delete raises after the root leaf was emptied, so the
        # size no longer matches the (now empty) tree; a later pop must
        # not keep detaching the same empty root leaf
        tree, _ = make_tree(M=16, B=4, k=1)
        tree.insert_many(range(5))
        tree.delete(10_000)
        with pytest.raises(KeyError, match="absent"):
            tree.drain_sorted()
        assert tree.pop_leftmost_leaf() is None


class TestWriteEfficiency:
    def test_k_reduces_writes(self):
        n = 6000
        data = random_permutation(n, seed=9)
        tree1, m1 = make_tree(k=1)
        tree1.insert_many(data)
        tree2, m2 = make_tree(k=2)
        tree2.insert_many(data)
        assert m2.counter.block_writes <= m1.counter.block_writes

    def test_insert_amortized_writes_near_constant_blocks(self):
        """Thm 4.7: writes/op ~ (1/B)(1 + log_{kM/B} n) — small per op."""
        tree, machine = make_tree(M=64, B=8, k=2)
        n = 8000
        tree.insert_many(random_permutation(n, seed=10))
        writes_per_op = machine.counter.block_writes / n
        # bound with generous constant: (1/B)(1 + log_16(8000)) * 8 ~ 4.2/8
        assert writes_per_op < 8 * (1 / 8) * (1 + 3.3)


class TestStreamPushMany:
    """``StreamSession.push_many`` hands its whole batch to one
    ``insert_many``; it must leave exactly what a ``push`` loop leaves."""

    @staticmethod
    def session_run(kernel: str, k: int, batched: bool) -> list:
        rng = random.Random(5)
        keys = [rng.randrange(300) for _ in range(2000)]  # duplicate keys
        tree_in_mode = functools.partial(BufferTree, kernel=kernel)
        with mock.patch.object(engine_module, "BufferTree", tree_in_mode):
            session = SortEngine(MachineParams(M=64, B=8, omega=4)).stream(k=k)
        assert session.tree.kernel == kernel

        def ingest(records):
            if batched:
                session.push_many(records)
            else:
                for rec in records:
                    session.push(rec)

        ingest(keys[:1100])
        ingest(iter(keys[1100:1103]))  # any iterable, landing mid-buffer
        ingest([])
        for key in keys[:40:3]:
            session.delete(key)
        session.pop_min(37)
        ingest(keys[1103:])
        session.delete(keys[-1])
        session.pop_min(5)
        session.close()
        return [
            (report.output, report.counter.block_reads,
             report.counter.block_writes, report.extras)
            for report in session.reports
        ]

    @pytest.mark.parametrize("kernel", [VECTORIZED, SLOW_REFERENCE])
    @pytest.mark.parametrize("k", [1, 2])
    def test_push_many_matches_a_push_loop(self, kernel, k):
        batched = self.session_run(kernel, k, batched=True)
        assert batched == self.session_run(kernel, k, batched=False)
        assert len(batched) == 3
        # the reports carry real drains and real I/O
        assert all(reads and writes for _, reads, writes, _ in batched)
        assert [len(out) for out, *_ in batched[:2]] == [37, 5]

