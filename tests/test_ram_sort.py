"""Tests for §3 RAM sorting: correctness of all six sorts + cost separation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ram_sort import RAM_SORTS, bst_sort, heapsort, mergesort, quicksort
from repro.datastructures.rb_tree import RedBlackTree
from repro.workloads import (
    make_scenario,
    nearly_sorted,
    random_permutation,
    reverse_sorted,
    sorted_run,
)

WORKLOADS = {
    "random": random_permutation,
    "sorted": sorted_run,
    "reverse": reverse_sorted,
    "nearly": nearly_sorted,
}


@pytest.mark.parametrize("alg", sorted(RAM_SORTS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sorts_all_workloads(alg, workload):
    data = WORKLOADS[workload](500, seed=9)
    out, counter = RAM_SORTS[alg](data)
    assert out == sorted(data)
    assert counter.element_reads > 0
    assert counter.element_writes > 0


@pytest.mark.parametrize("alg", sorted(RAM_SORTS))
@given(data=st.lists(st.integers(), unique=True, max_size=150))
@settings(max_examples=25, deadline=None)
def test_sorts_property(alg, data):
    out, _ = RAM_SORTS[alg](data)
    assert out == sorted(data)


def test_bst_sort_rejects_unknown_tree():
    with pytest.raises(ValueError):
        bst_sort([1, 2], tree="splay")


def test_bst_sort_empty_and_single():
    assert bst_sort([])[0] == []
    assert bst_sort([42])[0] == [42]


class TestTheorem3Shape:
    """§3: BST sort = O(n log n) reads, O(n) writes; classics Θ(n log n) writes."""

    def test_bst_writes_linear(self):
        n1, n2 = 2000, 16000
        _, c1 = bst_sort(random_permutation(n1, seed=1))
        _, c2 = bst_sort(random_permutation(n2, seed=1))
        ratio = (c2.element_writes / n2) / (c1.element_writes / n1)
        assert 0.8 < ratio < 1.2  # flat per-record writes

    def test_classic_writes_superlinear(self):
        n1, n2 = 2000, 16000
        for fn in (quicksort, mergesort, heapsort):
            _, c1 = fn(random_permutation(n1, seed=1))
            _, c2 = fn(random_permutation(n2, seed=1))
            ratio = (c2.element_writes / n2) / (c1.element_writes / n1)
            assert ratio > 1.15, fn.__name__  # ~log-factor growth

    def test_bst_reads_n_log_n(self):
        n = 8000
        _, c = bst_sort(random_permutation(n, seed=2))
        assert c.element_reads < 6 * n * math.log2(n)
        assert c.element_reads > n  # must at least touch everything

    def test_asymmetric_cost_crossover(self):
        """At large omega, BST sort must beat mergesort on total cost."""
        n = 8000
        data = random_permutation(n, seed=3)
        _, c_bst = bst_sort(data)
        _, c_ms = mergesort(data)
        omega = 32
        assert c_bst.element_cost(omega) < c_ms.element_cost(omega)

    def test_symmetric_cost_bst_not_required(self):
        """Sanity: at omega=1 the classic mergesort is competitive."""
        n = 4000
        data = random_permutation(n, seed=4)
        _, c_bst = bst_sort(data)
        _, c_ms = mergesort(data)
        assert c_ms.element_cost(1) < 2.5 * c_bst.element_cost(1)


class TestRedBlackChargesPinned:
    """The red-black tree charges each descent, each fixup and each
    leftward traversal run in one counter update; the totals must stay the
    per-node totals, so they are pinned here."""

    @pytest.mark.parametrize(
        "n, reads, writes",
        [(500, 5293, 3489), (1000, 11649, 7138), (2000, 25250, 13904)],
    )
    def test_bst_sort_counters(self, n, reads, writes):
        data = make_scenario("uniform", n, seed=3)
        out, counter = bst_sort(data)
        assert out == sorted(data)
        assert (counter.element_reads, counter.element_writes) == (reads, writes)

    @pytest.mark.parametrize(
        "n, inserted, rotations, recolorings",
        [
            (500, (4293, 2989), 277, 1159),
            (1000, (9649, 6138), 604, 2327),
            (2000, (21250, 11904), 1100, 4605),
        ],
    )
    def test_tree_counters(self, n, inserted, rotations, recolorings):
        tree = RedBlackTree()
        for key in make_scenario("uniform", n, seed=3):
            tree.insert(key)
        c = tree.counter
        assert (c.element_reads, c.element_writes) == inserted
        assert (tree.rotations, tree.recolorings) == (rotations, recolorings)
        tree.check_invariants()

    def test_duplicate_descent_is_charged_before_raising(self):
        tree = RedBlackTree()
        for key in [5, 3, 8, 1, 4, 7, 9]:
            tree.insert(key)
        before = tree.counter.snapshot()
        with pytest.raises(ValueError, match="duplicate key 4"):
            tree.insert(4)
        delta = tree.counter - before
        assert (delta.element_reads, delta.element_writes) == (3, 0)
        assert len(tree) == 7

    def test_traversal_charges_before_each_yield(self):
        tree = RedBlackTree()
        for key in range(20):
            tree.insert(key)
        base = tree.counter.element_reads
        keys = tree.keys_in_order()
        seen = []
        for _ in range(6):
            next(keys)
            seen.append(tree.counter.element_reads - base)
        assert seen == [4, 4, 5, 5, 7, 7]
        assert list(keys) == list(range(6, 20))
        assert tree.counter.element_reads - base == 20
