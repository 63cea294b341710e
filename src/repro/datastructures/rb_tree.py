"""Instrumented red-black tree: the §3 write-efficient balanced BST.

The paper's §3 RAM sort relies on balanced search trees whose insertions cost
``O(log n)`` reads but only ``O(1)`` *amortized* writes.  Red-black trees have
exactly this property: each insertion performs at most 2 rotations worst case,
and the total number of recolorings over any sequence of ``n`` insertions is
``O(n)`` (the classic amortized-recoloring argument; cf. the paper's citation
[29] for worst-case-constant-rotation trees).

Instrumentation: node examinations charge element reads, node mutations charge
element writes, on the shared :class:`~repro.models.counters.CostCounter`.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..models.counters import CostCounter

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key, value, parent=None):
        self.key = key
        self.value = value
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent: _Node | None = parent
        self.color = RED


class RedBlackTree:
    """CLRS-style red-black tree with read/write instrumentation.

    Parameters
    ----------
    counter:
        Shared cost counter; element reads/writes are charged per the package
        charging convention.
    """

    def __init__(self, counter: CostCounter | None = None):
        self.counter = counter if counter is not None else CostCounter()
        self.root: _Node | None = None
        self.size = 0
        self.rotations = 0
        self.recolorings = 0

    # ------------------------------------------------------------------ #
    # instrumentation primitives
    # ------------------------------------------------------------------ #
    def _read(self, n: int = 1) -> None:
        self.counter.charge_read(n)

    def _write(self, n: int = 1) -> None:
        self.counter.charge_write(n)

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def search(self, key):
        """Return the stored value for ``key`` or ``None``; O(log n) reads."""
        node = self.root
        while node is not None:
            self._read()
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return None

    def __contains__(self, key) -> bool:
        return self.search(key) is not None or self._contains_none_value(key)

    def _contains_none_value(self, key) -> bool:
        node = self.root
        while node is not None:
            if key == node.key:
                return True
            node = node.left if key < node.key else node.right
        return False

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key, value=None) -> None:
        """Insert ``key``; O(log n) reads, O(1) amortized writes.

        The descent reads one node per level and charges them all in one
        update, a duplicate's descent included."""
        parent = None
        node = self.root
        depth = 0
        while node is not None:
            depth += 1
            parent = node
            node_key = node.key
            if key == node_key:
                self._read(depth)
                raise ValueError(f"duplicate key {key!r} (keys must be unique, §2)")
            node = node.left if key < node_key else node.right
        self._read(depth)
        fresh = _Node(key, value, parent)
        # one write for the new node, one for the parent pointer update
        if parent is None:
            self._write()
            self.root = fresh
        else:
            self._write(2)
            if key < parent.key:
                parent.left = fresh
            else:
                parent.right = fresh
        self.size += 1
        self._insert_fixup(fresh)

    def _insert_fixup(self, z: _Node) -> None:
        # tallied and charged once at the end: one read per step up, one
        # write per recolored node (rotations charge their own writes)
        reads = recolored = 0
        while z.parent is not None and z.parent.color == RED:
            reads += 1  # examine parent/grandparent colors
            gp = z.parent.parent
            assert gp is not None  # red parent implies a (black) grandparent
            if z.parent is gp.left:
                uncle = gp.right
                if uncle is not None and uncle.color == RED:
                    # case 1: recolor and move up (amortized O(1) overall)
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    recolored += 3
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    recolored += 2
                    self._rotate_right(gp)
            else:
                uncle = gp.left
                if uncle is not None and uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    recolored += 3
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    gp.color = RED
                    recolored += 2
                    self._rotate_left(gp)
        if self.root is not None and self.root.color == RED:
            self.root.color = BLACK
            recolored += 1
        if reads:
            self._read(reads)
        if recolored:
            self._write(recolored)
            self.recolorings += recolored

    # ------------------------------------------------------------------ #
    # rotations: 3 nodes mutated => 3 writes each
    # ------------------------------------------------------------------ #
    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        assert y is not None
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        self._write(3)
        self.rotations += 1

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        assert y is not None
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        self._write(3)
        self.rotations += 1

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def keys_in_order(self) -> Iterator:
        """Yield keys in sorted order; charges one read per node visited.

        Each leftward run of pushes is charged in one update before the
        next key is yielded, so the totals at every yield are per-node."""
        stack: list[_Node] = []
        node = self.root
        while stack or node is not None:
            pushed = 0
            while node is not None:
                pushed += 1
                stack.append(node)
                node = node.left
            if pushed:
                self._read(pushed)
            node = stack.pop()
            yield node.key
            node = node.right

    # ------------------------------------------------------------------ #
    # invariant checking (uncharged; used by tests)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> int:
        """Verify BST order + red-black properties; return black-height."""
        def walk(node: _Node | None, lo, hi) -> int:
            if node is None:
                return 1
            if (lo is not None and node.key <= lo) or (hi is not None and node.key >= hi):
                raise AssertionError("BST order violated")
            if node.color == RED:
                for child in (node.left, node.right):
                    if child is not None and child.color == RED:
                        raise AssertionError("red node with red child")
            lh = walk(node.left, lo, node.key)
            rh = walk(node.right, node.key, hi)
            if lh != rh:
                raise AssertionError("black-height mismatch")
            return lh + (0 if node.color == RED else 1)

        if self.root is not None and self.root.color == RED:
            raise AssertionError("red root")
        return walk(self.root, None, None)

    def __len__(self) -> int:
        return self.size
