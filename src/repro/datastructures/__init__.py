"""Instrumented RAM-model data structures (§3 substrate).

Charging convention (shared by every tree in this package):

* examining a node during a search/descent = **1 element read**;
* mutating a node (any subset of its fields changed by one primitive —
  an attach, a recolor, one pointer change of a rotation) = **1 element
  write** per mutated node.

Under this convention the paper's §3 observation is measurable: a red-black
tree (amortized O(1) recolorings + O(1) rotations per insert) sorts with
``O(n)`` writes, whereas an AVL tree pays ``Θ(log n)`` height-maintenance
writes per insert and a binary-heap heapsort pays ``Θ(n log n)`` writes.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".avl": ("AVLTree",),
    ".heaps": ("InstrumentedBinaryHeap",),
    ".rb_tree": ("RedBlackTree",),
    ".treap": ("Treap",),
    ".write_efficient": ("WriteEfficientDict", "WriteEfficientPQ"),
})

__all__ = [
    "AVLTree",
    "InstrumentedBinaryHeap",
    "RedBlackTree",
    "Treap",
    "WriteEfficientDict",
    "WriteEfficientPQ",
]
