"""§4.3: the buffer tree with fewer writes (branching factor l = kM/B).

An (a,b)-tree with ``a = l/4``, ``b = l`` where ``l = kM/B``.  Every node
carries an external, unsorted *buffer* of partially-inserted elements; leaves
store between ``lB/4`` and ``lB`` sorted records (§4.3.1 note 2: leaves are
the flattened bottom level, "fringe nodes").

Differences from Arge's original (per §4.3.2):

1. node fanout is ``k`` times larger,
2. the buffer-emptying process sorts its first ``lB = kM`` elements with the
   *external* Lemma 4.2 selection sort (they no longer fit in memory),
3. (the priority queue of §4.3.3, in :mod:`repro.core.aem_heapsort`, keeps
   ``O(kM)`` elements outside the tree).

Cost model notes
----------------
* Elements in buffers live in external :class:`ExtArray` blocks; appends are
  buffered so each full block costs one block write (Lemma 4.6's
  distribution accounting).
* Router keys / child pointers are node metadata of size ``O(l)``; loading or
  rewriting them during an emptying or split charges ``ceil(l/B)`` block
  transfers (a lower-order term the paper's proofs absorb into Lemma 4.6's
  constants — we charge it explicitly to stay conservative).
* In-memory bookkeeping (counts, the emptying work-lists) is free, matching
  the model's free primary-memory computation.

Deviation (documented in DESIGN.md): deleting the leftmost leaf — the only
deletion the priority queue needs — does not rebalance underflowing
ancestors; childless ancestors are removed and a single-child root is
collapsed.  For the left-to-right deletion sweep of heapsort this never
degrades the height bound.

General deletions (§4.3.1: "Supporting general deletions is not much
harder"): buffers carry *operations*.  A buffered insert is the key itself; a
buffered delete is a one-slot :class:`_Delete` marker that compares exactly
like its key.  A buffer's record order is arrival order, and every sort and
merge that carries a buffer is stable (the Lemma 4.2 prefix sort keeps equal
records in scan order; the tail merge gives ties to the older, sorted
prefix), so same-key operations stay in arrival order through every emptying
without a sequence number: the paper's §2 position index, kept implicit.
Operations are applied when they reach a leaf (an insert-then-delete pair
annihilates there).  Deleting an absent key raises ``KeyError`` at
application time.  Leaves store plain keys, so the read path (leftmost-leaf
pops, draining) is unchanged.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

from ..models.external_memory import AEMachine, BlockWriter, ExtArray
from .kernels import SLOW_REFERENCE, resolve_kernel
from .selection_sort import reference_phases, selection_phases


class _Delete:
    """A buffered delete of ``key``.

    It compares exactly like ``key`` (against keys and other markers, in
    either operand order), so it sorts, routes and merges with its key's
    other operations and arrival order decides between them.  Unhashable:
    equal to its key but never interchangeable with it.
    """

    __slots__ = ("key",)
    __hash__ = None

    def __init__(self, key):
        self.key = key

    def __repr__(self) -> str:
        return f"_Delete({self.key!r})"

    def __eq__(self, other) -> bool:
        return self.key == (other.key if type(other) is _Delete else other)

    def __lt__(self, other) -> bool:
        return self.key < (other.key if type(other) is _Delete else other)

    def __le__(self, other) -> bool:
        return self.key <= (other.key if type(other) is _Delete else other)

    def __gt__(self, other) -> bool:
        return self.key > (other.key if type(other) is _Delete else other)

    def __ge__(self, other) -> bool:
        return self.key >= (other.key if type(other) is _Delete else other)


class _Node:
    """A buffer-tree node.  All fields are metadata except the buffers."""

    __slots__ = (
        "keys",
        "children",
        "buffer",
        "buffer_count",
        "elements",
        "element_count",
        "is_leaf",
    )

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list = []  # router keys (len == len(children) - 1)
        self.children: list[_Node] = []
        self.buffer: ExtArray | None = None  # pending operations, arrival order
        self.buffer_count = 0
        self.elements: ExtArray | None = None  # sorted leaf payload
        self.element_count = 0


class BufferTree:
    """Write-efficient buffer tree supporting inserts and leftmost-leaf pops.

    Parameters
    ----------
    machine:
        The AEM machine providing block transfers and cost accounting.
    k:
        The extra branching factor (``l = k * M / B``); ``k = 1`` recovers
        Arge's original parameters.
    kernel:
        ``"vectorized"`` (default) drains each buffer as one sorted run and
        distributes it in one segment per child; ``"slow_reference"`` is the
        record-at-a-time reference.  Identical structure, contents and
        counters either way.
    """

    def __init__(self, machine: AEMachine, k: int = 1, *, kernel: str | None = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.machine = machine
        self.k = k
        self.kernel = resolve_kernel(kernel)
        params = machine.params
        self.l = params.fanout(k)
        if self.l < 4:
            raise ValueError(
                f"fanout l = kM/B = {self.l} < 4; buffer tree needs a >= 1 "
                "(increase M/B or k)"
            )
        self.leaf_capacity = self.l * params.B  # lB records
        self.buffer_limit = self.l * params.B  # "full" threshold, lB records
        self.root = _Node(is_leaf=True)
        self.size = 0  # net size: inserts minus (assumed-valid) deletes
        #: sticky: any delete op ever buffered (gates the bulk leaf merge)
        self._has_deletes = False
        # the root's partial buffer block stays in memory (Theorem 4.7)
        self._root_writer: BlockWriter | None = None
        # statistics
        self.emptyings = 0
        self.leaf_splits = 0
        self.internal_splits = 0
        self.annihilations = 0  # insert+delete pairs resolved at a leaf

    # ------------------------------------------------------------------ #
    # metadata transfer charges
    # ------------------------------------------------------------------ #
    def _charge_node_read(self, node: _Node) -> None:
        width = max(1, len(node.children), len(node.keys))
        self.machine.counter.charge_block_read(math.ceil(width / self.machine.params.B))

    def _charge_node_write(self, node: _Node) -> None:
        width = max(1, len(node.children), len(node.keys))
        self.machine.counter.charge_block_write(math.ceil(width / self.machine.params.B))

    # ------------------------------------------------------------------ #
    # buffer plumbing
    # ------------------------------------------------------------------ #
    def _root_buffer_writer(self) -> BlockWriter:
        if self._root_writer is None or self._root_writer.closed:
            if self.root.buffer is None:
                self.root.buffer = self.machine.allocate("rootbuf")
            self._root_writer = BlockWriter(self.machine, self.root.buffer)
        return self._root_writer

    def _seal_root_buffer(self) -> None:
        """Flush the in-memory partial block before emptying the root."""
        if self._root_writer is not None and not self._root_writer.closed:
            self._root_writer.close()
            self._root_writer = None

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key) -> None:
        """Append an insert operation to the root buffer; cascade when full."""
        self._append_op(key)
        self.size += 1

    def delete(self, key) -> None:
        """Append a delete operation (§4.3.1 general deletions).

        The key must currently be in the tree (possibly still as a buffered
        insert); violating that raises ``KeyError`` when the operation
        reaches its leaf.
        """
        self._has_deletes = True
        self._append_op(_Delete(key))
        self.size -= 1

    def _append_op(self, op) -> None:
        self._root_buffer_writer().append(op)
        self.root.buffer_count += 1
        if self.root.buffer_count >= self.buffer_limit:
            self._cascade_from(self.root)

    def insert_many(self, keys) -> None:
        """Insert many keys, batching the root-buffer appends.

        The vectorized path appends up to ``buffer_limit - buffer_count``
        keys at a time with one ``extend`` (identical block layout and
        charges), cascading at exactly the record where the record-at-a-time
        path would.
        """
        if self.kernel == SLOW_REFERENCE:
            for key in keys:
                self.insert(key)
            return
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        pos = 0
        total = len(keys)
        while pos < total:
            room = self.buffer_limit - self.root.buffer_count
            take = max(1, min(room, total - pos))
            self._root_buffer_writer().extend(keys[pos : pos + take])
            self.root.buffer_count += take
            self.size += take
            pos += take
            if self.root.buffer_count >= self.buffer_limit:
                self._cascade_from(self.root)

    # ------------------------------------------------------------------ #
    # the two-phase emptying cascade (§4.3.1)
    # ------------------------------------------------------------------ #
    def _cascade_from(self, start: _Node) -> None:
        """Empty ``start`` (if internal) and all children that become full;
        then resolve full leaves (phase 2)."""
        if start is self.root:
            self._seal_root_buffer()
        full_internal: list[_Node] = []
        full_leaves: list[_Node] = []
        (full_leaves if start.is_leaf else full_internal).append(start)
        while full_internal:
            node = full_internal.pop()
            self._empty_internal(node, full_internal, full_leaves)
        for leaf in full_leaves:
            self._empty_leaf(leaf)

    def _drain_buffer_sorted(self, node: _Node):
        """Return the node's buffered elements in sorted order, and discard
        the buffer.

        Sorts the first ``lB`` elements with the external selection sort
        (Lemma 4.2 — they exceed M); everything beyond the ``lB``-th element
        was appended *in sorted order* by the most recent parent emptying, so
        the tail is a ready sorted run, read once.  Ties between the two runs
        go to the prefix (the older operations).

        The reference merges the two runs record by record and returns the
        stream.  The vectorized kernel returns one list: the sorted prefix
        followed by the tail, merged by one stable ``list.sort()`` (timsort
        finds the two runs and gallops).  That list is simulator scratch of
        up to a whole buffer; the model streams the merge through the same
        block reads and declares no more memory.
        """
        buf = node.buffer
        node.buffer = None
        count = node.buffer_count
        node.buffer_count = 0
        slow = self.kernel == SLOW_REFERENCE
        if buf is None or count == 0:
            return iter(()) if slow else []
        prefix_len = min(count, self.buffer_limit)
        sorted_prefix = _external_prefix_sort(
            self.machine, buf, prefix_len, self.kernel
        )
        if slow:
            tail = _skip_stream(self.machine, buf, prefix_len)
            return _merge_streams(self.machine.scan(sorted_prefix), tail)
        run: list = []
        for block in self.machine.scan_blocks(sorted_prefix):
            run += block
        n_prefix = len(run)
        for block in _skip_stream_blocks(self.machine, buf, prefix_len):
            run += block
        if len(run) > n_prefix:
            run.sort()  # two sorted runs: ties keep the prefix first
        return run

    def _empty_internal(
        self, node: _Node, full_internal: list[_Node], full_leaves: list[_Node]
    ) -> None:
        """Distribute a (possibly over-full) internal node's buffer to its
        children in sorted order (Lemma 4.6)."""
        self.emptyings += 1
        self._charge_node_read(node)

        writers: list[BlockWriter | None] = [None] * len(node.children)

        def writer_for(idx: int) -> BlockWriter:
            w = writers[idx]
            if w is None:
                child = node.children[idx]
                if child.buffer is None:
                    child.buffer = self.machine.allocate("buf")
                w = writers[idx] = BlockWriter(self.machine, child.buffer)
            return w

        if self.kernel == SLOW_REFERENCE:
            stream = self._drain_buffer_sorted(node)
            idx = 0  # current child under the sorted sweep
            for op in stream:
                while idx < len(node.keys) and op >= node.keys[idx]:
                    idx += 1
                writer_for(idx).append(op)
                node.children[idx].buffer_count += 1
        else:
            # the sorted run is cut at each router (operations compare like
            # their keys) and each child's segment lands with one
            # cost-equivalent extend
            run = self._drain_buffer_sorted(node)
            cuts = [bisect.bisect_left(run, router) for router in node.keys]
            start = 0
            for idx, end in enumerate(cuts + [len(run)]):
                if end > start:
                    writer_for(idx).extend(run[start:end])
                    node.children[idx].buffer_count += end - start
                    start = end
        for w in writers:
            if w is not None:
                w.close()

        for child in node.children:
            if child.buffer_count >= self.buffer_limit:
                if child.is_leaf:
                    if child not in full_leaves:
                        full_leaves.append(child)
                else:
                    full_internal.append(child)

    def _empty_leaf(self, leaf: _Node) -> None:
        """Apply a leaf's buffered operations to its sorted payload; split if
        the payload exceeds ``lB`` (phase 2 of §4.3.1)."""
        self.emptyings += 1
        merged_writer = self.machine.writer(name="leafmerge")
        if self.kernel == SLOW_REFERENCE:
            stream = self._drain_buffer_sorted(leaf)
            existing = (
                self.machine.scan(leaf.elements)
                if leaf.elements is not None
                else iter(())
            )
            total = 0
            for key in self._apply_ops(stream, existing):
                merged_writer.append(key)
                total += 1
        elif not self._has_deletes:
            # insert-only tree (the heapsort / pure-ingest case): the op
            # stream is just sorted keys, so the leaf merge is a bulk
            # two-stream chunk merge with the same KeyError-on-duplicate
            # detection at the segment boundaries
            total = self._merge_leaf_bulk(leaf, merged_writer)
        else:
            # general deletions: the op/payload merge is inherently
            # sequential (per-key delete / annihilation semantics), but the
            # surviving keys land in one batch
            stream = iter(self._drain_buffer_sorted(leaf))
            existing = (
                self.machine.scan(leaf.elements)
                if leaf.elements is not None
                else iter(())
            )
            surviving = list(self._apply_ops(stream, existing))
            merged_writer.extend(surviving)
            total = len(surviving)
        merged = merged_writer.close()
        leaf.elements = None
        leaf.element_count = 0

        if total <= self.leaf_capacity:
            leaf.elements = merged
            leaf.element_count = total
            return
        self._split_leaf(leaf, merged, total)

    def _merge_leaf_bulk(self, leaf: _Node, out_writer: BlockWriter) -> int:
        """Insert-only leaf emptying: bulk merge of op keys with the payload.

        Materialises the payload run and the (already sorted) run of
        buffered keys and lets one C-level sort merge them (timsort detects
        the two runs and gallops).  Preserves :meth:`_apply_ops` semantics for the
        insert-only case — ``KeyError`` on a duplicate insert (against the
        payload or between two buffered inserts), reported at the smallest
        offending key, which in key order is the first the reference would
        hit.  Returns the merged record count.
        """
        merged: list = []
        if leaf.elements is not None:
            for block in self.machine.scan_blocks(leaf.elements):
                merged += block
        n_payload = len(merged)
        merged += self._drain_buffer_sorted(leaf)
        had_ops = len(merged) > n_payload
        if had_ops and n_payload:
            merged.sort()  # two sorted runs: C-level galloping merge
        # duplicate-insert detection: the payload is strictly increasing by
        # invariant and the merge is stable, so every duplicate sits next to
        # its twin; one C-level pass over adjacent pairs finds it
        if had_ops and any(map(operator.eq, merged, itertools.islice(merged, 1, None))):
            prev = merged[0]
            for key in merged[1:]:
                if key == prev:
                    raise KeyError(f"duplicate insert of key {key!r}")
                prev = key
        out_writer.extend(merged)
        return len(merged)

    def _apply_ops(self, ops, payload):
        """Merge an op stream (sorted, equal keys' operations in arrival
        order) with a sorted key payload, yielding the surviving keys in
        order.

        Operations on one key apply in arrival order; an insert followed by
        a delete annihilates; deleting an absent key raises ``KeyError``.
        """
        sentinel = object()
        op = next(ops, sentinel)
        pay = next(payload, sentinel)
        while op is not sentinel or pay is not sentinel:
            if op is sentinel or (pay is not sentinel and pay < op):
                yield pay
                pay = next(payload, sentinel)
                continue
            key = op.key if type(op) is _Delete else op
            present = pay is not sentinel and pay == key
            if present:
                pay = next(payload, sentinel)
            had_insert = False
            while op is not sentinel and op == key:
                if type(op) is _Delete:
                    if not present:
                        raise KeyError(f"delete of absent key {key!r}")
                    present = False
                    if had_insert:
                        self.annihilations += 1
                else:
                    if present:
                        raise KeyError(f"duplicate insert of key {key!r}")
                    present = True
                    had_insert = True
                op = next(ops, sentinel)
            if present:
                yield key

    # ------------------------------------------------------------------ #
    # rebalancing: leaf splits cascading upward
    # ------------------------------------------------------------------ #
    def _split_leaf(self, leaf: _Node, merged: ExtArray, total: int) -> None:
        """Replace an over-full leaf by ``ceil(total / (lB/2))`` new leaves."""
        self.leaf_splits += 1
        target = max(1, self.leaf_capacity // 2)
        pieces = math.ceil(total / target)
        sizes = _even_split(total, pieces)

        new_leaves: list[_Node] = []
        routers: list = []
        if self.kernel == SLOW_REFERENCE:
            stream = self.machine.scan(merged)
            for size in sizes:
                piece = _Node(is_leaf=True)
                w = self.machine.writer(name="leaf")
                first = None
                for _ in range(size):
                    key = next(stream)
                    if first is None:
                        first = key
                    w.append(key)
                piece.elements = w.close()
                piece.element_count = size
                if new_leaves:
                    routers.append(first)
                new_leaves.append(piece)
        else:
            # one read of the merged leaf, then each new leaf's records land
            # with one extend (a new leaf starts mid-block of the merged run,
            # so per-block extends would top up and flush every block)
            records: list = []
            for block in self.machine.scan_blocks(merged):
                records.extend(block)
            start = 0
            for size in sizes:
                piece = _Node(is_leaf=True)
                w = self.machine.writer(name="leaf")
                w.extend(records[start : start + size])
                piece.elements = w.close()
                piece.element_count = size
                if new_leaves:
                    routers.append(records[start])
                new_leaves.append(piece)
                start += size

        parent = self._find_parent(self.root, leaf)
        if parent is None:
            # the leaf was the root: grow a new internal root
            new_root = _Node(is_leaf=False)
            new_root.children = new_leaves
            new_root.keys = routers
            self.root = new_root
            self._charge_node_write(new_root)
            self._split_if_needed(new_root)
            return
        pos = parent.children.index(leaf)
        parent.children[pos : pos + 1] = new_leaves
        parent.keys[pos:pos] = routers
        self._charge_node_write(parent)
        self._split_if_needed(parent)

    def _split_if_needed(self, node: _Node) -> None:
        """(a,b)-tree split cascade, generalised to many-at-once child
        insertions: a node with ``c > l`` children is replaced by
        ``ceil(c / (l/2))`` nodes of ~``l/2`` children each (all within the
        ``[l/4, l]`` arity window), cascading upward.  Every node on the
        cascade has an empty buffer (it was emptied earlier in this cascade
        — see §4.3.1)."""
        while len(node.children) > self.l:
            assert node.buffer_count == 0, "split of a node with a non-empty buffer"
            c = len(node.children)
            target = max(2, self.l // 2)
            n_pieces = math.ceil(c / target)
            sizes = _even_split(c, n_pieces)

            pieces: list[_Node] = []
            separators: list = []
            start = 0
            for size in sizes:
                piece = _Node(is_leaf=False)
                piece.children = node.children[start : start + size]
                piece.keys = node.keys[start : start + size - 1]
                if start > 0:
                    separators.append(node.keys[start - 1])
                pieces.append(piece)
                self.internal_splits += 1
                self._charge_node_write(piece)
                start += size

            parent = self._find_parent(self.root, node)
            if parent is None:
                new_root = _Node(is_leaf=False)
                new_root.children = pieces
                new_root.keys = separators
                self.root = new_root
                self._charge_node_write(new_root)
                node = new_root
                continue
            pos = parent.children.index(node)
            parent.children[pos : pos + 1] = pieces
            parent.keys[pos:pos] = separators
            self._charge_node_write(parent)
            node = parent

    def _find_parent(self, current: _Node, target: _Node) -> _Node | None:
        """Locate ``target``'s parent by router descent (metadata only).

        Router descent needs a representative key; we use the subtree-minimum
        tracked implicitly by walking first children, so instead do a simple
        DFS bounded by the tree height times fanout — acceptable in-memory
        bookkeeping (node metadata already charged by callers).
        """
        if current is target or current.is_leaf:
            return None
        for child in current.children:
            if child is target:
                return current
        for child in current.children:
            found = self._find_parent(child, target)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------ #
    # leftmost-leaf extraction (the §4.3.3 refill operation)
    # ------------------------------------------------------------------ #
    def pop_leftmost_leaf(self) -> ExtArray | None:
        """Empty buffers along the root-to-leftmost-leaf path, then detach
        and return the leftmost leaf's sorted elements (or ``None`` if the
        tree holds no elements).  A leaf left empty because every one of its
        keys was deleted is detached and the pop moves on to the next."""
        if self.size == 0:
            return None
        while True:
            self._seal_root_buffer()
            # Empty every buffer on the leftmost path, top-down.  Each
            # emptying distributes to *all* children (same asymptotics as
            # emptying only toward the leftmost child); full descendants are
            # resolved by the standard cascade.  A cascade can restructure
            # the tree (splits), so the descent restarts from the root until
            # it completes untouched.
            while True:
                node = self.root
                restructured = False
                while not node.is_leaf:
                    if node.buffer_count > 0:
                        self._cascade_from(node)
                        restructured = True
                        break
                    node = node.children[0]
                if not restructured and node.buffer_count > 0:
                    self._empty_leaf(node)
                    restructured = True
                if not restructured:
                    break

            elements = node.elements
            count = node.element_count
            was_root = node is self.root
            node.elements = None
            node.element_count = 0
            self.size -= count
            self._detach_leftmost_leaf()
            if count:
                return elements
            # an emptied root leaf means an empty tree, whatever ``size``
            # says after an operation raised mid-emptying
            if self.size <= 0 or was_root:
                return None

    def _detach_leftmost_leaf(self) -> None:
        """Remove the leftmost leaf; drop childless ancestors; collapse a
        single-child root (the documented no-rebalance deviation)."""
        if self.root.is_leaf:
            self.root = _Node(is_leaf=True)
            return
        # path of internal nodes down the leftmost spine
        path: list[_Node] = []
        node = self.root
        while not node.is_leaf:
            path.append(node)
            node = node.children[0]
        # remove the leaf from its parent, then prune childless ancestors
        # (each path[i] is the first child of path[i-1], so pop(0) walks up)
        for parent in reversed(path):
            parent.children.pop(0)
            if parent.keys:
                parent.keys.pop(0)
            self._charge_node_write(parent)
            if parent.children:
                break
        # Collapse single-child roots — but never one holding buffered
        # records: the discarded node's buffer would be lost (the node may
        # lie off the just-emptied leftmost path).  A buffered single-child
        # root is legal; its buffer is emptied by a later cascade, after
        # which the collapse proceeds.
        while (
            not self.root.is_leaf
            and len(self.root.children) == 1
            and self.root.buffer_count == 0
        ):
            self.root = self.root.children[0]
        if not self.root.is_leaf and not self.root.children:
            self.root = _Node(is_leaf=True)

    # ------------------------------------------------------------------ #
    # verification helpers (uncharged; tests only)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Router order, leaf payload order/ranges, child-count sanity."""

        def walk(node: _Node, lo, hi) -> None:
            if node.keys != sorted(node.keys):
                raise AssertionError("router keys out of order")
            if node.is_leaf:
                payload = node.elements.peek_list() if node.elements else []
                if payload != sorted(payload):
                    raise AssertionError("leaf payload unsorted")
                for key in payload:
                    if (lo is not None and key < lo) or (hi is not None and key >= hi):
                        raise AssertionError("leaf payload outside router range")
                return
            if len(node.children) != len(node.keys) + 1:
                raise AssertionError("children/keys arity mismatch")
            if len(node.children) > self.l:
                raise AssertionError("node fanout exceeds b = l")
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                walk(child, bounds[i], bounds[i + 1])

        walk(self.root, None, None)

    # ------------------------------------------------------------------ #
    # public streaming hooks (the engine's ``StreamSession`` drains here)
    # ------------------------------------------------------------------ #
    def drain_stream(self):
        """Yield every element in sorted order, charging each leaf's block
        reads as it is scanned (leftmost-leaf pops under the hood).

        The streaming counterpart of :meth:`drain_sorted`: records are
        surfaced one at a time so a consumer can re-block them without ever
        materialising the whole output in primary memory.
        """
        while self.size > 0:
            leaf = self.pop_leftmost_leaf()
            if leaf is None:
                break
            if self.kernel == SLOW_REFERENCE:
                yield from self.machine.scan(leaf)
            else:
                for block in self.machine.scan_blocks(leaf):
                    yield from block

    def io_stats(self) -> dict:
        """Structural counters for reports: emptyings, splits, annihilations."""
        return {
            "emptyings": self.emptyings,
            "leaf_splits": self.leaf_splits,
            "internal_splits": self.internal_splits,
            "annihilations": self.annihilations,
        }

    def drain_sorted(self) -> list:
        """Pop every leaf in order; return all elements (testing utility).

        Uses :meth:`peek_list` (uncharged) — tests inspect contents without
        billing the machine; production consumers use :meth:`drain_stream`.
        """
        out: list = []
        while self.size > 0:
            leaf = self.pop_leftmost_leaf()
            if leaf is None:
                break
            out.extend(leaf.peek_list())
        return out


# ---------------------------------------------------------------------- #
# streaming helpers
# ---------------------------------------------------------------------- #
def _external_prefix_sort(
    machine: AEMachine, buf: ExtArray, prefix_len: int, kernel: str
) -> ExtArray:
    """Lemma 4.2 selection sort over the first ``prefix_len`` records of
    ``buf`` (repeated scans of the prefix region; output written once).

    Stable: equal records (a key and its delete marker, or a re-inserted
    key) leave in scan order, which is their arrival order.
    """
    out = machine.writer(name="bufsort")
    M = machine.params.M
    if kernel == SLOW_REFERENCE:
        reference_phases(machine, buf, prefix_len, M, out)
    else:
        # block-granular selection phases: the prefix's blocks do not change
        # between phases, so they are found once and re-read by each phase
        selection_phases(_prefix_reader(machine, buf, prefix_len), prefix_len, M, out)
    return out.close()


def _prefix_blocks(machine: AEMachine, arr: ExtArray, prefix_len: int) -> list:
    """Return the blocks covering ``arr``'s first ``prefix_len`` records
    (straddling block truncated), charged by one batched read — the same
    blocks, one read each, that the reference's per-record prefix scan
    reads.  Empty placeholder blocks are neither returned nor read."""
    return _prefix_reader(machine, arr, prefix_len)()


def _prefix_reader(machine: AEMachine, arr: ExtArray, prefix_len: int):
    """Find the block indexes covering ``arr``'s first ``prefix_len``
    records and the straddling block's cut once; return a callable that
    reads those blocks with one batched ``read_blocks`` per call and
    returns them as :func:`_prefix_blocks` does."""
    indexes: list[int] = []
    seen = 0
    for bi in range(arr.num_blocks):
        if seen >= prefix_len:
            break
        blk_len = arr.block_len(bi)
        if blk_len:  # an empty placeholder has nothing to transfer
            indexes.append(bi)
            seen += blk_len
    arrs = [arr] * len(indexes)
    cut = prefix_len - seen  # < 0: the straddling block's excess records

    def read() -> list:
        blocks = machine.read_blocks(arrs, indexes)
        if cut < 0:
            blocks[-1] = blocks[-1][:cut]
        return blocks

    return read


def _skip_stream(machine: AEMachine, arr: ExtArray, skip: int):
    """Stream ``arr`` skipping its first ``skip`` records.

    Blocks wholly inside the skipped prefix are *not* read (their record
    counts are metadata); the straddling block is read once.  Empty
    placeholder blocks are not read either, as in :meth:`AEMachine.scan`.
    """
    offset = 0
    for bi in range(arr.num_blocks):
        blk_len = arr.block_len(bi)
        if blk_len == 0:  # empty placeholder: nothing to transfer
            continue
        if offset + blk_len <= skip:
            offset += blk_len
            continue
        block = machine.read_block(arr, bi, copy=False)
        start = max(0, skip - offset)
        for rec in block[start:]:
            yield rec
        offset += blk_len


def _skip_stream_blocks(machine: AEMachine, arr: ExtArray, skip: int):
    """Block-granular :func:`_skip_stream`: yield the non-empty suffix of
    each block past the skipped prefix (same blocks read, same charges)."""
    offset = 0
    for bi in range(arr.num_blocks):
        blk_len = arr.block_len(bi)
        if blk_len == 0:  # empty placeholder: nothing to transfer
            continue
        if offset + blk_len <= skip:
            offset += blk_len
            continue
        block = machine.read_block(arr, bi, copy=False)
        start = max(0, skip - offset)
        yield block[start:] if start else block
        offset += blk_len


def _merge_streams(a, b):
    """Merge two sorted record streams."""
    sentinel = object()
    va = next(a, sentinel)
    vb = next(b, sentinel)
    while va is not sentinel and vb is not sentinel:
        if va <= vb:
            yield va
            va = next(a, sentinel)
        else:
            yield vb
            vb = next(b, sentinel)
    while va is not sentinel:
        yield va
        va = next(a, sentinel)
    while vb is not sentinel:
        yield vb
        vb = next(b, sentinel)


def _even_split(total: int, pieces: int) -> list[int]:
    """Split ``total`` into ``pieces`` sizes differing by at most one."""
    base = total // pieces
    extra = total % pieces
    return [base + (1 if i < extra else 0) for i in range(pieces)]
