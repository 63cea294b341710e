"""§4.3.3: the write-efficient AEM priority queue and buffer-tree heapsort.

The priority queue layers three stores, smallest keys first:

* **alpha working set** — at most ``M/4`` records, resident in primary memory
  (operations free);
* **beta working set** — at most ``2kM`` records in external blocks, appended
  unsorted, with *implicit deletions* tracked by an in-memory list of pairs
  ``(i, x)`` meaning "every record at index <= i with key <= x is invalid";
  rebuilt (compacted) after ``k`` extractions or on overflow;
* **buffer tree** — everything else (:class:`~repro.core.buffer_tree.BufferTree`).

Routing invariant: every alpha record <= every valid beta record <= every
buffer-tree record.  Inserts route by comparing against the in-memory maxima
``alpha_max`` / ``beta_max``; DELETE-MIN pops alpha, refilling alpha from beta
(``M/4`` smallest valid, Lemma 4.8) and beta from the tree's leftmost leaf.

Theorem 4.10: ``n`` INSERT / DELETE-MIN operations cost amortized
``O((k/B)(1 + log_{kM/B} n))`` reads and ``O((1/B)(1 + log_{kM/B} n))``
writes each.  Heapsort via the queue therefore matches the §4.1/§4.2 sorting
bounds (the paper's closing remark of §4.3).
"""

from __future__ import annotations

import bisect
import math

from ..models.external_memory import AEMachine, BlockWriter, ExtArray, MemoryGuard
from .buffer_tree import BufferTree
from .kernels import SLOW_REFERENCE, heap_smallest, resolve_kernel


class AEMPriorityQueue:
    """Write-efficient external-memory priority queue (INSERT / DELETE-MIN).

    ``kernel`` selects the block-granular fast path (``"vectorized"``,
    default) or the record-at-a-time reference (``"slow_reference"``) for the
    alpha/beta maintenance operations and the underlying buffer tree; both
    produce identical contents and identical counters.
    """

    def __init__(self, machine: AEMachine, k: int = 1, guard: MemoryGuard | None = None,
                 *, kernel: str | None = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.machine = machine
        self.k = k
        self.kernel = resolve_kernel(kernel)
        self.guard = guard if guard is not None else MemoryGuard()
        params = machine.params

        self.alpha_capacity = max(1, params.M // 4)
        self.beta_capacity = 2 * k * params.M

        self.tree = BufferTree(machine, k, kernel=self.kernel)
        self._alpha: list = []  # sorted ascending, in memory (free)
        self._beta: ExtArray = machine.allocate("beta")
        self._beta_writer: BlockWriter | None = None  # last block in memory
        self._beta_len = 0  # total records ever appended (incl. invalid)
        self._beta_valid = 0
        self._beta_max = None  # max *valid* key in beta (None = empty)
        self._pairs: list[tuple[int, object]] = []  # implicit-deletion list
        self._extractions_since_rebuild = 0
        self.size = 0
        # statistics for the E5 experiment
        self.beta_rebuilds = 0
        self.beta_overflows = 0
        self.alpha_refills = 0
        self.tree_refills = 0

        # primary-memory footprint: alpha + deletion pairs + beta/root
        # partial blocks + transfer buffers
        self.guard.acquire(self.alpha_capacity + 4 * params.B)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------ #
    # INSERT
    # ------------------------------------------------------------------ #
    def insert(self, key) -> None:
        """Route ``key`` by the alpha/beta maxima (§4.3.3)."""
        self.size += 1
        if self._alpha and key < self._alpha[-1]:
            bisect.insort(self._alpha, key)  # in-memory, free
            if len(self._alpha) > self.alpha_capacity:
                spill = self._alpha.pop()  # largest; still <= every beta key
                self._beta_append(spill)
            return
        if self._beta_max is not None and key < self._beta_max:
            self._beta_append(key)
            return
        self.tree.insert(key)

    def insert_block(self, block) -> None:
        """Route a list of records (§4.3.3 routing, batched where that is
        provably identical to looped :meth:`insert`).

        When both working sets are empty (heapsort's insert half: all
        records precede the first DELETE-MIN) every record routes to the
        buffer tree and nothing can change that mid-list — no alpha means
        no spills, no beta means no overflows — so the whole list lands via
        one :meth:`BufferTree.insert_many` batch, whatever its length.  The
        list is simulator scratch: the model streams the records through
        one load block and the root buffer's partial block, which is what
        the queue's ``MemoryGuard`` declaration covers.  With a populated
        alpha/beta the routing thresholds are live state (a spill into an
        empty beta *raises* ``beta_max``; a beta overflow pushes records
        into the tree mid-stream), so records route one at a time, exactly
        like :meth:`insert` — deferring tree-bound records there would
        reorder them against overflow pushes and change buffer layouts.
        """
        if not self._alpha and self._beta_max is None:
            self.size += len(block)
            self.tree.insert_many(block)
            return
        for key in block:
            self.insert(key)

    def _beta_append(self, key) -> None:
        if self._beta_writer is None or self._beta_writer.closed:
            self._beta_writer = BlockWriter(self.machine, self._beta)
        self._beta_writer.append(key)
        self._beta_len += 1
        self._beta_valid += 1
        if self._beta_max is None or key > self._beta_max:
            self._beta_max = key
        if self._beta_valid > self.beta_capacity:
            self._beta_overflow()

    # ------------------------------------------------------------------ #
    # DELETE-MIN
    # ------------------------------------------------------------------ #
    def delete_min(self):
        """Pop the global minimum; refill alpha/beta lazily as needed."""
        if self.size == 0:
            raise IndexError("delete_min from an empty priority queue")
        if not self._alpha:
            self._refill_alpha()
        self.size -= 1
        return self._alpha.pop(0)

    def pop_batch(self) -> list:
        """Drain and return the whole alpha working set (refilled first if
        empty) in one bulk operation — ascending order.

        Equivalent to calling :meth:`delete_min` ``len(batch)`` times with no
        interleaved inserts (refills trigger at exactly the same points, so
        charges are identical); the vectorized heapsort driver drains through
        this instead of popping one record at a time.
        """
        if self.size == 0:
            raise IndexError("pop_batch from an empty priority queue")
        if not self._alpha:
            self._refill_alpha()
        batch = self._alpha
        self._alpha = []
        self.size -= len(batch)
        return batch

    def _refill_alpha(self) -> None:
        """Move the ``M/4`` smallest valid beta records into alpha (Lemma
        4.8), refilling beta from the tree first if it holds none.

        The model makes one read-only pass over beta, keeping the smallest
        records in the declared alpha working set.  The vectorized kernel
        selects from one run with no phase boundary, which is a sort and a
        cut: it sorts the fresh list :meth:`_valid_beta` returns (stable,
        so equal records keep scan order) and keeps its first ``take``
        records.  That list is up to ``2kM`` records of simulator scratch,
        which the queue's ``MemoryGuard`` declaration (alpha plus four
        blocks) does not count.
        """
        if self._beta_valid == 0:
            self._refill_beta_from_tree()
        self.alpha_refills += 1
        take = min(self.alpha_capacity, self._beta_valid)
        assert take > 0, "refill with no records anywhere despite size > 0"
        # Lemma 4.8: one read-only pass over beta keeping the `take` smallest
        # valid records in memory (a bounded max-heap), then one appended
        # deletion pair.
        self._seal_beta_writer()
        if self.kernel == SLOW_REFERENCE:
            batch = heap_smallest(self._iter_valid_beta(), take)
        else:
            batch = self._valid_beta()
            batch.sort()
            del batch[take:]
        self._alpha = batch
        x = batch[-1]
        # implicit deletion: everything with index <= current length and key
        # <= x is now invalid; keep the pair list's (i asc, x desc) invariant
        while self._pairs and self._pairs[-1][1] <= x:
            self._pairs.pop()
        self._pairs.append((self._beta_len - 1, x))
        self._beta_valid -= len(batch)
        if self._beta_valid == 0:
            self._beta_max = None
        self._extractions_since_rebuild += 1
        if self._extractions_since_rebuild >= self.k:
            self._rebuild_beta()

    def _iter_valid_beta(self):
        """Stream beta's valid records: scan blocks, filtering by the pair
        list (record at index j is invalid iff some pair (i, x) has j <= i
        and key <= x; with the invariant it suffices to find the first pair
        with i >= j and compare against its x)."""
        pairs = self._pairs
        idx = 0
        pi = 0
        for bi in range(self._beta.num_blocks):
            if self._beta.block_len(bi) == 0:  # empty placeholder: no transfer
                continue
            block = self.machine.read_block(self._beta, bi, copy=False)
            for rec in block:
                while pi < len(pairs) and pairs[pi][0] < idx:
                    pi += 1
                invalid = pi < len(pairs) and rec <= pairs[pi][1]
                if not invalid:
                    yield rec
                idx += 1

    def _valid_beta(self) -> list:
        """Vectorized counterpart of :meth:`_iter_valid_beta`: beta's valid
        records as one list, in scan order (same filter, same charges — one
        batched read of every non-empty block).

        The pair list is sorted by index, so the flattened scan splits into
        one segment per deletion pair, each filtered by one comprehension;
        records past the last pair's index are all valid.
        """
        flat: list = []
        for block in self.machine.scan_blocks(self._beta):
            flat += block
        if not self._pairs:
            return flat
        valid: list = []
        start = 0
        for bound_i, x in self._pairs:
            end = bound_i + 1
            if end > start:
                valid += [r for r in flat[start:end] if r > x]
                start = end
        valid += flat[start:]
        return valid

    def _seal_beta_writer(self) -> None:
        if self._beta_writer is not None and not self._beta_writer.closed:
            self._beta_writer.close()
            self._beta_writer = None

    # ------------------------------------------------------------------ #
    # beta maintenance
    # ------------------------------------------------------------------ #
    def _rebuild_beta(self) -> None:
        """Compact beta: drop invalid records, clear the pair list (Lem 4.9)."""
        self.beta_rebuilds += 1
        self._seal_beta_writer()
        writer = self.machine.writer(name="beta")
        count = 0
        new_max = None
        if self.kernel == SLOW_REFERENCE:
            for rec in self._iter_valid_beta():
                writer.append(rec)
                count += 1
                if new_max is None or rec > new_max:
                    new_max = rec
        else:
            valid = self._valid_beta()
            writer.extend(valid)
            count = len(valid)
            if valid:
                new_max = max(valid)
        self._beta = writer.close()
        self._beta_len = count
        self._beta_valid = count
        self._beta_max = new_max
        self._pairs = []
        self._extractions_since_rebuild = 0

    def _beta_overflow(self) -> None:
        """Beta exceeded ``2kM`` valid records: rebuild, sort, keep the
        smallest ``kM`` in beta and push the largest ``kM`` into the tree."""
        self.beta_overflows += 1
        self._rebuild_beta()
        from .selection_sort import selection_sort

        sorted_beta = selection_sort(
            self.machine, self._beta, guard=self.guard, kernel=self.kernel
        )
        keep = self._beta_valid - self._beta_valid // 2
        writer = self.machine.writer(name="beta")
        new_max = None
        if self.kernel == SLOW_REFERENCE:
            idx = 0
            for rec in self.machine.scan(sorted_beta):
                if idx < keep:
                    writer.append(rec)
                    new_max = rec
                else:
                    self.tree.insert(rec)
                idx += 1
        else:
            # sorted scan: the first `keep` records stay in beta (slice per
            # block), the suffix streams into the buffer tree
            idx = 0
            for block in self.machine.scan_blocks(sorted_beta):
                end = idx + len(block)
                if end <= keep:
                    writer.extend(block)
                    new_max = block[-1]
                else:
                    head = block[: keep - idx] if idx < keep else []
                    if head:
                        writer.extend(head)
                        new_max = head[-1]
                    self.tree.insert_many(block[len(head):])
                idx = end
        self._beta = writer.close()
        self._beta_len = keep
        self._beta_valid = keep
        self._beta_max = new_max
        self._pairs = []

    # ------------------------------------------------------------------ #
    # tree refill
    # ------------------------------------------------------------------ #
    def _refill_beta_from_tree(self) -> None:
        """Beta is empty: pull the buffer tree's leftmost leaf (>= kM/4
        records once the tree is warm) into beta."""
        self.tree_refills += 1
        leaf = self.tree.pop_leftmost_leaf()
        if leaf is None:
            raise AssertionError("tree refill requested but buffer tree is empty")
        # rewrite the (sorted) leaf as the new beta contents
        writer = self.machine.writer(name="beta")
        count = 0
        new_max = None
        if self.kernel == SLOW_REFERENCE:
            for rec in self.machine.scan(leaf):
                writer.append(rec)
                count += 1
                new_max = rec
        else:
            records: list = []
            for block in self.machine.scan_blocks(leaf):
                records += block
            writer.extend(records)
            count = len(records)
            new_max = records[-1]
        self._beta = writer.close()
        self._beta_len = count
        self._beta_valid = count
        self._beta_max = new_max
        self._pairs = []
        self._extractions_since_rebuild = 0


# ---------------------------------------------------------------------- #
# heapsort driver
# ---------------------------------------------------------------------- #
def aem_heapsort(
    machine: AEMachine,
    arr: ExtArray,
    k: int = 1,
    guard: MemoryGuard | None = None,
    *,
    kernel: str | None = None,
) -> ExtArray:
    """Sort by ``n`` INSERTs followed by ``n`` DELETE-MINs (§4.3 closing).

    Total cost ``O((kn/B)(1 + log_{kM/B} n))`` reads and
    ``O((n/B)(1 + log_{kM/B} n))`` writes, matching Theorem 4.10.

    The vectorized kernel feeds the whole scanned input to one
    :meth:`AEMPriorityQueue.insert_block` and drains whole alpha batches
    (:meth:`AEMPriorityQueue.pop_batch`) instead of one INSERT and one
    DELETE-MIN per record; cascades and refills — and therefore charges —
    happen at exactly the same points.
    """
    kernel = resolve_kernel(kernel)
    pq = AEMPriorityQueue(machine, k, guard=guard, kernel=kernel)
    if kernel == SLOW_REFERENCE:
        for rec in machine.scan(arr):
            pq.insert(rec)
        out = machine.writer(name="heapsort-out")
        for _ in range(arr.length):
            out.append(pq.delete_min())
        return out.close()
    records: list = []
    for block in machine.scan_blocks(arr):
        records += block
    pq.insert_block(records)
    out = machine.writer(name="heapsort-out")
    written = 0
    n = arr.length
    while written < n:
        batch = pq.pop_batch()
        out.extend(batch)
        written += len(batch)
    return out.close()


# ---------------------------------------------------------------------- #
# Theorem 4.10 closed forms
# ---------------------------------------------------------------------- #
# The planner and StreamSession rank with these; certify uses
# formulas.pq_amortized_*, which floors the log at 1 and so reads higher
# below n = kM/B.  Merging the two would move one side's predictions.
def predicted_amortized_reads(n: int, M: int, B: int, k: int) -> float:
    """Per-operation read bound (unit leading constant)."""
    levels = 1 + max(0.0, math.log(max(n, 2)) / math.log(k * M / B))
    return (k / B) * levels


def predicted_amortized_writes(n: int, M: int, B: int, k: int) -> float:
    """Per-operation write bound (unit leading constant)."""
    levels = 1 + max(0.0, math.log(max(n, 2)) / math.log(k * M / B))
    return (1 / B) * levels
