"""Lemma 4.2: the AEM base-case sort (k-pass selection sort).

*"n <= kM records stored in ceil(n/B) blocks can be sorted using at most
k*ceil(n/B) reads and ceil(n/B) writes, on the AEM model with primary memory
size M + B."*

Each phase scans the whole input (``ceil(n/B)`` reads), retains in primary
memory the ``M`` smallest records strictly larger than the largest record
written so far, then emits them in sorted order (``M/B`` block writes).  With
``ceil(n/M) <= k`` phases, every record is written exactly once.

Primary memory: the M-record working set + one load block (+ the store buffer,
which the model's ``M + B`` budget absorbs because the working set shrinks as
records are emitted; we keep the accounting conservative and charge both).

Duplicate keys: the phase cutoff ("strictly larger than the largest record
written so far") stalls on inputs whose duplicate runs exceed ``M``, so both
paths apply the paper's §2 remark — *"a position index can always be added to
make keys unique"* — below the engine: records are ordered as
``(record, scan position)`` pairs.  Positions come from the scan order alone
(free metadata, no extra I/O), the cutoff always advances by exactly
``min(M, remaining)`` records per phase, and the emitted order is the
*stable* sort of the input.  The reference builds the pairs.  The vectorized
path leaves the index implicit: the sort never writes to its input, so every
phase's scan reads the same records, and phase ``p`` emits the records of
stable rank ``pM`` to ``(p+1)M - 1``.  :func:`selection_phases` therefore
sorts phase 1's scan once with the stable ``list.sort()`` and writes one
``M``-record slice per phase, while phases 2 onwards still make (and are
charged for) their scans.  Counters are unchanged and meet the lemma's exact
bounds on every input, and the output is ``sorted(input)`` element for
element wherever ``sorted()`` accepts the input.
"""

from __future__ import annotations

from ..models.external_memory import AEMachine, ExtArray, MemoryGuard
from .kernels import SLOW_REFERENCE, heap_smallest, resolve_kernel


def selection_sort(
    machine: AEMachine,
    arr: ExtArray,
    guard: MemoryGuard | None = None,
    *,
    kernel: str | None = None,
) -> ExtArray:
    """Sort ``arr`` with the Lemma 4.2 multi-pass selection sort.

    Returns a new sorted :class:`ExtArray`.  Works for any ``n`` (the lemma's
    read bound ``k * ceil(n/B)`` holds with ``k = ceil(n/M)``), but the AEM
    algorithms only invoke it for ``n <= kM`` where that ``k`` matches their
    branching parameter.

    ``kernel`` selects the block-granular fast path (``"vectorized"``,
    default) or the record-at-a-time reference (``"slow_reference"``); both
    produce identical blocks and identical counters.
    """
    slow = resolve_kernel(kernel) == SLOW_REFERENCE
    params = machine.params
    n = arr.length
    out_writer = machine.writer(name=f"selsort({arr.name})")
    if n == 0:
        return out_writer.close()

    if guard is None:
        guard = MemoryGuard()
    # M-record working set + load block + store buffer
    guard.acquire(params.M + 2 * params.B)

    try:
        if slow:
            reference_phases(machine, arr, n, params.M, out_writer)
        else:
            selection_phases(
                lambda: machine.scan_blocks(arr), n, params.M, out_writer
            )
    finally:
        guard.release(params.M + 2 * params.B)
    return out_writer.close()


def selection_phases(scan, n: int, M: int, out_writer) -> None:
    """The vectorized Lemma 4.2 phase loop: write the ``n`` records that
    ``scan()`` yields to ``out_writer`` in stable sorted order, ``M`` per
    phase.

    ``scan()`` returns one charged pass over the input's blocks, and every
    phase calls it once.  The input does not change between phases, so
    phase 1's scan is flattened and sorted once (``list.sort()`` is stable:
    equal records keep scan order, as the reference's ``(record, scan
    position)`` pairs do) and each phase writes its ``M``-record slice.
    Phases 2 onwards consume their scans to the end without keeping a
    record, so their reads are made and charged as the lemma counts them.
    The sorted list is simulator scratch (at most ``kM`` records inside the
    §4 sorts), which the callers' ``MemoryGuard`` declarations do not count.
    """
    records: list = []
    for start in range(0, n, M):
        if start:
            for _ in scan():  # the lemma's re-read: made and charged, not kept
                pass
        else:
            for block in scan():
                records += block
            records.sort()
        out_writer.extend(records[start:start + M])


def reference_phases(
    machine: AEMachine, arr: ExtArray, n: int, M: int, out_writer
) -> None:
    """The record-at-a-time Lemma 4.2 phase loop over ``arr``'s first ``n``
    records: the parity oracle for :func:`selection_phases`, shared by the
    reference selection sort and the buffer tree's reference prefix sort.

    Each phase scans the prefix one record at a time and keeps, in a
    bounded max-heap (in-memory work is free in the model), the ``M``
    smallest ``(record, scan position)`` pairs past the last pair emitted:
    the §2 position index, so the cutoff advances through duplicate runs.
    """
    last_max = None  # largest (record, scan position) pair emitted so far
    emitted = 0
    while emitted < n:
        batch = heap_smallest(_pairs_past(machine, arr, n, last_max), M)
        if not batch:
            raise AssertionError(
                "selection phase found no records although output is incomplete"
            )
        for rec, _ in batch:
            out_writer.append(rec)
        emitted += len(batch)
        last_max = batch[-1]


def _pairs_past(machine: AEMachine, arr: ExtArray, n: int, last_max):
    """One charged record-at-a-time scan of ``arr``'s first ``n`` records,
    yielding the ``(record, scan position)`` pairs greater than
    ``last_max``.  Blocks past the prefix are not read."""
    pos = 0
    for bi in range(arr.num_blocks):
        if pos >= n:
            return
        if arr.block_len(bi) == 0:  # empty placeholder: nothing to transfer
            continue
        for rec in machine.read_block(arr, bi, copy=False):
            if pos >= n:
                return
            pair = (rec, pos)
            pos += 1
            if last_max is not None and pair <= last_max:
                continue
            yield pair

