"""Kernel-mode registry: vectorized block kernels vs the record-at-a-time
reference implementations.

The paper's algorithms are *defined* in block transfers, but the original
implementations execute them record-at-a-time: ``machine.scan`` yields one
record per iteration, ``BlockWriter.append`` is called once per record, and
the cost counter is touched on every block event.  On a real interpreter that
makes simulated wall-clock a function of Python dispatch overhead, not of the
algorithms.  The *vectorized* kernels move whole blocks — ``scan_blocks`` /
``BlockWriter.extend`` / ``extend_blocks`` — partition and merge with
``bisect`` over sorted blocks, and charge the counter in batches
(:meth:`repro.models.counters.CostCounter.charge_reads` /
:meth:`~repro.models.counters.CostCounter.charge_writes`).

Vectorization is required to be **I/O-invisible**: for every algorithm the
vectorized path must produce byte-identical output blocks and *exactly* the
same ``reads`` / ``writes`` / ``cost`` tallies as the record-at-a-time path,
because the counters are the paper's claim.  The record-at-a-time
implementations are therefore kept behind the ``"slow_reference"`` mode, and
the parity suite (``tests/test_kernel_parity.py``) pins the two modes against
each other on outputs and counters.  They are the original code except where
a stable order must be spelled out: the Lemma 4.2 selection phases (selection
sort and the buffer tree's prefix sort) select ``(record, scan position)``
pairs, so equal records leave in scan order as they do in the vectorized
kernel.

Every sort entry point takes ``kernel=None``, which means ``"vectorized"``;
pass ``kernel="slow_reference"`` to run the reference.
"""

from __future__ import annotations

import heapq

#: the block-granular fast path (default)
VECTORIZED = "vectorized"
#: the original record-at-a-time implementations, kept for parity testing
SLOW_REFERENCE = "slow_reference"

_MODES = (VECTORIZED, SLOW_REFERENCE)


def resolve_kernel(kernel: str | None) -> str:
    """Validate a ``kernel=`` argument; ``None`` means the vectorized path."""
    if kernel is None:
        return VECTORIZED
    if kernel not in _MODES:
        raise ValueError(f"unknown kernel mode {kernel!r}; choose from {_MODES}")
    return kernel


#: declarative registry of every sort path that dispatches on the kernel
#: mode: ``name -> "module:callable"``, the entry point whose ``kernel=``
#: argument selects the mode.  Populated at import time by each kernel-path
#: module via :func:`register_kernel_entry`.
KERNEL_ENTRIES: dict[str, str] = {}

#: cost-contract metadata, parallel to :data:`KERNEL_ENTRIES`:
#: ``name -> theorem label`` matching the kernel's ``declare_contract``
#: declaration in :mod:`repro.analysis.boundcheck`.  Populated by the
#: ``contract=`` argument of :func:`register_kernel_entry`; the
#: ``missing-cost-contract`` lint rule fails any registration without it.
KERNEL_CONTRACTS: dict[str, str] = {}


def register_kernel_entry(name: str, *, entry: str,
                          contract: str | None = None) -> None:
    """Declare one kernel-dispatched sort path.

    ``entry`` is the ``"module:callable"`` reference to the entry point that
    serves both modes through its ``kernel=`` argument.  The declaration is
    the contract the ``kernel-parity`` lint rule enforces statically: the
    entry point must be pinned by ``tests/test_kernel_parity.py``.

    ``contract`` is the paper-bound label (e.g. ``"Theorem 4.3"``) binding
    this kernel to its cost contract in
    :mod:`repro.analysis.boundcheck` — it must equal the ``theorem=`` of
    the kernel's ``declare_contract`` declaration there, and the
    ``missing-cost-contract`` lint rule plus ``python -m repro certify``
    both fail when it is absent or mismatched.

    Arguments must be string literals so the rules can check them without
    importing anything.
    """
    KERNEL_ENTRIES[name] = entry
    if contract is not None:
        KERNEL_CONTRACTS[name] = contract
    else:
        KERNEL_CONTRACTS.pop(name, None)


def take_smallest(blocks, take: int, lo=None, skip: int = 0) -> list:
    """The shared bounded-selection kernel: the ``take`` smallest records
    past the boundary ``(lo, skip)`` across an iterable of record lists,
    returned ascending, equal records in scan order.

    ``lo=None`` admits every record.  Otherwise ``lo`` is the last record a
    previous selection phase emitted and ``skip`` how many records equal to
    it that phase and the ones before it emitted: a record is admitted when
    it is greater than ``lo``, or equal to ``lo`` and not among the first
    ``skip`` such records in scan order.  With ``skip=1`` and unique
    records that is the plain strict ``> lo`` filter.

    This is the paper's §2 remark — *"a position index can always be added
    to make keys unique"* — with the index left implicit.  Candidates are
    appended in scan order and ``list.sort()`` is stable, so the kernel
    sorts as if by ``(record, scan position)`` without building the pairs,
    and ``(lo, skip)`` names the pair the previous phase ended on.  The
    running cutoff stays a plain ``r < cutoff``: a record scanned after the
    cutoff pair has a larger position, so an equal one is larger as a pair.

    Per block, the candidate window is filtered with one comprehension;
    while occurrences of ``lo`` remain to be skipped, one ``list.count`` per
    window finds them, and a per-record loop runs only in the window where
    the skip runs out.  The working set is pruned back to ``take`` (a
    C-level sort of a mostly sorted list) only when it overflows a
    half-working-set margin, so the amortized cost is O(log) per surviving
    candidate and the scratch stays <= 1.5 * ``take`` records.  The result
    is the exact ``take``-smallest multiset — every record the running
    cutoff drops provably cannot be among the final ``take`` — matching
    :func:`heap_smallest`, the record-at-a-time bounded max-heap of the
    reference implementations.
    """
    working: list = []
    cutoff = None  # the take-th smallest seen so far, once known
    margin = take + (take >> 1) + 1
    for block in blocks:
        if lo is None:
            cand = block if cutoff is None else [r for r in block if r < cutoff]
        elif cutoff is None:
            cand = [r for r in block if lo <= r]
        else:
            cand = [r for r in block if lo <= r < cutoff]
        if skip and cand:
            # while skip > 0 every record in working is > lo, so the cutoff
            # is too and each occurrence of lo reaches this window
            ties = cand.count(lo)
            if ties > skip:  # the skip runs out inside this window
                kept = []
                for r in cand:
                    if skip and r == lo:
                        skip -= 1
                    else:
                        kept.append(r)
                cand = kept
            elif ties:
                skip -= ties
                cand = [r for r in cand if lo < r]
        if not cand:
            continue
        working.extend(cand)
        if len(working) >= margin:
            working.sort()
            del working[take:]
            cutoff = working[-1]
    working.sort()
    del working[take:]
    return working


def heap_smallest(records, take: int) -> list:
    """The record-at-a-time reference for :func:`take_smallest` without a
    boundary: the ``take`` smallest of ``records``, ascending, kept in a
    bounded max-heap one record at a time."""
    heap: list = []
    for rec in records:
        if len(heap) < take:
            heapq.heappush(heap, _Neg(rec))
        elif rec < heap[0].value:
            heapq.heapreplace(heap, _Neg(rec))
    return sorted(item.value for item in heap)


class _Neg:
    """Max-heap adapter: orders by descending value under heapq's min-heap."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Neg") -> bool:
        return self.value > other.value
