"""Kernel modes: vectorized block kernels vs the record-at-a-time
reference implementations.

The paper's algorithms are *defined* in block transfers, but the original
implementations execute them record-at-a-time: ``machine.scan`` yields one
record per iteration, ``BlockWriter.append`` is called once per record, and
the cost counter is touched on every block event.  On a real interpreter that
makes simulated wall-clock a function of Python dispatch overhead, not of the
algorithms.  The *vectorized* kernels move whole blocks — ``scan_blocks`` /
``BlockWriter.extend`` — partition and merge with ``bisect`` over sorted
blocks, and charge the counter in batches
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
kernel, which sorts the read-only input once with the stable ``list.sort()``
and writes one slice of it per phase (each phase's scan still made and
charged).  :func:`heap_smallest`, the reference's bounded selection, has no
vectorized twin here: a vectorized selection from one run is a sort and a
cut.

Every sort entry point takes ``kernel=None``, which means ``"vectorized"``;
pass ``kernel="slow_reference"`` to run the reference.  The kernels and
their entry points are declared once, in the cost-contract table of
:mod:`repro.analysis.boundcheck` (``declare_contract(..., entry=...)``).
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


def heap_smallest(records, take: int) -> list:
    """The record-at-a-time bounded selection of the reference kernels: the
    ``take`` smallest of ``records``, ascending, kept in a bounded max-heap
    one record at a time.  The vectorized kernels get the same records
    with one stable ``list.sort()`` and a cut."""
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
