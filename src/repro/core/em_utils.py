"""Small external-memory utilities shared by the §4 algorithms.

The main export is :func:`em_two_way_mergesort`, the plain 2-way external
mergesort the paper invokes for *sample* sorting inside the AEM sample sort
("apply a RAM mergesort, which requires at most
O(((l log n0)/B) log(l log n0 / M)) reads and writes").  It is deliberately
the textbook algorithm: run formation by in-memory sorting of M-record
chunks, then repeated pairwise streaming merges.

Both kernel modes are provided (see :mod:`repro.core.kernels`): the
vectorized path forms runs from whole scanned blocks and merges two runs
with one stable sort of their concatenation instead of comparing record
pairs one at a time.  Charges and output blocks are identical.
"""

from __future__ import annotations

from ..models.external_memory import AEMachine, ExtArray
from .kernels import SLOW_REFERENCE, resolve_kernel


def em_two_way_mergesort(
    machine: AEMachine, arr: ExtArray, *, kernel: str | None = None
) -> ExtArray:
    """Two-way external mergesort: O((n/B)(1 + log2(n/M))) reads and writes."""
    slow = resolve_kernel(kernel) == SLOW_REFERENCE
    params = machine.params
    n = arr.length
    if n == 0:
        return machine.writer(name="em2sort-out").close()

    # --- run formation: sort M-record chunks in memory ------------------ #
    runs: list[ExtArray] = []
    buf: list = []
    if slow:
        for rec in machine.scan(arr):
            buf.append(rec)
            if len(buf) == params.M:
                writer = machine.writer(name="run")
                writer.extend(sorted(buf))
                runs.append(writer.close())
                buf = []
    else:
        for block in machine.scan_blocks(arr):
            buf.extend(block)
            while len(buf) >= params.M:
                writer = machine.writer(name="run")
                writer.extend(sorted(buf[: params.M]))
                runs.append(writer.close())
                del buf[: params.M]
    if buf:
        writer = machine.writer(name="run")
        writer.extend(sorted(buf))
        runs.append(writer.close())

    # --- pairwise merge passes ------------------------------------------ #
    merge = _merge_two_slow if slow else _merge_two
    while len(runs) > 1:
        next_runs: list[ExtArray] = []
        for i in range(0, len(runs), 2):
            if i + 1 == len(runs):
                next_runs.append(runs[i])
                continue
            next_runs.append(merge(machine, runs[i], runs[i + 1]))
        runs = next_runs
    return runs[0]


def _merge_two(machine: AEMachine, a: ExtArray, b: ExtArray) -> ExtArray:
    """Merge two sorted runs with one stable sort.

    Reads ``a`` then ``b``, each with one charged scan consumed to the end,
    into one list (simulator scratch), sorts it once with the stable
    ``list.sort()`` and writes it with one ``extend``.  Stability sends
    ties to ``a``, as the reference's ``va <= vb`` does, so the output
    blocks and the charges are the reference's.
    """
    records: list = []
    for run in (a, b):  # a first: the stable sort's tie rule
        for block in machine.scan_blocks(run):
            records += block
    records.sort()
    out = machine.writer(name="merge2-out")
    out.extend(records)
    return out.close()


def _merge_two_slow(machine: AEMachine, a: ExtArray, b: ExtArray) -> ExtArray:
    """Record-at-a-time reference merge (parity baseline)."""
    out = machine.writer(name="merge2-out")
    ita = machine.scan(a)
    itb = machine.scan(b)
    va = next(ita, _DONE)
    vb = next(itb, _DONE)
    while va is not _DONE and vb is not _DONE:
        if va <= vb:
            out.append(va)
            va = next(ita, _DONE)
        else:
            out.append(vb)
            vb = next(itb, _DONE)
    while va is not _DONE:
        out.append(va)
        va = next(ita, _DONE)
    while vb is not _DONE:
        out.append(vb)
        vb = next(itb, _DONE)
    return out.close()


_DONE = object()
