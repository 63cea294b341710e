"""The cluster gather step: k-way merge of sorted shards.

The coordinator's scatter-gather (see :mod:`repro.cluster`) sorts per-host
shards remotely and merges them centrally.  That merge is the one step of
the distributed plan that moves blocks on the *coordinator's* machine, so it
is a first-class kernel: contracted, and billed through the same
:class:`~repro.models.counters.CostCounter` as every §4 algorithm.

Cost (the merge step of the paper's multi-way merging, §4.1): with one
resident block per shard plus a store buffer — primary memory
``(k+1) * B`` — merging ``k`` sorted shards of total length ``n`` takes
exactly ``sum_i ceil(n_i/B)`` reads and ``ceil(n/B)`` writes: every input
block is loaded once, every output block is written once.

Both kernel modes (see :mod:`repro.core.kernels`) need sorted shards.
The vectorized kernel reads each non-empty shard with one charged scan, in
shard order, into one list (simulator scratch), sorts it once with the
stable ``list.sort()`` and writes it with one ``extend``: ties break by
shard index, then position.  The coordinator's range-partitioned shards
form one run that timsort only checks; overlapping shards get its
galloping run merge.  The reference is a record-at-a-time ``heapq`` merge.
An unsorted shard comes back sorted, not flagged: a bad remote sort is
caught by the hosts' ``check_sorted``, which
:meth:`~repro.cluster.ClusterCoordinator.sort` forwards with each shard.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from ..models.external_memory import AEMachine, BlockWriter, ExtArray, MemoryGuard
from .kernels import SLOW_REFERENCE, resolve_kernel


def shard_merge(
    machine: AEMachine,
    shards: Sequence[ExtArray],
    guard: MemoryGuard | None = None,
    *,
    kernel: str | None = None,
) -> ExtArray:
    """Merge ``k`` sorted shards into one sorted :class:`ExtArray`.

    Exactly ``sum_i ceil(n_i/B)`` reads and ``ceil(n/B)`` writes; primary
    memory ``(k+1) * B`` (one load block per shard + the store buffer).
    Every shard must be sorted.  Ties break by shard index, then by
    position, so merging the shards of a stable partition reproduces a
    stable sort.

    ``kernel`` selects the one-sort fast path (``"vectorized"``, default)
    or the record-at-a-time reference (``"slow_reference"``); both
    produce identical blocks and identical counters.
    """
    slow = resolve_kernel(kernel) == SLOW_REFERENCE
    out = machine.writer(name="shardmerge-out")
    live = [s for s in shards if s.length]
    if not live:
        return out.close()

    if guard is None:
        guard = MemoryGuard()
    budget = (len(live) + 1) * machine.params.B
    guard.acquire(budget)
    try:
        if slow:
            _shard_merge_slow(machine, live, out)
        else:
            records: list = []
            for shard in live:  # shard order: the stable sort's tie rule
                for block in machine.scan_blocks(shard):
                    records += block
            records.sort()
            out.extend(records)
    finally:
        guard.release(budget)
    return out.close()


def _shard_merge_slow(
    machine: AEMachine, live: Sequence[ExtArray], out: BlockWriter
) -> None:
    """Record-at-a-time reference merge (parity baseline) of the non-empty
    shards ``live`` into ``out``."""
    streams = [machine.scan(s) for s in live]
    heap = []
    for idx, it in enumerate(streams):
        v = next(it, _DONE)
        if v is not _DONE:
            heap.append((v, idx))
    heapq.heapify(heap)
    while heap:
        v, idx = heapq.heappop(heap)
        out.append(v)
        nxt = next(streams[idx], _DONE)
        if nxt is not _DONE:
            heapq.heappush(heap, (nxt, idx))


_DONE = object()
