"""The cluster gather step: k-way merge of sorted shards.

The coordinator's scatter-gather (see :mod:`repro.cluster`) sorts per-host
shards remotely and merges them centrally.  That merge is the one step of
the distributed plan that moves blocks on the *coordinator's* machine, so it
is a first-class kernel: registered, contracted, and billed through the
same :class:`~repro.models.counters.CostCounter` as every §4 algorithm.

Cost (the merge step of the paper's multi-way merging, §4.1): with one
resident block per shard plus a store buffer — primary memory
``(k+1) * B`` — merging ``k`` sorted shards of total length ``n`` takes
exactly ``sum_i ceil(n_i/B)`` reads and ``ceil(n/B)`` writes: every input
block is loaded once, every output block is written once.

Both kernel modes are provided (see :mod:`repro.core.kernels`): the
vectorized path slices maximal non-crossing segments with ``bisect`` like
:func:`repro.core.em_utils._merge_two` generalized to k streams; the
reference path is a record-at-a-time ``heapq`` merge.  Ties break by shard
index (the scatter partition is order-preserving, so this keeps the merge
stable), and charges are identical in both modes.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Sequence

from ..models.external_memory import AEMachine, ExtArray, MemoryGuard
from .kernels import SLOW_REFERENCE, register_kernel_entry, resolve_kernel

register_kernel_entry(
    "shardmerge",
    entry="repro.core.shard_merge:shard_merge",
    contract="Section 4.1 (k-way shard merge)",
)


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
    Ties break by shard index, so concatenating the shards of a stable
    partition and merging reproduces a stable sort.

    ``kernel`` selects the block-granular fast path (``"vectorized"``,
    default) or the record-at-a-time reference (``"slow_reference"``); both
    produce identical blocks and identical counters.
    """
    if resolve_kernel(kernel) == SLOW_REFERENCE:
        return _shard_merge_slow(machine, shards, guard)

    params = machine.params
    out = machine.writer(name="shardmerge-out")
    live = [s for s in shards if s.length]
    if not live:
        return out.close()

    if guard is None:
        guard = MemoryGuard()
    budget = (len(live) + 1) * params.B
    guard.acquire(budget)
    try:
        # one cursor per shard: (shard index, block iterator, block, offset)
        streams = []
        for idx, shard in enumerate(live):
            it = machine.scan_blocks(shard)
            blk = next(it, None)
            if blk is not None:
                streams.append([idx, it, blk, 0])
        while streams:
            if len(streams) == 1:
                # sole survivor: drain its remaining blocks wholesale
                _, it, blk, off = streams[0]
                while blk is not None:
                    out.extend(blk[off:] if off else blk)
                    blk = next(it, None)
                    off = 0
                break
            # limiter: minimal (block-last, shard index) over the resident
            # blocks.  Every future record of stream i sorts at key
            # >= (blk_i[-1], i), so any resident record whose (value, shard)
            # key is below that bound is safe to emit this round — the whole
            # safe set at once, not one record at a time.
            lim_val, lim_idx = min((s[2][-1], s[0]) for s in streams)
            chunks = []
            exhausted = []
            for s in streams:  # kept in shard-index order: ties stay stable
                idx, _it, blk, off = s
                if idx <= lim_idx:
                    cut = bisect.bisect_right(blk, lim_val, off)
                else:
                    cut = bisect.bisect_left(blk, lim_val, off)
                if cut > off:
                    chunks.append(
                        blk if off == 0 and cut == len(blk) else blk[off:cut]
                    )
                if cut >= len(blk):
                    exhausted.append(s)
                else:
                    s[3] = cut
            if len(chunks) == 1:
                out.extend(chunks[0])
            else:
                # chunks are sorted runs concatenated in shard order, so a
                # stable sort both merges them and applies the tie rule
                merged = [rec for chunk in chunks for rec in chunk]
                merged.sort()
                out.extend(merged)
            for s in exhausted:  # the limiter always refills: progress
                nxt = next(s[1], None)
                if nxt is None:
                    streams.remove(s)
                else:
                    s[2] = nxt
                    s[3] = 0
    finally:
        guard.release(budget)
    return out.close()


def _shard_merge_slow(
    machine: AEMachine,
    shards: Sequence[ExtArray],
    guard: MemoryGuard | None = None,
) -> ExtArray:
    """Record-at-a-time reference merge (parity baseline)."""
    params = machine.params
    out = machine.writer(name="shardmerge-out")
    live = [s for s in shards if s.length]
    if not live:
        return out.close()

    if guard is None:
        guard = MemoryGuard()
    budget = (len(live) + 1) * params.B
    guard.acquire(budget)
    try:
        records = [machine.reader(s).records() for s in live]
        heap = []
        for idx, it in enumerate(records):
            v = next(it, _DONE)
            if v is not _DONE:
                heap.append((v, idx))
        heapq.heapify(heap)
        while heap:
            v, idx = heapq.heappop(heap)
            out.append(v)
            nxt = next(records[idx], _DONE)
            if nxt is not _DONE:
                heapq.heappush(heap, (nxt, idx))
    finally:
        guard.release(budget)
    return out.close()


_DONE = object()
