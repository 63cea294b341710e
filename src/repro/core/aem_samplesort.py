"""§4.2: AEM sample sort (distribution sort) with fanout l = kM/B.

Each level of recursion:

1. **Splitter selection** — sample ``Theta(l log n0)`` keys at random, sort
   the sample externally (2-way EM mergesort), sub-select ``l - 1`` evenly
   spaced splitters.  W.h.p. every bucket is within a constant factor of the
   average size ``n/l`` (Frazer–McKellar / Blelloch et al. over-sampling).
2. **Partitioning** — ``k`` rounds over the splitters, ``M/B`` splitters per
   round.  Each round scans the entire input (``ceil(n/B)`` reads) and writes
   out only the records belonging to that round's ``M/B`` buckets (one
   in-memory partial block per bucket, hence the ``+ l`` partial-block write
   term of Theorem 4.5).
3. **Recursion** on each bucket; base case ``n <= kM`` uses Lemma 4.2.

Small-subproblem rule (from the paper): when ``n <= k^2 M^2 / B`` the fanout
drops to ``l = ceil(n/(kM))`` so the splitter-sorting cost stays a
lower-order term; this guarantees ``l <= sqrt(n/B)``.

Theorem 4.5 bounds (w.h.p.): ``R(n) = O((kn/B) ceil(log_{kM/B}(n/B)))`` and
``W(n) = O((n/B) ceil(log_{kM/B}(n/B)))``.
"""

from __future__ import annotations

import bisect
import math
import random

from ..models.external_memory import AEMachine, ExtArray, MemoryGuard
from .em_utils import em_two_way_mergesort
from .kernels import SLOW_REFERENCE, resolve_kernel
from .selection_sort import selection_sort


#: Over-sampling multiplier (the paper's Theta(l log n0) constant).
SAMPLE_FACTOR = 4


def aem_samplesort(
    machine: AEMachine,
    arr: ExtArray,
    k: int = 1,
    seed: int = 0,
    guard: MemoryGuard | None = None,
    sample_factor: int = SAMPLE_FACTOR,
    splitters: str = "random",
    kernel: str | None = None,
) -> ExtArray:
    """Sort ``arr`` with the §4.2 sample sort; ``k = 1`` is the classic EM
    distribution sort.  Returns a new sorted :class:`ExtArray`.

    ``sample_factor`` scales the over-sampling constant (the Theta in
    ``Theta(l log n0)``); the E17 ablation sweeps it to show the bucket-
    balance / sampling-cost trade.

    ``splitters="deterministic"`` uses the Aggarwal–Vitter-style selection
    the paper says "is likely" to work (§4.2's closing remark): sort
    ``M``-record chunks in memory, keep every ``(M/(2l))``-th record of each
    sorted chunk, sort the collected sample, sub-select ``l - 1`` evenly.
    The classic counting argument makes every bucket at most ``~2n/l``
    records **deterministically** (no w.h.p. qualifier); the cost is one
    extra input scan per level, absorbed by Theorem 4.5's ``O(kn/B)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sample_factor < 1:
        raise ValueError(f"sample_factor must be >= 1, got {sample_factor}")
    if splitters not in ("random", "deterministic"):
        raise ValueError(f"unknown splitter mode {splitters!r}")
    if guard is None:
        guard = MemoryGuard()
    rng = random.Random(seed)
    return _sort(
        machine,
        arr,
        k,
        rng,
        guard,
        n0=max(arr.length, 2),
        sf=sample_factor,
        deterministic=splitters == "deterministic",
        kernel=resolve_kernel(kernel),
    )


def _sort(
    machine: AEMachine,
    arr: ExtArray,
    k: int,
    rng: random.Random,
    guard: MemoryGuard,
    n0: int,
    sf: int = SAMPLE_FACTOR,
    deterministic: bool = False,
    kernel: str = "vectorized",
) -> ExtArray:
    params = machine.params
    n = arr.length

    if n <= k * params.M:
        return selection_sort(machine, arr, guard=guard, kernel=kernel)

    # fanout: full l = kM/B, except near the bottom of the recursion
    if n <= (k * params.M) ** 2 / params.B:
        l = max(2, math.ceil(n / (k * params.M)))
    else:
        l = params.fanout(k)

    if deterministic:
        splitters = _choose_splitters_deterministic(machine, arr, l, kernel=kernel)
    else:
        splitters = _choose_splitters(machine, arr, l, rng, n0, sf=sf, kernel=kernel)
    buckets = _partition(machine, arr, splitters, k, guard, kernel=kernel)
    sorted_buckets = [
        _sort(machine, b, k, rng, guard, n0, sf=sf, deterministic=deterministic,
              kernel=kernel)
        for b in buckets
    ]
    return machine.concat(sorted_buckets, name="samplesort-out")


# ---------------------------------------------------------------------- #
# splitter selection
# ---------------------------------------------------------------------- #
def _choose_splitters(
    machine: AEMachine,
    arr: ExtArray,
    l: int,
    rng: random.Random,
    n0: int,
    sf: int = SAMPLE_FACTOR,
    kernel: str = "vectorized",
) -> list:
    """Sample, sort externally, sub-select ``l - 1`` evenly spaced keys."""
    n = arr.length
    m = min(n, sf * l * max(1, math.ceil(math.log2(n0))))

    # Read the sampled records.  Sampling by position, grouped by block so a
    # block containing several samples is read once.
    positions = sorted(rng.sample(range(n), m))
    sample_writer = machine.writer(name="sample")
    # positions -> (block, offset); arr may contain partial blocks, so walk
    # blocks in order tracking the running record offset.
    pos_iter = iter(positions)
    want = next(pos_iter, None)
    offset = 0
    for bi in range(arr.num_blocks):
        blk_len = arr.block_len(bi)  # length lookup is free bookkeeping
        if want is None:
            break
        if want >= offset + blk_len:
            offset += blk_len
            continue
        block = machine.read_block(arr, bi, copy=False)
        if kernel == SLOW_REFERENCE:
            while want is not None and want < offset + blk_len:
                sample_writer.append(block[want - offset])
                want = next(pos_iter, None)
        else:
            picks = []
            while want is not None and want < offset + blk_len:
                picks.append(block[want - offset])
                want = next(pos_iter, None)
            sample_writer.extend(picks)
        offset += blk_len
    sample = em_two_way_mergesort(machine, sample_writer.close(), kernel=kernel)

    # sub-select every (m/l)-th record as a splitter
    step = max(1, m // l)
    targets = [i * step for i in range(1, l) if i * step < m]
    return _select_positions(machine, sample, targets, kernel=kernel)


def _select_positions(
    machine: AEMachine, arr: ExtArray, targets: list[int], kernel: str
) -> list:
    """Scan the whole of ``arr`` (charging every block) and return the
    records at the given sorted positions."""
    if kernel == SLOW_REFERENCE:
        out: list = []
        ti = 0
        idx = 0
        for rec in machine.scan(arr):
            if ti < len(targets) and idx == targets[ti]:
                out.append(rec)
                ti += 1
            idx += 1
        return out
    # block-granular: offset arithmetic instead of a per-record index walk
    out = []
    ti = 0
    offset = 0
    for block in machine.scan_blocks(arr):
        end = offset + len(block)
        while ti < len(targets) and targets[ti] < end:
            out.append(block[targets[ti] - offset])
            ti += 1
        offset = end
    return out


def _choose_splitters_deterministic(
    machine: AEMachine, arr: ExtArray, l: int, kernel: str = "vectorized"
) -> list:
    """Aggarwal–Vitter-style deterministic splitters (§4.2's closing remark).

    Sort each ``M``-record chunk in memory (one scan), keep every
    ``ceil(M/(2l))``-th record of each sorted chunk as a sample (``~2l`` per
    chunk), sort the collected sample externally, and sub-select ``l - 1``
    evenly spaced keys.  A rank-counting argument bounds every bucket by
    roughly ``2n/l`` records with no probabilistic qualifier: between two
    consecutive chosen splitters each chunk contributes at most
    ``ceil(M/(2l))`` records per sample gap.
    """
    params = machine.params
    n = arr.length
    stride = max(1, math.ceil(params.M / (2 * l)))

    sample_writer = machine.writer(name="det-sample")
    chunk: list = []

    def flush_chunk(part: list) -> None:
        if not part:
            return
        part.sort()  # in primary memory: free
        if kernel == SLOW_REFERENCE:
            for idx in range(stride - 1, len(part), stride):
                sample_writer.append(part[idx])
        else:
            sample_writer.extend(part[stride - 1 :: stride])

    if kernel == SLOW_REFERENCE:
        for rec in machine.scan(arr):
            chunk.append(rec)
            if len(chunk) == params.M:
                flush_chunk(chunk)
                chunk = []
    else:
        for block in machine.scan_blocks(arr):
            chunk.extend(block)
            while len(chunk) >= params.M:
                flush_chunk(chunk[: params.M])
                del chunk[: params.M]
    flush_chunk(chunk)
    sample = em_two_way_mergesort(machine, sample_writer.close(), kernel=kernel)

    m = sample.length
    if m == 0:
        return []
    step = max(1, m // l)
    targets = [i * step for i in range(1, l) if i * step < m]
    return _select_positions(machine, sample, targets, kernel=kernel)


# ---------------------------------------------------------------------- #
# partitioning: k rounds of M/B splitters
# ---------------------------------------------------------------------- #
def _partition(
    machine: AEMachine,
    arr: ExtArray,
    splitters: list,
    k: int,
    guard: MemoryGuard,
    kernel: str = "vectorized",
) -> list[ExtArray]:
    """Distribute ``arr`` into ``len(splitters) + 1`` buckets.

    Processes splitters in rounds of ``M/B``; each round scans the whole
    input and writes only the records of that round's buckets, keeping one
    partial block per bucket in memory (Theorem 4.5's memory budget
    ``M + B + M/B``).

    The vectorized kernel, :func:`_distribute_blocks`, stages each bucket
    whole in a Python list and writes it with one ``extend`` per round —
    same writer contents, same charges.  The staged buckets are simulator
    scratch beyond the footprint below, which is the model's memory and
    what the ``MemoryGuard`` declares.
    """
    params = machine.params
    n_buckets = len(splitters) + 1
    per_round = max(1, params.blocks_in_memory)
    buckets: list[ExtArray] = []

    footprint = params.M + params.B + params.blocks_in_memory
    guard.acquire(footprint)
    try:
        for first_bucket in range(0, n_buckets, per_round):
            last_bucket = min(first_bucket + per_round, n_buckets)
            buckets += [
                bucket for _, bucket in _partition_round(
                    machine, arr, splitters, first_bucket, last_bucket, kernel
                )
            ]
    finally:
        guard.release(footprint)
    return buckets


def _partition_round(
    machine: AEMachine,
    arr: ExtArray,
    splitters: list,
    first_bucket: int,
    last_bucket: int,
    kernel: str,
) -> list[tuple[int, ExtArray]]:
    """One partition round: scan ``arr`` once and write the records of
    buckets ``first_bucket .. last_bucket - 1`` (bucket ``i`` holds the
    records in ``[splitters[i-1], splitters[i])``), one writer per bucket.
    Returns the round's closed non-empty buckets as ``(index, array)``
    pairs, in bucket order.  Shared by :func:`_partition` and the
    parallel sample sort's chunk tasks."""
    # key range covered by this round's buckets:
    lo = splitters[first_bucket - 1] if first_bucket > 0 else None
    hi = splitters[last_bucket - 1] if last_bucket - 1 < len(splitters) else None
    round_splitters = splitters[first_bucket : last_bucket - 1]
    writers = [
        machine.writer(name=f"bucket{first_bucket + j}")
        for j in range(last_bucket - first_bucket)
    ]
    if kernel == SLOW_REFERENCE:
        for rec in machine.scan(arr):
            if lo is not None and rec < lo:
                continue
            if hi is not None and rec >= hi:
                continue
            writers[bisect.bisect_right(round_splitters, rec)].append(rec)
    else:
        _distribute_blocks(machine.scan_blocks(arr), writers, round_splitters, lo, hi)
    closed = [(first_bucket + j, w.close()) for j, w in enumerate(writers)]
    return [(i, bucket) for i, bucket in closed if bucket.length]


def _distribute_blocks(blocks, writers, round_splitters, lo, hi) -> None:
    """Route every record of ``blocks`` within ``[lo, hi)`` to its bucket
    writer, keeping scan order inside each bucket.

    A bounded round first flattens the scan and drops the records below
    ``lo`` and at or above ``hi`` with one comprehension per bound (the
    reference's two tests).  Each surviving record is then staged in its
    bucket's list by one ``bisect_right`` against the round's splitters,
    and each bucket is written with one ``extend`` when the scan ends: the
    same block layout and charges as one ``append`` per record.  The
    staged buckets are simulator scratch; the model keeps one partial block
    per bucket, as the caller's ``MemoryGuard`` declares.
    """
    staging: list[list] = [[] for _ in writers]
    if lo is not None or hi is not None:
        flat: list = []
        for block in blocks:
            flat += block
        if lo is not None:
            flat = [r for r in flat if not r < lo]
        if hi is not None:
            flat = [r for r in flat if not r >= hi]
        blocks = (flat,)
    bisect_right = bisect.bisect_right
    for block in blocks:
        for rec in block:
            staging[bisect_right(round_splitters, rec)].append(rec)
    for writer, staged in zip(writers, staging):
        if staged:
            writer.extend(staged)

