"""Algorithm 2: AEM mergesort with branching factor l = kM/B (§4.1).

Structure
---------
* Base case ``n <= kM``: the Lemma 4.2 selection sort.
* Otherwise: partition into ``l = kM/B`` block-aligned subarrays (free),
  recursively sort each, then merge all ``l`` runs with an in-memory
  priority queue of capacity ``M``, in *rounds*:

  - **Phase 1** re-reads the current block of every run and inserts eligible
    records (``lastV < key``) into the queue, ejecting the maximum when full.
  - **Phase 2** drains the queue in increasing order to the output; whenever
    the popped record is the last of its block, the run's pointer advances
    and the next block is processed immediately.

Theorem 4.3 bounds: ``R(n) <= (k+1) ceil(n/B) ceil(log_{kM/B}(n/B))`` reads
and ``W(n) <= ceil(n/B) ceil(log_{kM/B}(n/B))`` writes.

Round-threshold correction
--------------------------
The paper's pseudocode admits phase-2 records whenever ``lastV < key <
Q.max`` with ``Q.max = +inf`` when the queue is not full.  As written this
can *strand a record permanently*: a record ``r`` rejected in phase 1
(``r > Q.max``) stays in its un-advanced block, but phase 2 may admit and
output later-block records **larger** than ``r`` (the queue is no longer
full, so ``Q.max = +inf``); once ``lastV > r``, every later round's filter
``(lastV, Q.max)`` excludes ``r`` forever.

Fix: maintain a per-round threshold ``T`` (initially ``+inf``).  Whenever a
record is passed over because of queue capacity — ejected, or skipped because
``key >= Q.max`` — lower ``T`` to that record's key.  Admit records only when
``lastV < key < T``.  Invariants (asserted in tests):

* queue contents are always ``< T`` (ejection sets ``T`` to the old max;
  skipping sets ``T`` to a key ``>=`` the current max), so every output of
  the round is ``< T``;
* every stranded record has key ``>= T > lastV`` at round end, so the next
  round's phase 1 re-admits it;
* outputs within a round are strictly increasing (phase-2 insertions exceed
  the just-popped block-last record, which is the running maximum pop).

A round still outputs at least ``M`` records whenever any capacity event
occurred (the queue held ``M`` records at that moment and all of them pop
this round), so Lemma 4.1's ``ceil(n/M)``-round bound — and hence Theorem
4.3 — is unchanged.

Kernels
-------
:func:`_merge` is the record-at-a-time reference: a sorted queue of
``(key, run, is_last)`` entries.  It is the ``slow_reference`` kernel and
runs the paper-literal ablation.  :func:`_merge_vectorized`, the default,
takes the same decisions in the same order with bare keys: the queue is two
sorted key lists, the ``is_last`` flags become a sorted list of ``(block-last
key, run)`` boundaries that drains cut at with ``bisect``, and phase 1 reads
the current block of every run in one batched charge
(:meth:`~repro.models.external_memory.AEMachine.read_blocks`).  Equal keys
in different runs need one extra rule, described in its docstring; with it
both kernels write the same blocks and charge the same reads and writes on
every input that sorts, and both raise :class:`StrandingDetected` on the
rest (see below).

Equal keys
----------
The ``lastV < key`` filter is the paper's, which assumes distinct keys (§2).
A copy of a key that is still outside the queue when another copy is
written can never be admitted again, because ``lastV`` has reached its key.
That happens when a round's cut — the phase-1 cap, an ejection or a skip —
falls between equal keys, or when equal keys straddle a block boundary of
one run.  The merge then raises :class:`StrandingDetected` instead of
returning a short output.
"""

from __future__ import annotations

import bisect
import math

from ..models.external_memory import AEMachine, ExtArray, MemoryGuard
from .kernels import SLOW_REFERENCE, resolve_kernel
from .selection_sort import selection_sort


_INF = object()  # sentinel: larger than every key


class StrandingDetected(RuntimeError):
    """Raised when a merge permanently strands a record: the paper-literal
    merge (``round_threshold=False``) through the erratum this module's
    docstring documents, either merge on repeated keys (see "Equal keys"
    there).  On distinct keys the fixed algorithm never raises this."""


class _MergeQueue:
    """In-memory double-ended priority queue of capacity M.

    Primary-memory operations are free in the AEM model, so we simply keep a
    sorted list (``bisect``-maintained).  Entries are ``(key, run_index,
    is_last_in_block)``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[tuple] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def max_key(self):
        """Largest key currently in the queue (queue must be non-empty)."""
        return self._items[-1][0]

    def push(self, entry: tuple) -> None:
        bisect.insort(self._items, entry)

    def pop_min(self) -> tuple:
        return self._items.pop(0)

    def eject_max(self) -> tuple:
        return self._items.pop()


def aem_mergesort(
    machine: AEMachine,
    arr: ExtArray,
    k: int = 1,
    guard: MemoryGuard | None = None,
    *,
    round_threshold: bool = True,
    kernel: str | None = None,
) -> ExtArray:
    """Sort ``arr`` on the AEM machine; ``k = 1`` recovers classic EM mergesort.

    Parameters
    ----------
    k:
        Extra branching factor, ``1 <= k`` (the paper uses ``k = O(omega)``;
        Appendix A gives the profitable range ``k/log k < omega/log(M/B)``).
    round_threshold:
        ``True`` (default) applies the round-threshold correction described
        in the module docstring.  ``False`` runs the paper's pseudocode
        *literally* — provided as an ablation so the erratum is empirically
        demonstrable; on adversarial inputs it raises
        :class:`StrandingDetected` instead of silently dropping records.
    kernel:
        ``"vectorized"`` (default) merges with block-granular bulk drains;
        ``"slow_reference"`` runs the original record-at-a-time queue.  The
        paper-literal ablation (``round_threshold=False``) always runs the
        reference kernel — it exists to reproduce that code path exactly.

    Returns a new sorted :class:`ExtArray`.
    """
    params = machine.params
    kernel = resolve_kernel(kernel)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    l = params.fanout(k)
    if l < 2:
        raise ValueError(
            f"fanout l = k*M/B = {l} < 2; increase M/B or k so merging can make progress"
        )
    if guard is None:
        guard = MemoryGuard()

    if arr.length <= k * params.M:
        return selection_sort(machine, arr, guard=guard, kernel=kernel)

    runs = machine.split_blocks(arr, l)
    sorted_runs = [
        aem_mergesort(machine, run, k, guard, round_threshold=round_threshold,
                      kernel=kernel)
        for run in runs
    ]
    if kernel == SLOW_REFERENCE or not round_threshold:
        return _merge(machine, sorted_runs, guard, round_threshold=round_threshold)
    return _merge_vectorized(machine, sorted_runs, guard)


def _merge(
    machine: AEMachine,
    runs: list[ExtArray],
    guard: MemoryGuard,
    *,
    round_threshold: bool = True,
) -> ExtArray:
    """Lemma 4.1 multi-way merge (with the round-threshold correction)."""
    params = machine.params
    n = sum(r.length for r in runs)
    out = machine.writer(name="merge-out")
    if n == 0:
        return out.close()

    # primary memory: queue (M) + load buffer (B) + store buffer (B)
    footprint = params.M + 2 * params.B

    queue = _MergeQueue(params.M)
    pointers = [0] * len(runs)  # I_1..I_l: current block index per run
    last_v = None  # last value written to the output (None = -inf)
    written = 0
    threshold = _INF  # per-round cap T (reset each round)

    def admissible(key) -> bool:
        if last_v is not None and key <= last_v:
            return False
        return threshold is _INF or key < threshold

    def process_block(i: int) -> None:
        """Read run i's current block and insert eligible records."""
        nonlocal threshold
        run = runs[i]
        bi = pointers[i]
        if bi >= run.num_blocks:
            return
        block = machine.read_block(run, bi, copy=False)
        for pos, rec in enumerate(block):
            if not admissible(rec):
                continue
            is_last = pos == len(block) - 1
            if queue.full:
                if rec < queue.max_key():
                    ejected = queue.eject_max()
                    if round_threshold:
                        threshold = (
                            ejected[0]
                            if threshold is _INF
                            else min(threshold, ejected[0])
                        )
                    queue.push((rec, i, is_last))
                elif round_threshold:
                    # skipped due to capacity: cap the round at this key
                    threshold = (
                        rec if threshold is _INF else min(threshold, rec)
                    )
            else:
                queue.push((rec, i, is_last))

    guard.acquire(footprint)
    try:
        while written < n:
            threshold = _INF
            # ---- phase 1: one pass over every run's current block ------
            for i in range(len(runs)):
                process_block(i)
            if len(queue) == 0:
                raise StrandingDetected(
                    "merge round admitted no records with "
                    f"{n - written} unwritten: the paper-literal filter "
                    "stranded them (see the module docstring erratum)"
                )
            # ---- phase 2: drain the queue, chasing block boundaries ----
            while len(queue) > 0:
                key, i, is_last = queue.pop_min()
                out.append(key)
                last_v = key
                written += 1
                if is_last:
                    pointers[i] += 1
                    process_block(i)
    finally:
        guard.release(footprint)
    return out.close()


def _merge_vectorized(
    machine: AEMachine,
    runs: list[ExtArray],
    guard: MemoryGuard,
) -> ExtArray:
    """Block-granular Lemma 4.1 merge (round-threshold semantics).

    Control flow — which block is read when, which records each round
    admits, ejects or strands — is *identical* to :func:`_merge`; only the
    in-memory mechanics are batched, and the queue holds bare keys instead
    of the reference's ``(key, run, is_last)`` entries:

    * **Queue.**  Two sorted key lists: ``settled``, and ``recent`` — the
      phase-2 admissions since the last merge of the two.  ``recent`` is
      merged into ``settled`` (one C-level sort of two sorted runs) once it
      holds more than ``isqrt(M*B)`` keys, or when a capacity event needs
      the queue's top.
    * **Block boundaries.**  ``bounds`` is a sorted list of ``(block-last
      key, run)`` pairs, one per run whose block-last record is queued —
      the entries the reference flags ``is_last``.  A drain pops the
      smallest pair ``(b, i)`` and writes every queued key ``<= b``
      (``bisect_right``) with one ``extend``; an ejection of the keys
      ``>= x`` deletes the pairs with key ``>= x``, a suffix of the list.
    * **Ties.**  The reference's entry order leaves the copies of ``b``
      from runs after ``i`` queued when it drains ``(b, i, True)``, so when
      the queue holds more than one copy of ``b`` the drain holds back the
      copies in those runs' admitted slices.  On unique keys it never
      fires.  A cut (phase-1 cap, ejection or skip) that splits equal keys
      strands a record in both kernels, which then raise
      :class:`StrandingDetected`; on every input that sorts the two give
      byte-identical outputs and counters.
    * **Phase 1** reads the current block of every live run in one
      :meth:`~repro.models.external_memory.AEMachine.read_blocks` batch
      (one read charged per block, in one counter update), slices each
      admissible window with ``bisect`` and keeps the ``M`` smallest keys
      with one ``sort``.  Phase-2 admission likewise slices the window and,
      on a capacity event, ejects the queue's top with one slice delete.

    The parity suite, the golden fixture and ``tests/test_merge_kernels.py``
    pin the equivalence.
    """
    params = machine.params
    n = sum(r.length for r in runs)
    out = machine.writer(name="merge-out")
    if n == 0:
        return out.close()

    footprint = params.M + 2 * params.B

    M = params.M
    spill = math.isqrt(M * params.B)  # bound on ``recent`` before it merges
    settled: list = []  # sorted queued keys
    recent: list = []  # sorted phase-2 admissions not yet merged in
    bounds: list[tuple] = []  # sorted (block-last key, run) of queued block-lasts
    n_runs = len(runs)
    slices: list = [()] * n_runs  # each run's admitted slice of its current block
    nblocks = [run.num_blocks for run in runs]
    pointers = [0] * n_runs  # I_1..I_l: current block index per run
    live = list(range(n_runs))  # runs whose pointer has not passed the end
    last_v = None  # last value written to the output (None = -inf)
    written = 0
    threshold = _INF  # per-round cap T (reset each round)

    def settle() -> None:
        settled.extend(recent)
        settled.sort()
        recent.clear()

    def process_block(i: int) -> None:
        """Read run i's current block and admit eligible records in bulk."""
        nonlocal threshold
        bi = pointers[i]
        if bi >= nblocks[i]:
            return
        block = machine.read_block(runs[i], bi, copy=False)
        blk_len = len(block)
        start = bisect.bisect_right(block, last_v)
        if threshold is _INF:
            end = blk_len
        else:
            end = bisect.bisect_left(block, threshold, start)
        seg = block[start:end]
        slices[i] = seg
        if not seg:
            return
        free = M - len(settled) - len(recent)
        if len(seg) <= free:
            # no capacity event possible
            if recent and seg[0] < recent[-1]:
                recent.extend(seg)
                recent.sort()
            else:
                recent.extend(seg)
            if len(recent) > spill:
                settle()
            if end == blk_len:
                bisect.insort(bounds, (block[-1], i))
            return
        # Capacity-constrained admission, batched.  The reference processes
        # the (ascending) segment one record at a time: fill free slots,
        # then each further record either ejects the queue max (if smaller)
        # or is skipped, capping the round threshold and ending the block
        # (everything later is larger still).  Because admitted records are
        # never the queue max, the ejected keys are exactly the top ``t`` of
        # the queue after the free slots fill, where ``t`` is the largest
        # prefix of the rest with ``rest[j] < settled[M-1-j]`` — so the
        # whole exchange is one slice delete plus one merge, and the
        # threshold drops to the smallest ejected key (then to the first
        # skipped key, if that skip was still admissible).
        settled.extend(recent)
        settled.extend(seg[:free])
        settled.sort()
        recent.clear()
        rest = seg[free:]
        t = 0
        ns = len(rest)
        while t < ns and rest[t] < settled[M - 1 - t]:
            t += 1
        if t:
            ejected_min = settled[M - t]
            threshold = (
                ejected_min if threshold is _INF else min(threshold, ejected_min)
            )
            del settled[M - t :]
            del bounds[bisect.bisect_left(bounds, (ejected_min,)) :]
            settled.extend(rest[:t])
            settled.sort()
        if t < ns:
            slices[i] = seg[: free + t]
            rec = rest[t]
            if threshold is _INF or rec < threshold:
                # skipped due to capacity while still admissible: cap the
                # round at this key
                threshold = rec
        elif end == blk_len:
            bisect.insort(bounds, (block[-1], i))

    phase1_margin = M + 1 + (M >> 1)
    guard.acquire(footprint)
    try:
        while written < n:
            # ---- phase 1: one batched read of every run's current block ----
            # The round starts with an empty queue, so its outcome is closed
            # form: the queue ends as the M smallest admissible keys across
            # all current blocks, and the round threshold T ends at the
            # (M+1)-th (every eject/skip key has M smaller keys already seen,
            # so T can never undercut it; the (M+1)-th itself is ejected,
            # skipped, or T-filtered).  Gather each run's candidate window,
            # keep the M+1 smallest (pruned at 1.5M so the scratch stays
            # bounded), then cut the queue, T and the boundaries together.
            threshold = _INF
            cutoff = None  # running (M+1)-th smallest key
            live = [i for i in live if pointers[i] < nblocks[i]]
            live_runs = [runs[i] for i in live]
            bis = [pointers[i] for i in live]
            for i, block in zip(live, machine.read_blocks(live_runs, bis)):
                blk_len = len(block)
                start = bisect.bisect_right(block, last_v) if last_v is not None else 0
                end = (
                    blk_len
                    if cutoff is None
                    else bisect.bisect_right(block, cutoff, start)
                )
                if end <= start:
                    # a run with no admitted slice keeps its old one: none of
                    # its keys equals a key queued this round
                    continue
                seg = block[start:end]
                slices[i] = seg
                settled.extend(seg)
                if end == blk_len:
                    bounds.append((block[-1], i))
                if len(settled) >= phase1_margin:
                    settled.sort()
                    del settled[M + 1 :]
                    cutoff = settled[-1]
            settled.sort()
            bounds.sort()
            if len(settled) > M:
                threshold = settled[M]
                del settled[M:]
                del bounds[bisect.bisect_left(bounds, (threshold,)) :]
            if not settled:
                raise StrandingDetected(
                    "merge round admitted no records with "
                    f"{n - written} unwritten: the paper-literal filter stranded "
                    "them (see the module docstring erratum)"
                )
            # ---- phase 2: bulk-drain up to each block boundary -------------
            while bounds:
                b, i = bounds.pop(0)
                hi = bisect.bisect_right(settled, b)
                hi_r = bisect.bisect_right(recent, b) if recent else 0
                if (
                    (hi > 1 and settled[hi - 2] == b)
                    or (hi_r > 1 and recent[hi_r - 2] == b)
                    or (hi and hi_r and settled[hi - 1] == b == recent[hi_r - 1])
                ):
                    # several queued copies of b: hold back those of later runs
                    settle()
                    hi = bisect.bisect_right(settled, b)
                    hi_r = 0
                    copies = hi - bisect.bisect_left(settled, b, 0, hi)
                    hi -= min(copies - 1, _copies_after(slices, i, b))
                if hi_r:
                    batch = settled[:hi] + recent[:hi_r]
                    batch.sort()
                    del recent[:hi_r]
                else:
                    batch = settled[:hi]
                del settled[:hi]
                out.extend(batch)
                written += len(batch)
                last_v = b
                pointers[i] += 1
                process_block(i)
            # no boundary left: drain the whole queue, ending the round
            if recent:
                settle()
            if settled:
                out.extend(settled)
                written += len(settled)
                last_v = settled[-1]
                settled.clear()
    finally:
        guard.release(footprint)
    return out.close()


def _copies_after(slices: list, i: int, b) -> int:
    """Copies of ``b`` in the admitted slices of runs ``i+1, i+2, ...``."""
    count = 0
    for seg in slices[i + 1 :]:
        if seg and not (b < seg[0] or seg[-1] < b):
            count += bisect.bisect_right(seg, b) - bisect.bisect_left(seg, b)
    return count

