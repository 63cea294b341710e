"""The Asymmetric External Memory (AEM) machine.

§2 of the paper: the EM model of Aggarwal & Vitter with a primary memory of
``M`` records, block transfers of ``B`` records, and an extra parameter
``omega`` charged per *block write* (block reads cost 1).

This module provides the executable machine the §4 algorithms run against:

* :class:`ExtArray` — an array living in (simulated) secondary memory,
  partitioned into blocks of ``B`` records; growable (for buffer-tree buffers).
* :class:`AEMachine` — owns the cost counter and the transfer instructions
  ``read_block`` / ``write_block`` (plus ``read_blocks``, a batch of reads
  under one charge).
* :class:`BlockReader` / :class:`BlockWriter` — the streaming access patterns
  every algorithm in the paper uses: sequential scans charging one read per
  block, and buffered appends charging one write per flushed block.
* :class:`MemoryGuard` — tracks the number of records an algorithm holds in
  primary memory, with a high-water mark; in strict mode it raises when the
  declared capacity is exceeded.  Tests use it to check the "primary memory
  size (M + 2B + ...)" clauses of Lemma 4.1 / Theorem 4.3 / Theorem 4.5.
* :func:`collector_paused` — keeps CPython's cyclic garbage collector off
  while an external sort runs (it finds nothing there and costs time).

Transfers move *copies*: mutating a block obtained from ``read_block`` does
not change secondary memory until it is written back, exactly as in the model.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from collections.abc import Iterable, Iterator

from .counters import CostCounter
from .params import MachineParams


class MemoryBudgetExceeded(RuntimeError):
    """Raised by a strict :class:`MemoryGuard` on over-allocation."""


class MemoryGuard:
    """Track primary-memory usage (in records) against a declared capacity.

    Parameters
    ----------
    capacity:
        Maximum number of records the algorithm claims to hold at once
        (e.g. ``M + 2B`` for the mergesort merge).  ``None`` disables checks
        but still records the high-water mark.
    strict:
        If true, exceeding the capacity raises :class:`MemoryBudgetExceeded`.
    """

    def __init__(self, capacity: int | None = None, *, strict: bool = False):
        self.capacity = capacity
        self.strict = strict
        self.in_use = 0
        self.high_water = 0

    def acquire(self, n: int) -> None:
        """Declare that ``n`` more records now reside in primary memory."""
        self.in_use += n
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        if self.strict and self.capacity is not None and self.in_use > self.capacity:
            raise MemoryBudgetExceeded(
                f"primary memory over budget: {self.in_use} > {self.capacity}"
            )

    def release(self, n: int) -> None:
        """Declare that ``n`` records left primary memory.

        Validates *before* mutating: a rejected release leaves ``in_use``
        unchanged, so accounting stays consistent after the error.
        """
        if n > self.in_use:
            raise ValueError(
                f"MemoryGuard released {n} records with only {self.in_use} in use"
            )
        self.in_use -= n

    def reset(self) -> None:
        self.in_use = 0
        self.high_water = 0


class _CollectorPause:
    """The process-wide pause behind :func:`collector_paused`: a depth count
    under one lock.  The first entry records whether collection was on and
    turns it off; the last exit turns it back on only if it was on."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        # imported here: repro.analysis imports this module at load time
        from ..analysis.locksan import wrap_lock

        self._lock = wrap_lock(threading.Lock(), "CollectorPause._lock")
        self._depth = 0
        #: collection was on when the outermost pause began, and is owed back
        self._resume = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._lock:
            if self._depth == 0:
                return  # forked inside this thread's pause: the child resumed
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()
                self._resume = False

    def _after_fork_in_child(self) -> None:
        # the child has one thread: pauses of the parent's other threads
        # never exit here, and their lock may have been held at the fork
        resume = self._resume
        self._reset()
        if resume:
            gc.enable()


def collector_paused() -> _CollectorPause:
    """Context manager: CPython's cyclic garbage collector stays off inside.

    **Premise.**  The AEM kernels build no reference cycles: with collection
    off, ``gc.collect()`` finds 0 unreachable objects after every external
    sort, ``shard_merge`` and service job.  A collection inside a kernel
    therefore frees nothing, yet it traverses every live block list — a
    200k-record sort keeps about 20k of them, which set off 20–29
    collections per run.  The engine's external sorts and the cluster
    coordinator's merge step run inside this pause; nothing else does.
    Both free their arrays before the pause ends, so the allocation count
    is back under the collector's threshold and no collection follows.

    **Threads.**  One process-wide depth count under one lock (a per-call
    save and restore races: a thread that reads "off" while another is
    paused would never turn collection back on).  The first entry records
    :func:`gc.isenabled` and disables collection; the last exit re-enables
    it only if it was on, so a caller that turned it off keeps it off.
    Collection stays off while any kernel runs in any thread; cyclic
    garbage made meanwhile outside the kernels is collected after the last
    one exits.  An exception inside restores the state like a normal exit.

    **Fork.**  A child forked while some thread is paused (``SortService``
    respawns process workers with ``multiprocessing`` while threads run)
    inherits a disabled collector, a count that would never return to 0 and
    possibly a held lock.  An ``os.register_at_fork`` hook resets the child:
    depth 0, a fresh lock, and collection back on if the pause had found it
    on.

    **Not the RAM plan.**  The §3 red-black tree keeps parent pointers (a
    node and its parent point at each other), so a RAM-model sort of ``n``
    records leaves its ``n`` tree nodes as cyclic garbage; pausing it would
    only defer that garbage.
    """
    return _PAUSE


class ExtArray:
    """An array in secondary memory, stored as blocks of ``B`` records.

    Only the machine's transfer instructions touch the contents; algorithms
    never index an :class:`ExtArray` directly.  The last block may be partial.
    """

    __slots__ = ("_blocks", "length", "B", "name")

    def __init__(self, B: int, name: str = ""):
        self.B = B
        self._blocks: list[list] = []
        self.length = 0
        self.name = name

    # -- internal (used by AEMachine only) ------------------------------ #
    def _ensure_block(self, bi: int) -> None:
        while len(self._blocks) <= bi:
            self._blocks.append([])

    @property
    def num_blocks(self) -> int:
        """Number of *physical* blocks occupied.

        Equals ``ceil(length / B)`` for a freshly written array, but may
        exceed it after zero-I/O structural operations: ``concat`` keeps each
        input's partial final block as a partial block *inside* the result,
        and ``_ensure_block`` may add empty placeholder blocks.  Scans and
        readers iterate physical blocks, so charged costs honestly reflect
        that fragmentation.  For the defragmented count use
        :attr:`logical_blocks`.
        """
        return len(self._blocks)

    @property
    def logical_blocks(self) -> int:
        """``ceil(length / B)`` — blocks a defragmented copy would occupy."""
        return -(-self.length // self.B)

    def block_len(self, bi: int) -> int:
        """Number of records resident in physical block ``bi`` — free metadata.

        Block *lengths* are directory bookkeeping (the allocation table
        records how full each block is), so reading one is not a transfer —
        exactly like :attr:`num_blocks` and :attr:`length`.  Algorithms use
        it to skip empty placeholder blocks and to locate a straddling block
        without touching contents; the contents themselves only move through
        the machine's charged transfer instructions.  This is the sanctioned
        way to ask "how full is block ``bi``" — direct ``._blocks`` access
        outside the model is flagged by the ``uncharged-io`` lint rule.
        """
        return len(self._blocks[bi])

    def compact(self) -> int:
        """Drop empty placeholder blocks; return how many were removed.

        Empty physical blocks (left by out-of-order ``_ensure_block`` calls
        or by concatenating empty regions) hold no records, so removing them
        is pure metadata bookkeeping — free, like ``split_blocks``/``concat``.
        Partial blocks are *not* repacked: moving records would be real block
        I/O and must go through a charged rewrite.
        """
        before = len(self._blocks)
        if any(not blk for blk in self._blocks):
            self._blocks = [blk for blk in self._blocks if blk]
        return before - len(self._blocks)

    def peek_list(self) -> list:
        """Uncharged flat copy — verification only (never inside algorithms)."""
        out: list = []
        for blk in self._blocks:
            out.extend(blk)
        return out

    def __len__(self) -> int:
        return self.length


class AEMachine:
    """The Asymmetric External Memory machine of §2.

    Parameters
    ----------
    params:
        The ``(M, B, omega)`` triple.
    counter:
        Shared cost counter; a fresh one is created if omitted.

    Notes
    -----
    ``read_block`` charges one block read; ``write_block`` charges one block
    write (which the experiments weight by ``omega``).  Work *within* primary
    memory is free, per the model.
    """

    def __init__(self, params: MachineParams, counter: CostCounter | None = None):
        self.params = params
        self.counter = counter if counter is not None else CostCounter()

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(self, name: str = "") -> ExtArray:
        """Allocate a fresh, empty external array (allocation is free)."""
        return ExtArray(self.params.B, name=name)

    def from_list(self, data: Iterable, name: str = "", *, charge: bool = False) -> ExtArray:
        """Materialise ``data`` as an external array.

        By convention the problem input already resides in secondary memory,
        so loading it is free; pass ``charge=True`` to charge the writes
        (used when an algorithm must *produce* such an array).
        """
        arr = self.allocate(name)
        B = self.params.B
        items = data if isinstance(data, list) else list(data)
        # each block is a slice, i.e. a copy: a list input is never aliased
        arr._blocks = [items[i : i + B] for i in range(0, len(items), B)]
        arr.length = len(items)
        if charge:
            self.counter.charge_writes(len(arr._blocks))
        return arr

    # ------------------------------------------------------------------ #
    # the two transfer instructions of the model
    # ------------------------------------------------------------------ #
    def read_block(self, arr: ExtArray, bi: int, *, copy: bool = True) -> list:
        """Transfer block ``bi`` of ``arr`` into primary memory (cost 1).

        By default the caller receives a private copy, matching the model's
        "transfers move copies" semantics.  Read-only scans may pass
        ``copy=False`` to receive the resident block itself — same charge,
        no copy — but MUST NOT mutate it.
        """
        if bi < 0 or bi >= len(arr._blocks):
            raise IndexError(f"block {bi} out of range for array with {len(arr._blocks)} blocks")
        self.counter.charge_block_read()
        blk = arr._blocks[bi]
        return list(blk) if copy else blk

    def read_blocks(self, arrs: list[ExtArray], bis: list[int]) -> list[list]:
        """Transfer block ``bis[j]`` of ``arrs[j]`` for every ``j`` (cost 1
        each), charging all the reads in ONE batched counter update.

        The batched counterpart of ``read_block(copy=False)``: identical
        charges, but one Python call and one counter update per batch — the
        mergesort merge reads the current block of every run this way each
        round.  The returned lists are the resident blocks themselves —
        callers MUST NOT mutate them, and must copy or slice whatever they
        keep.
        """
        if len(arrs) != len(bis):
            raise ValueError(f"{len(arrs)} arrays but {len(bis)} block indices")
        if bis and min(bis) < 0:
            raise IndexError(f"negative block index {min(bis)}")
        blocks = [arr._blocks[bi] for arr, bi in zip(arrs, bis)]
        if blocks:
            self.counter.charge_reads(len(blocks))
        return blocks

    def write_block(self, arr: ExtArray, bi: int, values: list) -> None:
        """Transfer ``values`` from primary memory into block ``bi`` (cost ω).

        Writing block ``num_blocks`` appends a new block.  Blocks must contain
        at most ``B`` records; only the final block of an array may be partial
        (enforced lazily — intermediate partial blocks would corrupt
        ``length`` bookkeeping).
        """
        B = self.params.B
        if len(values) > B:
            raise ValueError(f"block of {len(values)} records exceeds B={B}")
        if bi < 0 or bi > len(arr._blocks):
            raise IndexError(f"cannot write block {bi}; array has {len(arr._blocks)} blocks")
        self.counter.charge_block_write()
        if bi == len(arr._blocks):
            arr._blocks.append(list(values))
            arr.length += len(values)
        else:
            old = len(arr._blocks[bi])
            arr._blocks[bi] = list(values)
            arr.length += len(values) - old

    # ------------------------------------------------------------------ #
    # free (zero-I/O) structural operations
    # ------------------------------------------------------------------ #
    def split_blocks(self, arr: ExtArray, parts: int) -> list[ExtArray]:
        """Partition ``arr`` into ``parts`` block-aligned subarrays, free.

        This models renaming contiguous *regions* of secondary memory (the
        "evenly partition A ... at the granularity of blocks" step of
        Algorithm 2); no records move, so no transfer is charged.  Empty
        trailing parts are dropped.
        """
        if parts < 1:
            raise ValueError("parts must be >= 1")
        nb = arr.num_blocks
        per = math.ceil(nb / parts) if nb else 0
        out: list[ExtArray] = []
        for start in range(0, nb, max(per, 1)):
            sub = ExtArray(self.params.B, name=f"{arr.name}[{start}:]")
            sub._blocks = arr._blocks[start : start + per]
            sub.length = sum(len(b) for b in sub._blocks)
            out.append(sub)
            if len(out) == parts:
                break
        return [s for s in out if s.length > 0]

    def concat(self, arrays: list[ExtArray], name: str = "") -> ExtArray:
        """Concatenate arrays by renaming regions, free.

        Each input array keeps its own blocks, so a partial final block of a
        non-final input becomes a partial block *inside* the result.  This
        models bucket regions that each start at a block boundary — exactly
        the layout behind the ``+ kM/B`` partial-block write term in the
        Theorem 4.5 analysis.  Scans over the result simply see the records
        in order; block counts reflect the fragmentation honestly.
        """
        out = ExtArray(self.params.B, name=name)
        for a in arrays:
            out._blocks.extend(a._blocks)
            out.length += a.length
        return out

    # ------------------------------------------------------------------ #
    # derived helpers (cost-equivalent compositions of the two transfers)
    # ------------------------------------------------------------------ #
    def scan(self, arr: ExtArray) -> Iterator:
        """Yield every record of ``arr`` in order, charging 1 read per block.

        Read-only: blocks are streamed without the defensive copy of
        :meth:`read_block`, since only individual records are exposed.

        Physically *empty* placeholder blocks (see :meth:`ExtArray.compact`)
        hold no records and are skipped without charge — a transfer that
        moves nothing is not a transfer.  ``scan_blocks`` applies the same
        rule, so the two access paths stay cost-identical.
        """
        counter = self.counter
        for blk in arr._blocks:
            if blk:
                counter.charge_block_read()
                yield from blk

    def scan_blocks(self, arr: ExtArray) -> Iterator[list]:
        """Yield every non-empty block of ``arr`` read-only, charging the
        whole scan's reads in ONE batched counter update.

        The block-granular counterpart of :meth:`scan`: identical total
        charges (one read per non-empty physical block), but the counter is
        touched once per scan instead of once per block, and whole resident
        blocks are exposed so callers can partition/merge them with C-level
        primitives (``bisect``, ``list.extend``) instead of per-record
        Python loops.  The yielded lists are the resident blocks themselves
        — callers MUST NOT mutate them.

        The reads are charged up front (on first iteration): a scan is an
        all-or-nothing transfer plan.  Callers that may stop early should
        use :meth:`reader` / :meth:`read_block`, which charge per block.
        """
        blocks = [blk for blk in arr._blocks if blk]
        if blocks:
            self.counter.charge_reads(len(blocks))
        yield from blocks

    def blocks_of(self, n: int) -> int:
        """``ceil(n / B)`` — the number of blocks ``n`` records occupy."""
        return math.ceil(n / self.params.B)

    def reader(self, arr: ExtArray, start_block: int = 0) -> "BlockReader":
        return BlockReader(self, arr, start_block)

    def writer(self, arr: ExtArray | None = None, name: str = "") -> "BlockWriter":
        return BlockWriter(self, arr if arr is not None else self.allocate(name))


class BlockReader:
    """Sequential block-at-a-time reader with an explicit pointer.

    Mirrors the pointers ``I_1..I_l`` of Algorithm 2: ``load_next`` transfers
    the next block (cost 1) and exposes it; ``exhausted`` reports whether the
    pointer has passed the final block.
    """

    def __init__(self, machine: AEMachine, arr: ExtArray, start_block: int = 0):
        self.machine = machine
        self.arr = arr
        self.next_block = start_block
        self.current: list | None = None

    @property
    def exhausted(self) -> bool:
        return self.next_block >= self.arr.num_blocks

    def load_next(self) -> list:
        """Read the next block, advance the pointer, return the block."""
        if self.exhausted:
            raise IndexError("BlockReader exhausted")
        self.current = self.machine.read_block(self.arr, self.next_block)
        self.next_block += 1
        return self.current

    def records(self) -> Iterator:
        """Stream all remaining records, charging one read per block.

        Read-only fast path: unlike :meth:`load_next`, the transferred block
        is not copied (only records are yielded, never the block itself).
        """
        while not self.exhausted:
            self.current = self.machine.read_block(self.arr, self.next_block, copy=False)
            self.next_block += 1
            yield from self.current


class BlockWriter:
    """Buffered appender: holds <= B records in primary memory, flushing full
    blocks to secondary memory (one block write each).

    The in-memory partial block is the "store buffer" of Algorithm 2.  Always
    ``close()`` (or use as a context manager) so the final partial block is
    flushed and charged.
    """

    def __init__(self, machine: AEMachine, arr: ExtArray):
        self.machine = machine
        self.arr = arr
        self._buf: list = []
        self.written = 0
        self.closed = False

    def append(self, rec) -> None:
        if self.closed:
            raise RuntimeError("BlockWriter already closed")
        self._buf.append(rec)
        self.written += 1
        if len(self._buf) == self.machine.params.B:
            self._flush()

    def extend(self, recs: Iterable) -> None:
        """Append many records, flushing at block granularity.

        Cost-equivalent to repeated :meth:`append` (identical block-write
        count and block contents), but full blocks are sliced straight out of
        ``recs`` instead of growing the buffer one record at a time.
        """
        if self.closed:
            raise RuntimeError("BlockWriter already closed")
        if not isinstance(recs, list):
            recs = list(recs)
        B = self.machine.params.B
        total = len(recs)
        pos = 0
        if self._buf:  # top up the resident partial block first
            take = min(B - len(self._buf), total)
            self._buf.extend(recs[:take])
            self.written += take
            pos = take
            if len(self._buf) == B:
                self._flush()
        nfull = (total - pos) // B
        if nfull:
            # full blocks land as-is: n list appends, ONE batched write charge
            arr = self.arr
            blocks = arr._blocks
            for _ in range(nfull):
                blocks.append(recs[pos : pos + B])
                pos += B
            arr.length += nfull * B
            self.written += nfull * B
            self.machine.counter.charge_writes(nfull)
        if pos < total:
            self._buf.extend(recs[pos:])
            self.written += total - pos

    def extend_blocks(self, blocks: Iterable[list]) -> None:
        """Append whole blocks, batching the block-write accounting.

        Cost-equivalent to ``extend`` over the chained records (identical
        write count and block contents), but when the writer holds no
        partial buffer and an incoming block is exactly ``B`` records it is
        appended as-is, and one ``charge_writes(k)`` covers each run of
        ``k`` such full blocks instead of ``k`` separate counter updates.
        Blocks that are partial (or that land on a partial buffer) fall back
        to :meth:`extend`, which re-blocks them.
        """
        if self.closed:
            raise RuntimeError("BlockWriter already closed")
        B = self.machine.params.B
        arr = self.arr
        pending_full = 0
        for blk in blocks:
            if not self._buf and len(blk) == B:
                arr._blocks.append(list(blk))
                arr.length += B
                self.written += B
                pending_full += 1
            else:
                if pending_full:
                    self.machine.counter.charge_writes(pending_full)
                    pending_full = 0
                self.extend(blk)
        if pending_full:
            self.machine.counter.charge_writes(pending_full)

    def _flush(self) -> None:
        if self._buf:
            self.machine.write_block(self.arr, self.arr.num_blocks, self._buf)
            self._buf = []

    def close(self) -> ExtArray:
        """Flush the partial block and return the written array."""
        if not self.closed:
            self._flush()
            self.closed = True
        return self.arr

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


# one per process, like the collector it switches.  Made last: creating its
# lock imports repro.analysis, whose iosan imports AEMachine and BlockWriter
# from this module
_PAUSE = _CollectorPause()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_PAUSE._after_fork_in_child)
