"""iosan — the uncharged-I/O runtime sanitizer.

Every claim the repo makes is a statement about
:class:`~repro.models.counters.CostCounter` tallies, so a code path that
touches physical blocks without charging the counter silently corrupts every
downstream number.  The ``uncharged-io`` lint rule catches *static* bypasses
(direct ``._blocks`` access outside the model); iosan closes the *dynamic*
side: with the sanitizer enabled, every transfer primitive of
:class:`~repro.models.external_memory.AEMachine` /
:class:`~repro.models.external_memory.BlockWriter` cross-checks the counter
delta it produced against the physical blocks it moved and raises
:class:`UnchargedIOError` on drift.

Checks installed by :func:`enable`
----------------------------------
* ``read_block`` / ``write_block`` must move the counter by exactly one
  block read / write per call; ``read_blocks`` by exactly one read per
  block in the batch.
* ``scan`` / ``scan_blocks`` must charge exactly one read per non-empty
  physical block (verified at the batch-charge point and at exhaustion;
  an early-abandoned scan legitimately charges less and is not checked).
* ``BlockWriter.append`` / ``extend`` / ``close`` must charge exactly one
  write per block landed in the output array.
* ``from_list(charge=True)`` must charge one write per block materialised;
  ``charge=False`` (the free-input convention) must charge nothing.
* Every wrapped operation first audits the array it touches:
  ``arr.length`` must equal the sum of its physical block lengths.  An
  out-of-band mutation (a direct ``._blocks.append``, a record pushed into
  a live block) breaks that equation and is reported on the next access.
* ``read_block(copy=False)`` returns a :class:`SealedBlock` — a
  mutation-trapping view of the resident block — so a caller that mutates
  secondary memory through the read-only fast path raises instead of
  corrupting blocks behind the counter's back.  ``read_blocks`` and
  ``scan_blocks`` seal the blocks they return or yield the same way.
* The single-charge counter methods (``charge_block_read`` /
  ``charge_block_write``), branch-free on the hot path, are replaced with
  validating versions so a negative count raises like the batch API does
  (see the "validation asymmetry" note in :mod:`repro.models.counters`).

Activation
----------
``REPRO_IOSAN=1`` in the environment enables the sanitizer at ``import
repro`` (the environment propagates into worker processes, so process-pool
runs stay sanitized); tests can use the ``--iosan`` pytest flag or the
:func:`iosan` context manager.  The wrappers cost O(blocks) per operation —
run it in CI and debugging sessions, not in benchmarks.
"""

from __future__ import annotations

import contextlib

from ..models.counters import CostCounter
from ..models.external_memory import AEMachine, BlockWriter


class UnchargedIOError(RuntimeError):
    """Physical block state moved without a matching CostCounter charge."""


class SealedBlock(list):
    """A mutation-trapping view of a resident (uncopied) block.

    Reads like the list it shadows — indexing, slicing (plain lists come
    back), iteration, ``len`` — but every mutator raises
    :class:`UnchargedIOError`: the underlying block lives in secondary
    memory, and mutating it through a read-only transfer would be an
    uncharged block write.
    """

    def _trap(self, *args, **kwargs):
        raise UnchargedIOError(
            "mutation of a sealed block: this block was transferred "
            "read-only (read_block(copy=False) / scan_blocks); writing it "
            "back requires a charged write_block"
        )

    __setitem__ = _trap
    __delitem__ = _trap
    __iadd__ = _trap
    __imul__ = _trap
    append = _trap
    extend = _trap
    insert = _trap
    pop = _trap
    remove = _trap
    clear = _trap
    sort = _trap
    reverse = _trap


_PATCH_TARGETS = (
    (AEMachine, "read_block"),
    (AEMachine, "read_blocks"),
    (AEMachine, "write_block"),
    (AEMachine, "scan"),
    (AEMachine, "scan_blocks"),
    (AEMachine, "from_list"),
    (BlockWriter, "append"),
    (BlockWriter, "extend"),
    (BlockWriter, "close"),
    (CostCounter, "charge_block_read"),
    (CostCounter, "charge_block_write"),
)

_originals: dict[tuple[type, str], object] = {}


def iosan_enabled() -> bool:
    """Whether the sanitizer wrappers are currently installed."""
    return bool(_originals)


def _audit(arr) -> None:
    """Bookkeeping consistency check: length must match physical contents.

    Free structural operations keep this equation; any out-of-band block
    mutation (the bug class iosan exists to catch) breaks it.
    """
    physical = sum(len(blk) for blk in arr._blocks)
    if physical != arr.length:
        raise UnchargedIOError(
            f"uncharged I/O drift on array {arr.name!r}: {physical} records "
            f"physically present but length bookkeeping says {arr.length} — "
            "a block was mutated outside the machine's charged transfers"
        )


def _drift(what: str, expected: int, got: int, kind: str) -> UnchargedIOError:
    return UnchargedIOError(
        f"uncharged I/O drift in {what}: expected {expected} block "
        f"{kind}(s) charged, counter moved by {got}"
    )


def enable() -> None:
    """Install the sanitizer wrappers (idempotent)."""
    if _originals:
        return
    for cls, name in _PATCH_TARGETS:
        _originals[(cls, name)] = getattr(cls, name)

    orig_read_block = _originals[(AEMachine, "read_block")]
    orig_read_blocks = _originals[(AEMachine, "read_blocks")]
    orig_write_block = _originals[(AEMachine, "write_block")]
    orig_scan = _originals[(AEMachine, "scan")]
    orig_scan_blocks = _originals[(AEMachine, "scan_blocks")]
    orig_from_list = _originals[(AEMachine, "from_list")]

    def read_block(self, arr, bi, *, copy=True):
        _audit(arr)
        before = self.counter.block_reads
        blk = orig_read_block(self, arr, bi, copy=copy)
        got = self.counter.block_reads - before
        if got != 1:
            raise _drift("read_block", 1, got, "read")
        return blk if copy else SealedBlock(blk)

    def read_blocks(self, arrs, bis):
        for arr in arrs:
            _audit(arr)
        before = self.counter.block_reads
        blocks = orig_read_blocks(self, arrs, bis)
        got = self.counter.block_reads - before
        if got != len(arrs) or len(blocks) != len(arrs):
            raise _drift("read_blocks", len(arrs), got, "read")
        return [SealedBlock(blk) for blk in blocks]

    def write_block(self, arr, bi, values):
        _audit(arr)
        before = self.counter.block_writes
        orig_write_block(self, arr, bi, values)
        got = self.counter.block_writes - before
        if got != 1:
            raise _drift("write_block", 1, got, "write")
        _audit(arr)

    def scan(self, arr):
        # deltas are measured across each step INTO the underlying
        # generator only — consumer code runs between yields and may
        # legitimately do charged I/O of its own (e.g. two interleaved
        # streams), which must not be attributed to this scan
        _audit(arr)
        expected = sum(1 for blk in arr._blocks if blk)
        gen = orig_scan(self, arr)
        charged = 0
        while True:
            before = self.counter.block_reads
            try:
                rec = next(gen)
            except StopIteration:
                if charged != expected:
                    raise _drift("scan", expected, charged, "read")
                return
            step = self.counter.block_reads - before
            if step not in (0, 1):
                raise _drift("scan (per step)", 1, step, "read")
            charged += step
            yield rec

    def scan_blocks(self, arr):
        _audit(arr)
        expected = sum(1 for blk in arr._blocks if blk)
        gen = orig_scan_blocks(self, arr)
        first = True
        while True:
            before = self.counter.block_reads
            try:
                blk = next(gen)
            except StopIteration:
                return
            step = self.counter.block_reads - before
            # the whole scan is batch-charged up front, on the first step
            want = expected if first else 0
            if step != want:
                raise _drift("scan_blocks", want, step, "read")
            first = False
            yield SealedBlock(blk)

    def from_list(self, data, name="", *, charge=False):
        before = self.counter.block_writes
        arr = orig_from_list(self, data, name, charge=charge)
        got = self.counter.block_writes - before
        expected = arr.num_blocks if charge else 0
        if got != expected:
            raise _drift("from_list", expected, got, "write")
        _audit(arr)
        return arr

    def _checked_writer_op(name):
        orig = _originals[(BlockWriter, name)]

        def op(self, *args, **kwargs):
            _audit_writer(self)
            before_writes = self.machine.counter.block_writes
            before_blocks = self.arr.num_blocks
            result = orig(self, *args, **kwargs)
            landed = self.arr.num_blocks - before_blocks
            got = self.machine.counter.block_writes - before_writes
            if got != landed:
                raise _drift(f"BlockWriter.{name}", landed, got, "write")
            _audit_writer(self)
            return result

        op.__name__ = name
        return op

    def _audit_writer(writer) -> None:
        # the writer's partial buffer lives in primary memory; the landed
        # blocks must obey the array equation
        _audit(writer.arr)

    def charge_block_read(self, n=1):
        if n < 0:
            raise UnchargedIOError(
                f"cannot charge {n} block reads (iosan: negative single "
                "charge — the batch charge_reads API rejects this too)"
            )
        self.block_reads += n

    def charge_block_write(self, n=1):
        if n < 0:
            raise UnchargedIOError(
                f"cannot charge {n} block writes (iosan: negative single "
                "charge — the batch charge_writes API rejects this too)"
            )
        self.block_writes += n

    AEMachine.read_block = read_block
    AEMachine.read_blocks = read_blocks
    AEMachine.write_block = write_block
    AEMachine.scan = scan
    AEMachine.scan_blocks = scan_blocks
    AEMachine.from_list = from_list
    for name in ("append", "extend", "close"):
        setattr(BlockWriter, name, _checked_writer_op(name))
    CostCounter.charge_block_read = charge_block_read
    CostCounter.charge_block_write = charge_block_write


def disable() -> None:
    """Remove the wrappers and restore the unchecked hot path (idempotent)."""
    if not _originals:
        return
    for (cls, name), fn in _originals.items():
        setattr(cls, name, fn)
    _originals.clear()


@contextlib.contextmanager
def iosan():
    """Run a block with the sanitizer enabled (restores the prior state)."""
    was_enabled = iosan_enabled()
    enable()
    try:
        yield
    finally:
        if not was_enabled:
            disable()
