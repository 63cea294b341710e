"""Cost accounting primitives shared by every machine model.

The paper never measures wall-clock time: every theorem is a statement about
*counts* of reads and writes (at word granularity for the RAM/PRAM models, at
block granularity for the EM/cache models), combined into an I/O cost
``reads + omega * writes``.  :class:`CostCounter` is the single source of
truth for those counts.  Machine models charge it; experiments snapshot it.

Two granularities are tracked independently:

* ``element_reads`` / ``element_writes`` — word-level operations (RAM, PRAM).
* ``block_reads`` / ``block_writes`` — block transfers (AEM, ideal cache).

An algorithm typically exercises only one granularity, but mixed accounting is
legal (e.g., the PRAM sort counts element operations while its analysis module
converts them to cost).

Validation asymmetry
--------------------
The single-charge methods (:meth:`CostCounter.charge_block_read` /
:meth:`~CostCounter.charge_block_write`) are the per-event hot path — one
call per block transfer — and stay **branch-free**: they accept any ``n``
without checking it.  The batch methods (:meth:`~CostCounter.charge_reads` /
:meth:`~CostCounter.charge_writes`) amortize one counter update over a whole
scan, so their single branch is negligible and they reject negative counts
(a negative batch would silently *uncharge* I/O, corrupting every downstream
claim).  The asymmetry is deliberate; it is closed at test time by the
``iosan`` sanitizer (:mod:`repro.analysis.iosan`), which patches the
single-charge methods with validating versions so a negative ``n`` on any
path raises under ``REPRO_IOSAN=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostCounter:
    """Mutable tally of reads and writes at element and block granularity.

    Instances support subtraction (producing a delta counter), snapshots, and
    asymmetric-cost evaluation.  All counts are non-negative integers.
    """

    element_reads: int = 0
    element_writes: int = 0
    block_reads: int = 0
    block_writes: int = 0

    # ------------------------------------------------------------------ #
    # charging
    # ------------------------------------------------------------------ #
    def charge_read(self, n: int = 1) -> None:
        """Charge ``n`` element (word) reads."""
        self.element_reads += n

    def charge_write(self, n: int = 1) -> None:
        """Charge ``n`` element (word) writes."""
        self.element_writes += n

    def charge_block_read(self, n: int = 1) -> None:
        """Charge ``n`` block transfers from secondary to primary memory.

        Hot path (no validation): :meth:`charge_reads` is the batch-named
        alias with a negative-count guard — keep the two in lockstep.
        """
        self.block_reads += n

    def charge_block_write(self, n: int = 1) -> None:
        """Charge ``n`` block transfers from primary to secondary memory.

        Hot path (no validation): :meth:`charge_writes` is the batch-named
        alias with a negative-count guard — keep the two in lockstep.
        """
        self.block_writes += n

    # ------------------------------------------------------------------ #
    # batch accounting (the block-kernel layer's fast path)
    # ------------------------------------------------------------------ #
    def charge_reads(self, n: int) -> None:
        """Charge ``n`` block reads in one counter update.

        Semantically identical to ``n`` calls of :meth:`charge_block_read`
        — same totals, same granularity (block), same ``block_cost`` — but a
        k-block scan costs one Python-level update instead of k.  The
        vectorized kernels (``AEMachine.scan_blocks``,
        ``BlockWriter.extend``) charge through this API.
        """
        if n < 0:
            raise ValueError(f"cannot charge {n} block reads")
        self.block_reads += n

    def charge_writes(self, n: int) -> None:
        """Charge ``n`` block writes in one counter update.

        Batch form of :meth:`charge_block_write`; see :meth:`charge_reads`.
        """
        if n < 0:
            raise ValueError(f"cannot charge {n} block writes")
        self.block_writes += n

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def element_cost(self, omega: float) -> float:
        """RAM/PRAM-model cost: ``element_reads + omega * element_writes``."""
        return self.element_reads + omega * self.element_writes

    def block_cost(self, omega: float) -> float:
        """(A)EM-model I/O cost: ``block_reads + omega * block_writes``."""
        return self.block_reads + omega * self.block_writes

    def total_io(self) -> int:
        """Unweighted number of block transfers (the classic EM complexity)."""
        return self.block_reads + self.block_writes

    # ------------------------------------------------------------------ #
    # snapshots & arithmetic
    # ------------------------------------------------------------------ #
    def snapshot(self) -> "CostCounter":
        """Return an immutable-by-convention copy of the current counts."""
        return CostCounter(
            self.element_reads,
            self.element_writes,
            self.block_reads,
            self.block_writes,
        )

    def __sub__(self, other: "CostCounter") -> "CostCounter":
        return CostCounter(
            self.element_reads - other.element_reads,
            self.element_writes - other.element_writes,
            self.block_reads - other.block_reads,
            self.block_writes - other.block_writes,
        )

    def __add__(self, other: "CostCounter") -> "CostCounter":
        return CostCounter(
            self.element_reads + other.element_reads,
            self.element_writes + other.element_writes,
            self.block_reads + other.block_reads,
            self.block_writes + other.block_writes,
        )

    def reset(self) -> None:
        """Zero every tally in place."""
        self.element_reads = 0
        self.element_writes = 0
        self.block_reads = 0
        self.block_writes = 0

    def as_dict(self) -> dict:
        """Plain-dict view, convenient for table rows and JSON dumps."""
        return {
            "element_reads": self.element_reads,
            "element_writes": self.element_writes,
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostCounter(eR={self.element_reads}, eW={self.element_writes}, "
            f"bR={self.block_reads}, bW={self.block_writes})"
        )


@dataclass
class Phase:
    """A named accounting region: counter deltas attributed to one stage.

    Used by experiments that break an algorithm's cost into stages (e.g., the
    Figure-1 stage anatomy of the cache-oblivious sort, experiment E14).
    """

    name: str
    delta: CostCounter = field(default_factory=CostCounter)


class PhaseRecorder:
    """Attribute counter deltas to named phases.

    Example
    -------
    >>> counter = CostCounter()
    >>> rec = PhaseRecorder(counter)
    >>> with rec.phase("scan"):
    ...     counter.charge_block_read(10)
    >>> rec.phases[0].delta.block_reads
    10
    """

    def __init__(self, counter: CostCounter):
        self.counter = counter
        self.phases: list[Phase] = []

    def phase(self, name: str) -> "_PhaseCtx":
        """Open a named accounting region (usable as a context manager)."""
        return _PhaseCtx(self, name)

    def totals(self) -> CostCounter:
        """Sum of all recorded phase deltas."""
        total = CostCounter()
        for ph in self.phases:
            total = total + ph.delta
        return total


class _PhaseCtx:
    def __init__(self, recorder: PhaseRecorder, name: str):
        self._rec = recorder
        self._name = name
        self._start: CostCounter | None = None

    def __enter__(self) -> "_PhaseCtx":
        self._start = self._rec.counter.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None
        delta = self._rec.counter.snapshot() - self._start
        self._rec.phases.append(Phase(self._name, delta))
