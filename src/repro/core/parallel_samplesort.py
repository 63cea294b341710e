"""§4.2 extension: the AEM sample sort on the Asymmetric Private-Cache model.

The paper parallelises the sample sort for ``p = n/M`` processors, each with
a private cache of ``M`` records over shared asymmetric memory:

* within a level, the input is grouped into ``n/(kM)`` chunks of ``kM``
  records; chunks x rounds gives ``n/(kM) * k = n/M`` independent tasks —
  one per processor — each reading its whole chunk (``kM/B`` block reads)
  and writing its round's bucket share (``~M/B`` block writes);
* splitters come from a sample a log factor smaller, sorted by a parallel
  mergesort of depth ``O(k log^2 n)``;
* the base case replaces the sequential selection sort by ``k`` processors
  that each read the whole ``<= kM``-record partition and selection-sort
  their own ``M``-record share.

Total time ``O(k (M/B + log^2 n)(1 + log_{kM/B}(n/kM)))`` w.h.p. — linear
speedup when ``M/B >= log^2 n``.

Simulation strategy: the *data movement* is executed for real on an
:class:`AEMachine` (so the output is verifiably sorted and total counts are
measured, not asserted); each task's counter delta is attributed to a
processor ledger, whose maximum is the makespan.  Coordination costs that
the paper bounds analytically (the parallel-mergesort depth for splitter
selection, the counting/prefix-sum pass) are charged as explicit depth terms
on every processor, labelled at the call site.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..models.external_memory import AEMachine, ExtArray
from ..models.params import MachineParams
from .aem_samplesort import _choose_splitters, _partition_round
from .kernels import resolve_kernel
from .selection_sort import selection_sort


@dataclass
class ProcessorLedger:
    """Per-processor asymmetric-cost tallies; makespan = max over processors."""

    p: int
    omega: int
    costs: list[float] = field(default_factory=list)
    _next: int = 0

    def __post_init__(self) -> None:
        if not self.costs:
            self.costs = [0.0] * self.p

    def charge(self, proc: int, reads: int, writes: int) -> None:
        self.costs[proc % self.p] += reads + self.omega * writes

    def charge_all(self, amount: float) -> None:
        """A synchronisation phase every processor participates in."""
        for i in range(self.p):
            self.costs[i] += amount

    def charge_group(self, total_cost: float, group_size: int) -> None:
        """Split ``total_cost`` across a group of ``group_size`` processors
        (the §4.2 convention: "processors are divided among the sub-problems
        proportional to the size of the sub-problem")."""
        group_size = max(1, min(group_size, self.p))
        share = total_cost / group_size
        start = self._next
        for i in range(group_size):
            self.costs[(start + i) % self.p] += share
        self._next = (start + group_size) % self.p

    def next_proc(self) -> int:
        """Round-robin task placement (the paper divides processors evenly)."""
        proc = self._next
        self._next = (self._next + 1) % self.p
        return proc

    @property
    def makespan(self) -> float:
        return max(self.costs)

    @property
    def total(self) -> float:
        return sum(self.costs)


@dataclass
class ParallelSortResult:
    output: ExtArray
    ledger: ProcessorLedger
    machine: AEMachine

    @property
    def speedup(self) -> float:
        """Work divided by makespan — linear speedup approaches ``p``."""
        return self.ledger.total / self.ledger.makespan if self.ledger.makespan else 1.0


def parallel_samplesort(
    params: MachineParams,
    data: list,
    k: int = 1,
    seed: int = 0,
    p: int | None = None,
    kernel: str | None = None,
) -> ParallelSortResult:
    """Sort ``data`` with per-processor accounting on the Private-Cache model.

    ``p`` defaults to the paper's ``n/M`` (at least 1).  ``kernel`` picks the
    block-granular or the record-at-a-time implementation (identical outputs,
    counters and ledger charges).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(data)
    if p is None:
        p = max(1, n // params.M)
    machine = AEMachine(params)
    ledger = ProcessorLedger(p=p, omega=params.omega)
    rng = random.Random(seed)
    arr = machine.from_list(data, name="input")
    out = _sort(machine, ledger, arr, k, rng, n0=max(n, 2), n_root=max(n, 1),
                kernel=resolve_kernel(kernel))
    return ParallelSortResult(out, ledger, machine)


def _task(machine: AEMachine, ledger: ProcessorLedger, proc: int, fn):
    """Run ``fn()`` and attribute its counter delta to processor ``proc``."""
    before = machine.counter.snapshot()
    result = fn()
    delta = machine.counter.snapshot() - before
    ledger.charge(proc, delta.block_reads, delta.block_writes)
    return result


def _sort(
    machine: AEMachine,
    ledger: ProcessorLedger,
    arr: ExtArray,
    k: int,
    rng: random.Random,
    n0: int,
    n_root: int,
    kernel: str = "vectorized",
) -> ExtArray:
    params = machine.params
    n = arr.length

    if n <= k * params.M:
        return _parallel_base_case(machine, ledger, arr, k, kernel=kernel)

    if n <= (k * params.M) ** 2 / params.B:
        l = max(2, math.ceil(n / (k * params.M)))
    else:
        l = params.fanout(k)

    # This sub-problem's processor group (§4.2: "processors are then divided
    # among the sub-problems proportional to the size of the sub-problem").
    group = max(1, round(ledger.p * n / n_root))

    # splitter selection: §4.2 performs it *in parallel* ("this can be done
    # on a sample that is a logarithmic factor smaller ... using parallel
    # mergesort"), so the sampling I/O — executed here sequentially — is
    # split over the group, and the parallel-mergesort *depth*
    # O(k log^2 n) is a synchronisation charge on each group member.
    before = machine.counter.snapshot()
    splitters = _choose_splitters(machine, arr, l, rng, n0, kernel=kernel)
    delta = machine.counter.snapshot() - before
    sync = k * math.log2(max(n0, 2)) ** 2
    ledger.charge_group(
        delta.block_reads + ledger.omega * delta.block_writes + group * sync,
        group,
    )

    # chunk x round tasks: each scans one kM-record chunk once and writes
    # the records of one round's splitter range.
    chunk_blocks = max(1, (k * params.M) // params.B)
    chunks = machine.split_blocks(arr, max(1, math.ceil(arr.num_blocks / chunk_blocks)))
    per_round = max(1, params.blocks_in_memory)
    n_buckets = len(splitters) + 1
    rounds = range(0, n_buckets, per_round)

    # the pre-pass that counts bucket sizes per chunk + prefix sums (§4.2:
    # "a lower-order term"): one scan per chunk, charged per task
    bucket_parts: dict[int, list[ExtArray]] = {b: [] for b in range(n_buckets)}
    for chunk in chunks:
        for first in rounds:
            last = min(first + per_round, n_buckets)
            proc = ledger.next_proc()
            parts = _task(
                machine,
                ledger,
                proc,
                lambda c=chunk, f=first, la=last: _partition_round(
                    machine, c, splitters, f, la, kernel
                ),
            )
            for b, part in parts:
                bucket_parts[b].append(part)

    buckets = [
        machine.concat(parts, name=f"bucket{b}")
        for b, parts in bucket_parts.items()
        if parts
    ]
    sorted_buckets = [
        _sort(machine, ledger, b, k, rng, n0, n_root, kernel=kernel)
        for b in buckets
        if b.length
    ]
    return machine.concat(sorted_buckets, name="psort-out")


def _parallel_base_case(
    machine: AEMachine, ledger: ProcessorLedger, arr: ExtArray, k: int,
    kernel: str = "vectorized",
) -> ExtArray:
    """§4.2 base case: ``k`` processors each scan the whole partition and
    selection-sort their own ``M``-record share.

    We execute the movement once (a sequential selection sort produces the
    identical output blocks) and charge each of the ``k`` shares to its own
    processor: ``ceil(n/B)`` reads (the shared scan) + its share of writes.
    """
    params = machine.params
    n = arr.length
    before = machine.counter.snapshot()
    out = selection_sort(machine, arr, kernel=kernel)
    delta = machine.counter.snapshot() - before
    shares = max(1, math.ceil(n / params.M))
    reads_each = math.ceil(n / params.B)
    writes_each = math.ceil(delta.block_writes / shares)
    for _ in range(shares):
        ledger.charge(ledger.next_proc(), reads_each, writes_each)
    return out
