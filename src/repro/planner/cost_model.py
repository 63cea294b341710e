"""Cost-model-driven sort planning.

For a given ``(n, MachineParams)`` the planner evaluates the paper's exact
predicted I/O bounds (unit leading constants, block granularity — the same
closed forms the experiments verify as hard upper bounds):

* **mergesort** — Theorem 4.3: ``(k+1) ceil(n/B) L`` reads, ``ceil(n/B) L``
  writes, ``L = ceil(log_{kM/B}(n/B))``;
* **samplesort** — Theorem 4.5: ``k ceil(n/B) L`` reads, ``ceil(n/B) L``
  writes;
* **heapsort** — Theorem 4.10: ``2n`` priority-queue operations at amortized
  ``(k/B)(1 + log_{kM/B} n)`` reads and ``(1/B)(1 + log_{kM/B} n)`` writes;
* **selection** — Lemma 4.2: ``ceil(n/M) ceil(n/B)`` reads, ``ceil(n/B)``
  writes (no branching parameter);
* **ram** — when ``n <= M`` the input fits in primary memory: one scan in
  (``ceil(n/B)`` reads), sort for free in memory, one stream out
  (``ceil(n/B)`` writes).  Executed via :func:`repro.engine.sort_ram` with
  the paper's §3 BST sort (O(n log n) element reads, O(n) element writes).

Each ``k``-parameterised algorithm is entered with its own best branching
factor: the planner scans the Corollary 4.4 feasible region (``k = 1``, the
classic algorithm, is always admissible) and keeps the cost minimiser.

With unit leading constants, sample sort's ``k ceil(n/B) L`` read bound
dominates mergesort's ``(k+1) ceil(n/B) L`` by exactly one scan per level;
mergesort therefore never wins a *unit-constant* ranking.  Every ranking
entry point accepts an optional ``constants=``
(:class:`~repro.planner.calibration.CostConstants`) fitted from measured
runs, which replaces the unit constants with this implementation's actual
per-algorithm multipliers and lets any algorithm win on merit.

Ties are broken deterministically: lower predicted cost first, then fewer
predicted writes (writes are the expensive currency), then a fixed
preference order (:data:`_TIE_PREFERENCE`) favouring the simplest machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.formulas import (
    mergesort_reads,
    mergesort_writes,
    samplesort_reads,
    samplesort_writes,
    selection_sort_reads,
    selection_sort_writes,
    shard_merge_reads,
    shard_merge_writes,
)
from ..analysis.ktuning import feasible_k_region
from ..core.aem_heapsort import predicted_amortized_reads, predicted_amortized_writes
from ..models.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (calibration imports us)
    from .calibration import CostConstants

#: algorithms the planner knows how to rank (and execute via the api façade)
PLANNABLE_ALGORITHMS = ("ram", "selection", "samplesort", "mergesort", "heapsort")

#: tie-break preference: simplest machinery first (in-memory sort, then the
#: single-pass-per-phase selection sort, then the recursive sorts, then the
#: priority-queue heapsort)
_TIE_PREFERENCE = {name: i for i, name in enumerate(PLANNABLE_ALGORITHMS)}


@dataclass(frozen=True)
class PlanCandidate:
    """One (algorithm, k) entry in a ranked plan."""

    algorithm: str
    #: chosen branching factor (``None`` for algorithms without one)
    k: int | None
    predicted_reads: float
    predicted_writes: float
    #: ``predicted_reads + omega * predicted_writes``
    predicted_cost: float
    #: ``"aem"`` (an :data:`~repro.engine.EXTERNAL_SORTS` sort) or ``"ram"``
    model: str

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "k": self.k,
            "predicted_reads": self.predicted_reads,
            "predicted_writes": self.predicted_writes,
            "predicted_cost": self.predicted_cost,
            "model": self.model,
        }


@dataclass(frozen=True)
class SortPlan:
    """Ranked plan for one ``(n, params)`` sorting problem."""

    n: int
    params: MachineParams
    ranked: tuple[PlanCandidate, ...]

    @property
    def chosen(self) -> PlanCandidate:
        """The minimum-predicted-cost candidate (rank 0)."""
        return self.ranked[0]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "params": str(self.params),
            "chosen": self.chosen.as_dict(),
            "ranked": [c.as_dict() for c in self.ranked],
        }


# ---------------------------------------------------------------------- #
# per-algorithm predicted bounds (block granularity, unit constants)
# ---------------------------------------------------------------------- #
def _heapsort_reads(n: int, M: int, B: int, k: int) -> float:
    return 2 * n * predicted_amortized_reads(n, M, B, k)


def _heapsort_writes(n: int, M: int, B: int, k: int) -> float:
    return 2 * n * predicted_amortized_writes(n, M, B, k)


_K_PARAMETERISED = {
    "mergesort": (mergesort_reads, mergesort_writes),
    "samplesort": (samplesort_reads, samplesort_writes),
    "heapsort": (_heapsort_reads, _heapsort_writes),
}


def _constant_pair(constants: "CostConstants | None", family: str) -> tuple[float, float]:
    """The (read, write) multipliers for ``family`` (unit when uncalibrated)."""
    if constants is None:
        return 1.0, 1.0
    return constants.read_constant(family), constants.write_constant(family)


def _best_k(
    n: int,
    params: MachineParams,
    algorithm: str,
    k_max: int | None,
    constants: "CostConstants | None" = None,
) -> int | None:
    """Minimise the algorithm's exact predicted cost over the Corollary 4.4
    feasible region (``k = 1`` always admissible); ties go to the smaller k.

    Returns ``None`` when no feasible k yields a merge fanout ``kM/B >= 2``
    (an M = B machine, say): the recursion does not shrink there, so the
    algorithm — and its closed forms — are undefined.
    """
    reads_fn, writes_fn = _K_PARAMETERISED[algorithm]
    cr, cw = _constant_pair(constants, algorithm)
    # same scan floor as predict_candidate, so the k minimising this loop's
    # cost is the minimiser of the cost the candidate will actually report
    floor = float(math.ceil(n / params.B))
    best_k, best_cost = None, None
    for k in feasible_k_region(params, k_max):
        if params.fanout(k) < 2:
            continue
        r = max(cr * reads_fn(n, params.M, params.B, k), floor)
        w = max(cw * writes_fn(n, params.M, params.B, k), floor)
        cost = r + params.omega * w
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
    return best_k


def predict_candidate(
    algorithm: str,
    n: int,
    params: MachineParams,
    k: int | None = None,
    k_max: int | None = None,
    constants: "CostConstants | None" = None,
) -> PlanCandidate:
    """Predicted-cost entry for one algorithm (optimising ``k`` if not given).

    ``algorithm`` is one of :data:`PLANNABLE_ALGORITHMS`; requesting ``"ram"``
    with ``n > M`` raises ``ValueError`` (the input would not fit).
    ``constants`` scales each bound by its calibrated leading multiplier
    (:class:`~repro.planner.calibration.CostConstants`); ``None`` keeps the
    unit-constant theory forms.
    """
    M, B, omega = params.M, params.B, params.omega
    # scan lower bound: sorting n >= 1 external records touches every input
    # block and writes every output block at least once.  Amortized forms
    # (heapsort's Theorem 4.10) dip below this for tiny n; the floor keeps
    # the ranking honest there.  The floor is a physical bound, so calibrated
    # constants never scale it.
    floor = float(math.ceil(n / B))
    cr, cw = _constant_pair(constants, algorithm)
    if algorithm in _K_PARAMETERISED:
        if k is None:
            k = _best_k(n, params, algorithm, k_max, constants)
            if k is None:
                raise ValueError(
                    f"{algorithm} infeasible on {params}: merge fanout kM/B < 2 "
                    "for every Corollary 4.4-feasible k"
                )
        reads_fn, writes_fn = _K_PARAMETERISED[algorithm]
        r = max(cr * float(reads_fn(n, M, B, k)), floor)
        w = max(cw * float(writes_fn(n, M, B, k)), floor)
        return PlanCandidate(algorithm, k, r, w, r + omega * w, "aem")
    if algorithm == "selection":
        r = max(cr * float(selection_sort_reads(n, M, B)), floor)
        w = max(cw * float(selection_sort_writes(n, B)), floor)
        return PlanCandidate(algorithm, None, r, w, r + omega * w, "aem")
    if algorithm == "ram":
        if n > M:
            raise ValueError(f"ram plan requires n <= M, got n={n} > M={M}")
        blocks = float(math.ceil(n / B))
        r = max(cr * blocks, blocks)
        w = max(cw * blocks, blocks)
        return PlanCandidate(algorithm, None, r, w, r + omega * w, "ram")
    raise ValueError(
        f"unknown algorithm {algorithm!r}; choose from {sorted(PLANNABLE_ALGORITHMS)}"
    )


def rank_plans(
    n: int,
    params: MachineParams,
    algorithms: tuple[str, ...] | None = None,
    k_max: int | None = None,
    constants: "CostConstants | None" = None,
) -> list[PlanCandidate]:
    """All candidates for ``(n, params)``, best (lowest predicted cost) first.

    ``algorithms`` restricts the field.  With the default (``None``, meaning
    every plannable algorithm) an inapplicable candidate is silently skipped —
    ``"ram"`` when ``n > M``, and the recursive sorts on a degenerate-fanout
    machine — because the auto-planner simply has no such option there.  An
    *explicitly* requested algorithm that cannot run raises the ``ValueError``
    from :func:`predict_candidate` instead of being dropped behind the
    caller's back.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    explicit = algorithms is not None
    if algorithms is None:
        algorithms = PLANNABLE_ALGORITHMS
    out = []
    for name in algorithms:
        if name == "ram" and n > params.M and not explicit:
            continue
        try:
            out.append(predict_candidate(name, n, params, k_max=k_max, constants=constants))
        except ValueError:
            if explicit or name not in _K_PARAMETERISED:
                raise
            # degenerate-fanout machine (e.g. M = B): the recursive sorts
            # cannot run; selection (and ram, when it fits) remain
            continue
    if not out:
        raise ValueError("no applicable algorithms for this (n, params)")
    out.sort(
        key=lambda c: (
            c.predicted_cost,
            c.predicted_writes,
            _TIE_PREFERENCE[c.algorithm],
        )
    )
    return out


def plan_sort(
    n: int,
    params: MachineParams,
    algorithms: tuple[str, ...] | None = None,
    k_max: int | None = None,
    constants: "CostConstants | None" = None,
) -> SortPlan:
    """Build the ranked :class:`SortPlan` for one sorting problem."""
    return SortPlan(
        n=n,
        params=params,
        ranked=tuple(rank_plans(n, params, algorithms, k_max, constants=constants)),
    )


def predict_stream_io(n: int, params: MachineParams, k: int) -> tuple[float, float]:
    """Predicted total ``(reads, writes)`` for a buffer-tree streaming
    session: ``n`` ingested records followed by a full sorted drain.

    Ingest + drain is ``2n`` buffer-tree operations, each at the Theorem
    4.10 amortized per-operation bounds (unit leading constants), floored at
    one scan each way — the same physical lower bound
    :func:`predict_candidate` applies.  This is the closed form the
    engine's :class:`~repro.engine.StreamSession` reports against and the
    streaming benchmark asserts as an upper-bound shape.
    """
    if n <= 0:
        return 0.0, 0.0
    floor = float(math.ceil(n / params.B))
    r = max(_heapsort_reads(n, params.M, params.B, k), floor)
    w = max(_heapsort_writes(n, params.M, params.B, k), floor)
    return r, w


def predict_shard_merge_io(n: int, params: MachineParams, k: int) -> tuple[float, float]:
    """Predicted ``(reads, writes)`` for the coordinator's k-way merge of
    ``k`` sorted shards totalling ``n`` records (balanced split).

    One streaming pass: every shard block is read once and every output
    block written once — ``sum_i ceil(n_i/B)`` reads, ``ceil(n/B)`` writes
    (exactly what the ``shardmerge`` kernel charges and its EXACT cost
    contract certifies).  Floored at one scan each way like every other
    prediction here.
    """
    if n <= 0:
        return 0.0, 0.0
    floor = float(math.ceil(n / params.B))
    r = max(shard_merge_reads(n, params.B, k), floor)
    w = max(shard_merge_writes(n, params.B), floor)
    return r, w


@dataclass(frozen=True)
class ClusterShardPlan:
    """The scatter plan for one job fanned out over ``hosts`` cluster hosts.

    ``shard_sizes`` is the balanced target split the splitter sampling aims
    for (realized shard sizes depend on the data's quantiles); the merge
    prediction is evaluated at this target, which is where the
    ``shardmerge`` read form is minimised, so it is the honest planning
    figure for a well-sampled scatter.
    """

    n: int
    hosts: int
    shard_sizes: tuple[int, ...]
    #: records the coordinator samples to pick splitters
    sample_size: int
    #: number of splitters (``hosts - 1``)
    splitter_count: int
    predicted_merge_reads: float
    predicted_merge_writes: float
    #: ``reads + omega * writes`` for the coordinator-side merge
    predicted_merge_cost: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "hosts": self.hosts,
            "shard_sizes": list(self.shard_sizes),
            "sample_size": self.sample_size,
            "splitter_count": self.splitter_count,
            "predicted_merge_reads": self.predicted_merge_reads,
            "predicted_merge_writes": self.predicted_merge_writes,
            "predicted_merge_cost": self.predicted_merge_cost,
        }


#: splitter sample records per host in a cluster scatter
CLUSTER_OVERSAMPLE = 32


def plan_cluster_shards(n: int, hosts: int, params: MachineParams) -> ClusterShardPlan:
    """Plan the scatter of an ``n``-record job across ``hosts`` hosts.

    Mirrors Theorem 4.5's sample-and-split structure one level up: draw a
    :data:`CLUSTER_OVERSAMPLE`-per-host sample, pick ``hosts - 1``
    splitters at even sample quantiles, scatter, and merge the sorted
    shards back with the ``shardmerge`` kernel.  Returns the balanced
    target split and the predicted merge I/O the cluster's
    :class:`~repro.api.SortReport` is judged against.
    """
    if hosts < 1:
        raise ValueError(f"hosts must be >= 1, got {hosts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    q, r = divmod(n, hosts)
    sizes = tuple(q + 1 if i < r else q for i in range(hosts))
    sample_size = min(n, hosts * CLUSTER_OVERSAMPLE)
    reads, writes = predict_shard_merge_io(n, params, hosts)
    return ClusterShardPlan(
        n=n,
        hosts=hosts,
        shard_sizes=sizes,
        sample_size=sample_size,
        splitter_count=hosts - 1,
        predicted_merge_reads=reads,
        predicted_merge_writes=writes,
        predicted_merge_cost=reads + params.omega * writes,
    )
