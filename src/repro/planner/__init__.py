"""Adaptive sort planning and batch execution.

The paper's headline message is that the *best* sorting algorithm depends on
the machine ``(M, B, omega)`` and the input size ``n``: Theorem 4.3
(mergesort), Theorem 4.5 (sample sort), Theorem 4.10 (heapsort via the
buffer-tree priority queue) and Lemma 4.2 (selection base case) trade reads
against writes differently, and Corollary 4.4 bounds the useful branching
factors.  This subsystem turns those closed forms into an executable planner:

* :mod:`~repro.planner.cost_model` — rank every algorithm (with its own best
  ``k``) by exact predicted asymmetric I/O cost and emit a :class:`SortPlan`;
* :mod:`~repro.planner.calibration` — fit per-algorithm leading constants
  from measured runs (:class:`CostConstants`) so the ranking reflects this
  implementation rather than unit-constant theory;
* :mod:`~repro.planner.plan_cache` — memoise rankings (pure functions of
  ``(n, machine, constants)``) with hit/miss accounting;
* :mod:`~repro.planner.batch` — the batch job and report types, the
  per-job function every batch path runs, and the sequential reference
  batch.  Batches themselves run on the :class:`repro.service.SortService`
  pool.

The :class:`repro.engine.SortEngine` session façade (and through it the
``python -m repro plan`` / ``batch`` / ``calibrate`` / ``stream`` CLI
subcommands) is a thin wrapper over these modules.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".batch": ("BatchReport", "JobFailure", "SortJob", "execute_batch"),
    ".calibration": (
        "CALIBRATABLE_ALGORITHMS",
        "CalibrationSample",
        "CostConstants",
        "RankingComparison",
        "calibrate",
        "compare_rankings",
        "fit_constants",
        "measure_samples",
    ),
    ".cost_model": (
        "PLANNABLE_ALGORITHMS",
        "ClusterShardPlan",
        "PlanCandidate",
        "SortPlan",
        "plan_cluster_shards",
        "plan_sort",
        "predict_candidate",
        "predict_shard_merge_io",
        "rank_plans",
    ),
    ".plan_cache": ("PlanCache",),
})

__all__ = [
    "BatchReport",
    "CALIBRATABLE_ALGORITHMS",
    "CalibrationSample",
    "ClusterShardPlan",
    "CostConstants",
    "JobFailure",
    "PLANNABLE_ALGORITHMS",
    "PlanCache",
    "PlanCandidate",
    "RankingComparison",
    "SortJob",
    "SortPlan",
    "calibrate",
    "compare_rankings",
    "execute_batch",
    "fit_constants",
    "measure_samples",
    "plan_cluster_shards",
    "plan_sort",
    "predict_candidate",
    "predict_shard_merge_io",
    "rank_plans",
]
