"""Batch jobs: the job and report types plus the one per-job function.

Production traffic is many sort requests, not one; a batch is a list of
:class:`SortJob`\\ s whose per-job :class:`~repro.api.SortReport`\\ s
aggregate into a :class:`BatchReport` throughput summary (jobs/s,
records/s, total asymmetric I/O cost, per-family mix).

Jobs default to adaptive planning (``SortEngine.sort(algorithm="auto")``);
a job may pin ``algorithm`` (and ``k``) to force a specific strategy.  One
failing job does not abort the batch — failures are captured per job and
reported.

Every batch path runs each job through :func:`execute_and_check` on its own
simulated machine, so reads / writes / cost do not depend on scheduling:

* :meth:`repro.engine.SortEngine.batch` runs the jobs on a persistent
  :class:`~repro.service.SortService` pool —
  thread workers sharing one :class:`PlanCache`, or worker processes with
  one cache each (``executor="process"``, the CPU-bound scale-out path);
* :func:`execute_batch` runs them sequentially in submission order with one
  fresh cache.  It is the reference the service's reports are tested
  against.

Adaptive planning is memoised through a :class:`PlanCache` (plans are pure
functions of ``(n, machine, constants)``); the batch summary surfaces the
hit/miss counts so cache effectiveness is visible per run.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..models.params import MachineParams
from .plan_cache import PlanCache


@dataclass
class SortJob:
    """One sort request: data + machine, optionally pinned to an algorithm.

    Plain data all the way down (a list, a frozen
    :class:`~repro.models.params.MachineParams`, strings) so jobs pickle
    cleanly across the process-pool boundary.

    ``params`` may be left ``None`` when the job runs through
    :meth:`~repro.engine.SortEngine.batch` or a
    :class:`~repro.service.SortService`, which fill in their engine's
    machine; the sequential :func:`execute_batch` requires it.
    """

    data: Sequence
    params: MachineParams | None = None
    label: str = ""
    #: ``None`` → let the planner choose; otherwise one of
    #: :data:`~repro.planner.cost_model.PLANNABLE_ALGORITHMS`
    algorithm: str | None = None
    k: int | None = None


@dataclass
class JobFailure:
    """A job that raised, with enough context to reproduce it."""

    index: int
    label: str
    error: Exception


@dataclass
class BatchReport:
    """Aggregated outcome of one batch run."""

    #: successful reports, in job-submission order
    reports: list = field(default_factory=list)
    failures: list[JobFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: which backend ran the batch (``"thread"`` or ``"process"``)
    executor: str = "thread"
    #: plan-cache effectiveness over the batch (summed across workers in
    #: process mode); pinned jobs never consult the cache
    plan_hits: int = 0
    plan_misses: int = 0
    #: per-worker (hits, misses) pairs in worker order — populated by the
    #: process executor (each worker owns its cache), empty in thread mode
    #: where one shared cache already tells the whole story
    shard_plan_stats: list = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def jobs_completed(self) -> int:
        return len(self.reports)

    @property
    def total_records(self) -> int:
        return sum(r.n for r in self.reports)

    @property
    def total_reads(self) -> int:
        return sum(r.reads for r in self.reports)

    @property
    def total_writes(self) -> int:
        return sum(r.writes for r in self.reports)

    def total_cost(self) -> float:
        """Summed per-job asymmetric cost (each at its own machine's omega)."""
        return float(sum(r.cost() for r in self.reports))

    @property
    def jobs_per_second(self) -> float:
        return self.jobs_completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def records_per_second(self) -> float:
        return self.total_records / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def algorithm_mix(self) -> dict[str, int]:
        """How many jobs each algorithm *family* won (``"mergesort"``,
        ``"selection"``, ``"ram"``, …) — one bucket per algorithm, not one
        per ``(algorithm, k)`` label."""
        return dict(Counter(r.family for r in self.reports))

    def summary(self) -> dict:
        """One flat dict — the headline row of the batch."""
        return {
            "jobs": self.jobs_completed,
            "failed": len(self.failures),
            "records": self.total_records,
            "reads": self.total_reads,
            "writes": self.total_writes,
            "cost": self.total_cost(),
            "wall_s": round(self.wall_seconds, 4),
            "jobs/s": round(self.jobs_per_second, 2),
            "records/s": round(self.records_per_second, 1),
            "executor": self.executor,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_per_shard": (
                ",".join(f"{h}/{m}" for h, m in self.shard_plan_stats)
                if self.shard_plan_stats
                else "-"
            ),
        }

    def mix_rows(self) -> list[dict]:
        """Per-family breakdown rows (for ``format_table``)."""
        rows = []
        for name, count in sorted(self.algorithm_mix().items()):
            group = [r for r in self.reports if r.family == name]
            rows.append(
                {
                    "family": name,
                    "jobs": count,
                    "records": sum(r.n for r in group),
                    "reads": sum(r.reads for r in group),
                    "writes": sum(r.writes for r in group),
                    "cost": float(sum(r.cost() for r in group)),
                }
            )
        return rows


def _execute_job(job: SortJob, cache: PlanCache | None = None, constants=None):
    # local import: the engine imports this package (engine.batch → here)
    from ..engine import SortEngine

    if job.params is None:
        raise ValueError(
            f"job {job.label!r} has no machine params; run it through "
            "SortEngine.batch (which fills in the engine's machine) or set "
            "SortJob.params"
        )
    engine = SortEngine(job.params, constants=constants, cache=cache)
    if job.algorithm is None:
        return engine.sort(job.data, algorithm="auto")
    # a pinned "ram" job reports at block granularity so batch aggregates
    # stay in one currency
    return engine.sort(job.data, algorithm=job.algorithm, k=job.k)


def execute_and_check(
    index: int,
    job: SortJob,
    cache: PlanCache | None = None,
    constants=None,
    check_sorted: bool = False,
):
    """The per-job semantics shared by every batch path: run the job, enforce
    ``check_sorted``, raise on any problem (the caller records the
    :class:`JobFailure`).  Thread and process workers must not diverge here."""
    rep = _execute_job(job, cache=cache, constants=constants)
    if check_sorted and not rep.is_sorted():
        raise AssertionError(f"job {index} ({job.label!r}) output not sorted")
    return rep


def execute_batch(jobs: Sequence[SortJob], check_sorted: bool = False) -> BatchReport:
    """The sequential reference batch: run every job in submission order
    through :func:`execute_and_check` with one fresh :class:`PlanCache`,
    capturing failures per job.

    No pool: :meth:`~repro.engine.SortEngine.batch` runs batches on a
    :class:`~repro.service.SortService`, and its reports are tested against
    this one.
    """
    report = BatchReport()
    cache = PlanCache()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        try:
            report.reports.append(execute_and_check(i, job, cache, check_sorted=check_sorted))
        except Exception as exc:  # noqa: BLE001 — captured per job by design
            report.failures.append(JobFailure(index=i, label=job.label, error=exc))
    report.plan_hits, report.plan_misses = cache.hits, cache.misses
    report.wall_seconds = time.perf_counter() - t0
    return report
