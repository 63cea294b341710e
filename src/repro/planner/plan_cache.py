"""Memoised sort planning.

A :class:`~repro.planner.cost_model.SortPlan` is a pure function of
``(n, M, B, omega, algorithms, k_max, constants)`` — nothing about the input
*data* enters the ranking.  Batch workloads repeat the same ``(n, machine)``
combinations constantly (the CLI driver draws job sizes from a small range,
production traffic clusters around popular request shapes), so re-ranking per
job is pure waste.  :class:`PlanCache` memoises the ranking behind a lock
(safe to share across the thread executor; every process worker of a
:class:`~repro.service.SortService` builds its own) and counts hits/misses so
:meth:`~repro.planner.batch.BatchReport.summary` can surface cache
effectiveness per batch.  A plan enters a cache only by being computed on a
miss, which evaluates closed forms and costs far less than the sort it
routes, so a fresh or respawned worker simply plans each size on its first
job.

Entries are evicted least recently used past ``maxsize``, which defaults to
:data:`DEFAULT_MAXSIZE`.  A cache keeps one plan per distinct ``(n,
machine)`` shape, about 1.2 kB each under ``tracemalloc``, and a serve
process sees whatever sizes the wire sends it, so an unbounded default would
grow for the life of the process.  ``maxsize=None`` asks for an unbounded
cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..analysis.locksan import wrap_lock
from ..models.params import MachineParams
from .cost_model import SortPlan, plan_sort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (calibration → cost_model)
    from .calibration import CostConstants


#: default bound on the plans one cache keeps: about 5 MB of plans
DEFAULT_MAXSIZE = 4096


class PlanCache:
    """Thread-safe LRU memo table for :func:`~repro.planner.cost_model.plan_sort`,
    holding at most ``maxsize`` plans (``None``: unbounded)."""

    def __init__(self, maxsize: int | None = DEFAULT_MAXSIZE):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._plans: OrderedDict[tuple, SortPlan] = OrderedDict()
        self._lock = wrap_lock(threading.Lock(), "PlanCache._lock")

    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> tuple:
        """The full set of inputs ``plan_sort`` is a pure function of."""
        return (
            n,
            params.M,
            params.B,
            params.omega,
            tuple(algorithms) if algorithms is not None else None,
            k_max,
            constants,
        )

    def plan(
        self,
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> SortPlan:
        """The memoised :func:`plan_sort` — identical result, counted access."""
        return self.planned(n, params, algorithms, k_max, constants)[0]

    def planned(
        self,
        n: int,
        params: MachineParams,
        algorithms: tuple[str, ...] | None = None,
        k_max: int | None = None,
        constants: "CostConstants | None" = None,
    ) -> tuple[SortPlan, bool]:
        """:meth:`plan` plus whether this access was a cache hit.

        The per-worker accounting in :mod:`repro.service` attributes each
        access to the job that made it, which needs the hit/miss outcome of
        the individual call rather than the cache-wide totals.
        """
        key = self.make_key(n, params, algorithms, k_max, constants)
        # compute under the lock: a miss ranks every algorithm in closed
        # form (0.1-0.2 ms), far cheaper than the sorts it routes, and
        # holding the lock makes hit/miss accounting deterministic —
        # concurrent first accesses to one key count exactly one miss
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return cached, True
            plan = plan_sort(n, params, algorithms=algorithms, k_max=k_max, constants=constants)
            self.misses += 1
            self._plans[key] = plan
            if self.maxsize is not None and len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plan, False

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
