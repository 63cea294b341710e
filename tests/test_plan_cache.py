"""Tests for the memoised plan cache."""

import threading

import pytest

from repro import MachineParams, PlanCache, plan_sort
from repro.planner.plan_cache import DEFAULT_MAXSIZE
from repro.planner.calibration import CostConstants

SMALL = MachineParams(M=64, B=8, omega=8)
MEDIUM = MachineParams(M=256, B=16, omega=8)


class TestPlanCache:
    def test_hit_returns_identical_ranking(self):
        cache = PlanCache()
        first = cache.plan(5_000, SMALL)
        second = cache.plan(5_000, SMALL)
        assert second is first  # the memoised object, not a recomputation
        fresh = plan_sort(5_000, SMALL)
        assert [c.as_dict() for c in second.ranked] == [c.as_dict() for c in fresh.ranked]
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_keys_miss(self):
        cache = PlanCache()
        cache.plan(5_000, SMALL)
        cache.plan(5_001, SMALL)                      # different n
        cache.plan(5_000, SMALL.with_omega(16))       # different omega
        cache.plan(5_000, MEDIUM)                     # different (M, B)
        cache.plan(5_000, SMALL, algorithms=("mergesort",))  # restricted field
        cache.plan(5_000, SMALL, k_max=3)             # different k budget
        assert cache.hits == 0 and cache.misses == 6
        assert len(cache) == 6

    def test_constants_participate_in_key(self):
        cache = PlanCache()
        unit = cache.plan(5_000, SMALL)
        heavy = CostConstants.from_mapping({"samplesort": (10.0, 10.0)})
        scaled = cache.plan(5_000, SMALL, constants=heavy)
        assert cache.misses == 2 and cache.hits == 0
        assert scaled.chosen.algorithm != "samplesort"
        assert cache.plan(5_000, SMALL, constants=heavy) is scaled
        assert cache.plan(5_000, SMALL) is unit
        assert cache.hits == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        a = cache.plan(1_000, SMALL)
        cache.plan(2_000, SMALL)
        assert cache.plan(1_000, SMALL) is a  # touch: 1_000 is now most-recent
        cache.plan(3_000, SMALL)              # evicts 2_000
        assert len(cache) == 2
        assert cache.plan(1_000, SMALL) is a
        cache.plan(2_000, SMALL)
        assert cache.misses == 4  # 1k, 2k, 3k, then 2k again after eviction

    def test_default_bound_evicts_least_recently_used(self):
        # a serve process plans one entry per distinct job size
        cache = PlanCache()
        sizes = range(100, 100 + DEFAULT_MAXSIZE + 2)
        first = cache.plan(sizes[0], SMALL)
        for n in sizes[1:DEFAULT_MAXSIZE]:
            cache.plan(n, SMALL)
        assert len(cache) == DEFAULT_MAXSIZE and cache.misses == DEFAULT_MAXSIZE
        assert cache.plan(sizes[0], SMALL) is first  # touch: now most recent
        cache.plan(sizes[DEFAULT_MAXSIZE], SMALL)    # evicts sizes[1]
        cache.plan(sizes[DEFAULT_MAXSIZE + 1], SMALL)  # evicts sizes[2]
        assert len(cache) == DEFAULT_MAXSIZE
        assert cache.plan(sizes[0], SMALL) is first
        misses = cache.misses
        cache.plan(sizes[3], SMALL)
        assert cache.misses == misses  # still held
        cache.plan(sizes[1], SMALL)
        assert cache.misses == misses + 1  # evicted, planned again

    def test_explicit_none_is_unbounded(self):
        cache = PlanCache(maxsize=None)
        for n in range(100, 100 + DEFAULT_MAXSIZE + 5):
            cache.plan(n, SMALL)
        assert cache.misses == DEFAULT_MAXSIZE + 5
        assert len(cache) == DEFAULT_MAXSIZE + 5

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            PlanCache(maxsize=0)

    def test_planned_reports_hit_flag(self):
        cache = PlanCache()
        plan, hit = cache.planned(6_000, SMALL)
        assert not hit
        plan2, hit2 = cache.planned(6_000, SMALL)
        assert hit2 and plan2 is plan

    def test_planning_errors_propagate_uncached(self):
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.plan(-1, SMALL)
        assert len(cache) == 0

    def test_clear(self):
        cache = PlanCache()
        cache.plan(1_000, SMALL)
        cache.plan(1_000, SMALL)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_thread_safety_smoke(self):
        cache = PlanCache()
        plans = [None] * 16

        def worker(i):
            plans[i] = cache.plan(7_000, SMALL)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is not None for p in plans)
        reference = [c.as_dict() for c in plans[0].ranked]
        assert all([c.as_dict() for c in p.ranked] == reference for p in plans)
        assert cache.hits + cache.misses == 16
        assert len(cache) == 1

