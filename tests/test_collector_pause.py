"""The cyclic-collector pause around the external sorts.

``collector_paused()`` keeps CPython's cyclic garbage collector off while an
AEM kernel runs.  These tests pin its state machine (nesting, exceptions,
overlapping threads, fork), its two call sites, and its premise: the
kernels build no reference cycles, so a collection inside one never frees
anything.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import random
import sys
import threading
import time

import pytest

import repro.engine as engine_mod
from repro.analysis import locksan
from repro.cluster import LocalCluster
from repro.core.shard_merge import shard_merge
from repro.engine import EXTERNAL_SORTS, SortEngine
from repro.models import AEMachine, MachineParams, MemoryGuard
from repro.models import external_memory
from repro.models.external_memory import collector_paused
from repro.workloads import make_scenario

MACHINES = (
    MachineParams(M=16, B=4, omega=4),
    MachineParams(M=64, B=8, omega=8),
    MachineParams(M=512, B=16, omega=16),
)
BULK = MachineParams(M=2048, B=32, omega=16)
#: seconds any thread in these tests may wait before the test fails
WAIT = 30.0


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts with collection on and leaves it as it found it."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(autouse=True)
def recorded_pause_lock():
    """Run each test with the pause's lock under locksan's lock-order
    recorder (the lock is made at import, and without ``REPRO_LOCKSAN=1``
    the recorder was off then, so it is made again here)."""
    was = locksan.locksan_enabled()
    locksan.enable()
    locksan.reset()
    external_memory._PAUSE._reset()
    assert isinstance(external_memory._PAUSE._lock, locksan.RecordingLock)
    yield
    violations = locksan.violations()
    locksan.reset()
    if not was:
        locksan.disable()
    external_memory._PAUSE._reset()
    assert violations == [], violations


@contextlib.contextmanager
def collections_started():
    """Yield a list that gathers the generation of every collection that
    starts inside the ``with`` block."""
    starts: list[int] = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield starts
    finally:
        gc.callbacks.remove(record)


def unreachable_after(fn) -> int:
    """Objects a full collection finds unreachable after ``fn()`` ran with
    collection off: the cyclic garbage ``fn`` left behind."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestState:
    def test_on_before_means_on_after(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_off_by_the_callers_choice_stays_off(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_an_exception_inside_restores_the_state(self, enabled):
        if not enabled:
            gc.disable()
        with pytest.raises(RuntimeError, match="kernel failed"):
            with collector_paused():
                raise RuntimeError("kernel failed")
        assert gc.isenabled() is enabled
        # and the count is back to zero: the next pause works as usual
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    def test_nested_entries_in_one_thread(self):
        with collector_paused():
            with collector_paused():
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestThreads:
    def test_overlapping_pauses_resume_after_the_last_exit(self):
        inside = threading.Barrier(3, timeout=WAIT)
        first_out = threading.Event()
        release_second = threading.Event()

        def first():
            with collector_paused():
                inside.wait()
            first_out.set()

        def second():
            with collector_paused():
                inside.wait()
                release_second.wait(WAIT)

        threads = [
            threading.Thread(target=first, daemon=True),
            threading.Thread(target=second, daemon=True),
        ]
        for t in threads:
            t.start()
        try:
            inside.wait()  # both threads are inside their pauses
            assert not gc.isenabled()
            assert first_out.wait(WAIT)
            threads[0].join(WAIT)
            assert not threads[0].is_alive()
            assert not gc.isenabled(), "the first exit resumed under the second pause"
        finally:
            release_second.set()
            threads[1].join(WAIT)
        assert not threads[1].is_alive()
        assert gc.isenabled()

    def test_randomized_many_thread_stress_never_ends_off(self):
        errors = []
        start = threading.Barrier(8, timeout=WAIT)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                start.wait()
                for _ in range(300):
                    depth = rng.randint(1, 3)
                    pauses = [collector_paused() for _ in range(depth)]
                    for p in pauses:
                        p.__enter__()
                    if rng.random() < 0.5:
                        time.sleep(0)  # let other threads enter and exit
                    if gc.isenabled():
                        errors.append("collection on inside a pause")
                    for p in reversed(pauses):
                        p.__exit__(None, None, None)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(s,), daemon=True) for s in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert gc.isenabled()
        assert external_memory._PAUSE._depth == 0


def _child_pauses_and_resumes() -> None:
    """Runs in a forked child: exit 0 iff the child starts with collection
    on and a pause still turns it off and back on (no deadlock)."""
    ok = gc.isenabled()
    with collector_paused():
        ok = ok and not gc.isenabled()
    ok = ok and gc.isenabled()
    os._exit(0 if ok else 1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads
class TestFork:
    def test_child_forked_inside_a_pause_starts_with_collection_on(self):
        paused = threading.Event()
        locked = threading.Event()
        release = threading.Event()

        def hold_pause():
            with collector_paused():
                paused.set()
                release.wait(WAIT)

        def hold_lock():
            # a thread caught inside the pause's lock at the fork
            with external_memory._PAUSE._lock:
                locked.set()
                release.wait(WAIT)

        holders = [threading.Thread(target=hold_pause)]
        holders[0].start()
        assert paused.wait(WAIT)
        holders.append(threading.Thread(target=hold_lock))
        holders[1].start()
        assert locked.wait(WAIT)
        try:
            assert not gc.isenabled()
            child = multiprocessing.get_context("fork").Process(
                target=_child_pauses_and_resumes
            )
            child.start()
            child.join(WAIT)
            if child.exitcode is None:  # pragma: no cover - deadlocked child
                child.kill()
                child.join()
            assert child.exitcode == 0
        finally:
            release.set()
            for t in holders:
                t.join(WAIT)
        assert not any(t.is_alive() for t in holders)
        assert gc.isenabled()

    def test_child_forked_outside_a_pause_keeps_the_callers_choice(self):
        gc.disable()
        child = multiprocessing.get_context("fork").Process(
            target=lambda: os._exit(1 if gc.isenabled() else 0)
        )
        child.start()
        child.join(WAIT)
        assert child.exitcode == 0


class TestCallSites:
    def test_external_kernels_run_paused(self, monkeypatch):
        seen = []
        real = engine_mod.aem_mergesort

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "aem_mergesort", spy)
        data = make_scenario("uniform", 500, seed=1)
        report = SortEngine(MACHINES[1]).sort(data, algorithm="mergesort")
        assert report.output == sorted(data)
        assert seen == [False]
        assert gc.isenabled()

    def test_a_raising_kernel_restores_collection(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(engine_mod, "aem_heapsort", broken)
        with pytest.raises(RuntimeError, match="kernel failed"):
            SortEngine(MACHINES[1]).sort(list(range(200)), algorithm="heapsort")
        assert gc.isenabled()
        assert external_memory._PAUSE._depth == 0

    def test_the_ram_plan_stays_unpaused(self, monkeypatch):
        seen = []
        real = engine_mod.RAM_SORTS["bst-rb"]

        def spy(data, counter=None):
            seen.append(gc.isenabled())
            return real(data, counter)

        monkeypatch.setitem(engine_mod.RAM_SORTS, "bst-rb", spy)
        data = make_scenario("uniform", 50, seed=1)
        report = SortEngine(MACHINES[1]).sort(data)
        assert report.family == "ram"
        assert seen == [True]

    def test_cluster_merge_runs_paused(self, monkeypatch):
        import repro.cluster.coordinator as coordinator_mod

        seen = []
        real = coordinator_mod.shard_merge

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(coordinator_mod, "shard_merge", spy)
        data = make_scenario("uniform", 3000, seed=2)
        with LocalCluster(2, workers=1, params=MACHINES[1]) as servers:
            coordinator = servers.connect()
            try:
                report = coordinator.sort(data)
            finally:
                coordinator.close()
        assert report.output == sorted(data)
        assert seen == [False]
        assert gc.isenabled()


class TestPremise:
    """With collection off, a full collection after each kernel finds
    nothing: the kernels leave no cyclic garbage for a collection to free."""

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"M{p.M}B{p.B}")
    @pytest.mark.parametrize("algorithm", [*EXTERNAL_SORTS, "auto"])
    def test_external_sorts_leave_no_cycles(self, params, algorithm):
        engine = SortEngine(params)
        for n in (params.M + 1, 3 * params.M + 7, 2000):
            data = make_scenario("uniform", n, seed=n)
            reports = []
            found = unreachable_after(
                lambda: reports.append(engine.sort(data, algorithm=algorithm))
            )
            assert reports[0].output == sorted(data)
            assert reports[0].family != "ram"
            assert found == 0, (algorithm, n, found)

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"M{p.M}B{p.B}")
    def test_selection_on_duplicate_heavy_input_leaves_no_cycles(self, params):
        engine = SortEngine(params)
        rng = random.Random(params.M)
        data = [rng.randrange(7) for _ in range(2000)]
        reports = []
        found = unreachable_after(
            lambda: reports.append(engine.sort(data, algorithm="selection"))
        )
        assert reports[0].output == sorted(data)
        assert found == 0

    @pytest.mark.parametrize("params", MACHINES, ids=lambda p: f"M{p.M}B{p.B}")
    def test_shard_merge_leaves_no_cycles(self, params):
        rng = random.Random(params.B)
        keys = rng.sample(range(100_000), 3000)
        cuts = sorted(rng.sample(range(1, 3000), 4))
        shards = [sorted(keys[a:b]) for a, b in zip([0, *cuts], [*cuts, 3000])]
        shards[1:1] = [[], []]  # empty shards among uneven ones
        shards.append([])
        out = []

        def merge():
            machine = AEMachine(params)
            arrays = [machine.from_list(s) for s in shards]
            out.append(shard_merge(machine, arrays, MemoryGuard()).peek_list())

        assert unreachable_after(merge) == 0
        assert out[0] == sorted(keys)

    def test_the_ram_plan_is_the_exception(self):
        """Why the RAM plan stays unpaused: the red-black tree's parent
        pointers leave every node of a RAM sort as cyclic garbage."""
        engine = SortEngine(MACHINES[2])
        data = make_scenario("uniform", 400, seed=4)
        assert unreachable_after(lambda: engine.sort(data, algorithm="ram")) >= 400


class TestCollectionsPerSort:
    @pytest.mark.parametrize("algorithm", sorted(EXTERNAL_SORTS))
    def test_no_collection_starts_during_a_sort(self, algorithm):
        """Unpaused, a 50k-record sort sets off a collection every few
        hundred net allocations.  Paused, none starts inside the kernel,
        and none after it either: the sort's arrays are freed before the
        pause ends, so the allocation count is back under the threshold."""
        engine = SortEngine(BULK)
        data = make_scenario("uniform", 50_000, seed=9)
        gc.collect()
        with collections_started() as starts:
            report = engine.sort(data, algorithm=algorithm)
        assert report.output == sorted(data)
        assert starts == []
