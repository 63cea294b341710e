"""The three flow analyses on synthetic projects, plus the static/dynamic
lock-order cross-check: the statically inferred order graph must cover
every edge locksan ever observes at runtime (static ⊇ dynamic)."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.analysis import locksan
from repro.analysis.flow import (
    analyze_charges,
    analyze_lockset,
    analyze_pairing,
    build_project_index,
)
from repro.analysis.lint_rules import _flow_sources, _flow_suppressions
from repro.analysis.reprolint import LintContext

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def project(**files: str):
    """Build an index from ``path_py="source"`` kwargs rooted at
    src/repro/service/."""
    return build_project_index(
        {
            f"src/repro/service/{name[:-3]}.py".replace("__", "/"): src
            for name, src in files.items()
        }
    )


LOCKY = '''
import threading
import time


class Locky:
    def __init__(self):
        self._lock = threading.Lock()

    def helper(self, fut):
        return fut.result()

    def indirect(self, fut):
        with self._lock:
            return self.helper(fut)

    def direct(self):
        with self._lock:
            time.sleep(0.1)

    def clean(self, fut):
        with self._lock:
            x = 1
        return self.helper(fut)
'''


class TestLockset:
    def test_transitive_blocking_through_helper(self):
        result = analyze_lockset(project(locky_py=LOCKY))
        transitive = [f for f in result.findings if "helper indirection" in f.message]
        assert len(transitive) == 1
        assert "Locky._lock" in transitive[0].message
        assert "result(...)" in transitive[0].message

    def test_direct_blocking_under_lock(self):
        result = analyze_lockset(project(locky_py=LOCKY))
        direct = [f for f in result.findings if "blocking call `sleep" in f.message]
        assert len(direct) == 1

    def test_blocking_after_release_is_clean(self):
        result = analyze_lockset(project(locky_py=LOCKY))
        # `clean` blocks only after the with-block ends: exactly the two
        # findings above, nothing anchored in `clean`
        assert len(result.findings) == 2

    def test_order_edges_and_cycle(self):
        src = (
            "import threading\n"
            "class AB:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def fwd(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def rev(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        result = analyze_lockset(project(ab_py=src))
        assert ("AB._a", "AB._b") in result.order_edges
        assert ("AB._b", "AB._a") in result.order_edges
        assert result.cycles == [("AB._a", "AB._b")]
        assert any("lock-order cycle" in f.message for f in result.findings)

    def test_interprocedural_acquire_builds_order_edge(self):
        # fwd holds _a and calls a helper that takes _b: the edge must be
        # inferred through the call, not just from syntactic nesting
        src = (
            "import threading\n"
            "class AB:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def take_b(self):\n"
            "        with self._b:\n"
            "            pass\n"
            "    def fwd(self):\n"
            "        with self._a:\n"
            "            self.take_b()\n"
        )
        result = analyze_lockset(project(ab_py=src))
        assert ("AB._a", "AB._b") in result.order_edges
        assert result.cycles == []

    def test_suppression_drops_finding(self):
        # line 19 is the `time.sleep(0.1)` under the lock in `direct`
        suppressions = {
            "src/repro/service/locky.py": {19: {"flow-lockset"}},
        }
        result = analyze_lockset(project(locky_py=LOCKY), suppressions)
        assert all(f.line != 19 for f in result.findings)
        assert len(result.findings) == 1  # the transitive one survives

    def test_read_under_lock_is_blocking_and_waivable(self):
        # a client reading a reply frame while it holds its pipeline lock
        src = (
            "import threading\n"
            "class Client:\n"
            "    def __init__(self, rfile):\n"
            "        self._lock = threading.Lock()\n"
            "        self._rfile = rfile\n"
            "    def frame(self, size):\n"
            "        with self._lock:\n"
            "            return self._rfile.read(size)\n"
        )
        result = analyze_lockset(project(client_py=src))
        assert len(result.findings) == 1
        assert result.findings[0].line == 8
        assert "blocking call `read(...)`" in result.findings[0].message
        waived = {"src/repro/service/client.py": {8: {"flow-lockset"}}}
        assert analyze_lockset(project(client_py=src), waived).findings == []


def pairing_of(src: str, **kwargs):
    return analyze_pairing(ast.parse(src), **kwargs)


class TestPairing:
    def test_guard_release_in_finally_is_clean(self):
        src = (
            "def f(guard, work):\n"
            "    guard.acquire(8)\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        guard.release(8)\n"
        )
        assert pairing_of(src) == []

    def test_guard_leak_on_exception_only(self):
        src = (
            "def f(guard, work):\n"
            "    guard.acquire(8)\n"
            "    work()\n"
            "    guard.release(8)\n"
        )
        findings = pairing_of(src)
        assert len(findings) == 1
        kind, f = findings[0]
        assert kind == "guard" and "exception path" in f.message

    def test_rebinding_writer_retracks(self):
        # the first writer is closed, the name rebound; leaking the second
        # is one finding anchored at the second binding
        src = (
            "def f(machine):\n"
            "    w = machine.writer(name='one')\n"
            "    w.close()\n"
            "    w = machine.writer(name='two')\n"
            "    return 0\n"
        )
        findings = pairing_of(src)
        assert len(findings) == 1
        kind, f = findings[0]
        assert kind == "writer" and f.line == 4

    def test_read_blocks_views_are_sealed(self):
        # batched reads return zero-copy views, directly or through zip;
        # slices are copies and may be kept
        src = (
            "def f(machine, runs, bis, keep):\n"
            "    for blk in machine.read_blocks(runs, bis):\n"
            "        keep.append(blk)\n"
            "    for i, blk in zip(bis, machine.read_blocks(runs, bis)):\n"
            "        keep[i] = blk\n"
            "        keep.append(blk[1:])\n"
        )
        findings = pairing_of(src)
        assert [(k, f.line) for k, f in findings] == [("sealed", 3), ("sealed", 5)]

    def test_check_toggles(self):
        src = (
            "def f(self, fut, machine, arr, keep):\n"
            "    self._register(fut)\n"
            "    blk = machine.read_block(arr, 0, copy=False)\n"
            "    keep.append(blk)\n"
        )
        both = pairing_of(src)
        assert {k for k, _ in both} == {"ticket", "sealed"}
        assert pairing_of(src, check_tickets=False, check_sealed=False) == []


class TestCharges:
    def make_index(self, body: str):
        return build_project_index({"src/repro/core/mod.py": body})

    def test_charge_in_branch_does_not_dominate(self):
        index = self.make_index(
            "def f(machine, arr, eager):\n"
            "    if eager:\n"
            "        machine.counter.charge_reads(arr.num_blocks)\n"
            "    for bi in range(arr.num_blocks):\n"
            "        tick(bi)\n"
            "def tick(bi):\n"
            "    return bi\n"
        )
        findings = analyze_charges(index)
        assert len(findings) == 1 and findings[0].line == 4

    def test_charge_depth_must_match_loop_depth(self):
        # a charge at depth 0 covers one traversal; the inner block loop
        # runs once per outer iteration and needs its own aggregate
        index = self.make_index(
            "def f(machine, arr):\n"
            "    machine.counter.charge_reads(arr.num_blocks)\n"
            "    for rnd in range(4):\n"
            "        for bi in range(arr.num_blocks):\n"
            "            tick(bi)\n"
            "def tick(bi):\n"
            "    return bi\n"
        )
        findings = analyze_charges(index)
        assert [f.line for f in findings] == [4]

    def test_direct_single_charge_in_loop(self):
        # with or without a count, in a for body, a while body or a while
        # test (run once per iteration); the same call outside the loop, in
        # a for header (run once) or in the SLOW_REFERENCE branch stays silent
        index = self.make_index(
            "def f(machine, xs, mode):\n"
            "    machine.counter.charge_read()\n"
            "    for x in xs:\n"
            "        machine.counter.charge_block_write(2)\n"
            "    while xs:\n"
            "        xs.pop()\n"
            "        machine.counter.charge_read()\n"
            "    while machine.counter.charge_read() and xs:\n"
            "        xs.pop()\n"
            "    for x in [machine.counter.charge_read()]:\n"
            "        pass\n"
            "    if mode == SLOW_REFERENCE:\n"
            "        for x in xs:\n"
            "            machine.counter.charge_write()\n"
        )
        findings = analyze_charges(index)
        assert [(f.line, f.col) for f in findings] == [(4, 8), (7, 8), (8, 10)]
        assert "per-record `charge_block_write` at loop depth 1" in findings[0].message
        waived = {"src/repro/core/mod.py": {4: {"flow-charge"}, 7: {"*"}, 8: {"*"}}}
        assert analyze_charges(index, waived) == []

    def test_per_record_summary_not_seeded_outside_core(self):
        # bare charges in the instrumented model layer ARE the cost model;
        # calling them from a core loop must not fire C2
        index = build_project_index(
            {
                "src/repro/models/counter.py": (
                    "def bump(machine):\n"
                    "    machine.counter.charge_read()\n"
                ),
                "src/repro/core/mod.py": (
                    "import repro.models.counter as counter\n"
                    "def f(machine, xs):\n"
                    "    machine.counter.charge_reads(len(xs))\n"
                    "    for x in xs:\n"
                    "        counter.bump(machine)\n"
                ),
            }
        )
        assert analyze_charges(index) == []


def _normalized_static_edges() -> set[tuple[str, str]]:
    ctx = LintContext(REPO)
    index = build_project_index(_flow_sources(ctx))
    result = analyze_lockset(index, _flow_suppressions(ctx))
    return set(result.order_edges)


class TestStaticDynamicCrossCheck:
    def test_static_covers_stress_suite_edges(self, tmp_path):
        """Acceptance: every lock-order edge locksan observes while running
        the service stress suite appears in the static order graph."""
        dump = str(tmp_path / "locksan.json")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_service_stress.py",
             "-q", "--no-header", "-p", "no:cacheprovider"],
            cwd=REPO,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(REPO, "src"),
                "REPRO_LOCKSAN": "1",
                "REPRO_LOCKSAN_DUMP": dump,
            },
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.load(open(dump))
        assert payload["violations"] == []
        dynamic = {(e["held"], e["acquired"]) for e in payload["edges"]}
        assert dynamic <= _normalized_static_edges()

    def test_superset_machinery_is_not_vacuous(self):
        """Nest two recorded locks at runtime and statically analyze the
        equivalent source: the dynamic edge exists and the static graph
        covers it — proving the ⊇ check can actually fail."""
        locksan.reset()
        locksan.enable()
        try:
            a = locksan.wrap_lock(threading.Lock(), "Nest._a")
            b = locksan.wrap_lock(threading.Lock(), "Nest._b")
            with a:
                with b:
                    pass
            dynamic = set(locksan.order_graph())
        finally:
            locksan.disable()
            locksan.reset()
        assert dynamic == {("Nest._a", "Nest._b")}

        src = (
            "import threading\n"
            "class Nest:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def run(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        static = analyze_lockset(project(nest_py=src))
        assert dynamic <= set(static.order_edges)

    def test_dump_order_graph_round_trip(self, tmp_path):
        locksan.reset()
        locksan.enable()
        try:
            a = locksan.wrap_lock(threading.Lock(), "RT._a")
            b = locksan.wrap_lock(threading.Lock(), "RT._b")
            with a:
                with b:
                    pass
            path = str(tmp_path / "graph.json")
            locksan.dump_order_graph(path)
        finally:
            locksan.disable()
            locksan.reset()
        payload = json.load(open(path))
        assert payload["edges"] == [
            {"held": "RT._a", "acquired": "RT._b",
             "via": payload["edges"][0]["via"]},
        ]
        assert payload["violations"] == []


class TestRealTree:
    def test_real_tree_flow_findings_are_zero(self):
        ctx = LintContext(REPO)
        sources = _flow_sources(ctx)
        suppressions = _flow_suppressions(ctx)
        index = build_project_index(sources)
        lockset = analyze_lockset(index, suppressions)
        assert lockset.findings == []
        assert lockset.cycles == []
        charges = analyze_charges(index, suppressions)
        assert charges == []

    def test_real_tree_order_graph_is_acyclic(self):
        edges = _normalized_static_edges()
        # Kahn: the static order graph must admit a global lock order
        nodes = {n for e in edges for n in e}
        out = {n: {b for a, b in edges if a == n} for n in nodes}
        indeg = {n: sum(n in v for v in out.values()) for n in nodes}
        queue = [n for n in nodes if indeg[n] == 0]
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for m in out[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        assert seen == len(nodes)
