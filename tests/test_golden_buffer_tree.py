"""Golden counters for the §4.3 buffer tree and everything built on it.

The parity suite (``test_kernel_parity.py``) compares the two kernels with
each other at one commit, so a change that moves both kernels' I/O the same
way passes it.  This module pins the absolute numbers instead: output
digests, block reads / writes and the tree's ``io_stats`` for

* ``aem_heapsort`` over ``n`` in {0, 1, B, B+1, M, M+1, 3kM+1} on four
  machines, under both kernels;
* heapsort of the four perfbench scenarios at n=20k on the ``bulk``
  machine (M=2048, B=32, omega=16, k=2);
* seeded ``BufferTree`` runs mixing inserts, deletes, re-inserts and
  ``pop_leftmost_leaf``, under both kernels;
* seeded ``StreamSession`` runs with duplicate pushes, deletes, ``pop_min``
  and ``flush``, under both kernels (one entry per report).

The expected values live in ``tests/golden/buffer_tree.json``.  Regenerate
them only on purpose, when a change is meant to move the counters::

    PYTHONPATH=src python tests/test_golden_buffer_tree.py --regenerate
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from repro import AEMachine, MachineParams, SortEngine
from repro.core.buffer_tree import BufferTree
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.workloads import make_scenario

# the package re-exports the function under the module's name
heapsort_module = importlib.import_module("repro.core.aem_heapsort")
engine_module = importlib.import_module("repro.engine")

GOLDEN = Path(__file__).parent / "golden" / "buffer_tree.json"

KERNELS = (VECTORIZED, SLOW_REFERENCE)
HEAPSORT_MACHINES = ((16, 4, 1), (64, 8, 2), (64, 8, 4), (2048, 32, 2))
SCENARIOS = ("uniform", "nearly-sorted", "gaussian", "zipf")
TREE_MACHINES = ((16, 4), (64, 8))
TREE_KS = (1, 2, 3)
STREAM_RUNS = ((16, 4, 1, 1), (16, 4, 1, 2), (64, 8, 2, 3), (64, 8, 2, 4))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def _blocks(arr) -> list:
    """The physical block layout of an ExtArray (uncharged)."""
    return [list(block) for block in arr._blocks]


class _RecordingTree(BufferTree):
    """A BufferTree that remembers its instances, so a heapsort run can
    report the structural counters of the tree inside its queue."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingTree.made.append(self)


def _heapsort(machine: AEMachine, data: list, k: int, kernel: str) -> dict:
    arr = machine.from_list(data)
    _RecordingTree.made = []
    with mock.patch.object(heapsort_module, "BufferTree", _RecordingTree):
        out = heapsort_module.aem_heapsort(machine, arr, k=k, kernel=kernel)
    assert out.peek_list() == sorted(data)
    (tree,) = _RecordingTree.made
    return {
        "output": _digest(_blocks(out)),
        "reads": machine.counter.block_reads,
        "writes": machine.counter.block_writes,
        "io_stats": tree.io_stats(),
    }


def heapsort_case(M: int, B: int, k: int, n: int, kernel: str) -> dict:
    data = random.Random(M * 100_003 + n).sample(range(3 * n or 1), n)
    return _heapsort(AEMachine(MachineParams(M=M, B=B, omega=8)), data, k, kernel)


def scenario_case(index: int, kernel: str) -> dict:
    data = make_scenario(SCENARIOS[index], 20_000, seed=index)
    machine = AEMachine(MachineParams(M=2048, B=32, omega=16))
    return _heapsort(machine, data, 2, kernel)


def tree_case(M: int, B: int, k: int, kernel: str) -> dict:
    """Inserts (single and batched), deletes, re-inserts of deleted or
    popped keys and leftmost-leaf pops, checked against a reference set."""
    machine = AEMachine(MachineParams(M=M, B=B, omega=4))
    tree = BufferTree(machine, k=k, kernel=kernel)
    rng = random.Random(M * 10 + k)
    fresh = iter(rng.sample(range(1_000_000), 20_000))
    live: list = []
    where: dict = {}
    gone: list = []
    pops: list = []

    def add(key) -> None:
        where[key] = len(live)
        live.append(key)

    def remove(key) -> None:
        i = where.pop(key)
        last = live.pop()
        if last != key:
            live[i] = last
            where[last] = i

    for _ in range(3000):
        r = rng.random()
        if r < 0.45 or not live:
            key = next(fresh)
            tree.insert(key)
            add(key)
        elif r < 0.55:
            batch = [next(fresh) for _ in range(rng.randint(1, 3 * B))]
            tree.insert_many(batch)
            for key in batch:
                add(key)
        elif r < 0.8:
            key = live[rng.randrange(len(live))]
            tree.delete(key)
            remove(key)
            gone.append(key)
        elif r < 0.97:
            if gone:
                key = gone.pop(rng.randrange(len(gone)))
                tree.insert(key)
                add(key)
        else:
            leaf = tree.pop_leftmost_leaf()
            if leaf is not None:
                pops.append(_blocks(leaf))
                for key in leaf.peek_list():
                    remove(key)
                    gone.append(key)
    rest = list(tree.drain_stream())
    assert rest == sorted(live)
    return {
        "output": _digest((pops, rest)),
        "pops": len(pops),
        "reads": machine.counter.block_reads,
        "writes": machine.counter.block_writes,
        "io_stats": tree.io_stats(),
    }


def stream_case(M: int, B: int, k: int, seed: int, kernel: str) -> list:
    """Duplicate pushes, deletes, ``pop_min`` and ``flush`` on one session;
    one entry per report."""
    rng = random.Random(seed)
    held: dict = {}  # key -> live copies
    # the session builds its own tree; hand that tree the kernel
    tree_in_mode = functools.partial(BufferTree, kernel=kernel)
    with mock.patch.object(engine_module, "BufferTree", tree_in_mode):
        session = SortEngine(MachineParams(M=M, B=B, omega=4)).stream(k=k)
        assert session.tree.kernel == kernel
        for _ in range(2500):
            r = rng.random()
            if r < 0.7 or not held:
                key = rng.randrange(300)
                session.push(key)
                held[key] = held.get(key, 0) + 1
            elif r < 0.984:
                key = rng.choice(sorted(held))
                session.delete(key)
                held[key] -= 1
                if not held[key]:
                    del held[key]
            elif r < 0.996:
                expect = sorted(key for key, c in held.items() for _ in range(c))
                report = session.pop_min(rng.randint(1, 8 * B))
                assert report.output == expect[: len(report.output)]
                for key in report.output:
                    held[key] -= 1
                    if not held[key]:
                        del held[key]
            else:
                expect = sorted(key for key, c in held.items() for _ in range(c))
                assert session.flush().output == expect
                held.clear()
        session.close()
    return [
        {
            "output": _digest(report.output),
            "reads": report.reads,
            "writes": report.writes,
        }
        for report in session.reports
    ]


def _cases() -> dict:
    cases = {}
    for kernel in KERNELS:
        for M, B, k in HEAPSORT_MACHINES:
            for n in sorted({0, 1, B, B + 1, M, M + 1, 3 * k * M + 1}):
                cases[f"heapsort/M{M}-B{B}-k{k}/n{n}/{kernel}"] = (
                    heapsort_case, (M, B, k, n, kernel))
        for i, name in enumerate(SCENARIOS):
            cases[f"scenario/{name}/{kernel}"] = (scenario_case, (i, kernel))
        for M, B in TREE_MACHINES:
            for k in TREE_KS:
                cases[f"tree/M{M}-B{B}-k{k}/{kernel}"] = (tree_case, (M, B, k, kernel))
        for M, B, k, seed in STREAM_RUNS:
            cases[f"stream/M{M}-B{B}-k{k}/seed{seed}/{kernel}"] = (
                stream_case, (M, B, k, seed, kernel))
    return cases


CASES = _cases()


def run_case(case_id: str):
    fn, args = CASES[case_id]
    return fn(*args)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_counters_match_golden(case_id, golden):
    # JSON has no tuples; round-trip the fresh result the same way
    assert json.loads(json.dumps(run_case(case_id))) == golden[case_id]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the current code")
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("pass --regenerate to overwrite the golden fixture")
    GOLDEN.parent.mkdir(exist_ok=True)
    result = {case_id: run_case(case_id) for case_id in sorted(CASES)}
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} cases to {GOLDEN}")


if __name__ == "__main__":
    main()
