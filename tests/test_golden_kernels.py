"""Golden counters for the rest of the kernel parity grid.

The parity suite (``test_kernel_parity.py``) compares the two kernels with
each other at one commit, so a change that moves both kernels' I/O the same
way passes it.  ``test_golden_mergesort.py`` and
``test_golden_buffer_tree.py`` pin absolute numbers for mergesort and the
buffer tree; this module pins them for every other registered kernel: the
output's block layout digest and the block reads / writes, or the name of
the exception a run raises, for

* ``aem_samplesort`` with random and with deterministic splitters,
  ``selection_sort``, ``em_two_way_mergesort`` (``em2way``),
  ``shard_merge`` over k = 1 and k = 3 shards, and ``parallel_samplesort``
  (which also pins its per-processor ledger costs), each over ``n`` in
  {0, 1, B, B+1, M, M+1, kM, kM+1, 3kM+7} on the five machines of
  ``test_golden_mergesort.py``, under both kernels;
* the parity suite's duplicate-heavy and all-equal inputs on its machine
  (M=64, B=8) for every kernel above, plus its duplicate-heavy 4-shard
  merge, under both kernels;
* samplesort of the four perfbench scenarios at n=20k on the ``bulk``
  machine (M=2048, B=32, omega=16, k=2), under both kernels.

The expected values live in ``tests/golden/kernels.json``.  Regenerate
them only on purpose, when a change is meant to move the counters::

    PYTHONPATH=src python tests/test_golden_kernels.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import AEMachine, MachineParams
from repro.core.aem_samplesort import aem_samplesort
from repro.core.em_utils import em_two_way_mergesort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.core.parallel_samplesort import parallel_samplesort
from repro.core.selection_sort import selection_sort
from repro.core.shard_merge import shard_merge
from repro.workloads import make_scenario

GOLDEN = Path(__file__).parent / "golden" / "kernels.json"

KERNELS = (VECTORIZED, SLOW_REFERENCE)
MACHINES = ((8, 4, 2), (16, 4, 1), (64, 8, 2), (64, 8, 4), (2048, 32, 2))
SCENARIOS = ("uniform", "nearly-sorted", "gaussian", "zipf")
#: the parity suite's machine and its per-kernel settings
PARITY_MB = (64, 8)
PARITY_K = 4
PARALLEL_K = 2


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def _blocks(arr) -> list:
    """The physical block layout of an ExtArray (uncharged)."""
    return [list(block) for block in arr._blocks]


def _sort(name: str, M: int, B: int, k: int, data: list, kernel: str,
          omega: int = 8) -> dict:
    """Run one registered kernel over ``data``; its counters or the name of
    the exception it raised."""
    params = MachineParams(M=M, B=B, omega=omega)
    ledger = None
    try:
        if name == "parallel-samplesort":
            result = parallel_samplesort(params, data, k=k, seed=3, kernel=kernel)
            machine, out, ledger = result.machine, result.output, result.ledger
        elif name.startswith("shardmerge-"):
            machine = AEMachine(params)
            shards = int(name.rsplit("-", 1)[1])
            arrs = [machine.from_list(sorted(data[i::shards]), name=f"s{i}")
                    for i in range(shards)]
            out = shard_merge(machine, arrs, kernel=kernel)
        else:
            machine = AEMachine(params)
            arr = machine.from_list(data)
            if name == "samplesort-random":
                out = aem_samplesort(machine, arr, k=k, seed=23, kernel=kernel)
            elif name == "samplesort-deterministic":
                out = aem_samplesort(machine, arr, k=k, seed=23,
                                     splitters="deterministic", kernel=kernel)
            elif name == "selection":
                out = selection_sort(machine, arr, kernel=kernel)
            else:
                assert name == "em2way", name
                out = em_two_way_mergesort(machine, arr, kernel=kernel)
    except Exception as exc:  # the golden value is the exception's name
        return {"raises": type(exc).__name__}
    assert out.peek_list() == sorted(data)
    outcome = {
        "output": _digest(_blocks(out)),
        "reads": machine.counter.block_reads,
        "writes": machine.counter.block_writes,
    }
    if ledger is not None:
        outcome["ledger"] = list(ledger.costs)
    return outcome


GRID_SORTS = (
    "samplesort-random",
    "samplesort-deterministic",
    "selection",
    "em2way",
    "shardmerge-1",
    "shardmerge-3",
    "parallel-samplesort",
)


def grid_case(name: str, M: int, B: int, k: int, n: int, kernel: str) -> dict:
    data = random.Random(M * 100_003 + k * 1009 + n).sample(range(3 * n or 1), n)
    return _sort(name, M, B, k, data, kernel)


def _duplicate_inputs() -> dict:
    """The parity suite's duplicate-key inputs (``TestDuplicateKeyParity``
    and ``TestShardMergeParity.test_duplicate_heavy_shards``)."""
    M = PARITY_MB[0]
    rng = random.Random(0)
    heavy = [rng.randrange(8) for _ in range(200)]
    rng = random.Random(31)
    shards = [rng.randrange(6) for _ in range(500)]
    return {"heavy200": heavy, "equal197": [7] * (3 * M + 5),
            "shards500": shards}


DUPLICATES = _duplicate_inputs()


def duplicate_case(name: str, input_name: str, kernel: str) -> dict:
    M, B = PARITY_MB
    k = PARALLEL_K if name == "parallel-samplesort" else PARITY_K
    return _sort(name, M, B, k, DUPLICATES[input_name], kernel)


def scenario_case(index: int, kernel: str) -> dict:
    data = make_scenario(SCENARIOS[index], 20_000, seed=index)
    return _sort("samplesort-random", 2048, 32, 2, data, kernel, omega=16)


def _cases() -> dict:
    cases = {}
    for kernel in KERNELS:
        for name in GRID_SORTS:
            for M, B, k in MACHINES:
                for n in sorted({0, 1, B, B + 1, M, M + 1, k * M, k * M + 1,
                                 3 * k * M + 7}):
                    cases[f"grid/{name}/M{M}-B{B}-k{k}/n{n}/{kernel}"] = (
                        grid_case, (name, M, B, k, n, kernel))
            for input_name in ("heavy200", "equal197"):
                cases[f"duplicates/{name}/{input_name}/{kernel}"] = (
                    duplicate_case, (name, input_name, kernel))
        for name in ("shardmerge-1", "shardmerge-3", "shardmerge-4"):
            cases[f"duplicates/{name}/shards500/{kernel}"] = (
                duplicate_case, (name, "shards500", kernel))
        for i, scenario in enumerate(SCENARIOS):
            cases[f"scenario/samplesort-random/{scenario}/{kernel}"] = (
                scenario_case, (i, kernel))
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


def test_both_kernels_pin_the_same_values(golden):
    """The two kernels are I/O-invisible to each other, so every pinned
    value is the same under both; a fixture regenerated from a tree where
    they differ fails here."""
    for case_id, value in golden.items():
        if case_id.endswith(f"/{VECTORIZED}"):
            twin = case_id[: -len(VECTORIZED)] + SLOW_REFERENCE
            assert golden[twin] == value, case_id


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_counters_match_golden(case_id, golden):
    assert run_case(case_id) == golden[case_id]


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
