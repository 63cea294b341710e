"""Golden counters for Algorithm 2, the §4.1 AEM mergesort.

The parity suite (``test_kernel_parity.py``) compares the two kernels with
each other at one commit, so a change that moves both kernels' I/O the same
way passes it.  This module pins the absolute numbers instead: the output's
block layout digest and the block reads / writes, or the name of the
exception a run raises, for

* ``aem_mergesort`` over ``n`` in {0, 1, B, B+1, M, M+1, kM, kM+1, 3kM+7}
  on five machines, under both kernels;
* the four perfbench scenarios at n=20k on the ``bulk`` machine (M=2048,
  B=32, omega=16, k=2), under both kernels;
* the high-fan-in shape of ``examples/nvm_database_sort.py``: Zipf keys,
  n=20k, M=64, B=8, k=64 (l=512 runs);
* seeded inputs with repeated keys that reach the merge.  Some sort with
  equal keys in different runs; others strand a record and raise
  ``StrandingDetected`` (see the module docstring of
  ``repro.core.aem_mergesort``).

The expected values live in ``tests/golden/mergesort.json``.  Regenerate
them only on purpose, when a change is meant to move the counters::

    PYTHONPATH=src python tests/test_golden_mergesort.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import AEMachine, MachineParams
from repro.core.aem_mergesort import StrandingDetected, aem_mergesort
from repro.core.kernels import SLOW_REFERENCE, VECTORIZED
from repro.workloads import make_scenario, zipf_keys

GOLDEN = Path(__file__).parent / "golden" / "mergesort.json"

KERNELS = (VECTORIZED, SLOW_REFERENCE)
MACHINES = ((8, 4, 2), (16, 4, 1), (64, 8, 2), (64, 8, 4), (2048, 32, 2))
SCENARIOS = ("uniform", "nearly-sorted", "gaussian", "zipf")
#: (M, B, k, n, keys repeated, copies of each); on the cramped machines
#: some seeds sort and others strand, on M=64 every seed sorts
DUPLICATE_SHAPES = (
    (16, 4, 2, 1500, 1, 5),
    (16, 4, 2, 1500, 20, 2),
    (16, 4, 2, 1500, 3, 3),
    (8, 4, 2, 200, 3, 3),
    (64, 8, 2, 3000, 10, 2),
    (64, 8, 4, 3000, 1, 5),
)
DUPLICATE_SEEDS = range(4)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def _blocks(arr) -> list:
    """The physical block layout of an ExtArray (uncharged)."""
    return [list(block) for block in arr._blocks]


def _mergesort(params: MachineParams, data: list, k: int, kernel: str) -> dict:
    machine = AEMachine(params)
    try:
        out = aem_mergesort(machine, machine.from_list(data), k=k, kernel=kernel)
    except StrandingDetected as exc:
        return {"raises": type(exc).__name__}
    assert out.peek_list() == sorted(data)
    return {
        "output": _digest(_blocks(out)),
        "reads": machine.counter.block_reads,
        "writes": machine.counter.block_writes,
    }


def grid_case(M: int, B: int, k: int, n: int, kernel: str) -> dict:
    data = random.Random(M * 100_003 + k * 1009 + n).sample(range(3 * n or 1), n)
    return _mergesort(MachineParams(M=M, B=B, omega=8), data, k, kernel)


def scenario_case(index: int, kernel: str) -> dict:
    data = make_scenario(SCENARIOS[index], 20_000, seed=index)
    return _mergesort(MachineParams(M=2048, B=32, omega=16), data, 2, kernel)


def nvm_case(kernel: str) -> dict:
    data = zipf_keys(20_000, skew=1.1, seed=7)
    return _mergesort(MachineParams(M=64, B=8, omega=64), data, 64, kernel)


def duplicate_data(n: int, repeated: int, copies: int, seed: int) -> list:
    """``n`` keys of which ``repeated`` distinct keys occur ``copies``
    times each, shuffled."""
    rng = random.Random(seed)
    base = rng.sample(range(4 * n), n - repeated * (copies - 1))
    data = base + [key for key in base[:repeated] for _ in range(copies - 1)]
    rng.shuffle(data)
    return data


def duplicate_case(M: int, B: int, k: int, n: int, repeated: int, copies: int,
                   seed: int, kernel: str) -> dict:
    data = duplicate_data(n, repeated, copies, seed)
    return _mergesort(MachineParams(M=M, B=B, omega=8), data, k, kernel)


def _cases() -> dict:
    cases = {}
    for kernel in KERNELS:
        for M, B, k in MACHINES:
            for n in sorted({0, 1, B, B + 1, M, M + 1, k * M, k * M + 1,
                             3 * k * M + 7}):
                cases[f"grid/M{M}-B{B}-k{k}/n{n}/{kernel}"] = (
                    grid_case, (M, B, k, n, kernel))
        for i, name in enumerate(SCENARIOS):
            cases[f"scenario/{name}/{kernel}"] = (scenario_case, (i, kernel))
        for M, B, k, n, repeated, copies in DUPLICATE_SHAPES:
            for seed in DUPLICATE_SEEDS:
                cases[f"duplicates/M{M}-B{B}-k{k}/n{n}-{repeated}x{copies}/"
                      f"seed{seed}/{kernel}"] = (
                    duplicate_case, (M, B, k, n, repeated, copies, seed, kernel))
    cases[f"nvm/zipf-n20000/M64-B8-k64/{VECTORIZED}"] = (nvm_case, (VECTORIZED,))
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


def test_duplicates_both_sort_and_strand(golden):
    outcomes = {"raises" in v for k, v in golden.items()
                if k.startswith("duplicates/")}
    assert outcomes == {True, False}


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
