"""E4 — Theorem 4.5: AEM sample sort (distribution sort).

Claim (w.h.p.): ``R(n) = O((kn/B) ceil(log_{kM/B}(n/B)))`` and
``W(n) = O((n/B) ceil(log_{kM/B}(n/B)))``.

Evidence of shape: the measured/predicted ratios stay bounded (and roughly
flat) across an ``n`` sweep, and the write count is within a small constant
of the mergesort's (they share the recursion shape), while the ``k``-fold
read multiplier shows up in the read column.
"""

from __future__ import annotations

from ..analysis.formulas import samplesort_reads, samplesort_writes
from ..analysis.tables import format_table
from ..core.aem_samplesort import aem_samplesort
from ..models.external_memory import AEMachine
from ..models.params import MachineParams
from ..workloads import random_permutation

TITLE = "E4  Theorem 4.5 - AEM sample sort: measured vs predicted"


def run(quick: bool = False) -> list[dict]:
    params = MachineParams(M=64, B=8, omega=8)
    sizes = [2000, 8000] if quick else [2000, 8000, 32000]
    ks = [1, 3] if quick else [1, 2, 3, 4, 8]
    rows = []
    for n in sizes:
        data = random_permutation(n, seed=n)
        for k in ks:
            machine = AEMachine(params)
            arr = machine.from_list(data)
            out = aem_samplesort(machine, arr, k=k, seed=17)
            assert out.peek_list() == sorted(data)
            c = machine.counter
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "reads": c.block_reads,
                    "reads/pred": c.block_reads / samplesort_reads(n, params.M, params.B, k),
                    "writes": c.block_writes,
                    "writes/pred": c.block_writes
                    / samplesort_writes(n, params.M, params.B, k),
                    "cost": c.block_cost(params.omega),
                }
            )
    return rows


def main() -> None:  # pragma: no cover
    print(format_table(run(), title=TITLE))


if __name__ == "__main__":  # pragma: no cover
    main()
