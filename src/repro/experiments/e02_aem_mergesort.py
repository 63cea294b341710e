"""E2 — Theorem 4.3 / Corollary 4.4 / Appendix A: AEM mergesort and the k sweep.

Claims:

* ``R(n) <= (k+1) ceil(n/B) ceil(log_{kM/B}(n/B))`` and
  ``W(n) <= ceil(n/B) ceil(log_{kM/B}(n/B))`` — verified as *hard upper
  bounds* on the measured counts;
* sweeping ``k`` at fixed ``omega`` traces the I/O-cost curve
  ``(omega + k + 1) ceil(n/B) ceil(log ...)``; the measured-cost minimiser
  falls inside the Appendix-A feasible region ``k/log k < omega/log(M/B)``
  and beats the classic ``k = 1`` algorithm.
"""

from __future__ import annotations

from ..analysis.formulas import mergesort_reads, mergesort_writes
from ..analysis.ktuning import feasible_k_region, k_improves
from ..analysis.tables import format_table
from ..core.aem_mergesort import aem_mergesort
from ..models.external_memory import AEMachine
from ..models.params import MachineParams
from ..workloads import random_permutation

TITLE = "E2  Theorem 4.3 + Cor 4.4 - AEM mergesort: k sweep at fixed omega"


def run(quick: bool = False, n: int | None = None) -> list[dict]:
    params = MachineParams(M=64, B=8, omega=8)
    if n is None:
        n = 4000 if quick else 20000
    ks = [1, 2, 3, 4] if quick else [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
    data = random_permutation(n, seed=11)
    rows = []
    baseline_cost = None
    for k in ks:
        machine = AEMachine(params)
        arr = machine.from_list(data)
        out = aem_mergesort(machine, arr, k=k)
        assert out.peek_list() == sorted(data)
        c = machine.counter
        cost = c.block_cost(params.omega)
        if k == 1:
            baseline_cost = cost
        pr = mergesort_reads(n, params.M, params.B, k)
        pw = mergesort_writes(n, params.M, params.B, k)
        rows.append(
            {
                "k": k,
                "reads": c.block_reads,
                "writes": c.block_writes,
                "cost": cost,
                "cost/classic": cost / baseline_cost if baseline_cost else 1.0,
                "reads<=Thm4.3": c.block_reads <= pr,
                "writes<=Thm4.3": c.block_writes <= pw,
                "feasible(CorA)": k_improves(k, params),
            }
        )
    return rows


def run_omega_sweep(quick: bool = False) -> list[dict]:
    """Best-k cost improvement over classic, per omega (the crossover table)."""
    n = 4000 if quick else 20000
    data = random_permutation(n, seed=13)
    rows = []
    for omega in ([4, 16] if quick else [2, 4, 8, 16, 32]):
        params = MachineParams(M=64, B=8, omega=omega)
        ks = feasible_k_region(params, k_max=2 * omega)
        best = None
        classic_cost = None
        for k in sorted(set(ks) | {1}):
            machine = AEMachine(params)
            arr = machine.from_list(data)
            aem_mergesort(machine, arr, k=k)
            cost = machine.counter.block_cost(omega)
            if k == 1:
                classic_cost = cost
            if best is None or cost < best[1]:
                best = (k, cost)
        rows.append(
            {
                "omega": omega,
                "best_k": best[0],
                "best_cost": best[1],
                "classic_cost": classic_cost,
                "improvement": classic_cost / best[1],
            }
        )
    return rows


def main() -> None:  # pragma: no cover
    print(format_table(run(), title=TITLE))
    print()
    print(format_table(run_omega_sweep(), title="E2b best-k improvement vs omega"))


if __name__ == "__main__":  # pragma: no cover
    main()
