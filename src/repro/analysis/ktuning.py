"""Appendix A / Corollary 4.4: choosing the branching factor k.

The AEM mergesort (and sample sort, heapsort) beats its classic ``k = 1``
counterpart whenever

    k / log k  <  omega / log(M/B)            (Corollary 4.4)

(assuming ``n`` large enough to drop ceilings; the paper notes any integer
``k <= 0.3 omega`` satisfies it for real-world parameters).  This module
provides the feasibility test, a sweep utility, and the paper's practical
recipe: with ``p = ceil(log_{M/B}(n/B))`` levels (usually 2–6), try
``k = ceil((n/B)^{1/p'} / (M/B))`` for every ``1 <= p' <= p`` and keep the
minimiser of the exact Theorem 4.3 cost.
"""

from __future__ import annotations

import functools
import math

from ..models.params import MachineParams
from .formulas import mergesort_io_cost


def k_improves(k: int, params: MachineParams) -> bool:
    """Corollary 4.4 feasibility: does branching factor ``k`` lower the
    asymptotic I/O complexity versus ``k = 1``?"""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return True  # k=1 *is* the classic algorithm
    mb = params.M / params.B
    if mb <= 1:
        return False
    return k / math.log2(k) < params.omega / math.log2(mb)


def feasible_k_region(params: MachineParams, k_max: int | None = None) -> list[int]:
    """All integer ``k`` in ``[1, k_max]`` satisfying Corollary 4.4.

    The region depends only on the machine and ``k_max``, and the planner
    asks for it on every plan miss, so it is memoized in a small bounded
    table; every call returns a fresh list."""
    return list(_feasible_k_region(params, k_max))


@functools.lru_cache(maxsize=64)
def _feasible_k_region(params: MachineParams, k_max: int | None) -> tuple[int, ...]:
    if k_max is None:
        k_max = 4 * params.omega
    return tuple(k for k in range(1, k_max + 1) if k_improves(k, params))


def sweep_k(n: int, params: MachineParams, k_max: int | None = None) -> list[dict]:
    """Exact Theorem 4.3 cost ``(omega + k + 1) ceil(n/B) ceil(log...)`` for
    each ``k``; rows sorted by ``k``."""
    if k_max is None:
        k_max = 4 * params.omega
    rows = []
    for k in range(1, k_max + 1):
        cost = mergesort_io_cost(n, params.M, params.B, k, params.omega)
        rows.append(
            {
                "k": k,
                "predicted_cost": cost,
                "feasible": k_improves(k, params),
            }
        )
    return rows


def choose_k(params: MachineParams, n: int | None = None) -> int:
    """The paper's practical k: minimise the exact Theorem 4.3 cost.

    With ``n`` given, tries the Appendix-A candidates
    ``k = ceil((n/B)^{1/p'} / (M/B))`` for every level budget ``p'`` (plus
    ``k = 1``); without ``n``, falls back to the ``0.3 omega`` rule of thumb
    (clamped to at least 1).
    """
    if n is None:
        return max(1, int(0.3 * params.omega))
    nb = max(2.0, n / params.B)
    mb = params.M / params.B
    p = max(1, math.ceil(math.log(nb) / math.log(max(mb, 2))))
    # k = 1 (the classic algorithm) is always a candidate; every k > 1 must
    # pass the Corollary 4.4 feasibility test before entering the tournament.
    candidates = {1}
    for p_prime in range(1, p + 1):
        k = math.ceil(nb ** (1.0 / p_prime) / mb)
        if k > 1 and k_improves(k, params):
            candidates.add(k)
    best = min(
        candidates,
        key=lambda k: mergesort_io_cost(n, params.M, params.B, k, params.omega),
    )
    return best
