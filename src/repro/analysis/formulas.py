"""One function per paper bound: the closed forms the planner ranks with and
experiments and ``certify`` compare against.

Unless stated otherwise the functions return the bound with its leading
constant set to 1 — experiments report the measured/predicted *ratio*, whose
stability across a parameter sweep is the evidence that the asymptotic shape
holds (constants are not claimed by the paper).
"""

from __future__ import annotations

import math


def _log(x: float, base: float) -> float:
    return math.log(max(x, base)) / math.log(base)


# ---------------------------------------------------------------------- #
# §3 — Asymmetric PRAM sorting (Theorem 3.2)
# ---------------------------------------------------------------------- #
def pram_sort_reads(n: int) -> float:
    """Theorem 3.2: ``O(n log n)`` reads."""
    return n * math.log2(max(n, 2))


def pram_sort_writes(n: int) -> float:
    """Theorem 3.2: ``O(n)`` writes."""
    return float(n)


def pram_sort_depth(n: int, omega: int) -> float:
    """Theorem 3.2: ``O(omega log n)`` depth."""
    return omega * math.log2(max(n, 2))


# ---------------------------------------------------------------------- #
# §4 — (A)EM sorting
# ---------------------------------------------------------------------- #
def em_sort_transfers(n: int, M: int, B: int) -> float:
    """Equation (1): the optimal symmetric EM bound
    ``(n/B) log_{M/B}(n/B)`` (total transfers, unit constant)."""
    return (n / B) * max(1.0, _log(n / B, M / B))


def mergesort_levels(n: int, M: int, B: int, k: int) -> int:
    """``ceil(log_{kM/B}(n/B))`` — Theorem 4.3's level count."""
    if n <= B:
        return 1
    return max(1, math.ceil(math.log(n / B) / math.log(k * M / B)))


def mergesort_reads(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.3 (exact upper bound): ``(k+1) ceil(n/B) ceil(log...)``."""
    return (k + 1) * math.ceil(n / B) * mergesort_levels(n, M, B, k)


def mergesort_writes(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.3 (exact upper bound): ``ceil(n/B) ceil(log...)``."""
    return math.ceil(n / B) * mergesort_levels(n, M, B, k)


def mergesort_io_cost(n: int, M: int, B: int, k: int, omega: int) -> float:
    """Appendix A: ``(omega + k + 1) ceil(n/B) ceil(log_{kM/B}(n/B))``."""
    return (omega + k + 1) * math.ceil(n / B) * mergesort_levels(n, M, B, k)


def samplesort_reads(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.5: ``O((kn/B) ceil(log_{kM/B}(n/B)))`` (unit constant)."""
    return k * math.ceil(n / B) * mergesort_levels(n, M, B, k)


def samplesort_writes(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.5: ``O((n/B) ceil(log_{kM/B}(n/B)))`` (unit constant)."""
    return math.ceil(n / B) * mergesort_levels(n, M, B, k)


def selection_sort_reads(n: int, M: int, B: int) -> float:
    """Lemma 4.2 (exact upper bound): ``ceil(n/M)`` full scans of the
    input, each ``ceil(n/B)`` block reads (one scan selects the next
    memory-load of smallest records)."""
    return max(1, math.ceil(n / M)) * math.ceil(n / B)


def selection_sort_writes(n: int, B: int) -> float:
    """Lemma 4.2 (exact upper bound): the output is written once,
    ``ceil(n/B)`` block writes total."""
    return float(math.ceil(n / B))


def em2way_transfers(n: int, M: int, B: int) -> float:
    """Classic 2-way EM mergesort (§4.2's sample-sort subroutine), per
    currency: one scan to form the ``ceil(n/M)`` base runs plus one scan
    per binary merge level, ``ceil(n/B) (1 + ceil(log2(n/M)))`` —
    reads and writes are symmetric (exact upper bound, met with equality
    on power-of-two run counts)."""
    levels = 1 + max(0, math.ceil(math.log2(max(1.0, n / M))))
    return math.ceil(n / B) * levels


def shard_merge_reads(n: int, B: int, k: int) -> float:
    """§4.1 merge step (exact upper bound): merging ``k`` sorted shards of
    total length ``n`` loads every input block once.  With the coordinator's
    balanced contiguous split — shard sizes ``ceil(n/k)`` or ``floor(n/k)``
    — that is ``sum_i ceil(n_i/B)`` reads."""
    if n == 0:
        return 0.0
    k = max(1, min(k, n))
    q, r = divmod(n, k)
    return float(r * math.ceil((q + 1) / B) + (k - r) * math.ceil(q / B))


def shard_merge_writes(n: int, B: int) -> float:
    """§4.1 merge step (exact upper bound): the merged output is written
    once, ``ceil(n/B)`` block writes total."""
    return float(math.ceil(n / B))


def pq_sort_reads(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.10's sorting corollary: ``n`` INSERTs + ``n`` DELETE-MINs
    at the amortized per-operation read cost (unit constant)."""
    return 2 * n * pq_amortized_reads(n, M, B, k)


def pq_sort_writes(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.10's sorting corollary: ``2n`` operations at the
    amortized per-operation write cost (unit constant)."""
    return 2 * n * pq_amortized_writes(n, M, B, k)


def pq_amortized_reads(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.10: ``O((k/B)(1 + log_{kM/B} n))`` per operation."""
    return (k / B) * (1 + _log(n, k * M / B))


def pq_amortized_writes(n: int, M: int, B: int, k: int) -> float:
    """Theorem 4.10: ``O((1/B)(1 + log_{kM/B} n))`` per operation."""
    return (1 / B) * (1 + _log(n, k * M / B))


# ---------------------------------------------------------------------- #
# §5 — cache-oblivious algorithms
# ---------------------------------------------------------------------- #
def co_sort_reads(n: int, M: int, B: int, omega: int) -> float:
    """Theorem 5.1: ``O((omega n / B) log_{omega M}(omega n))``."""
    return (omega * n / B) * max(1.0, _log(omega * n, max(omega * M, 2)))


def co_sort_writes(n: int, M: int, B: int, omega: int) -> float:
    """Theorem 5.1: ``O((n/B) log_{omega M}(omega n))``."""
    return (n / B) * max(1.0, _log(omega * n, max(omega * M, 2)))


def fft_reads(n: int, M: int, B: int, omega: int) -> float:
    """§5.2: ``O((omega n / B) log_{omega M}(omega n))`` reads."""
    return (omega * n / B) * max(1.0, _log(omega * n, max(omega * M, 2)))


def fft_writes(n: int, M: int, B: int, omega: int) -> float:
    """§5.2: ``O((n/B) log_{omega M}(omega n))`` writes."""
    return (n / B) * max(1.0, _log(omega * n, max(omega * M, 2)))


def matmul_em_reads(n: int, M: int, B: int) -> float:
    """Theorem 5.2: ``O(n^3 / (B sqrt(M)))`` reads."""
    return n**3 / (B * math.sqrt(M))


def matmul_em_writes(n: int, B: int) -> float:
    """Theorem 5.2: ``O(n^2 / B)`` writes."""
    return n**2 / B


def matmul_co_reads(n: int, M: int, B: int, omega: int) -> float:
    """Theorem 5.3: expected ``O(n^3 omega / (B sqrt(M) log omega))``."""
    return n**3 * omega / (B * math.sqrt(M) * max(1.0, math.log2(omega)))


def matmul_co_writes(n: int, M: int, B: int, omega: int) -> float:
    """Theorem 5.3: expected ``O(n^3 / (B sqrt(M) log omega))``."""
    return n**3 / (B * math.sqrt(M) * max(1.0, math.log2(omega)))


def matmul_co_classic_transfers(n: int, M: int, B: int) -> float:
    """Standard cache-oblivious matmul: ``Theta(n^3 / (B sqrt(M)))``."""
    return n**3 / (B * math.sqrt(M))


# ---------------------------------------------------------------------- #
# §2 — scheduler bounds
# ---------------------------------------------------------------------- #
def work_stealing_extra_misses(p: int, depth: float, M: int, B: int) -> float:
    """§2: additional misses under work stealing, ``O(p D M / B)``."""
    return p * depth * M / B


def lru_competitive_bound(
    q_ideal: float, m_lru: int, m_ideal: int, B: int, omega: int
) -> float:
    """Lemma 2.1's right-hand side: ``M_L/(M_L - M_I) * Q_I + (1+omega)M_I/B``."""
    if m_lru <= m_ideal:
        raise ValueError("Lemma 2.1 requires M_L > M_I")
    return m_lru / (m_lru - m_ideal) * q_ideal + (1 + omega) * m_ideal / B
