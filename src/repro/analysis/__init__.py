"""Closed-form theorem bounds, Appendix-A k-tuning, table rendering — and
the repo's self-checking layer: the :mod:`~repro.analysis.reprolint` static
linter, the :mod:`~repro.analysis.iosan` (uncharged-I/O) and
:mod:`~repro.analysis.locksan` (lock-order) runtime sanitizers, and the
:mod:`~repro.analysis.boundcheck` paper-bound certifier (static cost
contracts + theorem-envelope certification).

Import discipline: importing this package loads none of its submodules.
Each name below is imported on first use (``repro._lazy_exports``), so a
process that only needs :func:`wrap_lock` never compiles the linter or the
certifier.  Its modules must stay importable from anywhere in the tree (the
models, service and planner layers pull :func:`wrap_lock` /
:func:`wrap_condition`, and the planner the formulas and k-tuning, at import
time), so at load time they may depend on :mod:`repro.models` but never on
:mod:`repro.core`, ``planner``, ``service`` or ``engine`` —
:mod:`~repro.analysis.boundcheck` reaches those layers only lazily, inside
its runner and registry functions.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".": ("boundcheck", "formulas", "iosan", "locksan", "recurrences", "schema"),
    ".boundcheck": (
        "CONTRACTS",
        "CertifyResult",
        "CostContract",
        "certify",
        "certify_kernel",
        "charge_site_map",
        "declare_contract",
        "registry_errors",
        "write_certificates",
    ),
    ".formulas": (
        "co_sort_reads",
        "co_sort_writes",
        "em2way_transfers",
        "em_sort_transfers",
        "matmul_co_reads",
        "matmul_co_writes",
        "mergesort_reads",
        "mergesort_writes",
        "pq_sort_reads",
        "pq_sort_writes",
        "pram_sort_depth",
        "pram_sort_reads",
        "pram_sort_writes",
        "selection_sort_reads",
        "selection_sort_writes",
    ),
    ".ktuning": ("choose_k", "feasible_k_region", "k_improves", "sweep_k"),
    ".recurrences": (
        "co_sort_read_recurrence",
        "co_sort_write_recurrence",
        "fft_write_recurrence",
        "matmul_write_recurrence",
        "matmul_write_recurrence_randomized",
    ),
    ".iosan": ("SealedBlock", "UnchargedIOError", "iosan_enabled"),
    ".locksan": ("LockOrderError", "locksan_enabled", "wrap_condition", "wrap_lock"),
    ".tables": ("format_table",),
})

__all__ = [
    "CONTRACTS",
    "CertifyResult",
    "CostContract",
    "LockOrderError",
    "SealedBlock",
    "UnchargedIOError",
    "boundcheck",
    "certify",
    "certify_kernel",
    "charge_site_map",
    "choose_k",
    "co_sort_read_recurrence",
    "co_sort_reads",
    "co_sort_write_recurrence",
    "co_sort_writes",
    "declare_contract",
    "em2way_transfers",
    "em_sort_transfers",
    "feasible_k_region",
    "fft_write_recurrence",
    "format_table",
    "formulas",
    "iosan",
    "iosan_enabled",
    "k_improves",
    "locksan",
    "locksan_enabled",
    "matmul_co_reads",
    "matmul_co_writes",
    "matmul_write_recurrence",
    "matmul_write_recurrence_randomized",
    "mergesort_reads",
    "mergesort_writes",
    "pq_sort_reads",
    "pq_sort_writes",
    "pram_sort_depth",
    "pram_sort_reads",
    "pram_sort_writes",
    "recurrences",
    "registry_errors",
    "schema",
    "selection_sort_reads",
    "selection_sort_writes",
    "sweep_k",
    "wrap_condition",
    "wrap_lock",
]
