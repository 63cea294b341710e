# reprolint: path=src/repro/core/corpus_kernel_parity.py
"""Planted violations: kernel-parity (4 findings).

Every register call here also lacks a ``contract=`` label; that is the
missing-cost-contract rule's territory (see ``missing_contract.py``), so
it is suppressed per call to keep this file's findings parity-only.
"""

from repro.core.kernels import register_kernel_entry

_DYNAMIC = "repro.core.phantom:phantom_sort"

# VIOLATION: `phantom_sort` has no pin in tests/test_kernel_parity.py
register_kernel_entry(  # reprolint: disable=missing-cost-contract
    "phantom",
    entry="repro.core.phantom:phantom_sort",
)

# VIOLATION: no entry point declared
register_kernel_entry(  # reprolint: disable=missing-cost-contract
    "halfbaked")

# VIOLATION: not a string literal — statically uncheckable
register_kernel_entry(  # reprolint: disable=missing-cost-contract
    "shifty", entry=_DYNAMIC)

# VIOLATION: not of the form "module:symbol"
register_kernel_entry(  # reprolint: disable=missing-cost-contract
    "formless", entry="repro.core.aem_mergesort")

# OK: pinned (aem_mergesort is imported by the parity test)
register_kernel_entry(  # reprolint: disable=missing-cost-contract
    "wholesome",
    entry="repro.core.aem_mergesort:aem_mergesort",
)
