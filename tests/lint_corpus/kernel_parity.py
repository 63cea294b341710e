# reprolint: path=src/repro/analysis/corpus_kernel_parity.py
"""Planted violations: kernel-parity (4 findings).

Each ``declare_contract`` below declares a kernel the way the contract
table in ``repro/analysis/boundcheck.py`` does; the rule reads only the
kernel name and its ``entry=``, so the bounds and runners are left out.
"""

from repro.analysis.boundcheck import declare_contract

_DYNAMIC = "repro.core.phantom:phantom_sort"

# VIOLATION: `phantom_sort` has no pin in tests/test_kernel_parity.py
declare_contract(
    "phantom",
    entry="repro.core.phantom:phantom_sort",
    theorem="Theorem 4.3",
)

# VIOLATION: no entry point declared
declare_contract(
    "halfbaked", theorem="Theorem 4.3")

# VIOLATION: not a string literal — statically uncheckable
declare_contract(
    "shifty", entry=_DYNAMIC, theorem="Theorem 4.3")

# VIOLATION: not of the form "module:symbol"
declare_contract(
    "formless", entry="repro.core.aem_mergesort", theorem="Theorem 4.3")

# OK: pinned (aem_mergesort is imported by the parity test)
declare_contract(
    "wholesome",
    entry="repro.core.aem_mergesort:aem_mergesort",
    theorem="Theorem 4.3",
)
