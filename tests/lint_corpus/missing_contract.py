# reprolint: path=src/repro/core/corpus_missing_contract.py
"""Planted violations: missing-cost-contract (4 findings).

Every register call pins ``aem_mergesort`` as its entry so kernel-parity
stays silent — each finding below is the contract rule's alone.
"""

CONTRACT = "Theorem 4.3"

# VIOLATION: no contract= label at all
register_kernel_entry(
    "contractless",
    entry="repro.core.aem_mergesort:aem_mergesort",
)

# VIOLATION: contract label is not a string literal — statically uncheckable
register_kernel_entry(
    "computed-contract",
    entry="repro.core.aem_mergesort:aem_mergesort",
    contract=CONTRACT,
)

# VIOLATION: `phantomsort` has no declare_contract(...) in boundcheck.py
register_kernel_entry(
    "phantomsort",
    entry="repro.core.aem_mergesort:aem_mergesort",
    contract="Theorem 9.9",
)

# VIOLATION: label mismatch — mergesort's declared theorem is 4.3, not 4.5
register_kernel_entry(
    "mergesort",
    entry="repro.core.aem_mergesort:aem_mergesort",
    contract="Theorem 4.5",
)

# OK: literal label matching the declared theorem for this kernel
register_kernel_entry(
    "samplesort",
    entry="repro.core.aem_mergesort:aem_mergesort",
    contract="Theorem 4.5",
)
