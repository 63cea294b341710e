"""The paper's algorithms (§3, §4, §5.1).

RAM/PRAM (§3):
    :func:`~repro.core.ram_sort.bst_sort`,
    :func:`~repro.core.pram_sample_sort.pram_sample_sort`.

AEM (§4):
    :func:`~repro.core.selection_sort.selection_sort` (Lemma 4.2),
    :func:`~repro.core.aem_mergesort.aem_mergesort` (Algorithm 2),
    :func:`~repro.core.aem_samplesort.aem_samplesort` (§4.2),
    :class:`~repro.core.buffer_tree.BufferTree` /
    :func:`~repro.core.aem_heapsort.aem_heapsort` (§4.3).

Cache-oblivious (§5.1):
    :func:`~repro.core.co_sort.co_sort` (Figure 1).

The package exports nothing: import each kernel from its submodule
(``from repro.core.aem_mergesort import aem_mergesort``), or through the
lazy ``repro`` namespace.  Six kernels share their submodule's name, so
a package-level name would shadow the submodule it comes from.
"""
