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
"""

from .aem_heapsort import AEMPriorityQueue, aem_heapsort
from .aem_mergesort import aem_mergesort
from .aem_samplesort import aem_samplesort
from .buffer_tree import BufferTree
from .em_utils import em_two_way_mergesort
from .kernels import SLOW_REFERENCE, VECTORIZED
from .parallel_samplesort import parallel_samplesort
from .ram_sort import RAM_SORTS, bst_sort, heapsort, mergesort, quicksort
from .selection_sort import selection_sort
from .shard_merge import shard_merge

__all__ = [
    "AEMPriorityQueue",
    "BufferTree",
    "RAM_SORTS",
    "SLOW_REFERENCE",
    "VECTORIZED",
    "aem_heapsort",
    "aem_mergesort",
    "aem_samplesort",
    "bst_sort",
    "em_two_way_mergesort",
    "heapsort",
    "mergesort",
    "parallel_samplesort",
    "quicksort",
    "selection_sort",
    "shard_merge",
]
