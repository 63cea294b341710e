"""repro — Sorting with Asymmetric Read and Write Costs (SPAA 2015).

A faithful, executable reproduction of Blelloch, Fineman, Gibbons, Gu & Shun,
*Sorting with Asymmetric Read and Write Costs* (SPAA 2015 / arXiv:1603.03505):
asymmetric-cost machine models (RAM, PRAM, External Memory, Ideal-Cache) and
the paper's write-efficient algorithms for sorting, FFT and matrix
multiplication, instrumented so every theorem's read/write/depth bound can be
measured.

Quickstart
----------
>>> from repro import MachineParams, AEMachine, aem_mergesort
>>> params = MachineParams(M=64, B=8, omega=8)
>>> machine = AEMachine(params)
>>> arr = machine.from_list([5, 3, 8, 1, 9, 2, 7, 4, 6, 0])
>>> out = aem_mergesort(machine, arr, k=4)
>>> out.peek_list()
[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
>>> machine.counter.block_cost(params.omega) > 0
True

What ``import repro`` loads
---------------------------
This file only.  Each name in ``__all__`` is imported from its submodule the
first time it is used (PEP 562, through :func:`_lazy_exports`), and so are
the names of ``repro.analysis``, ``repro.datastructures``, ``repro.models``,
``repro.planner`` and ``repro.service``; ``repro.core`` exports nothing, so
each kernel loads only when its own submodule is imported.  A sort
therefore loads the engine, the kernels it can run, the models and the
planner's cost model, and none of the service, the cluster, the
experiments, the analysis tooling or the cluster's kernels
(``parallel_samplesort``, ``shard_merge``): with bytecode caching off,
every module imported is compiled afresh in each new process.
"""


def _lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package`` over ``table``.

    ``table`` reads like the import block it replaces: ``{".engine":
    ("SortEngine",)}`` stands for ``from .engine import SortEngine``, and
    ``{".": ("iosan",)}`` for ``from . import iosan`` (the submodule itself).
    A name's submodule is imported the first time the name is looked up;
    the value is then stored on the package, so later lookups are plain
    attribute reads.
    """
    import importlib
    import sys

    source_of = {name: source for source, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            source = source_of[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if source == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | source_of.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    ".api": ("SortReport",),
    ".engine": ("EXTERNAL_SORTS", "SortEngine", "StreamSession", "sort_ram"),
    ".core.aem_heapsort": ("AEMPriorityQueue", "aem_heapsort"),
    ".core.aem_mergesort": ("aem_mergesort",),
    ".core.aem_samplesort": ("aem_samplesort",),
    ".core.buffer_tree": ("BufferTree",),
    ".core.ram_sort": ("bst_sort",),
    ".core.selection_sort": ("selection_sort",),
    ".models": (
        "AEMachine",
        "CacheSim",
        "CostCounter",
        "DepthTracker",
        "InstrumentedArray",
        "MachineParams",
        "MemoryGuard",
        "SimArray",
    ),
    ".planner": (
        "BatchReport",
        "CostConstants",
        "PlanCache",
        "SortJob",
        "SortPlan",
        "calibrate",
        "plan_sort",
        "rank_plans",
    ),
    ".service": (
        "EngineServer",
        "ServiceClient",
        "SortFuture",
        "SortService",
        "WorkerDiedError",
    ),
})

__version__ = "1.0.0"

# Runtime sanitizers, environment-activated so they reach spawned worker
# processes too (the env propagates through multiprocessing): REPRO_IOSAN=1
# cross-checks every physical block transfer against the CostCounter,
# REPRO_LOCKSAN=1 records lock acquisition order across the service layer.
import os as _os

if _os.environ.get("REPRO_IOSAN", "0") not in ("", "0"):
    from .analysis import iosan as _iosan

    _iosan.enable()
if _os.environ.get("REPRO_LOCKSAN", "0") not in ("", "0"):
    from .analysis import locksan as _locksan

    _locksan.enable()
del _os

__all__ = [
    "AEMPriorityQueue",
    "AEMachine",
    "BatchReport",
    "BufferTree",
    "CacheSim",
    "CostConstants",
    "CostCounter",
    "DepthTracker",
    "EXTERNAL_SORTS",
    "EngineServer",
    "InstrumentedArray",
    "MachineParams",
    "MemoryGuard",
    "PlanCache",
    "ServiceClient",
    "SimArray",
    "SortEngine",
    "SortFuture",
    "SortJob",
    "SortPlan",
    "SortReport",
    "SortService",
    "StreamSession",
    "WorkerDiedError",
    "aem_heapsort",
    "aem_mergesort",
    "aem_samplesort",
    "bst_sort",
    "calibrate",
    "plan_sort",
    "rank_plans",
    "selection_sort",
    "sort_ram",
    "__version__",
]
