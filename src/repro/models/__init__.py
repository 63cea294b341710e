"""Asymmetric-cost machine models (§2 of the paper).

Four executable models, all charging a shared
:class:`~repro.models.counters.CostCounter`:

* :mod:`~repro.models.asymmetric_ram` — word-granularity RAM.
* :mod:`~repro.models.pram` — work/depth PRAM accounting.
* :mod:`~repro.models.external_memory` — the AEM machine with explicit block
  transfers.
* :mod:`~repro.models.ideal_cache` — the asymmetric cache simulator
  (LRU / read-write LRU / offline Belady) behind cache-oblivious algorithms.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".asymmetric_ram": ("InstrumentedArray",),
    ".counters": ("CostCounter", "PhaseRecorder"),
    ".external_memory": (
        "AEMachine",
        "BlockWriter",
        "ExtArray",
        "MemoryBudgetExceeded",
        "MemoryGuard",
    ),
    ".ideal_cache": ("CacheSim", "SimArray", "SimView", "simulate_trace"),
    ".params": ("MEDIUM", "SMALL", "TINY", "MachineParams", "parameter_grid"),
    ".pram": ("DepthTracker",),
})

__all__ = [
    "AEMachine",
    "BlockWriter",
    "CacheSim",
    "CostCounter",
    "DepthTracker",
    "ExtArray",
    "InstrumentedArray",
    "MachineParams",
    "MemoryBudgetExceeded",
    "MemoryGuard",
    "PhaseRecorder",
    "SimArray",
    "SimView",
    "MEDIUM",
    "SMALL",
    "TINY",
    "parameter_grid",
    "simulate_trace",
]
