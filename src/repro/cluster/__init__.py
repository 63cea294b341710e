"""Distributed sort cluster: coordinator-led scatter-gather over EngineServer
hosts.

The service layer made one engine a long-running server
(``python -m repro serve``); this package scales that out.  A
:class:`ClusterCoordinator` owns one :class:`~repro.service.ServiceClient`
per host and speaks only the existing newline-delimited-JSON wire ops —
``submit`` / ``result`` / ``stats`` / ``shutdown`` — so any fleet of plain
serve processes is already a cluster:

* :meth:`ClusterCoordinator.sort` — scatter-gather one huge job: sample
  splitters centrally (Theorem 4.5's structure one level up), scatter
  per-host shards, merge the sorted shards through the contracted
  ``shardmerge`` kernel with the merge I/O billed on a real cost counter;
* :meth:`ClusterCoordinator.submit` / ``result`` — route many small jobs to
  the least-loaded host, with host-death retries bounded per job
  (:class:`~repro.service.WorkerDiedError` semantics at host granularity);
* :class:`LocalCluster` — spawn N real serve subprocesses on this machine
  (the ``python -m repro cluster`` CLI, the fault-injection tests and the
  scale-out bench all build on it).

``SortEngine.cluster(hosts)`` is the engine-level entry point, symmetric
with ``engine.service()``.
"""

from .coordinator import ClusterCoordinator, ClusterSpec, ClusterTicket
from .local import LocalCluster

__all__ = [
    "ClusterCoordinator",
    "ClusterSpec",
    "ClusterTicket",
    "LocalCluster",
]
