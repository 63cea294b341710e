"""chaos — named, deterministic fault drills behind ``python -m repro chaos``.

Each drill builds a real service/cluster topology, runs a traffic pattern
under a seeded :class:`~repro.testing.faults.FaultPlan`, and returns a row
of headline counts with an ``ok`` verdict.  The drills are written so the
headline counts are *deterministic for a fixed seed*: drill traffic is
single-threaded wherever a fault site's call count matters, so the k-th
decision at each site is always the same decision (see
:mod:`repro.testing.faults`).  The one exception is ``host-rejoin``, whose
wall-clock field (``rejoin_seconds``) is timing-dependent by nature and is
excluded from determinism comparisons (:data:`NONDETERMINISTIC_KEYS`).

The point of the drills is to keep the failure paths *continuously
exercised*: worker respawn, connection-drop retries, the server's
hardening against torn lines and torn int64 frames, slow-host tolerance,
timeout storms, and the coordinator's probation/rejoin machinery each get
a dedicated storm that CI replays on every push (``chaos --seed 0``).
Every drill that sorts checks each output against ``sorted(input)``.
"""

from __future__ import annotations

import time

from ..engine import SortEngine
from ..models.params import MachineParams
from ..workloads import random_permutation
from . import faults

#: result keys that legitimately vary run-to-run (wall clock)
NONDETERMINISTIC_KEYS = ("rejoin_seconds",)

_PARAMS = MachineParams(M=64, B=8, omega=8)


# --------------------------------------------------------------------------- #
# in-process service drills
# --------------------------------------------------------------------------- #
def _drill_worker_death(seed: int) -> dict:
    """Kill pool workers mid-job; every fired death must surface as exactly
    one failed job (thread pools) while the other jobs return
    ``sorted(input)``."""
    jobs = 24
    with SortEngine(_PARAMS, workers=2) as engine:
        service = engine.service("thread")
        with faults.inject(seed=seed, rates={"worker-death": 0.3}) as plan:
            inputs = [random_permutation(64, seed=seed + i) for i in range(jobs)]
            futures = [service.submit(data) for data in inputs]
            failures = 0
            wrong = 0
            for data, future in zip(inputs, futures):
                exc = future.exception()
                if isinstance(exc, faults.InjectedFault):
                    failures += 1
                elif exc is not None:
                    raise exc
                elif future.result().output != sorted(data):
                    wrong += 1
            fired = plan.fired("worker-death")
        stats = service.stats()
    return {
        "drill": "worker-death",
        "jobs": jobs,
        "fired": fired,
        "failures": failures,
        "wrong": wrong,
        "completed": stats["completed"],
        # `completed` counts every finished job, failed ones included;
        # records_sorted only moves on successes
        "ok": failures == fired and wrong == 0
        and stats["completed"] == jobs,
    }


def _client_recovering(server, fn, *, max_attempts: int = 200):
    """Run ``fn(client)`` against ``server``, transparently replacing the
    client when an injected drop/timeout tears the connection.  Returns
    ``(result, reconnects)``."""
    from ..service import ServiceClient

    host, port = server.address
    client = ServiceClient(host, port)
    reconnects = 0
    try:
        for _ in range(max_attempts):
            try:
                return fn(client), reconnects
            except (ConnectionError, TimeoutError):
                try:
                    client.close()
                except OSError:
                    pass
                client = ServiceClient(host, port)
                reconnects += 1
        raise RuntimeError(f"drill exhausted {max_attempts} attempts")
    finally:
        try:
            client.close()
        except OSError:
            pass


def _wire_storm(seed: int, name: str, rates: dict) -> dict:
    """Shared body for the client-side wire storms: N sorts through a real
    socket while the plan drops connections / tears requests / injects
    timeouts; every job must still land as ``sorted(input)``, and the
    server must stay healthy enough to answer a clean ping afterwards."""
    from ..service import EngineServer, ServiceClient, SortService

    jobs = 12
    with SortEngine(_PARAMS, workers=2) as engine:
        service = SortService(engine, workers=2)
        try:
            with EngineServer(service).start() as server:
                with faults.inject(seed=seed, rates=rates, max_fires=10) as plan:
                    wrong = 0
                    reconnects = 0
                    for i in range(jobs):
                        data = random_permutation(48, seed=seed + i)
                        output, r = _client_recovering(
                            server, lambda c, d=data: c.sort(d)
                        )
                        reconnects += r
                        if output != sorted(data):
                            wrong += 1
                    fired = {site: plan.fired(site) for site in rates}
                # after the storm: a fresh, fault-free client must see a
                # healthy server (the handler pool survived every tear)
                host, port = server.address
                with ServiceClient(host, port) as probe:
                    healthy = probe.ping()
                    completed = probe.stats()["completed"]
        finally:
            service.shutdown(drain=False)
    return {
        "drill": name,
        "jobs": jobs,
        **{f"fired_{site}": count for site, count in sorted(fired.items())},
        "reconnects": reconnects,
        "wrong": wrong,
        "healthy_after": healthy,
        "completed": completed,
        "ok": healthy and wrong == 0 and completed >= jobs,
    }


def _drill_wire_drop(seed: int) -> dict:
    return _wire_storm(seed, "wire-drop", {"wire-drop": 0.25})


def _drill_partial_line(seed: int) -> dict:
    return _wire_storm(seed, "partial-line", {"partial-line": 0.25})


def _drill_slow_host(seed: int) -> dict:
    """Server-side stalls: every request may sleep before dispatch; the
    client (no deadline here) just waits them out — all jobs land."""
    return _wire_storm(
        seed, "slow-host", {"slow-host": 0.4}
    )


def _drill_timeout(seed: int) -> dict:
    """Client-side timeout storm on an idempotent op: fired timeouts abort
    *before* the send, so retries cannot double-submit."""
    from ..service import EngineServer, ServiceClient, SortService

    pings = 20
    with SortEngine(_PARAMS, workers=1) as engine:
        service = SortService(engine, workers=1)
        try:
            with EngineServer(service).start() as server:
                with faults.inject(
                    seed=seed, rates={"timeout": 0.3}, max_fires=15
                ) as plan:
                    retried = 0
                    for _ in range(pings):
                        _, r = _client_recovering(server, lambda c: c.ping())
                        retried += r
                    fired = plan.fired("timeout")
                host, port = server.address
                with ServiceClient(host, port) as probe:
                    submitted = probe.stats()["submitted"]
        finally:
            service.shutdown(drain=False)
    return {
        "drill": "timeout",
        "pings": pings,
        "fired_timeout": fired,
        "reconnects": retried,
        "submitted": submitted,
        "ok": retried == fired and submitted == 0,
    }


# --------------------------------------------------------------------------- #
# subprocess fleet drill
# --------------------------------------------------------------------------- #
def _drill_host_rejoin(seed: int) -> dict:
    """Kill a fleet host mid-traffic, restart it, and require the
    coordinator to re-admit it via a probation ping — within a small
    multiple of the probation interval."""
    from ..cluster import LocalCluster

    interval = 0.2
    jobs = 6
    with LocalCluster(2, workers=2) as fleet:
        coord = fleet.connect(retries=2, rejoin_interval=interval)
        try:
            before = [
                coord.submit(random_permutation(64, seed=seed + i))
                for i in range(jobs)
            ]
            coord.gather(before)

            fleet.kill(0)
            during = [
                coord.submit(random_permutation(64, seed=seed + jobs + i))
                for i in range(jobs)
            ]
            survivors = coord.gather(during)
            live_while_down = len(coord.live_hosts())

            fleet.restart(0)
            t0 = time.monotonic()
            live_after = live_while_down
            while time.monotonic() - t0 < 30 * interval:
                live_after = coord.stats()["aggregate"]["live_hosts"]
                if live_after == 2:
                    break
                time.sleep(interval / 4)
            rejoin_seconds = round(time.monotonic() - t0, 3)

            after = [
                coord.submit(random_permutation(64, seed=seed + 2 * jobs + i))
                for i in range(jobs)
            ]
            coord.gather(after)
            stats = coord.stats()["aggregate"]
        finally:
            coord.close()
    return {
        "drill": "host-rejoin",
        "jobs": 3 * jobs,
        "survivor_jobs": len(survivors),
        "live_while_down": live_while_down,
        "live_after": live_after,
        "rejoins": stats["rejoins"],
        "rejoin_seconds": rejoin_seconds,
        "ok": live_while_down == 1 and live_after == 2 and stats["rejoins"] >= 1,
    }


DRILLS = {
    "worker-death": _drill_worker_death,
    "wire-drop": _drill_wire_drop,
    "partial-line": _drill_partial_line,
    "slow-host": _drill_slow_host,
    "timeout": _drill_timeout,
    "host-rejoin": _drill_host_rejoin,
}


def run_drill(name: str, seed: int = 0) -> dict:
    """Run one named drill; returns its result row (``ok`` = verdict)."""
    try:
        drill = DRILLS[name]
    except KeyError:
        raise ValueError(
            f"unknown drill {name!r}; choose from {sorted(DRILLS)}"
        ) from None
    return drill(seed)


def run_drills(names=None, seed: int = 0) -> list[dict]:
    """Run the named drills (default: all, in registry order)."""
    return [run_drill(name, seed) for name in (names or list(DRILLS))]
