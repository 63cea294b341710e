"""faults — the deterministic fault-injection harness.

Overload hardening is only believable if the failure paths are *exercised*,
and failure paths exercised by flaky timing are worse than none: a chaos
test that fails one run in fifty cannot gate CI.  This module makes fault
injection a seeded, replayable input instead of an accident:

* a :class:`FaultPlan` holds per-site firing rates (``wire-drop``,
  ``worker-death``, ``partial-line``, ``slow-host``, ``timeout``); the
  decision for the *k*-th query at a site is a pure function of
  ``(seed, site, k)`` — independent of thread interleaving, hash
  randomization, and wall clock — so a drill replays identically for a
  fixed seed;
* production code crosses a handful of **fault points** (the
  :class:`~repro.service.ServiceClient` wire path, the
  :class:`~repro.service.SortService` dispatch loops, the
  :class:`~repro.service.EngineServer` request dispatch); each is a single
  ``faults.active()`` check — ``None`` when no plan is installed, which is
  the production state, so the hot path pays one global read;
* activation is explicit (:func:`activate` / the :func:`inject` context
  manager) or environment-driven: ``REPRO_FAULTS="seed=0,wire-drop=0.2"``
  installs a plan lazily at the first fault point, and the variable
  propagates to ``python -m repro serve`` subprocesses, so a whole
  :class:`~repro.cluster.LocalCluster` fleet can run under one storm.

The fired decisions are recorded (``plan.events`` / ``plan.fired``) so
drills can assert *exactly* how many faults landed, not just "something
went wrong".
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager

from ..analysis.locksan import wrap_lock

#: the recognised fault sites and what each one simulates
SITES = (
    "worker-death",  # a pool worker process dies mid-job (OOM kill)
    "wire-drop",     # the client's TCP connection drops before a request
    "partial-line",  # half a request (line and frames) reaches the server, then EOF
    "slow-host",     # a server stalls before handling a request
    "timeout",       # a client request times out before reaching the wire
)


class InjectedFault(RuntimeError):
    """The error a fired fault raises where a real failure has no natural
    exception of its own (e.g. thread-worker death is simulated by failing
    the in-flight job with this)."""


def _decision(seed: int, site: str, k: int) -> float:
    """Uniform [0, 1) value for query ``k`` at ``site`` — a pure function
    of its arguments (blake2b, not ``hash()``, which is randomized per
    process and would break cross-process determinism)."""
    digest = hashlib.blake2b(
        f"{seed}:{site}:{k}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class FaultPlan:
    """One seeded storm: per-site rates, optional per-site fire caps.

    Parameters
    ----------
    seed:
        Determinism root — two plans with equal seeds and rates make
        identical per-site decision sequences.
    rates:
        ``{site: probability}`` for sites in :data:`SITES` (absent = 0.0,
        i.e. the site never fires).
    max_fires:
        Cap on fires *per site* (``None`` = unlimited) — bounds a storm so
        a drill can guarantee eventual success.
    slow_seconds:
        Stall injected by a fired ``slow-host`` site.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        rates: dict[str, float] | None = None,
        max_fires: int | None = None,
        slow_seconds: float = 0.02,
    ):
        rates = dict(rates or {})
        unknown = sorted(set(rates) - set(SITES))
        if unknown:
            raise ValueError(f"unknown fault sites {unknown}; choose from {SITES}")
        for site, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {rate}")
        if max_fires is not None and max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {max_fires}")
        if slow_seconds < 0:
            raise ValueError(f"slow_seconds must be >= 0, got {slow_seconds}")
        self.seed = seed
        self.rates = rates
        self.max_fires = max_fires
        self.slow_seconds = slow_seconds
        self._lock = wrap_lock(threading.Lock(), "FaultPlan._lock")
        self._calls: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        #: chronological ``(site, call_index)`` record of every fired fault
        self.events: list[tuple[str, int]] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(seed={self.seed}, rates={self.rates})"

    # ------------------------------------------------------------------ #
    def should_fire(self, site: str) -> bool:
        """Consume one decision at ``site``; ``True`` when the fault fires.

        The decision depends only on ``(seed, site, call index)``, so each
        site's decision *sequence* is deterministic even when several
        threads race to consume it (which thread gets which index may vary;
        the multiset of outcomes cannot).
        """
        rate = self.rates.get(site, 0.0)
        with self._lock:
            k = self._calls.get(site, 0)
            self._calls[site] = k + 1
            if rate <= 0.0:
                return False
            if self.max_fires is not None and self._fired.get(site, 0) >= self.max_fires:
                return False
            fire = _decision(self.seed, site, k) < rate
            if fire:
                self._fired[site] = self._fired.get(site, 0) + 1
                self.events.append((site, k))
            return fire

    def check(self, site: str, detail: str = "") -> None:
        """Raise :class:`InjectedFault` when ``site`` fires (the hook shape
        for seams where the natural failure is an exception)."""
        if self.should_fire(site):
            raise InjectedFault(
                f"injected {site} fault" + (f" ({detail})" if detail else "")
            )

    def fired(self, site: str | None = None) -> int:
        """Fires so far at ``site`` (or across all sites)."""
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)


# --------------------------------------------------------------------------- #
# activation
# --------------------------------------------------------------------------- #
_install_lock = threading.Lock()
_active: FaultPlan | None = None
_env_checked = False


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` globally; fault points start consulting it."""
    global _active
    with _install_lock:
        _active = plan
    return plan


def deactivate() -> None:
    """Remove the installed plan (fault points go back to no-ops)."""
    global _active
    with _install_lock:
        _active = None


def active() -> FaultPlan | None:
    """The installed plan, or ``None``.  On first call, ``REPRO_FAULTS``
    (if set) is parsed and installed — this is how ``serve`` subprocesses
    join a storm without any wiring."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        with _install_lock:
            if _active is None and not _env_checked:
                _env_checked = True
                spec = os.environ.get("REPRO_FAULTS", "")
                if spec:
                    _active = plan_from_spec(spec)
    return _active


def fire(site: str) -> bool:
    """Module-level convenience: the installed plan's decision (``False``
    when no plan is installed)."""
    plan = active()
    return plan is not None and plan.should_fire(site)


@contextmanager
def inject(plan: FaultPlan | None = None, **kwargs):
    """``with faults.inject(seed=3, rates={...}):`` — activate for a scope.

    Accepts a ready :class:`FaultPlan` or the plan's constructor kwargs.
    Restores the previously installed plan (if any) on exit.
    """
    if plan is None:
        plan = FaultPlan(**kwargs)
    elif kwargs:
        raise TypeError("pass a FaultPlan or constructor kwargs, not both")
    with _install_lock:
        previous = _active
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous) if previous is not None else deactivate()


def plan_from_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` value into a plan.

    Comma-separated ``key=value`` pairs: ``seed=INT``, ``max-fires=INT``,
    ``slow-seconds=FLOAT``, and one ``SITE=RATE`` per fault site, e.g.
    ``"seed=7,wire-drop=0.25,worker-death=0.1,max-fires=3"``.
    """
    seed = 0
    max_fires: int | None = None
    slow_seconds = 0.02
    rates: dict[str, float] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise ValueError(f"bad REPRO_FAULTS entry {chunk!r} (want key=value)")
        try:
            if key == "seed":
                seed = int(value)
            elif key == "max-fires":
                max_fires = int(value)
            elif key == "slow-seconds":
                slow_seconds = float(value)
            elif key in SITES:
                rates[key] = float(value)
            else:
                raise ValueError(
                    f"unknown REPRO_FAULTS key {key!r}; sites are {SITES}"
                )
        except ValueError as exc:
            if "REPRO_FAULTS" in str(exc):
                raise
            raise ValueError(f"bad REPRO_FAULTS value {chunk!r}: {exc}") from exc
    return FaultPlan(
        seed, rates=rates, max_fires=max_fires, slow_seconds=slow_seconds
    )
