"""Capped exponential backoff with jitter — the one retry cadence.

Before this module, every retry loop in the repo slept its own way:
:class:`~repro.service.ServiceClient` polled connects on a fixed
``retry_delay=0.1``, the :class:`~repro.cluster.ClusterCoordinator`
resubmitted failed shards with no pause at all.  Fixed delays synchronize
retrying clients into thundering herds (everybody re-hits the recovering
server on the same beat), and zero delays turn a brief outage into a hot
spin.  The standard cure is *capped exponential backoff with jitter*
(attempt ``i`` sleeps roughly ``base * 2**i`` capped at ``cap``, smeared by
a random factor so independent clients decorrelate), and this module is the
single implementation every retry path shares.

Determinism: the repo's chaos drills must replay byte-identically for a
fixed seed, so jitter can be pinned — pass ``seed`` and the delay sequence
is a pure function of ``(seed, attempt)``.  Without a seed the module-level
RNG supplies real jitter (the production behaviour).
"""

from __future__ import annotations

import random

#: production jitter source (seedless callers); never used when a seed is
#: given, so drills stay reproducible
_rng = random.Random()


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    jitter: float = 0.5,
    seed: int | None = None,
) -> float:
    """Delay (seconds) before retry number ``attempt`` (0-based).

    The undithered delay is ``min(cap, base * 2**attempt)``; ``jitter`` is
    the fraction of it that is randomized (0 = fixed, 1 = full jitter), so
    the result lies in ``[(1 - jitter) * d, d]``.  A ``seed`` makes the
    value a deterministic function of ``(seed, attempt)``.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if base <= 0 or cap < base:
        raise ValueError(f"need 0 < base <= cap, got base={base} cap={cap}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    # 2**attempt overflows no float for attempt < 1024; cap early instead of
    # computing astronomically large intermediates for long-lived loops
    full = cap if base * (2.0 ** min(attempt, 64)) >= cap else base * (2.0 ** attempt)
    if jitter == 0.0:
        return full
    rng = random.Random(f"{seed}:{attempt}") if seed is not None else _rng
    return full * (1.0 - jitter) + full * jitter * rng.random()
