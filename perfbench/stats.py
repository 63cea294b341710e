"""Percentiles, counter digests, peak memory and the host fingerprint."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples, p: float):
    """Nearest-rank ``p``-th percentile, or ``None`` unless at least
    :data:`MIN_BEYOND` samples lie above its rank."""
    xs = sorted(samples)
    if not xs:
        return None
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def tail_percentile(samples):
    """``(p, value)`` for the highest percentile :func:`percentile` allows,
    or ``None`` when even the median has too few samples beyond it."""
    for p in TAIL_PERCENTILES + (50.0,):
        value = percentile(samples, p)
        if value is not None:
            return p, value
    return None


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def counter_digest(pairs) -> str:
    """Hash over each operation's ``(reads, writes)``, in operation order."""
    h = hashlib.sha256()
    for reads, writes in pairs:
        h.update(f"{reads},{writes};".encode())
    return h.hexdigest()[:16]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


_SPIN = "import time\nt=time.perf_counter()\nx=0\nfor i in range({n}): x+=i*i\nprint(time.perf_counter()-t)"


def _spin_seconds(copies: int, n: int) -> float:
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SPIN.format(n=n)], stdout=subprocess.PIPE, text=True
        )
        for _ in range(copies)
    ]
    return max(float(p.communicate()[0]) for p in procs)


def effective_parallelism(n: int = 2_000_000) -> float:
    """Two CPU-bound processes timed against one: 2.0 means two cores ran
    in parallel, 1.0 means they took turns on one."""
    alone = _spin_seconds(1, n)
    pair = _spin_seconds(2, n)
    return round(2 * alone / pair, 2)


#: the reference start: a fresh interpreter importing a fixed set of standard
#: modules, none from the program measured
REFERENCE_START = (
    "import argparse, bisect, concurrent.futures, dataclasses, heapq, json, "
    "socket, subprocess, threading"
)
#: what the reference start takes on the host the bounds were set on (a
#: 2-vCPU VM, one CPU pinned); normalised set-up seconds are on that scale
REFERENCE_START_S = 0.1


def reference_start_seconds() -> float:
    """Wall seconds of one :data:`REFERENCE_START`.  Timed right before a
    set-up, it tells how fast the host starts processes at that moment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_START], check=True, timeout=60)
    return time.perf_counter() - t0


def _git_sha(root: str):
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(root):
        return None
    return top[1]


def tree_digest(path: str) -> str:
    """Content hash of every ``.py`` file under ``path`` (the checkout may
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_digest": tree_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "effective_parallelism": effective_parallelism(),
    }
