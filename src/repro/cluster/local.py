"""Spawn a local EngineServer fleet as subprocesses (CLI, tests, benches).

Each server is a real ``python -m repro serve`` process bound to an
ephemeral port; the port is read back from the server's startup banner, so
there is no bind race.  A child that dies (or stalls) before printing the
banner fails the spawn *fast* with its captured stderr in the error — a
bad flag or an import crash must not hang the caller on a pipe read.
:meth:`LocalCluster.kill` hard-kills one server (the fault-tolerance
tests' host funeral) and :meth:`LocalCluster.restart` respawns it on the
same port (the rejoin drills' host resurrection);
:meth:`LocalCluster.shutdown` tears the fleet down.  Use :meth:`connect`
for a ready :class:`~repro.cluster.ClusterCoordinator` over the fleet.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading

from ..models.params import MachineParams
from .coordinator import ClusterCoordinator, ClusterSpec

_BANNER = re.compile(r"serving sort jobs on ([\d.]+):(\d+)")

#: seconds a child gets to print its startup banner before the spawn fails
BANNER_TIMEOUT = 30.0


def _src_pythonpath() -> str:
    """PYTHONPATH entry exposing this repo's ``repro`` package to children."""
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.dirname(package_dir)


def _read_banner(proc: subprocess.Popen, timeout: float) -> str | None:
    """First stdout line of ``proc``, or ``None`` on timeout/EOF.

    The read runs on a daemon thread so a child that never writes (hung
    import, wedged interpreter) cannot hang the spawning caller — the
    caller kills the child and reports instead.
    """
    box: list[str] = []

    def _read() -> None:
        line = proc.stdout.readline()
        if line:
            box.append(line)

    reader = threading.Thread(target=_read, daemon=True, name="banner-read")
    reader.start()
    reader.join(timeout=timeout)
    return box[0] if box else None


class LocalCluster:
    """``servers`` local EngineServer subprocesses on one machine.

    All servers run the same ``params`` machine (so cluster-level counter
    aggregates are meaningful) with ``workers`` pool threads/processes
    each.  Context-manager friendly: ``with LocalCluster(3) as fleet:``.
    """

    def __init__(
        self,
        servers: int = 2,
        *,
        workers: int | None = None,
        executor: str = "thread",
        params: MachineParams | None = None,
        max_queue: int | None = None,
        admission: str = "reject",
        max_client_tickets: int | None = None,
    ):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.params = params if params is not None else MachineParams(M=64, B=8, omega=8)
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        self._env = dict(os.environ)
        src = _src_pythonpath()
        self._env["PYTHONPATH"] = (
            src + os.pathsep + self._env["PYTHONPATH"]
            if self._env.get("PYTHONPATH")
            else src
        )
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--executor",
            executor,
            "--M",
            str(self.params.M),
            "--B",
            str(self.params.B),
            "--omega",
            str(self.params.omega),
        ]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        if max_queue is not None:
            cmd += ["--max-queue", str(max_queue), "--admission", admission]
        if max_client_tickets is not None:
            cmd += ["--max-client-tickets", str(max_client_tickets)]
        self._cmd = cmd
        try:
            for _ in range(servers):
                proc, address = self._spawn(cmd)
                self.procs.append(proc)
                self.addresses.append(address)
        except BaseException:
            self.shutdown()
            raise

    def _spawn(self, cmd) -> tuple[subprocess.Popen, tuple[str, int]]:
        """Launch one server and read its banner, failing fast and loudly.

        stderr is captured separately from the banner pipe so a child that
        crashes before binding reports its actual traceback, not a cryptic
        empty-banner error.
        """
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._env,
        )
        banner = _read_banner(proc, BANNER_TIMEOUT)
        match = _BANNER.search(banner) if banner is not None else None
        if match is None:
            proc.kill()
            try:
                _, stderr = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                stderr = ""
            detail = (stderr or "").strip()
            why = (
                f"no banner within {BANNER_TIMEOUT}s"
                if banner is None
                else f"bad banner {banner.strip()!r}"
            )
            raise RuntimeError(
                f"local sort server failed to start ({why})"
                + (f"; stderr:\n{detail}" if detail else "")
            )
        return proc, (match.group(1), int(match.group(2)))

    # ------------------------------------------------------------------ #
    def spec(self, **overrides) -> ClusterSpec:
        return ClusterSpec(hosts=tuple(self.addresses), **overrides)

    def connect(self, **overrides) -> ClusterCoordinator:
        """A coordinator over the fleet (caller closes it)."""
        return ClusterCoordinator(self.spec(**overrides), self.params)

    def kill(self, index: int) -> None:
        """Hard-kill one server (SIGKILL) — the host-death fault injection."""
        proc = self.procs[index]
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    def restart(self, index: int) -> tuple[str, int]:
        """Respawn a killed server on its original port (host resurrection
        for the rejoin drills; coordinators then re-admit it on the next
        successful probation ping).  Returns the (unchanged) address."""
        if self.procs[index].poll() is None:
            raise RuntimeError(f"server {index} is still running; kill it first")
        host, port = self.addresses[index]
        cmd = list(self._cmd)
        cmd[cmd.index("--port") + 1] = str(port)
        proc, address = self._spawn(cmd)
        self.procs[index] = proc
        self.addresses[index] = address
        return address

    def alive(self) -> list[int]:
        return [i for i, proc in enumerate(self.procs) if proc.poll() is None]

    def wait(self, timeout: float = 10.0) -> None:
        """Wait for every server process to exit (after a drain-shutdown)."""
        for proc in self.procs:
            proc.wait(timeout=timeout)

    def shutdown(self) -> None:
        """Terminate any still-running servers and reap them (idempotent)."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()
                proc.wait(timeout=10)
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
