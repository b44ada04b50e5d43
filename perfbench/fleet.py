"""System-under-test processes: spawn, await ``SERVING``, measure, stop.

Every server is a real ``python -m repro.cli`` subprocess with the CLI's
default engine settings; the benchmark only adds ``--port 0`` (the port
is read from the ``SERVING <host> <port>`` announce line) and a durable
``--data-dir``.  CPU time and peak RSS are read from ``/proc``, so they
need no cooperation from the measured program.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

__all__ = ["Proc", "Fleet"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds a process may take to announce ``SERVING``.
ANNOUNCE_TIMEOUT = 150.0


class Proc:
    """One spawned server process, alive once its announce line arrived."""

    def __init__(
        self,
        name: str,
        argv: Sequence[str],
        *,
        env: Dict[str, str],
        log_path: Path,
    ) -> None:
        self.name = name
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.popen = subprocess.Popen(
            list(argv),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.pid = self.popen.pid
        self.host = "127.0.0.1"
        self.port = 0

    def await_serving(self, timeout: float = ANNOUNCE_TIMEOUT) -> None:
        """Block until the process prints ``SERVING <host> <port>``."""
        assert self.popen.stdout is not None
        fd = self.popen.stdout.fileno()
        deadline = time.monotonic() + timeout
        buf = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{self.name} did not announce within {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"{self.name} exited (code {self.popen.wait()}) before "
                    f"announcing; log: {self.log_path}"
                )
            buf += chunk
            for line in buf.decode(errors="replace").splitlines():
                parts = line.split()
                if len(parts) == 3 and parts[0] == "SERVING":
                    self.host, self.port = parts[1], int(parts[2])
                    return

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def cpu_s(self) -> float:
        """utime + stime of the process (all its threads), in seconds."""
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """VmHWM (peak resident set) of the process, in MiB."""
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.pid}")

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGKILL)
        self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        self._log.close()


class Fleet:
    """The processes of one run; :meth:`close` kills whatever is left."""

    def __init__(self, root: Path, workdir: Path, edge_file: Path) -> None:
        self.workdir = workdir
        self.edge_file = edge_file
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.env["PYTHONUNBUFFERED"] = "1"
        self.procs: List[Proc] = []

    def _spawn(self, name: str, args: Sequence[str]) -> Proc:
        argv = [sys.executable, "-m", "repro.cli", *args]
        proc = Proc(
            name, argv, env=self.env, log_path=self.workdir / f"{name}.log"
        )
        self.procs.append(proc)
        return proc

    def serve(self, name: str, *extra: str) -> Proc:
        """Spawn ``repro-anc serve`` on the run's edge list (not yet awaited).

        The data directory is ``data-<name>``, so a process started again
        under the same name recovers what its predecessor left.
        """
        data_dir = self.workdir / f"data-{name}"
        return self._spawn(
            name,
            ["serve", str(self.edge_file), "--port", "0",
             "--data-dir", str(data_dir), *extra],
        )

    def read_serve(self, name: str, primary: Proc, followers: Sequence[Proc]) -> Proc:
        """Spawn ``repro-anc read-serve`` in front of a replicated fleet."""
        args = ["read-serve", primary.endpoint, "--port", "0"]
        for follower in followers:
            args += ["--follower", follower.endpoint]
        return self._spawn(name, args)

    def drop(self, proc: Proc) -> None:
        proc.kill()
        self.procs.remove(proc)

    def close(self) -> None:
        for proc in list(reversed(self.procs)):
            proc.kill()
        self.procs.clear()
