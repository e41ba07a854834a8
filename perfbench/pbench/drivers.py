"""The two request paths the benchmark drives, both public entry points.

* :class:`InProcess` — ``repro.service.commands.handle_request`` with
  each request and response JSON round-tripped the way the serve loop
  frames them.
* :class:`DaemonProcess` — a ``repro-pta daemon --workers 1``
  subprocess over one TCP connection.

A request's time runs from the call to the parsed response.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.daemon.client import DaemonClient
from repro.service.commands import SessionCache, handle_request
from repro.service.store import ResultStore


class InProcess:
    """One store plus one session cache, answered in this process."""

    def __init__(self, store: str | Path, capacity: int | None = None):
        self.store = ResultStore(store)
        self.sessions = SessionCache(capacity)

    def call(self, request: dict) -> tuple[dict, float]:
        start = time.perf_counter()
        body = json.loads(json.dumps(request))
        response = json.loads(
            json.dumps(handle_request(body, self.store, self.sessions), sort_keys=True)
        )
        return response, time.perf_counter() - start

    def analysis_for(self, source: str):
        """The analysis behind this source's warm session."""
        return self.sessions[self.store.key_for(source)].analysis


def _children(pid: int) -> list[int]:
    pids: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        pids += [int(child) for child in text]
    return pids


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS (Linux
    ``clear_refs``); False where the kernel does not allow it."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


class DaemonProcess:
    """A single-worker daemon over a fresh store, and one connection."""

    def __init__(self, root: Path, store_dir: Path, log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "daemon",
                "--workers", "1", "--port", "0", "--store", str(store_dir),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.client = None
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("daemon: listening on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, _, port = line.split()[3].rpartition(":")
            self.client = DaemonClient(host, int(port))
        except BaseException:
            self.stop()
            raise

    def call(self, request: dict) -> tuple[dict, float]:
        start = time.perf_counter()
        response = self.client.request(request)
        return response, time.perf_counter() - start

    def worker_pid(self) -> int:
        children = _children(self.proc.pid)
        if len(children) != 1:
            raise RuntimeError(f"expected one daemon worker, found {children}")
        return children[0]

    def stop(self) -> None:
        """Stop the daemon and wait until it and its worker have ended."""
        if self.client is not None:
            self.client.close()
            self.client = None
        workers = _children(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in workers:
            deadline = time.monotonic() + 10
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        self.proc.stdout.close()
        self._log.close()


def _running(pid: int) -> bool:
    """Is the process alive (a zombie awaiting its reaper is not)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"
