"""Owning the ``serve`` process: spawn, health wait, /proc accounting, stop.

The server runs in its own session (``setsid``), so every process it
forks — the shard children of ``--shard-backend process`` — is found by
session id in ``/proc`` for CPU and memory accounting, and is reaped
with the group if it outlives the server.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
HEALTH_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text → ``{"name{labels}": value}``; comments dropped."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("latin-1")
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


class Server:
    """One ``serve`` child.  ``argv`` is everything before ``serve``."""

    def __init__(
        self,
        root: str,
        argv: List[str],
        model: str,
        flags: List[str],
        log_path: str,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.root = root
        self.argv = argv
        self.model = model
        self.flags = flags
        self.log_path = log_path
        self.env = env
        self.port = 0
        self.setup_cpu_s = 0.0
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn and wait for the first ``200`` from ``GET /health``.

        Returns the wall seconds from spawn to that response, and sets
        ``setup_cpu_s``: the CPU seconds (user + sys) the server and its
        shard processes had used by then.
        """
        self.port = free_port()
        command = [sys.executable, *self.argv, "serve", self.model,
                   "--port", str(self.port), *self.flags]
        log = open(self.log_path, "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=self.env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            log.close()
        deadline = started + HEALTH_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}; see {self.log_path}"
                )
            try:
                status, _ = http_get(self.port, "/health", timeout=2.0)
                if status == 200:
                    wall = time.perf_counter() - started
                    self.setup_cpu_s = self.cpu_seconds()
                    return wall
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("serve did not become healthy in time")
            time.sleep(0.002)

    def pids(self) -> List[int]:
        """The server and every process in its session."""
        if self.proc is None:
            return []
        sid = str(self.proc.pid)
        out = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                fields = _stat_fields(int(entry))
                if fields is not None and fields[3] == sid:
                    out.append(int(entry))
        return out

    def cpu_seconds(self) -> float:
        """user + sys of the server and its live session members."""
        total = 0
        for pid in self.pids():
            fields = _stat_fields(pid)
            if fields is not None:
                total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its session members."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def metrics(self) -> Dict[str, float]:
        status, body = http_get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the session is gone."""
        proc = self.proc
        if proc is None:
            return
        members = self.pids()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._kill_group(proc.pid)
                proc.wait(timeout=STOP_TIMEOUT_S)
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        killed = False
        while any(_alive(pid) for pid in members):
            if time.perf_counter() > deadline:
                if killed:
                    raise RuntimeError("serve left processes that survive SIGKILL")
                self._kill_group(proc.pid)
                killed = True
                deadline = time.perf_counter() + STOP_TIMEOUT_S
            time.sleep(0.01)
        self.proc = None

    @staticmethod
    def _kill_group(pgid: int) -> None:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
