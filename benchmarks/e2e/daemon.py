"""The daemon under test as a subprocess: spawn, observe, always stop."""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from .store import LOG_NAME

HOST = "127.0.0.1"
_LISTENING = re.compile(rb"listening on http://[^:\s]+:(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class DaemonError(RuntimeError):
    """The daemon did not come up, or died."""


def parse_prometheus(text: str) -> dict[str, float]:
    """``/metrics`` as ``{'name{labels}': value}`` (histogram buckets skipped)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "_bucket{" in line:
            continue
        key, _, raw = line.rpartition(" ")
        try:
            values[key] = float(raw)
        except ValueError:
            continue
    return values


class Daemon:
    """``python -m repro serve --store clinic=<file> --port 0``, defaults only.

    Use as a context manager: leaving the block SIGTERMs the process,
    escalates to SIGKILL after ``STOP_TIMEOUT_S`` and waits for it.
    """

    START_TIMEOUT_S = 60.0
    STOP_TIMEOUT_S = 10.0

    def __init__(self, root: Path, store_path: Path, stderr_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._stderr = open(stderr_path, "wb")
        self._stderr_path = stderr_path
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store",
                f"{LOG_NAME}={store_path}",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=str(root),
        )
        try:
            self.port = self._scrape_port(started + self.START_TIMEOUT_S)
            self._wait_healthy(started + self.START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        #: spawn -> first 200 on /healthz
        self.startup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _scrape_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        seen = b""
        while True:
            match = _LISTENING.search(seen)
            if match:
                return int(match.group(1))
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise DaemonError(f"no 'listening on' line; stdout so far: {seen!r}")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise DaemonError(
                        f"daemon exited with code {self.proc.wait()} before "
                        f"listening: {self._stderr_tail()}"
                    )
                seen += chunk

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise DaemonError(f"daemon died during start-up: {self._stderr_tail()}")
            if time.perf_counter() > deadline:
                raise DaemonError("daemon never answered 200 on /healthz")
            time.sleep(0.02)

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        return self._stderr_path.read_text(errors="replace")[-2000:]

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise DaemonError(f"/metrics answered {status}")
        return parse_prometheus(body.decode())

    def cpu_seconds(self) -> float:
        """``utime + stime`` of the daemon from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()  # after "(comm)"
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_peak_mb(self) -> float:
        """``VmHWM`` of the daemon in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
