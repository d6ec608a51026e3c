"""Server process control and the closed-loop keep-alive client.

:class:`Server` launches ``repro serve`` (or its traced wrapper) as a
subprocess in its own process group, times it to the first ``200`` on
``GET /healthz``, and always stops every process it started.  :func:`drive`
sends requests over at most two stdlib ``http.client`` keep-alive
connections, each caller waiting for its answer before sending the next.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from gen import Op

HEALTH_TIMEOUT_SECONDS = 60.0
STOP_TIMEOUT_SECONDS = 20.0
CONNECTIONS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed request)."""


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, command: Sequence[str], root: str, log_path: str) -> None:
        env = {key: value for key, value in os.environ.items() if key != "REPRO_KERNEL"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            list(command),
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if "http://" not in line:
            raise BenchError(f"server did not announce its address: {line.strip()!r}")
        address = line.split("http://", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def _wait_healthy(self, started: float) -> None:
        deadline = started + HEALTH_TIMEOUT_SECONDS
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    self.setup_seconds = time.perf_counter() - started
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise BenchError("server never answered GET /healthz")
            time.sleep(0.002)

    def get_json(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def pids(self) -> list[int]:
        """The server and every descendant process (shards, workers)."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for task in _listdir(f"/proc/{pid}/task"):
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        frontier.extend(int(child) for child in handle.read().split())
                except OSError:
                    continue
        return found

    def rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmRSS:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> int | None:
        """SIGINT (graceful drain), then SIGKILL the group; waits for all of it."""
        code = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                code = self.process.wait(STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(self.process.pid)
        if self.process.poll() is None:
            self.process.wait()
        _wait_group_gone(self.process.pid)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return code


def _listdir(path: str) -> list[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int) -> None:
    """Wait until no live (non-zombie) process is left in group ``pgid``."""
    deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        alive = False
        for entry in _listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                alive = True
                break
        if not alive:
            return
        time.sleep(0.01)
    raise BenchError(f"processes of group {pgid} outlived SIGKILL")


def serve_command(root: str, serve_args: Sequence[str], trace_path: str | None) -> list[str]:
    base = [sys.executable, "-u"]
    if trace_path is None:
        base += ["-m", "repro.cli"]
    else:
        base += [os.path.join(root, "planbench", "traced_serve.py"), trace_path]
    return base + ["serve", "--port", "0", *serve_args]


@dataclass
class Record:
    """One request as the client saw it."""

    op: int
    started: float
    ended: float
    status: int
    body: bytes
    """The raw answer; empty after a connection error."""


def _post(connection: http.client.HTTPConnection, op: Op) -> tuple[int, bytes]:
    connection.request(
        "POST", op.path, body=op.body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, response.read()


def drive(port: int, ops: Sequence[Op], seconds: float | None) -> list[Record]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections.

    Each caller takes the next op, sends it and waits for the answer.  With
    ``seconds`` no op is started after the deadline; with ``None`` every op is
    sent.  A connection error is recorded as status 0 and the connection is
    reopened.
    """
    counter = itertools.count()
    records: list[Record] = []
    barrier = threading.Barrier(CONNECTIONS + 1)
    deadline: list[float] = []

    def caller() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        barrier.wait()
        try:
            while True:
                index = next(counter)
                if index >= len(ops):
                    return
                started = time.perf_counter()
                if deadline and started >= deadline[0]:
                    return
                try:
                    status, body = _post(connection, ops[index])
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                records.append(Record(index, started, time.perf_counter(), status, body))
        finally:
            connection.close()

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    if seconds is not None:
        deadline.append(time.perf_counter() + seconds)
    barrier.wait()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record.op)
    return records
