"""HTTP load: the server process, and open- and closed-loop generators.

One generator process drives the server with at most two threads, each
owning one keep-alive ``ConvoyClient`` connection (the machine this was
calibrated on has two cores: one for the server, one for the load).
Clients never retry, so a refused or failed request counts as failed and
as missing every latency limit.
"""

from __future__ import annotations

import json
import math
import os
import queue
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, List

from measure import peak_rss_mb, percentile

from repro.server import NO_RETRY, ConvoyClient

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Seconds a server process may take to become ready, and to stop.
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 120.0


class ServerProcess:
    """One ``server.py`` process; ``setup_s`` is spawn-to-ready wall time."""

    def __init__(self, workload: str, size: str, seed: int, directory: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--workload", workload, "--size", size, "--seed", str(seed),
             "--dir", directory],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        lines: "queue.Queue[str]" = queue.Queue()
        threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()), daemon=True
        ).start()
        try:
            line = lines.get(timeout=READY_TIMEOUT)
        except queue.Empty:
            line = ""
        if not line:
            self.stop()
            raise RuntimeError(f"{workload} server did not become ready")
        self.setup_s = time.perf_counter() - started
        address = json.loads(line)
        self.host, self.port = address["host"], address["port"]

    def client(self) -> ConvoyClient:
        return ConvoyClient(self.host, self.port, timeout=60.0, retry=NO_RETRY)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Close stdin (the stop signal) and wait for a graceful exit."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Phase:
    """One load phase: per-request latency, lateness and backlog."""

    rate: float
    wall_s: float
    latencies: List[float]  # inf for a failed request
    late: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    requests: List = field(default_factory=list)
    samples: List = field(default_factory=list)  # (request, answer)
    failures: int = 0

    @property
    def count(self) -> int:
        return len(self.latencies)

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)

    def meets(self, limit_s: float, connections: int) -> bool:
        """p99 within the limit, and no backlog building up by the end
        (the typical backlog of the last quarter is that of the first)."""
        if not self.latencies or self.p(0.99) > limit_s:
            return False
        quarter = max(1, len(self.backlog) // 4)
        head = median(self.backlog[:quarter] or [0])
        tail = median(self.backlog[-quarter:] or [0])
        return tail <= head + 2 * connections


def _worker_loop(clients, job) -> None:
    threads = [
        threading.Thread(target=job, args=(client,), daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    clients, request_at: Callable, call: Callable, rate: float,
    seconds: float, rng: random.Random, sample_every: int = 0,
) -> Phase:
    """Poisson arrivals at ``rate``; each request is timed from when it
    was due, so a stall also charges the requests queued behind it."""
    dues = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due > seconds:
            break
        dues.append(due)
    n = len(dues)
    latencies, late, sent_at = [math.inf] * n, [0.0] * n, [0.0] * n
    requests, samples, errors = [None] * n, [], []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.01

    def job(client):
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            wait = start + dues[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            requests[i] = request = request_at(i)
            try:
                answer = call(client, request)
            except Exception as error:  # noqa: BLE001 — counted as failed
                errors.append(error)
                continue
            finally:
                sent_at[i] = sent - start
                late[i] = sent - start - dues[i]
            latencies[i] = time.perf_counter() - start - dues[i]
            if sample_every and i % sample_every == 0:
                samples.append((request, answer))

    _worker_loop(clients, job)
    wall = time.perf_counter() - start
    backlog = [bisect_right(dues, sent_at[i]) - i - 1 for i in range(n)]
    _report(errors)
    return Phase(rate, wall, latencies, late, backlog, requests, samples,
                 len(errors))


def closed_loop(clients, request_at: Callable, call: Callable,
                seconds: float) -> Phase:
    """Each connection sends its next request as soon as one returns."""
    latencies, errors = [], []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def job(client):
        while time.perf_counter() < deadline:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            sent = time.perf_counter()
            try:
                call(client, request_at(i))
            except Exception as error:  # noqa: BLE001 — counted as failed
                errors.append(error)
                latencies.append(math.inf)
                continue
            latencies.append(time.perf_counter() - sent)

    _worker_loop(clients, job)
    _report(errors)
    return Phase(0.0, time.perf_counter() - start, latencies,
                 failures=len(errors))


def _report(errors: List[Exception], limit: int = 3) -> None:
    for error in errors[:limit]:
        print(f"request failed: {type(error).__name__}: {error}",
              file=sys.stderr)


def max_rate(phases: List[Phase], limit_s: float, connections: int) -> float:
    """The highest fixed rate whose phase met the latency limit (0: none)."""
    return max(
        (p.rate for p in phases if p.meets(limit_s, connections)), default=0.0
    )
