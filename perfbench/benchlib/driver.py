"""Open-loop load driver: requests fire on a schedule and are timed from when due.

A pacing thread sleeps until each arrival is due and hands it to the event
loop with ``call_soon_threadsafe``; the loop fires it at once.  Latency
runs from the *due* time, so a late generator, a busy event loop or a wait
for a free HTTP connection all count against the request, and
``late_s`` records how late each arrival was actually fired.  Nothing is
ever dropped: an arrival that finds every connection busy waits for one.

Two transports share the pacing: :func:`run_inproc` awaits
``ServingEngine.submit`` directly, :func:`run_http` sends pre-encoded
``POST /v1/predict`` requests over a fixed set of keep-alive connections.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Arrival offsets (s) of ``count`` Poisson arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def burst_offsets(rate: float, count: int, burst: int) -> np.ndarray:
    """Bursts of ``burst`` simultaneous arrivals every ``burst / rate`` seconds."""
    starts = np.arange(-(-count // burst)) * (burst / rate)
    return np.repeat(starts, burst)[:count]


@dataclass
class Phase:
    """Outcome of one open-loop phase; arrays are indexed by arrival."""

    due: np.ndarray
    late_s: np.ndarray
    latency_s: np.ndarray
    ok: np.ndarray
    responses: list = field(repr=False)

    @property
    def succeeded(self) -> int:
        return int(np.count_nonzero(self.ok))

    def goodput_rps(self) -> float:
        """Successful responses per second, first due time to last response."""
        done = ~np.isnan(self.latency_s)
        if not done.any():
            return 0.0
        span = float(np.max((self.due + self.latency_s)[done]) - self.due[0])
        return self.succeeded / span if span > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        lat = self.latency_s[self.ok]
        return float(np.percentile(lat, q) * 1e3) if lat.size else float("nan")


class _Pacer:
    """Pacing thread: calls ``fire(lo, hi)`` on the loop as arrivals fall due.

    ``[lo, hi)`` is one arrival, or every arrival of a burst (same due time).
    """

    def __init__(self, loop, due: np.ndarray, fire: Callable[[int, int], None]) -> None:
        self._loop, self._due, self._fire = loop, due, fire
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-pacer")

    def _run(self) -> None:
        due, fire, call = self._due, self._fire, self._loop.call_soon_threadsafe
        i, n = 0, len(due)
        while i < n and not self._stop.is_set():
            wait = due[i] - time.perf_counter()
            if wait > 0 and self._stop.wait(wait):
                break
            j = i + 1
            while j < n and due[j] <= due[i]:  # a burst fires in one hand-off
                j += 1
            call(fire, i, j)
            i = j

    def __enter__(self) -> "_Pacer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


async def _run_phase(
    offsets: np.ndarray, request: Callable[[int], Awaitable[tuple[bool, Any]]]
) -> Phase:
    """Fire ``request(i)`` at each offset; returns when every request is done."""
    loop = asyncio.get_running_loop()
    n = len(offsets)
    start = time.perf_counter() + 0.05
    due = start + offsets
    late = np.full(n, np.nan)
    latency = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    responses: list = [None] * n
    tasks: list[asyncio.Task] = []
    fired = asyncio.Event()

    async def one(i: int) -> None:
        try:
            good, payload = await request(i)
        except Exception as exc:  # counted as a failed request, never raised
            good, payload = False, exc
        latency[i] = time.perf_counter() - due[i]
        ok[i] = good
        responses[i] = payload

    def fire(lo: int, hi: int) -> None:
        now = time.perf_counter()
        for i in range(lo, hi):
            late[i] = now - due[i]
            tasks.append(loop.create_task(one(i)))
        if hi == n:
            fired.set()

    with _Pacer(loop, due, fire):
        await fired.wait()
    await asyncio.gather(*tasks)
    return Phase(due=due, late_s=late, latency_s=latency, ok=ok, responses=responses)


async def run_inproc(engine, inputs, offsets: np.ndarray) -> Phase:
    """Open-loop phase against an in-process ``ServingEngine``."""

    async def request(i: int):
        return True, await engine.submit(inputs[i])

    return await _run_phase(offsets, request)


class HttpClient:
    """A fixed pool of keep-alive connections to one ``ServingServer``."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host, self.port, self.connections = host, port, connections
        self._idle: asyncio.Queue | None = None
        self._all: list = []

    async def open(self) -> None:
        self._idle = asyncio.Queue()
        for _ in range(self.connections):
            conn = await asyncio.open_connection(self.host, self.port)
            self._all.append(conn)
            self._idle.put_nowait(conn)

    async def close(self) -> None:
        for _, writer in self._all:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        self._all.clear()

    async def post(self, request: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; (status, body) of the response."""
        reader, writer = conn = await self._idle.get()
        try:
            writer.write(request)
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            body = await reader.readexactly(length)
        finally:
            self._idle.put_nowait(conn)
        return status, body


def encode_predict(host: str, port: int, x: np.ndarray) -> bytes:
    """A complete ``POST /v1/predict`` request for one example."""
    import json

    body = json.dumps({"x": x.tolist()}).encode()
    head = (
        f"POST /v1/predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def run_http(
    client: HttpClient, requests: list[bytes], offsets: np.ndarray
) -> Phase:
    """Open-loop phase over HTTP; responses are the raw bodies (parsed later)."""

    async def request(i: int):
        status, body = await client.post(requests[i])
        return status == 200, body

    return await _run_phase(offsets, request)
