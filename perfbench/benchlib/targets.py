"""Serving targets a workload drives: an in-process engine or an HTTP server.

Both expose the same small surface: ``start()`` (build, start, first
served response; returns the set-up timings), ``probe(xs)`` (sequential
one-request batches), ``phase(...)`` (one open-loop phase), ``stats()``,
``cpu_s()``, ``peak_rss_mb()`` and ``stop()``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import driver, models, procstat, tracing

PERFBENCH_DIR = Path(__file__).resolve().parent.parent
REPO_DIR = PERFBENCH_DIR.parent


class InprocTarget:
    """A ``ServingEngine`` in this process (its workers, if any, as children)."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.engine = None
        self.trace_dir: Path | None = None
        self._uninstall = None

    async def start(self, first: np.ndarray) -> dict:
        from repro.serving import ServingConfig, ServingEngine

        if self.tracer is not None:
            self._uninstall = tracing.install(self.tracer)
            # spawned workers import the benchmark's __main__ as __mp_main__,
            # whose start-up hook installs the same wrappers from this variable
            self.trace_dir = Path(tempfile.mkdtemp(dir=scratch_dir()))
            os.environ[tracing.TRACE_DIR_ENV] = str(self.trace_dir)
        t0 = time.perf_counter()
        model = models.BUILDERS[self.workload.model]()
        t1 = time.perf_counter()
        config = ServingConfig.from_kwargs(**self.workload.config)
        self.engine = ServingEngine(model, config)
        await self.engine.start()
        t2 = time.perf_counter()
        result = await self.engine.submit(first)
        t3 = time.perf_counter()
        os.environ.pop(tracing.TRACE_DIR_ENV, None)
        return {
            "setup_s": t3 - t0,
            "build_s": t1 - t0,
            "pool_start_s": t2 - t1,
            "server_start_s": 0.0,
            "first": result,
        }

    async def probe(self, xs: np.ndarray) -> list:
        return [await self.engine.submit(x) for x in xs]

    async def phase(self, inputs, offsets) -> driver.Phase:
        return await driver.run_inproc(self.engine, inputs, offsets)

    async def stats(self) -> dict:
        return self.engine.stats().to_dict()

    def cpu_s(self) -> float:
        return procstat.self_cpu_s()

    def peak_rss_mb(self) -> float:
        return procstat.self_peak_rss_mb()

    async def stop(self) -> list[tuple]:
        """Stop serving; returns the spans of every traced process."""
        if self.engine is not None:
            await self.engine.stop()
        spans: list[tuple] = []
        if self._uninstall is not None:
            self._uninstall()
            spans = list(self.tracer.spans) + tracing.load_spans(self.trace_dir)
            shutil.rmtree(self.trace_dir)
        return spans


class HttpTarget:
    """The serving side in its own process behind ``ServingServer``."""

    def __init__(self, workload, traced: bool = False) -> None:
        self.workload = workload
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.client: driver.HttpClient | None = None
        self.trace_dir: Path | None = None
        self.port = 0

    async def start(self, first: np.ndarray) -> dict:
        from repro.serving import ServingConfig

        config = ServingConfig.from_kwargs(**self.workload.config).to_dict()
        cmd = [
            sys.executable,
            "-m",
            "benchlib.serve",
            "--model",
            self.workload.model,
            "--config",
            json.dumps(config),
        ]
        if self.traced:
            self.trace_dir = Path(tempfile.mkdtemp(dir=scratch_dir()))
            cmd += ["--trace-dir", str(self.trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(PERFBENCH_DIR), str(REPO_DIR / "src")])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        loop = asyncio.get_running_loop()
        line = await loop.run_in_executor(None, self.proc.stdout.readline)
        if not line:
            self.proc.wait()
            raise RuntimeError(f"serving process exited with {self.proc.returncode}")
        ready = json.loads(line)
        self.port = ready["port"]
        connections = min(2, os.cpu_count() or 1)
        self.client = driver.HttpClient("127.0.0.1", self.port, connections)
        await self.client.open()
        status, body = await self.client.post(self.encode(first))
        t1 = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"first request failed with HTTP {status}: {body!r}")
        return {
            "setup_s": t1 - t0,
            "build_s": ready["build_s"],
            "pool_start_s": ready["pool_start_s"],
            "server_start_s": ready["server_start_s"],
            "first": json.loads(body),
        }

    def encode(self, x: np.ndarray) -> bytes:
        return driver.encode_predict("127.0.0.1", self.port, x)

    async def probe(self, xs: np.ndarray) -> list:
        out = []
        for x in xs:
            status, body = await self.client.post(self.encode(x))
            out.append(json.loads(body) if status == 200 else None)
        return out

    async def phase(self, inputs, offsets) -> driver.Phase:
        """``inputs`` is the list of pre-encoded request bodies, one per arrival."""
        phase = await driver.run_http(self.client, inputs, offsets)
        phase.responses = [
            json.loads(body) if good else body
            for good, body in zip(phase.ok, phase.responses)
        ]
        return phase

    async def stats(self) -> dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        return json.loads(raw.split(b"\r\n\r\n", 1)[1])

    def cpu_s(self) -> float:
        return procstat.proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return procstat.proc_peak_rss_mb(self.proc.pid)

    async def stop(self) -> list[tuple]:
        """Close stdin so the server shuts down; kill it if it does not end."""
        if self.client is not None:
            await self.client.close()
        if self.proc is None:
            return []
        self.proc.stdin.close()
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.proc.wait, 60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not self.traced:
            return []
        spans = tracing.load_spans(self.trace_dir)
        shutil.rmtree(self.trace_dir)
        return spans


def scratch_dir() -> Path:
    """Where traced processes write their span files (inside the checkout)."""
    path = PERFBENCH_DIR / ".traces"
    path.mkdir(exist_ok=True)
    return path
