"""Serving process of the HTTP workload: ``python -m benchlib.serve``.

Builds the model, starts a ``ServingEngine`` and a ``ServingServer`` on a
free loopback port and prints one JSON line with the port and the set-up
phase timings.  It serves until its stdin closes, then shuts down
gracefully and, when traced, writes its spans into ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path


async def serve(args) -> None:
    from benchlib import models, tracing

    from repro.serving import ServingConfig, ServingEngine
    from repro.serving.server import ServingServer

    tracer = None
    if args.trace_dir:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter()
    model = models.BUILDERS[args.model]()
    t1 = time.perf_counter()
    engine = ServingEngine(model, ServingConfig.from_dict(json.loads(args.config)))
    await engine.start()
    t2 = time.perf_counter()
    server = ServingServer(engine, host="127.0.0.1", port=0)
    await server.start()
    t3 = time.perf_counter()
    print(
        json.dumps(
            {
                "port": server.port,
                "build_s": t1 - t0,
                "pool_start_s": t2 - t1,
                "server_start_s": t3 - t2,
            }
        ),
        flush=True,
    )
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    await server.stop()
    await engine.stop()
    if tracer is not None:
        tracer.dump(Path(args.trace_dir) / "spans-server.json")


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m benchlib.serve")
    parser.add_argument("--model", required=True)
    parser.add_argument("--config", required=True, help="ServingConfig as JSON")
    parser.add_argument("--trace-dir", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
