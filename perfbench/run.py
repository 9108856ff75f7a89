"""Serving benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload mc_saturate --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``http_trickle``, ``mc_saturate``, ``exit_burst``
(omit it to run all three).  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` prints the per-layer metrics and the
per-layer-kind table.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A response
that fails a correctness check makes ``correct`` false and the exit code 1.
"""

import os
import sys

# one BLAS thread per process, so two serving workers fit two cores; set
# before numpy loads, and inherited by the serving and worker processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(1, os.path.join(ROOT, "src"))

# Start-up hook of the process backend's workers: they are spawned, so they
# import this file as ``__mp_main__`` and, in a traced run, install the same
# timing wrappers as the parent (the directory comes through the environment)
if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_TRACE_DIR"):
    from benchlib.tracing import install_in_worker

    install_in_worker(os.environ["PERFBENCH_TRACE_DIR"])


def _report(name: str, result: dict, trace: bool) -> dict:
    from benchlib import layers

    metrics = result["per_layer"] if trace else result["e2e"]
    units = layers.PER_LAYER if trace else E2E_UNITS
    for key, value in metrics.items():
        print(f"{name}  {key:<28} {value:>14.6f} {units[key]}")
    return {key: {"value": v, "unit": units[key]} for key, v in metrics.items()}


E2E_UNITS = {
    "latency_p50_ms": "ms",
    "goodput_rps": "1/s",
    "capacity_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2

    import json
    from pathlib import Path

    from benchlib import stamp, workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    print(json.dumps({"stamp": stamp.stamp(Path(ROOT), args.seed)}), flush=True)
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        _run_all(names, args, combined)
    finally:
        _reap_children()
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def _run_all(names: list, args, combined: dict) -> None:
    import asyncio

    from benchlib import layers, procstat, workloads

    trace = bool(args.trace)
    for name in names:
        w = workloads.WORKLOADS[name]
        steal0, total0 = procstat.host_steal_ticks()
        result = asyncio.run(workloads.run(w, args.seed, args.seconds, trace))
        steal1, total1 = procstat.host_steal_ticks()
        metrics = _report(name, result, trace)
        if trace:
            print(layers.format_table(name, w.model, result["table"]))
            for text, holds in layers.workload_checks(name, result["per_layer"]):
                print(f"{name}  workload check {'holds' if holds else 'FAILS'}: {text}")
            print(f"{name}  spans written to {result['spans_file']}")
        else:
            steps = ", ".join(f"{rate:.0f}" for rate in result["capacity_steps"])
            print(
                f"{name}  headline requests {result['headline_requests']}, "
                f"generator late p99 {result['late_ms_p99']:.3f} ms, "
                f"p90/p95/p99 {'/'.join(f'{v:.2f}' for v in result['tail_ms'])} ms "
                f"(windowed p99 {result['latency_p99_ms']:.2f} ms), "
                f"capacity steps [{steps}] req/s"
            )
        ratio = result["failed"] / result["attempted"]
        print(
            f"{name}  error_ratio {ratio:.6f} "
            f"({result['failed']} of {result['attempted']} attempted), "
            f"host cpu steal {100 * (steal1 - steal0) / max(total1 - total0, 1):.1f}%"
        )
        for problem in result["violations"]:
            print(f"{name}  VIOLATION {problem}")
        for failure in result["failures"]:
            print(f"{name}  failed request: {failure}")
        combined["correct"] &= not result["violations"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(names) == 1:
            combined["metrics"] = metrics
        else:
            combined["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})


def _reap_children() -> None:
    """Wait for every process this run started to end before exiting.

    Serving workers are joined by ``engine.stop()``; this catches any left
    by an error, and stops multiprocessing's resource tracker, which would
    otherwise outlive this process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
