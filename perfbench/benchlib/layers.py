"""Per-layer metrics and the per-layer-kind table of a traced run."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import tracing

#: every per-layer metric with its unit, in report order
PER_LAYER = {
    "server.overhead_ms_p50": "ms",
    "batcher.wait_ms_p50": "ms",
    "batcher.wait_ms_p99": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.queue_peak": "count",
    "workers.dispatch_ms_p50": "ms",
    "workers.compute_ms_p50": "ms",
    "workers.assemble_us_p50": "us",
    "workers.transport_us_p50": "us",
    "workers.ring_batch_ratio": "ratio",
    "inference.backbone_ms_p50": "ms",
    "inference.heads_ms_p50": "ms",
    "inference.early_exit_ms_p50": "ms",
    "inference.cache_hit_ratio": "ratio",
    "inference.exit0_share": "ratio",
    "folding.suffix_ms_p50": "ms",
    "nn.conv2d.ms_per_req": "ms",
    "nn.dense.ms_per_req": "ms",
    "nn.pooling.ms_per_req": "ms",
    "nn.batchnorm.ms_per_req": "ms",
    "nn.activation.ms_per_req": "ms",
    "nn.dropout.ms_per_req": "ms",
    "nn.conv2d.gflops": "GFLOP/s",
    "nn.dense.gflops": "GFLOP/s",
    "setup.build_s": "s",
    "setup.pool_start_s": "s",
    "setup.server_start_s": "s",
    "driver.late_ms_p99": "ms",
    "trace.latency_p50_ms": "ms",
    "trace.latency_p99_ms": "ms",
    "trace.overhead_ms_p50": "ms",
}

KINDS = ("conv2d", "dense", "pooling", "batchnorm", "activation", "dropout")

#: ServingStats counters whose change over the traced phase is reported
STATS_COUNTERS = (
    "requests_completed",
    "num_batches",
    "cache_hits",
    "cache_misses",
    "transport_ring_batches",
    "transport_pipe_batches",
)


def _p(values, q: float, scale: float) -> float:
    return float(np.percentile(values, q) * scale) if len(values) else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _window(spans: list[tuple], start: float, end: float) -> list[tuple]:
    """Spans of the traced phase only (warm-up and set-up excluded)."""
    return [s for s in spans if s[2] >= start and s[3] <= end]


def per_layer_metrics(w, model, measured: dict, spans, setup: dict, untraced):
    """(metrics, table rows) from a traced phase's spans and stats deltas."""
    phase = measured["phase"]
    before, after = measured["before"], measured["after"]
    delta = {k: after[k] - before[k] for k in STATS_COUNTERS}
    exit_counts = zip(after["exit_counts"] or [], before["exit_counts"] or [])
    exits = [a - b for a, b in exit_counts]
    ok = phase.ok
    requests = max(int(np.count_nonzero(ok)), 1)

    end = float(np.nanmax(phase.due + phase.latency_s))
    spans = tracing.link(_window(spans, phase.due[0] - 0.1, end))
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def durations(name: str) -> dict:
        """Span durations by batch seq (the seq is None for per-call spans)."""
        return {s[0]: (s[5], s[3] - s[2]) for s in by_name[name]}

    def p50(name: str, scale: float) -> float:
        return _p([d for _, d in durations(name).values()], 50, scale)

    dispatch = {seq: d for seq, d in durations("workers.dispatch").values()}
    # the serving latency_s minus the dispatch span of the request's batch
    waits = [
        s[6] - dispatch[s[5]] for s in by_name["engine.submit"] if s[5] in dispatch
    ]
    transport = []
    if w.config.get("worker_backend") == "process":
        compute = dict(durations("workers.compute").values())
        assemble = dict(durations("workers.assemble").values())
        transport = [
            d - compute[seq] - assemble[seq]
            for seq, d in dispatch.items()
            if seq in compute and seq in assemble
        ]
    kids = tracing.children_of(spans)
    heads = [
        (s[3] - s[2])
        - sum(c[3] - c[2] for c in kids.get(s[0], ()) if c[1] == "inference.backbone")
        for s in by_name["inference.predict_mc"]
    ]
    overhead = []
    if w.http:  # client latency minus the latency_s the server stamped
        served = [r["latency_s"] for r, good in zip(phase.responses, ok) if good]
        overhead = phase.latency_s[ok] - np.asarray(served)

    table = kind_table(model, spans, requests)
    metrics = {
        "server.overhead_ms_p50": _p(overhead, 50, 1e3),
        "batcher.wait_ms_p50": _p(waits, 50, 1e3),
        "batcher.wait_ms_p99": _p(waits, 99, 1e3),
        "batcher.batch_size_mean": _ratio(
            delta["requests_completed"], delta["num_batches"]
        ),
        "batcher.queue_peak": float(after["queue_peak"]),
        "workers.dispatch_ms_p50": p50("workers.dispatch", 1e3),
        "workers.compute_ms_p50": p50("workers.compute", 1e3),
        "workers.assemble_us_p50": p50("workers.assemble", 1e6),
        "workers.transport_us_p50": _p(transport, 50, 1e6),
        "workers.ring_batch_ratio": _ratio(
            delta["transport_ring_batches"],
            delta["transport_ring_batches"] + delta["transport_pipe_batches"],
        ),
        "inference.backbone_ms_p50": p50("inference.backbone", 1e3),
        "inference.heads_ms_p50": _p(heads, 50, 1e3),
        "inference.early_exit_ms_p50": p50("inference.early_exit", 1e3),
        "inference.cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]
        ),
        "inference.exit0_share": _ratio(exits[0], sum(exits)) if exits else 0.0,
        "folding.suffix_ms_p50": p50("folding.suffix", 1e3),
    }
    for row in table:
        metrics[f"nn.{row['kind']}.ms_per_req"] = row["ms_per_req"]
    for row in table:
        if row["kind"] in ("conv2d", "dense"):
            metrics[f"nn.{row['kind']}.gflops"] = row["gflops"]
    traced_p50 = phase.percentile_ms(50)
    metrics.update(
        {
            "setup.build_s": setup["build_s"],
            "setup.pool_start_s": setup["pool_start_s"],
            "setup.server_start_s": setup["server_start_s"],
            "driver.late_ms_p99": _p(phase.late_s, 99, 1e3),
            "trace.latency_p50_ms": traced_p50,
            "trace.latency_p99_ms": phase.percentile_ms(99),
            "trace.overhead_ms_p50": traced_p50 - untraced.percentile_ms(50),
        }
    )
    return metrics, table


def kind_table(model, spans: list[tuple], requests: int) -> list[dict]:
    """Measured self time per layer kind next to FLOPs and modelled FPGA cycles.

    Model FLOPs and cycles are per example for one pass through every layer
    (backbone and all exit heads); run FLOPs count what the traced calls
    actually did per request (MC folding multiplies the heads, early exit
    skips layers).
    """
    from repro.core.flops import layer_flops
    from repro.hw.latency import LatencyModel, estimate_layer_cycles

    selfs = tracing.self_times(spans)
    run_self: dict[str, float] = defaultdict(float)
    run_flops: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[1].startswith("nn."):
            run_self[span[1][3:]] += selfs[span[0]]
            run_flops[span[1][3:]] += span[6] or 0
    flops: dict[str, int] = defaultdict(int)
    cycles: dict[str, int] = defaultdict(int)
    layers = list(model.backbone.layers)
    for head in model.exits:
        layers.extend(head.layers)
    for layer in layers:
        kind = tracing.LAYER_KINDS.get(type(layer).__name__)
        if kind is not None:
            flops[kind] += layer_flops(layer)
            cycles[kind] += estimate_layer_cycles(layer.describe()).total_cycles
    fpga = LatencyModel()
    return [
        {
            "kind": kind,
            "ms_per_req": run_self[kind] * 1e3 / requests,
            "model_flops_per_example": flops[kind],
            "run_flops_per_req": run_flops[kind] / requests,
            "gflops": _ratio(run_flops[kind], run_self[kind]) / 1e9,
            "fpga_cycles_per_example": cycles[kind],
            "fpga_ms_per_example": fpga.cycles_to_ms(cycles[kind]),
        }
        for kind in KINDS
    ]


def format_table(workload: str, model_name: str, rows: list[dict]) -> str:
    from repro.hw.latency import LatencyModel

    lines = [
        f"per-layer-kind table: {workload} ({model_name}); model FLOPs and FPGA "
        f"cycles (hw.latency, reuse 1, {LatencyModel().clock_mhz:g} MHz) "
        "are per example, one pass",
        f"{'kind':<11}{'ms/req':>9}{'FLOP/ex':>12}{'FLOP/req':>12}"
        f"{'GFLOP/s':>9}{'cycles/ex':>11}{'fpga ms':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['kind']:<11}{r['ms_per_req']:>9.4f}{r['model_flops_per_example']:>12d}"
            f"{r['run_flops_per_req']:>12.0f}{r['gflops']:>9.3f}"
            f"{r['fpga_cycles_per_example']:>11d}{r['fpga_ms_per_example']:>9.4f}"
        )
    return "\n".join(lines)


#: what each workload was chosen to exercise, checked on its traced run
EXPECTATIONS = {
    "http_trickle": (
        ("requests arrive alone: batch_size_mean < 1.5",
         lambda m: m["batcher.batch_size_mean"] < 1.5),
        ("the activation cache hits", lambda m: m["inference.cache_hit_ratio"] > 0),
        (
            "server + batcher wait + dispatch explain latency_p50 within 10%",
            lambda m: abs(
                m["server.overhead_ms_p50"]
                + m["batcher.wait_ms_p50"]
                + m["workers.dispatch_ms_p50"]
                - m["trace.latency_p50_ms"]
            )
            <= 0.1 * m["trace.latency_p50_ms"],
        ),
    ),
    "mc_saturate": (
        ("no cache hits", lambda m: m["inference.cache_hit_ratio"] == 0),
        ("compute is > 90% of dispatch",
         lambda m: m["workers.compute_ms_p50"] > 0.9 * m["workers.dispatch_ms_p50"]),
    ),
    "exit_burst": (
        ("no cache hits", lambda m: m["inference.cache_hit_ratio"] == 0),
        ("batches travel the shm ring", lambda m: m["workers.ring_batch_ratio"] > 0.9),
        ("some but not all leave at exit 0",
         lambda m: 0 < m["inference.exit0_share"] < 1),
    ),
}


def workload_checks(name: str, metrics: dict) -> list[tuple[str, bool]]:
    """(description, holds) for each expectation of the workload."""
    return [(text, bool(test(metrics))) for text, test in EXPECTATIONS.get(name, ())]
