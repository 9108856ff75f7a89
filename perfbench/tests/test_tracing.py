"""Traced spans nest inside their parents and have non-negative self time."""

import asyncio

import numpy as np
from benchlib import models, tracing

from repro.nn.layers import Conv2D
from repro.serving import ServingConfig, ServingEngine


def test_self_time_subtracts_covered_child_time():
    spans = [
        (1, "outer", 0.0, 10.0, 0, None, None),
        (2, "a", 1.0, 4.0, 1, None, None),
        (3, "b", 3.0, 6.0, 1, None, None),  # overlaps a: union is 1..6
        (4, "c", 8.0, 9.0, 1, None, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10.0 - 5.0 - 1.0
    assert selfs[2] == selfs[3] == 3.0
    assert tracing.nesting_violations(spans) == []
    escaped = spans + [(5, "late", 9.5, 11.0, 1, None, None)]
    assert tracing.nesting_violations(escaped)


def test_batch_roots_link_to_their_dispatch():
    spans = [
        (1, "workers.dispatch", 0.0, 5.0, 0, 7, None),
        (2, "workers.exec", 1.0, 4.0, 0, 7, None),
        (3, "workers.compute", 1.5, 3.0, 0, 7, None),
        (4, "workers.exec", 6.0, 7.0, 0, 8, None),  # no dispatch seen: stays a root
    ]
    linked = {s[0]: s for s in tracing.link(spans)}
    assert linked[2][4] == 1 and linked[3][4] == 2 and linked[4][4] == 0


def _traced_session(config: ServingConfig, requests: int) -> list[tuple]:
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        xs = np.random.default_rng(0).standard_normal((requests, 1, 12, 12))

        async def serve():
            async with ServingEngine(models.demo_lenet(), config) as engine:
                await asyncio.gather(*(engine.submit(x) for x in xs))

        asyncio.run(serve())
    finally:
        uninstall()
    return tracing.link(tracer.spans)


def test_traced_serving_spans_nest_and_self_times_are_non_negative():
    spans = _traced_session(ServingConfig(num_samples=8, workers=2), requests=40)
    names = {s[1] for s in spans}
    for expected in (
        "engine.submit",
        "workers.dispatch",
        "workers.exec",
        "workers.compute",
        "workers.assemble",
        "inference.predict_mc",
        "inference.backbone",
        "folding.suffix",
        "nn.conv2d",
        "nn.dense",
        "nn.dropout",
    ):
        assert expected in names
    assert tracing.nesting_violations(spans) == []
    assert min(tracing.self_times(spans).values()) >= -1e-9
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if span[1] == "workers.compute":
            # every batch's compute hangs off its executor span and dispatch
            exec_span = by_id[span[4]]
            assert exec_span[1] == "workers.exec"
            assert by_id[exec_span[4]][1] == "workers.dispatch"
    # every request found its batch, and each batch carried its seq
    assert all(s[5] is not None for s in spans if s[1] == "engine.submit")


def test_uninstall_restores_the_program():
    original = Conv2D.__dict__["forward"]
    uninstall = tracing.install(tracing.Tracer())
    assert Conv2D.__dict__["forward"] is not original
    uninstall()
    assert Conv2D.__dict__["forward"] is original
