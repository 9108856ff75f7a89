"""Outside-in span tracing: wrappers around each layer's entry points.

Nothing here edits the program.  :func:`install` replaces functions and
methods of the ``repro`` modules with timing wrappers (and returns an undo
callable); every wrapped call records one span ``(id, name, start, end,
parent, batch, value)`` in the :class:`Tracer`'s in-memory list, which is
written out once, at the end.

* ``parent`` is the enclosing wrapped call on the same thread, kept on a
  thread-local stack.  Spans that start a thread's work (an executor
  thread serving a batch, a worker process computing one) have no such
  parent; :func:`link` attaches them afterwards to the span of the same
  batch one level up (``workers.exec`` under ``workers.dispatch``, a
  worker process's ``workers.compute`` under ``workers.exec``).
* ``batch`` is the batch sequence number (the seed of the batch's
  ``ForwardContext``), inherited from the parent span when the call itself
  does not carry it.
* ``value`` is the FLOP count of a layer call, or the ``latency_s`` the
  serving engine stamped on a request.

Clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), which is
shared by every process of the host, so spans from worker processes line
up with the parent's.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

#: environment variable that makes a spawned worker process install the
#: wrappers and write its spans into the named directory when it exits
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: layer kind of each wrapped layer class (the ``nn.<kind>`` span names)
LAYER_KINDS = {
    "Conv2D": "conv2d",
    "Dense": "dense",
    "MaxPool2D": "pooling",
    "AvgPool2D": "pooling",
    "GlobalAvgPool2D": "pooling",
    "BatchNorm": "batchnorm",
    "ReLU": "activation",
    "Softmax": "activation",
    "Dropout": "dropout",
    "MCDropout": "dropout",
}

#: layer methods that run a forward computation (wrapped where defined)
_LAYER_METHODS = ("forward", "forward_folded", "folded_scaled_mask")


class Tracer:
    """Collects spans in memory; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._pid_base = os.getpid() << 32
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        batch_arg: int | None = None,
        flops: Callable | None = None,
    ) -> Callable:
        """Time a synchronous callable; ``batch_arg`` is the seq's position."""
        spans, ids, base, stack_of = self.spans, self._ids, self._pid_base, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent, inherited = stack[-1] if stack else (0, None)
            batch = args[batch_arg] if batch_arg is not None else inherited
            sid = base | next(ids)
            stack.append((sid, batch))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                value = flops(args) if flops is not None else None
                spans.append((sid, name, start, end, parent, batch, value))

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans as one JSON list (the end-of-run flush)."""
        path.write_text(json.dumps(self.spans))


def _patch(undo: list, owner, attr: str, replacement) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns a callable that undoes it."""
    from repro.core.flops import layer_flops
    from repro.inference import engine as inference_engine
    from repro.nn import layers
    from repro.serving import engine as serving_engine
    from repro.serving.workers import base, procpool, threads

    undo: list = []
    flops_per_row: dict[int, int] = {}

    def layer_flop_count(args) -> int:
        layer, x = args[0], args[1]
        per_row = flops_per_row.get(id(layer))
        if per_row is None:
            per_row = flops_per_row[id(layer)] = layer_flops(layer)
        return per_row * x.shape[0]

    patched: set = set()
    for cls_name, kind in LAYER_KINDS.items():
        for method in _LAYER_METHODS:
            # wrap each method once, on the class that defines it
            owner = next(
                (c for c in getattr(layers, cls_name).__mro__ if method in c.__dict__),
                layers.Layer,
            )
            if owner is layers.Layer or (owner, method) in patched:
                continue
            patched.add((owner, method))
            # the fused mask's FLOPs are charged to the Dense GEMM applying it
            count = layer_flop_count if method != "folded_scaled_mask" else None
            wrapped = tracer.wrap(owner.__dict__[method], f"nn.{kind}", flops=count)
            _patch(undo, owner, method, wrapped)

    engine_cls = inference_engine.InferenceEngine
    for method, name in (
        ("backbone_activations", "inference.backbone"),
        ("predict_mc", "inference.predict_mc"),
        ("early_exit_predict", "inference.early_exit"),
    ):
        _patch(undo, engine_cls, method, tracer.wrap(engine_cls.__dict__[method], name))
    _patch(
        undo,
        inference_engine,
        "folded_forward_range",
        tracer.wrap(inference_engine.folded_forward_range, "folding.suffix"),
    )

    compute = tracer.wrap(base.compute_batch_array, "workers.compute", batch_arg=1)
    assemble = tracer.wrap(base.assemble_results, "workers.assemble")
    for module in (base, threads, procpool):
        _patch(undo, module, "compute_batch_array", compute)
    for module in (threads, procpool):
        _patch(undo, module, "assemble_results", assemble)

    # executor-side entry of one batch: (self, replica, seq, payloads) for
    # threads, (self, seq, token, payloads, fault) for process handles
    thread_pool = threads.ThreadWorkerPool
    handle = procpool._WorkerHandle
    _patch(
        undo,
        thread_pool,
        "_serve",
        tracer.wrap(thread_pool.__dict__["_serve"], "workers.exec", batch_arg=2),
    )
    _patch(
        undo,
        handle,
        "execute",
        tracer.wrap(handle.__dict__["execute"], "workers.exec", batch_arg=1),
    )
    # a request's batch is found by identity: submit forwards a float64
    # array unchanged, so the payload list WorkerPool.run receives holds the
    # very object submit got; run notes id -> seq, submit pops it on return
    batch_of: dict[int, int] = {}
    for pool in (thread_pool, procpool.ProcessWorkerPool):
        run = _traced_run(tracer, pool.__dict__["run"], batch_of)
        _patch(undo, pool, "run", run)
    engine = serving_engine.ServingEngine
    submit = _traced_submit(tracer, engine.__dict__["submit"], batch_of)
    _patch(undo, engine, "submit", submit)

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall


def _traced_run(tracer: Tracer, run: Callable, batch_of: dict) -> Callable:
    """``WorkerPool.run`` wrapper: the ``workers.dispatch`` span of a batch."""
    spans, ids, base = tracer.spans, tracer._ids, tracer._pid_base
    clock = time.perf_counter

    @functools.wraps(run)
    async def wrapper(self, seq, payloads):
        for payload in payloads:
            batch_of[id(payload)] = seq
        sid = base | next(ids)
        start = clock()
        try:
            return await run(self, seq, payloads)
        finally:
            spans.append((sid, "workers.dispatch", start, clock(), 0, seq, None))

    return wrapper


def _traced_submit(tracer: Tracer, submit: Callable, batch_of: dict) -> Callable:
    """``ServingEngine.submit`` wrapper: (batch seq, ``latency_s``) per request."""
    spans, ids, base = tracer.spans, tracer._ids, tracer._pid_base
    clock = time.perf_counter

    @functools.wraps(submit)
    async def wrapper(self, x, deadline=None):
        x = np.asarray(x, dtype=np.float64)
        sid = base | next(ids)
        start = clock()
        try:
            result = await submit(self, x, deadline=deadline)
        finally:
            batch = batch_of.pop(id(x), None)
        spans.append(
            (sid, "engine.submit", start, clock(), 0, batch, result.latency_s)
        )
        return result

    return wrapper


def install_in_worker(directory: str) -> None:
    """Start-up hook of a spawned worker process: trace, flush at exit."""
    tracer = Tracer()
    install(tracer)
    out = Path(directory) / f"spans-{os.getpid()}.json"
    atexit.register(tracer.dump, out)


def load_spans(directory: Path) -> list[tuple]:
    """Every span file a traced process wrote into ``directory``."""
    spans: list[tuple] = []
    for path in sorted(directory.glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
#: cross-thread / cross-process parent of a root span, by batch seq
_BATCH_PARENT = {"workers.exec": "workers.dispatch", "workers.compute": "workers.exec"}


def link(spans: list[tuple]) -> list[tuple]:
    """Give batch-rooted spans their parent one level up (same batch seq)."""
    by_batch: dict[tuple[str, int], int] = {}
    for sid, name, _, _, _, batch, _ in spans:
        if batch is not None and name in _BATCH_PARENT.values():
            by_batch[(name, batch)] = sid
    linked = []
    for span in spans:
        sid, name, start, end, parent, batch, value = span
        if parent == 0 and name in _BATCH_PARENT and batch is not None:
            parent = by_batch.get((_BATCH_PARENT[name], batch), 0)
        linked.append((sid, name, start, end, parent, batch, value))
    return linked


def children_of(spans: list[tuple]) -> dict[int, list[tuple]]:
    kids: dict[int, list[tuple]] = {}
    for span in spans:
        if span[4]:
            kids.setdefault(span[4], []).append(span)
    return kids


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    kids = children_of(spans)
    result = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for _, _, c_start, c_end, _, _, _ in sorted(
            kids.get(sid, ()), key=lambda s: s[2]
        ):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def nesting_violations(spans: list[tuple], slack: float = 1e-6) -> list[str]:
    """Children that start before or end after their parent."""
    by_id = {s[0]: s for s in spans}
    bad = []
    for sid, name, start, end, parent, _, _ in spans:
        outer = by_id.get(parent)
        if outer is None:
            continue
        if start < outer[2] - slack or end > outer[3] + slack:
            bad.append(f"{name} {sid} outside {outer[1]} {parent}")
    return bad
