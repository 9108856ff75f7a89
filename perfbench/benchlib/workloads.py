"""The three serving workloads and one benchmark run over each.

A run (``run(workload, seed, seconds, trace)``) is:

1. set-up, at least ``SETUPS`` times and for at least ``SETUP_MIN_S``:
   build the model, start serving, wait for the first served response;
   ``setup_s`` is the median, only the last instance stays up;
2. the correctness probe: ``PROBE`` sequential requests, so batch seqs
   are known, each compared bit for bit with a direct engine call;
3. a warm-up phase at the headline rate, off the clock;
4. untraced (``trace=0``): the headline phase, then saturation steps for
   the capacity in the time left.  Traced (``trace=1``): the headline
   phase untraced, then again on a fresh traced instance, for the
   per-layer metrics and the tracing overhead.

Every response of every phase is validated after the phase ends.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import check, driver, layers, models, tracing
from .targets import HttpTarget, InprocTarget, scratch_dir

SETUPS = 5
#: set-ups go on until this much time is spent (at most ``SETUPS_MAX``), so
#: a set-up of tens of milliseconds gets a median over many
SETUP_MIN_S = 1.0
SETUPS_MAX = 25
PROBE = 4
WARMUP_S = 1.0
#: fewest requests in any timed phase: p99 then has 10 samples beyond it
MIN_REQUESTS = 1000
#: a capacity step lasts about this long at the previous step's rate
CAPACITY_STEP_S = 1.0
#: a capacity step's rate leaves out this share of its completions at each
#: end: the ramp-up while its requests are handed in, and the drain
CAPACITY_TRIM = 0.2
#: Zipf exponent of the pooled inputs: rank k is drawn with weight 1/k
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    #: ``ServingConfig.from_kwargs`` arguments
    config: dict
    http: bool
    headline_rps: float
    #: share of ``--seconds`` spent on the headline phase (rest: capacity)
    headline_share: float
    burst: int = 1
    #: 0 = every input unique; else inputs drawn Zipf-skewed from this pool
    input_pool: int = 0

    @property
    def num_samples(self) -> int | None:
        return self.config.get("num_samples")

    @property
    def threshold(self) -> float | None:
        return self.config.get("early_exit_threshold")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="http_trickle",
            model="demo_lenet",
            config={"num_samples": 8, "workers": 1, "worker_backend": "thread"},
            http=True,
            headline_rps=50.0,
            headline_share=5 / 9,
            input_pool=64,
        ),
        Workload(
            name="mc_saturate",
            model="vgg11_quarter",
            config={"num_samples": 10, "workers": 2, "worker_backend": "thread"},
            http=False,
            # ~22% of the ~690 req/s saturated capacity of a 2-vCPU VM:
            # batches stay small, so p50 is batch compute, not queueing
            # (at 250 req/s its run-to-run spread was twice as wide)
            headline_rps=150.0,
            headline_share=2 / 3,
        ),
        Workload(
            name="exit_burst",
            model="demo_lenet",
            config={
                "early_exit_threshold": 0.6,
                "workers": 2,
                "worker_backend": "process",
                "worker_transport": "ring",
            },
            http=False,
            headline_rps=2000.0,
            headline_share=1 / 3,
            # regular bursts: Poisson-spaced ones made p99 a property of the
            # seed's worst burst cluster rather than of the program
            burst=64,
        ),
    )
}


class Unique:
    """``count`` distinct examples, made on access from a small seeded block.

    Example ``i`` is ``block[i % K] + (i // K) * 1e-3``: every request's
    bytes differ (so no cache can hit), while the memory held is one
    ``K``-row block rather than one array per request, which would
    otherwise dominate the in-process workloads' peak RSS.
    """

    BLOCK = 256

    def __init__(self, rng: np.random.Generator, shape: tuple, count: int) -> None:
        self.block = rng.standard_normal((min(count, self.BLOCK),) + shape)
        self.count = count

    def __getitem__(self, i: int) -> np.ndarray:
        lap, row = divmod(i, len(self.block))
        return self.block[row] + lap * 1e-3 if lap else self.block[row]

    def __iter__(self):
        return (self[i] for i in range(self.count))


class Inputs:
    """Seeded request inputs: a Zipf-skewed pool or fresh unique examples."""

    def __init__(self, workload: Workload, shape: tuple, seed: int) -> None:
        self.w = workload
        self.shape = shape
        self.rng = np.random.default_rng(seed)
        if workload.input_pool:
            self.pool = self.rng.standard_normal((workload.input_pool,) + shape)
            ranks = np.arange(1, workload.input_pool + 1, dtype=np.float64)
            weights = ranks**-ZIPF_EXPONENT
            self.zipf = weights / weights.sum()

    def examples(self, count: int):
        """``count`` examples: pool entries, or distinct ones (:class:`Unique`)."""
        if self.w.input_pool:
            picks = self.rng.choice(self.w.input_pool, size=count, p=self.zipf)
            return self.pool[picks]
        return Unique(self.rng, self.shape, count)

    def offsets(self, rate: float, count: int) -> np.ndarray:
        if self.w.burst > 1:
            return driver.burst_offsets(rate, count, self.w.burst)
        return driver.poisson_offsets(self.rng, rate, count)


class Session:
    """One serving instance plus the bookkeeping of a benchmark run."""

    def __init__(self, workload: Workload, twin, seed: int) -> None:
        self.w = workload
        #: an identically built model: the probe's reference and the source
        #: of the model facts the response checks need
        self.twin = twin
        self.inputs = Inputs(workload, tuple(twin.input_shape), seed)
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.failures: list[str] = []
        self.target = None

    def new_target(self, traced: bool):
        if self.w.http:
            return HttpTarget(self.w, traced=traced)
        return InprocTarget(self.w, tracing.Tracer() if traced else None)

    async def start(self, traced: bool = False) -> dict:
        self.target = self.new_target(traced)
        timings = await self.target.start(self.inputs.examples(1)[0])
        self.record([timings.pop("first")], [True])
        return timings

    async def stop(self) -> list[tuple]:
        """Stop the serving instance; returns the spans of a traced one."""
        target, self.target = self.target, None
        return await target.stop()

    def record(self, responses, ok) -> None:
        """Count and validate responses; a violation counts as a failure."""
        for response, good in zip(responses, ok):
            self.attempted += 1
            if not good:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(repr(response)[:200])
                continue
            twin = self.twin
            problem = check.validate(
                response, twin.num_classes, twin.num_exits, self.w.num_samples
            )
            if problem is not None:
                self.failed += 1
                if len(self.violations) < 5:
                    self.violations.append(problem)

    async def probe(self) -> None:
        """Sequential requests right after start: batch seqs 1..PROBE."""
        xs = self.inputs.examples(PROBE)
        responses = await self.target.probe(xs)
        self.record(responses, [r is not None for r in responses])
        for seq, (x, response) in enumerate(zip(xs, responses), start=1):
            expected = check.direct_digest(
                self.twin, x, seq, self.w.num_samples, self.w.threshold
            )
            if response is None or check.response_digest(response) != expected:
                self.failed += 1
                self.violations.append(f"probe seq {seq} differs from a direct call")

    async def phase(self, rate: float, count: int) -> driver.Phase:
        """``count`` requests at ``rate``; every one due at once if ``rate`` is inf."""
        examples = self.inputs.examples(count)
        if self.w.http:
            examples = [self.target.encode(x) for x in examples]
        if math.isinf(rate):
            offsets = np.zeros(count)
        else:
            offsets = self.inputs.offsets(rate, count)
        phase = await self.target.phase(examples, offsets)
        self.record(phase.responses, phase.ok)
        return phase

    async def measured_phase(self, rate: float, count: int) -> dict:
        """A phase plus the serving side's CPU time and stats deltas."""
        before = await self.target.stats()
        cpu0 = self.target.cpu_s()
        phase = await self.phase(rate, count)
        cpu = self.target.cpu_s() - cpu0
        after = await self.target.stats()
        return {"phase": phase, "cpu_s": cpu, "before": before, "after": after}


def windowed_ms(phase: driver.Phase, q: float) -> float:
    """Latency percentile ``q`` (ms): its median over ``MIN_REQUESTS`` windows.

    Consecutive windows of ``MIN_REQUESTS`` give each p99 ten samples beyond
    it; the median over windows keeps one stalled stretch of a long phase
    from setting the figure.
    """
    lat = phase.latency_s[phase.ok]
    windows = max(len(lat) // MIN_REQUESTS, 1)
    chunks = np.array_split(lat, windows)
    return float(statistics.median(np.percentile(c, q) for c in chunks) * 1e3)


def saturated_rps(phase: driver.Phase) -> float:
    """Completions per second over the middle of a phase's completions."""
    done = np.sort(phase.due + phase.latency_s)
    lo = int(len(done) * CAPACITY_TRIM)
    hi = len(done) - 1 - lo
    return (hi - lo) / (done[hi] - done[lo])


async def capacity(session: Session, budget_s: float) -> dict:
    """Completions per second with the serving side saturated.

    Each step hands in all of its requests at once: the submission queue's
    backpressure parks those the serving side cannot take yet, so it works
    flat out until the step drains.  A step's rate is its
    :func:`saturated_rps`; the first step is sized from the headline rate,
    each later one to last ``CAPACITY_STEP_S`` at the previous step's rate.
    The result is the median over the steps that fit in the budget.

    This measures what the serving side sustains rather than searching for
    the rate at which a p99 limit breaks: near the knee, p99 swings with
    every host stall, and such a search landed up to 40% apart from one
    run to the next on a 2-vCPU VM.
    """
    deadline = time.perf_counter() + budget_s
    count = max(MIN_REQUESTS, round(2 * session.w.headline_rps * CAPACITY_STEP_S))
    rates: list[float] = []
    while True:
        rates.append(saturated_rps(await session.phase(math.inf, count)))
        count = max(MIN_REQUESTS, round(rates[-1] * CAPACITY_STEP_S))
        if time.perf_counter() + count / rates[-1] > deadline:
            break
    return {"capacity_rps": statistics.median(rates), "steps": rates}


def headline_count(w: Workload, seconds: float) -> int:
    count = max(MIN_REQUESTS, round(w.headline_rps * seconds * w.headline_share))
    return -(-count // w.burst) * w.burst


async def _setups(session: Session) -> dict:
    """Repeated start-ups; medians of each timing; the last one stays up."""
    runs = []
    t0 = time.perf_counter()
    while True:
        runs.append(await session.start())
        spent = time.perf_counter() - t0
        if len(runs) >= SETUPS_MAX or (len(runs) >= SETUPS and spent >= SETUP_MIN_S):
            break
        await session.stop()
        # free each stopped instance before the next, or the garbage of
        # repeated set-ups would raise the peak RSS the run reports
        gc.collect()
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


async def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns metrics plus counts and any violations."""
    session = Session(w, models.BUILDERS[w.model](), seed)
    try:
        return await _measure(session, seed, seconds, trace)
    finally:
        # a run that raised leaves its instance up: stop it and its processes
        if session.target is not None:
            await session.stop()


async def _measure(session: Session, seed: int, seconds: float, trace: bool) -> dict:
    w, twin = session.w, session.twin
    setup = await _setups(session)
    await session.probe()
    warmup = max(w.burst, round(w.headline_rps * WARMUP_S))
    await session.phase(w.headline_rps, warmup)
    count = headline_count(w, seconds)
    out: dict = {"setup": setup}
    if not trace:
        t0 = time.perf_counter()
        measured = await session.measured_phase(w.headline_rps, count)
        headline = measured["phase"]
        # read before the capacity steps, whose backlog forms the largest
        # batches of the run
        peak_rss_mb = session.target.peak_rss_mb()
        budget = seconds - (time.perf_counter() - t0)
        saturated = await capacity(session, budget)
        await session.stop()
        out["e2e"] = {
            "latency_p50_ms": windowed_ms(headline, 50),
            "goodput_rps": headline.goodput_rps(),
            "capacity_rps": saturated["capacity_rps"],
            "cpu_ms_per_req": measured["cpu_s"] * 1e3 / max(headline.succeeded, 1),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        out["capacity_steps"] = saturated["steps"]
        out["headline_requests"] = len(headline.ok)
        out["late_ms_p99"] = float(np.percentile(headline.late_s, 99) * 1e3)
        out["tail_ms"] = [headline.percentile_ms(q) for q in (90, 95, 99)]
        out["latency_p99_ms"] = windowed_ms(headline, 99)
    else:
        # the same rate and count twice: untraced on this instance, then
        # traced on a fresh one; the p50 difference is the tracing overhead
        half = max(w.burst, round(w.headline_rps * seconds / 3))
        half = -(-half // w.burst) * w.burst
        untraced = (await session.measured_phase(w.headline_rps, half))["phase"]
        await session.stop()
        await session.start(traced=True)
        await session.phase(w.headline_rps, warmup)
        measured = await session.measured_phase(w.headline_rps, half)
        spans = await session.stop()
        out["per_layer"], out["table"] = layers.per_layer_metrics(
            w, twin, measured, spans, setup, untraced
        )
        path = scratch_dir() / f"{w.name}-seed{seed}-spans.json"
        path.write_text(json.dumps(tracing.link(spans)))
        out["spans_file"] = str(path.relative_to(scratch_dir().parent.parent))
    out["attempted"] = session.attempted
    out["failed"] = session.failed
    out["violations"] = session.violations
    out["failures"] = session.failures
    return out
