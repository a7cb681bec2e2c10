"""Measurement loops: set-up, timed calls, output checks, metrics.

:func:`measure` is the untraced run behind the end-to-end metrics;
:func:`measure_traced` is the separate traced run behind the per-layer
metrics.  Both count every operation attempted and every one that
failed; a check that does not match fails every operation of its call.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time
import traceback

import numpy as np

from perfbench.host import HostSpeed, PeakRss
from perfbench.trace import ProbeStats, Tracer
from perfbench.workloads import COMPONENTS, STAGE_GROUPS

#: back-to-back set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: fewest (untraced, traced, recorded) call cycles per traced run
MIN_CYCLES = 2

EXTRACT = "extraction:extract_targets"
HASH = "tokenize:hash_text"
CACHED = "tokenize:TokenHashCache.cached"
TRANSFORM = "features:HashingVectorizer.transform_hashes"
PREDICT = "models:LogisticRegressionClassifier.predict_proba"
FIT = "models:LogisticRegressionClassifier.fit"
SCORE = "score:ScoringCore.score_messages"
CODE = "taxonomy:ExpertCoder.code_text_cached"
PROCESS = "monitor:HarassmentMonitor.process_scored"
MIGRATE = (
    "monitor:HarassmentMonitor.snapshot_target_state",
    "monitor:HarassmentMonitor.extract_target_state",
    "monitor:HarassmentMonitor.restore_target_state",
)
OWNER = "ring:HashRing.owner"
ROUTING_KEY = "runtime:routing_key"
PUBLISH = "feeds:AlertFeed.publish"
BUILD = "corpus:CorpusBuilder.build"
SAVE = "engine:ArtifactStore.save"
VECTORIZE = "pipeline:VectorizedCorpus.__init__"
THRESHOLD = "pipeline:select_threshold"


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed over one run."""

    attempted: int = 0
    failed: int = 0


@dataclasses.dataclass(frozen=True)
class Sample:
    """One timed call that returned and passed or failed its check.

    ``wall_s`` is the call's normalised time (see
    :class:`~perfbench.host.HostSpeed`), ``raw_wall_s`` its plain wall
    time; ``facts`` come from its output check.
    """

    wall_s: float
    raw_wall_s: float
    slowdown: float
    peak_rss_mb: float
    facts: dict[str, float]


def timed_sample(workload, inputs, tally: Tally, *, tracer=None, record=False):
    """Time one call on fresh runtime objects, then check its output.

    ``record`` hands the call a fresh ``RunObserver``.  Returns ``None``
    when the call or its check raised.
    """
    prepared = workload.prepare(inputs)
    observer = workload.observer() if record else None
    gc.collect()
    try:
        with PeakRss() as rss:
            if tracer is not None:
                tracer.install()
            try:
                with HostSpeed() as speed:
                    output = workload.call(inputs, prepared, observer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        attempted, failed, facts = workload.check(inputs, prepared, output)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        operations = workload.operations(inputs)
        tally.attempted += operations
        tally.failed += operations
        return None
    tally.attempted += attempted
    tally.failed += failed
    return Sample(
        speed.normalised_s, speed.wall_s, speed.slowdown, rss.mb, facts
    )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float):
    """Untraced run: ``(end-to-end metrics, tally)``.

    Makes :data:`SETUP_REPEATS` set-ups, then timed samples over the
    last one's inputs for ``seconds`` (at least one sample).  Every
    metric is a median; every time is normalised to the reference core.
    """
    setup_s = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        with HostSpeed() as speed:
            inputs = workload.setup(seed)
        setup_s.append(speed.normalised_s)
    tally = Tally()
    samples: list[Sample] = []
    began = time.perf_counter()
    while True:
        _keep(samples, timed_sample(workload, inputs, tally))
        if time.perf_counter() - began >= seconds:
            break
    metrics = {
        "wall_s": (_median(s.wall_s for s in samples), "s"),
        "msgs_per_s": (
            _median(s.facts["messages"] / s.wall_s for s in samples), "1/s"
        ),
        "peak_rss_mb": (_median(s.peak_rss_mb for s in samples), "MB"),
        "setup_s": (_median(setup_s), "s"),
    }
    return metrics, tally


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: ``(per-layer metrics, tally)``.

    Sets up once under the tracer (for the set-up layer times), then
    repeats cycles of one untraced call, one traced call and — where the
    runtime takes a recorder — one call with a ``RunObserver``, for
    ``seconds`` and at least :data:`MIN_CYCLES` cycles.
    """
    tracer = Tracer()
    with tracer:
        inputs = workload.setup(seed)
    setup = tracer.stats()
    tracer.reset()
    tally = Tally()
    plain: list[Sample] = []
    traced: list[Sample] = []
    recorded: list[Sample] = []
    records = workload.observer() is not None
    cycles = 0
    began = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - began < seconds:
        cycles += 1
        _keep(plain, timed_sample(workload, inputs, tally))
        _keep(traced, timed_sample(workload, inputs, tally, tracer=tracer))
        if records:
            _keep(recorded, timed_sample(workload, inputs, tally, record=True))
    return layer_metrics(setup, tracer.stats(), plain, traced, recorded), tally


def _keep(samples: list[Sample], sample: Sample | None) -> None:
    if sample is not None:
        samples.append(sample)


def layer_metrics(
    setup: dict[str, ProbeStats],
    stats: dict[str, ProbeStats],
    plain: list[Sample],
    traced: list[Sample],
    recorded: list[Sample],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; times and counts are per traced call.

    A layer's ``busy_s`` is the self time of its calls; a metric named
    after one call (``pipeline.vectorize_s``) is that call's whole time.
    Layer times are plain wall time, not normalised; ``bench.host_slowdown``
    is the factor between the two.
    """
    n = max(len(traced), 1)

    def busy(*keys: str) -> float:
        return sum(stats[key].self_s for key in keys) / n

    def spent(key: str) -> float:
        return stats[key].total_s / n

    def layer(name: str) -> float:
        return sum(
            s.self_s for key, s in stats.items() if key.split(":")[0] == name
        ) / n

    def calls(key: str) -> float:
        return stats[key].calls / n

    def counter(key: str, name: str) -> float:
        return stats[key].counters.get(name, 0.0)

    def ms(key: str, percentile: float) -> float:
        durations = stats[key].durations
        if not durations:
            return 0.0
        return float(np.percentile(durations, percentile)) * 1e3

    def fact(name: str) -> float:
        return _median(s.facts[name] for s in plain if name in s.facts)

    plain_wall = _median(s.wall_s for s in plain)
    metrics: dict[str, tuple[float, str]] = {
        "extraction.calls": (calls(EXTRACT), "count"),
        "extraction.busy_s": (layer("extraction"), "s"),
        "extraction.us_per_call": (
            _ratio(stats[EXTRACT].self_s, stats[EXTRACT].calls) * 1e6, "us"
        ),
        "tokenize.calls": (calls(HASH), "count"),
        "tokenize.busy_s": (layer("tokenize"), "s"),
        "tokenize.hit_ratio": (
            _ratio(counter(CACHED, "hits"), stats[CACHED].calls), "ratio"
        ),
        "features.calls": (calls(TRANSFORM), "count"),
        "features.rows": (counter(TRANSFORM, "rows") / n, "count"),
        "features.busy_s": (layer("features"), "s"),
        "models.predict_busy_s": (busy(PREDICT), "s"),
        "models.fit_busy_s": (busy(FIT), "s"),
        "models.setup_fit_busy_s": (setup[FIT].self_s, "s"),
        "score.batches": (calls(SCORE), "count"),
        "score.batch_ms.p50": (ms(SCORE, 50), "ms"),
        "score.batch_ms.p99": (ms(SCORE, 99), "ms"),
        "score.extract_hit_ratio": (fact("extract_hit_ratio"), "ratio"),
        "taxonomy.calls": (calls(CODE), "count"),
        "taxonomy.busy_s": (layer("taxonomy"), "s"),
        "taxonomy.hit_ratio": (
            _ratio(counter(CODE, "hits"), stats[CODE].calls), "ratio"
        ),
        "monitor.calls": (calls(PROCESS), "count"),
        "monitor.busy_s": (busy(PROCESS), "s"),
        "monitor.alerts": (counter(PROCESS, "alerts") / n, "count"),
        "monitor.batch_ms.p50": (ms(PROCESS, 50), "ms"),
        "monitor.batch_ms.p99": (ms(PROCESS, 99), "ms"),
        "monitor.migrate_busy_s": (busy(*MIGRATE), "s"),
        "ring.owner_calls": (calls(OWNER), "count"),
        "ring.busy_s": (layer("ring"), "s"),
        "queueing.busy_s": (layer("queueing"), "s"),
        "batching.busy_s": (layer("batching"), "s"),
        "runtime.self_s": (layer("runtime"), "s"),
        "runtime.routing_key_calls": (calls(ROUTING_KEY), "count"),
        "admission.busy_s": (layer("admission"), "s"),
        "admission.admit_ratio": (fact("admit_ratio"), "ratio"),
        "feeds.publish_calls": (calls(PUBLISH), "count"),
        "feeds.busy_s": (layer("feeds"), "s"),
        "corpus.busy_s": (layer("corpus"), "s"),
        "corpus.setup_busy_s": (setup[BUILD].self_s, "s"),
    }
    for group in STAGE_GROUPS:
        metrics[f"engine.stage_s.{group}"] = (fact(f"stage_s.{group}"), "s")
    metrics.update({
        "engine.store_save_s": (spent(SAVE), "s"),
        "engine.store_bytes": (fact("store_bytes"), "bytes"),
        "pipeline.vectorize_s": (spent(VECTORIZE), "s"),
        "pipeline.threshold_s": (spent(THRESHOLD), "s"),
        "obs.recorder_overhead_frac": (
            _overhead(recorded, plain_wall), "frac"
        ),
        "bench.trace_overhead_frac": (_overhead(traced, plain_wall), "frac"),
        "bench.self_sum_frac": (
            _ratio(
                sum(s.self_s for s in stats.values()),
                sum(s.raw_wall_s for s in traced),
            ),
            "frac",
        ),
        "bench.raw_wall_s": (_median(s.raw_wall_s for s in plain), "s"),
        "bench.host_slowdown": (_median(s.slowdown for s in plain), "ratio"),
    })
    # The cost model's simulated component shares next to the measured
    # wall shares of the layers that do each component's work.
    simulated = {c: fact(f"sim.{c}") for c in COMPONENTS}
    measured = {
        "tokenize": layer("tokenize"),
        "score": layer("features") + busy(PREDICT) + layer("score"),
        "extract": layer("extraction"),
        "state": layer("monitor") + layer("taxonomy"),
    }
    sim_total = sum(simulated.values())
    wall_total = sum(measured.values()) if sim_total else 0.0
    for component in COMPONENTS:
        metrics[f"costmodel.sim_share.{component}"] = (
            _ratio(simulated[component], sim_total), "frac"
        )
        metrics[f"costmodel.wall_share.{component}"] = (
            _ratio(measured[component], wall_total), "frac"
        )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _overhead(samples: list[Sample], plain_wall: float) -> float:
    """Median wall of ``samples`` over the untraced median, minus one."""
    if not samples or not plain_wall:
        return 0.0
    return _median(s.wall_s for s in samples) / plain_wall - 1.0
