"""Scoring-core microbenchmark: messages/sec for scoring alone.

Drives a :class:`~repro.score.core.ScoringCore` over a replayed message
stream exactly the way a shard server does — batch scoring first, then
PII extraction of only the messages over the threshold — without any
queueing, batching deadlines, or monitor state.  The result isolates
the per-message *scoring* cost the serving capacity limit is built on.

The JSON report is fully deterministic: throughput is simulated-time
arithmetic over the :class:`~repro.serve.batching.ServiceCostModel`
work ledger, never a wall clock, so the committed baseline
(``benchmarks/reports/BENCH_score.json``) is byte-diffable across
machines and the CI regression gate (:func:`compare_reports`) cannot
flake.  A regression here means the *work per message* grew — e.g. a
cache stopped hitting, an extraction started running twice, or a
message under the threshold was extracted — which is exactly what the
gate exists to catch.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.score.core import ScoreWork, ScoringCore
from repro.util.batching import iter_batches

if TYPE_CHECKING:  # the serve layer sits above the core; type-only import
    from repro.obs.recorder import RunObserver
    from repro.serve.batching import CostBreakdown, ServiceCostModel


@dataclasses.dataclass
class ScoreBenchResult:
    """Deterministic scoring-throughput measurement."""

    n_messages: int
    n_batches: int
    batch_size: int
    distinct_texts: int
    work: ScoreWork
    detections: int
    simulated_seconds: float
    breakdown: "CostBreakdown"
    cache_stats: dict[str, dict[str, int | float]]

    @property
    def messages_per_second(self) -> float:
        if self.simulated_seconds <= 0:
            return 0.0
        return self.n_messages / self.simulated_seconds

    @property
    def extractions_per_message(self) -> float:
        """Regex-bank runs per message — 1.0 means single extraction."""
        if not self.n_messages:
            return 0.0
        return self.work.extracted_messages / self.n_messages

    def as_dict(self) -> dict[str, object]:
        return {
            "n_messages": self.n_messages,
            "n_batches": self.n_batches,
            "batch_size": self.batch_size,
            "distinct_texts": self.distinct_texts,
            "detections": self.detections,
            "simulated_seconds": self.simulated_seconds,
            "messages_per_second": self.messages_per_second,
            "extractions_per_message": self.extractions_per_message,
            "busy_breakdown": self.breakdown.as_dict(),
            "work": self.work.as_dict(),
            "caches": self.cache_stats,
        }

    def populate_metrics(self, registry) -> None:
        """Project the bench run into an observability registry."""
        self.work.populate_metrics(registry)
        registry.counter(
            "score_bench_batches", help="batches scored by the bench"
        ).labels().inc(self.n_batches)
        registry.counter(
            "score_bench_detections", help="messages over either threshold"
        ).labels().inc(self.detections)
        self.breakdown.populate_metrics(registry)
        registry.gauge(
            "score_bench_distinct_texts", help="distinct texts in the stream"
        ).labels().set(self.distinct_texts)
        registry.gauge(
            "throughput_msgs_per_second",
            help="simulated scoring throughput (the obs-diff gate metric)",
        ).labels().set(self.messages_per_second)
        for cache, stats in self.cache_stats.items():
            family = registry.counter(
                "score_cache_lookups", help="core cache hits/misses"
            )
            family.labels(cache=cache, outcome="hit").inc(int(stats["hits"]))
            family.labels(cache=cache, outcome="miss").inc(int(stats["misses"]))


def run_score_bench(
    core: ScoringCore,
    messages: Iterable,
    batch_size: int = 64,
    cost: "ServiceCostModel | None" = None,
    threshold: float = 0.5,
    recorder: "RunObserver | None" = None,
) -> ScoreBenchResult:
    """Score ``messages`` through ``core`` and measure the work done.

    Mirrors a shard's hot path: each batch is vectorized and scored,
    then the messages over ``threshold`` on either score are extracted
    through the core's cache; the cost model converts the resulting
    work ledger into simulated seconds, broken down by component.  No
    monitor state is touched: this is scoring alone.  ``recorder`` opts
    into observability: one span per batch on the simulated clock (with
    the core's work ledger annotated), plus the labeled metrics
    snapshot.
    """
    # Runtime import: repro.serve imports the scoring core, so the
    # dependency must stay one-way at module-import time.
    from repro.serve.batching import CostBreakdown, ServiceCostModel

    if cost is None:
        cost = ServiceCostModel()
    total = ScoreWork()
    breakdown_totals = CostBreakdown()
    texts: set[str] = set()
    n_messages = 0
    n_batches = 0
    detections = 0
    simulated = 0.0
    bench_span = (
        recorder.tracer.span("score-bench", batch_size=batch_size)
        if recorder is not None else None
    )
    for batch in iter_batches(messages, batch_size):
        batch_span = (
            bench_span.child("batch", batch=n_batches, messages=len(batch))
            if bench_span is not None else None
        )
        scored = core.score_messages(batch, span=batch_span)
        detected = (scored.cth_scores > threshold) | (
            scored.dox_scores > threshold
        )
        for index in detected.nonzero()[0].tolist():
            scored.extraction(index)
        n_detections = int(detected.sum())
        breakdown = cost.breakdown(scored.work)
        if batch_span is not None:
            batch_span.close(simulated, simulated + breakdown.total_seconds)
            batch_span.annotate(
                detections=n_detections,
                extracted=scored.work.extracted_messages,
                extraction_cache_hits=scored.work.extraction_cache_hits,
            )
        simulated += breakdown.total_seconds
        breakdown_totals.add(breakdown)
        total.add(scored.work)
        texts.update(message.text for message in batch)
        n_messages += len(batch)
        n_batches += 1
        detections += n_detections
    if bench_span is not None:
        bench_span.close(0.0, simulated).annotate(
            messages=n_messages, batches=n_batches
        )
    result = ScoreBenchResult(
        n_messages=n_messages,
        n_batches=n_batches,
        batch_size=batch_size,
        distinct_texts=len(texts),
        work=total,
        detections=detections,
        simulated_seconds=simulated,
        breakdown=breakdown_totals,
        cache_stats=core.cache_stats(),
    )
    if recorder is not None:
        result.populate_metrics(recorder.metrics)
    return result


@dataclasses.dataclass(frozen=True)
class GateFailure:
    """One reason the regression gate rejected a report."""

    check: str
    detail: str


def compare_reports(
    current: dict,
    baseline: dict,
    max_regression: float = 0.02,
) -> list[GateFailure]:
    """Throughput-regression gate against a committed baseline report.

    Both reports are deterministic, so the tolerance only absorbs cost
    -model retuning, not machine noise.  Checks:

    * simulated ``messages_per_second`` has not dropped more than
      ``max_regression`` (fractional) below the baseline;
    * extraction still runs at most once per message end to end;
    * extraction runs for detections only: extracted texts plus
      extraction-cache hits equal the detections.
    """
    failures: list[GateFailure] = []
    current_mps = float(current.get("messages_per_second", 0.0))
    baseline_mps = float(baseline.get("messages_per_second", 0.0))
    floor = baseline_mps * (1.0 - max_regression)
    if current_mps < floor:
        failures.append(GateFailure(
            check="throughput",
            detail=(
                f"simulated throughput regressed: {current_mps:,.0f} msg/s "
                f"< floor {floor:,.0f} (baseline {baseline_mps:,.0f}, "
                f"tolerance {max_regression:.0%})"
            ),
        ))
    per_message = float(current.get("extractions_per_message", 0.0))
    if per_message > 1.0:
        failures.append(GateFailure(
            check="single-extraction",
            detail=(
                f"PII extraction ran {per_message:.3f}x per message; the "
                "scoring core guarantees at most once"
            ),
        ))
    work = current.get("work", {})
    lookups = int(work.get("extracted_messages", 0)) + int(
        work.get("extraction_cache_hits", 0)
    )
    detections = int(current.get("detections", 0))
    if lookups != detections:
        failures.append(GateFailure(
            check="detections-only",
            detail=(
                f"PII extraction looked up {lookups:,} texts for "
                f"{detections:,} detections; only detections are extracted"
            ),
        ))
    return failures
