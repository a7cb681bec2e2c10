"""Serving telemetry: histograms, per-shard counters, JSON snapshots.

Everything here is simulated-time arithmetic over values the runtime
hands in — no clock reads, no randomness — so two runs of the same
configuration produce byte-identical snapshots (the serve-bench JSON
report is diffable across machines, like ``repro cache ls``).

Aggregation follows the ``MonitorStats`` idiom: every dataclass knows
how to ``merge()`` with a peer and render itself ``as_dict()``, so the
fleet-wide view is a fold over shards without reaching into fields.

The histogram type itself lives in :mod:`repro.obs.metrics` (it is the
registry's histogram series too) and is re-exported here for
compatibility; ``populate_metrics`` projects every per-shard ledger
into the unified labeled registry ``repro obs`` reads, while
``as_dict()`` keeps the committed ``BENCH_serve.json`` schema stable.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    merge_histograms,
)
from repro.score.core import ScoreWork
from repro.service.monitor import MonitorStats
from repro.serve.batching import CostBreakdown
from repro.serve.queueing import QueueAccounting

__all__ = [
    "BUCKET_BOUNDS",
    "LatencyHistogram",
    "ServeTelemetry",
    "ShardTelemetry",
]


@dataclasses.dataclass
class ShardTelemetry:
    """Everything one shard learned about itself during a run."""

    shard_id: int
    queue: QueueAccounting = dataclasses.field(default_factory=QueueAccounting)
    #: this shard's monitor in the keyed state pass: the messages it
    #: applied as owner of their routing key
    monitor: MonitorStats = dataclasses.field(default_factory=MonitorStats)
    batches: int = 0
    messages_scored: int = 0
    #: alerts raised on messages this shard scored
    alerts_raised: int = 0
    busy_seconds: float = 0.0
    #: busy_seconds split by scoring-path component (tokenize / score /
    #: extract / state); only populated when the runtime passes a
    #: :class:`~repro.serve.batching.CostBreakdown` per batch.
    busy_breakdown: dict[str, float] = dataclasses.field(
        default_factory=CostBreakdown.zero_totals
    )
    #: accumulated scoring-work ledger across this shard's batches
    score_work: ScoreWork = dataclasses.field(default_factory=ScoreWork)
    first_batch_start: float = float("inf")
    last_batch_end: float = 0.0
    service_time: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )
    queue_wait: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )
    #: per-alert simulated latency (enqueue -> completion of the message
    #: raising it: its batch end, or later if a kill held it back for
    #: requeued messages), billed to the scoring shard
    alert_latency: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )

    def record_batch(
        self,
        start: float,
        end: float,
        waits: Sequence[float],
        breakdown: CostBreakdown | None = None,
        work: ScoreWork | None = None,
    ) -> None:
        self.batches += 1
        self.messages_scored += len(waits)
        self.busy_seconds += end - start
        if breakdown is not None:
            for key, value in breakdown.as_dict().items():
                self.busy_breakdown[key] += value
        if work is not None:
            self.score_work.add(work)
        self.first_batch_start = min(self.first_batch_start, start)
        self.last_batch_end = max(self.last_batch_end, end)
        self.service_time.record(end - start)
        for wait in waits:
            self.queue_wait.record(wait)

    def record_alert(self, latency: float) -> None:
        """One alert raised on a message this shard scored."""
        self.alerts_raised += 1
        self.alert_latency.record(latency)

    def merge(self, other: "ShardTelemetry") -> "ShardTelemetry":
        """Combine two ledgers for the same logical shard (pure).

        This is the failover/rebalancing fold: when a replacement worker
        takes over a shard mid-run, its partial ledger merges with the
        original's.  Counts sum, the busy breakdown sums per component,
        the time span widens to cover both operands, and the histograms
        merge bucket-wise.  ``shard_id`` keeps the smaller id so a fold
        over any operand order lands on the same value.
        """
        breakdown = dict(self.busy_breakdown)
        for key in sorted(other.busy_breakdown):
            breakdown[key] = breakdown.get(key, 0.0) + other.busy_breakdown[key]
        return ShardTelemetry(
            shard_id=min(self.shard_id, other.shard_id),
            queue=self.queue.merge(other.queue),
            monitor=self.monitor.merge(other.monitor),
            batches=self.batches + other.batches,
            messages_scored=self.messages_scored + other.messages_scored,
            alerts_raised=self.alerts_raised + other.alerts_raised,
            busy_seconds=self.busy_seconds + other.busy_seconds,
            busy_breakdown=breakdown,
            score_work=self.score_work.merge(other.score_work),
            first_batch_start=min(
                self.first_batch_start, other.first_batch_start
            ),
            last_batch_end=max(self.last_batch_end, other.last_batch_end),
            service_time=self.service_time.merge(other.service_time),
            queue_wait=self.queue_wait.merge(other.queue_wait),
            alert_latency=self.alert_latency.merge(other.alert_latency),
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "queue": self.queue.as_dict(),
            "monitor": self.monitor.as_dict(),
            "batches": self.batches,
            "messages_scored": self.messages_scored,
            "alerts_raised": self.alerts_raised,
            "busy_seconds": self.busy_seconds,
            "busy_breakdown": dict(self.busy_breakdown),
            "score_work": self.score_work.as_dict(),
            # None (not inf/0.0 sentinels) for a shard that never ran a
            # batch, so the JSON snapshot stays valid and unambiguous.
            "first_batch_start": (
                self.first_batch_start if self.batches else None
            ),
            "last_batch_end": self.last_batch_end if self.batches else None,
            "service_time": self.service_time.as_dict(),
            "queue_wait": self.queue_wait.as_dict(),
            "alert_latency": self.alert_latency.as_dict(),
        }

    def populate_metrics(self, registry: MetricsRegistry) -> None:
        """Project this shard's ledgers into the labeled registry."""
        labels = {"shard": str(self.shard_id)}
        self.queue.populate_metrics(registry, **labels)
        self.monitor.populate_metrics(registry, **labels)
        self.score_work.populate_metrics(registry, **labels)
        registry.counter(
            "serve_batches", help="micro-batches scored"
        ).labels(**labels).inc(self.batches)
        registry.counter(
            "serve_messages_scored", help="messages scored"
        ).labels(**labels).inc(self.messages_scored)
        registry.counter(
            "serve_alerts_raised", help="alerts raised"
        ).labels(**labels).inc(self.alerts_raised)
        busy = registry.counter(
            "busy_seconds", help="simulated busy seconds per component"
        )
        for component, seconds in self.busy_breakdown.items():
            busy.labels(
                component=component.removesuffix("_seconds"), **labels
            ).inc(seconds)
        registry.histogram(
            "service_time_seconds", help="per-batch simulated service time"
        ).labels(**labels).merge_from(self.service_time)
        registry.histogram(
            "queue_wait_seconds", help="per-message simulated queue wait"
        ).labels(**labels).merge_from(self.queue_wait)
        registry.histogram(
            "alert_latency_seconds",
            help="per-alert simulated enqueue-to-batch-end latency",
        ).labels(**labels).merge_from(self.alert_latency)


@dataclasses.dataclass
class ServeTelemetry:
    """Fleet-wide aggregate of per-shard telemetry."""

    shards: list[ShardTelemetry]

    def merge(self, other: "ServeTelemetry") -> "ServeTelemetry":
        """Fleet union (pure): shards with the same id fold together.

        Two partial fleet views — e.g. the per-epoch telemetry either
        side of a rebalancing event that migrated targets to
        replacement workers — combine into one consistent view, shards
        ordered by id.
        """
        by_id: dict[int, ShardTelemetry] = {}
        for shard in (*self.shards, *other.shards):
            seen = by_id.get(shard.shard_id)
            by_id[shard.shard_id] = (
                shard if seen is None else seen.merge(shard)
            )
        return ServeTelemetry(
            shards=[by_id[shard_id] for shard_id in sorted(by_id)]
        )

    @classmethod
    def merged(
        cls, telemetries: Iterable["ServeTelemetry"]
    ) -> "ServeTelemetry":
        """Fold any number of fleet views (epochs) into one.

        An empty iterable — every shard failed before reporting —
        yields a well-formed empty fleet, not an error.
        """
        total = cls(shards=[])
        for telemetry in telemetries:
            total = total.merge(telemetry)
        return total

    def merged_accounting(self) -> QueueAccounting:
        """Fleet queue ledger (counts sum, ``max_depth`` = worst shard)."""
        return QueueAccounting.merged(s.queue for s in self.shards)

    def merged_service_time(self) -> LatencyHistogram:
        return merge_histograms(s.service_time for s in self.shards)

    def merged_queue_wait(self) -> LatencyHistogram:
        return merge_histograms(s.queue_wait for s in self.shards)

    def merged_alert_latency(self) -> LatencyHistogram:
        return merge_histograms(s.alert_latency for s in self.shards)

    def merged_monitor_stats(self) -> MonitorStats:
        """Fleet monitor totals: the sum over every shard's monitor."""
        return MonitorStats.merged(s.monitor for s in self.shards)

    def merged_busy_breakdown(self) -> dict[str, float]:
        """Fleet busy seconds per scoring-path component."""
        totals = CostBreakdown.zero_totals()
        for shard in self.shards:
            for key, value in shard.busy_breakdown.items():
                totals[key] += value
        return totals

    def merged_score_work(self) -> ScoreWork:
        """Fleet-wide scoring-work ledger."""
        total = ScoreWork()
        for shard in self.shards:
            total.add(shard.score_work)
        return total

    @property
    def messages_scored(self) -> int:
        return sum(s.messages_scored for s in self.shards)

    @property
    def makespan_seconds(self) -> float:
        """Simulated span from the first batch start to the last batch end."""
        starts = [
            s.first_batch_start for s in self.shards if s.batches
        ]
        ends = [s.last_batch_end for s in self.shards if s.batches]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    @property
    def throughput_per_second(self) -> float:
        makespan = self.makespan_seconds
        return self.messages_scored / makespan if makespan > 0 else 0.0

    @property
    def load_skew(self) -> float:
        """Max/mean ratio of per-shard scored messages (1.0 = balanced).

        The headline balance metric for the ring: the committed serve
        baseline showed ~1.5x under modulo routing.  0.0 when the fleet
        is empty or scored nothing (an all-shards-failed edge must not
        divide by zero).
        """
        if not self.shards:
            return 0.0
        counts = [shard.messages_scored for shard in self.shards]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "n_shards": len(self.shards),
            "messages_scored": self.messages_scored,
            "makespan_seconds": self.makespan_seconds,
            "throughput_per_second": self.throughput_per_second,
            "load_skew": self.load_skew,
            "queue": self.merged_accounting().as_dict(),
            "monitor": self.merged_monitor_stats().as_dict(),
            "busy_breakdown": self.merged_busy_breakdown(),
            "score_work": self.merged_score_work().as_dict(),
            "service_time": self.merged_service_time().as_dict(),
            "queue_wait": self.merged_queue_wait().as_dict(),
            "alert_latency": self.merged_alert_latency().as_dict(),
            "per_shard": [s.as_dict() for s in self.shards],
        }

    def populate_metrics(self, registry: MetricsRegistry) -> None:
        """Project per-shard ledgers plus fleet headline gauges.

        The fleet view stays a *fold* over shard-labeled series (the
        registry reader can sum them); only the ratios that cannot be
        recovered from sums — throughput and makespan — get their own
        unlabeled gauges.  ``throughput_msgs_per_second`` is the gauge
        ``repro obs diff`` gates on.
        """
        for shard in self.shards:
            shard.populate_metrics(registry)
        registry.gauge(
            "serve_shards", help="worker shard count"
        ).labels().set(len(self.shards))
        registry.gauge(
            "serve_load_skew", help="max/mean per-shard scored messages"
        ).labels().set(self.load_skew)
        registry.gauge(
            "makespan_seconds", help="first batch start to last batch end"
        ).labels().set(self.makespan_seconds)
        registry.gauge(
            "throughput_msgs_per_second",
            help="fleet simulated throughput (the obs-diff gate metric)",
        ).labels().set(self.throughput_per_second)
