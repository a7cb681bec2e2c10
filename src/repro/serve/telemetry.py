"""Serving telemetry: per-shard ledgers, the state pass, the fleet view.

Everything here is simulated-time arithmetic over values the runtime
hands in — no clock reads, no randomness — so two runs of the same
configuration produce byte-identical snapshots (the serve-bench JSON
report is diffable across machines, like ``repro cache ls``).

:class:`ShardTelemetry` is a :class:`~repro.obs.ledger.Ledger`: each
field declares how it merges and which registry series it feeds, so
the fleet fold (:meth:`ServeTelemetry.fleet`), the JSON snapshot and
the ``repro obs`` metrics all follow from one list of fields.  A shard
only scores, so its ledger holds no monitor counts.  Each shard id has
one server, and so one ledger, for the whole run.
:class:`ServeTelemetry` holds those ledgers in shard-id order plus the
keyed state pass's two ledgers: the state monitor's
:class:`~repro.service.monitor.MonitorStats` and the
:class:`~repro.score.core.ScoreWork` of its taxonomy coding.  Its
``as_dict()`` keeps the committed ``BENCH_serve.json`` schema.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.obs.ledger import MAX, MIN, Ledger, Series, field
from repro.obs.metrics import (
    COUNTER,
    HISTOGRAM,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.score.core import ScoreWork
from repro.service.monitor import MonitorStats
from repro.serve.batching import CostBreakdown
from repro.serve.queueing import QueueAccounting

__all__ = ["ServeTelemetry", "ShardTelemetry"]


@dataclasses.dataclass
class ShardTelemetry(Ledger):
    """Everything one shard learned about itself during a run.

    Ledgers merge when the fleet view folds every shard into one:
    counts and busy seconds sum, the time span widens to cover both
    operands, and the histograms merge bucket-wise.  ``shard_id`` keeps
    the smaller id, so a fold over any operand order lands on the same
    value.
    """

    shard_id: int = field(merge=MIN, label="shard")
    queue: QueueAccounting = field(QueueAccounting)
    batches: int = field(metric=Series(
        COUNTER, "serve_batches", "micro-batches scored"
    ))
    messages_scored: int = field(metric=Series(
        COUNTER, "serve_messages_scored", "messages scored"
    ))
    #: alerts raised on messages this shard scored
    alerts_raised: int = field(metric=Series(
        COUNTER, "serve_alerts_raised", "alerts raised"
    ))
    busy_seconds: float = 0.0
    #: busy_seconds split by scoring-path component
    busy_breakdown: CostBreakdown = field(CostBreakdown)
    #: accumulated scoring-work ledger across this shard's batches
    score_work: ScoreWork = field(ScoreWork)
    first_batch_start: float = field(float("inf"), merge=MIN)
    last_batch_end: float = field(0.0, merge=MAX)
    service_time: LatencyHistogram = field(LatencyHistogram, metric=Series(
        HISTOGRAM, "service_time_seconds", "per-batch simulated service time"
    ))
    queue_wait: LatencyHistogram = field(LatencyHistogram, metric=Series(
        HISTOGRAM, "queue_wait_seconds", "per-message simulated queue wait"
    ))
    #: per-alert simulated latency (enqueue -> completion of the message
    #: raising it: the stream-order watermark, the maximum batch end over
    #: it and every earlier message), billed to the scoring shard
    alert_latency: LatencyHistogram = field(LatencyHistogram, metric=Series(
        HISTOGRAM,
        "alert_latency_seconds",
        "per-alert simulated enqueue-to-watermark latency",
    ))

    def record_batch(
        self,
        start: float,
        end: float,
        waits: Sequence[float],
        breakdown: CostBreakdown,
        work: ScoreWork,
    ) -> None:
        self.batches += 1
        self.messages_scored += len(waits)
        self.busy_seconds += end - start
        self.busy_breakdown.add(breakdown)
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

    def as_dict(self) -> dict[str, object]:
        # None (not inf/0.0 sentinels) for a shard that never ran a
        # batch, so the JSON snapshot stays valid and unambiguous.
        data = super().as_dict()
        if not self.batches:
            data["first_batch_start"] = data["last_batch_end"] = None
        return data


@dataclasses.dataclass
class ServeTelemetry:
    """Fleet-wide aggregate of per-shard telemetry and the state pass."""

    shards: list[ShardTelemetry]
    #: the run's state monitor: every message it applied
    monitor: MonitorStats = dataclasses.field(default_factory=MonitorStats)
    #: the state pass's taxonomy coding of CTH detections
    score_work: ScoreWork = dataclasses.field(default_factory=ScoreWork)

    def fleet(self) -> ShardTelemetry:
        """Every shard's ledger folded into one fleet-wide ledger."""
        return ShardTelemetry.merged(self.shards)

    def merged_busy_breakdown(self) -> dict[str, float]:
        """Fleet busy seconds per scoring-path component."""
        return self.fleet().busy_breakdown.as_dict()

    def merged_score_work(self) -> ScoreWork:
        """Fleet-wide work ledger: the shards' scoring plus the state pass."""
        return self.fleet().score_work.merge(self.score_work)

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
        """Max/mean of per-shard ``messages_scored`` over the run.

        The headline balance metric for the ring (1.0 = balanced): the
        committed serve baseline showed ~1.5x under modulo routing.  It
        counts a whole run, so a shard that joins late reads as cold:
        on the tiny serve-bench stream ``2,4,3`` reads 1.500x and the
        overload growth ``4,4,8,12`` 2.227x, against 1.008x for the
        plain 4-shard run, although every ring is uniform.  0.0 when
        the fleet is empty or scored nothing (an all-shards-failed edge
        must not divide by zero).
        """
        if not self.shards:
            return 0.0
        counts = [shard.messages_scored for shard in self.shards]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        fleet = self.fleet()
        return {
            "n_shards": len(self.shards),
            "messages_scored": self.messages_scored,
            "makespan_seconds": self.makespan_seconds,
            "throughput_per_second": self.throughput_per_second,
            "load_skew": self.load_skew,
            "queue": fleet.queue.as_dict(),
            "monitor": self.monitor.as_dict(),
            "busy_breakdown": fleet.busy_breakdown.as_dict(),
            "score_work": self.merged_score_work().as_dict(),
            "service_time": fleet.service_time.as_dict(),
            "queue_wait": fleet.queue_wait.as_dict(),
            "alert_latency": fleet.alert_latency.as_dict(),
            "per_shard": [s.as_dict() for s in self.shards],
        }

    def populate_metrics(self, registry: MetricsRegistry) -> None:
        """Project per-shard ledgers, the state pass and fleet gauges.

        The fleet view stays a *fold* over shard-labeled series (the
        registry reader can sum them); the state pass's ledgers carry no
        shard label, and only the ratios that cannot be recovered from
        sums — throughput and makespan — get their own unlabeled
        gauges.  Both are simulated time: an oracle for queueing
        behaviour, never a speed.
        """
        for shard in self.shards:
            shard.populate_metrics(registry)
        self.monitor.populate_metrics(registry)
        self.score_work.populate_metrics(registry)
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
            help="fleet simulated throughput (a queueing oracle, not a speed)",
        ).labels().set(self.throughput_per_second)
