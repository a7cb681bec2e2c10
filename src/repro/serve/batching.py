"""Micro-batching policy: flush on size *or* simulated-time deadline.

A shard server amortises vectorizer/model calls by scoring messages in
batches, but a batch must not wait forever for stragglers: the batcher
flushes as soon as either

* ``batch_size`` messages are queued (throughput bound), or
* the oldest queued message has waited ``max_delay_seconds`` of
  simulated time (latency bound).

The batcher is a pure decision function over queue state and the known
future arrival times — it never reads a clock, so the whole serving
simulation stays deterministic (DET002 by construction).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

from repro.obs.ledger import Ledger, Series, field
from repro.obs.metrics import COUNTER
from repro.score.core import ScoreWork
from repro.serve.queueing import BoundedQueue

#: Why a batch flushed, as recorded on its trace span.
FLUSH_FULL = "full"  # batch_size messages were already queued
FLUSH_ARRIVAL = "arrival"  # the batch-completing arrival came before the deadline
FLUSH_DEADLINE = "deadline"  # the head message's latency bound fired
FLUSH_DRAIN = "drain"  # shutdown drain (producer closed)


@dataclasses.dataclass(frozen=True)
class MicroBatcher:
    """Flush policy for one shard's queue."""

    batch_size: int = 64
    max_delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.max_delay_seconds > 0:
            raise ValueError(
                f"max_delay_seconds must be positive, got {self.max_delay_seconds}"
            )

    def flush_decision(
        self, queue: BoundedQueue, upcoming_arrivals: Sequence[float]
    ) -> tuple[float, str]:
        """``(flush time, reason)`` for the current head batch.

        ``upcoming_arrivals`` are the times of the next not-yet-enqueued
        arrivals in order (only the first ``batch_size`` matter).  The
        flush fires at whichever comes first: the arrival that would
        complete a full batch (``FLUSH_ARRIVAL``), or the head message's
        latency deadline (``FLUSH_DEADLINE``).  A deadline alone caps
        the flush when too few arrivals remain — that is the drain path
        for a tail shorter than a batch.  The reason feeds the batch's
        trace span so overload triage can see *why* latency moved.
        """
        if not len(queue):
            raise ValueError("flush_decision is undefined for an empty queue")
        deadline = queue.enqueue_time_at(0) + self.max_delay_seconds
        need = self.batch_size - len(queue)
        if need <= 0:
            # Already full: constrained only by when the youngest message
            # that will ride in this batch actually arrived.
            return queue.enqueue_time_at(self.batch_size - 1), FLUSH_FULL
        if need <= len(upcoming_arrivals) and upcoming_arrivals[need - 1] < deadline:
            return upcoming_arrivals[need - 1], FLUSH_ARRIVAL
        return deadline, FLUSH_DEADLINE


_BUSY = Series(COUNTER, "busy_seconds", "simulated busy seconds per component")


@dataclasses.dataclass
class CostBreakdown(Ledger):
    """Simulated seconds spent per scoring-path component.

    The components mirror the message hot path: **tokenize** (hashing
    texts that missed the token cache), **score** (vectorizer dispatch
    plus model dot products — the only part every message always pays),
    **extract** (PII regex runs that missed the extraction cache), and
    **state** (per-detection target-state bookkeeping in the monitor).
    One batch's bill, or the running total of a shard or a bench run.
    """

    tokenize_seconds: float = field(0.0, metric=_BUSY(component="tokenize"))
    score_seconds: float = field(0.0, metric=_BUSY(component="score"))
    extract_seconds: float = field(0.0, metric=_BUSY(component="extract"))
    state_seconds: float = field(0.0, metric=_BUSY(component="state"))

    @property
    def total_seconds(self) -> float:
        return (
            self.tokenize_seconds
            + self.score_seconds
            + self.extract_seconds
            + self.state_seconds
        )


@dataclasses.dataclass(frozen=True)
class ServiceCostModel:
    """Deterministic simulated service time for scoring one batch.

    An affine model — fixed per-batch overhead (vectorizer dispatch,
    model call) plus per-message and per-character terms — is enough to
    make batching trade-offs visible in the harness without touching a
    wall clock.  :meth:`breakdown` bills a :class:`~repro.score.core.ScoreWork`
    ledger component by component, charging character-proportional
    tokenize/extract costs only for the texts that actually ran (cache
    misses) — which is how the scoring core's single-extraction and
    token-cache wins become visible in simulated latency.
    """

    batch_overhead_seconds: float = 2e-3
    per_message_seconds: float = 4e-4
    per_char_seconds: float = 2e-6
    extract_per_char_seconds: float = 1e-6
    state_per_detection_seconds: float = 5e-5

    def __post_init__(self) -> None:
        for name in (
            "batch_overhead_seconds",
            "per_message_seconds",
            "per_char_seconds",
            "extract_per_char_seconds",
            "state_per_detection_seconds",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.batch_overhead_seconds + self.per_message_seconds <= 0:
            raise ValueError("a batch must take positive simulated time")

    def breakdown(self, work: ScoreWork, n_detections: int = 0) -> CostBreakdown:
        """Bill a batch's work ledger per component.

        ``n_detections`` counts the batch's messages over either
        threshold: the only ones the keyed state pass has work for.  It
        is known when scoring ends, so a batch's simulated time never
        waits on the state pass.
        """
        return CostBreakdown(
            tokenize_seconds=self.per_char_seconds * work.tokenized_chars,
            score_seconds=(
                self.batch_overhead_seconds
                + self.per_message_seconds * work.messages
            ),
            extract_seconds=self.extract_per_char_seconds * work.extracted_chars,
            state_seconds=self.state_per_detection_seconds * n_detections,
        )
