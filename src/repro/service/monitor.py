"""Online harassment monitor: scoring, target linking, campaign alerts.

The monitor consumes :class:`~repro.service.stream.StreamMessage` batches,
scores each message with the trained CTH and dox filter models, extracts
target handles from detections, and maintains sliding-window state per
target.  Alerts:

* ``CTH`` / ``DOX`` — a single message crossed its detection threshold;
* ``CAMPAIGN`` — at least ``campaign_min_messages`` detections referenced
  the same target handle within ``campaign_window_seconds`` (the
  coordinated-incitement pattern the paper studies);
* ``DOX_ESCALATION`` — a detected dox whose target already had a recent
  call to harassment (the §6.3 thread-overlap pattern, generalised to
  targets).

All text processing — tokenization, feature hashing, model scoring, PII
extraction, taxonomy coding — lives in the shared
:class:`~repro.score.core.ScoringCore` (cache-backed, PII extraction
only for detections); this module only keeps the *stateful* part:
:meth:`HarassmentMonitor.process_scored` turns a pure
:class:`~repro.score.core.ScoredBatch` into alerts by updating
per-target windows.  The serving runtime scores batches on its shards
(which extract their detections) and calls ``process_scored`` from its
keyed state pass; :meth:`HarassmentMonitor.process_batch` wraps both
steps for the batch path.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Iterable, Mapping, Sequence

from repro.obs.ledger import Ledger, Series, field
from repro.obs.metrics import COUNTER
from repro.score.core import ScoredBatch, ScoringCore
from repro.service.stream import StreamMessage
from repro.util.batching import iter_batches


def tenant_scope(tenant: str) -> str:
    """State key prefix isolating one tenant's per-target state.

    The monitor's state tables key every target on the scoped handle,
    so two tenants naming the same target never share a window; that
    alone is what isolates them.  The serve router
    (:func:`repro.serve.runtime.routing_key`) keys on the text alone,
    so tenants may share a scoring shard: scoring is a pure function of
    the text.  Empty tenant — the single-tenant deployments every
    pre-gateway caller runs — scopes to the bare handle, unchanged.
    """
    return f"tenant:{tenant}|" if tenant else ""


@dataclasses.dataclass(frozen=True)
class TargetStateSnapshot:
    """Serialized per-target monitor state.

    Everything the alerting state machine knows about a set of target
    handles — their detection windows, campaign-dedupe timestamps, and
    last-CTH timestamps — plus the source monitor's watermark, in a
    plain-tuple form that round-trips through JSON
    (:meth:`as_dict` / :meth:`from_dict`).  The serving runtime keeps
    all target state in one monitor and never moves it, so this is only
    a test and benchmark-probe surface, like
    :meth:`HarassmentMonitor.snapshot_target_state` and its move
    counterparts.
    """

    watermark: float
    #: handle -> ((timestamp, message_id), ...) detection window, both
    #: levels sorted (handles lexically, detections by time then id)
    activity: tuple[tuple[str, tuple[tuple[float, int], ...]], ...]
    campaign_alerted_at: tuple[tuple[str, float], ...]
    last_cth_at: tuple[tuple[str, float], ...]

    @property
    def empty(self) -> bool:
        return not (
            self.activity or self.campaign_alerted_at or self.last_cth_at
        )

    def handles(self) -> tuple[str, ...]:
        """Sorted union of every handle the snapshot carries state for."""
        return tuple(sorted(
            {handle for handle, _ in self.activity}
            | {handle for handle, _ in self.campaign_alerted_at}
            | {handle for handle, _ in self.last_cth_at}
        ))

    def as_dict(self) -> dict[str, object]:
        return {
            "watermark": self.watermark,
            "activity": {
                handle: [list(event) for event in events]
                for handle, events in self.activity
            },
            "campaign_alerted_at": dict(self.campaign_alerted_at),
            "last_cth_at": dict(self.last_cth_at),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TargetStateSnapshot":
        return cls(
            watermark=float(data["watermark"]),
            activity=tuple(sorted(
                (handle, tuple((float(ts), int(mid)) for ts, mid in events))
                for handle, events in data["activity"].items()
            )),
            campaign_alerted_at=tuple(sorted(
                (handle, float(ts))
                for handle, ts in data["campaign_alerted_at"].items()
            )),
            last_cth_at=tuple(sorted(
                (handle, float(ts))
                for handle, ts in data["last_cth_at"].items()
            )),
        )


class AlertKind(enum.Enum):
    CTH = "call_to_harassment"
    DOX = "dox"
    CAMPAIGN = "campaign"
    DOX_ESCALATION = "dox_escalation"


@dataclasses.dataclass(frozen=True, slots=True)
class Alert:
    kind: AlertKind
    message_id: int
    timestamp: float
    score: float
    target_handle: str | None = None
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class MonitorConfig:
    cth_threshold: float = 0.5
    dox_threshold: float = 0.5
    campaign_window_seconds: float = 7 * 24 * 3600.0
    campaign_min_messages: int = 3

    def __post_init__(self) -> None:
        if self.campaign_min_messages < 2:
            raise ValueError("a campaign needs at least two messages")
        if self.campaign_window_seconds <= 0:
            raise ValueError("campaign window must be positive")


_EVENTS = Series(
    COUNTER, "monitor_events", "monitor detections/alerts by kind"
)


@dataclasses.dataclass
class MonitorStats(Ledger):
    """Per-monitor detection and alert counts (a summing ledger)."""

    messages_processed: int = field(
        metric=_EVENTS(event="messages_processed")
    )
    cth_detected: int = field(metric=_EVENTS(event="cth_detected"))
    dox_detected: int = field(metric=_EVENTS(event="dox_detected"))
    campaigns_alerted: int = field(metric=_EVENTS(event="campaigns_alerted"))
    escalations_alerted: int = field(
        metric=_EVENTS(event="escalations_alerted")
    )


class HarassmentMonitor:
    """Stateful online detector over a message stream.

    Owns a :class:`~repro.score.core.ScoringCore` (one per monitor, so
    per-shard cache state stays shard-local and deterministic) but keeps
    only the alerting *state machine* here.
    """

    def __init__(
        self,
        cth_model,
        dox_model,
        vectorizer,
        config: MonitorConfig | None = None,
        core: ScoringCore | None = None,
    ) -> None:
        self.core = core or ScoringCore(cth_model, dox_model, vectorizer)
        self.config = config or MonitorConfig()
        self.stats = MonitorStats()
        #: target handle -> deque of (timestamp, message_id) detections
        self._target_activity: dict[str, collections.deque] = {}
        #: target handle -> timestamp of last campaign alert
        self._campaign_alerted_at: dict[str, float] = {}
        #: target handle -> timestamp of last CTH detection
        self._last_cth_for_target: dict[str, float] = {}
        #: newest timestamp seen, for evicting stale per-target state
        self._watermark = float("-inf")

    # -- internals ------------------------------------------------------------

    def _evict_stale_targets(self) -> None:
        """Drop per-target state older than the campaign window.

        Every decision below only ever compares stored timestamps
        against ``now - window``, so anything older can never influence
        an alert again — evicting it bounds memory by the number of
        *active* targets rather than by stream history.  This stays
        output-neutral under multi-tenant mixing too: the stream is
        globally timestamp-sorted, so every future message of *any*
        tenant carries ``timestamp >= watermark``, and state older than
        ``watermark - window`` is dead for all of them.
        """
        horizon = self._watermark - self.config.campaign_window_seconds
        for table in (self._campaign_alerted_at, self._last_cth_for_target):
            stale = [handle for handle, ts in table.items() if ts < horizon]
            for handle in stale:
                del table[handle]
        stale = [
            handle
            for handle, activity in self._target_activity.items()
            if not activity or activity[-1][0] < horizon
        ]
        for handle in stale:
            del self._target_activity[handle]

    def _note_target_activity(
        self, handle: str, message: StreamMessage
    ) -> tuple[bool, int]:
        """Record a detection against a target; return (campaign?, count)."""
        window = self.config.campaign_window_seconds
        activity = self._target_activity.setdefault(handle, collections.deque())
        activity.append((message.timestamp, message.message_id))
        while activity and activity[0][0] < message.timestamp - window:
            activity.popleft()
        count = len(activity)
        if count < self.config.campaign_min_messages:
            return False, count
        # Re-alerting the same target campaign more than once per window
        # is noise: one campaign alert per target per window.
        last = self._campaign_alerted_at.get(handle)
        if last is not None and message.timestamp - last < window:
            return False, count
        self._campaign_alerted_at[handle] = message.timestamp
        return True, count

    # -- target-state snapshots (tests and benchmark probes) -------------------

    def state_handles(self) -> tuple[str, ...]:
        """Sorted handles this monitor currently holds any state for."""
        return tuple(sorted(
            self._target_activity.keys()
            | self._campaign_alerted_at.keys()
            | self._last_cth_for_target.keys()
        ))

    def snapshot_target_state(
        self, handles: Iterable[str] | None = None
    ) -> TargetStateSnapshot:
        """Copy the per-target state for ``handles`` (default: all).

        Pure read — the monitor keeps its state.  Use
        :meth:`extract_target_state` for move semantics.
        """
        selected = sorted(handles) if handles is not None else list(
            self.state_handles()
        )
        return TargetStateSnapshot(
            watermark=self._watermark,
            activity=tuple(
                (handle, tuple(self._target_activity[handle]))
                for handle in selected
                if self._target_activity.get(handle)
            ),
            campaign_alerted_at=tuple(
                (handle, self._campaign_alerted_at[handle])
                for handle in selected
                if handle in self._campaign_alerted_at
            ),
            last_cth_at=tuple(
                (handle, self._last_cth_for_target[handle])
                for handle in selected
                if handle in self._last_cth_for_target
            ),
        )

    def extract_target_state(
        self, handles: Iterable[str]
    ) -> TargetStateSnapshot:
        """Snapshot ``handles`` and remove them from this monitor (move)."""
        snapshot = self.snapshot_target_state(handles)
        for handle in snapshot.handles():
            self._target_activity.pop(handle, None)
            self._campaign_alerted_at.pop(handle, None)
            self._last_cth_for_target.pop(handle, None)
        return snapshot

    def restore_target_state(self, snapshot: TargetStateSnapshot) -> None:
        """Fold a migrated snapshot into this monitor's state.

        Detection windows merge-sort by ``(timestamp, message_id)`` and
        the dedupe/escalation timestamps take the max, so restoring is
        correct even when this monitor already holds state for a handle.
        The watermark only ever advances — eviction remains
        output-neutral.
        """
        for handle, events in snapshot.activity:
            existing = self._target_activity.setdefault(
                handle, collections.deque()
            )
            if existing:
                merged = sorted(
                    [*existing, *events], key=lambda event: (event[0], event[1])
                )
                existing.clear()
                existing.extend(merged)
            else:
                existing.extend(events)
        for table, entries in (
            (self._campaign_alerted_at, snapshot.campaign_alerted_at),
            (self._last_cth_for_target, snapshot.last_cth_at),
        ):
            for handle, timestamp in entries:
                previous = table.get(handle)
                table[handle] = (
                    timestamp if previous is None
                    else max(previous, timestamp)
                )
        self._watermark = max(self._watermark, snapshot.watermark)

    # -- public ----------------------------------------------------------------

    def process_scored(self, scored: ScoredBatch) -> list[Alert]:
        """Apply per-target alerting state to an already-scored batch.

        The pure half (features, model scores, extraction) is in the
        :class:`~repro.score.core.ScoredBatch`; this method only reads
        scores, lazily pulls extractions for messages that crossed a
        threshold, and mutates the sliding-window target tables.
        """
        alerts: list[Alert] = []
        # Python floats, read once per batch: the same comparisons and
        # alert scores as the float64 scalars, without a NumPy scalar
        # per message.
        for index, (message, cth_score, dox_score) in enumerate(zip(
            scored.messages, scored.cth_scores.tolist(),
            scored.dox_scores.tolist(),
        )):
            self.stats.messages_processed += 1
            self._watermark = max(self._watermark, message.timestamp)
            is_cth = cth_score > self.config.cth_threshold
            is_dox = dox_score > self.config.dox_threshold
            if not is_cth and not is_dox:
                continue
            extraction = scored.extraction(index)
            handles = extraction.handles
            # Per-tenant isolation: the state tables key on the scoped
            # handle, so tenants sharing a shard (or even a target) never
            # read or advance each other's windows.  Alerts still carry
            # the *bare* handle — a tenant's alert stream is byte-
            # identical to running its traffic alone.
            scope = tenant_scope(message.tenant)
            if is_cth:
                self.stats.cth_detected += 1
                subtypes = ", ".join(str(s) for s in scored.subtypes(index))
                alerts.append(Alert(
                    AlertKind.CTH, message.message_id, message.timestamp,
                    float(cth_score),
                    target_handle=extraction.primary_handle,
                    detail=subtypes,
                ))
                for handle in handles:
                    self._last_cth_for_target[scope + handle] = message.timestamp
            if is_dox:
                self.stats.dox_detected += 1
                alerts.append(Alert(
                    AlertKind.DOX, message.message_id, message.timestamp,
                    float(dox_score),
                    target_handle=extraction.primary_handle,
                    detail=f"pii: {', '.join(extraction.pii) or 'none'}",
                ))
                for handle in handles:
                    last_cth = self._last_cth_for_target.get(scope + handle)
                    if (
                        last_cth is not None
                        and 0 <= message.timestamp - last_cth
                        <= self.config.campaign_window_seconds
                    ):
                        self.stats.escalations_alerted += 1
                        alerts.append(Alert(
                            AlertKind.DOX_ESCALATION, message.message_id,
                            message.timestamp, float(dox_score),
                            target_handle=handle,
                            detail="dox follows a recent call to harassment",
                        ))
                        break
            for handle in handles:
                campaign, count = self._note_target_activity(
                    scope + handle, message
                )
                if campaign:
                    self.stats.campaigns_alerted += 1
                    alerts.append(Alert(
                        AlertKind.CAMPAIGN, message.message_id, message.timestamp,
                        float(max(cth_score, dox_score)),
                        target_handle=handle,
                        detail=f"{count} detections against target in window",
                    ))
        self._evict_stale_targets()
        return alerts

    def process_batch(self, messages: Sequence[StreamMessage]) -> list[Alert]:
        """Score one batch through the core and apply alerting state."""
        if not messages:
            return []
        return self.process_scored(self.core.score_messages(messages))

    def run(self, stream: Iterable[StreamMessage], batch_size: int = 256) -> list[Alert]:
        """Consume an entire stream; returns all alerts."""
        alerts: list[Alert] = []
        for batch in iter_batches(stream, batch_size):
            alerts.extend(self.process_batch(batch))
        return alerts
