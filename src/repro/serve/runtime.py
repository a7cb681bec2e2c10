"""Sharded serving runtime: stateless scoring, then one keyed state pass.

:meth:`ServingRuntime.run` serves an arrival stream in two stages:

1. **Scoring** (stateless).  The router keys each message on a
   fixed-width digest of its text (:func:`routing_key`).  Scoring is a
   pure function of the text, so identical texts meet on one shard and
   hit its caches.  A key that carries at least ``hot_key_share`` of
   the traffic — a literal repost storm — is salted over
   ``hot_key_fanout`` sub-keys, a load-balancing rule only.  Every
   arrival is routed once, to the :class:`~repro.serve.ring.HashRing`
   owner of its (possibly salted) key on the ring of its epoch.  Each
   shard id has one server for the whole run: a
   :class:`~repro.serve.queueing.BoundedQueue`, a
   :class:`~repro.serve.batching.MicroBatcher` and a clock, which flush
   batches into its monitor's scoring core across epoch boundaries.  A
   shard extracts PII only from the messages its batch scored over a
   threshold, as the single-monitor reference does.  Shards share
   nothing, so ``run(jobs=N)`` scores them on a thread pool with
   identical results.  This stage alone fixes every batch's simulated
   time.
2. **State** (keyed).  The coordinator applies every scored message in
   stream order, in slices of ``batch_size``, to the run's one state
   monitor through :meth:`HarassmentMonitor.process_scored`, the one
   copy of the alert rules.  Its tables are keyed by scoped handle
   (:func:`~repro.service.monitor.tenant_scope`), so every detection
   reaches each of its targets' windows in stream order, whichever
   shard scored it.  A message is applied once the stream-order
   watermark passes it: the maximum batch end over it and every earlier
   message.  Its alerts complete then.  Only scores and the
   detections' extractions cross between the stages, never feature
   matrices.

That gives the headline invariant:

    For the ``block`` policy, the merged alert stream — sorted by
    ``(timestamp, message_id, kind)`` — is identical, field for field,
    to single-monitor :meth:`HarassmentMonitor.run` output for any
    shard count, any rebalance schedule, any hot-key split, and any
    kill-and-failover sequence.

Two elastic mechanisms change the ring at epoch boundaries, and
nothing else does.  A boundary only changes where later arrivals go;
no server is rebuilt and no target state moves:

* **Rebalancing** — a :class:`~repro.serve.ring.RebalanceSchedule`
  resizes the fleet to explicit shard counts.
* **Failover** — a :class:`~repro.serve.ring.KillSpec` kills a shard
  mid-run.  The victim is scored first: it finishes its in-flight
  batch, starts none at or after the kill, and its queued messages are
  requeued to the surviving owners at the kill time, ahead of the
  next epoch's arrivals (accounted through the ``requeued`` bucket,
  never lost).  They are unscored messages like any other, so the
  watermark waits for them.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.obs.recorder import RunObserver
from repro.obs.trace import SpanContext, Tracer
from repro.score.core import Extraction, ScoredBatch, ScoreWork
from repro.service.monitor import Alert, HarassmentMonitor
from repro.service.stream import StreamMessage
from repro.serve.batching import FLUSH_DRAIN, MicroBatcher, ServiceCostModel
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.queueing import BackpressurePolicy, BoundedQueue, QueuedMessage
from repro.serve.ring import (
    HashRing,
    HotKeyPolicy,
    KillSpec,
    RebalanceSchedule,
    detect_hot_keys,
    salt_key,
)
from repro.serve.telemetry import ServeTelemetry, ShardTelemetry

#: Canonical merge order for alert streams; both the sharded runtime and
#: the single-monitor baseline sort by this key for comparison.
def alert_sort_key(alert: Alert) -> tuple[float, int, str]:
    return (alert.timestamp, alert.message_id, alert.kind.value)


def routing_key(message: StreamMessage) -> str:
    """Stable routing key: a 64-bit blake2b digest of the message text.

    Scoring and its caches are pure functions of the text, so routing
    on it sends identical texts to one shard, which then tokenizes and
    extracts each of them once.  The digest is fixed-width, so a hot
    key in a report or trace never carries message text.  The key has
    no tenant scope: tenants may share a scoring shard, and isolation
    rests on the monitor's scoped state key alone.
    """
    return "text:" + hashlib.blake2b(
        message.text.encode("utf-8"), digest_size=8
    ).hexdigest()


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Shape of the serving fleet."""

    n_shards: int = 4
    batch_size: int = 64
    max_delay_seconds: float = 0.05
    queue_capacity: int = 512
    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    cost: ServiceCostModel = dataclasses.field(default_factory=ServiceCostModel)
    #: traffic share at which a routing key's scoring is split (0
    #: disables): only a literal repost storm can reach it
    hot_key_share: float = 0.02
    #: salted sub-keys a hot key fans out over
    hot_key_fanout: int = 8

    def __post_init__(self) -> None:
        # Explicit per-field validation: a config error names the
        # offending ServeConfig field, and construction has no side
        # effects (no throwaway MicroBatcher).
        for name, minimum in (
            ("n_shards", 1),
            ("batch_size", 1),
            ("queue_capacity", 1),
            ("hot_key_fanout", 2),
        ):
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(
                    f"ServeConfig.{name} must be >= {minimum}, got {value}"
                )
        if not (
            math.isfinite(self.max_delay_seconds)
            and self.max_delay_seconds > 0
        ):
            raise ValueError(
                "ServeConfig.max_delay_seconds must be positive and "
                f"finite, got {self.max_delay_seconds}"
            )
        if not (0.0 <= self.hot_key_share < 1.0):
            raise ValueError(
                "ServeConfig.hot_key_share must be in [0, 1), "
                f"got {self.hot_key_share}"
            )
        if self.queue_capacity < self.batch_size:
            raise ValueError(
                "ServeConfig.queue_capacity must be >= "
                "ServeConfig.batch_size "
                f"({self.queue_capacity} < {self.batch_size})"
            )

    @property
    def hot_key_policy(self) -> HotKeyPolicy:
        return HotKeyPolicy(
            share_threshold=self.hot_key_share, fanout=self.hot_key_fanout
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "batch_size": self.batch_size,
            "max_delay_seconds": self.max_delay_seconds,
            "queue_capacity": self.queue_capacity,
            "policy": self.policy.value,
            "cost": dataclasses.asdict(self.cost),
            "hot_key_share": self.hot_key_share,
            "hot_key_fanout": self.hot_key_fanout,
        }


@dataclasses.dataclass
class ServeResult:
    """Merged output of one serving run."""

    alerts: list[Alert]
    telemetry: ServeTelemetry
    #: the config served, ``n_shards`` the starting fleet (under a
    #: schedule, its first count)
    config: ServeConfig
    #: final ring topology (after every rebalance/kill)
    ring: HashRing | None = None
    #: routing key -> traffic share, for keys the router split
    hot_keys: dict[str, float] = dataclasses.field(default_factory=dict)
    #: one entry per applied epoch-boundary topology change
    rebalances: list[dict] = dataclasses.field(default_factory=list)
    #: kill/failover summary, when a KillSpec fired
    failover: dict | None = None
    #: message_id -> simulated completion time of every message that
    #: raised an alert: the stream-order watermark at it, the maximum
    #: batch end over it and every earlier message.  Per-message data,
    #: so it is deliberately excluded from :meth:`as_dict` snapshots.
    completions: dict[int, float] = dataclasses.field(default_factory=dict)

    @property
    def unaccounted(self) -> int:
        return sum(s.queue.unaccounted for s in self.telemetry.shards)

    def alert_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind.value] = counts.get(alert.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict[str, object]:
        return {
            "config": self.config.as_dict(),
            "alerts": {"total": len(self.alerts), "by_kind": self.alert_counts()},
            "unaccounted_messages": self.unaccounted,
            "ring": self.ring.as_dict() if self.ring is not None else None,
            "hot_keys": dict(self.hot_keys),
            "rebalances": list(self.rebalances),
            "failover": self.failover,
            "telemetry": self.telemetry.as_dict(),
        }

    def populate_metrics(self, registry) -> None:
        """Project the run into an observability registry.

        Per-shard ledgers plus fleet gauges come from the telemetry;
        this adds the merged alert stream as a kind-labeled counter.
        """
        self.telemetry.populate_metrics(registry)
        family = registry.counter(
            "serve_alerts", help="merged alerts by kind"
        )
        for kind, count in self.alert_counts().items():
            family.labels(kind=kind).inc(count)


@dataclasses.dataclass(slots=True)  # not frozen: one per message, built fast
class _Routed:
    """One arrival after the routing pass (internal).

    A shard queues the record itself, so what it scores or leaves at a
    kill carries its stream position.
    """

    seq: int  # stream position: the state pass applies in this order
    arrival: Arrival
    route: str  # scoring key: the routing key, or a salted sub-key of it


@dataclasses.dataclass(slots=True)  # not frozen: one per message, built fast
class _Scored:
    """A scored message waiting for the state pass (internal)."""

    seq: int
    message: StreamMessage
    extraction: Extraction | None  # None unless over a threshold
    cth_score: float
    dox_score: float
    shard: int  # the shard that scored it
    enqueue_time: float
    end: float  # the end of the batch that scored it


def _boundaries(
    n_total: int,
    initial: int,
    schedule: RebalanceSchedule | None,
    kill: KillSpec | None,
) -> list[tuple[int, str, object]]:
    """Epoch boundaries as ``(arrival index, action, payload)``, in order.

    A kill sorts after a resize at the same index, so the kill sees the
    new topology; the last entry is the end of the stream.  Only resizes
    come before the one kill, so the shards live when it fires are
    ``range(count)`` for the last count before it (``initial`` if none),
    and a kill that cannot fire is rejected here, before anything runs.
    """
    boundaries: list[tuple[int, str, object]] = []
    if schedule is not None and n_total:
        for epoch in range(1, schedule.n_epochs):
            cut = (n_total * epoch) // schedule.n_epochs
            boundaries.append((cut, "resize", schedule.shard_counts[epoch]))
    if kill is not None and n_total:
        boundaries.append((int(n_total * kill.at_fraction), "kill", kill))
    boundaries.sort(key=lambda b: (b[0], b[1] == "kill"))
    live = initial
    for _, action, payload in boundaries:
        if action == "resize":
            live = payload
            continue
        if isinstance(payload.shard, int) and payload.shard >= live:
            raise ValueError(
                f"cannot kill shard {payload.shard}: not on the ring "
                f"(live: {list(range(live))})"
            )
        if live == 1:
            raise ValueError("cannot kill the last live shard")
    boundaries.append((n_total, "end", None))
    return boundaries


class ServingRuntime:
    """Ring-routed scoring shards plus one keyed state monitor per run."""

    def __init__(
        self,
        monitor_factory: Callable[[], HarassmentMonitor],
        config: ServeConfig | None = None,
    ) -> None:
        self._monitor_factory = monitor_factory
        self.config = config or ServeConfig()

    # -- routing -------------------------------------------------------------

    def _route(
        self, arrivals: Sequence[Arrival]
    ) -> tuple[list[_Routed], dict[str, float]]:
        """Key and (for hot keys) salt every arrival."""
        keys = [routing_key(arrival.message) for arrival in arrivals]
        policy = self.config.hot_key_policy
        hot = detect_hot_keys(collections.Counter(keys), len(keys), policy)
        routed = [
            _Routed(
                seq=seq,
                arrival=arrival,
                route=(
                    salt_key(key, arrival.message.message_id, policy.fanout)
                    if key in hot else key
                ),
            )
            for seq, (arrival, key) in enumerate(zip(arrivals, keys))
        ]
        return routed, hot

    # -- stage 1: one shard's server scores the whole run ----------------------

    def _run_shard(
        self,
        shard_id: int,
        routed: Sequence[_Routed],
        traced: bool,
        monitor: HarassmentMonitor,
        stop_at: float | None = None,
    ) -> tuple[list[_Scored], ShardTelemetry, Tracer | None, list[_Routed]]:
        """Score every message routed to one shard over the run.

        ``routed`` is the shard's whole list in arrival order, across
        every epoch it is on the ring, so its queue, batcher and clock
        live for the whole run.  Returns the scored messages, the
        shard's telemetry and tracer, and its leftovers.  ``stop_at``
        kills the shard: no batch may *start* at or after that simulated
        time; whatever is still queued (or not yet offered) comes back
        as leftovers through the queue's ``requeued`` bucket for the
        coordinator to re-offer to the surviving owners.
        """
        config = self.config
        queue: BoundedQueue[_Routed] = BoundedQueue(
            config.queue_capacity, config.policy
        )
        batcher = MicroBatcher(config.batch_size, config.max_delay_seconds)
        telemetry = ShardTelemetry(shard_id=shard_id, queue=queue.accounting)
        # Each shard records into its own tracer (single writer) so the
        # trace is independent of thread scheduling under jobs=N; the
        # caller absorbs the tracers in shard order.
        tracer = Tracer() if traced else None
        shard_span = (
            tracer.span("shard", shard=shard_id, arrivals=len(routed))
            if tracer is not None else None
        )
        thresholds = monitor.config
        scored_out: list[_Scored] = []
        server_free = 0.0
        index, total = 0, len(routed)

        def offer(r: _Routed) -> None:
            """Enqueue one arrival, tracing a shed/drop if it causes one."""
            acct = queue.accounting
            shed_before, dropped_before = acct.shed, acct.dropped
            time = r.arrival.time
            queue.offer(time, r)
            if tracer is None:
                return
            if acct.shed > shed_before:
                shard_span.event("shed", time, shard=shard_id)
            elif acct.dropped > dropped_before:
                shard_span.event("dropped", time, shard=shard_id)

        def score(
            batch: Sequence[QueuedMessage[_Routed]], start: float, flush_reason: str
        ) -> float:
            """Score one batch at simulated ``start``; returns its end."""
            messages = [q.message.arrival.message for q in batch]
            batch_span = (
                shard_span.child(
                    "batch",
                    shard=shard_id,
                    batch=telemetry.batches,
                    messages=len(messages),
                    flush=flush_reason,
                )
                if tracer is not None else None
            )
            scored = monitor.core.score_messages(messages, span=batch_span)
            detected = (scored.cth_scores > thresholds.cth_threshold) | (
                scored.dox_scores > thresholds.dox_threshold
            )
            n_detected = int(detected.sum())
            # The state pass reads an extraction only for a detection,
            # so only detections are extracted (billed to this batch).
            extractions = [
                scored.extraction(i) if hit else None
                for i, hit in enumerate(detected.tolist())
            ]
            breakdown = config.cost.breakdown(scored.work, n_detected)
            end = start + breakdown.total_seconds
            for q, message, extraction, cth, dox in zip(
                batch, messages, extractions, scored.cth_scores.tolist(),
                scored.dox_scores.tolist(),
            ):
                scored_out.append(_Scored(
                    q.message.seq, message, extraction,
                    cth, dox, shard_id, q.enqueue_time, end,
                ))
            telemetry.record_batch(
                start,
                end,
                [start - q.enqueue_time for q in batch],
                breakdown=breakdown,
                work=scored.work,
            )
            if batch_span is not None:
                batch_span.close(start, end).annotate(
                    detections=n_detected,
                    extracted=scored.work.extracted_messages,
                    extraction_cache_hits=scored.work.extraction_cache_hits,
                )
                # Component sub-spans laid end to end inside the batch:
                # the Chrome/Perfetto view shows where batch time goes.
                offset = start
                for component, seconds in breakdown.as_dict().items():
                    if seconds > 0:
                        batch_span.child(
                            component.removesuffix("_seconds"),
                            start=offset,
                            end=offset + seconds,
                            shard=shard_id,
                        )
                        offset += seconds
            return end

        halted = False
        while index < total or len(queue):
            if index >= total:
                # Producer closed: graceful drain — flush immediately in
                # batch-size chunks instead of waiting out the deadline.
                while len(queue):
                    size = min(config.batch_size, len(queue))
                    start = max(server_free, queue.enqueue_time_at(size - 1))
                    if stop_at is not None and start >= stop_at:
                        halted = True
                        break
                    server_free = score(queue.take(size), start, FLUSH_DRAIN)
                break
            if not len(queue):
                offer(routed[index])
                index += 1
                continue
            upcoming = [
                r.arrival.time for r in routed[index : index + config.batch_size]
            ]
            flush_at, flush_reason = batcher.flush_decision(queue, upcoming)
            start = max(flush_at, server_free)
            if stop_at is not None and start >= stop_at:
                halted = True
                break
            # Everything arriving before the batch starts enters the queue
            # first (and may be shed/dropped under overload).
            while index < total and routed[index].arrival.time <= start:
                offer(routed[index])
                index += 1
            server_free = score(queue.take(config.batch_size), start, flush_reason)
        leftovers: list[_Routed] = []
        if halted:
            # The shard dies at stop_at having finished its in-flight
            # batch.  Arrivals that reached it before the kill still pass
            # through the queue (so overload policies account for them),
            # then everything transfers out through the requeued bucket.
            for r in routed[index:]:
                offer(r)
            leftovers = [q.message for q in queue.requeue_drain()]
            if shard_span is not None:
                shard_span.event(
                    "killed", stop_at, shard=shard_id, requeued=len(leftovers)
                )
        if shard_span is not None:
            first = routed[0].arrival.time if routed else 0.0
            shard_span.close(first, max(server_free, first)).annotate(
                batches=telemetry.batches
            )
        return scored_out, telemetry, tracer, leftovers

    # -- stage 2: keyed state, in stream order -------------------------------

    def _apply_state(
        self,
        monitor: HarassmentMonitor,
        items: Sequence[_Scored],
        work: ScoreWork,
        shards: dict[int, ShardTelemetry],
        completions: dict[int, float],
        span: SpanContext | None,
    ) -> list[Alert]:
        """Apply every scored message to the run's state monitor.

        ``items`` are in stream order and go through in slices of
        ``batch_size``, the batch size of the single-monitor reference,
        so stale targets are evicted as often as in the reference.  The
        pass codes CTH detections' taxonomy into ``work``.  Each alert
        is billed to the shard that scored its message and completes at
        the watermark: the maximum batch end over that message and every
        earlier one, the first time the pass can apply it.
        """
        alerts: list[Alert] = []
        size = self.config.batch_size
        watermarks = list(
            itertools.accumulate((item.end for item in items), max)
        )
        for offset in range(0, len(items), size):
            batch = items[offset : offset + size]
            scored = ScoredBatch.from_precomputed(
                [item.message for item in batch],
                [item.cth_score for item in batch],
                [item.dox_score for item in batch],
                [item.extraction for item in batch],
                core=monitor.core,
            )
            raised = monitor.process_scored(scored)
            work.add(scored.work)
            at = {
                item.message.message_id: index
                for index, item in enumerate(batch, offset)
            }
            for alert in raised:
                index = at[alert.message_id]
                item, done = items[index], watermarks[index]
                shards[item.shard].record_alert(done - item.enqueue_time)
                completions[alert.message_id] = done
                if span is not None:
                    span.event(
                        "alert", done, shard=item.shard, kind=alert.kind.value
                    )
            alerts.extend(raised)
        return alerts

    # -- public --------------------------------------------------------------

    def run(
        self,
        arrivals: Iterable[Arrival],
        jobs: int = 1,
        recorder: RunObserver | None = None,
        schedule: RebalanceSchedule | None = None,
        kill: KillSpec | None = None,
    ) -> ServeResult:
        """Route and serve ``arrivals``; returns merged, sorted output.

        ``schedule`` resizes the ring to its shard counts at equal
        arrival-count boundaries; ``kill`` fails one shard over mid-run,
        and a kill that cannot fire raises before any shard is built.
        A boundary only changes where later arrivals go: each shard id
        has one server for the whole run.  ``recorder`` opts into
        observability (route / shard / batch / state-pass spans,
        rebalance and failover events, fleet metrics — absorbed in
        deterministic order, so the trace is independent of ``jobs``).
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        config = self.config
        arrivals = list(arrivals)
        n_total = len(arrivals)
        initial = (
            schedule.shard_counts[0] if schedule is not None
            else config.n_shards
        )
        boundaries = _boundaries(n_total, initial, schedule, kill)
        routed, hot_shares = self._route(arrivals)
        traced = recorder is not None
        if recorder is not None:
            recorder.tracer.span(
                "route",
                start=routed[0].arrival.time if routed else 0.0,
                end=routed[-1].arrival.time if routed else 0.0,
                messages=n_total,
                hot_keys=len(hot_shares),
            )
        # Each arrival is routed once, on the ring of its epoch, onto
        # the whole-run list of its shard.
        ring = HashRing(range(initial))
        lists: dict[int, list[_Routed]] = {s: [] for s in ring.shard_ids}
        outcomes: dict[int, tuple] = {}  # shard id -> _run_shard's result
        victim: int | None = None
        rebalance_log: list[dict] = []
        failover_info: dict | None = None
        segment_start = 0
        for cut, action, payload in boundaries:
            for r in routed[segment_start:cut]:
                lists[ring.owner(r.route)].append(r)
            segment_start = cut
            if action == "end":
                break
            boundary_time = routed[cut].arrival.time
            live = list(ring.shard_ids)
            if action == "resize":
                ring = HashRing(itertools.islice(
                    (s for s in itertools.count() if s != victim), payload
                ))
                for shard_id in ring.shard_ids:
                    lists.setdefault(shard_id, [])
                rebalance_log.append({
                    "at_index": cut, "time": boundary_time, "kind": action,
                    "shards_before": live, "shards_after": list(ring.shard_ids),
                })
                if recorder is not None:
                    recorder.tracer.event(
                        "rebalance", boundary_time, kind=action,
                        before=len(live), after=len(ring.shard_ids),
                    )
                continue
            # The kill (_boundaries checked it can fire).  The victim's
            # list is complete, so it is scored now and stops at the
            # kill; what it leaves is requeued to the survivors at the
            # kill time, ahead of the next epoch's arrivals.
            victim = payload.shard if isinstance(payload.shard, int) else max(
                live, key=lambda s: (len(lists[s]), -s)  # most routed so far
            )
            outcomes[victim] = self._run_shard(
                victim, lists[victim], traced, self._monitor_factory(),
                stop_at=boundary_time,
            )
            leftovers = outcomes[victim][3]
            ring = ring.remove_shard(victim)
            for r in leftovers:
                lists[ring.owner(r.route)].append(dataclasses.replace(
                    r, arrival=dataclasses.replace(r.arrival, time=boundary_time)
                ))
            failover_info = {
                "at_index": cut,
                "time": boundary_time,
                "killed_shard": victim,
                "requeued_messages": len(leftovers),
                "survivors": list(ring.shard_ids),
            }
            if recorder is not None:
                recorder.tracer.event(
                    "failover", boundary_time,
                    killed=victim, requeued=len(leftovers),
                )

        # -- stage 1: every other shard scores its whole list ---------------
        rest = [s for s in sorted(lists) if s not in outcomes]
        monitors = {shard_id: self._monitor_factory() for shard_id in rest}

        def run_one(shard_id: int):
            return self._run_shard(
                shard_id, lists[shard_id], traced, monitors[shard_id]
            )

        if jobs == 1 or len(rest) == 1:
            outcomes.update(zip(rest, map(run_one, rest)))
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes.update(zip(rest, pool.map(run_one, rest)))
        scored: list[_Scored] = []
        shards: dict[int, ShardTelemetry] = {}
        for shard_id in sorted(outcomes):
            items, shards[shard_id], tracer, _ = outcomes[shard_id]
            scored.extend(items)
            if recorder is not None and tracer is not None:
                recorder.tracer.absorb(tracer)

        # -- stage 2: one state pass in stream order ------------------------
        scored.sort(key=lambda item: item.seq)
        state = self._monitor_factory()
        state_work = ScoreWork()
        completions: dict[int, float] = {}
        state_span = (
            recorder.tracer.span(
                "state_pass",
                start=min(item.end for item in scored),
                end=max(item.end for item in scored),
                messages=len(scored),
            )
            if recorder is not None and scored else None
        )
        alerts = self._apply_state(
            state, scored, state_work, shards, completions, state_span
        )
        if state_span is not None:
            state_span.annotate(alerts=len(alerts))
        alerts.sort(key=alert_sort_key)
        result = ServeResult(
            alerts=alerts,
            telemetry=ServeTelemetry(
                shards=list(shards.values()),
                monitor=state.stats,
                score_work=state_work,
            ),
            config=dataclasses.replace(config, n_shards=initial),
            ring=ring,
            hot_keys=hot_shares,
            rebalances=rebalance_log,
            failover=failover_info,
            completions=completions,
        )
        if recorder is not None:
            routed_counter = recorder.metrics.counter(
                "routed_messages", help="messages routed per shard"
            )
            for shard_id in sorted(lists):
                routed_counter.labels(shard=str(shard_id)).inc(
                    len(lists[shard_id])
                )
            result.populate_metrics(recorder.metrics)
        return result

    def serve_stream(
        self,
        messages: Iterable[StreamMessage],
        profile: LoadProfile | None = None,
        jobs: int = 1,
        recorder: RunObserver | None = None,
        schedule: RebalanceSchedule | None = None,
        kill: KillSpec | None = None,
    ) -> ServeResult:
        """Generate arrivals for ``messages`` and serve them."""
        return self.run(
            generate_arrivals(messages, profile or LoadProfile()),
            jobs=jobs,
            recorder=recorder,
            schedule=schedule,
            kill=kill,
        )
