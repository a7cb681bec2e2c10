"""Sharded, micro-batching serving runtime for the moderation service.

The deployment the paper's release intent implies (§3, §9.2) has to
score messages *online* at ingest rate.  This package turns the
single-object :class:`repro.service.HarassmentMonitor` into a serving
fleet that works in two stages.  Stateless scoring: a consistent-hash
ring (seeded virtual nodes) partitions the stream across shards by a
digest of each message's text, so identical texts meet on one shard's
caches; each shard consumes a bounded queue through a micro-batcher
with configurable overload policies and extracts PII only from its
detections; a hot routing key (a literal repost storm) fans out over
salted sub-keys.  Keyed state: the coordinator then applies the scored
messages in stream order to one state monitor per run, which keys
every target handle's campaign/escalation state by handle.  Telemetry
plus a deterministic open-loop load generator make latency, throughput,
and shed/drop behaviour measurable without ever reading a wall clock.
The ring is elastic: a rebalance schedule resizes the fleet to
explicit shard counts at epoch boundaries, and a mid-run shard kill
requeues queued work to the survivors.  These are the only topology
changes.  Each shard id keeps one server for the whole run, so a
boundary changes only where later arrivals go, and no target state
moves.  The state pass applies a message, and its alerts complete,
when the stream-order watermark passes it: the maximum batch end over
it and every earlier message, so later messages wait for requeued
ones.

``repro serve-bench`` drives it from the CLI; the headline invariant —
merged sharded alerts identical to single-monitor output — is asserted
in ``tests/test_serve_runtime.py``.
"""

from repro.serve.batching import CostBreakdown, MicroBatcher, ServiceCostModel
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.queueing import (
    BackpressurePolicy,
    BoundedQueue,
    QueueAccounting,
    QueuedMessage,
)
from repro.serve.ring import (
    HashRing,
    HotKeyPolicy,
    KillSpec,
    RebalanceSchedule,
    detect_hot_keys,
    salt_key,
)
from repro.serve.runtime import (
    ServeConfig,
    ServeResult,
    ServingRuntime,
    alert_sort_key,
    routing_key,
)
from repro.serve.telemetry import ServeTelemetry, ShardTelemetry

__all__ = [
    "Arrival",
    "BackpressurePolicy",
    "BoundedQueue",
    "CostBreakdown",
    "HashRing",
    "HotKeyPolicy",
    "KillSpec",
    "LoadProfile",
    "MicroBatcher",
    "QueueAccounting",
    "QueuedMessage",
    "RebalanceSchedule",
    "ServeConfig",
    "ServeResult",
    "ServeTelemetry",
    "ServiceCostModel",
    "ServingRuntime",
    "ShardTelemetry",
    "alert_sort_key",
    "detect_hot_keys",
    "generate_arrivals",
    "routing_key",
    "salt_key",
]
