"""Keyed state pass tests: messages naming handles scored on different shards.

The serving runtime scores on shards, then applies the scored messages
in stream order to the run's one state monitor, keyed by handle.  A
detection naming ``[h1, h2]``, scored on another shard than ``h2``'s
earlier detections, must still see them, so the merged alerts and
monitor stats equal a single monitor's — with shards, threads,
rebalances, a mid-run kill, and tenants that name the same handles —
and no target state ever moves between monitors.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.gateway import Gateway, GatewayConfig, TenantConfig, TenantRegistry
from repro.nlp.features import HashingVectorizer
from repro.obs.recorder import RunObserver
from repro.score.core import extract_targets
from repro.serve import (
    Arrival,
    HashRing,
    KillSpec,
    LoadProfile,
    RebalanceSchedule,
    ServeConfig,
    ServiceCostModel,
    ServingRuntime,
    alert_sort_key,
    generate_arrivals,
    routing_key,
)
from repro.serve.ring import HOTTEST
from repro.service.monitor import AlertKind, HarassmentMonitor, MonitorConfig
from repro.service.stream import StreamMessage
from repro.types import Platform, Source

TENANTS = ("alpha", "beta")
CONFIG = MonitorConfig(campaign_min_messages=2)
#: the uniform rings every split below must hold on
RINGS = [HashRing(range(n_shards)) for n_shards in (2, 4)]


class _ConstantModel:
    """Scores every row with a fixed probability."""

    def __init__(self, probability):
        self.probability = probability

    def predict_proba(self, features):
        return np.full(features.shape[0], self.probability)


def _factory(config=CONFIG, monitors=None):
    """Monitors where every message is a CTH detection and none a dox."""

    def make():
        monitor = HarassmentMonitor(
            _ConstantModel(0.9), _ConstantModel(0.1), HashingVectorizer(),
            config,
        )
        if monitors is not None:
            monitors.append(monitor)
        return monitor

    return make


def _msg(i, text):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=f"c{i % 5}", author="a", timestamp=float(i), text=text,
    )


def _split(first, second, rings=RINGS):
    """Whether two messages are scored on different shards of every ring."""
    return all(
        ring.owner(routing_key(first)) != ring.owner(routing_key(second))
        for ring in rings
    )


def _split_pairs(n, texts, rings=RINGS):
    """``n`` name pairs ``(a, b)`` whose two texts ``texts(a, b)`` are
    scored on different shards of every ring in ``rings``."""
    pairs = []
    for i in itertools.count():
        a, b = f"victim_{i}", f"target_{i}"
        if _split(*(_msg(0, text) for text in texts(a, b)), rings):
            pairs.append((a, b))
            if len(pairs) == n:
                return pairs


def _pair_texts(a, b):
    """A detection naming ``twitter: b``, then one naming both
    ``instagram: a`` and ``twitter: b`` (instagram sorts first, so ``a``
    is its primary handle)."""
    return (
        f"mass report her, twitter: {b}",
        f"spam her, instagram: {a} and twitter: {b}",
    )


def _split_stream(repeats=3):
    """Per pair: the two texts of :func:`_pair_texts`, scored on
    different shards, then benign padding.

    Each pair's texts are under the default hot-key share, so they are
    scored on their owners, not split; the shared padding text is hot,
    so its scoring fans out over salted sub-keys.
    """
    messages = []
    ids = itertools.count()
    pairs = _split_pairs(20, _pair_texts)
    for _ in range(repeats):
        for a, b in pairs:
            first, second = (
                _msg(next(ids), text) for text in _pair_texts(a, b)
            )
            assert _split(first, second)
            padding = _msg(next(ids), "lovely weather today")
            messages += [first, second, padding]
    return messages


def _single(messages):
    monitor = _factory()()
    alerts = sorted(monitor.run(messages, batch_size=64), key=alert_sort_key)
    return alerts, monitor.stats


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_secondary_handle_sees_detections_scored_on_other_shards(
    n_shards, jobs
):
    stream = _split_stream()
    expected, stats = _single(stream)
    # The test bites: h2's campaign fires on the [h1, h2] message.
    assert any(
        a.kind is AlertKind.CAMPAIGN and a.target_handle.startswith("twitter:")
        and a.message_id % 3 == 1
        for a in expected
    )
    result = ServingRuntime(
        _factory(), ServeConfig(n_shards=n_shards, batch_size=8)
    ).serve_stream(stream, LoadProfile(rate_per_second=5000, seed=3), jobs=jobs)
    assert result.alerts == expected
    assert result.telemetry.monitor.as_dict() == stats.as_dict()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "elastic",
    [
        {"schedule": RebalanceSchedule.parse("2,4,3")},
        {"kill": KillSpec(HOTTEST, 0.5)},
    ],
    ids=["rebalance", "kill"],
)
def test_rebalances_and_kills_move_no_target_state(monkeypatch, elastic, jobs):
    def refuse(self, *args, **kwargs):
        raise AssertionError("target state moved between monitors")

    for method in (
        "snapshot_target_state", "extract_target_state", "restore_target_state"
    ):
        monkeypatch.setattr(HarassmentMonitor, method, refuse)
    stream = _split_stream()
    expected, stats = _single(stream)
    result = ServingRuntime(
        _factory(), ServeConfig(n_shards=4, batch_size=8)
    ).serve_stream(
        stream, LoadProfile(rate_per_second=1e6, seed=3), jobs=jobs,
        **elastic,
    )
    assert result.rebalances or result.failover["requeued_messages"] > 0
    assert result.alerts == expected
    assert result.telemetry.monitor.as_dict() == stats.as_dict()
    assert result.unaccounted == 0


def test_secondary_handle_state_survives_a_kill():
    stream = _split_stream(repeats=6)
    expected, stats = _single(stream)
    result = ServingRuntime(
        _factory(), ServeConfig(n_shards=4, batch_size=8)
    ).serve_stream(
        stream,
        # A flood: the victim still has queued messages when it dies.
        LoadProfile(rate_per_second=1e6, seed=3),
        kill=KillSpec(HOTTEST, 0.5),
    )
    assert result.failover["requeued_messages"] > 0
    assert result.alerts == expected
    assert result.telemetry.monitor.as_dict() == stats.as_dict()
    assert result.unaccounted == 0


def _dense_sparse_texts(a, b):
    return f"mass report her, instagram: {a}", f"mass report her, twitter: {b}"


def test_messages_after_a_kill_complete_after_the_requeued_ones_before_them():
    # A dense text and a sparse one on different shards, one second per
    # message: the dense text's owner is the hottest shard, and it dies
    # with all but its first message still queued.  The sparse messages
    # the survivor scored meanwhile wait at the watermark for those
    # requeued ones, and must be timed no earlier than them.
    two_shards = RINGS[:1]
    (pair,) = _split_pairs(1, _dense_sparse_texts, two_shards)
    dense, sparse = _dense_sparse_texts(*pair)
    stream = [_msg(i, sparse if i % 5 == 4 else dense) for i in range(40)]
    assert _split(stream[0], stream[4], two_shards)
    config = ServeConfig(
        n_shards=2, batch_size=1, queue_capacity=64, hot_key_share=0.0,
        cost=ServiceCostModel(
            batch_overhead_seconds=0.0, per_message_seconds=1.0,
            per_char_seconds=0.0, extract_per_char_seconds=0.0,
            state_per_detection_seconds=0.0,
        ),
    )
    recorder = RunObserver("serve")
    result = ServingRuntime(_factory(), config).serve_stream(
        stream, LoadProfile(rate_per_second=1e6, seed=3),
        kill=KillSpec(HOTTEST, 0.5), recorder=recorder,
    )
    assert result.alerts == _single(stream)[0]
    first_half = stream[:result.failover["at_index"]]
    requeued = [m for m in first_half[1:] if m.message_id % 5 != 4]
    assert result.failover["requeued_messages"] == len(requeued)
    done = result.completions
    waiting = [m for m in first_half if m.message_id % 5 == 4]
    for message in waiting:
        waited_for = [
            done[m.message_id] for m in requeued
            if m.message_id < message.message_id
        ]
        assert done[message.message_id] >= max(waited_for)
    # Alerts are timed when their message completes, in the trace and
    # in the latency histogram alike.
    alert_times = [e.ts for e in recorder.tracer.events() if e.name == "alert"]
    assert sorted(alert_times) == sorted(
        done[a.message_id] for a in result.alerts
    )
    assert result.telemetry.fleet().alert_latency.count == len(result.alerts)
    last_batch_end = max(s.last_batch_end for s in result.telemetry.shards)
    assert max(done.values()) <= last_batch_end


@pytest.mark.parametrize("kill", [None, KillSpec(HOTTEST, 0.5)])
def test_tenants_naming_the_same_handles_stay_isolated(kill):
    # Every message is sent twice, once per tenant: both tenants name
    # the same handles, and each tenant's pairs split across owners.
    stream = _split_stream()
    messages = [
        dataclasses.replace(m, message_id=2 * m.message_id + k)
        for m in stream for k in range(2)
    ]
    arrivals = [
        Arrival(a.time, a.message, TENANTS[a.message.message_id % 2])
        for a in generate_arrivals(
            messages, LoadProfile(rate_per_second=5000, seed=3)
        )
    ]
    registry = TenantRegistry(5, [
        TenantConfig(tenant=t, rate_per_second=1e9, burst=1_000_000)
        for t in TENANTS
    ])
    gateway = Gateway(
        registry, _factory(), ServeConfig(n_shards=4, batch_size=8),
        GatewayConfig(fleet_rate_per_second=1e9, fleet_burst=1_000_000),
    )
    result = gateway.handle(arrivals, registry.credentials(), kill=kill)
    assert result.admitted == len(arrivals)
    for tenant in TENANTS:
        solo = [a.message for a in result.admitted_arrivals if a.tenant == tenant]
        expected, _ = _single(solo)
        assert any(a.kind is AlertKind.CAMPAIGN for a in expected)
        assert result.alerts_by_tenant[tenant] == expected


def test_eviction_bounds_the_one_state_monitor():
    window = 10.0
    monitors = []
    factory = _factory(
        MonitorConfig(campaign_min_messages=2, campaign_window_seconds=window),
        monitors,
    )
    stream = _split_stream(repeats=4)
    result = ServingRuntime(
        factory, ServeConfig(n_shards=4, batch_size=8)
    ).serve_stream(stream, LoadProfile(rate_per_second=5000, seed=3))
    assert result.alerts
    handles = {h for m in stream for h in extract_targets(m.text).handles}
    # The shards' monitors only score: one monitor holds every target.
    (state,) = [monitor for monitor in monitors if monitor.state_handles()]
    snapshot = state.snapshot_target_state()
    horizon = snapshot.watermark - window
    assert all(events[-1][0] >= horizon for _, events in snapshot.activity)
    assert all(ts >= horizon for _, ts in snapshot.campaign_alerted_at)
    assert all(ts >= horizon for _, ts in snapshot.last_cth_at)
    # Old targets were evicted, not kept around.
    assert len(snapshot.handles()) < len(handles)
