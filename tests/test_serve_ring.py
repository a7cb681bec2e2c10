"""Ring, rebalancing, hot-key splitting, and failover tests.

The elastic counterpart of ``test_serve_runtime.py``: the headline
invariant must survive topology changes.  Merged alerts — sorted by
``(timestamp, message_id, kind)`` — stay identical to single-monitor
output across a 2→4→3 rebalance schedule, a hot-key split of the
scoring stage, and a mid-run kill of the most loaded shard, under
``jobs=1`` and ``jobs=N`` alike; and the
queue-accounting conservation law ``offered == taken + shed + dropped +
requeued + depth`` holds for every shard through all of it.
"""

import bisect
import collections
import json

import numpy as np
import pytest

from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.obs.recorder import RunObserver
from repro.serve import (
    BackpressurePolicy,
    HashRing,
    HotKeyPolicy,
    KillSpec,
    LoadProfile,
    RebalanceSchedule,
    ServeConfig,
    ServiceCostModel,
    ServingRuntime,
    alert_sort_key,
    detect_hot_keys,
    routing_key,
    salt_key,
)
from repro.serve.ring import DEFAULT_VNODES, HOTTEST
from repro.service.monitor import (
    HarassmentMonitor,
    MonitorConfig,
    TargetStateSnapshot,
)
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Source, Task
from repro.util.rng import stable_hash

CTH_TEXT = (
    "we should mass report her account until the platform bans her, "
    "twitter: targetuser99"
)
DOX_TEXT = "posting her address now: 12 elm street, phone 555-0192"


# -- fixtures ------------------------------------------------------------------

@pytest.fixture(scope="module")
def serve_models():
    history = CorpusBuilder(CorpusConfig.tiny(seed=71)).build()
    train = [d for d in history if d.platform is not Platform.BLOGS]
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in train])
    models = {
        task: LogisticRegressionClassifier(epochs=4, seed=1).fit(
            features, np.array([d.truth_for(task) for d in train])
        )
        for task in Task
    }
    return models, vectorizer


@pytest.fixture(scope="module")
def corpus_stream():
    corpus = CorpusBuilder(CorpusConfig.tiny(seed=72)).build()
    return MessageStream(
        [d for d in corpus if d.platform is not Platform.BLOGS]
    )


def _factory(serve_models, **config_kwargs):
    models, vectorizer = serve_models
    config_kwargs.setdefault("campaign_min_messages", 2)
    config = MonitorConfig(**config_kwargs)

    def make():
        return HarassmentMonitor(
            models[Task.CTH], models[Task.DOX], vectorizer, config
        )

    return make


def _msg(i, text="nothing to see", channel="c", ts=None):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a",
        timestamp=float(i) if ts is None else ts, text=text,
    )


def _baseline(factory, stream, batch_size=64):
    return sorted(factory().run(stream, batch_size=batch_size), key=alert_sort_key)


def _assert_conservation(result):
    """Every shard's ledger balances and nothing is unaccounted."""
    for shard in result.telemetry.shards:
        acct = shard.queue
        assert acct.offered == (
            acct.taken + acct.shed + acct.dropped + acct.requeued
        ), f"shard {shard.shard_id} ledger does not balance: {acct.as_dict()}"
    assert result.unaccounted == 0


# -- ring placement ------------------------------------------------------------

def test_ring_owner_is_deterministic_and_total():
    ring = HashRing(range(4))
    again = HashRing(range(4))
    keys = [f"key-{i}" for i in range(500)]
    assert [ring.owner(k) for k in keys] == [again.owner(k) for k in keys]
    owners = {ring.owner(k) for k in keys}
    assert owners == {0, 1, 2, 3}  # every shard owns a share


def test_ring_growth_moves_only_keys_to_the_new_shard():
    keys = [f"key-{i}" for i in range(2000)]
    before = HashRing(range(4))
    after = HashRing(range(5))
    moved = [k for k in keys if before.owner(k) != after.owner(k)]
    # Consistent hashing: every moved key lands on the new shard, and
    # roughly 1/5 of the keyspace moves (vs ~4/5 under modulo).
    assert moved, "the new shard must take some keys"
    assert all(after.owner(k) == 4 for k in moved)
    assert len(moved) < len(keys) / 2


def test_ring_remove_shard_moves_only_orphaned_keys():
    keys = [f"key-{i}" for i in range(2000)]
    before = HashRing(range(4))
    after = before.remove_shard(2)
    moved = [k for k in keys if before.owner(k) != after.owner(k)]
    assert all(before.owner(k) == 2 for k in moved)
    assert {after.owner(k) for k in moved} <= {0, 1, 3}


def _route_keys():
    """Routing keys of every shape: text digests, salted sub-keys, and keys
    whose ``repr`` escapes quotes, backslashes and non-ASCII characters."""
    texts = [f"message {i} for @target{i % 7}" for i in range(1200)]
    digests = [routing_key(_msg(i, text)) for i, text in enumerate(texts)]
    salted = [salt_key(key, i, 8) for i, key in enumerate(digests[:400])]
    odd = [
        f"{prefix}{i}"
        for i in range(80)
        for prefix in ("it's ", 'say "hi" ', "back\\slash ", "café ", "\u2603 ",
                       "tab\t", "\U0001f600")
    ]
    return digests + salted + odd


@pytest.mark.parametrize("n_shards", [1, 4, 12])
def test_ring_owner_is_the_bisected_point_of_the_route_hash(n_shards):
    # Placement, rebuilt from the public hash: every shard's 128 points
    # stable_hash("serve-ring", shard, replica), sorted with the shard id
    # as tie-break; a key belongs to the first point clockwise of
    # stable_hash("serve-route", key).
    points = sorted(
        (stable_hash("serve-ring", shard, replica), shard)
        for shard in range(n_shards)
        for replica in range(DEFAULT_VNODES)
    )
    hashes = [point for point, _ in points]
    ring = HashRing(range(n_shards))
    keys = _route_keys()
    assert len(keys) >= 2000
    for key in keys:
        index = bisect.bisect_right(hashes, stable_hash("serve-route", key))
        assert ring.owner(key) == points[index % len(points)][1], key


def test_stable_hash_values_are_pinned():
    # Every seeded stream (corpus draws, ring points, routing) derives
    # from these bytes: repr in UTF-8 and a unit separator per part.
    assert stable_hash("serve-route", "text:0123456789abcdef") == 0xEA63CCC1CC1B973A
    assert stable_hash("serve-ring", 0, 0) == 0x6258B9292DE62F53
    assert stable_hash(7, "boards", 3) == 0x0795F354FEBF0D37
    assert stable_hash("serve-hot", "k", 7) == 0x943F50C876CE0BD7
    assert stable_hash('it\'s "q" \\ café \u2603') == 0xD31FA725051AFAFC
    assert stable_hash() == 0xE4A6A0577479B2B4


def test_ring_validation():
    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing([-1])
    ring = HashRing([0])
    with pytest.raises(ValueError):
        ring.remove_shard(0)  # never empty the ring


# -- hot keys ------------------------------------------------------------------

def test_detect_hot_keys_threshold_and_order():
    counts = {"a": 50, "b": 30, "c": 15, "d": 5}
    policy = HotKeyPolicy(share_threshold=0.2, fanout=4)
    hot = detect_hot_keys(counts, 100, policy)
    assert list(hot) == ["a", "b"]  # descending share
    assert hot["a"] == 0.5
    assert detect_hot_keys(counts, 100, HotKeyPolicy(0.0, 4)) == {}


def test_salt_key_is_deterministic_and_bounded():
    salted = {salt_key("k", i, 8) for i in range(200)}
    assert salted == {f"k#{j}" for j in range(8)}  # full fan, nothing else
    assert salt_key("k", 7, 8) == salt_key("k", 7, 8)


# -- schedule / kill parsing ---------------------------------------------------

def test_schedule_parse():
    explicit = RebalanceSchedule.parse("2,4,3")
    assert explicit.shard_counts == (2, 4, 3)
    assert explicit.n_epochs == 3
    with pytest.raises(ValueError):
        RebalanceSchedule.parse("auto:4")  # explicit counts only
    with pytest.raises(ValueError):
        RebalanceSchedule.parse("2,x,3")
    with pytest.raises(ValueError):
        RebalanceSchedule(shard_counts=(2, 0))


def test_kill_spec_parse():
    assert KillSpec.parse("hottest").shard == HOTTEST
    assert KillSpec.parse("2", 0.25) == KillSpec(shard=2, at_fraction=0.25)
    with pytest.raises(ValueError):
        KillSpec(shard=0, at_fraction=1.0)
    with pytest.raises(ValueError):
        KillSpec(shard="coldest")
    with pytest.raises(ValueError, match="must be an id or 'hottest'"):
        KillSpec.parse("coldest")


# -- target-state snapshot contract --------------------------------------------

def test_target_state_snapshot_round_trip(serve_models):
    factory = _factory(serve_models)
    monitor = factory()
    stream = [
        _msg(i, text=CTH_TEXT, channel=f"ch{i}") for i in range(6)
    ] + [_msg(10 + i, text=DOX_TEXT, channel="dox") for i in range(3)]
    monitor.run(stream, batch_size=4)
    handles = monitor.state_handles()
    assert handles, "the stream must create per-target state"
    snapshot = monitor.snapshot_target_state()
    restored = TargetStateSnapshot.from_dict(
        json.loads(json.dumps(snapshot.as_dict()))
    )
    assert restored == snapshot
    assert restored.handles() == handles


def test_extract_restore_moves_state_between_monitors(serve_models):
    factory = _factory(serve_models)
    donor, heir = factory(), factory()
    prefix = [_msg(i, text=CTH_TEXT, channel=f"ch{i}") for i in range(3)]
    suffix = [_msg(100 + i, text=CTH_TEXT, channel="late") for i in range(3)]
    # Uninterrupted run on one monitor...
    solo = factory()
    expected = [a for b in (prefix, suffix) for a in solo.process_batch(b)]
    # ...vs a mid-stream handoff through the snapshot contract.
    alerts = donor.process_batch(prefix)
    moved = donor.extract_target_state(donor.state_handles())
    assert donor.state_handles() == ()  # extraction is a move, not a copy
    heir.restore_target_state(moved)
    alerts += heir.process_batch(suffix)
    assert alerts == expected


# -- elastic equivalence -------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
def test_rebalance_schedule_preserves_alerts(
    serve_models, corpus_stream, jobs
):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    assert baseline
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        jobs=jobs,
        schedule=RebalanceSchedule.parse("2,4,3"),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert len(result.rebalances) == 2
    assert result.rebalances[0]["shards_after"] == [0, 1, 2, 3]
    assert result.rebalances[1]["shards_after"] == [0, 1, 2]
    assert tuple(result.ring.shard_ids) == (0, 1, 2)
    assert result.telemetry.monitor.messages_processed == len(
        corpus_stream
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_kill_hottest_shard_preserves_alerts(serve_models, corpus_stream, jobs):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=4))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        jobs=jobs,
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert result.failover is not None
    victim = result.failover["killed_shard"]
    assert victim not in result.ring.shard_ids
    assert len(result.ring.shard_ids) == 3
    # The victim's queue transferred out through the requeued bucket.
    victim_acct = next(
        s.queue for s in result.telemetry.shards if s.shard_id == victim
    )
    assert victim_acct.requeued == result.failover["requeued_messages"]


def test_kill_then_rebalance_compose(serve_models, corpus_stream):
    factory = _factory(serve_models)
    baseline = _baseline(factory, corpus_stream)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    result = runtime.serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=5000, seed=3),
        schedule=RebalanceSchedule.parse("2,4,3"),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    # The killed shard never rejoins the fleet in later epochs.
    victim = result.failover["killed_shard"]
    assert victim not in result.ring.shard_ids
    assert victim not in result.rebalances[-1]["shards_after"]


def test_hottest_is_the_shard_with_the_most_arrivals_routed_before_the_kill(
    serve_models,
):
    # The stream serve-bench replays at its default seed 7: the non-blog
    # documents of the seed-8 tiny corpus.
    live = CorpusBuilder(CorpusConfig.tiny(seed=8)).build()
    stream = MessageStream([d for d in live if d.platform is not Platform.BLOGS])
    kill = KillSpec(shard=HOTTEST, at_fraction=0.5)
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=4))
    result = runtime.serve_stream(stream, LoadProfile(seed=7), kill=kill)
    messages = list(stream)  # arrival order
    cut = int(len(messages) * kill.at_fraction)
    ring = HashRing(range(4))
    routed = collections.Counter(
        ring.owner(routing_key(message)) for message in messages[:cut]
    )
    # Most arrivals routed before the cut, ties to the lowest id.
    expected = min(ring.shard_ids, key=lambda shard: (-routed[shard], shard))
    assert result.failover["at_index"] == cut
    assert result.failover["killed_shard"] == expected


# -- a boundary changes only where later arrivals go ----------------------------

@pytest.mark.parametrize("schedule", ["4,4", "4,4,4"])
def test_no_op_schedule_reports_the_plain_runs_telemetry(
    serve_models, corpus_stream, schedule
):
    # Each shard id has one server for the whole run, so a boundary
    # that keeps the ring changes nothing any shard does.
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=4))
    profile = LoadProfile(rate_per_second=5000, seed=3)
    plain = runtime.serve_stream(corpus_stream, profile)
    resized = runtime.serve_stream(
        corpus_stream, profile, schedule=RebalanceSchedule.parse(schedule)
    )
    assert resized.telemetry.as_dict() == plain.telemetry.as_dict()
    assert resized.completions == plain.completions


def test_growth_under_overload_never_serves_two_batches_at_once(
    serve_models, corpus_stream
):
    recorder = RunObserver("serve")
    result = ServingRuntime(
        _factory(serve_models), ServeConfig(n_shards=4)
    ).serve_stream(
        corpus_stream,
        LoadProfile(rate_per_second=8000, seed=3),
        recorder=recorder,
        schedule=RebalanceSchedule.parse("4,4,8,12"),
    )
    # Overloaded: backlogs grow past a batch.
    assert result.telemetry.fleet().queue.max_depth > ServeConfig().batch_size
    batches: dict[int, list] = {}
    for span in recorder.tracer.spans():
        if span.name == "batch":
            batches.setdefault(span.labels["shard"], []).append(span)
    assert len(batches) == 12
    for spans in batches.values():
        spans.sort(key=lambda span: span.start)
        for before, after in zip(spans, spans[1:]):
            assert after.start >= before.end


@pytest.mark.parametrize(
    "kill", [None, KillSpec(HOTTEST, 0.5)], ids=["plain", "kill"]
)
def test_alert_completions_never_decrease_in_stream_order(
    serve_models, corpus_stream, kill
):
    # An alert completes at the stream-order watermark: no alerting
    # message completes before one ahead of it in the stream.
    result = ServingRuntime(
        _factory(serve_models), ServeConfig(n_shards=4)
    ).serve_stream(
        corpus_stream, LoadProfile(rate_per_second=5000, seed=3), kill=kill
    )
    position = {m.message_id: i for i, m in enumerate(corpus_stream)}
    done = [
        result.completions[message_id]
        for message_id in sorted(result.completions, key=position.__getitem__)
    ]
    assert len(done) > 100
    assert done == sorted(done)


def test_kill_last_shard_is_rejected(serve_models):
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=1))
    with pytest.raises(ValueError):
        runtime.serve_stream(
            [_msg(i) for i in range(8)],
            LoadProfile(rate_per_second=100, seed=1),
            kill=KillSpec(shard=0, at_fraction=0.5),
        )


@pytest.mark.parametrize(
    "counts, kill, message",
    [
        ("4,2", KillSpec(shard=3, at_fraction=0.75),
         r"cannot kill shard 3: not on the ring \(live: \[0, 1\]\)"),
        ("4,1", KillSpec(shard=HOTTEST, at_fraction=0.75),
         "cannot kill the last live shard"),
    ],
    ids=["victim-not-live", "last-live-shard"],
)
def test_kill_that_cannot_fire_is_rejected_before_any_shard_is_built(
    serve_models, counts, kill, message
):
    # Regression: the kill was checked only when it fired, after the
    # run had built its monitors and scored the epochs before it.  The
    # shards live at the kill follow from the schedule alone.
    make = _factory(serve_models)
    built = []

    def factory():
        built.append(make())
        return built[-1]

    runtime = ServingRuntime(factory, ServeConfig(n_shards=4))
    with pytest.raises(ValueError, match=message):
        runtime.serve_stream(
            [_msg(i) for i in range(64)],
            LoadProfile(rate_per_second=100, seed=1),
            schedule=RebalanceSchedule.parse(counts),
            kill=kill,
        )
    assert built == []


# -- hot-key split --------------------------------------------------------------

def _viral_stream():
    """One text, naming one handle, is reposted verbatim for a third of
    the traffic; plenty of cold traffic around it."""
    messages = []
    for i in range(240):
        if i % 3 == 0:
            messages.append(_msg(i, text=CTH_TEXT, channel=f"ch{i % 7}"))
        else:
            messages.append(_msg(i, text=f"benign chatter {i}", channel=f"c{i % 31}"))
    return messages


def test_hot_handle_splits_scoring_but_not_state(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    campaign = [a for a in baseline if a.kind.value == "campaign"]
    assert campaign, "the viral handle must trip stateful campaign alerts"
    config = ServeConfig(
        n_shards=4, batch_size=16, hot_key_share=0.05, hot_key_fanout=4
    )
    result = ServingRuntime(factory, config).serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3)
    )
    assert routing_key(_msg(0, text=CTH_TEXT)) in result.hot_keys
    assert result.alerts == baseline
    _assert_conservation(result)
    # The split actually spread the hot key: its traffic is no longer
    # pinned to a single shard.
    assert result.telemetry.load_skew < 2.0
    # Its state did not split: the keyed state raised every campaign.
    assert result.telemetry.monitor.campaigns_alerted == len(campaign)


def test_hot_split_disabled_still_equivalent(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    config = ServeConfig(n_shards=4, batch_size=16, hot_key_share=0.0)
    result = ServingRuntime(factory, config).serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3)
    )
    assert result.hot_keys == {}
    assert result.alerts == baseline


def test_hot_split_composes_with_kill(serve_models):
    factory = _factory(serve_models)
    stream = _viral_stream()
    baseline = _baseline(factory, stream, batch_size=16)
    config = ServeConfig(
        n_shards=4, batch_size=16, hot_key_share=0.05, hot_key_fanout=4
    )
    result = ServingRuntime(factory, config).serve_stream(
        stream,
        LoadProfile(rate_per_second=5000, seed=3),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.4),
    )
    assert result.alerts == baseline
    _assert_conservation(result)
    assert result.failover is not None and result.hot_keys


def test_hot_handle_alerts_are_timed_and_complete_by_the_last_batch_end(
    serve_models,
):
    factory = _factory(serve_models)
    stream = _viral_stream()
    config = ServeConfig(
        n_shards=4, batch_size=16, hot_key_share=0.05, hot_key_fanout=4,
    )
    recorder = RunObserver("serve")
    result = ServingRuntime(factory, config).serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3), recorder=recorder
    )
    assert routing_key(_msg(0, text=CTH_TEXT)) in result.hot_keys
    assert result.alerts == _baseline(factory, stream, batch_size=16)
    # Every alert, hot handle or not, is in the latency histogram and
    # in the trace.
    assert result.telemetry.fleet().alert_latency.count == len(result.alerts)
    alert_events = [e for e in recorder.tracer.events() if e.name == "alert"]
    assert len(alert_events) == len(result.alerts)
    # Every alerting message completes at the watermark, which the
    # last batch end bounds.
    last_batch_end = max(s.last_batch_end for s in result.telemetry.shards)
    assert set(result.completions) == {a.message_id for a in result.alerts}
    assert max(result.completions.values()) <= last_batch_end


# -- conservation under lossy policies -----------------------------------------

def _overload_config(policy, n_shards=2):
    return ServeConfig(
        n_shards=n_shards, batch_size=4, max_delay_seconds=0.01,
        queue_capacity=4, policy=policy,
        cost=ServiceCostModel(
            batch_overhead_seconds=0.0, per_message_seconds=1.0,
            per_char_seconds=0.0,
        ),
    )


def test_conservation_across_mid_drain_rebalance(serve_models):
    runtime = ServingRuntime(
        _factory(serve_models),
        _overload_config(BackpressurePolicy.DROP_OLDEST),
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        schedule=RebalanceSchedule.parse("2,3,2"),
    )
    _assert_conservation(result)
    fleet = result.telemetry.fleet().queue
    assert fleet.dropped > 0  # overload actually bit
    assert fleet.taken + fleet.dropped + fleet.shed + fleet.requeued == fleet.offered


def test_conservation_across_drop_oldest_shard_kill(serve_models):
    runtime = ServingRuntime(
        _factory(serve_models),
        _overload_config(BackpressurePolicy.DROP_OLDEST),
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    _assert_conservation(result)
    fleet = result.telemetry.fleet().queue
    assert fleet.dropped > 0
    assert fleet.requeued == result.failover["requeued_messages"]
    # Requeued messages were re-offered downstream: the fleet saw more
    # offers than the stream has messages, yet none went unaccounted.
    assert fleet.offered == 64 + fleet.requeued


def test_shed_newest_kill_conservation(serve_models):
    runtime = ServingRuntime(
        _factory(serve_models),
        _overload_config(BackpressurePolicy.SHED_NEWEST),
    )
    result = runtime.serve_stream(
        [_msg(i, channel=f"c{i % 13}") for i in range(64)],
        LoadProfile(rate_per_second=1e6, seed=2),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    _assert_conservation(result)
    assert result.telemetry.fleet().queue.shed > 0


# -- determinism of the elastic paths ------------------------------------------

def test_elastic_run_fully_deterministic(serve_models, corpus_stream):
    factory = _factory(serve_models)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    profile = LoadProfile(rate_per_second=5000, seed=3)
    kwargs = dict(
        schedule=RebalanceSchedule.parse("2,4,3"),
        kill=KillSpec(shard=HOTTEST, at_fraction=0.5),
    )
    first = runtime.serve_stream(corpus_stream, profile, jobs=1, **kwargs)
    second = runtime.serve_stream(corpus_stream, profile, jobs=4, **kwargs)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
