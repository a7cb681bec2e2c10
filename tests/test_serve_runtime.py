"""Serving-runtime tests: shard equivalence, overload, drain, determinism.

The headline invariant: with stable content routing and the lossless
``block`` policy, the merged alert stream of the sharded runtime —
sorted by ``(timestamp, message_id, kind)`` — is identical, field for
field, to single-monitor ``HarassmentMonitor.run`` output for any shard
count.  Asserted for shards 1/2/4 over two corpus profiles.
"""

import dataclasses
import json
import pickle
import re

import numpy as np
import pytest

from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.serve import (
    Arrival,
    BackpressurePolicy,
    HashRing,
    LoadProfile,
    ServeConfig,
    ServiceCostModel,
    ServingRuntime,
    alert_sort_key,
    routing_key,
)
from repro.service.monitor import HarassmentMonitor, MonitorConfig
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Source, Task

CTH_TEXT = (
    "we should mass report her account until the platform bans her, "
    "twitter: targetuser99"
)


# -- fixtures ------------------------------------------------------------------

@pytest.fixture(scope="module")
def serve_models():
    """CTH/dox filters trained on a held-out history corpus."""
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
def stream_profiles(tiny_corpus):
    """Two distinct corpus profiles to replay (different seeds/mixes)."""
    other = CorpusBuilder(
        CorpusConfig.tiny(seed=72)
    ).build()
    return {
        "seed7": MessageStream(
            [d for d in tiny_corpus if d.platform is not Platform.BLOGS]
        ),
        "seed72": MessageStream(
            [d for d in other if d.platform is not Platform.BLOGS]
        ),
    }


def _factory(serve_models, monitor_class=HarassmentMonitor, **config_kwargs):
    models, vectorizer = serve_models
    config_kwargs.setdefault("campaign_min_messages", 2)
    config = MonitorConfig(**config_kwargs)

    def make():
        return monitor_class(
            models[Task.CTH], models[Task.DOX], vectorizer, config
        )

    return make


def _msg(i, text="nothing to see", channel="c", ts=None):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a",
        timestamp=float(i) if ts is None else ts, text=text,
    )


def _shard_for(message, n_shards):
    """Owner of ``message``'s routing key on a uniform ``n_shards`` ring."""
    return HashRing(range(n_shards)).owner(routing_key(message))


class _RecordingMonitor(HarassmentMonitor):
    """A real monitor that records the message ids its shard scores, in order.

    The hook sits on the scoring core, not on ``process_scored``: the
    state pass re-sorts messages into stream order, so only the scoring
    calls show the order the shard's queue released them in.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[int] = []
        score_messages = self.core.score_messages

        def recording(messages, *args, **kwargs):
            self.seen.extend(m.message_id for m in messages)
            return score_messages(messages, *args, **kwargs)

        self.core.score_messages = recording


# -- headline equivalence ------------------------------------------------------

@pytest.mark.parametrize("profile", ["seed7", "seed72"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_shard_equivalence(serve_models, stream_profiles, n_shards, profile):
    stream = stream_profiles[profile]
    factory = _factory(serve_models)
    baseline = sorted(factory().run(stream, batch_size=64), key=alert_sort_key)
    assert baseline, "profile must actually raise alerts for the test to bite"
    runtime = ServingRuntime(factory, ServeConfig(n_shards=n_shards))
    result = runtime.serve_stream(stream, LoadProfile(rate_per_second=5000, seed=3))
    # Field-for-field: Alert is a frozen dataclass, == compares all fields.
    assert result.alerts == baseline
    assert result.unaccounted == 0
    assert result.telemetry.messages_scored == len(stream)
    scored = sum(s.messages_scored for s in result.telemetry.shards)
    assert scored == len(stream)


def test_equivalence_independent_of_load_profile(serve_models, stream_profiles):
    stream = stream_profiles["seed72"]
    factory = _factory(serve_models)
    runtime = ServingRuntime(factory, ServeConfig(n_shards=2))
    calm = runtime.serve_stream(stream, LoadProfile(rate_per_second=500, seed=1))
    storm = runtime.serve_stream(
        stream,
        LoadProfile(rate_per_second=50_000, burst_every=100, burst_size=50, seed=9),
    )
    # Arrival pressure changes latency/queueing, never the alert stream
    # (block policy loses nothing).
    assert calm.alerts == storm.alerts
    assert calm.telemetry.makespan_seconds > storm.telemetry.makespan_seconds


def test_parallel_shard_simulation_identical(serve_models, stream_profiles):
    stream = stream_profiles["seed72"]
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=4))
    profile = LoadProfile(rate_per_second=5000, seed=3)
    sequential = runtime.serve_stream(stream, profile, jobs=1)
    # Every shard's monitor scores with these three objects.  No lint
    # rule sees writes to an instance's state; their bytes do.
    models, vectorizer = serve_models
    shared = (models[Task.CTH], models[Task.DOX], vectorizer)
    before = pickle.dumps(shared)
    threaded = runtime.serve_stream(stream, profile, jobs=4)
    assert pickle.dumps(shared) == before
    assert sequential.alerts == threaded.alerts
    assert json.dumps(sequential.as_dict(), sort_keys=True) == json.dumps(
        threaded.as_dict(), sort_keys=True
    )


def test_run_is_deterministic(serve_models, stream_profiles):
    stream = stream_profiles["seed72"]
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=3))
    profile = LoadProfile(rate_per_second=2000, seed=11)
    first = runtime.serve_stream(stream, profile)
    second = runtime.serve_stream(stream, profile)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )


# -- routing -------------------------------------------------------------------

def test_equal_texts_share_one_key_and_owner():
    # Scoring is a pure function of the text, so equal texts meet on one
    # shard whatever else their messages differ in.
    variants = [
        _msg(1, text=CTH_TEXT, channel="News"),
        _msg(2, text=CTH_TEXT, channel="news"),
        dataclasses.replace(
            _msg(3, text=CTH_TEXT), platform=Platform.CHAT,
            source=Source.DISCORD,
        ),
        dataclasses.replace(_msg(4, text=CTH_TEXT), tenant="alpha"),
        dataclasses.replace(_msg(5, text=CTH_TEXT), tenant="beta"),
    ]
    assert len({routing_key(m) for m in variants}) == 1
    for n_shards in (1, 2, 3, 8):
        assert len({_shard_for(m, n_shards) for m in variants}) == 1


def test_different_texts_get_different_keys():
    texts = [
        CTH_TEXT, CTH_TEXT + " ", CTH_TEXT.upper(), "lovely weather",
        *(f"benign chatter {i}" for i in range(500)),
    ]
    keys = {routing_key(_msg(i, text=text)) for i, text in enumerate(texts)}
    assert len(keys) == len(texts)


def test_routing_key_is_fixed_width_and_never_holds_the_text():
    # A hot key lands in reports and traces: it must not leak the text.
    for text in (
        "", "hi", CTH_TEXT, "twitter: targetuser99", "héllo wörld ✓",
        "x" * 10_000,
    ):
        key = routing_key(_msg(0, text=text))
        assert re.fullmatch(r"text:[0-9a-f]{16}", key)
        if text:
            assert text not in key


# -- overload & backpressure ---------------------------------------------------

def _overload_runtime(serve_models, policy, **kwargs):
    config = ServeConfig(
        n_shards=1,
        batch_size=kwargs.pop("batch_size", 4),
        max_delay_seconds=0.01,
        queue_capacity=kwargs.pop("queue_capacity", 4),
        policy=policy,
        # Server far slower than the arrival process: queues must overflow.
        cost=ServiceCostModel(
            batch_overhead_seconds=0.0,
            per_message_seconds=1.0,
            per_char_seconds=0.0,
        ),
    )
    return ServingRuntime(_factory(serve_models), config)


def _flood():
    # Everything arrives almost at once.
    return LoadProfile(rate_per_second=1e6, seed=2)


def test_shed_newest_bounds_queue_and_accounts_everything(serve_models):
    runtime = _overload_runtime(serve_models, BackpressurePolicy.SHED_NEWEST)
    result = runtime.serve_stream([_msg(i) for i in range(64)], _flood())
    acct = result.telemetry.shards[0].queue
    assert acct.max_depth <= 4
    assert acct.shed > 0 and acct.dropped == 0
    assert acct.offered == 64
    assert acct.taken + acct.shed == 64
    assert result.unaccounted == 0
    assert result.telemetry.messages_scored == acct.taken
    # Shed-newest keeps the *oldest* messages: the earliest ids survive.
    monitor_seen = result.telemetry.monitor.messages_processed
    assert monitor_seen == acct.taken


def test_drop_oldest_bounds_queue_and_keeps_newest(serve_models):
    runtime = _overload_runtime(serve_models, BackpressurePolicy.DROP_OLDEST)
    messages = [_msg(i) for i in range(64)]
    result = runtime.serve_stream(messages, _flood())
    acct = result.telemetry.shards[0].queue
    assert acct.max_depth <= 4
    assert acct.dropped > 0 and acct.shed == 0
    assert acct.taken + acct.dropped == 64
    assert result.unaccounted == 0


def test_block_policy_loses_nothing_under_flood(serve_models):
    runtime = _overload_runtime(serve_models, BackpressurePolicy.BLOCK)
    result = runtime.serve_stream([_msg(i) for i in range(64)], _flood())
    acct = result.telemetry.shards[0].queue
    assert acct.shed == acct.dropped == 0
    assert acct.taken == 64
    assert acct.max_depth > 4  # backlog grew past "capacity"
    assert result.unaccounted == 0


def test_drop_oldest_processes_newest_ids(serve_models):
    monitors = []
    make = _factory(serve_models, monitor_class=_RecordingMonitor)

    def factory():
        monitor = make()
        monitors.append(monitor)
        return monitor

    config = ServeConfig(
        n_shards=1, batch_size=4, max_delay_seconds=0.01, queue_capacity=4,
        policy=BackpressurePolicy.DROP_OLDEST,
        cost=ServiceCostModel(
            batch_overhead_seconds=0.0, per_message_seconds=1.0,
            per_char_seconds=0.0,
        ),
    )
    result = ServingRuntime(factory, config).serve_stream(
        [_msg(i) for i in range(64)], _flood()
    )
    assert result.unaccounted == 0
    seen = monitors[0].seen
    assert seen == sorted(seen)  # FIFO order preserved for survivors
    assert 63 in seen  # the newest message survived the flood


# -- batching & drain ----------------------------------------------------------

def test_drain_flushes_partial_batches(serve_models, stream_profiles):
    # A stream far smaller than one batch still gets fully served.
    stream = list(stream_profiles["seed72"])[:5]
    runtime = ServingRuntime(
        _factory(serve_models), ServeConfig(n_shards=2, batch_size=64)
    )
    result = runtime.serve_stream(stream, LoadProfile(rate_per_second=10, seed=4))
    assert result.telemetry.messages_scored == 5
    assert result.unaccounted == 0


def test_deadline_flush_caps_queue_wait(serve_models):
    # Arrivals 1s apart with a 10ms deadline: every message flushes as a
    # singleton batch, so queue wait is bounded by the deadline.
    config = ServeConfig(
        n_shards=1, batch_size=8, max_delay_seconds=0.01, queue_capacity=8,
        cost=ServiceCostModel(
            batch_overhead_seconds=1e-4, per_message_seconds=1e-5,
            per_char_seconds=0.0,
        ),
    )
    result = ServingRuntime(_factory(serve_models), config).serve_stream(
        [_msg(i) for i in range(10)], LoadProfile(rate_per_second=1.0, seed=8)
    )
    shard = result.telemetry.shards[0]
    assert shard.batches == 10
    assert shard.queue_wait.max <= 0.01 + 1e-9


def test_burst_fills_batches(serve_models):
    # A simultaneous burst the size of a batch flushes as one full batch.
    config = ServeConfig(
        n_shards=1, batch_size=8, max_delay_seconds=10.0, queue_capacity=64,
        cost=ServiceCostModel(
            batch_overhead_seconds=1e-4, per_message_seconds=1e-5,
            per_char_seconds=0.0,
        ),
    )
    result = ServingRuntime(_factory(serve_models), config).serve_stream(
        [_msg(i) for i in range(32)], LoadProfile(rate_per_second=1e9, seed=8)
    )
    shard = result.telemetry.shards[0]
    assert shard.batches == 4
    assert shard.messages_scored == 32


# -- shapes & validation -------------------------------------------------------

def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(n_shards=0)
    with pytest.raises(ValueError):
        ServeConfig(queue_capacity=8, batch_size=16)
    with pytest.raises(ValueError):
        ServeConfig(max_delay_seconds=0.0)


def test_serve_config_errors_name_the_offending_field():
    # Regression: validation used to ride on a throwaway MicroBatcher,
    # so a bad batch size surfaced as "MicroBatcher" with no pointer to
    # the config field the caller actually set.
    cases = {
        "ServeConfig.n_shards": dict(n_shards=0),
        "ServeConfig.batch_size": dict(batch_size=0),
        "ServeConfig.max_delay_seconds": dict(max_delay_seconds=-1.0),
        "ServeConfig.queue_capacity": dict(queue_capacity=0),
        "ServeConfig.hot_key_share": dict(hot_key_share=1.5),
        "ServeConfig.hot_key_fanout": dict(hot_key_fanout=1),
    }
    for field_name, kwargs in cases.items():
        with pytest.raises(ValueError, match=field_name.replace(".", r"\.")):
            ServeConfig(**kwargs)
    with pytest.raises(ValueError, match=r"ServeConfig\.queue_capacity"):
        ServeConfig(queue_capacity=8, batch_size=16)


def test_text_utf8_cannot_encode_is_rejected_where_messages_enter(
    serve_models,
):
    # Regression: a lone surrogate got into a StreamMessage and raised
    # UnicodeEncodeError from a shard's tokenizer mid-run, losing every
    # message of the run.  The message now refuses it, naming itself.
    with pytest.raises(
        ValueError, match=r"message 7 has text UTF-8 cannot encode"
    ):
        _msg(7, text="a\ud800")
    _msg(8, text="héllo wörld ✓")  # non-ASCII that encodes is fine
    built = []
    make = _factory(serve_models)

    def factory():
        built.append(make())
        return built[-1]

    def arrivals():
        for i, text in enumerate(["fine", "also fine", "bad \udfff here"]):
            yield Arrival(float(i), _msg(i, text=text))

    with pytest.raises(ValueError, match=r"message 2 has text"):
        ServingRuntime(factory, ServeConfig(n_shards=2)).run(arrivals())
    assert built == []  # rejected before a single shard was built


def test_run_rejects_bad_jobs(serve_models):
    with pytest.raises(ValueError):
        ServingRuntime(_factory(serve_models), ServeConfig()).run([], jobs=0)


def test_empty_stream(serve_models):
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=2))
    result = runtime.serve_stream([], LoadProfile())
    assert result.alerts == []
    assert result.unaccounted == 0
    assert result.telemetry.makespan_seconds == 0.0
    json.dumps(result.as_dict())


def test_result_snapshot_shape(serve_models, stream_profiles):
    stream = list(stream_profiles["seed72"])[:500]
    runtime = ServingRuntime(_factory(serve_models), ServeConfig(n_shards=2))
    snapshot = runtime.serve_stream(
        stream, LoadProfile(rate_per_second=2000, seed=3)
    ).as_dict()
    assert snapshot["config"]["policy"] == "block"
    assert snapshot["unaccounted_messages"] == 0
    telemetry = snapshot["telemetry"]
    for field in ("p50_s", "p95_s", "p99_s"):
        assert telemetry["service_time"][field] >= 0.0
    assert telemetry["throughput_per_second"] > 0
    assert [s["shard_id"] for s in telemetry["per_shard"]] == [0, 1]
    assert sum(s["messages_scored"] for s in telemetry["per_shard"]) == 500
    json.dumps(snapshot)


def test_serve_config_is_frozen():
    config = ServeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_shards = 8
