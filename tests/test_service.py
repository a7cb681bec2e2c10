"""Tests for the streaming detection service."""

import numpy as np
import pytest

from repro.corpus.documents import Document, GroundTruth
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.service.monitor import (
    AlertKind,
    HarassmentMonitor,
    MonitorConfig,
    MonitorStats,
)
from repro.service.stream import MessageStream, StreamMessage
from repro.types import Platform, Source


# -- stream --------------------------------------------------------------------

def _doc(i, text="hello world", ts=None, platform=Platform.GAB, **truth):
    return Document(
        doc_id=i, platform=platform,
        source=Source.GAB if platform is Platform.GAB else Source.BOARDS,
        domain="chan", text=text, timestamp=ts if ts is not None else float(i),
        author=f"user{i}", truth=GroundTruth(**truth),
    )


def test_stream_orders_by_timestamp():
    docs = [_doc(0, ts=5.0), _doc(1, ts=1.0), _doc(2, ts=3.0)]
    stream = MessageStream(docs)
    assert [m.message_id for m in stream] == [1, 2, 0]


def test_stream_platform_filter():
    docs = [_doc(0), _doc(1, platform=Platform.BOARDS)]
    stream = MessageStream(docs, platforms=[Platform.GAB])
    assert len(stream) == 1


def test_stream_batches():
    docs = [_doc(i) for i in range(7)]
    batches = list(MessageStream(docs).batches(3))
    assert [len(b) for b in batches] == [3, 3, 1]
    with pytest.raises(ValueError):
        list(MessageStream(docs).batches(0))


def test_stream_message_has_no_truth():
    message = StreamMessage.from_document(_doc(0, is_cth=True))
    assert not hasattr(message, "truth")


def test_oracle_labels():
    docs = [_doc(0, is_cth=True), _doc(1, is_dox=True)]
    labels = MessageStream(docs).oracle_labels()
    assert labels[0] == (True, False)
    assert labels[1] == (False, True)


def test_stream_rejects_nonfinite_timestamps():
    # A NaN timestamp would poison the sort silently (NaN compares false
    # against everything); the constructor must reject it loudly.
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite timestamp"):
            MessageStream([_doc(0, ts=bad)])


def test_stream_platforms_metadata():
    docs = [_doc(0), _doc(1, platform=Platform.BOARDS), _doc(2)]
    assert MessageStream(docs).platforms() == (Platform.BOARDS, Platform.GAB)
    assert MessageStream(docs, platforms=[Platform.GAB]).platforms() == (
        Platform.GAB,
    )
    assert MessageStream([]).platforms() == ()


def test_stream_time_span():
    docs = [_doc(0, ts=5.0), _doc(1, ts=1.0), _doc(2, ts=3.0)]
    assert MessageStream(docs).time_span() == (1.0, 5.0)
    assert MessageStream([]).time_span() is None


# -- monitor --------------------------------------------------------------------

CTH_TEXT = "we should mass report her account until the platform bans her, twitter: targetuser99"
DOX_TEXT = (
    "Name: Jane Ashgrove | Address: 12 Maple St, Fairhaven, NY 10001 | "
    "Phone: (212) 555-0188 | Twitter: https://twitter.com/targetuser99"
)
BENIGN_TEXT = "just finished my sourdough starter, would recommend"


@pytest.fixture(scope="module")
def monitor_models():
    rng = np.random.default_rng(0)
    cth_pos = [f"we should mass report account number {i} until banned" for i in range(150)]
    dox_pos = [
        f"Name: Person {i} | Address: {100 + i} Maple St, Fairhaven, NY 10001 | "
        f"Phone: (212) 555-01{i % 100:02d}"
        for i in range(150)
    ]
    neg = [f"lovely weather and recipe number {i} today friends" for i in range(300)]
    vectorizer = HashingVectorizer(n_bits=14)
    cth_X = vectorizer.transform_texts(cth_pos + dox_pos + neg)
    cth_y = np.array([True] * 150 + [False] * 450)
    dox_y = np.array([False] * 150 + [True] * 150 + [False] * 300)
    cth_model = LogisticRegressionClassifier(epochs=4, seed=1).fit(cth_X, cth_y)
    dox_model = LogisticRegressionClassifier(epochs=4, seed=1).fit(cth_X, dox_y)
    return cth_model, dox_model, vectorizer


def _monitor(monitor_models, **config_kwargs):
    cth_model, dox_model, vectorizer = monitor_models
    return HarassmentMonitor(
        cth_model, dox_model, vectorizer, MonitorConfig(**config_kwargs)
    )


def _msg(i, text, ts):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel="c", author="a", timestamp=ts, text=text,
    )


def test_monitor_flags_cth(monitor_models):
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(1, CTH_TEXT, 0.0), _msg(2, BENIGN_TEXT, 1.0)])
    kinds = [a.kind for a in alerts]
    assert AlertKind.CTH in kinds
    assert monitor.stats.cth_detected == 1
    assert monitor.stats.messages_processed == 2


def test_monitor_flags_dox_with_pii_detail(monitor_models):
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(1, DOX_TEXT, 0.0)])
    dox_alerts = [a for a in alerts if a.kind is AlertKind.DOX]
    assert dox_alerts
    assert "address" in dox_alerts[0].detail


def test_monitor_campaign_alert(monitor_models):
    monitor = _monitor(monitor_models, campaign_min_messages=3)
    alerts = []
    for i in range(4):
        alerts += monitor.process_batch([_msg(i, CTH_TEXT, i * 3600.0)])
    campaigns = [a for a in alerts if a.kind is AlertKind.CAMPAIGN]
    assert len(campaigns) == 1  # deduplicated within the window
    assert campaigns[0].target_handle is not None
    assert monitor.stats.campaigns_alerted == 1


def test_monitor_campaign_across_batch_boundaries(monitor_models):
    # A target whose campaign_min_messages detections straddle two
    # process_batch calls still raises exactly one CAMPAIGN alert — the
    # sliding window is per-target state, not per-batch state.
    monitor = _monitor(monitor_models, campaign_min_messages=3)
    first = monitor.process_batch(
        [_msg(0, CTH_TEXT, 0.0), _msg(1, CTH_TEXT, 3600.0)]
    )
    assert not [a for a in first if a.kind is AlertKind.CAMPAIGN]
    second = monitor.process_batch(
        [_msg(2, CTH_TEXT, 7200.0), _msg(3, CTH_TEXT, 10800.0)]
    )
    campaigns = [a for a in second if a.kind is AlertKind.CAMPAIGN]
    assert len(campaigns) == 1  # raised once, deduped within the window
    assert campaigns[0].message_id == 2  # on the detection that crossed 3
    assert monitor.stats.campaigns_alerted == 1


def test_monitor_campaign_window_expiry(monitor_models):
    monitor = _monitor(
        monitor_models, campaign_min_messages=3, campaign_window_seconds=100.0
    )
    alerts = []
    # Two detections, then a long gap, then two more: never 3 in a window.
    for i, ts in enumerate((0.0, 10.0, 500.0, 510.0)):
        alerts += monitor.process_batch([_msg(i, CTH_TEXT, ts)])
    assert not [a for a in alerts if a.kind is AlertKind.CAMPAIGN]


def test_monitor_dox_escalation(monitor_models):
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(1, CTH_TEXT, 0.0)])
    alerts += monitor.process_batch([_msg(2, DOX_TEXT, 3600.0)])
    escalations = [a for a in alerts if a.kind is AlertKind.DOX_ESCALATION]
    assert escalations
    assert monitor.stats.escalations_alerted == 1


def test_monitor_no_escalation_without_prior_cth(monitor_models):
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(1, DOX_TEXT, 0.0)])
    assert not [a for a in alerts if a.kind is AlertKind.DOX_ESCALATION]


def test_monitor_benign_stream_quiet(monitor_models):
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(i, BENIGN_TEXT, float(i)) for i in range(20)])
    assert alerts == []
    assert monitor.stats.cth_detected == 0


def test_monitor_run_over_stream(monitor_models, tiny_corpus):
    monitor = _monitor(monitor_models, campaign_min_messages=2)
    stream = MessageStream(list(tiny_corpus)[:2000], platforms=[Platform.GAB])
    alerts = monitor.run(stream, batch_size=128)
    assert monitor.stats.messages_processed == len(stream)
    assert isinstance(alerts, list)


def test_monitor_evicts_stale_target_state(monitor_models):
    # Per-target dicts must not grow with stream history: a target whose
    # last detection left the campaign window is dropped from all three
    # tables, so memory is proportional to *active* targets.
    monitor = _monitor(
        monitor_models, campaign_min_messages=2, campaign_window_seconds=100.0
    )
    texts = [
        CTH_TEXT.replace("targetuser99", f"stale_target_{i}") for i in range(10)
    ]
    for i, text in enumerate(texts):
        monitor.process_batch([_msg(i, text, float(i))])
        monitor.process_batch([_msg(100 + i, DOX_TEXT, float(i))])
    assert len(monitor._target_activity) > 1

    # One detection far in the future: every older target is stale.
    monitor.process_batch([_msg(999, CTH_TEXT, 10_000.0)])
    assert set(monitor._target_activity) == {"twitter:targetuser99"}
    assert set(monitor._campaign_alerted_at) <= {"twitter:targetuser99"}
    assert set(monitor._last_cth_for_target) == {"twitter:targetuser99"}


def test_monitor_eviction_does_not_change_alerts(monitor_models):
    # Alerts from a long stream are identical with eviction happening
    # after every batch vs. one big batch (same decisions, less state).
    msgs = [_msg(i, CTH_TEXT, i * 3600.0) for i in range(6)]
    one_batch = _monitor(monitor_models).process_batch(msgs)
    per_message = []
    incremental = _monitor(monitor_models)
    for m in msgs:
        per_message += incremental.process_batch([m])
    assert [(a.kind, a.message_id) for a in one_batch] == [
        (a.kind, a.message_id) for a in per_message
    ]


def test_monitor_extracts_pii_once_per_message(monitor_models, monkeypatch):
    # All extraction funnels through repro.score.core.extract_pii — the
    # monitor itself never imports the regex bank.
    import repro.score.core as score_core

    calls = []
    real = score_core.extract_pii

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(score_core, "extract_pii", counting)
    monitor = _monitor(monitor_models)
    alerts = monitor.process_batch([_msg(1, DOX_TEXT, 0.0)])
    # The DOX detail string reuses the extraction made for handle
    # linking rather than re-running the regex bank.
    assert [a for a in alerts if a.kind is AlertKind.DOX]
    assert len(calls) == 1


def test_monitor_stats_as_dict_and_merge():
    a = MonitorStats(messages_processed=10, cth_detected=2, campaigns_alerted=1)
    b = MonitorStats(messages_processed=5, dox_detected=3, escalations_alerted=2)
    merged = a.merge(b)
    assert merged == MonitorStats(
        messages_processed=15, cth_detected=2, dox_detected=3,
        campaigns_alerted=1, escalations_alerted=2,
    )
    # Operands untouched; as_dict covers every field.
    assert a.messages_processed == 10 and b.messages_processed == 5
    assert merged.as_dict() == {
        "messages_processed": 15, "cth_detected": 2, "dox_detected": 3,
        "campaigns_alerted": 1, "escalations_alerted": 2,
    }
    assert MonitorStats.merged([a, b, MonitorStats()]) == merged
    assert MonitorStats.merged([]) == MonitorStats()


def test_monitor_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig(campaign_min_messages=1)
    with pytest.raises(ValueError):
        MonitorConfig(campaign_window_seconds=0)


def test_monitor_empty_batch(monitor_models):
    monitor = _monitor(monitor_models)
    assert monitor.process_batch([]) == []
