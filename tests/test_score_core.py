"""Scoring-core tests: caches, single extraction, batch/stream identity.

Covers the ``repro.score`` package plus the invariants the refactor
exists for: serving runs PII extraction only for detections, once per
distinct text on each shard that scores it; alerts are invariant to
batch size and shard count; batch-pipeline features equal
streaming-core features; case-variant handles collapse to one target.
"""

import collections

import numpy as np
import pytest

from repro.corpus.documents import Document, GroundTruth
from repro.extraction.pii import extract_pii
from repro.nlp.features import HashingVectorizer
from repro.nlp.spans import SpanStrategy
from repro.nlp.tokenize import TokenHashCache, hash_text
from repro.pipeline.vectorized import VectorizedCorpus
from repro.score import Extraction, ScoreWork, ScoringCore, extract_targets
from repro.serve import (
    HashRing,
    LoadProfile,
    ServeConfig,
    ServingRuntime,
    alert_sort_key,
    detect_hot_keys,
    routing_key,
    salt_key,
)
from repro.service.monitor import AlertKind, HarassmentMonitor, MonitorConfig
from repro.service.stream import StreamMessage
from repro.taxonomy.coding import ExpertCoder
from repro.types import Platform, Source
from repro.util.cache import LRUCache


def _msg(i, text, ts=None, channel="c"):
    return StreamMessage(
        message_id=i, platform=Platform.GAB, source=Source.GAB,
        channel=channel, author="a",
        timestamp=float(i) if ts is None else ts, text=text,
    )


class _ConstantModel:
    """Scores every row with a fixed probability."""

    def __init__(self, probability):
        self.probability = probability

    def predict_proba(self, features):
        return np.full(features.shape[0], self.probability)


class _FeatureCountModel:
    """Scores a row 0.9 if it has more than ``cut`` hashed features."""

    def __init__(self, cut):
        self.cut = cut

    def predict_proba(self, features):
        return np.where(np.diff(features.indptr) > self.cut, 0.9, 0.1)


def _core(cth=0.9, dox=0.1, **kwargs):
    return ScoringCore(
        _ConstantModel(cth), _ConstantModel(dox), HashingVectorizer(), **kwargs
    )


TEMPLATES = [
    "we should mass report her account until the platform bans her, "
    "twitter: brigade_target",
    "spam him nonstop, his handle is instagram: victim.profile",
    "drop the info, phone number and home address: 12 Oak St, 555-867-5309",
    "post the dms and spread the file everywhere",
    "nothing harmful here, just talking about the weather",
    "another harmless message about lunch plans",
]


def _template_stream(n):
    """Template-heavy stream: the copypasta shape of incitement campaigns."""
    return [_msg(i, TEMPLATES[i % len(TEMPLATES)]) for i in range(n)]


# -- LRUCache -----------------------------------------------------------------

def test_lru_cache_hits_misses_evictions():
    cache = LRUCache(2)
    calls = []

    def compute(key):
        calls.append(key)
        return key * 2

    assert cache.get_or_compute("a", compute) == ("aa", False)
    assert cache.get_or_compute("a", compute) == ("aa", True)
    assert cache.get_or_compute("b", compute) == ("bb", False)
    # "a" was touched most recently of the two, so inserting "c" evicts "b".
    assert cache.get_or_compute("a", compute) == ("aa", True)
    assert cache.get_or_compute("c", compute) == ("cc", False)
    assert cache.get_or_compute("b", compute) == ("bb", False)  # re-miss
    # Two hits and four misses; only misses compute, and the two
    # evictions ("b", then "a") leave the cache at capacity.
    assert calls == ["a", "b", "c", "b"]
    assert len(cache) == cache.capacity == 2
    assert cache.get_or_compute("c", compute) == ("cc", True)
    assert cache.get_or_compute("a", compute) == ("aa", False)


def test_lru_cache_capacity_validation():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_lru_eviction_never_changes_outputs():
    # A capacity-1 cache thrashes constantly; outputs must equal the
    # uncached computation anyway (the DESIGN §11 determinism argument).
    texts = [TEMPLATES[i % len(TEMPLATES)] for i in range(30)]
    tiny = LRUCache(1)
    results = [tiny.get_or_compute(t, extract_pii) for t in texts]
    assert [value for value, _ in results] == [extract_pii(t) for t in texts]
    # Every lookup re-missed a text it had seen: each one evicted.
    assert not any(hit for _, hit in results)
    assert len(tiny) == 1


# -- streaming token cache ----------------------------------------------------

def test_token_hash_cache_matches_hash_text():
    cache = TokenHashCache(8)
    for text in TEMPLATES:
        hashes, hit = cache.cached(text)
        assert not hit
        np.testing.assert_array_equal(hashes, hash_text(text))
    np.testing.assert_array_equal(
        cache.hashes(TEMPLATES[1]), hash_text(TEMPLATES[1])
    )
    _, hit = cache.cached(TEMPLATES[0])
    assert hit
    assert len(cache) == len(TEMPLATES)


def test_transform_texts_through_token_cache_identical():
    vectorizer = HashingVectorizer()
    texts = [TEMPLATES[i % len(TEMPLATES)] for i in range(20)]
    plain = vectorizer.transform_texts(texts)
    cached = vectorizer.transform_texts(texts, token_cache=TokenHashCache(64))
    assert (plain != cached).nnz == 0


# -- coding cache -------------------------------------------------------------

def test_expert_coder_cache_transparent():
    texts = [TEMPLATES[i % 4] for i in range(12)]
    uncached = ExpertCoder().code_texts(texts)
    coder = ExpertCoder(cache_size=8)
    results = [coder.code_text_cached(text) for text in texts]
    assert [subtypes for subtypes, _ in results] == uncached
    hits = [hit for _, hit in results]
    assert hits.count(False) == 4 and hits.count(True) == 8
    assert coder.code_texts(texts) == uncached
    # Without a cache every call runs the signature bank.
    assert not any(ExpertCoder().code_text_cached(t)[1] for t in texts)


# -- satellite: case-variant handle dedupe ------------------------------------

def test_case_variant_handles_collapse_to_one_target():
    text = (
        "everyone go after twitter.com/TargetUser99 — "
        "that's twitter: targetuser99 for those searching"
    )
    extraction = extract_targets(text)
    # One real-world target account, one handle — not two entries
    # differing only by case.
    assert extraction.handles == ("twitter:targetuser99",)
    assert extraction.primary_handle == "twitter:targetuser99"


def test_case_variants_do_not_double_count_campaign_activity():
    text = (
        "mass report twitter.com/TargetUser99 aka twitter: targetuser99 "
        "until the account is gone"
    )
    config = MonitorConfig(campaign_min_messages=3)

    def alerts_after(n):
        monitor = HarassmentMonitor(
            _ConstantModel(0.9), _ConstantModel(0.1),
            HashingVectorizer(), config,
        )
        raised = monitor.process_batch([_msg(i, text, ts=float(i)) for i in range(n)])
        return [a for a in raised if a.kind is AlertKind.CAMPAIGN]

    # Two messages -> two detections against the target; the duplicate
    # case-variant handle must not inflate that to four and fire early.
    assert alerts_after(2) == []
    assert len(alerts_after(3)) == 1


# -- satellite: extraction runs once per detected text and scoring shard ------

def _count_extractions(monkeypatch):
    """Texts passed to the PII bank, recorded by a counting wrapper."""
    import repro.score.core as score_core

    calls = []
    real = score_core.extract_pii

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(score_core, "extract_pii", counting)
    return calls


def _scoring_shards(stream, config):
    """message id -> the shard that scores it in a one-epoch serve run,
    from the routing key, hot-key salting and the ring."""
    keys = [routing_key(m) for m in stream]
    policy = config.hot_key_policy
    hot = detect_hot_keys(collections.Counter(keys), len(keys), policy)
    ring = HashRing(range(config.n_shards))
    return {
        m.message_id: ring.owner(
            salt_key(key, m.message_id, policy.fanout) if key in hot else key
        )
        for m, key in zip(stream, keys)
    }


def _serve(stream, config, cth_model, dox_model=None):
    runtime = ServingRuntime(
        lambda: HarassmentMonitor(
            cth_model, dox_model or _ConstantModel(0.1), HashingVectorizer(),
            MonitorConfig(campaign_min_messages=2),
        ),
        config,
    )
    return runtime.serve_stream(
        stream, LoadProfile(rate_per_second=5000, seed=3)
    )


def test_extraction_at_most_once_per_distinct_text_end_to_end(monkeypatch):
    calls = _count_extractions(monkeypatch)
    # Sixty distinct texts, each twice: no text is hot, so identical
    # texts meet on one shard and share its extraction cache.
    stream = [
        _msg(i, f"{TEMPLATES[i % len(TEMPLATES)]} #{i % 60}")
        for i in range(120)
    ]
    result = _serve(
        stream, ServeConfig(n_shards=3, batch_size=16), _ConstantModel(0.9)
    )
    assert result.alerts  # every message detects; the test must bite
    assert result.hot_keys == {}
    # Scoring + state + alert details together ran the regex bank
    # exactly once per *distinct* text across the fleet.
    assert len(calls) == len(set(calls)) == 60
    # The rest of the merged work ledger: every distinct text is
    # tokenized and coded once, and its repeat hits both caches.
    work = result.telemetry.merged_score_work()
    assert work.messages == len(stream)
    assert work.extracted_messages == 60
    assert work.extraction_cache_hits == len(stream) - 60
    assert work.tokenized_messages == work.token_cache_hits == 60
    assert work.coded_messages == work.coding_cache_hits == 60


def test_hot_text_is_extracted_once_per_scoring_shard(monkeypatch):
    calls = _count_extractions(monkeypatch)
    stream = _template_stream(120)
    config = ServeConfig(n_shards=3, batch_size=16)
    result = _serve(stream, config, _ConstantModel(0.9))
    assert result.alerts
    # Each template carries a sixth of the traffic, so every one is hot
    # and salting spreads its scoring over several shards.
    assert len(result.hot_keys) == len(TEMPLATES)
    owners = _scoring_shards(stream, config)
    pairs = {(m.text, owners[m.message_id]) for m in stream}
    assert len(pairs) > len(TEMPLATES)
    # Exactly one regex pass per distinct (text, scoring shard) pair.
    assert sorted(calls) == sorted(text for text, _ in pairs)
    work = result.telemetry.merged_score_work()
    assert work.extracted_messages == len(pairs)
    assert work.extraction_cache_hits == len(stream) - len(pairs)


def test_serve_never_extracts_a_text_under_the_thresholds(monkeypatch):
    calls = _count_extractions(monkeypatch)
    stream = _template_stream(120)
    config = ServeConfig(n_shards=3, batch_size=16)
    cth_model = _FeatureCountModel(20)
    result = _serve(stream, config, cth_model)
    # One scoring pass over the stream says which messages detect.
    reference = ScoringCore(
        cth_model, _ConstantModel(0.1), HashingVectorizer()
    ).score_messages(stream)
    detected = {
        m.message_id
        for m, score in zip(stream, reference.cth_scores.tolist())
        if score > 0.5
    }
    assert 0 < len(detected) < len(stream)
    assert result.telemetry.monitor.cth_detected == len(detected)
    below = {m.text for m in stream if m.message_id not in detected}
    assert calls and not below & set(calls)
    # Each shard looked up an extraction for exactly its detections.
    owners = _scoring_shards(stream, config)
    for shard in result.telemetry.shards:
        work = shard.score_work
        mine = [i for i in detected if owners[i] == shard.shard_id]
        assert work.extracted_messages + work.extraction_cache_hits == len(
            mine
        )


# -- satellite: alerts invariant to batch size and shard count ----------------

@pytest.mark.parametrize("batch_size", [1, 7, 64])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_alerts_invariant_to_batch_size_and_shards(batch_size, n_shards):
    stream = _template_stream(90)

    def factory():
        return HarassmentMonitor(
            _ConstantModel(0.9), _ConstantModel(0.1), HashingVectorizer(),
            MonitorConfig(campaign_min_messages=2),
        )

    baseline = sorted(factory().run(stream, batch_size=256), key=alert_sort_key)
    assert baseline
    single = sorted(factory().run(stream, batch_size=batch_size), key=alert_sort_key)
    assert single == baseline
    runtime = ServingRuntime(
        factory, ServeConfig(n_shards=n_shards, batch_size=batch_size)
    )
    result = runtime.serve_stream(stream, LoadProfile(rate_per_second=9000, seed=5))
    assert result.alerts == baseline


# -- batch/stream feature identity --------------------------------------------

def test_batch_and_streaming_features_identical():
    texts = [TEMPLATES[i % len(TEMPLATES)] for i in range(18)]
    vectorizer = HashingVectorizer()
    core = ScoringCore(_ConstantModel(0.5), _ConstantModel(0.5), vectorizer)
    streaming = core.features_for(texts)
    batch = vectorizer.transform_texts(texts)
    assert (streaming != batch).nnz == 0

    docs = [
        Document(
            doc_id=i, platform=Platform.GAB, source=Source.GAB, domain="chan",
            text=text, timestamp=float(i), author=f"u{i}", truth=GroundTruth(),
        )
        for i, text in enumerate(texts)
    ]
    corpus = VectorizedCorpus(docs, vectorizer=HashingVectorizer())
    view = corpus.task_view(10_000, SpanStrategy.RANDOM_NO_OVERLAP)
    # Short docs -> one full-document span per row; the pipeline matrix
    # is the streaming matrix (modulo the pipeline's float32 compaction).
    assert view.matrix.shape == streaming.shape
    np.testing.assert_allclose(
        view.matrix.toarray(), streaming.toarray(), rtol=1e-6
    )


# -- scored batch / work ledger ----------------------------------------------

def test_score_messages_lazy_extraction_billing():
    core = _core()
    batch = [_msg(0, TEMPLATES[0]), _msg(1, TEMPLATES[4])]
    scored = core.score_messages(batch)
    assert scored.work.extracted_messages == 0  # nothing extracted yet
    extraction = scored.extraction(0)
    assert isinstance(extraction, Extraction)
    assert scored.work.extracted_messages == 1
    scored.extraction(0)  # memoised on the batch, no extra work
    assert scored.work.extracted_messages == 1


def test_score_work_merge():
    work = ScoreWork(messages=2, chars=6, tokenized_chars=6)
    merged = work.merge(ScoreWork(messages=1, chars=1))
    assert merged.messages == 3 and merged.chars == 7
    assert merged.tokenized_chars == 6 and merged.extracted_messages == 0
    assert work.messages == 2  # neither operand is mutated

