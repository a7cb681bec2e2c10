"""Scoring-core tests: caches, single extraction, batch/stream identity.

Covers the ``repro.score`` package plus the invariants the refactor
exists for: PII extraction runs at most once per distinct message text
across routing *and* scoring; alerts are invariant to batch size and
shard count; batch-pipeline features equal streaming-core features;
case-variant handles collapse to one target.
"""

import numpy as np
import pytest

from repro.corpus.documents import Document, GroundTruth
from repro.extraction.pii import extract_pii
from repro.nlp.features import HashingVectorizer
from repro.nlp.spans import SpanStrategy
from repro.nlp.tokenize import TokenHashCache, hash_text
from repro.pipeline.vectorized import VectorizedCorpus
from repro.score import (
    Extraction,
    ScoreWork,
    ScoringCore,
    compare_reports,
    extract_targets,
    run_score_bench,
)
from repro.serve import LoadProfile, ServeConfig, ServingRuntime, alert_sort_key
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
    cache.get_or_compute("a", compute)
    cache.get_or_compute("c", compute)
    assert cache.get_or_compute("b", compute) == ("bb", False)  # re-miss
    assert calls == ["a", "b", "c", "b"]
    assert cache.hits == 2
    assert cache.misses == 4
    assert cache.evictions == 2
    stats = cache.stats()
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["hit_rate"] == pytest.approx(2 / 6)


def test_lru_cache_capacity_validation():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_lru_eviction_never_changes_outputs():
    # A capacity-1 cache thrashes constantly; outputs must equal the
    # uncached computation anyway (the DESIGN §11 determinism argument).
    texts = [TEMPLATES[i % len(TEMPLATES)] for i in range(30)]
    tiny = LRUCache(1)
    cached = [tiny.get_or_compute(t, extract_pii)[0] for t in texts]
    assert cached == [extract_pii(t) for t in texts]
    assert tiny.evictions > 0


# -- streaming token cache ----------------------------------------------------

def test_token_hash_cache_matches_hash_text():
    cache = TokenHashCache(8)
    for text in TEMPLATES:
        np.testing.assert_array_equal(cache.hashes(text), hash_text(text))
    _, hit = cache.cached(TEMPLATES[0])
    assert hit
    assert cache.misses == len(TEMPLATES)


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
    assert coder.code_texts(texts) == uncached
    stats = coder.cache_stats()
    assert stats["misses"] == 4 and stats["hits"] == 8
    assert ExpertCoder().cache_stats() is None


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


# -- satellite: extraction runs at most once per distinct text ----------------

def test_extraction_at_most_once_per_distinct_text_end_to_end(monkeypatch):
    import repro.score.core as score_core

    calls = []
    real = score_core.extract_pii

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(score_core, "extract_pii", counting)

    stream = _template_stream(120)
    runtime = ServingRuntime(
        lambda: HarassmentMonitor(
            _ConstantModel(0.9), _ConstantModel(0.9), HashingVectorizer(),
            MonitorConfig(campaign_min_messages=2),
        ),
        ServeConfig(n_shards=3, batch_size=16),
    )
    result = runtime.serve_stream(stream, LoadProfile(rate_per_second=5000, seed=3))
    assert result.alerts  # every message detects; the test must bite
    # Routing + scoring + alert details together ran the regex bank at
    # most once per *distinct* text, not once per message or per use.
    assert len(calls) == len(set(calls)) == len(TEMPLATES)
    work = result.telemetry.merged_score_work()
    assert work.extracted_messages == len(TEMPLATES)
    assert work.extraction_cache_hits == len(stream) - len(TEMPLATES)


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


def test_score_messages_routed_validates_alignment():
    core = _core()
    with pytest.raises(ValueError, match="align"):
        core.score_messages([_msg(0, "x")], routed=[])


def test_score_work_merge():
    work = ScoreWork(messages=2, chars=6, tokenized_chars=6)
    merged = work.merge(ScoreWork(messages=1, chars=1))
    assert merged.messages == 3 and merged.chars == 7
    assert merged.tokenized_chars == 6 and merged.extracted_messages == 0
    assert work.messages == 2  # neither operand is mutated


# -- bench + gate -------------------------------------------------------------

def test_run_score_bench_deterministic_and_single_extraction():
    stream = _template_stream(100)
    first = run_score_bench(_core(), stream, batch_size=16)
    second = run_score_bench(_core(), stream, batch_size=16)
    assert first.as_dict() == second.as_dict()
    assert first.n_messages == 100
    assert first.extractions_per_message <= 1.0
    assert first.work.extracted_messages == len(TEMPLATES)
    assert first.messages_per_second > 0


def test_compare_reports_gate():
    stream = _template_stream(60)
    report = run_score_bench(_core(), stream, batch_size=16).as_dict()
    assert compare_reports(report, report) == []
    slower = dict(report)
    slower["messages_per_second"] = report["messages_per_second"] * 0.5
    failures = compare_reports(slower, report)
    assert [f.check for f in failures] == ["throughput"]
    double_extract = dict(report)
    double_extract["extractions_per_message"] = 2.0
    failures = compare_reports(double_extract, report)
    assert [f.check for f in failures] == ["single-extraction"]
    # Tolerance absorbs small retuning, not real regressions.
    nearly = dict(report)
    nearly["messages_per_second"] = report["messages_per_second"] * 0.99
    assert compare_reports(nearly, report, max_regression=0.02) == []
