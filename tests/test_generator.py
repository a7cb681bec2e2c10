"""Integration tests for corpus generation invariants."""

import pytest

from repro.corpus import CorpusBuilder, CorpusConfig
from repro.corpus.platforms.blogs import BLOG_DOMAINS
from repro.types import Gender, Platform, Source


def test_all_platforms_present(tiny_corpus):
    counts = tiny_corpus.counts_by_platform()
    for platform in Platform:
        assert counts[platform] > 0, platform


def test_doc_ids_unique(tiny_corpus):
    ids = [d.doc_id for d in tiny_corpus]
    assert len(ids) == len(set(ids))


def test_positives_planted_for_all_sources(tiny_corpus):
    for source in Source:
        docs = tiny_corpus.by_source(source)
        assert any(d.truth.is_dox for d in docs), source
        if source is not Source.PASTES:
            assert any(d.truth.is_cth for d in docs), source


def test_cth_pastes_not_planted(tiny_corpus):
    pastes = tiny_corpus.by_platform(Platform.PASTES)
    # The CTH task does not apply to pastes (Table 2 note).
    assert not any(d.truth.is_cth for d in pastes)


def test_board_positives_carry_thread_positions(tiny_corpus):
    for doc in tiny_corpus.by_platform(Platform.BOARDS):
        assert doc.thread_id is not None
        assert doc.position is not None
        thread = tiny_corpus.thread(doc.thread_id)
        assert 0 <= doc.position < thread.size


def test_cth_subtypes_populated(tiny_corpus):
    for doc in tiny_corpus:
        if doc.truth.is_cth and doc.platform is not Platform.BLOGS:
            assert doc.truth.cth_subtypes


def test_dox_pii_planted_is_rendered(tiny_corpus):
    from repro.extraction.pii import pii_categories_present

    mismatches = 0
    doxes = [d for d in tiny_corpus if d.truth.is_dox and d.truth.pii_planted]
    for doc in doxes[:300]:
        present = pii_categories_present(doc.text)
        if not set(doc.truth.pii_planted) <= present:
            mismatches += 1
    assert mismatches <= 3  # extraction is precision-first, tiny slack


def test_gender_mix_present(tiny_corpus):
    genders = {d.truth.target_gender for d in tiny_corpus if d.truth.is_cth}
    assert Gender.MALE in genders and Gender.FEMALE in genders and Gender.UNKNOWN in genders


def test_some_docs_positive_for_both_tasks(tiny_corpus):
    both = [d for d in tiny_corpus if d.truth.is_dox and d.truth.is_cth]
    assert both  # the paper's "95 posts detected by both pipelines"


def test_blogs_have_three_domains(tiny_corpus):
    domains = {d.domain for d in tiny_corpus.by_platform(Platform.BLOGS)}
    assert domains == set(BLOG_DOMAINS.values())


def test_torch_kept_at_paper_scale(tiny_corpus):
    torch_docs = [
        d for d in tiny_corpus.by_platform(Platform.BLOGS)
        if d.domain == BLOG_DOMAINS["the_torch"]
    ]
    assert len(torch_docs) == 93


def test_determinism():
    a = CorpusBuilder(CorpusConfig.tiny(seed=3)).build()
    b = CorpusBuilder(CorpusConfig.tiny(seed=3)).build()
    assert len(a) == len(b)
    for da, db in zip(list(a)[:500], list(b)[:500]):
        assert da.text == db.text
        assert da.truth == db.truth


def test_different_seeds_differ():
    a = CorpusBuilder(CorpusConfig.tiny(seed=3)).build()
    b = CorpusBuilder(CorpusConfig.tiny(seed=4)).build()
    texts_a = [d.text for d in list(a)[:200]]
    texts_b = [d.text for d in list(b)[:200]]
    assert texts_a != texts_b


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        CorpusConfig(negative_scale=0.0)
    with pytest.raises(ValueError):
        CorpusConfig(positive_scale=1.5)


def test_timestamps_within_platform_ranges(tiny_corpus):
    import datetime as dt

    for platform in Platform:
        lo, hi = tiny_corpus.date_range(platform)
        assert dt.datetime.fromtimestamp(lo, tz=dt.timezone.utc).year >= 1999
        assert dt.datetime.fromtimestamp(hi, tz=dt.timezone.utc).year <= 2021


def test_repeated_dox_targets_exist(tiny_corpus):
    from collections import Counter

    targets = Counter(
        d.truth.target_id for d in tiny_corpus
        if d.truth.is_dox and d.truth.target_id is not None
        and d.platform is Platform.PASTES
    )
    assert targets and max(targets.values()) >= 2


def test_hard_negatives_marked(tiny_corpus):
    hard = [d for d in tiny_corpus if d.truth.hard_negative]
    assert hard
    assert not any(d.truth.is_dox or d.truth.is_cth for d in hard)
