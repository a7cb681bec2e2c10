"""Unit tests for the flat-platform builder and blog substrate pieces."""

import pytest

from repro.corpus.documents import GroundTruth
from repro.corpus.identity import PersonFactory
from repro.corpus.platforms import blogs as blogmod
from repro.corpus.platforms.flat import (
    FlatPlatformBuilder,
    chat_channels,
    date_range_seconds,
    paste_domains,
)
from repro.types import Platform, Source


def test_date_range_seconds_orders():
    lo, hi = date_range_seconds("2015-09-21", "2020-08-01")
    assert lo < hi


def test_date_range_empty_rejected():
    with pytest.raises(ValueError):
        date_range_seconds("2020-01-01", "2020-01-01")


def test_paste_domains_count_and_uniqueness():
    domains = paste_domains(41)
    assert len(set(domains)) == 41


def test_chat_channels_prefixes():
    assert all(c.startswith("tg/") for c in chat_channels(Source.TELEGRAM, 10))
    assert all(c.startswith("dc/") for c in chat_channels(Source.DISCORD, 10))


def test_builder_materializes_background_and_planted(rng):
    builder = FlatPlatformBuilder(
        rng, Platform.GAB, Source.GAB, ("gab.example",), (0.0, 100.0)
    )
    builder.add_background(50)
    builder.plant("PLANTED", GroundTruth(is_dox=True))
    counter = iter(range(10**6))
    docs = builder.materialize(lambda: "bg", lambda: next(counter))
    assert len(docs) == 51
    assert sum(1 for d in docs if d.truth.is_dox) == 1
    assert all(0.0 <= d.timestamp <= 100.0 for d in docs)


def test_builder_rejects_negative_background(rng):
    builder = FlatPlatformBuilder(rng, Platform.GAB, Source.GAB, ("g",), (0.0, 1.0))
    with pytest.raises(ValueError):
        builder.add_background(-1)


def test_builder_requires_domains(rng):
    with pytest.raises(ValueError):
        FlatPlatformBuilder(rng, Platform.GAB, Source.GAB, (), (0.0, 1.0))


def test_farleft_dox_contains_keywords_and_pii(rng):
    person = PersonFactory(rng).make()
    text, pii = blogmod.render_farleft_dox(rng, person, keyword_free=False)
    assert "phone" in text and "email" in text and "dob:" in text
    assert set(pii) == {"address", "phone", "email"}


def test_farleft_dox_keyword_free_avoids_keywords(rng):
    person = PersonFactory(rng).make()
    text, pii = blogmod.render_farleft_dox(rng, person, keyword_free=True)
    lowered = text.lower()
    assert "phone" not in lowered and "email" not in lowered and "dob:" not in lowered
    assert pii == ()


def test_stormer_dox_overload_call(rng):
    person = PersonFactory(rng).make()
    text, pii = blogmod.render_stormer_dox(rng, person, True, keyword_free=False)
    assert pii in (("email",), ("twitter",))
    # One of the overload call phrasings is present.
    assert any(k in text for k in ("flood", "raid", "let them hear"))


def test_foreign_blog_post_not_english(rng):
    from repro.analysis.blogs import looks_english

    text = blogmod.render_foreign_blog_post(rng, relevant_keyword=True)
    assert not looks_english(text)
