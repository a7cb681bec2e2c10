"""Unit and recovery tests for the expert taxonomy coder."""

import pytest

from repro.corpus.identity import PersonFactory
from repro.corpus.templates import render_cth
from repro.taxonomy.attack_types import AttackSubtype, AttackType
from repro.taxonomy.coding import ExpertCoder
from repro.types import Platform
from repro.util.rng import child_rng


@pytest.fixture(scope="module")
def coder():
    return ExpertCoder()


def test_mass_flagging_detected(coder):
    subtypes = coder.code_text("we should mass report his account until the platform bans him")
    assert AttackSubtype.MASS_FLAGGING in subtypes


def test_raiding_detected(coder):
    subtypes = coder.code_text("everyone raid her stream tonight")
    assert AttackSubtype.RAIDING in subtypes


def test_unmatched_text_gets_generic(coder):
    subtypes = coder.code_text("deal with him, the usual way")
    assert subtypes == (AttackSubtype.GENERIC,)


def test_generic_dropped_when_specific_matches(coder):
    text = "you know what to do. also mass report his twitter"
    subtypes = coder.code_text(text)
    assert AttackSubtype.MASS_FLAGGING in subtypes
    assert AttackSubtype.GENERIC not in subtypes


def test_multiple_types_detected(coder):
    text = (
        "we should raid her stream tonight and flood the comments until she quits. "
        "also dig up her phone number and home address and post it here."
    )
    parents = {s for s in coder.code_text(text)}
    assert AttackSubtype.RAIDING in parents
    assert AttackSubtype.DOXING in parents


def test_code_all_wraps_documents(coder, tiny_corpus):
    cth = [d for d in tiny_corpus if d.truth.is_cth][:20]
    coded = coder.code_all(cth)
    assert len(coded) == 20
    assert all(c.document is d for c, d in zip(coded, cth))
    assert all(len(c.subtypes) >= 1 for c in coded)


def test_parents_property(coder):
    coded = coder.code_text("we should mass report his account")
    from repro.taxonomy.attack_types import PARENT_OF

    assert {PARENT_OF[s] for s in coded} == {AttackType.REPORTING}


@pytest.mark.parametrize("platform", [Platform.BOARDS, Platform.CHAT, Platform.GAB])
def test_coder_recovers_planted_subtypes(coder, platform):
    """On freshly rendered CTH text, the coder should recover the exact
    planted subtype set in the overwhelming majority of cases."""
    rng = child_rng(123, "coder-recovery", platform.value)
    people = PersonFactory(rng)
    exact = 0
    n = 250
    subtypes_all = [s for s in AttackSubtype if s is not AttackSubtype.GENERIC]
    for i in range(n):
        subtype = subtypes_all[i % len(subtypes_all)]
        person = people.make()
        text = render_cth(rng, [subtype], person, gender_visible=True, platform=platform)
        if set(coder.code_text(text)) == {subtype}:
            exact += 1
    assert exact / n > 0.85


def test_coder_recovery_on_generated_corpus(coder, tiny_corpus):
    """End-to-end recovery on the full generator output (includes weak
    positives and multi-type calls)."""
    cth = [d for d in tiny_corpus if d.truth.is_cth and d.truth.cth_subtypes]
    exact = sum(
        1 for d in cth if set(coder.code_text(d.text)) == set(d.truth.cth_subtypes)
    )
    assert exact / len(cth) > 0.80
