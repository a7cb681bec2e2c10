"""Tests for adversarial text normalization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.perturb import leetspeak, spacing_attack
from repro.nlp.normalize import (
    NormalizingVectorizer,
    collapse_spaced_words,
    normalize,
    unleet_word,
)


def test_unleet_mixed_word():
    assert unleet_word("r3p0rt") == "report"
    assert unleet_word("m455") == "mass"


def test_unleet_preserves_pure_numbers():
    assert unleet_word("2125550147") == "2125550147"
    assert unleet_word("2021") == "2021"


def test_collapse_spaced_words():
    assert collapse_spaced_words("m a s s report") == "mass report"
    assert collapse_spaced_words("a normal sentence") == "a normal sentence"


def test_collapse_requires_run_of_three():
    # Two single letters ("a I") are legitimate; leave them alone.
    assert collapse_spaced_words("a b then words") == "a b then words"


def test_normalize_squeezes_repeats():
    assert normalize("reeeeeport him") == "reeport him"


def test_normalize_undoes_leetspeak():
    rng = np.random.default_rng(0)
    original = "we should mass report his account"
    attacked = leetspeak(original, rng, rate=1.0)
    assert normalize(attacked) == original


def test_normalize_undoes_spacing_attack():
    rng = np.random.default_rng(1)
    original = "mass report him"
    attacked = spacing_attack(original, rng, rate=1.0)
    assert normalize(attacked).replace(" ", "") == original.replace(" ", "")


def test_normalizing_vectorizer_restores_recall():
    """The defence closes most of the recall gap the attacks open."""
    from repro.nlp.features import HashingVectorizer
    from repro.nlp.models.logreg import LogisticRegressionClassifier

    rng = np.random.default_rng(2)
    pos = [f"we should mass report account number {i} until banned" for i in range(150)]
    neg = [f"lovely weather and recipe number {i} today" for i in range(150)]
    y = np.array([True] * 150 + [False] * 150)
    plain = HashingVectorizer(n_bits=13)
    model = LogisticRegressionClassifier(epochs=4, seed=1).fit(
        plain.transform_texts(pos + neg), y
    )
    attacked = [leetspeak(t, rng, rate=0.8) for t in pos]
    recall_plain = float(
        (model.predict_proba(plain.transform_texts(attacked)) > 0.5).mean()
    )
    defended = NormalizingVectorizer(plain)
    recall_defended = float(
        (model.predict_proba(defended.transform_texts(attacked)) > 0.5).mean()
    )
    assert recall_defended > recall_plain + 0.2
    assert recall_defended > 0.9


@given(st.text(max_size=200))
@settings(max_examples=80)
def test_normalize_total(text):
    out = normalize(text)
    assert isinstance(out, str)
    # Normalisation never introduces new letters beyond the leet map.
    assert len(out) <= len(text) + 1
