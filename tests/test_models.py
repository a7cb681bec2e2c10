"""Unit tests for the trainable classifiers (logreg, NB)."""

import numpy as np
import pytest

from repro.nlp.features import HashingVectorizer
from repro.nlp.metrics import roc_auc
from repro.nlp.models.base import validate_training_inputs
from repro.nlp.models.logreg import LogisticRegressionClassifier, _sigmoid
from repro.nlp.models.naive_bayes import NaiveBayesClassifier


def _toy_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    pos = [f"we should mass report account {rng.integers(1e6)} now" for _ in range(n // 2)]
    neg = [f"lovely weather and sourdough number {rng.integers(1e6)} today" for _ in range(n // 2)]
    y = np.array([True] * (n // 2) + [False] * (n // 2))
    X = HashingVectorizer(n_bits=12).transform_texts(pos + neg)
    return X, y


@pytest.mark.parametrize("model_cls", [LogisticRegressionClassifier, NaiveBayesClassifier])
def test_models_learn_separable_data(model_cls):
    X, y = _toy_data()
    model = model_cls()
    model.fit(X, y)
    assert roc_auc(y, model.predict_proba(X)) > 0.99


@pytest.mark.parametrize("model_cls", [LogisticRegressionClassifier, NaiveBayesClassifier])
def test_predict_before_fit_raises(model_cls):
    X, _ = _toy_data(20)
    with pytest.raises(RuntimeError):
        model_cls().predict_proba(X)


@pytest.mark.parametrize("model_cls", [LogisticRegressionClassifier, NaiveBayesClassifier])
def test_single_class_rejected(model_cls):
    X, _ = _toy_data(20)
    with pytest.raises(ValueError):
        model_cls().fit(X, np.ones(20, dtype=bool))


def test_misaligned_inputs_rejected():
    X, y = _toy_data(20)
    with pytest.raises(ValueError):
        validate_training_inputs(X, y[:-1])


def test_probabilities_in_unit_interval():
    X, y = _toy_data()
    for model in (LogisticRegressionClassifier(epochs=2), NaiveBayesClassifier()):
        p = model.fit(X, y).predict_proba(X)
        assert (p >= 0).all() and (p <= 1).all()


def test_logreg_deterministic():
    X, y = _toy_data()
    p1 = LogisticRegressionClassifier(seed=3).fit(X, y).predict_proba(X)
    p2 = LogisticRegressionClassifier(seed=3).fit(X, y).predict_proba(X)
    np.testing.assert_array_equal(p1, p2)


def test_logreg_class_balancing_helps_minority_recall():
    # 5% positives.
    rng = np.random.default_rng(1)
    pos = [f"mass report the account {rng.integers(1e6)}" for _ in range(30)]
    neg = [f"nice weather {rng.integers(1e6)} today friends" for _ in range(570)]
    y = np.array([True] * 30 + [False] * 570)
    X = HashingVectorizer(n_bits=10).transform_texts(pos + neg)
    balanced = LogisticRegressionClassifier(balanced=True, epochs=3).fit(X, y)
    p = balanced.predict_proba(X)
    assert (p[y] > 0.5).mean() > 0.9


def test_logreg_decision_function_monotone_with_proba():
    X, y = _toy_data()
    model = LogisticRegressionClassifier(epochs=2).fit(X, y)
    z = model.decision_function(X)
    p = model.predict_proba(X)
    # p sorted by z must be non-decreasing (sigmoid is monotone; ties in p
    # from saturation are fine).
    assert np.all(np.diff(p[np.argsort(z)]) >= -1e-12)


def test_sigmoid_stability():
    z = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
    p = _sigmoid(z)
    assert p[0] == 0.0 or p[0] < 1e-300
    assert p[-1] == 1.0
    assert p[2] == pytest.approx(0.5)


def test_nb_alpha_validation():
    with pytest.raises(ValueError):
        NaiveBayesClassifier(alpha=0.0)


def test_logreg_param_validation():
    with pytest.raises(ValueError):
        LogisticRegressionClassifier(epochs=0)


def test_nb_handles_unseen_features():
    X, y = _toy_data(100)
    model = NaiveBayesClassifier().fit(X, y)
    unseen = HashingVectorizer(n_bits=12).transform_texts(["zzz qqq jjj words never seen"])
    p = model.predict_proba(unseen)
    assert 0.0 <= p[0] <= 1.0
