"""Unit and property tests for the hashing vectorizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.features import HashingVectorizer
from repro.nlp.tokenize import TokenCache


@pytest.fixture()
def vec():
    return HashingVectorizer(n_bits=12)


def test_n_features(vec):
    assert vec.n_features == 4096


def test_invalid_bits():
    with pytest.raises(ValueError):
        HashingVectorizer(n_bits=4)
    with pytest.raises(ValueError):
        HashingVectorizer(n_bits=30)


def test_rows_l2_normalised(vec):
    X = vec.transform_texts(["hello world hello", "a b c d"])
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    np.testing.assert_allclose(norms, 1.0)


def test_empty_document_zero_row(vec):
    X = vec.transform_hashes([np.array([], dtype=np.uint64)])
    assert X.nnz == 0
    assert X.shape == (1, vec.n_features)


def test_same_text_same_row(vec):
    X = vec.transform_texts(["the same text", "the same text"])
    a, b = X[0].toarray(), X[1].toarray()
    np.testing.assert_array_equal(a, b)


def test_different_texts_differ(vec):
    X = vec.transform_texts(["alpha beta gamma", "delta epsilon zeta"])
    assert (X[0] != X[1]).nnz > 0


def test_bigrams_add_features():
    uni = HashingVectorizer(n_bits=12, use_bigrams=False)
    bi = HashingVectorizer(n_bits=12, use_bigrams=True)
    text = ["one two three"]
    assert bi.transform_texts(text).nnz > uni.transform_texts(text).nnz


def test_transform_cache_matches_texts(vec):
    texts = ["alpha beta", "gamma delta epsilon"]
    from_cache = vec.transform_cache(TokenCache(texts)).toarray()
    from_texts = vec.transform_texts(texts).toarray()
    np.testing.assert_array_equal(from_cache, from_texts)


def test_word_order_matters_with_bigrams(vec):
    X = vec.transform_texts(["report him now", "now him report"])
    assert (X[0] != X[1]).nnz > 0


@given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=60), min_size=1, max_size=8))
@settings(max_examples=50)
def test_shape_and_bounds(texts):
    vec = HashingVectorizer(n_bits=10)
    X = vec.transform_texts(texts)
    assert X.shape == (len(texts), 1024)
    if X.nnz:
        assert X.indices.min() >= 0
        assert X.indices.max() < 1024
        assert (X.data > 0).all()


@given(st.text(alphabet="abcdef ", min_size=1, max_size=100))
@settings(max_examples=50)
def test_deterministic_across_instances(text):
    a = HashingVectorizer(n_bits=10).transform_texts([text]).toarray()
    b = HashingVectorizer(n_bits=10).transform_texts([text]).toarray()
    np.testing.assert_array_equal(a, b)
