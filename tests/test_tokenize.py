"""Unit and property tests for tokenization and token caching."""

import copyreg
import io
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.tokenize import TokenCache, hash_token, hash_tokens, tokenize


def test_lowercases():
    assert tokenize("Hello WORLD") == ["hello", "world"]


def test_punctuation_split():
    assert tokenize("a,b.c") == ["a", ",", "b", ".", "c"]


def test_apostrophes_kept_in_words():
    assert tokenize("let's go") == ["let's", "go"]


def test_numbers_kept():
    assert tokenize("call 555-0199") == ["call", "555", "-", "0199"]


def test_empty_text():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


def test_hash_token_stable():
    assert hash_token("abc") == hash_token("abc")
    assert hash_token("abc") != hash_token("abd")


def test_hash_tokens_dtype():
    arr = hash_tokens(["a", "b"])
    assert arr.dtype == np.uint64
    assert arr.size == 2


def test_token_cache_roundtrip():
    cache = TokenCache(["one two", "three"])
    assert len(cache) == 2
    np.testing.assert_array_equal(cache[0], hash_tokens(["one", "two"]))
    np.testing.assert_array_equal(cache.lengths(), [2, 1])


def test_token_cache_subset():
    cache = TokenCache(["a", "b c", "d"])
    sub = cache.subset([2, 0])
    assert len(sub) == 2
    np.testing.assert_array_equal(sub[0], cache[2])


def test_token_cache_from_arrays():
    arrays = [np.array([1, 2], dtype=np.uint64)]
    cache = TokenCache.from_arrays(arrays)
    assert cache[0] is arrays[0]


def _assert_same_arrays(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual.arrays, expected.arrays):
        assert got.dtype == want.dtype == np.uint64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "texts",
    [[], [""], ["", ""], ["one two", "", "three four five", "!", ""]],
    ids=["empty_cache", "one_empty", "all_empty", "mixed"],
)
def test_token_cache_pickles_as_one_flat_array(texts):
    cache = TokenCache(texts)
    state = cache.__getstate__()
    assert set(state) == {"hashes", "lengths"}
    assert state["hashes"].dtype == np.uint64
    assert state["lengths"].dtype == np.int64
    assert state["hashes"].size == sum(a.size for a in cache.arrays)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        _assert_same_arrays(pickle.loads(pickle.dumps(cache, protocol)), cache)


class _PerArrayPickler(pickle.Pickler):
    """Pickles a ``TokenCache`` as it pickled before it pickled flat:
    the default object state, ``{"_arrays": [...]}``."""

    def reducer_override(self, obj):
        if type(obj) is TokenCache:
            return copyreg.__newobj__, (TokenCache,), {"_arrays": obj.arrays}
        return NotImplemented


def test_token_cache_loads_the_per_array_state_of_older_pickles():
    cache = TokenCache(["one two", "", "three"])
    buffer = io.BytesIO()
    _PerArrayPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(cache)
    loaded = pickle.loads(buffer.getvalue())
    assert type(loaded) is TokenCache
    _assert_same_arrays(loaded, cache)


@given(st.text(max_size=200))
def test_tokenize_never_returns_whitespace(text):
    for token in tokenize(text):
        assert token
        assert not token.isspace()


@given(st.text(max_size=200))
def test_tokenize_lossless_alnum(text):
    # Every alphanumeric character of the lowered input survives tokenization.
    joined = "".join(tokenize(text))
    for ch in text.lower():
        if ch.isalnum() and ch.isascii():
            assert ch in joined


@given(st.lists(st.text(min_size=1, max_size=10), max_size=20))
def test_hash_tokens_matches_singles(tokens):
    arr = hash_tokens(tokens)
    for token, value in zip(tokens, arr):
        assert int(value) == hash_token(token)
