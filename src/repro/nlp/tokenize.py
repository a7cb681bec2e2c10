"""Tokenization with punctuation splitting (paper §5.2) and token caching.

The paper tokenizes with punctuation splitting followed by WordPiece
sub-word segmentation.  Here :func:`tokenize` performs the punctuation
split; :mod:`repro.nlp.wordpiece` provides the trainable sub-word stage
used by the transformer model.  For the high-volume filtering path the
vectorizer consumes stable token hashes (crc32 values carried in uint64
arrays), computed exactly once per text:

* :class:`TokenCache` — batch flavour: one hash array per document of a
  fixed collection, so repeated full-corpus prediction passes (active
  learning, threshold search) never re-tokenize.
* :class:`TokenHashCache` — streaming flavour: a bounded LRU keyed on
  the text itself, so repeated templates in a message stream (the
  copypasta shape of coordinated incitements) hit tokenization once per
  distinct text.

Both flavours go through :func:`hash_text`, which is the single
text → hash-array implementation in the codebase — the reason batch and
streaming features are identical by construction.
"""

from __future__ import annotations

import re
import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.util.cache import LRUCache

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation.

    Punctuation characters become their own tokens (the paper's
    punctuation splitting step); alphanumeric runs stay whole.
    """
    return _TOKEN_RE.findall(text.lower())


def hash_token(token: str) -> int:
    """Stable hash of one token (crc32: fast and process-stable).

    The value itself fits in 32 bits; :func:`hash_tokens` widens it to
    uint64 so downstream bigram mixing (64-bit multiply/xor in
    :mod:`repro.nlp.features`) never overflows.
    """
    return zlib.crc32(token.encode("utf-8"))


def hash_tokens(tokens: Sequence[str]) -> np.ndarray:
    """Vector of stable token hashes: 32-bit crc32 values, dtype uint64."""
    return np.array([zlib.crc32(t.encode("utf-8")) for t in tokens], dtype=np.uint64)


def hash_text(text: str) -> np.ndarray:
    """Tokenize and hash one text — the canonical text → hashes path.

    Every feature consumer (batch :class:`TokenCache`, streaming
    :class:`TokenHashCache`, direct
    :meth:`~repro.nlp.features.HashingVectorizer.transform_texts`)
    funnels through this function, so there is exactly one definition of
    "the token hashes of a text" in the system.
    """
    return hash_tokens(tokenize(text))


class TokenCache:
    """Token-hash arrays for a fixed document collection.

    The cache stores one uint64 hash array per document.  Everything
    downstream (n-gram hashing, span windows) is pure numpy on these
    arrays, which is what makes full-corpus prediction affordable.
    It pickles flat, as one concatenated array plus the per-document
    lengths, and loads as views into that array.
    """

    def __init__(self, texts: Iterable[str]) -> None:
        self._arrays: list[np.ndarray] = [hash_text(t) for t in texts]

    def __getstate__(self) -> dict:
        hashes = (
            np.concatenate(self._arrays) if self._arrays
            else np.empty(0, dtype=np.uint64)
        )
        return {"hashes": hashes, "lengths": self.lengths()}

    def __setstate__(self, state: dict) -> None:
        ends = np.cumsum(state["lengths"]).tolist()
        hashes = state["hashes"]
        self._arrays = [
            hashes[start:end] for start, end in zip([0, *ends], ends)
        ]

    def __len__(self) -> int:
        return len(self._arrays)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._arrays[index]

    @property
    def arrays(self) -> list[np.ndarray]:
        return self._arrays

    def lengths(self) -> np.ndarray:
        return np.array([a.size for a in self._arrays], dtype=np.int64)

    def subset(self, indices: Sequence[int]) -> "TokenCache":
        sub = TokenCache([])
        sub._arrays = [self._arrays[i] for i in indices]
        return sub

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "TokenCache":
        cache = cls([])
        cache._arrays = arrays
        return cache


class TokenHashCache:
    """Streaming sibling of :class:`TokenCache`: bounded LRU keyed on text.

    Where :class:`TokenCache` is built once over a *fixed* corpus, this
    cache serves an unbounded message stream: the first occurrence of a
    text pays :func:`hash_text`, every repeat is a dictionary lookup.
    Eviction cannot affect outputs — :func:`hash_text` is pure, so a
    re-miss recomputes the identical array (see
    :mod:`repro.util.cache`).

    Callers must treat returned arrays as read-only; repeats of a text
    share one array object.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._cache: LRUCache[str, np.ndarray] = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._cache)

    def hashes(self, text: str) -> np.ndarray:
        """Token-hash array for ``text`` (cached)."""
        return self._cache.get_or_compute(text, hash_text)[0]

    def cached(self, text: str) -> tuple[np.ndarray, bool]:
        """Token-hash array plus whether it was a cache hit."""
        return self._cache.get_or_compute(text, hash_text)
