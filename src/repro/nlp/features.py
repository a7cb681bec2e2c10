"""Hashed n-gram feature extraction over token-hash arrays.

The vectorizer maps each document (a uint64 token-hash array from
:class:`repro.nlp.tokenize.TokenCache`) to a sparse row of unigram and
bigram counts in a fixed ``2**n_bits`` feature space.  No vocabulary is
fitted, so features can be computed once per corpus and shared by every
training round of the pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.nlp.tokenize import TokenCache, TokenHashCache, hash_text

#: Multiplier used to mix bigram halves (Knuth's 64-bit constant).
_MIX = np.uint64(0x9E3779B97F4A7C15)


class HashingVectorizer:
    """Unigram+bigram hashing vectorizer producing L2-normalised CSR rows."""

    def __init__(self, n_bits: int = 18, use_bigrams: bool = True) -> None:
        if not 8 <= n_bits <= 26:
            raise ValueError(f"n_bits must be in [8, 26], got {n_bits}")
        self.n_bits = n_bits
        self.use_bigrams = use_bigrams

    @property
    def n_features(self) -> int:
        return 1 << self.n_bits

    def _feature_keys(self, hash_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Every unigram and in-row bigram as a key ``row << n_bits | id``."""
        hashes = np.concatenate([np.empty(0, dtype=np.uint64), *hash_arrays])
        lengths = [row.size for row in hash_arrays]
        rows = np.repeat(np.arange(len(hash_arrays), dtype=np.int64), lengths)
        mask = np.uint64(self.n_features - 1)
        keys = (rows << self.n_bits) | (hashes & mask).astype(np.int64)
        if not self.use_bigrams:
            return keys
        pairs = np.flatnonzero(rows[1:] == rows[:-1])  # no bigram spans two rows
        bigrams = ((hashes[pairs] * _MIX) ^ hashes[pairs + 1]) & mask
        return np.concatenate(
            [keys, (rows[pairs] << self.n_bits) | bigrams.astype(np.int64)]
        )

    def transform_hashes(self, hash_arrays: Sequence[np.ndarray]) -> sparse.csr_matrix:
        """Vectorize pre-hashed documents (or spans) into one CSR matrix.

        One pass over the whole batch: a single ``np.unique`` over the
        packed keys yields each row's sorted feature ids with their
        counts, exactly as a ``np.unique`` per row would.  Squared counts
        are small integers, so the row norms are exact in float64
        whatever the summation order.  ``indices`` and ``indptr`` are
        int32 when every entry offset and dimension fits it, else int64:
        the dtype ``csr_matrix`` would pick for them by SciPy's
        ``get_index_dtype`` rule, so it neither scans nor copies them.
        """
        n_rows = len(hash_arrays)
        keys, counts = np.unique(self._feature_keys(hash_arrays), return_counts=True)
        key_rows = keys >> self.n_bits
        norms = np.sqrt(
            np.bincount(key_rows, weights=counts * counts, minlength=n_rows)
        )
        fits = max(keys.size, n_rows, self.n_features) <= np.iinfo(np.int32).max
        index_dtype = np.int32 if fits else np.int64
        indptr = np.zeros(n_rows + 1, dtype=index_dtype)
        np.cumsum(np.bincount(key_rows, minlength=n_rows), out=indptr[1:])
        data = counts / norms[key_rows]
        indices = (keys & np.int64(self.n_features - 1)).astype(index_dtype)
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(n_rows, self.n_features)
        )

    def transform_cache(self, cache: TokenCache) -> sparse.csr_matrix:
        return self.transform_hashes(cache.arrays)

    def transform_texts(
        self,
        texts: Sequence[str],
        token_cache: TokenHashCache | None = None,
    ) -> sparse.csr_matrix:
        """Vectorize raw texts, optionally through a streaming token cache.

        With ``token_cache``, repeated texts (template-heavy streams)
        hit :func:`~repro.nlp.tokenize.hash_text` once per distinct
        text; without it every text is tokenized afresh.  The output is
        identical either way — the cache memoises a pure function.
        """
        if token_cache is None:
            return self.transform_hashes([hash_text(t) for t in texts])
        return self.transform_hashes([token_cache.hashes(t) for t in texts])
