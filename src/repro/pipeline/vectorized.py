"""Shared vectorization layer for the filtering pipelines.

The raw corpus is tokenized exactly once (:class:`VectorizedCorpus`); each
task then derives a :class:`TaskView` — a sparse matrix with one row per
*span* (single full-document span for short documents, up to
``MAX_SPANS_PER_DOC`` windows for long ones) plus the span→document map.
Because hashed features do not depend on the trained model, every
full-corpus prediction pass of the active-learning loop reuses the same
matrix; only the dot product is repeated.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.corpus.documents import Document
from repro.nlp.features import HashingVectorizer
from repro.nlp.spans import SpanStrategy, make_spans
from repro.nlp.tokenize import TokenCache
from repro.types import Source
from repro.util.rng import child_rng


def _compact(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Shrink dtypes: float32 data, one index dtype for both index arrays.

    The index dtype is int32 when every entry offset and dimension fits
    it, else int64: SciPy's ``get_index_dtype`` rule.  SciPy converts
    ``indices`` and ``indptr`` to one dtype on every row gather and
    mat-vec of a matrix whose index arrays differ, so mixing int32 and
    int64 costs a copy of both arrays per call.
    """
    fits = max(matrix.nnz, *matrix.shape) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    matrix.data = matrix.data.astype(np.float32)
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


@dataclasses.dataclass
class TaskView:
    """Span-row matrix and bookkeeping for one task's text-length config."""

    matrix: sparse.csr_matrix  # (n_spans, n_features)
    span_doc: np.ndarray  # span row -> document position (local index)
    n_documents: int
    max_tokens: int
    strategy: SpanStrategy

    def doc_scores(self, span_scores: np.ndarray) -> np.ndarray:
        """Average span scores into document scores."""
        sums = np.bincount(self.span_doc, weights=span_scores, minlength=self.n_documents)
        counts = np.bincount(self.span_doc, minlength=self.n_documents)
        counts[counts == 0] = 1
        return sums / counts

    def rows_for_docs(self, doc_positions: Sequence[int]) -> tuple[sparse.csr_matrix, np.ndarray]:
        """All span rows belonging to ``doc_positions``.

        Returns the row matrix and, aligned with it, the position *within*
        ``doc_positions`` each row belongs to (for label broadcasting).
        """
        doc_positions = np.asarray(doc_positions, dtype=np.int64)
        owner = np.full(self.n_documents, -1, dtype=np.int64)
        owner[doc_positions] = np.arange(doc_positions.size)
        keep = owner[self.span_doc] >= 0
        rows = np.flatnonzero(keep)
        return self.matrix[rows], owner[self.span_doc[rows]]


class VectorizedCorpus:
    """Token cache + hashed features over a fixed document list.

    Features come from the same primitives the streaming scoring core
    uses — :func:`repro.nlp.tokenize.hash_text` per document (via
    :class:`~repro.nlp.tokenize.TokenCache`) and
    :meth:`~repro.nlp.features.HashingVectorizer.transform_hashes` —
    so a batch row and a streaming row for the same short text are
    identical by construction, not by parallel implementations agreeing
    (asserted in ``tests/test_score_core.py``).
    """

    def __init__(
        self,
        documents: Sequence[Document],
        vectorizer: HashingVectorizer | None = None,
        seed: int = 0,
    ) -> None:
        self.documents = list(documents)
        self.vectorizer = vectorizer or HashingVectorizer()
        self.seed = seed
        self.cache = TokenCache(doc.text for doc in self.documents)
        self._views: dict[tuple[int, SpanStrategy], TaskView] = {}
        self._by_source: dict[Source, np.ndarray] | None = None
        self._view_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.documents)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_view_lock"]  # locks do not pickle; recreated on load
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Artifacts written before the per-source cache existed lack it.
        self.__dict__.setdefault("_by_source", None)
        self._view_lock = threading.Lock()

    def _source_positions(self) -> dict[Source, np.ndarray]:
        """Positions of each source's documents (computed once, read-only).

        Thread-safe like :meth:`task_view`: the per-source stages of both
        pipelines share one vectorized corpus.
        """
        with self._view_lock:
            if self._by_source is None:
                source_of = np.array([
                    s.value if (s := doc.source) is not None else ""
                    for doc in self.documents
                ])
                by_source = {}
                for source in Source:
                    positions = np.flatnonzero(source_of == source.value)
                    positions.setflags(write=False)
                    by_source[source] = positions
                self._by_source = by_source
            return self._by_source

    def task_view(self, max_tokens: int, strategy: SpanStrategy) -> TaskView:
        """Build (or return the cached) span-row matrix for a task config.

        Thread-safe: concurrently-running pipeline stages share one
        vectorized corpus, so the view cache is built under a lock.
        The build itself is deterministic (a named RNG stream per view
        config), so which thread builds a view never changes its content.
        """
        key = (max_tokens, strategy)
        with self._view_lock:
            view = self._views.get(key)
            if view is not None:
                return view
            rng = child_rng(self.seed, "spans", max_tokens, strategy.value)
            arrays = []
            span_doc = []
            for pos, hashes in enumerate(self.cache.arrays):
                for start, end in make_spans(hashes.size, max_tokens, strategy, rng):
                    arrays.append(hashes[start:end])
                    span_doc.append(pos)
            matrix = _compact(self.vectorizer.transform_hashes(arrays))
            view = TaskView(
                matrix=matrix,
                span_doc=np.asarray(span_doc, dtype=np.int64),
                n_documents=len(self.documents),
                max_tokens=max_tokens,
                strategy=strategy,
            )
            self._views[key] = view
            return view

    def drop_view(self, max_tokens: int, strategy: SpanStrategy) -> None:
        """Free a cached view (the matrices are large)."""
        self._views.pop((max_tokens, strategy), None)
