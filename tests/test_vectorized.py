"""Unit tests for the shared vectorization layer (TaskView)."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from repro.corpus.documents import Document
from repro.nlp.spans import SpanStrategy
from repro.pipeline.vectorized import VectorizedCorpus, _compact
from repro.types import Platform, Source


def _docs(texts):
    return [
        Document(
            doc_id=i, platform=Platform.GAB, source=Source.GAB, domain="g",
            text=t, timestamp=float(i), author="a",
        )
        for i, t in enumerate(texts)
    ]


@pytest.fixture()
def vc():
    texts = ["short text here"] * 5 + ["word " * 500] * 3
    return VectorizedCorpus(_docs(texts), seed=1)


def test_short_docs_single_span(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    short_rows = np.sum(view.span_doc < 5)
    assert short_rows == 5


def test_long_docs_multiple_spans(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    long_rows = np.sum(view.span_doc >= 5)
    assert long_rows > 3  # more than one span per long doc


def test_view_cached(vc):
    a = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    b = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    assert a is b
    vc.drop_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    c = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    assert c is not a


def test_doc_scores_average(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    span_scores = np.ones(view.matrix.shape[0])
    doc_scores = view.doc_scores(span_scores)
    np.testing.assert_allclose(doc_scores, 1.0)
    assert doc_scores.shape == (8,)


def test_doc_scores_weighted_correctly(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    span_scores = view.span_doc.astype(float)  # score = owning doc index
    doc_scores = view.doc_scores(span_scores)
    np.testing.assert_allclose(doc_scores, np.arange(8, dtype=float))


def test_rows_for_docs_alignment(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    rows, owner = view.rows_for_docs([6, 2])
    assert rows.shape[0] == owner.size
    # owner indexes into the *given* positions: 0 -> doc 6, 1 -> doc 2.
    assert set(owner.tolist()) == {0, 1}
    n_doc6 = int(np.sum(view.span_doc == 6))
    assert int(np.sum(owner == 0)) == n_doc6


def test_compact_dtypes(vc):
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    assert view.matrix.data.dtype == np.float32
    assert view.matrix.indices.dtype == np.int32
    # Mixed int32/int64 index arrays make SciPy convert both on every
    # row gather and mat-vec; a view and its gathers keep int32 for both.
    assert view.matrix.indptr.dtype == np.int32
    rows, _ = view.rows_for_docs([6, 2])
    assert rows.indices.dtype == rows.indptr.dtype == np.int32


def test_compact_widens_both_index_arrays_together():
    # A dimension past int32 needs int64 indices, so indptr widens too.
    wide = sparse.csr_matrix(
        (np.ones(1), (np.zeros(1, dtype=np.int64), np.array([2**31]))),
        shape=(1, 2**31 + 1),
    )
    compact = _compact(wide)
    assert compact.indices.dtype == compact.indptr.dtype == np.int64
    assert compact.data.dtype == np.float32
    assert compact.indices.tolist() == [2**31]


def test_deterministic_views():
    texts = ["word " * 300, "short"]
    a = VectorizedCorpus(_docs(texts), seed=3).task_view(16, SpanStrategy.RANDOM_NO_OVERLAP)
    b = VectorizedCorpus(_docs(texts), seed=3).task_view(16, SpanStrategy.RANDOM_NO_OVERLAP)
    assert (a.matrix != b.matrix).nnz == 0
    np.testing.assert_array_equal(a.span_doc, b.span_doc)


def test_strategies_produce_distinct_views(vc):
    random_view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    head_tail = vc.task_view(32, SpanStrategy.HEAD_TAIL)
    assert head_tail is not random_view


def test_source_positions_are_computed_once_per_corpus():
    sources = [Source.GAB, None, Source.PASTES, Source.GAB, Source.BOARDS, None]
    docs = [
        dataclasses.replace(doc, source=source)
        for doc, source in zip(_docs([f"text {i}" for i in range(6)]), sources)
    ]
    vc = VectorizedCorpus(docs)
    by_source = vc._source_positions()
    assert vc._source_positions() is by_source
    for source in Source:
        expected = [i for i, s in enumerate(sources) if s is source]
        np.testing.assert_array_equal(by_source[source], expected)
        assert not by_source[source].flags.writeable
    # A vectorized artifact pickled before the cache existed lacks it.
    state = vc.__getstate__()
    del state["_by_source"]
    older = VectorizedCorpus.__new__(VectorizedCorpus)
    older.__setstate__(state)
    for source, positions in older._source_positions().items():
        np.testing.assert_array_equal(positions, by_source[source])
