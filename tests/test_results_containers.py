"""Unit tests for the pipeline result containers."""

import dataclasses

import numpy as np
import pytest

from repro.corpus.documents import Document, GroundTruth
from repro.pipeline.results import (
    AnnotationProcessStats,
    PipelineResult,
    SourceOutcome,
)
from repro.types import Platform, Source, Task


def _doc(i, source=Source.GAB, is_cth=False):
    return Document(
        doc_id=i, platform=source.platform, source=source, domain="d",
        text=f"text {i}", timestamp=float(i), author="a",
        truth=GroundTruth(is_cth=is_cth),
    )


@pytest.fixture()
def result():
    docs = [_doc(i, is_cth=(i % 3 == 0)) for i in range(30)]
    outcome_gab = SourceOutcome(
        source=Source.GAB, threshold=0.5, n_above=10, n_annotated=8,
        n_true_positive=6, fully_annotated=False,
        above_positions=np.arange(10),
        true_positive_positions=np.arange(0, 18, 3),
    )
    return PipelineResult(
        task=Task.CTH,
        documents=docs,
        outcomes={Source.GAB: outcome_gab},
        eval_report={"positive": {"f1": 0.7}},
        eval_auc=0.9,
        training_data_sizes={Source.GAB: (5, 20)},
        annotation_stats=AnnotationProcessStats(25, 0.2, 0.4, 5, 0, 1),
        scores=np.linspace(0, 1, 30),
        max_tokens=32,
    )


def test_totals(result):
    assert result.n_above_total == 10
    assert result.n_annotated_total == 8
    assert result.n_true_positive_total == 6


def test_precision(result):
    assert result.outcomes[Source.GAB].precision == 6 / 8


def test_precision_zero_annotated():
    outcome = SourceOutcome(
        source=Source.GAB, threshold=0.5, n_above=0, n_annotated=0,
        n_true_positive=0, fully_annotated=True,
        above_positions=np.empty(0, dtype=np.int64),
        true_positive_positions=np.empty(0, dtype=np.int64),
    )
    assert outcome.precision == 0.0


def test_true_positive_documents(result):
    docs = result.true_positive_documents()
    assert len(docs) == 6
    assert all(d.truth.is_cth for d in docs)  # positions 0,3,6,... are CTH


def test_source_filter(result):
    assert result.true_positive_documents(Source.BOARDS) == []
    assert len(result.above_threshold_documents(Source.GAB)) == 10


def test_funnel_keys(result):
    funnel = result.funnel()
    assert set(funnel) == {
        "raw_documents", "annotations", "above_threshold", "sampled", "true_positive"
    }
    assert funnel["raw_documents"] == 30
    assert funnel["annotations"] == 25


def test_bind_attaches_one_document_per_score(result):
    documents = list(result.documents)
    bare = dataclasses.replace(result, documents=())
    bound = bare.bind(documents)
    assert bound.documents is documents
    assert bare.documents == ()
    assert bound.true_positive_documents() == result.true_positive_documents()
    assert bound.funnel() == result.funnel()


@pytest.mark.parametrize("size", [0, 29, 31])
def test_bind_rejects_a_document_list_of_the_wrong_length(result, size):
    documents = [_doc(i) for i in range(size)]
    with pytest.raises(ValueError, match=f"{size} documents for 30 scores"):
        result.bind(documents)
