"""Edge-case and failure-injection tests for the pipeline layers."""

import numpy as np
import pytest

from repro.annotation.annotator import CROWD_PROFILES
from repro.annotation.crowdsource import CrowdsourcingService
from repro.corpus.documents import Document, GroundTruth
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.nlp.spans import SpanStrategy
from repro.pipeline.errors import PipelineError
from repro.pipeline.filtering import (
    FilterModel,
    FilteringPipeline,
    PipelineConfig,
    TrainingState,
)
from repro.pipeline.vectorized import VectorizedCorpus
from repro.types import Platform, Source, Task


def _mini_docs(n_pos=30, n_neg=120):
    docs = []
    for i in range(n_pos):
        docs.append(Document(
            doc_id=i, platform=Platform.GAB, source=Source.GAB, domain="g",
            text=f"we should mass report account {i} until banned",
            timestamp=float(i), author="a",
            truth=GroundTruth(is_cth=True),
        ))
    for i in range(n_neg):
        docs.append(Document(
            doc_id=n_pos + i, platform=Platform.GAB, source=Source.GAB, domain="g",
            text=f"lovely weather and recipe number {i} today",
            timestamp=float(i), author="a",
        ))
    return docs


def test_filter_model_on_mini_corpus():
    docs = _mini_docs()
    vc = VectorizedCorpus(docs, seed=1)
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    positions = np.arange(len(docs))
    labels = np.array([d.truth.is_cth for d in docs])
    model = FilterModel(view, epochs=4).fit(positions, labels)
    scores = model.predict_all()
    assert scores[labels].mean() > scores[~labels].mean()


def test_filter_model_single_class_rejected():
    docs = _mini_docs(n_pos=0, n_neg=50)
    vc = VectorizedCorpus(docs, seed=1)
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    with pytest.raises(ValueError):
        FilterModel(view).fit(np.arange(50), np.zeros(50, dtype=bool))


def test_predict_docs_subset_matches_predict_all():
    docs = _mini_docs()
    vc = VectorizedCorpus(docs, seed=1)
    view = vc.task_view(32, SpanStrategy.RANDOM_NO_OVERLAP)
    labels = np.array([d.truth.is_cth for d in docs])
    model = FilterModel(view, epochs=3).fit(np.arange(len(docs)), labels)
    all_scores = model.predict_all()
    subset = np.array([3, 77, 120])
    subset_scores = model.predict_docs(subset)
    np.testing.assert_allclose(subset_scores, all_scores[subset], rtol=1e-10)


def test_pipeline_zero_al_rounds(tiny_study):
    """The pipeline degenerates gracefully to seeds-only training."""
    config = PipelineConfig(seed=5, al_rounds=0, model_epochs=3, spot_sample_size=30)
    result = FilteringPipeline(Task.DOX, config).run(tiny_study.vectorized)
    assert result.n_true_positive_total > 0
    assert result.annotation_stats.n_documents == 0  # no crowd rounds ran
    assert result.documents is tiny_study.vectorized.documents


def test_pipeline_custom_caps(tiny_study):
    caps = {source: 25 for source in Source}
    config = PipelineConfig(seed=5, al_rounds=1, model_epochs=3,
                            spot_sample_size=30, annotation_caps=caps)
    result = FilteringPipeline(Task.CTH, config).run(tiny_study.vectorized)
    for outcome in result.outcomes.values():
        assert outcome.n_annotated <= 25


def test_pipeline_custom_threshold_grid(tiny_study):
    config = PipelineConfig(seed=5, al_rounds=1, model_epochs=3,
                            spot_sample_size=30, threshold_grid=(0.7, 0.9))
    result = FilteringPipeline(Task.CTH, config).run(tiny_study.vectorized)
    for outcome in result.outcomes.values():
        assert outcome.threshold in (0.7, 0.9)


def test_pipeline_alternative_span_strategy(tiny_study):
    config = PipelineConfig(
        seed=5, al_rounds=1, model_epochs=3, spot_sample_size=30,
        span_strategy=SpanStrategy.HEAD_TAIL,
    )
    result = FilteringPipeline(Task.DOX, config).run(tiny_study.vectorized)
    assert result.n_true_positive_total > 0
    tiny_study.vectorized.drop_view(128, SpanStrategy.HEAD_TAIL)


def test_evaluate_single_class_raises_pipeline_error():
    """Losing a class in the train split raises a structured PipelineError."""
    docs = _mini_docs(n_pos=40, n_neg=10)
    vc = VectorizedCorpus(docs, seed=1)
    pipeline = FilteringPipeline(Task.CTH, PipelineConfig(seed=1, model_epochs=2))
    # All-positive labels: whatever the eval split removes, training keeps
    # only one class.
    state = TrainingState(
        labels={i: True for i in range(40)},
        crowd_labels={i: True for i in range(30)},
        crowd_batches=(),
        crowd=CrowdsourcingService(CROWD_PROFILES[Task.CTH], seed=1),
        classifier=LogisticRegressionClassifier(),
    )
    with pytest.raises(PipelineError) as excinfo:
        pipeline._stage_evaluate(vc, state)
    error = excinfo.value
    assert isinstance(error, RuntimeError)  # backward-compatible hierarchy
    assert error.task is Task.CTH
    assert error.n_train_negative == 0
    assert error.n_train_positive > 0
    assert "al_per_bin" in str(error)
    assert "call_to_harassment" in str(error)


def test_pipeline_custom_max_tokens(tiny_study):
    config = PipelineConfig(seed=5, al_rounds=1, model_epochs=3,
                            spot_sample_size=30, max_tokens=16)
    result = FilteringPipeline(Task.CTH, config).run(tiny_study.vectorized)
    assert result.max_tokens == 16
    tiny_study.vectorized.drop_view(16, SpanStrategy.RANDOM_NO_OVERLAP)
