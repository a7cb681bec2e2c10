"""Integration tests for the end-to-end filtering pipeline (tiny study)."""

import numpy as np
import pytest

from repro.pipeline.filtering import TASK_MAX_TOKENS, TASK_SOURCES, PipelineConfig
from repro.types import Source, Task


def test_task_sources_match_paper():
    assert Source.PASTES in TASK_SOURCES[Task.DOX]
    assert Source.PASTES not in TASK_SOURCES[Task.CTH]
    assert set(TASK_SOURCES[Task.CTH]) == {
        Source.BOARDS, Source.GAB, Source.DISCORD, Source.TELEGRAM
    }


def test_task_text_lengths_ordered():
    # Dox task uses longer spans than CTH (paper Table 3: 512 vs 128 chars).
    assert TASK_MAX_TOKENS[Task.DOX] > TASK_MAX_TOKENS[Task.CTH]


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(eval_fraction=0.9)
    with pytest.raises(ValueError):
        PipelineConfig(al_rounds=-1)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
def test_config_rejects_bad_target_precision(bad):
    with pytest.raises(ValueError, match="target_precision"):
        PipelineConfig(target_precision=bad)


@pytest.mark.parametrize("bad", [0, -5])
def test_config_rejects_bad_spot_sample_size(bad):
    with pytest.raises(ValueError, match="spot_sample_size"):
        PipelineConfig(spot_sample_size=bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_config_rejects_bad_model_epochs(bad):
    with pytest.raises(ValueError, match="model_epochs"):
        PipelineConfig(model_epochs=bad)


def test_config_boundary_values_accepted():
    PipelineConfig(target_precision=1.0, spot_sample_size=1, model_epochs=1)


def test_pipeline_produces_outcomes_for_all_sources(tiny_study):
    for task in Task:
        result = tiny_study.results[task]
        assert set(result.outcomes) == set(TASK_SOURCES[task])


def test_above_threshold_counts_consistent(tiny_study):
    for task in Task:
        result = tiny_study.results[task]
        for outcome in result.outcomes.values():
            assert outcome.n_above == len(outcome.above_positions)
            assert outcome.n_true_positive == len(outcome.true_positive_positions)
            assert outcome.n_true_positive <= outcome.n_annotated <= max(outcome.n_above, 1)


def test_true_positives_are_mostly_actual_positives(tiny_study):
    """Expert-annotated TPs should overwhelmingly be oracle positives
    (expert accuracy is ~95-99%)."""
    for task in Task:
        result = tiny_study.results[task]
        docs = result.true_positive_documents()
        assert docs
        oracle = np.mean([d.truth_for(task) for d in docs])
        assert oracle > 0.9


def test_pipeline_recall_of_planted_positives(tiny_study):
    """Most planted positives end up above the threshold."""
    for task in Task:
        result = tiny_study.results[task]
        docs = result.documents
        above = set()
        for outcome in result.outcomes.values():
            above.update(int(p) for p in outcome.above_positions)
        eligible_sources = set(TASK_SOURCES[task])
        positives = [
            i for i, d in enumerate(docs)
            if d.truth_for(task) and d.source in eligible_sources
        ]
        recall = np.mean([i in above for i in positives])
        assert recall > 0.7, (task, recall)


def test_scores_are_probabilities(tiny_study):
    for task in Task:
        scores = tiny_study.results[task].scores
        assert scores.shape[0] == len(tiny_study.vectorized)
        assert (scores >= 0).all() and (scores <= 1).all()


def test_eval_report_shape(tiny_study):
    for task in Task:
        report = tiny_study.results[task].eval_report
        assert set(report) == {"positive", "negative", "weighted_avg", "macro_avg"}
        for row in report.values():
            for key in ("precision", "recall", "f1"):
                assert 0 <= row[key] <= 1


def test_dox_outperforms_cth(tiny_study):
    """The paper's headline classifier ordering: dox is the easier task."""
    dox_f1 = tiny_study.results[Task.DOX].eval_report["positive"]["f1"]
    cth_f1 = tiny_study.results[Task.CTH].eval_report["positive"]["f1"]
    assert dox_f1 > cth_f1


def test_training_data_sizes_populated(tiny_study):
    for task in Task:
        sizes = tiny_study.results[task].training_data_sizes
        total_pos = sum(pos for pos, _neg in sizes.values())
        total_neg = sum(neg for _pos, neg in sizes.values())
        assert total_pos > 0 and total_neg > 0
        assert total_neg > total_pos  # negatives dominate, as in Table 2


def test_annotation_stats_recorded(tiny_study):
    for task in Task:
        stats = tiny_study.results[task].annotation_stats
        assert stats.n_documents > 0
        assert 0 <= stats.disagreement_rate <= 1
        assert stats.n_tiebreaks >= 0


def test_cth_crowd_agreement_weaker_than_dox(tiny_study):
    dox = tiny_study.results[Task.DOX].annotation_stats
    cth = tiny_study.results[Task.CTH].annotation_stats
    assert cth.kappa < dox.kappa
    assert cth.disagreement_rate > dox.disagreement_rate


def test_funnel_monotone(tiny_study):
    for task in Task:
        funnel = tiny_study.results[task].funnel()
        assert funnel["true_positive"] <= funnel["sampled"] <= max(funnel["above_threshold"], 1)


def test_pipeline_determinism(tiny_study):
    """Re-running the same pipeline config reproduces identical outcomes."""
    from repro.lab import StudyConfig, run_study

    again = run_study(StudyConfig.tiny())
    for task in Task:
        a = tiny_study.results[task]
        b = again.results[task]
        assert a.n_above_total == b.n_above_total
        assert a.n_true_positive_total == b.n_true_positive_total
        np.testing.assert_allclose(a.scores, b.scores)
