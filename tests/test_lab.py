"""Integration tests for the Study orchestration layer."""

from repro.lab import Study, StudyConfig, run_study
from repro.types import Platform, Task


def test_study_has_both_results(tiny_study):
    assert set(tiny_study.results) == set(Task)


def test_coded_cth_grouping(tiny_study):
    grouped = tiny_study.coded_cth_by_platform
    flat = tiny_study.coded_cth
    assert sum(len(v) for v in grouped.values()) == len(flat)
    for platform, coded_docs in grouped.items():
        assert all(c.document.platform is platform for c in coded_docs)


def test_coded_cth_platforms_are_analysis_platforms(tiny_study):
    # CTH analysis covers boards/chat/Gab (pastes excluded, blogs separate).
    assert set(tiny_study.coded_cth_by_platform) <= {
        Platform.BOARDS, Platform.CHAT, Platform.GAB
    }


def test_annotated_doxes_grouping(tiny_study):
    grouped = tiny_study.annotated_doxes_by_platform
    assert sum(len(v) for v in grouped.values()) == len(tiny_study.annotated_doxes)
    assert Platform.PASTES in grouped


def test_cached_properties_are_stable(tiny_study):
    assert tiny_study.coded_cth is tiny_study.coded_cth
    assert tiny_study.annotated_doxes is tiny_study.annotated_doxes


def test_above_threshold_accessor(tiny_study):
    for task in Task:
        docs = tiny_study.above_threshold(task)
        assert len(docs) == tiny_study.results[task].n_above_total


def test_vectorized_excludes_blogs(tiny_study):
    assert all(
        d.platform is not Platform.BLOGS for d in tiny_study.vectorized.documents
    )
    # But the corpus itself still has them (for the §8 analyses).
    assert tiny_study.corpus.by_platform(Platform.BLOGS)


def test_study_config_tiny_factory():
    config = StudyConfig.tiny(seed=9)
    assert config.corpus.seed == 9
    assert config.pipeline.seed == 9


def test_run_study_returns_study():
    study = run_study(StudyConfig.tiny(seed=12))
    assert isinstance(study, Study)
    assert len(study.corpus) > 1000
