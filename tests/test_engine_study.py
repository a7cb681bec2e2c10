"""Integration tests: the study as a cached, parallelizable stage graph."""

import shutil

import numpy as np
import pytest

from repro.engine import PICKLE, STATUS_HIT, STATUS_RECOVERED, ArtifactStore
from repro.lab import StudyConfig, run_study
from repro.nlp.tokenize import TokenCache
from repro.pipeline.vectorized import VectorizedCorpus
from repro.types import Task


def _assert_results_identical(a, b):
    """Byte-level equality of two studies' pipeline results."""
    assert [d.doc_id for d in a.corpus] == [d.doc_id for d in b.corpus]
    for task in Task:
        left, right = a.results[task], b.results[task]
        assert left.scores.tobytes() == right.scores.tobytes()
        assert left.eval_auc == right.eval_auc
        assert left.eval_report == right.eval_report
        assert left.training_data_sizes == right.training_data_sizes
        assert left.annotation_stats == right.annotation_stats
        assert set(left.outcomes) == set(right.outcomes)
        for source, outcome in left.outcomes.items():
            other = right.outcomes[source]
            assert outcome.threshold == other.threshold
            assert outcome.n_above == other.n_above
            assert outcome.n_annotated == other.n_annotated
            np.testing.assert_array_equal(
                outcome.true_positive_positions, other.true_positive_positions
            )
            np.testing.assert_array_equal(
                outcome.above_positions, other.above_positions
            )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("study-cache"))


@pytest.fixture(scope="module")
def cold_study(cache_dir):
    return run_study(StudyConfig.tiny(), cache_dir=cache_dir)


def test_cold_run_executes_everything(cold_study):
    report = cold_study.run_report
    assert report.n_cache_hits == 0
    assert report.n_executed > 20  # corpus, vectorized, both task pipelines
    names = {r.name for r in report.records}
    for expected in (
        "corpus", "vectorized", "seed:doxing", "al:doxing:0",
        "evaluate:call_to_harassment", "annotate:doxing:pastes",
        "result:call_to_harassment",
    ):
        assert expected in names


def test_warm_run_executes_zero_stages(cold_study, cache_dir):
    warm = run_study(StudyConfig.tiny(), cache_dir=cache_dir)
    assert warm.run_report.n_executed == 0
    assert warm.run_report.n_cache_hits > 0
    _assert_results_identical(cold_study, warm)


def test_results_are_bound_to_the_vectorized_documents(cold_study, cache_dir):
    warm = run_study(StudyConfig.tiny(), cache_dir=cache_dir)
    assert warm.run_report.n_executed == 0
    for study in (cold_study, warm):
        for result in study.results.values():
            assert result.documents is study.vectorized.documents


def test_result_artifacts_store_no_documents(cold_study, cache_dir):
    store = ArtifactStore(cache_dir)
    for task in Task:
        name = f"result:{task.value}"
        cached = store.load(name, cold_study.run_report.record(name).key, PICKLE)
        assert cached.documents == ()
        assert cached.scores.tobytes() == cold_study.results[task].scores.tobytes()


def test_vectorized_artifact_in_the_old_pickle_state_is_recovered(
    cold_study, cache_dir, tmp_path, monkeypatch
):
    """A vectorized artifact written before the token cache pickled flat
    (and before the per-source positions existed) no longer loads: the
    engine quarantines it and recomputes the stage, same results."""
    old_cache = tmp_path / "cache"
    shutil.copytree(cache_dir, old_cache)
    store = ArtifactStore(old_cache)
    key = cold_study.run_report.record("vectorized").key
    vectorized = store.load("vectorized", key, PICKLE)
    with monkeypatch.context() as old_state:
        old_state.setattr(
            TokenCache, "__getstate__", lambda self: {"_arrays": self.arrays}
        )
        old_state.setattr(
            VectorizedCorpus, "__getstate__",
            lambda self: {
                name: value for name, value in self.__dict__.items()
                if name not in ("_view_lock", "_by_source")
            },
        )
        store.save("vectorized", key, PICKLE, vectorized)
    with pytest.raises(KeyError):  # checksum intact: the state is stale
        store.load("vectorized", key, PICKLE)

    healed = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    statuses = {r.name: r.status for r in healed.run_report.records}
    assert statuses["vectorized"] == STATUS_RECOVERED
    assert statuses["corpus"] == STATUS_HIT
    _assert_results_identical(cold_study, healed)
    assert store.load("vectorized", key, PICKLE).cache.lengths().tobytes() == (
        cold_study.vectorized.cache.lengths().tobytes()
    )


def test_uncached_run_matches_cached(cold_study):
    plain = run_study(StudyConfig.tiny())
    _assert_results_identical(cold_study, plain)


def test_seed_change_invalidates_cache(cold_study, cache_dir):
    other = run_study(StudyConfig.tiny(seed=11), cache_dir=cache_dir)
    assert other.run_report.n_executed > 0
    assert not np.array_equal(
        other.results[Task.DOX].scores, cold_study.results[Task.DOX].scores
    )


def test_force_reruns_cached_stages(cold_study, cache_dir):
    forced = run_study(StudyConfig.tiny(), cache_dir=cache_dir, force=True)
    assert forced.run_report.n_cache_hits == 0
    assert forced.run_report.n_executed == cold_study.run_report.n_executed
    _assert_results_identical(cold_study, forced)


def test_parallel_jobs_byte_identical(cold_study):
    parallel = run_study(StudyConfig.tiny(), jobs=4)
    _assert_results_identical(cold_study, parallel)


def test_coded_tables_byte_identical_across_runs(cold_study):
    """The DET003 dogfood fix (set -> dict.fromkeys dedupe in the coded
    tables) keeps downstream analyses byte-identical, not just equal:
    repr equality pins dict insertion order, which is what artifact
    serialization would observe."""
    from repro.analysis.attack_stats import attack_type_table, subtype_table
    from repro.analysis.gender_stats import gender_subtype_table

    plain = run_study(StudyConfig.tiny())
    for build in (attack_type_table, subtype_table):
        left = build(cold_study.coded_cth_by_platform)
        right = build(plain.coded_cth_by_platform)
        assert left == right
        assert repr(left) == repr(right)
    assert repr(gender_subtype_table(cold_study.coded_cth)) == repr(
        gender_subtype_table(plain.coded_cth)
    )


def test_run_report_attached_and_renders(cold_study):
    table = cold_study.run_report.render()
    assert "corpus" in table
    assert "result:doxing" in table
