"""Integration tests: the study as a cached, parallelizable stage graph."""

import pathlib
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.corpus.io import write_jsonl
from repro.engine import (
    STATUS_HIT,
    STATUS_RECOVERED,
    STATUS_RUN,
    ArtifactStore,
)
from repro.engine.faults import flip_bytes
from repro.engine.recovery import MANIFEST_NAME, checksum_file
from repro.lab import StudyConfig, run_study
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.nlp.serialize import save_filter_model
from repro.nlp.tokenize import TokenCache
from repro.pipeline.vectorized import VectorizedCorpus
from repro.reporting.tables import render_table3, render_table4
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


def test_cold_cache_holds_only_pickles(cold_study, cache_dir):
    suffixes = {path.name: path.suffix for path in pathlib.Path(cache_dir).iterdir()}
    assert suffixes.pop(MANIFEST_NAME) == ".json"
    assert len(suffixes) == len(cold_study.run_report.records) == 27
    assert set(suffixes.values()) == {".pkl"}


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
        cached = store.load(name, cold_study.run_report.record(name).key)
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
    vectorized = store.load("vectorized", key)
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
        store.save("vectorized", key, vectorized)
    with pytest.raises(KeyError):  # checksum intact: the state is stale
        store.load("vectorized", key)

    healed = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    statuses = {r.name: r.status for r in healed.run_report.records}
    assert statuses["vectorized"] == STATUS_RECOVERED
    assert statuses["corpus"] == STATUS_HIT
    _assert_results_identical(cold_study, healed)
    assert store.load("vectorized", key).cache.lengths().tobytes() == (
        cold_study.vectorized.cache.lengths().tobytes()
    )


def test_cache_with_a_jsonl_corpus_recomputes_only_the_corpus(
    cold_study, cache_dir, tmp_path
):
    """A cache written while the corpus artifact was JSONL: the corpus
    key is unchanged, so only the corpus stage misses (its artifact is
    now a pickle) and every other stage hits, with the same tables."""
    old_cache = tmp_path / "cache"
    shutil.copytree(cache_dir, old_cache)
    store = ArtifactStore(old_cache)
    key = cold_study.run_report.record("corpus").key
    pickled = store.path_for("corpus", key)
    store.manifest.forget(pickled.name)
    pickled.unlink()
    jsonl = pickled.with_suffix(".jsonl")
    write_jsonl(cold_study.corpus, jsonl)
    store.manifest.record(jsonl.name, checksum_file(jsonl))

    warm = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    statuses = {r.name: r.status for r in warm.run_report.records}
    assert statuses.pop("corpus") == STATUS_RUN
    assert statuses and set(statuses.values()) == {STATUS_HIT}
    assert pickled.exists()
    assert list(warm.corpus) == list(cold_study.corpus)
    _assert_results_identical(cold_study, warm)
    for render in (render_table3, render_table4):
        assert render(warm.results) == render(cold_study.results)


def test_cache_with_npz_models_and_npy_scores_loads_warm_and_heals(
    cold_study, cache_dir, tmp_path, capsys
):
    """A cache written while ``final-train:`` artifacts were ``.npz``
    filter models and ``score:`` artifacts ``.npy`` arrays: a warm run
    prunes both stages, a heal that needs them recomputes them as
    pickles, and ``repro cache`` still lists, verifies and clears the
    old files."""
    old_cache = tmp_path / "cache"
    shutil.copytree(cache_dir, old_cache)
    store = ArtifactStore(old_cache)
    old_files = []
    for task in Task:
        for stage in (f"final-train:{task.value}", f"score:{task.value}"):
            key = cold_study.run_report.record(stage).key
            pickled = store.path_for(stage, key)
            value = store.load(stage, key)
            if stage.startswith("final-train:"):
                old = pickled.with_suffix(".npz")
                save_filter_model(old, value, cold_study.vectorized.vectorizer)
            else:
                old = pickled.with_suffix(".npy")
                np.save(old, value, allow_pickle=False)
            store.manifest.forget(pickled.name)
            pickled.unlink()
            store.manifest.record(old.name, checksum_file(old))
            old_files.append(old)

    warm = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    assert (warm.run_report.n_executed, warm.run_report.n_cache_hits) == (0, 4)
    for render in (render_table3, render_table4):
        assert render(warm.results) == render(cold_study.results)

    for task in Task:
        name = f"result:{task.value}"
        flip_bytes(store.path_for(name, cold_study.run_report.record(name).key))
    healed = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    statuses = {r.name: r.status for r in healed.run_report.records}
    for task in Task:
        assert statuses.pop(f"result:{task.value}") == STATUS_RECOVERED
        for stage in (f"final-train:{task.value}", f"score:{task.value}"):
            assert statuses.pop(stage) == STATUS_RUN
            assert store.has(stage, cold_study.run_report.record(stage).key)
    assert set(statuses.values()) == {STATUS_HIT}
    _assert_results_identical(cold_study, healed)
    for render in (render_table3, render_table4):
        assert render(healed.results) == render(cold_study.results)

    capsys.readouterr()
    assert main(["cache", "ls", "--cache-dir", str(old_cache)]) == 0
    assert "31 artifacts" in capsys.readouterr().out
    assert main(["cache", "verify", "--cache-dir", str(old_cache)]) == 0
    out = capsys.readouterr().out
    for old in old_files:
        assert f"{old.name} ok" in " ".join(out.split())
    assert "31 ok, 0 corrupt, 0 missing, 0 unmanifested" in out
    assert main(["cache", "clear", "--cache-dir", str(old_cache)]) == 0
    assert "removed 31 cached artifacts" in capsys.readouterr().out
    assert not any(old.exists() for old in old_files)


def test_training_states_with_dense_weights_are_recovered(
    cold_study, cache_dir, tmp_path, monkeypatch
):
    """``train:``/``al:`` artifacts written before the classifier pickled
    its weights sparse no longer load: each is quarantined and its stage
    recomputed, same results."""
    old_cache = tmp_path / "cache"
    shutil.copytree(cache_dir, old_cache)
    store = ArtifactStore(old_cache)
    states = [
        record for record in cold_study.run_report.records
        if record.name.startswith(("train:", "al:"))
    ]
    assert len(states) == 6
    weights = {}
    with monkeypatch.context() as old_state:
        # Without __getstate__ a classifier pickles its __dict__.
        old_state.setattr(
            LogisticRegressionClassifier, "__getstate__", lambda self: self.__dict__
        )
        for record in states:
            state = store.load(record.name, record.key)
            weights[record.name] = state.classifier.weights.tobytes()
            store.save(record.name, record.key, state)
    with pytest.raises(KeyError):  # checksum intact: the state is stale
        store.load(states[0].name, states[0].key)
    # Drop the results, so the run must load the last round's state.
    for task in Task:
        name = f"result:{task.value}"
        store.path_for(name, cold_study.run_report.record(name).key).unlink()

    healed = run_study(StudyConfig.tiny(), cache_dir=str(old_cache))
    statuses = {r.name: r.status for r in healed.run_report.records}
    assert {statuses[record.name] for record in states} == {STATUS_RECOVERED}
    quarantined = {path.name for path in (old_cache / "quarantine").iterdir()}
    assert quarantined == {
        store.path_for(record.name, record.key).name for record in states
    }
    _assert_results_identical(cold_study, healed)
    for record in states:
        state = store.load(record.name, record.key)
        assert state.classifier.weights.tobytes() == weights[record.name]


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
