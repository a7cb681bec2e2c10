"""Fault-injection tests for the engine's self-healing layer.

Every test manufactures a failure deterministically (`repro.engine.faults`),
lets the engine heal, and asserts the healed run is byte-identical to a
clean one — the acceptance bar for the recovery layer.
"""

import os
import pathlib
import pickle
import shutil

import numpy as np
import pytest

from repro.engine import (
    STATUS_HIT,
    STATUS_RECOVERED,
    STATUS_RUN,
    ArtifactIntegrityError,
    ArtifactStore,
    CacheManifest,
    Engine,
    verify_cache,
)
from repro.engine.faults import flip_bytes, truncate_file
from repro.engine.recovery import (
    VERIFY_CORRUPT,
    VERIFY_MISSING,
    VERIFY_OK,
    VERIFY_UNMANIFESTED,
    checksum_file,
)
from repro.obs import Tracer, trace_jsonl


# -- fault harness -------------------------------------------------------------


def test_flip_bytes_is_deterministic_and_size_preserving(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(bytes(range(16)))
    flip_bytes(path, offsets=(0, -1), mask=0xFF)
    data = path.read_bytes()
    assert len(data) == 16
    assert data[0] == 0x00 ^ 0xFF and data[-1] == 0x0F ^ 0xFF
    assert data[1:-1] == bytes(range(1, 15))
    flip_bytes(path, offsets=(0, -1), mask=0xFF)  # involution: restores
    assert path.read_bytes() == bytes(range(16))


def test_flip_bytes_rejects_noop_faults(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        flip_bytes(path)
    path.write_bytes(b"x")
    with pytest.raises(ValueError):
        flip_bytes(path, mask=0)


def test_truncate_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(bytes(100))
    truncate_file(path, keep_fraction=0.3)
    assert path.stat().st_size == 30
    with pytest.raises(ValueError):
        truncate_file(path, keep_fraction=1.0)


# -- manifest + integrity ------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    manifest = CacheManifest(tmp_path / "manifest.json")
    assert manifest.expected("a.pkl") is None
    manifest.record("a.pkl", "ab" * 16)
    assert manifest.expected("a.pkl") == "ab" * 16
    manifest.forget("a.pkl")
    assert manifest.expected("a.pkl") is None
    manifest.forget("never-there.pkl")  # harmless


def test_save_records_checksum_and_load_verifies(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "cd" * 16
    path = store.save("stage", key, np.arange(8))
    assert store.manifest.expected(path.name) == checksum_file(path)

    flip_bytes(path, offsets=(100,))  # a data byte: parseable, but wrong
    with pytest.raises(ArtifactIntegrityError):
        store.load("stage", key)


def test_quarantine_moves_file_and_forgets_manifest(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "aa" * 16
    path = store.save("stage", key, 1)
    dest = store.quarantine(path)
    assert dest.parent == tmp_path / "quarantine"
    assert not path.exists()
    assert store.manifest.expected(path.name) is None
    # Re-quarantining a same-named file does not clobber the first.
    store.save("stage", key, 2)
    dest2 = store.quarantine(path)
    assert dest2 != dest and dest2.exists() and dest.exists()
    assert store.quarantine(path) is None  # already gone


def test_quarantine_of_a_file_another_thread_moved_returns_none(
    tmp_path, monkeypatch
):
    # The file is there when quarantine starts and gone when it moves it:
    # another process healing the same cache moved it first.
    store = ArtifactStore(tmp_path)
    path = store.save("stage", "aa" * 16, 1)
    real_replace = os.replace

    def raced(src, dst):
        if pathlib.Path(src) == path:
            real_replace(src, tmp_path / "moved-by-another-thread")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", raced)
    assert store.quarantine(path) is None
    assert store.manifest.expected(path.name) is None


def test_verify_cache_statuses(tmp_path):
    store = ArtifactStore(tmp_path)
    ok = store.save("good", "11" * 16, 1)
    corrupt = store.save("bad", "22" * 16, 2)
    unmanifested = store.save("old", "33" * 16, 3)
    missing = store.save("gone", "44" * 16, 4)
    flip_bytes(corrupt, offsets=(-1,))
    store.manifest.forget(unmanifested.name)
    missing.unlink()

    report = verify_cache(store)
    by_name = {f.filename: f.status for f in report.findings}
    assert by_name[ok.name] == VERIFY_OK
    assert by_name[corrupt.name] == VERIFY_CORRUPT
    assert by_name[unmanifested.name] == VERIFY_UNMANIFESTED
    assert by_name[missing.name] == VERIFY_MISSING
    assert not report.ok
    assert report.count(VERIFY_OK) == 1

    # An unmanifested artifact alone fails the audit: the next load of
    # it quarantines it.
    store.clear()
    store.save("good", "11" * 16, 1)
    unmanifested = store.save("old", "33" * 16, 3)
    store.manifest.forget(unmanifested.name)
    assert not verify_cache(store).ok

    store.clear()
    assert verify_cache(ArtifactStore(tmp_path)).findings == ()


# -- quarantine-and-recompute --------------------------------------------------


def _array_engine(store=None, calls=None, **kwargs):
    """A small diamond graph over numpy arrays (byte-comparable outputs)."""
    calls = calls if calls is not None else []
    engine = Engine(store=store, **kwargs)

    def tracked(name, fn):
        def wrapped(*inputs):
            calls.append(name)
            return fn(*inputs)

        return wrapped

    a = engine.add("a", tracked("a", lambda: np.arange(32.0)))
    b = engine.add("b", tracked("b", lambda x: x * 2), inputs=(a,))
    c = engine.add("c", tracked("c", lambda x: x + 1), inputs=(a,))
    d = engine.add(
        "d", tracked("d", lambda x, y: np.concatenate([x, y])), inputs=(b, c),
    )
    return engine, calls, d


@pytest.mark.parametrize("fault", ["flip", "truncate"])
def test_corrupt_target_quarantined_and_recomputed(tmp_path, fault):
    store = ArtifactStore(tmp_path)
    engine, _, d = _array_engine(store=store)
    clean = np.asarray(engine.run([d]).values[d])

    path = store.path_for("d", engine.key_of("d"))
    if fault == "flip":
        flip_bytes(path, offsets=(100,))
    else:
        truncate_file(path, keep_fraction=0.5)

    engine2, calls2, d2 = _array_engine(store=store)
    outcome = engine2.run([d2])
    np.testing.assert_array_equal(np.asarray(outcome.values[d2]), clean)
    record = outcome.report.record("d")
    assert record.status == STATUS_RECOVERED
    assert outcome.report.n_recovered == 1
    assert calls2 == ["d"]  # inputs loaded from cache, not recomputed
    assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [path.name]
    # The rewritten artifact is intact: next run is a pure cache hit.
    assert verify_cache(store).ok
    engine3, calls3, d3 = _array_engine(store=store)
    assert engine3.run([d3]).report.record("d").status == STATUS_HIT
    assert calls3 == []


def test_corrupt_upstream_cascade_recovery(tmp_path):
    # Both the target and one of its pruned upstream inputs are corrupt:
    # recovery must walk the subgraph, quarantining and recomputing only
    # what it needs, and report every recovered stage.
    store = ArtifactStore(tmp_path)
    engine, _, d = _array_engine(store=store)
    clean = np.asarray(engine.run([d]).values[d])

    flip_bytes(store.path_for("d", engine.key_of("d")))
    truncate_file(store.path_for("b", engine.key_of("b")), 0.25)

    engine2, calls2, d2 = _array_engine(store=store)
    outcome = engine2.run([d2])
    np.testing.assert_array_equal(np.asarray(outcome.values[d2]), clean)
    status = {r.name: r.status for r in outcome.report.records}
    assert status == {
        "d": STATUS_RECOVERED,
        "b": STATUS_RECOVERED,
        "a": STATUS_HIT,  # demanded by b's recompute, loaded intact
        "c": STATUS_HIT,
    }
    assert sorted(calls2) == ["b", "d"]
    assert len(list((tmp_path / "quarantine").iterdir())) == 2
    assert verify_cache(store).ok


def test_codec_load_failure_recovers_even_with_intact_bytes(tmp_path):
    # Bytes pass the checksum but do not unpickle: the quarantine path
    # must catch reader-level failures too.
    calls = []
    store = ArtifactStore(tmp_path)
    engine = Engine(store=store)
    s = engine.add("s", lambda: calls.append("s") or [1, 2, 3])
    first = engine.run([s])
    assert first.values[s] == [1, 2, 3]
    path = store.path_for(s, engine.key_of(s))
    path.write_bytes(path.read_bytes()[:-1])  # no STOP opcode
    store.manifest.record(path.name, checksum_file(path))
    assert verify_cache(store).ok

    engine2 = Engine(store=store)
    s2 = engine2.add("s", lambda: calls.append("s") or [1, 2, 3])
    outcome = engine2.run([s2])
    assert outcome.values[s2] == [1, 2, 3]
    assert outcome.report.record("s").status == STATUS_RECOVERED
    assert calls == ["s", "s"]
    assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [path.name]


def test_parallel_run_with_faults_matches_sequential_clean_run(tmp_path):
    store = ArtifactStore(tmp_path)
    engine, _, d = _array_engine(store=store)
    clean_bytes = pickle.dumps(np.asarray(engine.run([d]).values[d]).tobytes())

    for stage in ("b", "c", "d"):
        flip_bytes(store.path_for(stage, engine.key_of(stage)))

    engine2, _, d2 = _array_engine(store=store, jobs=4)
    outcome = engine2.run([d2])
    assert pickle.dumps(np.asarray(outcome.values[d2]).tobytes()) == clean_bytes
    assert outcome.report.record("d").status == STATUS_RECOVERED
    assert verify_cache(store).ok


def test_unmanifested_artifact_is_quarantined_and_recomputed(tmp_path):
    # An artifact the manifest does not list fails verification like a
    # corrupt one; its recompute writes the same bytes back.
    store = ArtifactStore(tmp_path)
    engine, _, d = _array_engine(store=store)
    engine.run([d])
    path = store.path_for("d", engine.key_of("d"))
    clean_bytes = path.read_bytes()
    store.manifest.forget(path.name)

    engine2, calls2, d2 = _array_engine(store=store)
    outcome = engine2.run([d2])
    assert outcome.report.record("d").status == STATUS_RECOVERED
    assert calls2 == ["d"]
    assert [p.name for p in (tmp_path / "quarantine").iterdir()] == [path.name]
    assert path.read_bytes() == clean_bytes
    assert verify_cache(store).ok
    engine3, calls3, d3 = _array_engine(store=store)
    assert engine3.run([d3]).report.record("d").status == STATUS_HIT
    assert calls3 == []


def test_parallel_stages_healing_one_damaged_input(tmp_path):
    # Four cached stages and the input they share are all damaged: each
    # heal needs the shared input, which is quarantined once, and the
    # four recompute at once on a pool of four.
    from tests.test_engine import _run_within

    def build(store):
        engine = Engine(store=store, jobs=4)
        engine.add("u", lambda: np.arange(64.0))
        xs = [
            engine.add(f"x{i}", lambda a, i=i: a * i, inputs=("u",))
            for i in range(4)
        ]
        engine.add("t", lambda *xs: np.concatenate(xs), inputs=tuple(xs))
        return engine

    for trial in range(30):
        store = ArtifactStore(tmp_path / str(trial))
        engine = build(store)
        clean = np.asarray(engine.run(["t"]).values["t"])
        store.path_for("t", engine.key_of("t")).unlink()
        for name in ("u", "x0", "x1", "x2", "x3"):
            flip_bytes(store.path_for(name, engine.key_of(name)))
        outcome = _run_within(build(store), ["t"])
        assert np.asarray(outcome.values["t"]).tobytes() == clean.tobytes()
        assert verify_cache(store).ok


def test_pooled_healing_resolves_each_stage_once(tmp_path):
    # x and y share the damaged input u; the plan prunes u, so healing
    # x and healing y both need it.  At every `jobs` the heal must
    # compute u once and trace the same records, events and statuses.
    from tests.test_engine import _run_within

    def build(store, jobs, calls, tracer=None):
        def u():
            calls.append("u")
            return np.arange(64.0)

        engine = Engine(store=store, jobs=jobs, tracer=tracer)
        engine.add("u", u)
        engine.add("x", lambda a: a * 2, inputs=("u",))
        engine.add("y", lambda a: a + 1, inputs=("u",))
        engine.add("t", lambda a, b: a + b, inputs=("x", "y"))
        return engine

    def heal(run, jobs):
        store = ArtifactStore(tmp_path / str(run))
        engine = build(store, 1, [])
        engine.run(["t"])
        store.path_for("t", engine.key_of("t")).unlink()
        for name in ("u", "x", "y"):
            flip_bytes(store.path_for(name, engine.key_of(name)))
        calls, tracer = [], Tracer()
        outcome = _run_within(build(store, jobs, calls, tracer), ["t"])
        assert calls == ["u"]
        assert verify_cache(store).ok
        statuses = [(r.name, r.status) for r in outcome.report.records]
        return statuses, trace_jsonl(tracer)

    statuses, trace = heal(0, jobs=1)
    assert statuses == [
        ("x", STATUS_RECOVERED), ("y", STATUS_RECOVERED), ("t", STATUS_RUN),
        ("u", STATUS_RECOVERED),
    ]
    for run in range(1, 21):
        assert heal(run, jobs=2) == (statuses, trace)


# -- failing stages ------------------------------------------------------------


def test_failing_stage_runs_exactly_once():
    calls = []

    def failing():
        calls.append("s")
        raise RuntimeError("stage failure")

    engine = Engine()
    engine.add("s", failing)
    with pytest.raises(RuntimeError, match="stage failure"):
        engine.run(["s"])
    assert calls == ["s"]


@pytest.mark.parametrize("jobs", [1, 4])
def test_failing_stage_stops_its_consumers(jobs):
    calls = []

    def tracked(name, fn):
        def wrapped(*inputs):
            calls.append(name)
            return fn(*inputs)

        return wrapped

    def boom(x):
        raise ValueError("boom")

    engine = Engine(jobs=jobs)
    a = engine.add("a", tracked("a", lambda: 1))
    b = engine.add("b", tracked("b", boom), inputs=(a,))
    c = engine.add("c", tracked("c", lambda x: x + 1), inputs=(b,))
    d = engine.add("d", tracked("d", lambda x: x * 2), inputs=(c,))
    with pytest.raises(ValueError, match="boom"):
        engine.run([d])
    assert calls == ["a", "b"]


# -- end-to-end: the study heals over a damaged cache --------------------------


@pytest.fixture(scope="module")
def damaged_study_cache(tmp_path_factory):
    """A cold tiny study plus its cache directory, for damage tests."""
    from repro.lab import StudyConfig, run_study

    cache_dir = str(tmp_path_factory.mktemp("study-cache"))
    study = run_study(StudyConfig.tiny(), cache_dir=cache_dir)
    return study, cache_dir


def _damage(cache_dir, stage_prefixes=("result_", "score_")):
    """Bit-flip one artifact and truncate another, picked by stage name."""
    store = ArtifactStore(cache_dir)
    entries = store.entries()
    flipped = next(e for e in entries if e.stage.startswith(stage_prefixes[0]))
    truncated = next(e for e in entries if e.stage.startswith(stage_prefixes[1]))
    flip_bytes(flipped.path, offsets=(-2,))
    truncate_file(truncated.path, keep_fraction=0.5)
    return flipped, truncated


def _heal(cache_dir, workdir, jobs):
    """Damage a copy of ``cache_dir`` under ``workdir`` and heal it at
    ``jobs``: the healed study, the damaged entries and the trace bytes."""
    from repro.lab import StudyConfig, run_study

    copy = workdir / "cache"
    shutil.copytree(cache_dir, copy)
    damaged = _damage(copy)
    trace_dir = workdir / "trace"
    healed = run_study(
        StudyConfig.tiny(), cache_dir=str(copy), jobs=jobs, trace_dir=str(trace_dir)
    )
    return healed, damaged, (trace_dir / "trace.jsonl").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_study_recovers_over_damaged_cache(damaged_study_cache, tmp_path, jobs):
    from tests.test_engine_study import _assert_results_identical

    cold, cache_dir = damaged_study_cache
    # Damage a result artifact (a warm target) and a score artifact (a
    # pruned upstream the recovery walk must discover on its own).
    healed, (flipped, truncated), trace = _heal(cache_dir, tmp_path / "a", jobs)
    _assert_results_identical(cold, healed)

    report = healed.run_report
    recovered = {r.name for r in report.records if r.status == STATUS_RECOVERED}
    assert recovered  # the damaged result stage healed in place

    store = ArtifactStore(tmp_path / "a" / "cache")
    assert sorted(p.name for p in (store.root / "quarantine").iterdir()) == sorted(
        [flipped.path.name, truncated.path.name]
    )
    assert verify_cache(store).ok
    # A second copy of the same damage heals at jobs=1 to the same trace.
    assert _heal(cache_dir, tmp_path / "b", 1)[2] == trace
