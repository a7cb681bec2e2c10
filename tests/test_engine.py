"""Unit tests for the staged execution engine (keys, store, scheduler)."""

import dataclasses
import enum
import threading

import numpy as np
import pytest

from repro.engine import (
    STATUS_HIT,
    STATUS_RECOVERED,
    STATUS_RUN,
    ArtifactStore,
    Engine,
    canonicalize,
    fingerprint,
)


# -- cache keys --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Knobs:
    seed: int = 7
    rate: float = 0.5


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


def test_fingerprint_stable_for_equal_content():
    assert fingerprint(_Knobs()) == fingerprint(_Knobs())
    assert fingerprint(_Knobs(seed=8)) != fingerprint(_Knobs())
    assert fingerprint(_Color.RED) != fingerprint(_Color.BLUE)


def test_fingerprint_mapping_order_independent():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})


def test_fingerprint_distinguishes_types():
    assert fingerprint(1) != fingerprint("1")
    assert fingerprint(True) != fingerprint(1)
    assert fingerprint((1, 2)) == fingerprint([1, 2])  # sequence kinds merge


def test_canonicalize_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonicalize(object())


# -- artifact store ----------------------------------------------------------


def test_store_roundtrip_and_entries(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "ab" * 16
    store.save("stage:one", key, np.arange(5))
    assert store.has("stage:one", key)
    np.testing.assert_array_equal(store.load("stage:one", key), np.arange(5))
    entries = store.entries()
    assert len(entries) == 1
    assert entries[0].stage == "stage_one"
    assert entries[0].key == key
    assert store.clear() == 1
    assert not store.has("stage:one", key)


def test_store_entries_skip_stale_temp_files(tmp_path):
    # A killed run leaves `.tmp-<pid>-<tid>-<stage>-<key>.<ext>` behind;
    # the greedy filename pattern would otherwise list it as a phantom
    # artifact under a mangled stage name.
    store = ArtifactStore(tmp_path)
    key = "ab" * 16
    store.save("stage", key, np.arange(3))
    stale = tmp_path / f".tmp-123-456-stage-{key}.pkl"
    stale.write_bytes(b"partial write")
    entries = store.entries()
    assert [e.stage for e in entries] == ["stage"]

    # A full clear sweeps the temp dropping too, and counts it.
    assert store.clear() == 2
    assert not stale.exists()
    assert store.entries() == []


def test_store_stage_filtered_clear_keeps_other_stages(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "ab" * 16
    store.save("keep", key, np.arange(3))
    store.save("drop", key, np.arange(4))
    assert store.clear(stages=["drop"]) == 1
    assert [e.stage for e in store.entries()] == ["keep"]


def test_corpus_codec_roundtrip(tmp_path, tiny_corpus):
    # The corpus stage pickles its Corpus: documents with their ground
    # truth, the platform index and the board threads come back equal.
    store = ArtifactStore(tmp_path)
    key = "cd" * 16
    store.save("corpus", key, tiny_corpus)
    loaded = store.load("corpus", key)
    assert list(loaded) == list(tiny_corpus)
    assert loaded.counts_by_platform() == tiny_corpus.counts_by_platform()
    assert len(loaded.threads) == len(tiny_corpus.threads) > 0
    for got, want in zip(loaded.threads, tiny_corpus.threads):
        assert (got.thread_id, got.domain, got.posts) == (
            want.thread_id, want.domain, want.posts
        )


# -- engine graph ------------------------------------------------------------


def _counting_engine(store=None, calls=None, **kwargs):
    calls = calls if calls is not None else []
    engine = Engine(store=store, **kwargs)

    def tracked(name, value):
        def fn(*inputs):
            calls.append(name)
            return value + sum(inputs)

        return fn

    a = engine.add("a", tracked("a", 1))
    b = engine.add("b", tracked("b", 10), inputs=(a,))
    c = engine.add("c", tracked("c", 100), inputs=(a,))
    d = engine.add("d", tracked("d", 1000), inputs=(b, c))
    return engine, calls, d


def test_engine_runs_in_dependency_order():
    engine, calls, d = _counting_engine()
    outcome = engine.run([d])
    assert outcome.values[d] == 1000 + (10 + 1) + (100 + 1)
    assert calls.index("a") < calls.index("b")
    assert calls.index("b") < calls.index("d")
    assert all(r.status == STATUS_RUN for r in outcome.report.records)


def test_engine_rejects_unknown_input_and_duplicate_name():
    engine = Engine()
    with pytest.raises(KeyError):
        engine.add("x", lambda y: y, inputs=("missing",))
    engine.add("x", lambda: 1)
    with pytest.raises(ValueError):
        engine.add("x", lambda: 2)


def test_engine_cache_roundtrip_skips_upstream(tmp_path):
    store = ArtifactStore(tmp_path)
    engine, calls, d = _counting_engine(store=store)
    first = engine.run([d])
    assert first.report.n_executed == 4

    # A fresh engine with the same graph: the target is cached, so no
    # stage function runs and no upstream artifact is even loaded.
    engine2, calls2, d2 = _counting_engine(store=store)
    second = engine2.run([d2])
    assert second.values[d2] == first.values[d]
    assert calls2 == []
    assert [r.name for r in second.report.records] == [d2]
    assert second.report.record(d2).status == STATUS_HIT


def test_engine_corrupt_artifact_recovers_transparently(tmp_path):
    # The full fault matrix lives in test_engine_recovery.py; this checks
    # the headline behaviour: a corrupt cached artifact no longer aborts
    # the run — it is quarantined and the stage recomputed.
    store = ArtifactStore(tmp_path)
    engine, _calls, d = _counting_engine(store=store)
    engine.run([d])

    path = store.path_for(d, engine.key_of(d))
    path.write_bytes(b"\x80")  # truncated pickle: unreadable

    engine2, _calls2, d2 = _counting_engine(store=store)
    outcome = engine2.run([d2])
    assert outcome.values[d2] == 1112
    assert outcome.report.record(d2).status == STATUS_RECOVERED
    assert list((tmp_path / "quarantine").iterdir())

    # The recompute rewrote the artifact: the next run is a clean hit.
    engine3, _calls3, d3 = _counting_engine(store=store)
    assert engine3.run([d3]).report.record(d3).status == STATUS_HIT


def test_engine_invalidation_on_key_change(tmp_path):
    store = ArtifactStore(tmp_path)
    engine = Engine(store=store)
    a = engine.add("a", lambda: 5, key=(1,))
    engine.run([a])

    engine2 = Engine(store=store)
    a2 = engine2.add("a", lambda: 6, key=(2,))
    outcome = engine2.run([a2])
    assert outcome.report.record(a2).status == STATUS_RUN
    assert outcome.values[a2] == 6


def test_engine_key_change_invalidates_downstream(tmp_path):
    store = ArtifactStore(tmp_path)

    def build(seed):
        engine = Engine(store=store)
        a = engine.add("a", lambda: seed, key=(seed,))
        b = engine.add("b", lambda x: x * 2, inputs=(a,))
        return engine, b

    engine, b = build(3)
    assert engine.run([b]).values[b] == 6
    engine2, b2 = build(4)  # upstream key change reruns b too
    outcome = engine2.run([b2])
    assert outcome.values[b2] == 8
    assert outcome.report.record(b2).status == STATUS_RUN


def test_engine_force_reruns_cached_stages(tmp_path):
    store = ArtifactStore(tmp_path)
    engine, calls, d = _counting_engine(store=store)
    engine.run([d])

    engine2, calls2, d2 = _counting_engine(store=store, force=True)
    outcome = engine2.run([d2])
    assert outcome.report.n_executed == 4
    assert sorted(calls2) == ["a", "b", "c", "d"]


def test_engine_parallel_matches_sequential():
    seq, _, d_seq = _counting_engine()
    par, _, d_par = _counting_engine(jobs=4)
    assert seq.run([d_seq]).values[d_seq] == par.run([d_par]).values[d_par]


def test_engine_parallel_error_propagates():
    engine = Engine(jobs=4)
    a = engine.add("a", lambda: 1)
    boom = engine.add("boom", lambda: (_ for _ in ()).throw(ValueError("nope")))
    with pytest.raises(ValueError, match="nope"):
        engine.run([a, boom])


def _chains_engine(store, jobs):
    """Six chains of depth four feeding one target: wider and deeper
    than a pool of two."""
    engine = Engine(store=store, jobs=jobs)
    tails = []
    for chain in range(6):
        prev = engine.add(
            f"s{chain}_0", lambda chain=chain: np.full(4, float(chain)),
        )
        for depth in range(1, 4):
            prev = engine.add(
                f"s{chain}_{depth}", lambda x, depth=depth: x * 2 + depth,
                inputs=(prev,),
            )
        tails.append(prev)
    engine.add("total", lambda *xs: np.concatenate(xs), inputs=tuple(tails))
    return engine


def _run_within(engine, targets, seconds=60.0):
    """``engine.run`` on a daemon thread: a hung pool fails the test
    instead of blocking the suite."""
    result = {}

    def target():
        try:
            result["outcome"] = engine.run(targets)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            result["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"engine.run did not finish within {seconds:.0f} s")
    if "error" in result:
        raise result["error"]
    return result["outcome"]


def _chain_runs(tmp_path, jobs):
    """Cold, warm and damaged runs of the chains graph at ``jobs``."""
    store = ArtifactStore(tmp_path / f"jobs{jobs}")
    outcomes = [_run_within(_chains_engine(store, jobs), ["total"]) for _ in range(2)]
    engine = _chains_engine(store, jobs)
    # Drop the target and every chain tail so the plan reaches depth
    # two, then corrupt two of those mid-chain artifacts.
    for name in ["total"] + [f"s{chain}_3" for chain in range(6)]:
        store.path_for(name, engine.key_of(name)).unlink()
    for name in ("s1_2", "s4_2"):
        path = store.path_for(name, engine.key_of(name))
        path.write_bytes(path.read_bytes()[:-8])
    outcomes.append(_run_within(engine, ["total"]))
    return outcomes


def test_engine_pool_narrower_than_the_graph_matches_sequential(tmp_path):
    sequential = _chain_runs(tmp_path, jobs=1)
    parallel = _chain_runs(tmp_path, jobs=2)
    for seq, par in zip(sequential, parallel):
        assert seq["total"].tobytes() == par["total"].tobytes()
        assert [(r.name, r.status) for r in seq.report.records] == [
            (r.name, r.status) for r in par.report.records
        ]
    cold, warm, healed = parallel
    assert cold.report.n_executed == 25
    assert [(r.name, r.status) for r in warm.report.records] == [
        ("total", STATUS_HIT)
    ]
    statuses = {r.name: r.status for r in healed.report.records}
    assert statuses["s1_2"] == statuses["s4_2"] == STATUS_RECOVERED
    assert statuses["s1_1"] == statuses["s4_1"] == STATUS_HIT  # demanded
    assert healed.report.n_recovered == 2
    assert healed.report.n_executed == 7  # the target and the six tails


def test_run_report_render_mentions_stages():
    engine, _, d = _counting_engine()
    report = engine.run([d]).report
    text = report.render()
    assert "stage" in text and "a" in text and "total" in text
    assert report.total_seconds >= 0
