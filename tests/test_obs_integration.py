"""Observability across the runtimes: byte-identical traces, CLI, diffs.

The acceptance-level properties for the unified obs layer:

* two serve runs of the same configuration — and the same run under
  different ``jobs``, with or without a rebalance schedule and a shard
  kill — save byte-identical ``trace.jsonl`` and ``metrics.json``;
* the engine's stage trace is a logical-clock replay, invariant to the
  stage thread pool and free of wall-clock values;
* ``repro obs diff`` exits as ``diff(1)`` does: 0 on identical trace
  dirs, 1 on any changed, added or removed series, however small, and
  2 on a dir that is not a trace dir;
* recording is strictly opt-in: a run without a recorder emits the same
  result objects as before the obs layer existed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.engine import Engine
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.obs import RunObserver, Tracer, load_run, metrics_json, trace_jsonl
from repro.serve import (
    KillSpec,
    LoadProfile,
    RebalanceSchedule,
    ServeConfig,
    ServingRuntime,
)
from repro.serve.ring import HOTTEST
from repro.service.monitor import HarassmentMonitor, MonitorConfig
from repro.service.stream import MessageStream
from repro.types import Platform, Task


@pytest.fixture(scope="module")
def obs_models():
    history = CorpusBuilder(CorpusConfig.tiny(seed=71)).build()
    train = [d for d in history if d.platform is not Platform.BLOGS]
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in train])
    models = {
        task: LogisticRegressionClassifier(epochs=2, seed=1).fit(
            features, np.array([d.truth_for(task) for d in train])
        )
        for task in Task
    }
    return models, vectorizer


@pytest.fixture(scope="module")
def obs_stream():
    live = CorpusBuilder(CorpusConfig.tiny(seed=72)).build()
    return MessageStream(
        [d for d in live if d.platform is not Platform.BLOGS][:600]
    )


def _factory(obs_models):
    models, vectorizer = obs_models
    config = MonitorConfig(campaign_min_messages=2)

    def make():
        return HarassmentMonitor(
            models[Task.CTH], models[Task.DOX], vectorizer, config
        )

    return make


def _traced_serve(obs_models, obs_stream, jobs, **elastic):
    recorder = RunObserver("serve")
    runtime = ServingRuntime(_factory(obs_models), ServeConfig(n_shards=3))
    result = runtime.serve_stream(
        obs_stream, LoadProfile(), jobs=jobs, recorder=recorder, **elastic
    )
    return result, recorder


# -- serve runtime -------------------------------------------------------------

def test_serve_trace_byte_identical_across_runs_and_jobs(
    obs_models, obs_stream
):
    result_a, rec_a = _traced_serve(obs_models, obs_stream, jobs=1)
    result_b, rec_b = _traced_serve(obs_models, obs_stream, jobs=4)
    assert trace_jsonl(rec_a.tracer) == trace_jsonl(rec_b.tracer)
    assert metrics_json(rec_a.metrics) == metrics_json(rec_b.metrics)
    assert result_a.alerts == result_b.alerts
    assert not rec_a.tracer.open_spans()
    # The elastic path too: a rebalance schedule plus a kill of the
    # hottest shard.
    elastic = dict(
        schedule=RebalanceSchedule.parse("2,4,3"), kill=KillSpec(HOTTEST, 0.5)
    )
    result_c, rec_c = _traced_serve(obs_models, obs_stream, 1, **elastic)
    result_d, rec_d = _traced_serve(obs_models, obs_stream, 4, **elastic)
    assert {"rebalance", "failover"} <= {e.name for e in rec_c.tracer.events()}
    assert trace_jsonl(rec_c.tracer) == trace_jsonl(rec_d.tracer)
    assert metrics_json(rec_c.metrics) == metrics_json(rec_d.metrics)
    assert result_c.alerts == result_d.alerts == result_a.alerts
    assert not rec_c.tracer.open_spans()


def test_serve_trace_structure(obs_models, obs_stream):
    result, recorder = _traced_serve(obs_models, obs_stream, jobs=1)
    spans = recorder.tracer.spans()
    names = {s.name for s in spans}
    assert {"route", "shard", "batch"} <= names
    # One shard span per shard, absorbed in shard-id order.
    shard_spans = [s for s in spans if s.name == "shard"]
    assert [s.labels["shard"] for s in shard_spans] == [0, 1, 2]
    # Batch spans parent to their shard span; component spans to batches.
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.name == "batch":
            assert by_id[span.parent_id].name == "shard"
            assert span.labels["flush"] in (
                "full", "arrival", "deadline", "drain"
            )
        if span.name in ("tokenize", "score", "extract", "state"):
            assert by_id[span.parent_id].name == "batch"
    # Every merged alert shows up as a trace event.
    alert_events = [e for e in recorder.tracer.events() if e.name == "alert"]
    assert len(alert_events) == len(result.alerts)
    # The diff gate gauge is published and positive.
    snapshot = recorder.metrics.as_dict()
    gate = snapshot["throughput_msgs_per_second"]["series"][0]["value"]
    assert gate == pytest.approx(result.telemetry.throughput_per_second)
    assert gate > 0


def test_serve_without_recorder_unchanged(obs_models, obs_stream):
    runtime = ServingRuntime(_factory(obs_models), ServeConfig(n_shards=3))
    plain = runtime.serve_stream(obs_stream, LoadProfile(), jobs=1)
    traced, _ = _traced_serve(obs_models, obs_stream, jobs=1)
    assert plain.alerts == traced.alerts
    assert plain.telemetry.as_dict() == traced.telemetry.as_dict()


# -- engine --------------------------------------------------------------------

def _diamond_engine(tracer, jobs, store=None, force=False):
    engine = Engine(store=store, jobs=jobs, force=force, tracer=tracer)
    engine.add("a", lambda: 1)
    engine.add("b", lambda a: a + 1, inputs=("a",))
    engine.add("c", lambda a: a * 10, inputs=("a",))
    engine.add("d", lambda b, c: b + c, inputs=("b", "c"))
    return engine


def test_engine_trace_invariant_to_jobs():
    traces = []
    for jobs in (1, 4):
        tracer = Tracer()
        outcome = _diamond_engine(tracer, jobs).run(["d"])
        assert outcome["d"] == 12
        traces.append(trace_jsonl(tracer))
    assert traces[0] == traces[1]
    # Logical clock only: stage spans are unit ticks in plan order, and
    # no record carries a wall-clock-sized value.
    records = [json.loads(line) for line in traces[0].splitlines()]
    run_record = records[0]
    assert run_record["name"] == "engine-run"
    stage_records = [r for r in records if r["name"] == "stage"]
    assert [r["labels"]["stage"] for r in stage_records] == [
        "a", "b", "c", "d"
    ]
    for i, record in enumerate(stage_records):
        assert record["start"] == float(i)
        assert record["end"] == float(i + 1)
        assert record["parent"] == run_record["span"]


def test_engine_trace_records_recovery(tmp_path):
    from repro.engine import ArtifactStore

    store = ArtifactStore(tmp_path)
    _diamond_engine(None, 1, store=store).run(["d"])  # warm the cache
    # Corrupt d's artifact: the next run must quarantine and recompute.
    victim = next(p for p in tmp_path.iterdir() if p.name.startswith("d-"))
    victim.write_bytes(b"garbage")
    tracer = Tracer()
    outcome = _diamond_engine(tracer, 1, store=store).run(["d"])
    assert outcome["d"] == 12
    assert outcome.report.n_recovered == 1
    events = tracer.events()
    assert [e.name for e in events if e.name == "quarantine"] == ["quarantine"]
    # Only d's direct inputs are demand-resolved (their cached artifacts
    # are intact, so the recursion stops there — "a" is never touched).
    demanded = [e.labels["stage"] for e in events if e.name == "demand"]
    assert set(demanded) == {"b", "c"}
    recovered = [
        s for s in tracer.spans()
        if s.name == "stage" and s.labels["status"] == "recovered"
    ]
    assert [s.labels["stage"] for s in recovered] == ["d"]


def test_engine_report_metrics_exclude_wall_clock():
    from repro.obs import MetricsRegistry

    tracer = Tracer()
    outcome = _diamond_engine(tracer, 1).run(["d"])
    registry = MetricsRegistry()
    outcome.report.populate_metrics(registry)
    snapshot = registry.as_dict()
    statuses = {
        series["labels"]["status"]: series["value"]
        for series in snapshot["engine_stages"]["series"]
    }
    assert statuses == {"run": 4}
    assert "seconds" not in json.dumps(snapshot)


# -- CLI: --trace-dir + repro obs ---------------------------------------------

def test_cli_serve_bench_trace_dirs_byte_identical_and_diffable(
    tmp_path, capsys
):
    args = [
        "serve-bench", "--tiny", "--seed", "7", "--shards", "2",
        "--epochs", "2", "--rate", "4000",
    ]
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for directory in dirs:
        code = main(args + [
            "--report", str(tmp_path / f"{directory.name}.json"),
            "--trace-dir", str(directory),
        ])
        assert code == 0
    capsys.readouterr()
    for filename in ("trace.jsonl", "metrics.json", "trace_chrome.json",
                     "dashboard.txt", "manifest.json"):
        assert (dirs[0] / filename).read_bytes() == (
            dirs[1] / filename
        ).read_bytes(), f"{filename} differs between identical runs"

    # repro obs report / trace read the bundle back.
    assert main(["obs", "report", str(dirs[0])]) == 0
    out = capsys.readouterr().out
    assert "serve-bench" in out and "throughput_msgs_per_second" in out
    assert main(["obs", "trace", str(dirs[0]), "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "route" in out and "shard" in out

    # Identical dirs: diff is quiet and exits 0.
    assert main(["obs", "diff", str(dirs[0]), str(dirs[1])]) == 0
    assert "no metric changes" in capsys.readouterr().out

    # Inject a 3% and then a 1% throughput drop into run_b's snapshot:
    # the diff has no tolerance, so each exits 1 and lists the series.
    metrics_path = dirs[1] / "metrics.json"
    snapshot = json.loads(metrics_path.read_text())
    series = snapshot["throughput_msgs_per_second"]["series"][0]
    before = series["value"]
    for factor, pct in ((0.97, "-3.0%"), (0.99, "-1.0%")):
        series["value"] = before * factor
        metrics_path.write_text(json.dumps(snapshot, sort_keys=True, indent=2))
        assert main(["obs", "diff", str(dirs[0]), str(dirs[1])]) == 1
        out = capsys.readouterr().out
        assert "Changed series (1 of" in out
        assert "throughput_msgs_per_second" in out and pct in out


def test_cli_study_trace_dir(tmp_path, capsys):
    trace_dir = tmp_path / "study_trace"
    code = main(["study", "--tiny", "--trace-dir", str(trace_dir)])
    assert code == 0
    capsys.readouterr()
    artifacts = load_run(trace_dir)
    assert artifacts.run == "study"
    records = artifacts.trace_records()
    assert records[0]["name"] == "engine-run"
    assert any(r["name"] == "stage" for r in records)
    assert "engine_stages" in artifacts.metrics


def test_cli_obs_rejects_non_trace_dir(tmp_path, capsys):
    assert main(["obs", "report", str(tmp_path)]) == 2
    assert "not a trace dir" in capsys.readouterr().err
    RunObserver("unit").save(tmp_path / "run")
    for pair in ((tmp_path, tmp_path / "run"), (tmp_path / "run", tmp_path)):
        assert main(["obs", "diff", *map(str, pair)]) == 2
        assert "not a trace dir" in capsys.readouterr().err


def _save_gauges(path, gauges):
    observer = RunObserver("unit")
    for name, value in gauges.items():
        observer.metrics.gauge(name).labels().set(value)
    observer.save(path)


BEFORE_GAUGES = {"serve_shards": 4.0, "throughput_msgs_per_second": 1000.0}


@pytest.mark.parametrize(
    "after, code, listed",
    [
        (BEFORE_GAUGES, 0, "no metric changes"),
        (dict(BEFORE_GAUGES, serve_shards=5.0), 1, "serve_shards"),
        (dict(BEFORE_GAUGES, makespan_seconds=6.25), 1, "makespan_seconds"),
        ({"throughput_msgs_per_second": 1000.0}, 1, "serve_shards"),
    ],
    ids=["identical", "changed", "added", "removed"],
)
def test_cli_obs_diff_exit_status(tmp_path, capsys, after, code, listed):
    _save_gauges(tmp_path / "a", BEFORE_GAUGES)
    _save_gauges(tmp_path / "b", after)
    assert main(["obs", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == code
    out = capsys.readouterr().out
    assert listed in out
    if code:
        # Only the one differing series is listed.
        assert "Changed series (1 of" in out
        assert "throughput_msgs_per_second" not in out
