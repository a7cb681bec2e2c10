"""Tests for the command-line interface (via main(argv))."""

import argparse
import json
import pathlib

import pytest

from repro.cli import _serve_models, main
from repro.corpus.io import iter_jsonl
from repro.score import ScoringCore
from repro.service.monitor import MonitorConfig
from repro.types import Task


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    assert main(["generate", "--tiny", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_generate_writes_jsonl(corpus_path):
    docs = list(iter_jsonl(corpus_path))
    assert len(docs) > 1000
    assert any(d.truth.is_dox for d in docs)


def test_train_and_score(corpus_path, tmp_path, capsys):
    model_path = tmp_path / "dox.npz"
    assert main([
        "train", "--corpus", str(corpus_path), "--task", "dox",
        "--out", str(model_path), "--epochs", "3",
    ]) == 0
    capsys.readouterr()
    assert main([
        "score", "--model", str(model_path),
        "--text", "Name: Jane Ashgrove | Address: 12 Maple St, Fairhaven, NY 10001 | Phone: (212) 555-0188",
    ]) == 0
    out = capsys.readouterr().out
    score = float(out.split("\t")[0])
    assert score > 0.5


def test_score_benign_low(corpus_path, tmp_path, capsys):
    model_path = tmp_path / "cth.npz"
    main(["train", "--corpus", str(corpus_path), "--task", "cth",
          "--out", str(model_path), "--epochs", "3"])
    capsys.readouterr()
    main(["score", "--model", str(model_path), "--text", "lovely weather this week"])
    score = float(capsys.readouterr().out.split("\t")[0])
    assert score < 0.5


def test_score_from_file(corpus_path, tmp_path, capsys):
    model_path = tmp_path / "m.npz"
    main(["train", "--corpus", str(corpus_path), "--task", "cth",
          "--out", str(model_path), "--epochs", "2"])
    posts = tmp_path / "posts.txt"
    posts.write_text("first post\nsecond post\n")
    capsys.readouterr()
    assert main(["score", "--model", str(model_path), "--file", str(posts)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2


def test_assess(capsys):
    assert main([
        "assess", "--text",
        "we should mass report her account until the platform bans her",
    ]) == 0
    out = capsys.readouterr().out
    assert "Mass Flagging" in out
    assert "matches mobilising keyword query: True" in out


def test_assess_with_pii(capsys):
    main(["assess", "--text", "dox: jane@mailhaven.example lives at 12 Maple St, Fairhaven, NY 10001"])
    out = capsys.readouterr().out
    assert "email" in out and "address" in out
    assert "physical" in out and "online" in out


def test_train_empty_corpus_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["train", "--corpus", str(empty), "--task", "dox", "--out", str(tmp_path / "m.npz")])
    assert code == 2


def test_unknown_task_rejected(corpus_path, tmp_path):
    with pytest.raises(SystemExit):
        main(["train", "--corpus", str(corpus_path), "--task", "nonsense",
              "--out", str(tmp_path / "m.npz")])


@pytest.fixture(scope="module")
def model_path(corpus_path):
    path = corpus_path.parent / "dox.npz"
    assert main([
        "train", "--corpus", str(corpus_path), "--task", "dox",
        "--out", str(path), "--epochs", "1",
    ]) == 0
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--corpus", "{corpus}", "--task", "dox", "--out", "{out}",
          "--epochs", "0"], "argument --epochs: must be >= 1, got 0"),
        (["train", "--corpus", "{missing}", "--task", "dox", "--out", "{out}"],
         "argument --corpus: no such file: {missing}"),
        (["score", "--model", "{missing}", "--text", "hi"],
         "argument --model: no such file: {missing}"),
        (["score", "--model", "{model}", "--file", "{missing}"],
         "argument --file: no such file: {missing}"),
    ],
    ids=["train-epochs", "train-corpus", "score-model", "score-file"],
)
def test_train_and_score_reject_bad_arguments_before_reading(
    corpus_path, model_path, tmp_path, capsys, argv, message
):
    # Regression: `train --epochs 0` vectorized the whole corpus before
    # the classifier rejected it, and a missing file died with a
    # FileNotFoundError traceback; both exit 1.
    paths = {
        "corpus": corpus_path, "model": model_path,
        "missing": tmp_path / "no-such-file", "out": tmp_path / "m.npz",
    }
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**paths) for arg in argv])
    assert exit_info.value.code == 2
    assert f"error: {message.format(**paths)}" in capsys.readouterr().err
    assert not paths["out"].exists()


def test_run_tiny(tmp_path, capsys):
    assert main(["run", "--tiny", "--seed", "5", "--report-dir", str(tmp_path / "reports")]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out and "Table 5" in out
    assert (tmp_path / "reports" / "table5.txt").exists()


def test_study_warm_cache_and_cache_commands(tmp_path, capsys):
    cache = tmp_path / "stage-cache"
    reports = tmp_path / "reports"
    assert main([
        "study", "--tiny", "--cache-dir", str(cache), "--jobs", "2",
        "--report-dir", str(reports),
    ]) == 0
    out = capsys.readouterr().out
    assert "0 cache hits" in out and "Table 3" in out
    assert (reports / "stage_summary.txt").exists()

    # Warm re-run: the engine loads cached artifacts, executes nothing.
    assert main(["study", "--tiny", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "stages: 0 executed" in out

    assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "artifacts" in out and "corpus" in out

    # Diffable listing: stable (stage, key) order, byte sizes, and no
    # wall-clock column, so two listings of one cache are byte-identical.
    assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == out
    header, first_row = out.splitlines()[0], out.splitlines()[2]
    assert "bytes" in header and "modified" not in header
    stages = [line.split()[0] for line in out.splitlines()[2:-2] if line.strip()]
    assert stages == sorted(stages)
    assert first_row.split()[2].replace(",", "").isdigit()

    assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_verify_reports_corruption(tmp_path, capsys):
    import numpy as np

    from repro.engine import ArtifactStore
    from repro.engine.faults import flip_bytes

    cache = tmp_path / "cache"
    store = ArtifactStore(cache)
    store.save("stage:a", "ab" * 16, np.arange(16))
    good = store.save("stage:b", "cd" * 16, np.arange(4))

    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "2 ok, 0 corrupt" in out

    flip_bytes(good, offsets=(-1,))
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
    out = capsys.readouterr().out
    assert "1 ok, 1 corrupt" in out and "quarantined and recomputed" in out

    # An artifact the manifest does not list is quarantined on load too.
    store.save("stage:b", "cd" * 16, np.arange(4))
    store.manifest.forget(good.name)
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
    assert "1 ok, 0 corrupt, 0 missing, 1 unmanifested" in capsys.readouterr().out

    assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
    assert "empty" in capsys.readouterr().out


@pytest.mark.parametrize("action", ["ls", "verify", "clear"])
def test_cache_commands_reject_a_missing_directory(tmp_path, capsys, action):
    missing = tmp_path / "no-such-cache"
    assert main(["cache", action, "--cache-dir", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kill-shard", "coldest"],
         "argument --kill-shard: KillSpec.shard must be an id or 'hottest'"),
        (["--kill-at", "1.5", "--kill-shard", "1"],
         "argument --kill-at: KillSpec.at_fraction must be in"),
        (["--rebalance-schedule", "2,x"],
         "argument --rebalance-schedule: cannot parse"),
        (["--rebalance-schedule", "auto:4"],
         "argument --rebalance-schedule: cannot parse"),
        (["--shards", "0"], "argument --shards: must be >= 1, got 0"),
        (["--batch-size", "0"], "argument --batch-size: must be >= 1, got 0"),
        (["--epochs", "0"], "argument --epochs: must be >= 1, got 0"),
        (["--rate", "-3"], "error: rate_per_second must be positive"),
        (["--max-delay-ms", "0"],
         "error: ServeConfig.max_delay_seconds must be positive"),
        (["--burst-every", "-1"],
         "error: burst_every/burst_size must be >= 0"),
        (["--campaign-min-messages", "1"],
         "error: a campaign needs at least two messages"),
        (["--hot-key-share", "1.5"],
         "error: ServeConfig.hot_key_share must be in [0, 1)"),
        (["--queue-capacity", "32"],
         "error: ServeConfig.queue_capacity must be >= ServeConfig.batch_size"),
        (["gateway-bench", "--rate", "-3"],
         "error: rate_per_second must be positive"),
        (["gateway-bench", "--campaign-min-messages", "1"],
         "error: a campaign needs at least two messages"),
        (["gateway-bench", "--shards", "0"],
         "argument --shards: must be >= 1, got 0"),
    ],
    ids=[
        "kill-shard-name", "kill-at-range", "schedule-count", "schedule-auto",
        "shards", "batch-size", "epochs", "rate", "max-delay", "burst-every",
        "campaign-min", "hot-key-share", "queue-capacity", "gateway-rate",
        "gateway-campaign-min", "gateway-shards",
    ],
)
def test_serve_bench_rejects_malformed_elastic_flags_before_training(
    monkeypatch, capsys, tmp_path, flags, message
):
    # Regression: these values were checked only after the filters had
    # been trained, and died with a traceback.  Flags argparse checks
    # exit 2 while parsing; configs validate before training and the
    # command returns 2.
    def no_training(args):
        raise AssertionError("filters trained before the flags were checked")

    monkeypatch.setattr("repro.cli._serve_models", no_training)
    command = "serve-bench"
    if flags[0] == "gateway-bench":
        command, *flags = flags
    try:
        code = main([
            command, "--tiny", *flags,
            "--report", str(tmp_path / "bench.json"),
        ])
    except SystemExit as exit_info:
        code = exit_info.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


BENCH_GATEWAY = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "reports" / "BENCH_gateway.json"
)


@pytest.mark.parametrize(
    "fleet, isolation, code",
    [
        ({}, "ok", 0),
        ({"conservation_ok": False}, "ok", 1),
        ({"serve_unaccounted": 3}, "ok", 1),
        ({}, "FAILED", 1),
    ],
    ids=["clean", "admission-conservation", "serve-unaccounted", "isolation"],
)
def test_gateway_bench_exit_status(
    monkeypatch, capsys, tmp_path, fleet, isolation, code
):
    # The committed report stands in for a run; each broken copy of it
    # must fail the command.  Regression: serve_unaccounted was checked
    # only against a --baseline, so a run that lost messages exited 0.
    committed = json.loads(BENCH_GATEWAY.read_text())
    report = dict(
        committed, fleet=dict(committed["fleet"], **fleet), isolation=isolation
    )
    monkeypatch.setattr("repro.cli._serve_models", lambda args: ({}, None, []))
    monkeypatch.setattr(
        "repro.gateway.run_gateway_bench",
        lambda *args, **kwargs: (report, None, None),
    )
    path = tmp_path / "gateway.json"
    assert main(["gateway-bench", "--tiny", "--report", str(path)]) == code
    out = capsys.readouterr().out
    assert (
        f"unaccounted messages: {report['fleet']['serve_unaccounted']}; "
        f"isolation vs solo monitors: {isolation}"
    ) in out
    if code == 0:
        # The writer puts the committed report back byte for byte.
        assert path.read_bytes() == BENCH_GATEWAY.read_bytes()


def test_serve_bench_writes_json_report(tmp_path, capsys):
    import json

    report_path = tmp_path / "serve.json"
    code = main([
        "serve-bench", "--tiny", "--seed", "7", "--shards", "2",
        "--epochs", "2", "--rate", "4000", "--check-equivalence",
        "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "equivalence vs single monitor: ok" in out
    assert "unaccounted messages: 0" in out
    report = json.loads(report_path.read_text())
    assert report["equivalence"] == "ok"
    assert report["unaccounted_messages"] == 0
    telemetry = report["telemetry"]
    assert telemetry["throughput_per_second"] > 0
    for field in ("p50_s", "p95_s", "p99_s"):
        assert telemetry["service_time"][field] > 0
    per_shard = telemetry["per_shard"]
    assert len(per_shard) == 2
    assert sum(s["messages_scored"] for s in per_shard) == report["load"]["n_messages"]
    assert telemetry["queue"]["unaccounted"] == 0
    # Busy-seconds breakdown: the components account for all busy time,
    # and extraction runs for detections alone: one lookup per message
    # over a threshold, as one scoring pass over the same stream finds.
    breakdown = telemetry["busy_breakdown"]
    busy = sum(s["busy_seconds"] for s in per_shard)
    assert sum(breakdown.values()) == pytest.approx(busy)
    work = telemetry["score_work"]
    assert work["messages"] == report["load"]["n_messages"]
    models, vectorizer, stream = _serve_models(
        argparse.Namespace(seed=7, full=False, epochs=2)
    )
    scored = ScoringCore(
        models[Task.CTH], models[Task.DOX], vectorizer
    ).score_messages(list(stream))
    thresholds = MonitorConfig()
    detections = int((
        (scored.cth_scores > thresholds.cth_threshold)
        | (scored.dox_scores > thresholds.dox_threshold)
    ).sum())
    assert 0 < detections < work["messages"]
    lookups = work["extracted_messages"] + work["extraction_cache_hits"]
    assert lookups == detections


def test_serve_bench_reports_the_schedules_starting_fleet(tmp_path, capsys):
    import json

    # Regression: the printout and the report's config said --shards
    # (default 4) while the run started on the schedule's first count.
    report_path = tmp_path / "serve.json"
    code = main([
        "serve-bench", "--tiny", "--seed", "7", "--epochs", "2",
        "--rebalance-schedule", "2,4,3", "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "messages on 2 shard(s)" in out
    assert "[0, 1] -> [0, 1, 2, 3]" in out
    assert json.loads(report_path.read_text())["config"]["n_shards"] == 2


def test_serve_bench_overload_policy_sheds(tmp_path, capsys):
    report_path = tmp_path / "overload.json"
    code = main([
        "serve-bench", "--tiny", "--seed", "7", "--shards", "2",
        "--epochs", "2", "--rate", "100000", "--policy", "shed-newest",
        "--queue-capacity", "64", "--batch-size", "64",
        "--report", str(report_path),
    ])
    assert code == 0
    import json

    report = json.loads(report_path.read_text())
    telemetry = report["telemetry"]
    assert telemetry["queue"]["shed"] > 0
    assert telemetry["queue"]["max_depth"] <= 64
    assert telemetry["queue"]["unaccounted"] == 0
    assert report["unaccounted_messages"] == 0
