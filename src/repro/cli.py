"""Command-line interface.

Subcommands::

    repro generate  --out corpus.jsonl [--tiny/--full] [--seed N]
    repro run       [--tiny/--full] [--seed N] [--report-dir DIR]
    repro study     [--tiny/--full] [--seed N] [--cache-dir DIR]
                    [--jobs N] [--force] [--retries N] [--report-dir DIR]
    repro cache     ls|clear|verify --cache-dir DIR
    repro lint      [paths...] [--select/--ignore IDS] [--baseline FILE]
                    [--update-baseline] [--format text|json]
    repro serve-bench [--tiny/--full] [--seed N] [--shards N]
                    [--batch-size N] [--max-delay-ms F] [--queue-capacity N]
                    [--policy block|drop-oldest|shed-newest] [--rate F]
                    [--burst-every N --burst-size N] [--jobs N]
                    [--check-equivalence] [--report FILE] [--trace-dir DIR]
    repro gateway-bench [--tiny/--full] [--seed N] [--shards N] [--rate F]
                    [--jobs N] [--report FILE] [--baseline FILE]
                    [--max-regression F] [--trace-dir DIR]
    repro obs       report|trace DIR | diff BEFORE AFTER
                    [--max-regression F] [--limit N]
    repro train     --corpus corpus.jsonl --task dox|cth --out model.npz
    repro score     --model model.npz [--text "..."] [--file posts.txt]
    repro assess    --text "..."      (taxonomy coding + PII + harm risks)

``generate`` writes a synthetic corpus as JSONL; ``run`` executes the full
study and prints the paper-vs-measured reports; ``study`` runs the same
study on the staged execution engine — per-stage checkpointing to
``--cache-dir``, a stage thread pool via ``--jobs``, stage retries via
``--retries``, and a wall-time / cache-hit summary table; ``cache``
inspects, integrity-verifies, or empties a stage cache;
``train``/``score`` cover the deployment loop the paper's §3 release
intent describes; ``assess`` runs the rule-based analysis layers on a
single text; ``lint`` runs the static analysis — the determinism,
stage-purity and shared-state rules DET001–DET003 and PUR001–PUR003,
each reading one file at a time — and fails on findings not
grandfathered in the committed baseline; ``serve-bench`` trains filters
on one synthetic corpus, replays a second through the sharded
``repro.serve`` runtime under a seeded open-loop load profile, prints an
alert/latency/throughput summary, and writes a machine-readable JSON
report (deterministic — the simulation never reads a wall clock);
``gateway-bench`` drives the multi-tenant gateway (``repro.gateway``)
through its canonical auth/quota/throttle overload mix, verifies
per-tenant conservation and the tenant-isolation invariant, and gates
against a committed baseline; ``--trace-dir`` on
``study``/``serve-bench``/``gateway-bench`` additionally saves the run's
deterministic observability bundle (structured trace, Chrome trace-event
export, labeled metrics snapshot, text dashboard), which ``obs``
inspects (``report``/``trace``) and regression-gates run over run
(``diff``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--tiny", action="store_true", help="test-scale corpus (seconds)")
    scale.add_argument("--full", action="store_true", help="full-scale corpus (minutes)")
    parser.add_argument("--seed", type=int, default=7)


def _study_config(args):
    from repro.corpus.generator import CorpusConfig
    from repro.lab import StudyConfig
    from repro.pipeline.filtering import PipelineConfig

    if args.full:
        return StudyConfig(
            corpus=CorpusConfig(seed=args.seed),
            pipeline=PipelineConfig(seed=args.seed),
        )
    return StudyConfig.tiny(args.seed)


def cmd_generate(args) -> int:
    from repro.corpus.generator import CorpusBuilder, CorpusConfig
    from repro.corpus.io import write_jsonl
    from repro.corpus.validate import validate_corpus

    config = CorpusConfig(seed=args.seed) if args.full else CorpusConfig.tiny(args.seed)
    corpus = CorpusBuilder(config).build()
    issues = validate_corpus(corpus, strict=True)
    if issues:
        for issue in issues[:20]:
            print(f"validation: {issue}", file=sys.stderr)
        return 1
    count = write_jsonl(corpus, args.out)
    print(f"wrote {count:,} documents to {args.out} (validated)")
    return 0


def cmd_run(args) -> int:
    from repro.analysis.attack_stats import attack_type_table
    from repro.lab import run_study
    from repro.reporting.bundle import generate_report_bundle
    from repro.reporting.tables import render_table3, render_table4, render_table5

    study = run_study(_study_config(args))
    if args.all:
        reports = dict(generate_report_bundle(study))
        # Keep stdout focused on the headline tables even with --all.
        to_print = ("table3_classifier_perf", "table4_thresholds", "table5_attack_types")
    else:
        reports = {
            "table3": render_table3(study.results),
            "table4": render_table4(study.results),
            "table5": render_table5(attack_type_table(study.coded_cth_by_platform)),
        }
        to_print = tuple(reports)
    for name in to_print:
        print(reports[name])
        print()
    if args.report_dir:
        directory = pathlib.Path(args.report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in reports.items():
            (directory / f"{name}.txt").write_text(content + "\n")
        print(f"{len(reports)} reports written to {args.report_dir}")
    return 0


def cmd_study(args) -> int:
    from repro.lab import run_study
    from repro.reporting.tables import render_table3, render_table4

    study = run_study(
        _study_config(args),
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        force=args.force,
        retries=args.retries,
        trace_dir=args.trace_dir,
    )
    report = study.run_report
    print(report.render())
    print()
    recovered = f"{report.n_recovered} recovered, " if report.n_recovered else ""
    print(
        f"stages: {report.n_executed} executed, {report.n_cache_hits} cache hits, "
        f"{recovered}{report.total_seconds:.2f}s stage time"
    )
    print()
    print(render_table3(study.results))
    print()
    print(render_table4(study.results))
    if args.report_dir:
        directory = pathlib.Path(args.report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "stage_summary.txt").write_text(report.render() + "\n")
        (directory / "table3.txt").write_text(render_table3(study.results) + "\n")
        (directory / "table4.txt").write_text(render_table4(study.results) + "\n")
        print(f"\n3 reports written to {args.report_dir}")
    if args.trace_dir:
        print(f"\ntrace dir written to {args.trace_dir}")
    return 0


def cmd_cache(args) -> int:
    from repro.engine import ArtifactStore, verify_cache
    from repro.util.tables import format_table

    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached artifacts from {args.cache_dir}")
        return 0
    if args.action == "verify":
        report = verify_cache(store)
        if not report.findings:
            print(f"cache at {args.cache_dir} is empty")
            return 0
        rows = [(f.filename, f.status) for f in report.findings]
        print(format_table(("artifact", "status"), rows))
        print(
            f"\n{report.count('ok')} ok, {report.count('corrupt')} corrupt, "
            f"{report.count('missing')} missing, "
            f"{report.count('unmanifested')} unmanifested"
        )
        if not report.ok:
            print(
                "corrupt/missing artifacts will be quarantined and recomputed "
                "on the next run that needs them"
            )
            return 1
        return 0
    entries = store.entries()
    if not entries:
        print(f"cache at {args.cache_dir} is empty")
        return 0
    # Stage-sorted, no wall-clock column: two listings of the same cache
    # are byte-identical, so `repro cache ls` output is diffable across
    # runs and machines.
    rows = [(e.stage, e.key[:12], f"{e.n_bytes:,}") for e in entries]
    print(format_table(("stage", "key", "bytes"), rows))
    total = sum(e.n_bytes for e in entries)
    print(f"\n{len(entries)} artifacts, {total:,} bytes")
    return 0


def _parse_rule_list(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    rules = tuple(part.strip().upper() for part in value.split(",") if part.strip())
    return rules or None


def cmd_lint(args) -> int:
    from repro.analysis.lint import (
        Baseline,
        LintUsageError,
        lint_paths,
        render_json,
        render_text,
    )

    try:
        findings = lint_paths(
            args.paths or ["src"],
            select=_parse_rule_list(args.select),
            ignore=_parse_rule_list(args.ignore),
        )
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    baseline_path = pathlib.Path(args.baseline)
    baseline = Baseline.load(baseline_path)
    if args.update_baseline:
        baseline.updated(findings).save(baseline_path)
        print(
            f"baseline updated: {len(findings)} finding(s) recorded in "
            f"{baseline_path}"
        )
        return 0
    split = baseline.split(findings)
    render = render_json if args.format == "json" else render_text
    print(render(split.new, stale=split.stale, n_baselined=len(split.baselined)))
    return 1 if split.new else 0


def _serve_models(args):
    """Train CTH/dox filters on a history corpus, return a live stream too.

    History uses ``--seed``, live traffic ``--seed + 1`` — the monitor
    never sees the stream it is scored on during training.
    """
    from repro.corpus.generator import CorpusBuilder, CorpusConfig
    from repro.nlp.features import HashingVectorizer
    from repro.nlp.models.logreg import LogisticRegressionClassifier
    from repro.service.stream import MessageStream
    from repro.types import Platform, Task

    def corpus_config(seed):
        return CorpusConfig(seed=seed) if args.full else CorpusConfig.tiny(seed)

    history = CorpusBuilder(corpus_config(args.seed)).build()
    train_docs = [d for d in history if d.platform is not Platform.BLOGS]
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in train_docs])
    models = {}
    for task in Task:
        labels = np.array([d.truth_for(task) for d in train_docs])
        models[task] = LogisticRegressionClassifier(
            epochs=args.epochs, seed=args.seed
        ).fit(features, labels)
    live = CorpusBuilder(corpus_config(args.seed + 1)).build()
    stream = MessageStream([d for d in live if d.platform is not Platform.BLOGS])
    return models, vectorizer, stream


def cmd_serve_bench(args) -> int:
    import json

    from repro.serve import (
        BackpressurePolicy,
        KillSpec,
        LoadProfile,
        ServeConfig,
        ServingRuntime,
        alert_sort_key,
    )
    from repro.service.monitor import HarassmentMonitor, MonitorConfig
    from repro.types import Task
    from repro.util.tables import format_table

    models, vectorizer, stream = _serve_models(args)
    monitor_config = MonitorConfig(
        campaign_min_messages=args.campaign_min_messages
    )

    def monitor_factory():
        return HarassmentMonitor(
            models[Task.CTH], models[Task.DOX], vectorizer, monitor_config
        )

    config = ServeConfig(
        n_shards=args.shards,
        batch_size=args.batch_size,
        max_delay_seconds=args.max_delay_ms / 1000.0,
        queue_capacity=args.queue_capacity,
        policy=BackpressurePolicy(args.policy),
        hot_key_share=args.hot_key_share,
    )
    kill = (
        KillSpec(shard=args.kill_shard, at_fraction=args.kill_at)
        if args.kill_shard is not None else None
    )
    profile = LoadProfile(
        rate_per_second=args.rate,
        burst_every=args.burst_every,
        burst_size=args.burst_size,
        seed=args.seed,
    )
    recorder = None
    if args.trace_dir:
        from repro.obs import RunObserver

        recorder = RunObserver("serve-bench")
    runtime = ServingRuntime(monitor_factory, config)
    result = runtime.serve_stream(
        stream, profile, jobs=args.jobs, recorder=recorder,
        schedule=args.rebalance_schedule, kill=kill,
    )
    report = result.as_dict()
    report["load"] = {
        "rate_per_second": profile.rate_per_second,
        "burst_every": profile.burst_every,
        "burst_size": profile.burst_size,
        "seed": profile.seed,
        "n_messages": len(stream),
    }

    if args.check_equivalence:
        baseline = sorted(
            monitor_factory().run(stream, batch_size=args.batch_size),
            key=alert_sort_key,
        )
        if config.policy is not BackpressurePolicy.BLOCK:
            report["equivalence"] = "skipped (lossy policy)"
        elif result.alerts == baseline:
            report["equivalence"] = "ok"
        else:
            report["equivalence"] = "FAILED"
    else:
        report["equivalence"] = "unchecked"

    print(
        f"served {len(stream):,} messages on {result.config.n_shards} "
        f"shard(s) [policy={config.policy.value}, batch={config.batch_size}, "
        f"rate={profile.rate_per_second:g}/s]\n"
    )
    if result.hot_keys:
        shares = ", ".join(
            f"{key} ({share:.1%})" for key, share in result.hot_keys.items()
        )
        print(f"hot keys scored over salted sub-keys: {shares}")
    for change in result.rebalances:
        print(
            f"rebalance at t={change['time']:.2f}s: "
            f"{change['shards_before']} -> {change['shards_after']}"
        )
    if result.failover:
        print(
            f"failover at t={result.failover['time']:.2f}s: killed shard "
            f"{result.failover['killed_shard']}, requeued "
            f"{result.failover['requeued_messages']} messages"
        )
    if result.hot_keys or result.rebalances or result.failover:
        print()
    print(format_table(
        ("alert kind", "count"),
        sorted(result.alert_counts().items()) or [("(none)", 0)],
        title="Alerts",
    ))
    print()
    fleet = result.telemetry.fleet()
    named = [(f"shard {s.shard_id}", s) for s in result.telemetry.shards]
    rows = [
        (
            name, shard.messages_scored, shard.batches, shard.queue.shed,
            shard.queue.dropped, shard.queue.max_depth,
            f"{shard.service_time.quantile(0.5) * 1e3:.2f}",
            f"{shard.service_time.quantile(0.99) * 1e3:.2f}",
        )
        for name, shard in named + [("fleet", fleet)]
    ]
    print(format_table(
        ("", "scored", "batches", "shed", "dropped", "max depth",
         "p50 ms", "p99 ms"),
        rows,
        title="Shards",
    ))
    print()
    print(
        f"throughput: {result.telemetry.throughput_per_second:,.0f} msg/s "
        f"over {result.telemetry.makespan_seconds:.2f}s simulated; "
        f"queue wait p95 {fleet.queue_wait.quantile(0.95) * 1e3:.2f} ms; "
        f"service p50/p95/p99 "
        f"{fleet.service_time.quantile(0.5) * 1e3:.2f}/"
        f"{fleet.service_time.quantile(0.95) * 1e3:.2f}/"
        f"{fleet.service_time.quantile(0.99) * 1e3:.2f} ms; "
        f"load skew (max/mean): {result.telemetry.load_skew:.3f}x; "
        f"unaccounted messages: {result.unaccounted}"
    )
    print(f"equivalence vs single monitor: {report['equivalence']}")

    report_path = pathlib.Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {report_path}")
    if recorder is not None:
        recorder.save(args.trace_dir)
        print(f"trace dir written to {args.trace_dir}")
    if report["equivalence"] == "FAILED" or result.unaccounted:
        return 1
    return 0


def cmd_gateway_bench(args) -> int:
    import json

    from repro.gateway import compare_gateway_reports, run_gateway_bench
    from repro.service.monitor import HarassmentMonitor, MonitorConfig
    from repro.types import Task
    from repro.util.tables import format_table

    models, vectorizer, stream = _serve_models(args)
    monitor_config = MonitorConfig(
        campaign_min_messages=args.campaign_min_messages
    )

    def monitor_factory():
        return HarassmentMonitor(
            models[Task.CTH], models[Task.DOX], vectorizer, monitor_config
        )

    recorder = None
    if args.trace_dir:
        from repro.obs import RunObserver

        recorder = RunObserver("gateway-bench")
    report, gateway, result = run_gateway_bench(
        monitor_factory,
        stream,
        seed=args.seed,
        shards=args.shards,
        jobs=args.jobs,
        rate=args.rate,
        recorder=recorder,
    )

    fleet = report["fleet"]
    print(
        f"gateway served {fleet['admitted']:,}/{fleet['offered']:,} offered "
        f"messages on {args.shards} shard(s) "
        f"[rate={args.rate:g}/s, jobs={args.jobs}]\n"
    )
    rows = []
    for tenant in sorted(report["tenants"]):
        entry = report["tenants"][tenant]
        admission = entry["admission"]
        rows.append((
            tenant + ("" if entry["registered"] else " (unregistered)"),
            admission["offered"],
            admission["admitted"],
            admission["throttled_tenant"],
            admission["throttled_fleet"],
            admission["rejected_auth"],
            admission["rejected_quota"],
            entry["alerts"]["delivered"],
            f"{entry['feed_latency']['p95_s'] * 1e3:.1f}",
        ))
    print(format_table(
        ("tenant", "offered", "admitted", "thr(tenant)", "thr(fleet)",
         "rej(auth)", "rej(quota)", "delivered", "p95 ms"),
        rows,
        title="Tenants",
    ))
    print()
    print(
        f"throughput: {fleet['throughput_per_second']:,.0f} msg/s over "
        f"{fleet['makespan_seconds']:.2f}s simulated; load skew "
        f"{fleet['load_skew']:.3f}x; fairness skew "
        f"{fleet['fairness_skew']:.3f}; conservation "
        f"{'ok' if fleet['conservation_ok'] else 'VIOLATED'}; "
        f"isolation vs solo monitors: {report['isolation']}"
    )

    report_path = pathlib.Path(args.report)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {report_path}")
    if recorder is not None:
        recorder.save(args.trace_dir)
        print(f"trace dir written to {args.trace_dir}")

    if not fleet["conservation_ok"] or report["isolation"] == "FAILED":
        return 1
    if args.baseline:
        baseline_path = pathlib.Path(args.baseline)
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
        failures = compare_gateway_reports(
            report, baseline, max_regression=args.max_regression
        )
        if failures:
            for failure in failures:
                print(f"GATE FAILED [{failure.check}]: {failure.detail}")
            return 1
        print(
            f"gate ok vs {baseline_path} "
            f"(tolerance {args.max_regression:.0%})"
        )
    return 0


def cmd_obs(args) -> int:
    from repro.obs import DASHBOARD_FILE, diff_runs, load_run
    from repro.util.tables import format_table

    try:
        if args.action == "diff":
            before = load_run(args.before)
            after = load_run(args.after)
        else:
            artifacts = load_run(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "report":
        manifest = artifacts.manifest
        print(
            f"run {artifacts.run!r} at {artifacts.path} "
            f"({manifest.get('records', 0):,} trace records, "
            f"{manifest.get('metric_families', 0)} metric families)\n"
        )
        dashboard = artifacts.path / DASHBOARD_FILE
        if dashboard.exists():
            print(dashboard.read_text(), end="")
        else:
            print("(no dashboard in this trace dir)")
        return 0

    if args.action == "trace":
        records = artifacts.trace_records()
        if not records:
            print("(empty trace)")
            return 0
        summary: dict[str, dict[str, float]] = {}
        for record in records:
            entry = summary.setdefault(
                record["name"], {"spans": 0, "events": 0, "total_s": 0.0}
            )
            if record["type"] == "span":
                entry["spans"] += 1
                entry["total_s"] += record["end"] - record["start"]
            else:
                entry["events"] += 1
        rows = [
            (
                name,
                f"{entry['spans']:,.0f}",
                f"{entry['events']:,.0f}",
                f"{entry['total_s']:.6f}",
            )
            for name, entry in sorted(summary.items())
        ]
        print(format_table(
            ("name", "spans", "events", "total s"), rows, title="Trace summary"
        ))
        print()
        shown = records if args.limit is None else records[: args.limit]
        for record in shown:
            if record["type"] == "span":
                line = (
                    f"[{record['seq']:>6}] span  {record['name']:<12} "
                    f"{record['start']:.6f} -> {record['end']:.6f}"
                )
            else:
                line = (
                    f"[{record['seq']:>6}] event {record['name']:<12} "
                    f"@ {record['ts']:.6f}"
                )
            labels = record.get("labels") or {}
            if labels:
                line += "  " + ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            print(line)
        if args.limit is not None and len(records) > args.limit:
            print(f"... {len(records) - args.limit:,} more records")
        print(f"\nchrome trace: {artifacts.chrome_trace_path()}")
        return 0

    # diff
    report = diff_runs(before, after, max_regression=args.max_regression)
    changed = [d for d in report.deltas if d.changed]
    if not changed:
        print(
            f"no metric changes between {before.path} and {after.path} "
            f"({len(report.deltas)} series compared)"
        )
        return 0
    rows = []
    for delta in changed[: args.limit] if args.limit else changed:
        pct = f"{delta.pct:+.1%}" if delta.pct is not None else "-"
        rows.append((
            delta.metric,
            delta.labels,
            "-" if delta.before is None else f"{delta.before:,.6g}",
            "-" if delta.after is None else f"{delta.after:,.6g}",
            pct,
        ))
    print(format_table(
        ("metric", "labels", "before", "after", "pct"),
        rows,
        title=f"Changed series ({report.n_changed} of {len(report.deltas)})",
    ))
    if args.limit and len(changed) > args.limit:
        print(f"... {len(changed) - args.limit:,} more changed series")
    print()
    if report.regressions:
        for regression in report.regressions:
            print(f"GATE FAILED: {regression.describe()}")
        return 1
    print(
        f"gate ok: no tracked throughput dropped more than "
        f"{args.max_regression:.0%}"
    )
    return 0


def _parse_jobs(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _checked(parse, value: str):
    """Run ``parse(value)`` as an argparse ``type``: its ValueError
    becomes argparse's usage error, which names the flag and exits 2
    while the arguments are parsed, before anything is trained."""
    try:
        return parse(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_schedule(value: str):
    from repro.serve import RebalanceSchedule

    return _checked(RebalanceSchedule.parse, value)


def _parse_kill_shard(value: str):
    from repro.serve import KillSpec

    return _checked(lambda v: KillSpec.parse(v).shard, value)


def _parse_kill_at(value: str) -> float:
    from repro.serve import KillSpec

    return _checked(lambda v: KillSpec(at_fraction=float(v)).at_fraction, value)


def _parse_retries(value: str) -> int:
    retries = int(value)
    if retries < 0:
        raise argparse.ArgumentTypeError(f"--retries must be >= 0, got {retries}")
    return retries


def _parse_task(value: str):
    from repro.types import Task

    normalized = value.lower()
    if normalized in ("dox", "doxing"):
        return Task.DOX
    if normalized in ("cth", "call_to_harassment", "harassment"):
        return Task.CTH
    raise argparse.ArgumentTypeError(f"unknown task: {value} (use dox|cth)")


def cmd_train(args) -> int:
    from repro.corpus.io import iter_jsonl
    from repro.nlp.features import HashingVectorizer
    from repro.nlp.models.logreg import LogisticRegressionClassifier
    from repro.nlp.serialize import save_filter_model

    documents = list(iter_jsonl(args.corpus))
    if not documents:
        print("error: corpus is empty", file=sys.stderr)
        return 2
    labels = np.array([d.truth_for(args.task) for d in documents])
    vectorizer = HashingVectorizer()
    features = vectorizer.transform_texts([d.text for d in documents])
    model = LogisticRegressionClassifier(epochs=args.epochs, seed=args.seed)
    model.fit(features, labels)
    save_filter_model(
        args.out, model, vectorizer,
        metadata={"task": args.task.value, "trained_on": str(args.corpus)},
    )
    print(f"trained {args.task.value} model on {len(documents):,} documents -> {args.out}")
    return 0


def cmd_score(args) -> int:
    from repro.nlp.serialize import load_filter_model

    model, vectorizer, metadata = load_filter_model(args.model)
    if args.text is not None:
        texts = [args.text]
    elif args.file:
        texts = [
            line.rstrip("\n")
            for line in pathlib.Path(args.file).read_text().splitlines()
            if line.strip()
        ]
    else:
        texts = [line.rstrip("\n") for line in sys.stdin if line.strip()]
    if not texts:
        print("error: nothing to score", file=sys.stderr)
        return 2
    scores = model.predict_proba(vectorizer.transform_texts(texts))
    task = metadata.get("task", "unknown-task")
    for text, score in zip(texts, scores):
        print(f"{score:.4f}\t[{task}]\t{text[:80]}")
    return 0


def cmd_assess(args) -> int:
    from repro.analysis.harm_risk_stats import detect_reputation_info
    from repro.extraction.gender import infer_gender
    from repro.extraction.pii import extract_pii
    from repro.pipeline.seeds import matches_seed_query
    from repro.taxonomy.coding import ExpertCoder
    from repro.taxonomy.harm_risk import harm_risks_for_dox

    from repro.taxonomy.attack_types import PARENT_OF
    from repro.taxonomy.definitions import DEFINITIONS

    text = args.text
    print(f"text: {text[:120]!r}")
    print(f"matches mobilising keyword query: {matches_seed_query(text)}")
    subtypes = ExpertCoder().code_text(text)
    print(f"taxonomy coding: {', '.join(str(s) for s in subtypes)}")
    for parent in dict.fromkeys(PARENT_OF[s] for s in subtypes):
        print(f"  {parent.value}: {DEFINITIONS[parent].definition}")
    pii = extract_pii(text)
    print(f"PII found: {', '.join(pii) if pii else 'none'}")
    risks = harm_risks_for_dox(pii, detect_reputation_info(text))
    print(f"harm risks: {', '.join(sorted(str(r) for r in risks)) or 'none'}")
    print(f"inferred target gender: {infer_gender(text)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMC'21 incitements-to-harassment study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="write a synthetic corpus as JSONL")
    _add_scale_args(p_generate)
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the full study and print reports")
    _add_scale_args(p_run)
    p_run.add_argument("--report-dir", default=None)
    p_run.add_argument(
        "--all", action="store_true",
        help="generate the complete report bundle (every table/figure)",
    )
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser(
        "study", help="run the study on the staged execution engine"
    )
    _add_scale_args(p_study)
    p_study.add_argument(
        "--cache-dir", default=None,
        help="checkpoint stage artifacts here; a warm re-run executes zero stages",
    )
    p_study.add_argument(
        "--jobs", type=_parse_jobs, default=1,
        help="stage thread pool size (independent stages run concurrently)",
    )
    p_study.add_argument(
        "--force", action="store_true",
        help="re-run every stage even when its artifact is cached",
    )
    p_study.add_argument(
        "--retries", type=_parse_retries, default=0,
        help="re-execute a transiently failing stage up to N extra times",
    )
    p_study.add_argument("--report-dir", default=None)
    p_study.add_argument(
        "--trace-dir", default=None,
        help="save the deterministic observability bundle (repro obs) here",
    )
    p_study.set_defaults(func=cmd_study)

    p_cache = sub.add_parser(
        "cache", help="inspect, verify, or empty a stage cache"
    )
    p_cache.add_argument("action", choices=("ls", "clear", "verify"))
    p_cache.add_argument("--cache-dir", required=True)
    p_cache.set_defaults(func=cmd_cache)

    p_lint = sub.add_parser(
        "lint", help="determinism, stage-purity & shared-state static analysis"
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. DET001 or DET,PUR; default: all)",
    )
    p_lint.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids or family prefixes to skip",
    )
    p_lint.add_argument(
        "--baseline", default=".repro-lint-baseline.json",
        help="JSON baseline of grandfathered findings",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings "
        "(expires entries whose finding was fixed)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json for the CI gate)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_serve = sub.add_parser(
        "serve-bench",
        help="benchmark the sharded serving runtime on a synthetic stream",
    )
    _add_scale_args(p_serve)
    p_serve.add_argument(
        "--shards", type=_parse_jobs, default=4, dest="shards",
        help="number of worker shards (consistent-hash ring routing)",
    )
    p_serve.add_argument(
        "--batch-size", type=_parse_jobs, default=64,
        help="micro-batch flush size",
    )
    p_serve.add_argument(
        "--max-delay-ms", type=float, default=50.0,
        help="micro-batch flush deadline (simulated milliseconds)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=_parse_jobs, default=512,
        help="bounded per-shard queue capacity (>= batch size)",
    )
    p_serve.add_argument(
        "--policy", choices=("block", "drop-oldest", "shed-newest"),
        default="block",
        help="overload behaviour when a shard queue is full",
    )
    p_serve.add_argument(
        "--rate", type=float, default=2000.0,
        help="open-loop arrival rate (messages per simulated second)",
    )
    p_serve.add_argument(
        "--burst-every", type=int, default=0,
        help="inject a burst after every N regular arrivals (0 = off)",
    )
    p_serve.add_argument(
        "--burst-size", type=int, default=0,
        help="messages per injected burst (arrive simultaneously)",
    )
    p_serve.add_argument(
        "--jobs", type=_parse_jobs, default=1,
        help="simulate shards on a thread pool (identical results)",
    )
    p_serve.add_argument(
        "--epochs", type=int, default=5,
        help="training epochs for the benchmark filter models",
    )
    p_serve.add_argument(
        "--campaign-min-messages", type=int, default=2,
        help="campaign alert threshold for the benchmark monitors",
    )
    p_serve.add_argument(
        "--check-equivalence", action="store_true",
        help="also run a single monitor and verify merged alerts match",
    )
    p_serve.add_argument(
        "--rebalance-schedule", type=_parse_schedule, default=None,
        metavar="SPEC",
        help="serve in equal epochs, resizing the ring to each "
        "comma-separated shard count in turn ('2,4,3'; the first count "
        "is the starting fleet)",
    )
    p_serve.add_argument(
        "--kill-shard", type=_parse_kill_shard, default=None,
        metavar="SHARD",
        help="kill one shard mid-run and requeue its queued messages "
        "to the survivors (target state stays in the keyed state "
        "monitor): a shard id, or 'hottest'",
    )
    p_serve.add_argument(
        "--kill-at", type=_parse_kill_at, default=0.5, metavar="FRACTION",
        help="stream fraction at which --kill-shard fires (0 < f < 1)",
    )
    p_serve.add_argument(
        "--hot-key-share", type=float, default=0.02,
        help="traffic share at which one text's scoring is split over "
        "salted sub-keys, i.e. a literal repost storm (0 disables "
        "hot-key splitting)",
    )
    p_serve.add_argument(
        "--report", default="benchmarks/reports/BENCH_serve.json",
        help="write the machine-readable JSON report here",
    )
    p_serve.add_argument(
        "--trace-dir", default=None,
        help="save the deterministic observability bundle (repro obs) here",
    )
    p_serve.set_defaults(func=cmd_serve_bench)

    p_gateway = sub.add_parser(
        "gateway-bench",
        help="benchmark the multi-tenant gateway (auth, quotas, feeds)",
    )
    _add_scale_args(p_gateway)
    p_gateway.add_argument(
        "--shards", type=_parse_jobs, default=4,
        help="number of worker shards behind the gateway",
    )
    p_gateway.add_argument(
        "--rate", type=float, default=2000.0,
        help="open-loop arrival rate (messages per simulated second)",
    )
    p_gateway.add_argument(
        "--jobs", type=_parse_jobs, default=1,
        help="simulate shards on a thread pool (identical results)",
    )
    p_gateway.add_argument(
        "--epochs", type=int, default=5,
        help="training epochs for the benchmark filter models",
    )
    p_gateway.add_argument(
        "--campaign-min-messages", type=int, default=2,
        help="campaign alert threshold for the benchmark monitors",
    )
    p_gateway.add_argument(
        "--report", default="benchmarks/reports/BENCH_gateway.json",
        help="write the deterministic JSON report here",
    )
    p_gateway.add_argument(
        "--baseline", default=None,
        help="compare against this committed report and fail on regression",
    )
    p_gateway.add_argument(
        "--max-regression", type=float, default=0.02,
        help="allowed fractional throughput drop vs the baseline",
    )
    p_gateway.add_argument(
        "--trace-dir", default=None,
        help="save the deterministic observability bundle (repro obs) here",
    )
    p_gateway.set_defaults(func=cmd_gateway_bench)

    p_obs = sub.add_parser(
        "obs", help="inspect and diff deterministic observability bundles"
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="print a trace dir's metrics dashboard"
    )
    p_obs_report.add_argument("trace_dir")
    p_obs_report.set_defaults(func=cmd_obs)
    p_obs_trace = obs_sub.add_parser(
        "trace", help="summarize and list a trace dir's records"
    )
    p_obs_trace.add_argument("trace_dir")
    p_obs_trace.add_argument(
        "--limit", type=int, default=30,
        help="records to list after the summary (0 = summary only)",
    )
    p_obs_trace.set_defaults(func=cmd_obs)
    p_obs_diff = obs_sub.add_parser(
        "diff", help="compare two trace dirs' metric snapshots"
    )
    p_obs_diff.add_argument("before")
    p_obs_diff.add_argument("after")
    p_obs_diff.add_argument(
        "--max-regression", type=float, default=0.02,
        help="allowed fractional drop in tracked throughput gauges",
    )
    p_obs_diff.add_argument(
        "--limit", type=int, default=40,
        help="changed series to list (0 = all)",
    )
    p_obs_diff.set_defaults(func=cmd_obs)

    p_train = sub.add_parser("train", help="train a filter model from a JSONL corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--task", type=_parse_task, required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--epochs", type=int, default=6)
    p_train.add_argument("--seed", type=int, default=7)
    p_train.set_defaults(func=cmd_train)

    p_score = sub.add_parser("score", help="score texts with a saved model")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--text", default=None)
    p_score.add_argument("--file", default=None)
    p_score.set_defaults(func=cmd_score)

    p_assess = sub.add_parser("assess", help="taxonomy + PII + harm-risk for one text")
    p_assess.add_argument("--text", required=True)
    p_assess.set_defaults(func=cmd_assess)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
