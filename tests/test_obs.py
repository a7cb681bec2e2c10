"""Observability-layer tests: tracer, metrics registry, exporters, diffs.

The load-bearing properties:

* determinism — two identical runs (and the same run under different
  ``jobs``) emit byte-identical trace JSONL and metric snapshots;
* schema safety — ``as_dict()`` projections the bench baselines commit
  to are untouched by the registry projection;
* the Chrome trace-event export matches the JSON shape Perfetto loads;
* ``repro obs diff`` flags every changed, added or removed series, with
  no tolerance, and stays quiet on identical snapshots;
* ``src/repro/obs`` itself is clean under the determinism linter with
  zero suppressions.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    RunObserver,
    Tracer,
    chrome_trace,
    diff_metrics,
    diff_runs,
    load_run,
    metrics_json,
    render_dashboard,
    trace_jsonl,
)
from repro.obs.trace import record_as_dict


# -- LatencyHistogram (satellite: bisect bucketing + merge/quantile edges) -----

def _hist(samples):
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.record(sample)
    return histogram


def test_bucket_bounds_sorted_with_inf_tail():
    assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
    assert BUCKET_BOUNDS[-1] == float("inf")


def test_record_bisect_matches_linear_scan():
    """The bisect_left bucketing must match the old `seconds <= bound` scan."""
    samples = [0.0, 1e-6, 1e-5, 1.78e-5, 0.00999, 0.05, 1.0, 562.0, 1e9]
    for seconds in samples:
        linear = next(
            i for i, bound in enumerate(BUCKET_BOUNDS) if seconds <= bound
        )
        histogram = _hist([seconds])
        assert histogram.counts[linear] == 1, f"{seconds} landed off-bucket"
        assert sum(histogram.counts) == 1


def test_exact_bound_lands_in_own_bucket():
    for i, bound in enumerate(BUCKET_BOUNDS[:-1]):
        histogram = _hist([bound])
        assert histogram.counts[i] == 1


def test_merge_identity_with_empty_peer():
    histogram = _hist([0.001, 0.01, 0.5])
    merged = histogram.merge(LatencyHistogram())
    assert merged.as_dict() == histogram.as_dict()
    assert merged.counts == histogram.counts
    # And symmetric: empty.merge(h) == h.
    assert LatencyHistogram().merge(histogram).as_dict() == histogram.as_dict()


def test_merge_associative_across_three_shards():
    a, b, c = _hist([0.001, 0.2]), _hist([0.05]), _hist([1.5, 3.0, 0.004])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    # Bucket counts, extremes, and quantiles are exactly associative;
    # `total` is float addition, so the mean only matches to rounding.
    assert right.counts == left.counts
    assert (right.count, right.min, right.max) == (left.count, left.min, left.max)
    assert right.quantile(0.5) == left.quantile(0.5)
    assert right.mean == pytest.approx(left.mean)
    assert left.count == 6


def test_quantile_edge_cases():
    empty = LatencyHistogram()
    assert empty.quantile(0.0) == 0.0
    assert empty.quantile(1.0) == 0.0
    single = _hist([0.037])
    # A single sample is every quantile (clamped to observed min/max).
    assert single.quantile(0.0) == pytest.approx(0.037)
    assert single.quantile(0.5) == pytest.approx(0.037)
    assert single.quantile(1.0) == pytest.approx(0.037)
    spread = _hist([0.001, 0.01, 0.1, 1.0])
    assert spread.quantile(1.0) == pytest.approx(1.0)
    assert spread.quantile(0.0) <= spread.quantile(1.0)
    with pytest.raises(ValueError):
        spread.quantile(1.5)
    with pytest.raises(ValueError):
        spread.quantile(-0.1)


def test_quantile_interpolates_inside_the_bucket():
    # Regression: every quantile in the max's bucket read the max.  60 ms
    # and 80 ms share the (56.2, 100] ms bucket, clamped to [60, 80] ms.
    histogram = _hist([0.060] * 99 + [0.080])
    assert histogram.quantile(0.5) < histogram.max
    assert histogram.quantile(0.5) == pytest.approx(0.070)
    assert histogram.quantile(0.0) == pytest.approx(0.060)
    assert histogram.quantile(1.0) == pytest.approx(0.080)
    quantiles = [histogram.quantile(q / 20) for q in range(21)]
    assert quantiles == sorted(quantiles)


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram().record(-1e-9)


# -- metrics registry ----------------------------------------------------------

def test_counter_gauge_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.counter("requests", help="n").labels(stage="a").inc()
    registry.counter("requests").labels(stage="a").inc(2)
    registry.counter("requests").labels(stage="b").inc(5)
    registry.gauge("depth").labels().set(7)
    registry.histogram("wait").labels(shard="0").observe(0.01)
    snapshot = registry.as_dict()
    series = {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in snapshot["requests"]["series"]
    }
    assert series[(("stage", "a"),)] == 3
    assert series[(("stage", "b"),)] == 5
    assert snapshot["depth"]["series"][0]["value"] == 7
    assert snapshot["wait"]["series"][0]["value"]["count"] == 1


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="is a counter"):
        registry.gauge("x")


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("x").labels().inc(-1)


def test_label_cardinality_backstop():
    from repro.obs.metrics import MAX_SERIES_PER_FAMILY

    registry = MetricsRegistry()
    family = registry.counter("unbounded")
    for i in range(MAX_SERIES_PER_FAMILY):
        family.labels(id=str(i)).inc()
    with pytest.raises(ValueError, match="unbounded"):
        family.labels(id="overflow")


def test_label_names_must_be_identifiers():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("x").labels(**{"bad-name": 1})


def test_snapshot_is_sorted_and_stable():
    registry = MetricsRegistry()
    registry.counter("zeta").labels(b="2", a="1").inc()
    registry.counter("alpha").labels().inc()
    text = metrics_json(registry)
    assert text == metrics_json(registry)
    assert list(json.loads(text)) == ["alpha", "zeta"]


# -- tracer --------------------------------------------------------------------

def test_span_lifecycle_and_sequencing():
    tracer = Tracer()
    outer = tracer.span("outer", kind="test")
    inner = outer.child("inner", start=1.0, end=2.0)
    outer.event("tick", 1.5, n=3)
    outer.close(0.0, 3.0).annotate(total=2)
    records = tracer.records()
    assert [r.seq for r in records] == [0, 1, 2]
    spans = tracer.spans()
    assert spans[1].parent_id == spans[0].span_id
    assert spans[0].labels == {"kind": "test", "total": 2}
    assert tracer.events()[0].span_id == outer.span_id
    assert not tracer.open_spans()
    assert inner.span_id != outer.span_id


def test_span_close_validates_interval():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.span("bad").close(2.0, 1.0)


def test_open_span_refuses_export():
    tracer = Tracer()
    tracer.span("never-closed")
    with pytest.raises(ValueError, match="never closed"):
        trace_jsonl(tracer)
    with pytest.raises(ValueError, match="never closed"):
        chrome_trace(tracer)
    observer = RunObserver()
    observer.tracer.span("x")
    with pytest.raises(ValueError, match="never closed"):
        observer.save("/tmp/should-not-be-written")


def test_absorb_renumbers_and_remaps_parents():
    parent, child = Tracer(), Tracer()
    parent.span("route", start=0.0, end=1.0)
    shard = child.span("shard", start=0.0, end=5.0, shard=1)
    batch = shard.child("batch", start=1.0, end=2.0)
    batch.event("alert", 1.5)
    parent.absorb(child)
    records = parent.records()
    assert [r.seq for r in records] == [0, 1, 2, 3]
    ids = [r.span_id for r in records[:3]]
    assert len(set(ids)) == 3  # renumbered, no collisions
    assert records[2].parent_id == records[1].span_id
    assert records[3].span_id == records[2].span_id  # event follows batch


def test_record_as_dict_shapes():
    tracer = Tracer()
    span = tracer.span("s", start=0.5, end=1.5, z=1, a="x")
    span.event("e", 0.75, obj=object())
    span_dict, event_dict = (record_as_dict(r) for r in tracer.records())
    assert span_dict["type"] == "span"
    assert list(span_dict["labels"]) == ["a", "z"]  # label keys sorted
    assert event_dict["type"] == "event"
    assert isinstance(event_dict["labels"]["obj"], str)  # coerced scalar


# -- exporters -----------------------------------------------------------------

def _sample_tracer():
    tracer = Tracer()
    shard = tracer.span("shard", start=0.0, end=2.0, shard=0)
    shard.child("batch", start=0.5, end=1.0, shard=0)
    shard.event("alert", 0.75, shard=0, kind="dox")
    tracer.span("route", start=0.0, end=0.2)
    return tracer


def test_trace_jsonl_one_record_per_line():
    text = trace_jsonl(_sample_tracer())
    lines = text.splitlines()
    assert len(lines) == 4
    assert text.endswith("\n")
    parsed = [json.loads(line) for line in lines]
    assert [r["seq"] for r in parsed] == [0, 1, 2, 3]


def test_chrome_trace_event_shape():
    """The export must match the trace-event JSON shape Perfetto loads."""
    trace = chrome_trace(_sample_tracer())
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert isinstance(events, list)
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "i", "M"}
    for event in events:
        assert isinstance(event["name"], str)
        assert event["pid"] == 0
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], float)
            assert event["dur"] >= 0
        elif event["ph"] == "i":
            assert event["s"] == "t"
        else:
            assert event["args"]["name"] in ("main", "shard 0")
    # Span timestamps are microseconds: the 0.5 s batch start is 5e5 us.
    batch = next(e for e in events if e["name"] == "batch")
    assert batch["ts"] == pytest.approx(0.5e6)
    assert batch["dur"] == pytest.approx(0.5e6)
    # Shard-labeled records ride the shard lane; the route span lane 0.
    assert batch["tid"] == 1
    assert next(e for e in events if e["name"] == "route")["tid"] == 0


def test_dashboard_renders_and_is_deterministic():
    registry = MetricsRegistry()
    registry.counter("hits").labels(shard="0").inc(3)
    registry.histogram("wait").labels().observe(0.02)
    tracer = _sample_tracer()
    text = render_dashboard(registry, tracer)
    assert "Metrics" in text and "Histograms" in text and "Trace" in text
    assert text == render_dashboard(registry, tracer)
    assert render_dashboard(MetricsRegistry()).startswith("(empty run")


# -- recorder / trace dirs -----------------------------------------------------

def test_save_and_load_roundtrip(tmp_path):
    observer = RunObserver("unit")
    observer.tracer.span("s", start=0.0, end=1.0)
    observer.metrics.counter("n").labels().inc(4)
    written = observer.save(tmp_path / "run")
    assert [p.name for p in written] == [
        "manifest.json", "trace.jsonl", "trace_chrome.json",
        "metrics.json", "dashboard.txt",
    ]
    artifacts = load_run(tmp_path / "run")
    assert artifacts.run == "unit"
    assert artifacts.manifest["format"] == "repro-obs/1"
    assert artifacts.manifest["records"] == 1
    assert artifacts.metrics["n"]["series"][0]["value"] == 4
    assert artifacts.trace_records()[0]["name"] == "s"
    assert artifacts.chrome_trace_path().exists()


def test_load_run_rejects_non_trace_dirs(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a trace dir"):
        load_run(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(ValueError, match="trace format"):
        load_run(tmp_path)


# -- diffing -------------------------------------------------------------------

def _registry_with_throughput(value):
    registry = MetricsRegistry()
    registry.gauge("throughput_msgs_per_second").labels().set(value)
    registry.counter("messages").labels(shard="0").inc(100)
    return registry


def test_diff_identical_snapshots_is_quiet():
    snapshot = _registry_with_throughput(1000.0).as_dict()
    deltas = diff_metrics(snapshot, snapshot)
    assert deltas and not any(d.changed for d in deltas)


def test_diff_flags_injected_throughput_regression():
    """The diff has no tolerance: a 3% drop, a 1% drop and a rise are
    each exactly one changed series."""
    before = _registry_with_throughput(1000.0).as_dict()
    for value, pct in ((970.0, -0.03), (990.0, -0.01), (1010.0, 0.01)):
        after = _registry_with_throughput(value).as_dict()
        changed = [d for d in diff_metrics(before, after) if d.changed]
        assert [d.metric for d in changed] == ["throughput_msgs_per_second"]
        assert changed[0].pct == pytest.approx(pct)


def test_diff_reports_added_and_removed_series():
    before = MetricsRegistry()
    before.counter("alerts").labels(kind="dox").inc(2)
    after = MetricsRegistry()
    after.counter("alerts").labels(kind="campaign").inc(1)
    deltas = diff_metrics(before.as_dict(), after.as_dict())
    by_labels = {d.labels: d for d in deltas}
    assert by_labels["kind=dox"].after is None
    assert by_labels["kind=campaign"].before is None
    assert all(d.changed for d in deltas)


def test_diff_runs_end_to_end(tmp_path):
    for name, value in (("a", 1000.0), ("b", 900.0)):
        observer = RunObserver(name)
        observer.metrics.gauge("throughput_msgs_per_second").labels().set(value)
        observer.save(tmp_path / name)
    report = diff_runs(load_run(tmp_path / "a"), load_run(tmp_path / "b"))
    assert not report.ok
    assert report.n_changed == 1
    changed = [d for d in report.deltas if d.changed]
    assert changed[0].pct == pytest.approx(-0.1)
    # Same dir against itself: clean.
    same = diff_runs(load_run(tmp_path / "a"), load_run(tmp_path / "a"))
    assert same.ok and same.n_changed == 0


# -- determinism lint: the obs package practices what it preaches --------------

def test_obs_package_is_det_lint_clean_with_no_suppressions():
    from repro.analysis.lint import lint_paths

    package = pathlib.Path("src/repro/obs")
    assert package.is_dir()
    # Every rule pack (DET/PUR) must hold with zero findings and
    # zero suppressions, with no baseline to lean on.
    findings = lint_paths([str(package)], select=["DET", "PUR"])
    assert findings == [], [f"{f.rule}:{f.path}:{f.line}" for f in findings]
    for source in package.glob("*.py"):
        assert "noqa" not in source.read_text(), f"suppression in {source}"
