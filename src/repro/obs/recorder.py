"""One run's observability bundle: a tracer + registry, saved as a trace dir.

A trace dir is the on-disk unit ``repro obs`` operates on::

    <trace-dir>/
      manifest.json       format version + run name (no timestamps)
      trace.jsonl         one trace record per line, sequence order
      trace_chrome.json   chrome://tracing / Perfetto-loadable export
      metrics.json        MetricsRegistry snapshot
      dashboard.txt       deterministic text dashboard

Every file is a pure function of the run's recorded behaviour — two
runs of the same configuration produce byte-identical trace dirs, which
is the property the CI observability smoke asserts with ``cmp`` and the
reason ``repro obs diff`` can attribute any delta to a real change.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.obs.export import (
    chrome_trace_json,
    metrics_json,
    render_dashboard,
    trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

FORMAT = "repro-obs/1"

MANIFEST_FILE = "manifest.json"
TRACE_FILE = "trace.jsonl"
CHROME_FILE = "trace_chrome.json"
METRICS_FILE = "metrics.json"
DASHBOARD_FILE = "dashboard.txt"


class RunObserver:
    """Collects one run's trace and metrics; writes the trace dir."""

    def __init__(self, run: str = "run") -> None:
        self.run = run
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def save(self, trace_dir: str | pathlib.Path) -> list[pathlib.Path]:
        """Write the bundle; returns the written paths (manifest first)."""
        directory = pathlib.Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        open_spans = self.tracer.open_spans()
        if open_spans:
            names = ", ".join(s.name for s in open_spans[:5])
            raise ValueError(
                f"{len(open_spans)} span(s) never closed (first: {names})"
            )
        manifest = {
            "format": FORMAT,
            "run": self.run,
            "files": [TRACE_FILE, CHROME_FILE, METRICS_FILE, DASHBOARD_FILE],
            "records": len(self.tracer),
            "metric_families": len(self.metrics),
        }
        contents = {
            MANIFEST_FILE: json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            TRACE_FILE: trace_jsonl(self.tracer),
            CHROME_FILE: chrome_trace_json(self.tracer),
            METRICS_FILE: metrics_json(self.metrics),
            DASHBOARD_FILE: render_dashboard(self.metrics, self.tracer),
        }
        written = []
        for filename, content in contents.items():
            path = directory / filename
            path.write_text(content)
            written.append(path)
        return written


@dataclasses.dataclass(frozen=True)
class RunArtifacts:
    """A loaded trace dir (what ``repro obs`` subcommands consume)."""

    path: pathlib.Path
    manifest: dict
    metrics: dict

    @property
    def run(self) -> str:
        return str(self.manifest.get("run", "?"))

    def trace_records(self) -> list[dict]:
        """Parsed trace.jsonl lines, in file (= sequence) order."""
        trace_path = self.path / TRACE_FILE
        if not trace_path.exists():
            return []
        return [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line.strip()
        ]

    def chrome_trace_path(self) -> pathlib.Path:
        return self.path / CHROME_FILE


def load_run(trace_dir: str | pathlib.Path) -> RunArtifacts:
    """Load a trace dir, validating its manifest."""
    directory = pathlib.Path(trace_dir)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{directory} is not a trace dir (no {MANIFEST_FILE}); "
            "produce one with --trace-dir on serve-bench/gateway-bench/study"
        )
    manifest = json.loads(manifest_path.read_text())
    declared = str(manifest.get("format", ""))
    if declared != FORMAT:
        raise ValueError(
            f"{directory} has trace format {declared!r}, expected {FORMAT!r}"
        )
    metrics_path = directory / METRICS_FILE
    metrics = json.loads(metrics_path.read_text()) if metrics_path.exists() else {}
    return RunArtifacts(path=directory, manifest=manifest, metrics=metrics)
