"""Run-over-run metric diffing.

``repro obs diff A B`` compares two trace dirs' metric snapshots series
by series.  Both snapshots are deterministic, so *any* delta is a real
behaviour change — there is no machine noise to absorb — and the diff
has no tolerance: like ``diff(1)`` it exits 1 when any series changed,
appeared or vanished.  Throughput here is simulated, an oracle for
queueing behaviour; speed is measured by the wall-clock ``perfbench``.

Counters and gauges diff by value; histograms diff by count and mean.
Series present on only one side are reported as added/removed (a new
label value appearing — say a new alert kind — is itself a finding).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.obs.recorder import RunArtifacts


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One series' change between two runs."""

    metric: str
    labels: str  # canonical "k=v,k=v" rendering ("-" for no labels)
    kind: str
    before: float | None  # None = series only exists after
    after: float | None  # None = series only exists before

    @property
    def changed(self) -> bool:
        return self.before != self.after

    @property
    def delta(self) -> float:
        return (self.after or 0.0) - (self.before or 0.0)

    @property
    def pct(self) -> float | None:
        """Fractional change vs before (None when before is 0/absent)."""
        if not self.before:
            return None
        return self.delta / self.before


def _scalar_series(metrics: dict) -> Iterator[tuple[str, str, str, float]]:
    """Flatten a metrics.json snapshot into scalar (metric, labels, kind,
    value) rows; histograms contribute their count and mean."""
    for name in sorted(metrics):
        family = metrics[name]
        kind = str(family.get("kind", "?"))
        for series in family.get("series", ()):
            labels = series.get("labels", {})
            label_text = (
                ",".join(f"{k}={labels[k]}" for k in sorted(labels)) or "-"
            )
            value = series.get("value")
            if isinstance(value, dict):  # histogram snapshot
                yield (name + ".count", label_text, kind,
                       float(value.get("count", 0)))
                yield (name + ".mean_s", label_text, kind,
                       float(value.get("mean_s", 0.0)))
            else:
                yield name, label_text, kind, float(value)


def diff_metrics(before: dict, after: dict) -> list[MetricDelta]:
    """All series deltas between two metric snapshots, sorted."""
    before_rows = {
        (metric, labels): (kind, value)
        for metric, labels, kind, value in _scalar_series(before)
    }
    after_rows = {
        (metric, labels): (kind, value)
        for metric, labels, kind, value in _scalar_series(after)
    }
    keys = sorted(dict.fromkeys(list(before_rows) + list(after_rows)))
    deltas = []
    for key in keys:
        metric, labels = key
        b = before_rows.get(key)
        a = after_rows.get(key)
        deltas.append(MetricDelta(
            metric=metric,
            labels=labels,
            kind=(a or b)[0],
            before=b[1] if b is not None else None,
            after=a[1] if a is not None else None,
        ))
    return deltas


@dataclasses.dataclass(frozen=True)
class DiffReport:
    """Outcome of comparing two trace dirs."""

    before: RunArtifacts
    after: RunArtifacts
    deltas: list[MetricDelta]

    @property
    def n_changed(self) -> int:
        return sum(1 for d in self.deltas if d.changed)

    @property
    def ok(self) -> bool:
        return self.n_changed == 0


def diff_runs(before: RunArtifacts, after: RunArtifacts) -> DiffReport:
    return DiffReport(
        before=before,
        after=after,
        deltas=diff_metrics(before.metrics, after.metrics),
    )
