"""Labeled metrics registry: counters, gauges, histograms — all mergeable.

One registry per run replaces the hand-rolled counter dicts that grew in
parallel across the engine (``StageRecord`` tallies), the scoring core
(``ScoreWork``), and the serve runtime (``ShardTelemetry`` /
``QueueAccounting``).  Those telemetry types are ledgers
(:mod:`repro.obs.ledger`) whose fields declare the series they feed; their
``as_dict()`` shapes stay — the bench JSON schemas are load-bearing — and
they additionally *populate* a registry, so every operational signal is
addressable by one ``(metric name, labels)`` scheme instead of a
per-subsystem schema.

Determinism contract (same as the rest of the repo): a registry is a
pure function of the calls made against it.  Snapshots sort families by
name and series by label tuple, so ``as_dict()`` is byte-stable across
runs and machines; no clocks, no hash-salted iteration.

Label cardinality rule: labels identify a *bounded* population (stage
names, shard ids, alert kinds, cache hit/miss) — never message ids,
texts, or target handles.  ``MAX_SERIES_PER_FAMILY`` backstops the rule:
a family that grows past it raises instead of silently ballooning the
snapshot.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Mapping

#: Histogram bucket upper bounds in seconds: four per decade from 10 µs
#: to 1000 s, then a catch-all.  Fixed bounds (rather than data-derived
#: ones) keep shard histograms mergeable by plain element-wise addition.
_DECADES = range(-5, 3)
_STEPS = (1.0, 1.78, 3.16, 5.62)
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    step * (10.0 ** decade) for decade in _DECADES for step in _STEPS
) + (float("inf"),)

#: Hard ceiling on labeled series per family — catches unbounded labels
#: (message ids, raw text) before they bloat snapshots.
MAX_SERIES_PER_FAMILY = 1024

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class LatencyHistogram:
    """Fixed-bound histogram over seconds with deterministic quantiles."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * len(BUCKET_BOUNDS)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency cannot be negative, got {seconds}")
        # bisect_left returns the first bucket whose bound is >= seconds
        # (exact bound values land in their own bucket, as `<=` did);
        # the trailing inf bound guarantees the index is in range.
        self.counts[bisect.bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        merged = LatencyHistogram()
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, interpolated inside the bucket holding it.

        The rank ``q * count`` falls in one bucket; the estimate moves
        linearly from the bucket's lower to its upper bound, each clamped
        to the observed min/max, as the rank crosses the bucket's count.
        A pure function of counts, min and max, so merged histograms give
        the quantiles of combined recording; a single sample is every
        quantile, ``q = 0`` is the min and ``q = 1`` the max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                low = max(self.min, BUCKET_BOUNDS[i - 1] if i else 0.0)
                high = min(self.max, BUCKET_BOUNDS[i])
                return low + (high - low) * (rank - cumulative) / bucket_count
            cumulative += bucket_count
        return self.max

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
        }


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical series key: sorted ``(name, str(value))`` pairs."""
    for name in labels:
        if not isinstance(name, str) or not name.isidentifier():
            raise ValueError(f"label names must be identifiers, got {name!r}")
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Counter:
    """One labeled monotonically-increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """One labeled point-in-time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class HistogramSeries:
    """One labeled :class:`LatencyHistogram` series."""

    __slots__ = ("histogram",)

    def __init__(self) -> None:
        self.histogram = LatencyHistogram()

    def observe(self, seconds: float) -> None:
        self.histogram.record(seconds)

    def merge_from(self, histogram: LatencyHistogram) -> None:
        """Fold an existing histogram (e.g. a shard's) into this series."""
        self.histogram = self.histogram.merge(histogram)

    def snapshot(self) -> dict[str, float | int]:
        return self.histogram.as_dict()


_SERIES_TYPES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: HistogramSeries}


class MetricFamily:
    """All series sharing one metric name and kind."""

    __slots__ = ("name", "kind", "help", "_series")

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        if kind not in _SERIES_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not name.isidentifier():
            raise ValueError(f"metric names must be identifiers, got {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], object] = {}

    def labels(self, **labels: object):
        """The series for ``labels`` (created zero-valued on first use)."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= MAX_SERIES_PER_FAMILY:
                raise ValueError(
                    f"metric {self.name!r} exceeded {MAX_SERIES_PER_FAMILY} "
                    "series — a label is carrying unbounded values"
                )
            series = _SERIES_TYPES[self.kind]()
            self._series[key] = series
        return series

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> Iterator[tuple[tuple[tuple[str, str], ...], object]]:
        """Series in canonical (sorted label key) order."""
        for key in sorted(self._series):
            yield key, self._series[key]

    def as_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": series.snapshot()}
                for key, series in self.series()
            ],
        }


class MetricsRegistry:
    """Name -> family map with kind checking and deterministic snapshots."""

    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, COUNTER, help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, GAUGE, help)

    def histogram(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, HISTOGRAM, help)

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> Iterator[MetricFamily]:
        """Families in name order."""
        for name in sorted(self._families):
            yield self._families[name]

    def as_dict(self) -> dict[str, object]:
        """Snapshot, sorted by family name then series labels."""
        return {family.name: family.as_dict() for family in self.families()}
