"""Ledgers: telemetry records whose fields declare how they fold and report.

Both runtimes keep their telemetry in small counter records — a shard's
queue accounting, a monitor's detection counts, a tenant's admission
outcomes — that are folded across shards, epochs and runs, rendered
into JSON reports, and projected into the metrics registry.  A
:class:`Ledger` is a dataclass that declares each field once, with
:func:`field`:

* how two values merge: ``SUM`` (numbers add; nested ledgers and
  :class:`~repro.obs.metrics.LatencyHistogram` fields merge), ``MAX``,
  ``MIN``, ``ANY`` (boolean or) or ``SAME`` (the operands must agree);
* which metric series it feeds, as a :class:`Series` (kind, family,
  help and fixed labels), if any;
* whether its value labels every series the ledger emits (``label=``),
  as ``shard_id`` does for ``shard``.

:meth:`Ledger.merge`, :meth:`~Ledger.add`, :meth:`~Ledger.merged`,
:meth:`~Ledger.as_dict` and :meth:`~Ledger.populate_metrics` are derived
from those declarations, so a new field reaches every fold, snapshot
and registry series with no other edit.  Like the registry, everything
here is a pure function of the values handed in.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Callable, Iterable, TypeVar

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    LatencyHistogram,
    MetricsRegistry,
)

SUM = "sum"
MAX = "max"
MIN = "min"
ANY = "any"
SAME = "same"

L = TypeVar("L", bound="Ledger")


def _same(mine: object, theirs: object) -> object:
    if mine != theirs:
        raise ValueError(
            f"cannot merge ledgers with different keys: {mine!r} vs {theirs!r}"
        )
    return mine


_COMBINE: dict[str, Callable] = {
    SUM: operator.add, MAX: max, MIN: min, ANY: operator.or_, SAME: _same,
}


@dataclasses.dataclass(frozen=True)
class Series:
    """The metric series a ledger field feeds.

    Calling a series returns a copy with fixed labels added, so fields
    sharing one family declare it once:
    ``outcome = Series(COUNTER, "queue_messages", "...")`` then
    ``field(metric=outcome(outcome="shed"))``.
    """

    kind: str
    family: str
    help: str
    labels: tuple[tuple[str, str], ...] = ()

    def __call__(self, **labels: str) -> "Series":
        return dataclasses.replace(
            self, labels=self.labels + tuple(labels.items())
        )

    def emit(
        self, registry: MetricsRegistry, value, labels: dict[str, object]
    ) -> None:
        family = getattr(registry, self.kind)(self.family, help=self.help)
        series = family.labels(**labels, **dict(self.labels))
        if self.kind == COUNTER:
            series.inc(value)
        elif self.kind == GAUGE:
            # a flag reports as 0/1, not as a JSON boolean
            series.set(int(value) if isinstance(value, bool) else value)
        else:
            series.merge_from(value)


def field(
    default: object = 0,
    merge: str = SUM,
    metric: Series | None = None,
    label: str | None = None,
):
    """Declare a ledger field.

    ``default`` is the field's value in an empty ledger, or a class to
    construct it (nested ledgers, histograms); ``dataclasses.MISSING``
    makes the field required.  For a counted field it must be the
    identity of ``merge``.  A ``label`` field names what the ledger
    counts: its value labels every series the ledger and its nested
    ledgers emit, under the label name given.
    """
    metadata = {"merge": merge, "metric": metric, "label": label}
    if isinstance(default, type):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


@dataclasses.dataclass(frozen=True)
class _Spec:
    name: str
    combine: Callable
    nested: bool  # a Ledger: merged and emitted by its own declarations
    rendered: bool  # has its own ``as_dict`` (ledger or histogram)
    metric: Series | None
    label: str | None


@functools.cache
def _specs(cls: type) -> tuple[_Spec, ...]:
    specs = []
    for f in dataclasses.fields(cls):
        factory = f.default_factory
        nested = isinstance(factory, type) and issubclass(factory, Ledger)
        if factory is LatencyHistogram or nested:
            combine = factory.merge
        else:
            combine = _COMBINE[f.metadata.get("merge", SUM)]
        specs.append(_Spec(
            name=f.name,
            combine=combine,
            nested=nested,
            rendered=nested or factory is LatencyHistogram,
            metric=f.metadata.get("metric"),
            label=f.metadata.get("label"),
        ))
    return tuple(specs)


class Ledger:
    """Base for telemetry dataclasses; see the module docstring."""

    #: properties appended to :meth:`as_dict` after the fields
    DERIVED: tuple[str, ...] = ()

    def merge(self: L, other: L) -> L:
        """Field-wise fold with ``other`` by each field's rule (pure)."""
        return type(self)(**{
            spec.name: spec.combine(
                getattr(self, spec.name), getattr(other, spec.name)
            )
            for spec in _specs(type(self))
        })

    def add(self: L, other: L) -> None:
        """Fold ``other`` into this ledger in place."""
        for spec in _specs(type(self)):
            mine = getattr(self, spec.name)
            if spec.nested:
                mine.add(getattr(other, spec.name))
            else:
                setattr(
                    self, spec.name,
                    spec.combine(mine, getattr(other, spec.name)),
                )

    @classmethod
    def merged(cls: type[L], ledgers: Iterable[L]) -> L:
        """Fold any number of ledgers into the empty one, ``cls()``."""
        total = cls()
        for ledger in ledgers:
            total.add(ledger)
        return total

    def as_dict(self) -> dict[str, object]:
        """Fields in declaration order, then the ``DERIVED`` properties."""
        data: dict[str, object] = {}
        for spec in _specs(type(self)):
            value = getattr(self, spec.name)
            data[spec.name] = value.as_dict() if spec.rendered else value
        for name in self.DERIVED:
            data[name] = getattr(self, name)
        return data

    def populate_metrics(
        self, registry: MetricsRegistry, **labels: object
    ) -> None:
        """Emit every declared series into ``registry``.

        Each series carries ``labels``, this ledger's label fields, and
        its own fixed labels; nested ledgers inherit the first two.
        """
        specs = _specs(type(self))
        labels = {
            **labels,
            **{s.label: getattr(self, s.name) for s in specs if s.label},
        }
        for spec in specs:
            value = getattr(self, spec.name)
            if spec.nested:
                value.populate_metrics(registry, **labels)
            elif spec.metric is not None:
                spec.metric.emit(registry, value, labels)
