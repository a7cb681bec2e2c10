"""One contract test over every telemetry ledger.

Each :class:`~repro.obs.ledger.Ledger` subclass derives ``merge``,
``add``, ``merged``, ``as_dict`` and ``populate_metrics`` from its field
declarations.  These tests check, for every concrete subclass and every
field, that the derived code does what the declarations say, so a field
cannot be dropped by a fold, a snapshot or the registry.
"""

import dataclasses
import importlib
import operator

import pytest

from repro.obs.ledger import ANY, MAX, MIN, SAME, SUM, Ledger, Series, field
from repro.obs.metrics import COUNTER, LatencyHistogram, MetricsRegistry
from repro.serve.queueing import QueueAccounting

#: what each merge rule does to two field values
RULES = {
    SUM: operator.add, MAX: max, MIN: min, ANY: operator.or_,
    SAME: lambda mine, theirs: mine,
}


def _concrete_ledgers() -> list[type]:
    # the two telemetry modules import every other ledger module
    for module in ("repro.gateway.telemetry", "repro.serve.telemetry"):
        importlib.import_module(module)
    found, stack = [], list(Ledger.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


LEDGERS = _concrete_ledgers()


def _is_key(f: dataclasses.Field) -> bool:
    """Label and must-agree fields identify a ledger; operands share them."""
    return bool(f.metadata.get("label")) or f.metadata.get("merge") == SAME


def _keys(cls: type) -> dict[str, object]:
    """Values for the required key fields (a tenant id)."""
    return {
        f.name: "key" for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }


def _filled(cls: type, seed: int) -> Ledger:
    """A ledger whose every non-key numeric field holds a distinct value."""
    ledger = cls(**_keys(cls))
    for i, f in enumerate(dataclasses.fields(cls), start=1):
        value = getattr(ledger, f.name)
        if _is_key(f):
            continue
        if isinstance(value, Ledger):
            setattr(ledger, f.name, _filled(type(value), seed * 10 + i))
        elif isinstance(value, LatencyHistogram):
            value.record((seed + i) / 8)  # binary fractions: exact sums
        elif isinstance(value, bool):
            setattr(ledger, f.name, seed % 2 == 1)
        else:
            setattr(ledger, f.name, type(value)(seed * 100 + i))
    return ledger


def _histogram_state(histogram: LatencyHistogram) -> tuple:
    return (
        tuple(histogram.counts), histogram.count, histogram.total,
        histogram.min, histogram.max,
    )


def _state(ledger: Ledger) -> tuple:
    """Every field value, histograms and nested ledgers included."""
    state = []
    for f in dataclasses.fields(ledger):
        value = getattr(ledger, f.name)
        if isinstance(value, Ledger):
            value = _state(value)
        elif isinstance(value, LatencyHistogram):
            value = _histogram_state(value)
        state.append((f.name, value))
    return tuple(state)


def _assert_merged(a: Ledger, b: Ledger, merged: Ledger) -> None:
    for f in dataclasses.fields(a):
        mine, theirs, got = (getattr(x, f.name) for x in (a, b, merged))
        if isinstance(mine, Ledger):
            _assert_merged(mine, theirs, got)
        elif isinstance(mine, LatencyHistogram):
            assert _histogram_state(got) == (
                tuple(x + y for x, y in zip(mine.counts, theirs.counts)),
                mine.count + theirs.count, mine.total + theirs.total,
                min(mine.min, theirs.min), max(mine.max, theirs.max),
            ), f.name
        else:
            rule = RULES[f.metadata.get("merge", SUM)]
            assert got == rule(mine, theirs), f.name


def _declared_series(ledger: Ledger, labels: dict[str, str]):
    """``(family, labels, field value)`` for every field with a metric."""
    fields = dataclasses.fields(ledger)
    labels = {
        **labels,
        **{
            f.metadata["label"]: str(getattr(ledger, f.name))
            for f in fields if f.metadata.get("label")
        },
    }
    for f in fields:
        value = getattr(ledger, f.name)
        if isinstance(value, Ledger):
            yield from _declared_series(value, labels)
        elif f.metadata.get("metric") is not None:
            metric = f.metadata["metric"]
            yield metric.family, {**labels, **dict(metric.labels)}, value


def test_every_telemetry_ledger_is_covered():
    assert [cls.__name__ for cls in LEDGERS] == [
        "AdmissionAccounting", "CostBreakdown", "MonitorStats",
        "QueueAccounting", "ScoreWork", "ShardTelemetry", "TenantTelemetry",
    ]


@pytest.mark.parametrize("cls", LEDGERS, ids=lambda cls: cls.__name__)
def test_ledger_contract(cls):
    a, b, c = _filled(cls, 1), _filled(cls, 2), _filled(cls, 3)
    before = _state(a), _state(b)

    # merge applies each field's declared rule, and is pure
    _assert_merged(a, b, a.merge(b))
    assert (_state(a), _state(b)) == before

    # add is merge, in place
    added = _filled(cls, 1)
    added.add(b)
    assert _state(added) == _state(a.merge(b))

    # the empty ledger (same keys) is an identity on both sides
    empty = cls(**_keys(cls))
    assert _state(a.merge(empty)) == _state(a) == _state(empty.merge(a))

    # a three-operand fold is associative, and merged() is that fold
    left = a.merge(b).merge(c)
    assert _state(left) == _state(a.merge(b.merge(c)))
    if not _keys(cls):  # merged() starts from cls(): no required field
        assert _state(cls.merged([a, b, c])) == _state(left)
        assert _state(cls.merged([])) == _state(empty)

    # as_dict: every field in declaration order, then the derived values
    assert list(a.as_dict()) == [
        f.name for f in dataclasses.fields(cls)
    ] + list(cls.DERIVED)

    # every field declaring a metric lands in a fresh registry
    registry = MetricsRegistry()
    a.populate_metrics(registry)
    snapshot = registry.as_dict()
    declared = list(_declared_series(a, {}))
    assert declared, f"{cls.__name__} feeds no metric"
    for family, labels, value in declared:
        series = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot[family]["series"]
        }
        got = series[tuple(sorted(labels.items()))]
        if isinstance(value, LatencyHistogram):
            assert got == value.as_dict(), family
        else:
            assert got == value and type(got) is not bool, family


def test_a_new_field_reaches_every_derived_view():
    """One declaration is the only edit a new field needs."""

    @dataclasses.dataclass
    class Widened(QueueAccounting):
        transfer_retries: int = field(metric=Series(
            COUNTER, "queue_transfer_retries", "retried requeue transfers"
        ))

    a = Widened(offered=2, taken=2, transfer_retries=3)
    b = Widened(transfer_retries=4)
    assert a.merge(b).transfer_retries == 7
    assert Widened.merged([a, b]).transfer_retries == 7
    a.add(b)
    assert a.transfer_retries == 7
    assert list(a.as_dict())[-2:] == ["transfer_retries", "unaccounted"]
    registry = MetricsRegistry()
    a.populate_metrics(registry, shard="1")
    assert registry.as_dict()["queue_transfer_retries"]["series"] == [
        {"labels": {"shard": "1"}, "value": 7}
    ]
