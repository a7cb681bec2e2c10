"""Wall-clock layer tracer: ``perf_counter`` spans around public calls.

The benchmark never edits the program.  For a traced run it replaces a
fixed list of public callables (:data:`PROBES`) with timing wrappers,
runs the workload, and puts every original back.  Each wrapper records
one span per call on a per-thread stack, so a span's *self* time — its
duration minus the time of the timed calls nested inside it — is billed
to exactly one layer, and ``jobs=N`` runs share no counters between
threads.

A function imported by name (``from repro.score.core import
extract_targets``) is bound in several module namespaces; the tracer
patches every ``repro`` namespace that holds the same object and
restores all of them on :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from typing import Callable

#: Attribute marking a timing wrapper, so a restore check can find leftovers.
WRAPPED_MARK = "__perfbench_probe__"


@dataclasses.dataclass(frozen=True)
class Probe:
    """One timed public callable and the layer its self time bills.

    ``owner`` names the class of a method, ``None`` for a module-level
    function.  ``keep_durations`` keeps every call's duration (for batch
    latency percentiles).  ``count`` maps ``(args, result)`` to extra
    counters, such as cache hits from a ``(value, hit)`` return.
    """

    layer: str
    module: str
    owner: str | None
    attr: str
    keep_durations: bool = False
    count: Callable[[tuple, object], dict[str, float]] | None = None

    @property
    def key(self) -> str:
        name = f"{self.owner}.{self.attr}" if self.owner else self.attr
        return f"{self.layer}:{name}"


def _hit(args: tuple, result: object) -> dict[str, float]:
    return {"hits": float(result[1])}


def _rows(args: tuple, result: object) -> dict[str, float]:
    return {"rows": float(len(args[1]))}


def _alerts(args: tuple, result: object) -> dict[str, float]:
    return {"alerts": float(len(result))}


#: Every timed call; the layer is the module that owns it.
PROBES: tuple[Probe, ...] = (
    Probe("extraction", "repro.score.core", None, "extract_targets"),
    Probe("tokenize", "repro.nlp.tokenize", None, "hash_text"),
    Probe("tokenize", "repro.nlp.tokenize", "TokenHashCache", "cached",
          count=_hit),
    Probe("features", "repro.nlp.features", "HashingVectorizer",
          "transform_hashes", count=_rows),
    Probe("models", "repro.nlp.models.logreg", "LogisticRegressionClassifier",
          "predict_proba"),
    Probe("models", "repro.nlp.models.logreg", "LogisticRegressionClassifier",
          "fit"),
    Probe("score", "repro.score.core", "ScoringCore", "score_messages",
          keep_durations=True),
    Probe("taxonomy", "repro.taxonomy.coding", "ExpertCoder",
          "code_text_cached", count=_hit),
    Probe("monitor", "repro.service.monitor", "HarassmentMonitor",
          "process_scored", keep_durations=True, count=_alerts),
    Probe("monitor", "repro.service.monitor", "HarassmentMonitor",
          "snapshot_target_state"),
    Probe("monitor", "repro.service.monitor", "HarassmentMonitor",
          "extract_target_state"),
    Probe("monitor", "repro.service.monitor", "HarassmentMonitor",
          "restore_target_state"),
    Probe("ring", "repro.serve.ring", "HashRing", "owner"),
    Probe("ring", "repro.serve.ring", None, "detect_hot_keys"),
    Probe("ring", "repro.serve.ring", None, "salt_key"),
    Probe("queueing", "repro.serve.queueing", "BoundedQueue", "offer"),
    Probe("queueing", "repro.serve.queueing", "BoundedQueue", "take"),
    Probe("batching", "repro.serve.batching", "MicroBatcher",
          "flush_decision"),
    Probe("runtime", "repro.serve.runtime", "ServingRuntime", "run"),
    Probe("runtime", "repro.serve.runtime", None, "routing_key"),
    Probe("admission", "repro.gateway.admission", "TokenBucket", "refill"),
    Probe("admission", "repro.gateway.admission", "TokenBucket", "peek"),
    Probe("admission", "repro.gateway.admission", "TokenBucket", "consume"),
    Probe("admission", "repro.gateway.tenants", "TenantRegistry",
          "authenticate"),
    Probe("feeds", "repro.gateway.feeds", "AlertFeed", "publish"),
    Probe("feeds", "repro.gateway.feeds", "AlertFeed", "read"),
    Probe("corpus", "repro.corpus.generator", "CorpusBuilder", "build"),
    Probe("engine", "repro.engine.store", "ArtifactStore", "save"),
    Probe("pipeline", "repro.pipeline.vectorized", "VectorizedCorpus",
          "__init__"),
    Probe("pipeline", "repro.pipeline.thresholds", None, "select_threshold"),
)


@dataclasses.dataclass
class ProbeStats:
    """Accumulated wall time and counters of one probe."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = dataclasses.field(default_factory=list)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, other: "ProbeStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.durations.extend(other.durations)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value


class _ThreadLedger:
    """One thread's span stack and per-probe stats (single writer)."""

    __slots__ = ("stack", "stats")

    def __init__(self) -> None:
        #: time covered by timed children of each open span, innermost last
        self.stack: list[float] = []
        self.stats: dict[str, ProbeStats] = {}


class Tracer:
    """Installs timing wrappers for ``probes`` and collects their spans."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ledgers: list[_ThreadLedger] = []
        #: (namespace, attribute, original) for every patched binding
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _ledger(self) -> _ThreadLedger:
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            ledger = _ThreadLedger()
            self._local.ledger = ledger
            with self._lock:
                self._ledgers.append(ledger)
        return ledger

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        key = probe.key
        keep = probe.keep_durations
        count = probe.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            ledger = self._ledger()
            stack = ledger.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = ledger.stats.get(key)
                if stats is None:
                    stats = ledger.stats[key] = ProbeStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if keep:
                    stats.durations.append(elapsed)
            if count is not None:
                for name, value in count(args, result).items():
                    stats.counters[name] = stats.counters.get(name, 0.0) + value
            return result

        setattr(timed, WRAPPED_MARK, key)
        return timed

    def stats(self) -> dict[str, ProbeStats]:
        """Per-probe stats merged over every thread, keyed by :attr:`Probe.key`."""
        merged = {probe.key: ProbeStats() for probe in self.probes}
        with self._lock:
            ledgers = list(self._ledgers)
        for ledger in ledgers:
            for key, stats in ledger.stats.items():
                merged[key].add(stats)
        return merged

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self._ledgers.clear()
        self._local = threading.local()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every probed callable with its timing wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            for probe in self.probes:
                module = importlib.import_module(probe.module)
                if probe.owner is not None:
                    cls = getattr(module, probe.owner)
                    original = cls.__dict__[probe.attr]
                    self._patch(cls, probe.attr, original,
                                self._wrap(probe, original))
                    continue
                original = getattr(module, probe.attr)
                wrapper = self._wrap(probe, original)
                for namespace in repro_modules():
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, name, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, namespace, name: str, original, wrapper) -> None:
        self._patched.append((namespace, name, original))
        setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back (a no-op when nothing is installed)."""
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def repro_modules() -> list:
    """Every imported module of the program."""
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
