"""The staged execution engine.

An :class:`Engine` holds a DAG of named stages.  Each stage declares its
input stages and its cache-key material (configs, seeds, loop indices);
its output artifact is one pickle in the store.  ``run(targets)`` then:

1. plans demand-driven: walking down from the targets, a stage whose
   artifact is already cached becomes a leaf — its inputs are neither
   loaded nor computed (so a warm study re-run executes zero stages);
2. loads each planned stage's cached artifact on the calling thread, in
   plan order, and queues the stages it cannot load after their inputs;
3. computes the queued stages: in queue order when ``jobs == 1``, else
   on a thread pool as their inputs become ready (the hot paths are
   numpy and release the GIL; independent stages such as the DOX and
   CTH pipelines, or per-source threshold searches, run concurrently);
4. records per-stage wall time and cache hit/miss status into a
   :class:`RunReport` whose summary table shows where pipeline time goes.

Because stage keys chain through their inputs' keys, results are
identical with caching on or off, and with ``jobs=1`` or ``jobs=N`` —
every stage is a pure function of its inputs plus named RNG streams.

The engine is also self-healing: a cached artifact that fails checksum
verification or does not unpickle is quarantined in step 2, and
the stage (plus only the upstream subgraph it actually needs) is queued
to re-execute — the run completes with the stage marked
``STATUS_RECOVERED`` instead of aborting.  All loading and healing
happens before any stage computes, so the healing trace does not depend
on ``jobs``.  A stage function that raises fails the run: it is pure, so
running it again would raise again.  See :mod:`repro.engine.recovery`.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Callable, Collection, Mapping, Sequence

from repro.engine.keys import fingerprint
from repro.engine.store import ArtifactStore
from repro.obs.trace import Tracer
from repro.util.tables import format_table

#: Stage completion statuses recorded in the run report.
STATUS_RUN = "run"  # executed (cache miss or caching off)
STATUS_HIT = "hit"  # artifact loaded from the store
STATUS_RECOVERED = "recovered"  # cached artifact failed, quarantined + re-executed


@dataclasses.dataclass(frozen=True)
class Stage:
    """One node of the execution graph."""

    name: str
    fn: Callable[..., object]
    inputs: tuple[str, ...] = ()
    key_parts: tuple[object, ...] = ()


@dataclasses.dataclass(frozen=True)
class StageRecord:
    """How one stage resolved during a run."""

    name: str
    status: str
    seconds: float
    key: str


#: A stage's trace-event buffer: (event name, labels) in append order.
_Events = list[tuple[str, dict[str, object]]]


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Per-stage timings and cache counters for one ``Engine.run``."""

    records: tuple[StageRecord, ...]

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_RUN)

    @property
    def n_cache_hits(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_HIT)

    @property
    def n_recovered(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_RECOVERED)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def record(self, name: str) -> StageRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    def render(self) -> str:
        rows = [
            (r.name, r.status, f"{r.seconds:.3f}", r.key[:12]) for r in self.records
        ]
        summary = f"total ({self.n_executed} run / {self.n_cache_hits} hit"
        if self.n_recovered:
            summary += f" / {self.n_recovered} recovered"
        rows.append((summary + ")", "", f"{self.total_seconds:.3f}", ""))
        return format_table(("stage", "status", "seconds", "key"), rows)

    def populate_metrics(self, registry) -> None:
        """Project the run into an observability registry.

        Deliberately excludes wall-clock ``seconds``: the registry
        snapshot (like the trace) must be byte-identical across runs, so
        only the deterministic facts — stage statuses — are projected.
        Timings stay in :meth:`render` where non-determinism is expected.
        """
        statuses = registry.counter(
            "engine_stages", help="stage resolutions by cache status"
        )
        for record in self.records:
            statuses.labels(status=record.status).inc()


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """Resolved values for the demanded stages, plus the report."""

    values: Mapping[str, object]
    report: RunReport

    def __getitem__(self, name: str) -> object:
        return self.values[name]


class Engine:
    """Registers stages and runs the demanded subgraph."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int = 1,
        force: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.store = store
        self.jobs = jobs
        self.force = force
        #: observability sink; stage spans are flushed on a *logical*
        #: clock in plan order at the end of ``run()``, so the trace is
        #: byte-identical across runs and ``jobs`` settings (wall-clock
        #: timings stay in the RunReport, never in the trace)
        self.tracer = tracer
        self._stages: dict[str, Stage] = {}
        self._keys: dict[str, str] = {}

    # -- graph construction --------------------------------------------------

    def add(
        self,
        name: str,
        fn: Callable[..., object],
        inputs: Sequence[str] = (),
        key: Sequence[object] = (),
    ) -> str:
        """Register a stage; returns its name for wiring downstream stages.

        ``fn`` receives the resolved input values positionally, in the
        declared order.  Inputs must already be registered, which keeps
        the graph acyclic by construction.
        """
        if name in self._stages:
            raise ValueError(f"stage {name!r} is already registered")
        for dep in inputs:
            if dep not in self._stages:
                raise KeyError(f"stage {name!r} depends on unknown stage {dep!r}")
        self._stages[name] = Stage(
            name=name,
            fn=fn,
            inputs=tuple(inputs),
            key_parts=tuple(key),
        )
        return name

    def key_of(self, name: str) -> str:
        """The stage's deterministic cache key (chains through inputs)."""
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        stage = self._stages[name]
        key = fingerprint(
            stage.name,
            stage.key_parts,
            tuple(self.key_of(dep) for dep in stage.inputs),
        )
        self._keys[name] = key
        return key

    # -- execution -----------------------------------------------------------

    def run(self, targets: Sequence[str]) -> RunOutcome:
        """Resolve ``targets``: load what the cache holds, compute the rest."""
        order: list[str] = []  # planned stages, inputs before consumers
        planned: set[str] = set()

        def visit(name: str) -> None:
            if name in planned:
                return
            stage = self._stages[name]  # KeyError on unknown target
            planned.add(name)
            if not self._cached(name):
                for dep in stage.inputs:
                    visit(dep)
            order.append(name)

        for target in targets:
            visit(target)

        values: dict[str, object] = {}
        records: dict[str, StageRecord] = {}
        queue: list[str] = []  # stages to compute, inputs before consumers
        # Per-stage trace-event buffers, appended by this thread only
        # (healing events land in the healed planned stage's buffer);
        # the flush below replays them in plan order on a logical clock.
        stage_events: dict[str, _Events] = (
            {name: [] for name in order} if self.tracer is not None else {}
        )
        for name in order:
            self._load(name, values, records, queue, stage_events.get(name))
        self._compute(queue, values, records)
        # Planned stages in plan order, then the stages resolved only
        # while healing another one, by name.
        names = order + sorted(name for name in records if name not in planned)
        report = RunReport(records=tuple(records[name] for name in names))
        if self.tracer is not None:
            self._flush_trace(targets, planned, report, stage_events)
        return RunOutcome(values=values, report=report)

    def _flush_trace(
        self,
        targets: Sequence[str],
        planned: Collection[str],
        report: RunReport,
        stage_events: Mapping[str, _Events],
    ) -> None:
        """Emit the run's spans on a logical clock, one tick per stage.

        Stages are replayed in deterministic plan order — not completion
        order — and wall-clock seconds never enter the trace, so the
        bytes are identical for ``jobs=1`` and ``jobs=N`` and across
        machines.
        """
        run_span = self.tracer.span(
            "engine-run",
            targets=",".join(targets),
            stages=len(report.records),
            cache_hits=report.n_cache_hits,
            recovered=report.n_recovered,
        )
        clock = 0.0
        for record in report.records:
            stage_span = run_span.child(
                "stage",
                start=clock,
                end=clock + 1.0,
                stage=record.name,
                status=record.status,
                key=record.key[:12],
                planned=record.name in planned,
            )
            for event_name, labels in stage_events.get(record.name, ()):
                stage_span.event(event_name, clock, **labels)
            clock += 1.0
        run_span.close(0.0, clock)

    def _cached(self, name: str) -> bool:
        """Whether the run loads stage ``name`` instead of computing it."""
        return (
            self.store is not None
            and not self.force
            and self.store.has(name, self.key_of(name))
        )

    def _load(
        self,
        name: str,
        values: dict[str, object],
        records: dict[str, StageRecord],
        queue: list[str],
        events: _Events | None,
        demanded: bool = False,
    ) -> None:
        """Load one stage's artifact into ``values``, or queue the stage.

        A stage already in ``records`` is left alone, so no stage is
        loaded or queued twice in one run.  A cached artifact that fails
        verification or unpickling is quarantined and its stage queued
        after its inputs, each handled by this method: the planner
        pruned them, so they are ``demanded`` and add a ``demand`` event
        to the healed stage's trace buffer ``events``.
        """
        if name in records:
            return
        stage = self._stages[name]
        key = self.key_of(name)
        started = time.perf_counter()
        status = STATUS_RUN
        if self._cached(name):
            try:
                values[name] = self.store.load(name, key)
                status = STATUS_HIT
            except Exception:
                self.store.quarantine(self.store.path_for(name, key))
                status = STATUS_RECOVERED
                if events is not None:
                    events.append(("quarantine", {"stage": name}))
        records[name] = StageRecord(
            name=name, status=status, seconds=time.perf_counter() - started, key=key
        )
        if status != STATUS_HIT:
            for dep in stage.inputs:
                self._load(dep, values, records, queue, events, demanded=True)
            queue.append(name)
        if demanded and events is not None:
            events.append(("demand", {"stage": name, "status": status}))

    def _compute(
        self,
        queue: Sequence[str],
        values: dict[str, object],
        records: dict[str, StageRecord],
    ) -> None:
        """Compute every queued stage into ``values``, adding its time to
        its record.  Only this thread touches ``values`` and ``records``;
        a pooled worker runs one stage function and saves its artifact.
        """

        def start(name: str) -> tuple[Stage, str, list[object]]:
            stage = self._stages[name]
            return stage, records[name].key, [values[dep] for dep in stage.inputs]

        def finish(name: str, value: object, seconds: float) -> None:
            values[name] = value
            records[name] = dataclasses.replace(
                records[name], seconds=records[name].seconds + seconds
            )

        if self.jobs == 1 or len(queue) <= 1:
            for name in queue:
                finish(name, *self._execute(*start(name)))
            return
        # A queued stage starts once all its inputs have values; after
        # the first failure no new stage starts and the run raises it.
        pending = list(queue)
        running: dict[Future, str] = {}
        failure: BaseException | None = None
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            while pending or running:
                if failure is None:
                    ready = [
                        name for name in pending
                        if all(dep in values for dep in self._stages[name].inputs)
                    ]
                    for name in ready:
                        pending.remove(name)
                        running[pool.submit(self._execute, *start(name))] = name
                if not running:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    name = running.pop(future)
                    error = future.exception()
                    if error is not None:
                        failure = failure or error
                    else:
                        finish(name, *future.result())
        if failure is not None:
            raise failure

    def _execute(
        self, stage: Stage, key: str, args: Sequence[object]
    ) -> tuple[object, float]:
        """Run one stage function and save its artifact; returns the
        value and the seconds this took."""
        started = time.perf_counter()
        value = stage.fn(*args)
        if self.store is not None:
            self.store.save(stage.name, key, value)
        return value, time.perf_counter() - started
