"""The staged execution engine.

An :class:`Engine` holds a DAG of named stages.  Each stage declares its
input stages, its cache-key material (configs, seeds, loop indices), and
a codec for its output artifact.  ``run(targets)`` then:

1. plans demand-driven: walking down from the targets, a stage whose
   artifact is already cached becomes a leaf — its inputs are neither
   loaded nor computed (so a warm study re-run executes zero stages);
2. resolves every planned stage through one memoised resolver, on a
   thread pool when ``jobs > 1`` (the hot paths are numpy and release
   the GIL; independent stages such as the DOX and CTH pipelines, or
   per-source threshold searches, run concurrently);
3. records per-stage wall time and cache hit/miss status into a
   :class:`RunReport` whose summary table shows where pipeline time goes.

Because stage keys chain through their inputs' keys, results are
identical with caching on or off, and with ``jobs=1`` or ``jobs=N`` —
every stage is a pure function of its inputs plus named RNG streams.

The engine is also self-healing: a cached artifact that fails checksum
verification or whose codec raises on load is quarantined and the stage
(plus only the upstream subgraph it actually needs) is transparently
re-executed — the run completes with the stage marked
``STATUS_RECOVERED`` instead of aborting.  A stage function that raises
fails the run: it is pure, so running it again would raise again.  See
:mod:`repro.engine.recovery`.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Callable, Mapping, Sequence

from repro.engine.keys import fingerprint
from repro.engine.store import PICKLE, ArtifactStore, Codec
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
    codec: Codec = PICKLE
    cacheable: bool = True


@dataclasses.dataclass(frozen=True)
class StageRecord:
    """How one stage resolved during a run."""

    name: str
    status: str
    seconds: float
    key: str


#: Each resolved stage's value and record, by stage name.
_Memo = dict[str, tuple[object, StageRecord]]


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
        codec: Codec | None = None,
        cacheable: bool = True,
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
            codec=codec or PICKLE,
            cacheable=cacheable,
        )
        return name

    def add_source(self, name: str, value: object) -> str:
        """Register a pre-computed value (never cached to disk)."""
        return self.add(name, lambda: value, cacheable=False)

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
        """Resolve ``targets``, loading cached stages and running the rest."""
        plan: dict[str, str] = {}  # name -> STATUS_RUN | STATUS_HIT
        order: list[str] = []  # topological (inputs before consumers)

        def visit(name: str) -> None:
            if name in plan:
                return
            stage = self._stages[name]  # KeyError on unknown target
            if self._cached(stage):
                plan[name] = STATUS_HIT
                order.append(name)
                return
            plan[name] = STATUS_RUN
            for dep in stage.inputs:
                visit(dep)
            order.append(name)

        for target in targets:
            visit(target)

        memo: _Memo = {}
        # Per-stage trace-event buffers.  Each buffer is written only by
        # the one worker resolving that stage (recovery events land in
        # the healed stage's buffer), so no lock is needed; the flush
        # below replays them in plan order on a logical clock.
        stage_events: dict[str, list[tuple[str, dict[str, object]]]] = (
            {name: [] for name in order} if self.tracer is not None else {}
        )
        if self.jobs == 1 or len(order) <= 1:
            for name in order:
                self._resolve(name, memo, stage_events.get(name))
        else:
            self._run_parallel(order, plan, memo, stage_events)
        # Planned stages in plan order, then the stages resolved only
        # while healing another one, by name.
        names = order + sorted(name for name in memo if name not in plan)
        report = RunReport(records=tuple(memo[name][1] for name in names))
        if self.tracer is not None:
            self._flush_trace(targets, order, report, stage_events)
        return RunOutcome(
            values={name: value for name, (value, _) in memo.items()},
            report=report,
        )

    def _flush_trace(
        self,
        targets: Sequence[str],
        order: Sequence[str],
        report: RunReport,
        stage_events: Mapping[str, Sequence[tuple[str, dict[str, object]]]],
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
        in_plan = set(order)
        for record in report.records:
            stage_span = run_span.child(
                "stage",
                start=clock,
                end=clock + 1.0,
                stage=record.name,
                status=record.status,
                key=record.key[:12],
                planned=record.name in in_plan,
            )
            for event_name, labels in stage_events.get(record.name, ()):
                stage_span.event(event_name, clock, **labels)
            clock += 1.0
        run_span.close(0.0, clock)

    def _cached(self, stage: Stage) -> bool:
        """Whether the run loads ``stage`` instead of computing it."""
        return (
            stage.cacheable
            and self.store is not None
            and not self.force
            and self.store.has(
                stage.name, self.key_of(stage.name), stage.codec.extension
            )
        )

    def _resolve(
        self,
        name: str,
        memo: _Memo,
        events: list[tuple[str, dict[str, object]]] | None = None,
        demanded: bool = False,
    ) -> object:
        """Resolve one stage: load its artifact, or compute it.

        A stage already in ``memo`` is returned as is, so no stage is
        loaded or computed twice in one ``memo``.  A cached artifact that
        fails verification or its codec is quarantined and the stage
        recomputed from its inputs, each resolved through this method:
        the planner pruned them, so they are ``demanded`` and add a
        ``demand`` event to the healed stage's trace buffer ``events``.
        """
        if name in memo:
            return memo[name][0]
        stage = self._stages[name]
        key = self.key_of(name)
        started = time.perf_counter()
        status = STATUS_RUN
        if self._cached(stage):
            try:
                value = self.store.load(name, key, stage.codec)
                status = STATUS_HIT
            except Exception:
                self.store.quarantine(
                    self.store.path_for(name, key, stage.codec.extension)
                )
                status = STATUS_RECOVERED
                if events is not None:
                    events.append(("quarantine", {"stage": name}))
        if status != STATUS_HIT:
            value = stage.fn(*[
                self._resolve(dep, memo, events, demanded=True)
                for dep in stage.inputs
            ])
            if stage.cacheable and self.store is not None:
                self.store.save(name, key, stage.codec, value)
        if demanded and events is not None:
            events.append(("demand", {"stage": name, "status": status}))
        memo[name] = value, StageRecord(
            name=name, status=status, seconds=time.perf_counter() - started, key=key
        )
        return value

    def _run_parallel(
        self,
        order: Sequence[str],
        plan: Mapping[str, str],
        memo: _Memo,
        stage_events: Mapping[str, list[tuple[str, dict[str, object]]]],
    ) -> None:
        # A planned run starts once its inputs are done; a cache hit
        # waits on nothing (its inputs are pruned from the plan).
        waiting_on = {
            name: (
                set(self._stages[name].inputs) if plan[name] == STATUS_RUN else set()
            )
            for name in order
        }
        pending = list(order)
        running: dict[Future, _Memo] = {}
        failure: BaseException | None = None
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            while pending or running:
                if failure is None:
                    for name in [n for n in pending if not waiting_on[n]]:
                        pending.remove(name)
                        # Only this thread touches `memo`; each stage
                        # resolves into its own copy of what it needs.
                        local = {
                            dep: memo[dep]
                            for dep in (*self._stages[name].inputs, name)
                            if dep in memo
                        }
                        future = pool.submit(
                            self._resolve, name, local, stage_events.get(name)
                        )
                        running[future] = local
                if not running:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    local = running.pop(future)
                    error = future.exception()
                    if error is not None:
                        failure = failure or error
                        continue
                    for name, resolved in local.items():
                        memo.setdefault(name, resolved)
                        for other in waiting_on.values():
                            other.discard(name)
        if failure is not None:
            raise failure
