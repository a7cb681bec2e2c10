"""Shard-isolation rules (CONC) backed by the project call graph.

The serving runtime's headline invariant — merged shard output
byte-identical to a single monitor — only holds if nothing reachable
from a shard worker's call path touches state shared across shards.
These rules make that argument structural:

- **CONC001** — module-level or class-level mutable containers
  (dict/list/set/Counter/...) referenced from a shard-worker call path.
  Class-body mutables are shared by every instance, hence every shard;
  module globals are shared by everything.  Route the data through the
  shard's queue or keep it per-instance.
- **CONC002** — a shared module-level ``Tracer``/``MetricsRegistry``/
  ``RunObserver`` written from more than one worker entry point.  The
  repo's discipline is single-writer-per-shard with an absorb in
  shard-id order on the main thread; concurrent writers would make
  trace bytes depend on the thread schedule.
- **CONC003** — per-target monitor state (underscore-prefixed mutable
  instance attributes) accessed from outside the owning class's own
  methods.  The runtime changes that state only through the state
  monitor's own methods, one message at a time in stream order;
  reaching into it from another class — a shard worker above all —
  bypasses that order.

Reachability starts from :data:`WORKER_ENTRY_SUFFIXES` — the functions
that run on shard workers (or, for the ``Tracer`` methods, that workers
call concurrently).  Suffix matching keys on trailing dotted components,
so fixture files defining their own ``ServingRuntime._run_shard`` hit
the same paths as the real one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Finding, ProjectRule, register

if TYPE_CHECKING:
    from repro.analysis.lint.engine import Project
    from repro.analysis.lint.graph.callgraph import ProjectGraph

#: Dotted-qualname suffixes of functions that execute on shard workers.
WORKER_ENTRY_SUFFIXES: tuple[str, ...] = (
    "ServingRuntime._run_shard",
    "HarassmentMonitor.process_scored",
    "HarassmentMonitor.process_batch",
    "HarassmentMonitor.run",
    "Tracer.span",
    "Tracer.event",
    # Gateway subsystem entry points: handle() fans the admitted stream
    # out to shard workers, and feed drains run on consumer threads.
    "Gateway.handle",
    "AlertFeed.drain",
)

#: Constructors whose module-level instances count as shared observability
#: sinks for CONC002 (basename match after import resolution).
SHARED_SINK_TYPES = frozenset({"Tracer", "MetricsRegistry", "RunObserver"})


def _entry_label(n_entries: int) -> str:
    return f"{n_entries} worker entry point{'s' if n_entries != 1 else ''}"


@register
class SharedMutableStateOnWorkerPath(ProjectRule):
    id = "CONC001"
    summary = "mutable shared state reachable from a shard-worker call path"
    hint = (
        "keep worker state per-shard (instance attributes created per worker) "
        "or hand results to the main thread through the shard queue"
    )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        graph = project.graph
        reachable = graph.reachable_from(WORKER_ENTRY_SUFFIXES)
        for qualname in sorted(reachable):
            info = graph.infos.get(qualname)
            if info is None:
                continue
            ctx = info.symbol.ctx
            for name in sorted(info.global_refs):
                yield ctx.finding(
                    self,
                    info.global_refs[name],
                    f"module-level mutable '{name}' is referenced from "
                    f"shard-worker call path '{qualname}'; module globals are "
                    "shared across every shard",
                )
            seen: set[tuple[str, str]] = set()
            for access in info.attr_accesses:
                if access.receiver_class is None:
                    continue
                cls = graph.table.classes.get(access.receiver_class)
                if cls is None or access.attr not in cls.class_mutable_attrs:
                    continue
                key = (cls.qualname, access.attr)
                if key in seen:
                    continue
                seen.add(key)
                yield ctx.finding(
                    self,
                    access.node,
                    f"class-level mutable '{cls.name}.{access.attr}' is "
                    f"touched from shard-worker call path '{qualname}'; "
                    "class attributes are shared by every instance, hence "
                    "every shard",
                )


@register
class SharedSinkMultiWriter(ProjectRule):
    id = "CONC002"
    summary = "shared Tracer/MetricsRegistry written from multiple worker entry points"
    hint = (
        "give each shard its own tracer/registry and absorb them on the main "
        "thread in shard-id order (Tracer.absorb / MetricsRegistry.merge)"
    )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        graph = project.graph
        entries = graph.entry_functions(WORKER_ENTRY_SUFFIXES)
        if len(entries) < 2:
            return
        reach_by_entry = {
            entry: graph.reachable_from([entry]) for entry in entries
        }
        for module_name in sorted(graph.table.modules):
            mod = graph.table.modules[module_name]
            for name in sorted(mod.global_instances):
                ctor = mod.global_instances[name]
                if ctor.rpartition(".")[2] not in SHARED_SINK_TYPES:
                    continue
                writers = self._writers(graph, module_name, name)
                writing_entries = sorted({
                    entry
                    for entry in entries
                    for writer in writers
                    if writer in reach_by_entry[entry]
                })
                if len(writing_entries) < 2:
                    continue
                for writer in sorted(writers):
                    info = graph.infos[writer]
                    site = writers[writer]
                    yield info.symbol.ctx.finding(
                        self,
                        site,
                        f"shared {ctor.rpartition('.')[2].lower()} '{name}' "
                        f"is written from {_entry_label(len(writing_entries))} "
                        f"(via '{writer}'); single-writer-per-shard with an "
                        "ordered absorb is required for deterministic traces",
                    )

    @staticmethod
    def _writers(
        graph: "ProjectGraph", module_name: str, instance: str
    ) -> dict[str, object]:
        """Function qualname -> first method-call site on the instance."""
        writers: dict[str, object] = {}
        for qualname in sorted(graph.infos):
            info = graph.infos[qualname]
            if info.symbol.module != module_name:
                continue
            if instance not in info.global_instance_refs:
                continue
            for access in info.attr_accesses:
                if access.receiver_root == instance and access.is_call:
                    writers[qualname] = access.node
                    break
        return writers


@register
class MonitorStateOutsideOwner(ProjectRule):
    id = "CONC003"
    summary = "per-target monitor state accessed outside its owning class"
    hint = (
        "add a method on the owning class and call that; private per-target "
        "state must only be touched via the owner so it changes in stream "
        "order"
    )

    def check_project(self, project: "Project") -> Iterator[Finding]:
        graph = project.graph
        for qualname in sorted(graph.infos):
            info = graph.infos[qualname]
            owner = info.symbol.owner
            ctx = info.symbol.ctx
            seen: set[tuple[str, str]] = set()
            for access in info.attr_accesses:
                cls = None
                if access.receiver_class is not None:
                    cls = graph.table.classes.get(access.receiver_class)
                elif (
                    access.receiver_root is not None
                    and access.receiver_root != "self"
                ):
                    candidates = graph.table.private_attr_index.get(
                        access.attr, ()
                    )
                    if len(candidates) == 1:
                        cls = candidates[0]
                if cls is None or access.attr not in cls.private_mutable_attrs:
                    continue
                if owner is not None and owner.qualname == cls.qualname:
                    continue
                key = (cls.qualname, access.attr)
                if key in seen:
                    continue
                seen.add(key)
                yield ctx.finding(
                    self,
                    access.node,
                    f"private per-target state '{cls.name}.{access.attr}' is "
                    f"accessed from '{qualname}', outside its owning class; "
                    "state isolation is what makes shard merges exact",
                )
