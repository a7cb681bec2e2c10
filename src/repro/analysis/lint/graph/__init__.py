"""Project-wide symbol table and call graph for graph-backed lint rules.

The per-file rule pack (``DET*``/``PUR*``) sees one file at a time; the
concurrency rules (``CONC*``) need to know what the *project* looks
like: which functions call which, which classes own which mutable
state, and what is reachable from the serving runtime's shard-worker
entry points.  This package builds that view from the engine's existing
one-parse-per-file :class:`FileContext` objects — no second
``ast.parse`` ever runs:

- :mod:`symbols` extracts per-file symbols (modules, classes with their
  class-level and instance attributes / bases, functions including
  nested ones) into a project-wide table keyed by dotted qualname;
- :mod:`callgraph` resolves call sites against that table (imports and
  aliases, ``self.method()`` with base-class lookup, receivers typed by
  annotation or constructor assignment, a unique-method-name fallback)
  and answers reachability queries.

The graph is built lazily by :class:`repro.analysis.lint.engine.Project`
and cached there, so every graph-backed rule in a run shares a single
construction (``repro lint --stats`` prints the build count to prove
it).
"""

from repro.analysis.lint.graph.callgraph import ProjectGraph, build_graph
from repro.analysis.lint.graph.symbols import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbol,
    SymbolTable,
    build_symbol_table,
    module_name_for,
)

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "ModuleSymbol",
    "ProjectGraph",
    "SymbolTable",
    "build_graph",
    "build_symbol_table",
    "module_name_for",
]
