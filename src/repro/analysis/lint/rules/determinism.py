"""Determinism rules: DET001 (global RNG), DET002 (wall clock /
process-salted values), DET003 (unordered iteration reaching output).

All three protect the same contract: a stage's output must be a pure
function of its inputs, its declared key material, and *named* RNG
streams — never of process start time, hash salting, or import order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule

#: Wall-clock / identity producers banned by DET002 (resolved via the
#: file's import aliases, so ``from datetime import datetime`` +
#: ``datetime.now()`` is caught too).  ``time.perf_counter`` and
#: ``time.monotonic`` stay legal: they feed run *reports*, never keys.
_DET002_BANNED: dict[str, str] = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "host/time-derived identifier",
    "uuid.uuid4": "per-process random identifier",
    "os.urandom": "per-process random bytes",
}

#: Serialization-ish sinks DET003 watches for unordered direct arguments.
_DET003_SINK_ATTRS = frozenset({"write", "writelines", "join"})
_DET003_SINK_NAMES = frozenset({"json.dump", "json.dumps"})


def _is_set_expr(ctx: FileContext, node: ast.expr) -> bool:
    """A literal/constructed set whose iteration order is hash-salted."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset") and ctx.is_builtin(node.func.id)
    return False


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


class GlobalRandomness(Rule):
    """DET001: randomness must flow through ``repro.util.rng``.

    Module-level RNG state (``random.*``, ``numpy.random.*``) is shared
    across every caller in the process, so call *order* — which changes
    with ``jobs``, caching, and unrelated code motion — changes results.
    Named child generators from ``make_rng``/``child_rng`` do not.
    """

    id = "DET001"
    summary = "global/module-level RNG call"
    hint = (
        "derive a named generator via repro.util.rng.make_rng/child_rng "
        "and pass it explicitly"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_imported(node.func)
            if resolved is None:
                continue
            if resolved == "random" or resolved.startswith("random."):
                yield ctx.finding(
                    self, node, f"call to stdlib global RNG `{resolved}`"
                )
            elif resolved.startswith("numpy.random."):
                yield ctx.finding(
                    self, node, f"call to numpy global-RNG namespace `{resolved}`"
                )


class WallClock(Rule):
    """DET002: no wall clock, uuid, or salted ``hash()`` in keyed code.

    Cache keys and stage outputs must survive process restarts; anything
    derived from the clock, the host, or Python's per-process string
    hash salt silently breaks cache hits and cross-run equivalence.
    """

    id = "DET002"
    summary = "wall-clock / process-salted value"
    hint = (
        "thread timestamps through config, and derive stable identifiers "
        "with repro.util.rng.stable_hash"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_imported(node.func)
            if resolved in _DET002_BANNED:
                yield ctx.finding(
                    self, node, f"`{resolved}` is a {_DET002_BANNED[resolved]}"
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and ctx.is_builtin("hash")
            ):
                yield ctx.finding(
                    self,
                    node,
                    "builtin `hash()` is salted per process for strings",
                    hint="use repro.util.rng.stable_hash instead",
                )


class UnorderedIteration(Rule):
    """DET003: unordered set/keys iteration must not reach outputs.

    Set iteration order depends on the per-process hash salt, so any
    loop, comprehension, or serialization call fed directly by a set
    (or a sorted-less ``.keys()`` view handed to a writer) can produce
    different artifact bytes on different runs.  Wrap the iterable in
    ``sorted(...)`` — or iterate ``dict.fromkeys(...)`` when you need
    first-seen order — before the values can reach an artifact.
    """

    id = "DET003"
    summary = "unordered iteration feeding output"
    hint = "wrap the iterable in sorted(...) before iterating or serializing"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(ctx, node.iter):
                    yield ctx.finding(
                        self, node.iter, "loop iterates a set in hash order"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(ctx, generator.iter):
                        yield ctx.finding(
                            self,
                            generator.iter,
                            "comprehension iterates a set in hash order",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        # list(set(...)) / tuple(set(...)): materializes hash order.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and ctx.is_builtin(node.func.id)
            and len(node.args) == 1
            and _is_set_expr(ctx, node.args[0])
        ):
            yield ctx.finding(
                self, node, f"`{node.func.id}(set(...))` materializes hash order"
            )
            return
        # Serialization sinks fed an unordered iterable directly.
        is_sink = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DET003_SINK_ATTRS
        ) or ctx.resolve_imported(node.func) in _DET003_SINK_NAMES
        if not is_sink:
            return
        for arg in node.args:
            if _is_set_expr(ctx, arg):
                yield ctx.finding(
                    self, arg, "serialization sink receives a bare set"
                )
            elif _is_keys_call(arg):
                yield ctx.finding(
                    self, arg, "serialization sink receives a raw .keys() view"
                )
