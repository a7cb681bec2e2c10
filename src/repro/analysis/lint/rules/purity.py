"""Purity rules: PUR001 (no side I/O in stages), PUR002 (no mutable
globals read in stages), PUR003 (no function writes shared state).

A *stage function* is any function this file hands to ``Engine.add`` —
as a bare name, a ``self.method`` reference, or wrapped in
``functools.partial`` — plus, by repo convention, any function named
``_stage_*``.  The engine caches, reorders, and parallelizes stage
calls freely; that is only sound when a stage touches nothing but its
arguments, its named RNG streams, and the artifact store.

Detection is per-file and syntactic: a function passed to an engine in
*another* module, or reached only through helpers, is not traced.  The
``_stage_*`` naming convention exists precisely so the common case
stays visible to this pass.  PUR003 needs no such list: it checks every
function in the file.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule

_STAGE_NAME_PREFIX = "_stage_"
_SHARED_KEY = "purity.stage_functions"

#: ``pathlib.Path`` mutation methods flagged inside stage functions.
#: ``rename``/``replace`` are omitted on purpose: the attribute names
#: collide with ``str`` methods and cannot be distinguished statically.
_PATH_MUTATORS = frozenset({
    "write_text", "write_bytes", "mkdir", "touch", "unlink", "rmdir",
    "symlink_to", "hardlink_to", "chmod",
})

#: Filesystem-mutating module functions (resolved through import aliases).
_MODULE_MUTATORS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
    "os.removedirs", "os.mkdir", "os.makedirs", "os.chmod", "os.symlink",
    "os.link", "os.truncate",
    "shutil.rmtree", "shutil.copy", "shutil.copy2", "shutil.copyfile",
    "shutil.copytree", "shutil.move",
})

#: Methods that change a list, dict, set, deque or Counter in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "difference_update", "intersection_update", "symmetric_difference_update",
    "appendleft", "extendleft", "popleft", "rotate", "subtract",
})

#: Classes whose module-level instances are shared observability sinks:
#: every method call on one from a function writes to it.
_SHARED_SINKS = frozenset({"Tracer", "MetricsRegistry", "RunObserver"})

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _callable_name(node: ast.expr) -> str | None:
    """The referenced function's bare name (unwraps functools.partial)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else node.func.id
        ) == "partial"
        and node.args
    ):
        return _callable_name(node.args[0])
    return None


def _receiver_is_engine(node: ast.expr) -> bool:
    """True for ``engine.add`` / ``self.engine.add`` style receivers."""
    if isinstance(node, ast.Name):
        return "engine" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "engine" in node.attr.lower()
    return False


def stage_function_names(ctx: FileContext) -> frozenset[str]:
    """Names of functions this file registers as engine stages.

    Computed once per file and shared between the purity rules via
    ``ctx.shared``.
    """
    cached = ctx.shared.get(_SHARED_KEY)
    if cached is not None:
        return cached  # type: ignore[return-value]
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith(_STAGE_NAME_PREFIX):
                names.add(node.name)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and _receiver_is_engine(node.func.value)
        ):
            fn_node: ast.expr | None = None
            if len(node.args) >= 2:
                fn_node = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "fn":
                        fn_node = keyword.value
            if fn_node is not None:
                name = _callable_name(fn_node)
                if name is not None:
                    names.add(name)
    result = frozenset(names)
    ctx.shared[_SHARED_KEY] = result
    return result


def _stage_defs(ctx: FileContext) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    wanted = stage_function_names(ctx)
    if not wanted:
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in wanted
        ):
            yield node


class StageSideIO(Rule):
    """PUR001: stage outputs flow through the artifact store, full stop.

    A stage that opens files or mutates the filesystem behind the
    engine's back breaks cache equivalence twice over: a warm run skips
    the side effect entirely, and a parallel run reorders it.  The
    ``ArtifactStore`` codecs are the one sanctioned write path.
    """

    id = "PUR001"
    summary = "stage function performs side I/O"
    hint = (
        "return the value and let the stage's ArtifactStore codec persist "
        "it (engine.store is the only sanctioned write path)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for stage in _stage_defs(ctx):
            for node in ast.walk(stage):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and ctx.is_builtin("open")
                ):
                    yield ctx.finding(
                        self, node,
                        f"stage `{stage.name}` calls builtin `open()`",
                    )
                    continue
                resolved = ctx.resolve_imported(node.func)
                if resolved in _MODULE_MUTATORS:
                    yield ctx.finding(
                        self, node,
                        f"stage `{stage.name}` calls filesystem mutator "
                        f"`{resolved}`",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _PATH_MUTATORS
                ):
                    yield ctx.finding(
                        self, node,
                        f"stage `{stage.name}` calls path mutator "
                        f"`.{node.func.attr}()`",
                    )


class StageMutableGlobal(Rule):
    """PUR002: stage functions must not read module-level mutable state.

    A module-level dict/list/set read inside a stage is invisible to the
    stage's cache key, so mutating it changes results without changing
    any key — the exact drift the engine exists to prevent.  ALL_CAPS
    module constants are exempt by convention (treated as frozen).
    """

    id = "PUR002"
    summary = "stage function reads a module-level mutable global"
    hint = (
        "pass the value in as a stage input or key material, or rename it "
        "to ALL_CAPS and treat it as immutable"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        mutable = {
            name for name in _mutable_bindings(ctx, ctx.tree.body)
            if not name.isupper()
        }
        if not mutable:
            return
        for stage in _stage_defs(ctx):
            local = _local_bindings(stage)
            seen: set[str] = set()
            for node in ast.walk(stage):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable
                    and node.id not in local
                    and node.id not in seen
                ):
                    seen.add(node.id)
                    yield ctx.finding(
                        self, node,
                        f"stage `{stage.name}` reads mutable module global "
                        f"`{node.id}`",
                    )


class SharedStateMutation(Rule):
    """PUR003: no function mutates module- or class-level state.

    The study engine runs stages on a thread pool and the serving
    runtime scores shards on worker threads, and every stage, shard and
    instance sees the same module globals and class bodies.  A function
    that writes to them makes results depend on the thread schedule and
    on what ran before.  Tables are built at import time and only read
    from functions.

    Inside any function or lambda this flags an item store or ``del``,
    an augmented assignment, or a mutating method call (``append``,
    ``update``, ``pop``, ...) on a module-level container, or on a
    class-body container reached through ``self``, ``cls`` or the class
    name; any method call on a module-level ``Tracer``,
    ``MetricsRegistry`` or ``RunObserver``; and any ``global``
    rebinding.  ALL_CAPS names are not exempt.  Like every rule here it
    reads one file: a write to the instance state of an object that
    threads share is not visible to it.
    """

    id = "PUR003"
    summary = "function mutates module- or class-level state"
    hint = (
        "build shared tables at import time and only read them in "
        "functions; keep per-run state on an instance owned by one stage "
        "or shard, or pass it in and return it"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module = _mutable_bindings(ctx, ctx.tree.body)
        sinks = _sink_instances(ctx)
        classes: dict[str, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).update(
                    _mutable_bindings(ctx, node.body)
                )
        for function, owner, local in _functions(ctx.tree):
            name = getattr(function, "name", "<lambda>")

            def shared(expr: ast.expr) -> str | None:
                """How ``expr``, past any item lookups, names shared state."""
                while isinstance(expr, ast.Subscript):
                    expr = expr.value
                if isinstance(expr, ast.Name):
                    if expr.id in module and expr.id not in local:
                        return f"module-level `{expr.id}`"
                elif (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                ):
                    root = expr.value.id
                    cls = owner if root in ("self", "cls") else (
                        None if root in local else root
                    )
                    if expr.attr in classes.get(cls, ()):
                        return f"class-level `{cls}.{expr.attr}`"
                return None

            for node in _own_nodes(function):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    receiver, method = node.func.value, node.func.attr
                    if (
                        isinstance(receiver, ast.Name)
                        and receiver.id in sinks
                        and receiver.id not in local
                    ):
                        yield ctx.finding(
                            self, node,
                            f"`{name}` calls `.{method}()` on module-level "
                            f"{sinks[receiver.id]} `{receiver.id}`",
                        )
                    elif method in _MUTATING_METHODS and (
                        where := shared(receiver)
                    ):
                        yield ctx.finding(
                            self, node, f"`{name}` calls `.{method}()` on {where}"
                        )
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ) and (where := shared(node.value)):
                    verb = "stores" if isinstance(node.ctx, ast.Store) else "deletes"
                    yield ctx.finding(
                        self, node, f"`{name}` {verb} an item of {where}"
                    )
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Attribute
                ) and (where := shared(node.target)):
                    yield ctx.finding(
                        self, node, f"`{name}` updates {where} in place"
                    )
                elif isinstance(node, ast.Global):
                    for global_name in node.names:
                        if global_name in _local_bindings(function):
                            yield ctx.finding(
                                self, node,
                                f"`{name}` rebinds module global `{global_name}`",
                            )


def _bound_values(body: list[ast.stmt]) -> Iterator[tuple[str, ast.expr]]:
    """``(name, value)`` for each plain-name assignment in a body."""
    for node in body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            yield node.target.id, node.value


def _mutable_bindings(ctx: FileContext, body: list[ast.stmt]) -> set[str]:
    """Names a module or class body binds to a mutable container."""
    return {
        name for name, value in _bound_values(body)
        if _is_mutable_literal(ctx, value)
    }


def _sink_instances(ctx: FileContext) -> dict[str, str]:
    """Module-level name -> class, for each shared observability sink."""
    sinks: dict[str, str] = {}
    for name, value in _bound_values(ctx.tree.body):
        if isinstance(value, ast.Call):
            func = value.func
            cls = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if cls in _SHARED_SINKS:
                sinks[name] = cls
    return sinks


def _functions(
    node: ast.AST, owner: str | None = None, local: frozenset[str] = frozenset()
) -> Iterator[tuple[ast.AST, str | None, frozenset[str]]]:
    """Every function and lambda, with the class ``self``/``cls`` means
    in it and the names that shadow module globals there: parameters and
    assigned names of it and of the functions around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child.name, local)
        elif isinstance(child, _FUNCTIONS):
            inner = local | _local_bindings(child)
            yield child, owner, inner
            yield from _functions(child, owner, inner)
        else:
            yield from _functions(child, owner, local)


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``function``'s own scope (not of nested defs)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _local_bindings(function: ast.AST) -> set[str]:
    """Parameters and names assigned anywhere in ``function``."""
    args = function.args
    local = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            local.add(extra.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
    return local


def _is_mutable_literal(ctx: FileContext, node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name in ("dict", "list", "set") and ctx.is_builtin(name):
            return True
        resolved = ctx.resolve_imported(node.func)
        return resolved in (
            "collections.defaultdict", "collections.Counter",
            "collections.OrderedDict", "collections.deque",
        )
    return False
