"""Rule registry and per-file lint driver.

Every rule sees one shared :class:`FileContext` per file — a single
``ast.parse`` plus precomputed helpers (import alias map, module-level
bindings, ``# repro: noqa`` lines) — so adding a rule never adds a
parse.  The rule pack is the ``RULES`` tuple of
:mod:`repro.analysis.lint.rules`, imported lazily the first time rules
are requested, which keeps ``import repro`` free of lint costs.  Every
rule checks one file at a time.

Suppression syntax, checked per finding line::

    value = np.random.default_rng(seed)  # repro: noqa[DET001]
    anything_goes_here()                 # repro: noqa

The bracketed form silences only the listed rule ids; the bare form
silences every rule on that line.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Iterable, Iterator, Mapping, Sequence

#: Rule id used for files the parser rejects (not a rule of the pack —
#: it cannot be selected, ignored, or suppressed away silently).
PARSE_ERROR = "E999"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?")

#: Sentinel meaning "every rule is suppressed on this line".
_ALL_RULES = frozenset({"*"})


class LintUsageError(ValueError):
    """Bad invocation (unknown rule id, missing path) — exit code 2."""


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violation: location, rule, message, and a fix hint."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    snippet: str = ""

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Line-number-free identity used for baseline matching.

        Keyed on the stripped source line rather than the line number so
        unrelated edits above a grandfathered finding do not un-baseline
        it.
        """
        return (self.path, self.rule, self.snippet)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``summary`` / ``hint`` and implement
    :meth:`check`, yielding findings (usually via ``ctx.finding``).
    """

    id: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError


def all_rules() -> Mapping[str, Rule]:
    """Every rule in the pack, keyed by id (loads the rule pack)."""
    from repro.analysis.lint.rules import RULES

    return {rule.id: rule for rule in RULES}


def _expand_rule_tokens(
    tokens: Iterable[str], known: Iterable[str]
) -> tuple[set[str], set[str]]:
    """Expand exact ids and family prefixes; return (ids, unknown tokens).

    ``--select DET,PUR`` selects every rule in those families;
    ``--select DET003`` still selects exactly one rule.  A token that
    matches nothing (neither exactly nor as a prefix) is reported back.
    """
    expanded: set[str] = set()
    unknown: set[str] = set()
    known = list(known)
    for token in tokens:
        matches = {rid for rid in known if rid == token or rid.startswith(token)}
        if matches:
            expanded |= matches
        else:
            unknown.add(token)
    return expanded, unknown


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Resolve ``--select`` / ``--ignore`` to an ordered rule list.

    Both accept exact rule ids (``DET001``) and family prefixes
    (``DET``, ``PUR``) that expand to every rule they match.
    """
    rules = all_rules()
    chosen_ids, unknown = (
        _expand_rule_tokens(select, rules) if select else (set(rules), set())
    )
    ignored_ids, unknown_ignored = (
        _expand_rule_tokens(ignore, rules) if ignore else (set(), set())
    )
    unknown |= unknown_ignored
    if unknown:
        known = ", ".join(sorted(rules))
        raise LintUsageError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} (known: {known})"
        )
    return [
        rules[rule_id]
        for rule_id in sorted(chosen_ids - ignored_ids)
    ]


class FileContext:
    """One parsed file, shared by every rule that checks it."""

    def __init__(self, display_path: str, source: str, tree: ast.Module) -> None:
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.imports = _import_map(tree)
        self.module_bindings = _module_bindings(tree)
        self.noqa = _noqa_map(self.lines)
        #: Cross-rule scratch space (e.g. the stage-function set computed
        #: once by the purity rules).
        self.shared: dict[str, object] = {}

    # -- name resolution -----------------------------------------------------

    def dotted_name(self, node: ast.expr) -> str | None:
        """Flatten a ``Name``/``Attribute`` chain to ``a.b.c`` (no imports)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve_imported(self, node: ast.expr) -> str | None:
        """Fully-qualified name of a call target, or None.

        Returns a dotted name only when the chain's root is an import
        alias in this file (``import numpy as np`` makes ``np.random.seed``
        resolve to ``numpy.random.seed``).  Locally-bound names resolve
        to None, so a variable that merely shadows a module name is
        never misattributed to it.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        target = self.imports.get(root)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def is_builtin(self, name: str) -> bool:
        """True when ``name`` still means the Python builtin here."""
        return name not in self.imports and name not in self.module_bindings

    # -- findings ------------------------------------------------------------

    def snippet(self, line: int) -> str:
        if 0 < line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: Rule, node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            path=self.display_path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            message=message,
            hint=rule.hint if hint is None else hint,
            snippet=self.snippet(line),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        suppressed = self.noqa.get(finding.line)
        if suppressed is None:
            return False
        return suppressed is _ALL_RULES or finding.rule in suppressed


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully-qualified import target, for the whole file."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else local
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level (defs, classes, assignments, imports)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound.add(name.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    return bound


def _noqa_map(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Line number -> suppressed rule ids (``_ALL_RULES`` for bare noqa)."""
    suppressions: dict[int, frozenset[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        listed = match.group("rules")
        if listed is None:
            suppressions[number] = _ALL_RULES
        else:
            suppressions[number] = frozenset(
                rule.strip() for rule in listed.split(",") if rule.strip()
            )
    return suppressions


# -- driving ----------------------------------------------------------------


def _parse_error(display_path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=display_path,
        line=exc.lineno or 1,
        col=(exc.offset or 1),
        rule=PARSE_ERROR,
        message=f"cannot parse file: {exc.msg}",
        hint="fix the syntax error; unparseable files are never lint-clean",
    )


def lint_source(
    source: str, display_path: str, rules: Sequence[Rule]
) -> list[Finding]:
    """Lint one already-read file; parse errors become E999 findings."""
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as exc:
        return [_parse_error(display_path, exc)]
    ctx = FileContext(display_path, source, tree)
    findings = [
        finding
        for rule in rules
        for finding in rule.check(ctx)
        if not ctx.is_suppressed(finding)
    ]
    return sorted(findings, key=lambda f: f.sort_key)


def iter_python_files(paths: Sequence[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories to a sorted, de-duplicated .py file list."""
    found: dict[pathlib.Path, None] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if any(part.startswith(".") or part == "__pycache__"
                       for part in child.parts):
                    continue
                found[child] = None
        elif path.is_file():
            found[path] = None
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(found)


def _display_path(path: pathlib.Path) -> str:
    """Repo-relative posix path when possible (stable across machines)."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint every .py file under ``paths`` with the chosen rules."""
    rules = select_rules(select, ignore)
    findings = [
        finding
        for path in iter_python_files(paths)
        for finding in lint_source(
            path.read_text(encoding="utf-8"), _display_path(path), rules
        )
    ]
    return sorted(findings, key=lambda f: f.sort_key)
