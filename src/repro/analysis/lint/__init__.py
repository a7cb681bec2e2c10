"""Static analysis of the reproduction's determinism contract.

The staged engine promises byte-identical study results across cache
on/off and ``jobs=1`` vs ``jobs=N``, and the serving runtime promises
shard output identical to a single monitor — promises that rest on code
conventions (named RNG streams, artifact-store-only I/O, no wall clock
in keyed paths, no writes to state that threads share) that this
package makes checkable on every diff:

- :mod:`engine` parses each file once and runs every rule over the
  shared AST, honouring ``# repro: noqa[RULE]`` suppressions;
- :mod:`rules` holds the rule pack (``DET001``–``DET003`` determinism,
  ``PUR001``–``PUR003`` stage purity and shared state), all per-file;
- :mod:`report` renders findings ruff-style or as JSON.

Run it via ``repro lint [paths]`` or ``make lint-repro``.
"""

from repro.analysis.lint.engine import (
    FileContext,
    Finding,
    LintUsageError,
    Rule,
    all_rules,
    lint_paths,
)
from repro.analysis.lint.report import render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "LintUsageError",
    "Rule",
    "all_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
