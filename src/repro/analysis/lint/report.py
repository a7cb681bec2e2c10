"""Finding renderers: ruff-style text and JSON for the CI gate."""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

from repro.analysis.lint.baseline import BaselineEntry
from repro.analysis.lint.engine import Finding


def render_text(
    findings: Sequence[Finding],
    stale: Sequence[BaselineEntry] = (),
    n_baselined: int = 0,
) -> str:
    """``path:line:col: RULE message (hint: ...)`` per finding."""
    lines: list[str] = []
    for f in findings:
        hint = f" (hint: {f.hint})" if f.hint else ""
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}{hint}")
    for entry in stale:
        lines.append(
            f"stale baseline entry: {entry.path} {entry.rule} "
            f"{entry.snippet!r} — fixed in source; run --update-baseline "
            "to expire it"
        )
    summary = f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    if n_baselined:
        summary += f" ({n_baselined} baselined)"
    if stale:
        summary += f", {len(stale)} stale baseline entr{'ies' if len(stale) != 1 else 'y'}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    stale: Sequence[BaselineEntry] = (),
    n_baselined: int = 0,
) -> str:
    """Machine-readable report for the CI gate (stable key order)."""
    payload = {
        "findings": [dataclasses.asdict(f) for f in findings],
        "stale_baseline": [dataclasses.asdict(e) for e in stale],
        "n_findings": len(findings),
        "n_baselined": n_baselined,
    }
    return json.dumps(payload, indent=2, sort_keys=True)

