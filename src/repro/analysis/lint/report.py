"""Finding renderers: ruff-style text and JSON for the CI gate."""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

from repro.analysis.lint.engine import Finding


def render_text(findings: Sequence[Finding]) -> str:
    """``path:line:col: RULE message (hint: ...)`` per finding."""
    lines: list[str] = []
    for f in findings:
        hint = f" (hint: {f.hint})" if f.hint else ""
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}{hint}")
    lines.append(f"{len(findings)} finding{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report for the CI gate (stable key order)."""
    payload = {
        "findings": [dataclasses.asdict(f) for f in findings],
        "n_findings": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)

