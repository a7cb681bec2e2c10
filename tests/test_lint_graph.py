"""The whole-repo shard-isolation gate.

The rule that guards state shared between worker threads is the per-file
``PUR003``; this gate runs it over ``src/repro`` against the committed
baseline.
"""

import pathlib

from repro.analysis.lint import Baseline, lint_paths

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_whole_repo_graph_packs_are_clean_beyond_justified_baseline():
    """Acceptance: `repro lint --select PUR003 src/repro` gate holds."""
    findings = lint_paths([REPO_ROOT / "src" / "repro"], select=["PUR003"])
    baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
    assert baseline.split(findings).new == ()
    # every baselined entry carries a real justification, not a TODO
    for entry in baseline.entries:
        assert entry.justification
        assert "TODO" not in entry.justification
    # and no source file sneaks a shared-state suppression past the gate
    for source in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        assert "noqa[PUR003" not in source.read_text(), source
