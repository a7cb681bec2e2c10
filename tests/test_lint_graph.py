"""The whole-repo shard-isolation gate.

The rule that guards state shared between worker threads is the per-file
``PUR003``; this gate runs it over ``src/repro`` and expects no finding.
"""

import pathlib

from repro.analysis.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_whole_repo_graph_packs_are_clean_beyond_justified_baseline():
    """Acceptance: `repro lint --select PUR003 src/repro` gate holds."""
    assert lint_paths([REPO_ROOT / "src" / "repro"], select=["PUR003"]) == []
    # and no source file sneaks a shared-state suppression past the gate
    for source in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        assert "noqa[PUR003" not in source.read_text(), source
