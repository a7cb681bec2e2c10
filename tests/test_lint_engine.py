"""Lint engine mechanics: selection, parsing, report, CLI gate."""

import json
import pathlib

import pytest

from repro.analysis.lint import (
    LintUsageError,
    lint_paths,
    render_json,
    render_text,
)
from repro.analysis.lint.engine import lint_source, select_rules
from repro.cli import main


# -- rule selection ----------------------------------------------------------

def test_select_and_ignore_filter_rules():
    assert [r.id for r in select_rules()] == [
        "DET001", "DET002", "DET003",
        "PUR001", "PUR002", "PUR003",
    ]
    assert [r.id for r in select_rules(select=["DET002"])] == ["DET002"]
    assert [r.id for r in select_rules(ignore=["DET001", "PUR002"])] == [
        "DET002", "DET003", "PUR001", "PUR003",
    ]


def test_select_expands_family_prefixes():
    assert [r.id for r in select_rules(select=["DET001", "PUR"])] == [
        "DET001", "PUR001", "PUR002", "PUR003",
    ]
    assert [r.id for r in select_rules(select=["DET"], ignore=["DET00"])] == []
    with pytest.raises(LintUsageError, match="ZZZ"):
        select_rules(select=["ZZZ"])


def test_unknown_rule_id_is_a_usage_error():
    with pytest.raises(LintUsageError, match="DET999"):
        select_rules(select=["DET999"])
    with pytest.raises(LintUsageError):
        select_rules(ignore=["NOPE"])


def test_missing_path_is_a_usage_error():
    with pytest.raises(LintUsageError, match="no such file"):
        lint_paths(["does/not/exist"])


# -- parsing and resolution --------------------------------------------------

def test_syntax_error_becomes_e999_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = lint_paths([bad])
    assert len(findings) == 1
    assert findings[0].rule == "E999"


def test_import_alias_resolution():
    source = (
        "import numpy.random as npr\n"
        "import time as clock\n"
        "npr.seed(1)\n"
        "clock.time()\n"
    )
    rules = {f.rule for f in lint_source(source, "aliased.py", select_rules())}
    assert rules == {"DET001", "DET002"}


def test_shadowed_builtins_do_not_fire():
    source = (
        "def scope(hash, set):\n"
        "    hash = lambda value: 1\n"
        "    return hash('x')\n"
        "hash = str\n"
        "hash('y')\n"
    )
    assert lint_source(source, "shadowed.py", select_rules()) == []


# -- report rendering --------------------------------------------------------

@pytest.fixture
def seeded_findings(tmp_path):
    victim = tmp_path / "seeded.py"
    victim.write_text("import random\nrandom.seed(1)\nrandom.random()\n")
    return lint_paths([victim])


def test_render_text_is_ruff_style(seeded_findings):
    findings = seeded_findings
    text = render_text(findings)
    first = text.splitlines()[0]
    assert first.endswith("(hint: " + findings[0].hint + ")")
    path, line, col, rest = first.split(":", 3)
    assert int(line) == findings[0].line and int(col) == findings[0].col
    assert "DET001" in rest
    assert text.splitlines()[-1] == "2 findings"


def test_render_json_round_trips(seeded_findings):
    payload = json.loads(render_json(seeded_findings))
    assert payload["n_findings"] == 2
    assert payload["findings"][0]["rule"] == "DET001"


# -- CLI gate ----------------------------------------------------------------

def test_cli_clean_paths_exit_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_seeded_det001_violation_fails_the_gate(tmp_path, capsys):
    """The scratch-branch check: introduce a DET001 call, CI goes red."""
    victim = tmp_path / "scratch.py"
    victim.write_text("import numpy as np\nnp.random.seed(0)\n")
    code = main(["lint", str(victim), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_findings"] == 1
    assert payload["findings"][0]["rule"] == "DET001"


def test_cli_select_ignore_and_bad_rule(tmp_path, capsys):
    victim = tmp_path / "mixed.py"
    victim.write_text("import random, time\nrandom.random()\ntime.time()\n")
    assert main(["lint", str(victim), "--select", "det002"]) == 1
    assert "DET002" in capsys.readouterr().out
    assert main(["lint", str(victim), "--ignore", "DET001,DET002"]) == 0
    capsys.readouterr()
    assert main(["lint", str(victim), "--select", "BOGUS"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_gate_on_repo_matches_make_target(capsys):
    """`repro lint src` (the make/CI invocation) exits 0 on this repo."""
    repo_root = pathlib.Path(__file__).parent.parent
    assert main(["lint", str(repo_root / "src")]) == 0
    capsys.readouterr()
