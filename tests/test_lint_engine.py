"""Lint engine mechanics: selection, parsing, baseline, report, CLI gate."""

import json
import pathlib

import pytest

from repro.analysis.lint import (
    Baseline,
    BaselineEntry,
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
        "CONC001", "CONC002", "CONC003",
        "DET001", "DET002", "DET003",
        "PUR001", "PUR002",
    ]
    assert [r.id for r in select_rules(select=["DET002"])] == ["DET002"]
    assert [r.id for r in select_rules(ignore=["DET001", "PUR002"])] == [
        "CONC001", "CONC002", "CONC003", "DET002", "DET003", "PUR001",
    ]


def test_select_expands_family_prefixes():
    assert [r.id for r in select_rules(select=["CONC", "PUR"])] == [
        "CONC001", "CONC002", "CONC003", "PUR001", "PUR002",
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


# -- baseline add / expire ---------------------------------------------------

@pytest.fixture
def seeded_findings(tmp_path):
    victim = tmp_path / "seeded.py"
    victim.write_text("import random\nrandom.seed(1)\nrandom.random()\n")
    return victim, lint_paths([victim])


def test_baseline_add_suppresses_known_findings(seeded_findings, tmp_path):
    _, findings = seeded_findings
    assert len(findings) == 2
    baseline_path = tmp_path / "baseline.json"
    Baseline().updated(findings).save(baseline_path)
    reloaded = Baseline.load(baseline_path)
    split = reloaded.split(findings)
    assert split.new == ()
    assert len(split.baselined) == 2
    assert split.stale == ()
    # Every serialized entry carries a justification slot to fill in.
    payload = json.loads(baseline_path.read_text())
    assert all("justification" in entry for entry in payload["entries"])


def test_baseline_survives_line_drift(seeded_findings):
    victim, findings = seeded_findings
    baseline = Baseline().updated(findings)
    victim.write_text(
        "import random\n\n# pushed two lines down\n\n"
        "random.seed(1)\nrandom.random()\n"
    )
    drifted = lint_paths([victim])
    assert [f.line for f in drifted] != [f.line for f in findings]
    assert baseline.split(drifted).new == ()


def test_baseline_expires_fixed_findings(seeded_findings):
    victim, findings = seeded_findings
    baseline = Baseline().updated(findings)
    victim.write_text(
        "from repro.util.rng import make_rng\nrng = make_rng(1)\nrng.random()\n"
    )
    fixed = lint_paths([victim])
    assert fixed == []
    split = baseline.split(fixed)
    assert len(split.stale) == 2  # both entries now point at fixed code
    assert baseline.updated(fixed).entries == ()  # update drops them


def test_baseline_update_preserves_human_justifications(seeded_findings):
    _, findings = seeded_findings
    entries = Baseline().updated(findings).entries
    justified = Baseline(entries=tuple(
        BaselineEntry(e.path, e.rule, e.snippet, "legacy seed corpus")
        for e in entries
    ))
    again = justified.updated(findings)
    assert {e.justification for e in again.entries} == {"legacy seed corpus"}


def test_new_finding_not_in_baseline_is_reported(seeded_findings):
    victim, findings = seeded_findings
    baseline = Baseline().updated(findings)
    victim.write_text(
        victim.read_text() + "import time\ntime.time()\n"
    )
    split = baseline.split(lint_paths([victim]))
    assert [f.rule for f in split.new] == ["DET002"]
    assert len(split.baselined) == 2


# -- report rendering --------------------------------------------------------

def test_render_text_is_ruff_style(seeded_findings):
    _, findings = seeded_findings
    text = render_text(findings, n_baselined=1)
    first = text.splitlines()[0]
    assert first.endswith("(hint: " + findings[0].hint + ")")
    path, line, col, rest = first.split(":", 3)
    assert int(line) == findings[0].line and int(col) == findings[0].col
    assert "DET001" in rest
    assert "2 findings (1 baselined)" in text


def test_render_json_round_trips(seeded_findings):
    _, findings = seeded_findings
    payload = json.loads(render_json(findings))
    assert payload["n_findings"] == 2
    assert payload["findings"][0]["rule"] == "DET001"
    assert payload["stale_baseline"] == []


# -- CLI gate ----------------------------------------------------------------

def test_cli_clean_paths_exit_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main([
        "lint", str(clean), "--baseline", str(tmp_path / "absent.json"),
    ]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_seeded_det001_violation_fails_the_gate(tmp_path, capsys):
    """The scratch-branch check: introduce a DET001 call, CI goes red."""
    victim = tmp_path / "scratch.py"
    victim.write_text("import numpy as np\nnp.random.seed(0)\n")
    code = main([
        "lint", str(victim), "--format", "json",
        "--baseline", str(tmp_path / "absent.json"),
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_findings"] == 1
    assert payload["findings"][0]["rule"] == "DET001"


def test_cli_update_baseline_then_green(tmp_path, capsys):
    victim = tmp_path / "legacy.py"
    victim.write_text("import random\nrandom.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(victim), "--baseline", str(baseline)]) == 1
    capsys.readouterr()
    assert main([
        "lint", str(victim), "--baseline", str(baseline), "--update-baseline",
    ]) == 0
    capsys.readouterr()
    assert main(["lint", str(victim), "--baseline", str(baseline)]) == 0
    assert "(1 baselined)" in capsys.readouterr().out


def test_cli_select_ignore_and_bad_rule(tmp_path, capsys):
    victim = tmp_path / "mixed.py"
    victim.write_text("import random, time\nrandom.random()\ntime.time()\n")
    baseline = str(tmp_path / "absent.json")
    assert main([
        "lint", str(victim), "--select", "det002", "--baseline", baseline,
    ]) == 1
    assert "DET002" in capsys.readouterr().out
    assert main([
        "lint", str(victim), "--ignore", "DET001,DET002", "--baseline", baseline,
    ]) == 0
    capsys.readouterr()
    assert main([
        "lint", str(victim), "--select", "BOGUS", "--baseline", baseline,
    ]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_stats_reports_a_single_graph_build(tmp_path, capsys):
    """--stats proves every graph rule shared one call-graph build."""
    victim = tmp_path / "plain.py"
    victim.write_text("def f():\n    return 1\n")
    assert main([
        "lint", str(victim), "--select", "CONC", "--stats",
        "--baseline", str(tmp_path / "absent.json"),
    ]) == 0
    err = capsys.readouterr().err
    assert "call graph: built 1x" in err
    capsys.readouterr()
    # With only per-file rules selected the graph is never constructed.
    assert main([
        "lint", str(victim), "--select", "DET", "--stats",
        "--baseline", str(tmp_path / "absent.json"),
    ]) == 0
    assert "call graph: not built" in capsys.readouterr().err


def test_cli_format_sarif_is_valid_and_parseable(tmp_path, capsys):
    victim = tmp_path / "scratch.py"
    victim.write_text("import numpy as np\nnp.random.seed(0)\n")
    code = main([
        "lint", str(victim), "--format", "sarif",
        "--baseline", str(tmp_path / "absent.json"),
    ])
    assert code == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [r["ruleId"] for r in run["results"]] == ["DET001"]
    location = run["results"][0]["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 2
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["DET001"]
    capsys.readouterr()
    # --stats goes to stderr, so sarif stdout stays machine-parseable.
    code = main([
        "lint", str(victim), "--format", "sarif", "--stats",
        "--baseline", str(tmp_path / "absent.json"),
    ])
    out, err = capsys.readouterr()
    assert code == 1
    json.loads(out)
    assert err.startswith("lint:")


def test_cli_gate_on_repo_matches_make_target(capsys):
    """`repro lint src` (the make/CI invocation) exits 0 on this repo."""
    repo_root = pathlib.Path(__file__).parent.parent
    assert main([
        "lint", str(repo_root / "src"),
        "--baseline", str(repo_root / ".repro-lint-baseline.json"),
    ]) == 0
    capsys.readouterr()
