"""Fixture-based tests: one positive and one negative file per rule."""

import pathlib

import pytest

from repro.analysis.lint import all_rules, lint_paths

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

#: rule id -> (positive fixture, expected finding count, negative fixture)
CASES = {
    "DET001": ("det001_bad.py", 6, "det001_good.py"),
    "DET002": ("det002_bad.py", 4, "det002_good.py"),
    "DET003": ("det003_bad.py", 5, "det003_good.py"),
    "PUR001": ("pur001_bad.py", 3, "pur001_good.py"),
    "PUR002": ("pur002_bad.py", 2, "pur002_good.py"),
    "PUR003": ("pur003_bad.py", 15, "pur003_good.py"),
}


def test_every_registered_rule_has_fixtures():
    from repro.analysis.lint.rules import RULES

    # Sorted lists, not sets: two rules sharing an id would fail here.
    assert sorted(rule.id for rule in RULES) == sorted(CASES)
    assert set(all_rules()) == set(CASES)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_positive_fixture_flags(rule_id):
    fixture, expected, _ = CASES[rule_id]
    findings = lint_paths([FIXTURES / fixture], select=[rule_id])
    assert len(findings) == expected
    assert {f.rule for f in findings} == {rule_id}
    for finding in findings:
        assert finding.line > 0 and finding.col > 0
        assert finding.hint  # every finding carries a fix hint
        assert finding.snippet in pathlib.Path(FIXTURES / fixture).read_text()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_negative_fixture_clean(rule_id):
    _, _, fixture = CASES[rule_id]
    assert lint_paths([FIXTURES / fixture], select=[rule_id]) == []


def test_all_rules_on_all_fixtures_stay_within_their_lane():
    """Running the full pack over the negative fixtures finds nothing."""
    negatives = [FIXTURES / case[2] for case in CASES.values()]
    assert lint_paths(negatives) == []


def test_noqa_suppression():
    findings = lint_paths([FIXTURES / "noqa_suppression.py"])
    # Targeted noqa[DET001] and bare noqa suppress; the mismatched
    # noqa[DET002] on a DET001 violation does not.
    assert len(findings) == 1
    assert findings[0].rule == "DET001"
    assert "wrong id" in findings[0].snippet


def test_findings_are_sorted_and_stable():
    paths = [FIXTURES / case[0] for case in CASES.values()]
    first = lint_paths(paths)
    second = lint_paths(list(reversed(paths)))
    assert first == second
    assert [f.sort_key for f in first] == sorted(f.sort_key for f in first)


def test_repo_source_is_lint_clean():
    """Acceptance: `repro lint src/` holds at zero un-baselined findings."""
    from repro.analysis.lint import Baseline

    repo_root = pathlib.Path(__file__).parent.parent
    findings = lint_paths([repo_root / "src"])
    split = Baseline.load(repo_root / ".repro-lint-baseline.json").split(findings)
    assert split.new == ()
