"""Smoke tests: the fast examples run end to end as scripts.

Only the quick examples run here (the transformer example trains for
~1 minute and is exercised by its own unit-level tests instead).
"""

import runpy
import sys


EXAMPLES = "examples"


def _run(path, argv=None, capsys=None):
    old_argv = sys.argv
    sys.argv = [path] + (argv or [])
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_quickstart(capsys):
    out = _run(f"{EXAMPLES}/quickstart.py", capsys=capsys)
    assert "Table 5" in out
    assert "calls to" in out


def test_moderation_service(capsys):
    out = _run(f"{EXAMPLES}/moderation_service.py", capsys=capsys)
    assert "REVIEW" in out
    assert "Mass Flagging" in out


def test_threat_intel_report(capsys):
    out = _run(f"{EXAMPLES}/threat_intel_report.py", capsys=capsys)
    assert "THREAT INTELLIGENCE REPORT" in out
    assert "Repeat targeting" in out
