"""Smoke and content tests for the report renderers."""

import pytest

from repro.analysis.attack_stats import attack_type_table, subtype_table
from repro.analysis.blogs import blog_analysis
from repro.analysis.gender_stats import gender_subtype_table
from repro.analysis.harm_risk_stats import harm_risk_overlap
from repro.analysis.pii_stats import pii_prevalence_table
from repro.reporting import figures, tables


def test_table1(tiny_study):
    out = tables.render_table1(tiny_study.corpus)
    assert "boards" in out and "405,943,342" in out


def test_table2(tiny_study):
    out = tables.render_table2(tiny_study.results)
    assert "doxing" in out and "call_to_harassment" in out


def test_table3(tiny_study):
    out = tables.render_table3(tiny_study.results)
    assert "weighted_avg" in out and "0.76" in out  # paper dox F1


def test_table4(tiny_study):
    out = tables.render_table4(tiny_study.results)
    assert "pastes" in out and "total" in out


def test_figure1(tiny_study):
    out = tables.render_figure1(tiny_study.results)
    assert "above_threshold" in out


def test_table5(tiny_study):
    out = tables.render_table5(attack_type_table(tiny_study.coded_cth_by_platform))
    assert "Reporting" in out and "56.3%" in out


def test_table6(tiny_study):
    out = tables.render_table6(pii_prevalence_table(tiny_study.annotated_doxes_by_platform))
    assert "address" in out and "45.7%" in out


def test_table7():
    out = tables.render_table7()
    assert "physical" in out and "manual" in out


def test_table8_and_9(tiny_study):
    outcomes = blog_analysis(list(tiny_study.corpus))
    out8 = tables.render_table8(outcomes)
    assert "daily_stormer" in out8 and "36,851" in out8
    out9 = tables.render_table9(outcomes)
    assert "Daily Stormer" in out9 and "overload" in out9


def test_table10(tiny_study):
    out = tables.render_table10(gender_subtype_table(tiny_study.coded_cth))
    assert "female" in out and "(size)" in out


def test_table11(tiny_study):
    out = tables.render_table11(subtype_table(tiny_study.coded_cth_by_platform))
    assert "Mass Flagging" in out


def test_figure2(tiny_study):
    overlap = harm_risk_overlap(tiny_study.annotated_doxes)
    out = figures.render_figure2(overlap)
    assert "all four risks" in out and "paper 73%" in out


def test_cdf_plot():
    out = figures.render_cdf_plot(
        {"cth": [1, 5, 10, 100, 400], "baseline": [1, 2, 3, 4, 5]},
        title="Figure 5",
    )
    assert "Figure 5" in out
    assert "o = cth" in out
    assert "x = baseline" in out


def test_cdf_plot_empty_raises():
    with pytest.raises(ValueError):
        figures.render_cdf_plot({})


def test_box_summary():
    out = figures.render_box_summary({"Reporting": [1.0, 2.0, 3.0], "Empty": []})
    assert "Reporting" in out and "median" in out
