"""Focused tests for the ASCII figure renderers."""

from repro.reporting.figures import render_box_summary, render_cdf_plot


def test_cdf_plot_dimensions():
    out = render_cdf_plot({"s": [1, 2, 3]}, width=30, height=8)
    lines = out.splitlines()
    plot_rows = [l for l in lines if l.startswith("        |") or l.startswith("    0.0 |")]
    assert len(plot_rows) == 8
    assert all(len(row) <= 9 + 30 for row in plot_rows)


def test_cdf_plot_marks_present_for_each_series():
    out = render_cdf_plot({"a": [1, 10, 100], "b": [5, 50]}, width=40, height=10)
    body = "\n".join(l for l in out.splitlines() if "|" in l)
    assert "o" in body and "x" in body
    assert "o = a" in out and "x = b" in out


def test_cdf_plot_monotone_marks():
    """Mark rows must be non-increasing (CDF grows left to right)."""
    out = render_cdf_plot({"s": list(range(1, 200))}, width=50, height=12)
    rows = [l[9:] for l in out.splitlines() if l.startswith(("        |", "    0.0 |"))]
    last_row_for_col = {}
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == "o":
                last_row_for_col[c] = r
    cols = sorted(last_row_for_col)
    values = [last_row_for_col[c] for c in cols]
    # Row index decreases (moves up) as the column increases.
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_cdf_plot_linear_axis():
    out = render_cdf_plot({"s": [1, 2, 3]}, log_x=False)
    assert "size ->" in out


def test_box_summary_quartiles():
    values = list(range(1, 101))
    out = render_box_summary({"t": values})
    line = [l for l in out.splitlines() if l.startswith("t")][0]
    fields = line.split()
    assert fields[1] == "100"  # n
    assert fields[3] == "50"  # median (np.percentile of 1..100)


def test_box_summary_empty_series_dash():
    out = render_box_summary({"empty": []})
    assert "-" in out
