"""Renderers that print each paper table next to the measured values.

Every renderer returns a string; the benchmark harness prints it and
EXPERIMENTS.md records it.  "paper*" columns show the published values —
count-valued ones are additionally shown scaled by the reproduction's
scaling convention (DESIGN.md §4) where that aids comparison.
"""

from __future__ import annotations

import datetime as dt
from typing import Mapping

from repro import paper
from repro.analysis.attack_stats import AttackTypeTable
from repro.analysis.blogs import BlogOutcome
from repro.analysis.gender_stats import GenderSubtypeTable
from repro.analysis.pii_stats import PiiTable
from repro.corpus.documents import Corpus
from repro.pipeline.results import PipelineResult
from repro.taxonomy.attack_types import AttackSubtype, AttackType
from repro.taxonomy.harm_risk import HARM_RISK_PII, HarmRisk
from repro.types import Gender, Platform, Task
from repro.util.tables import format_percent_count, format_table


def _date(ts: float) -> str:
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).strftime("%Y-%m-%d")


def render_table1(corpus: Corpus) -> str:
    """Table 1: raw data sets (measured vs paper, paper counts scaled)."""
    rows = []
    for platform, row in paper.TABLE1_RAW_DATASETS.items():
        docs = corpus.by_platform(platform)
        measured = len(docs)
        if docs:
            lo, hi = corpus.date_range(platform)
            dates = f"{_date(lo)}..{_date(hi)}"
        else:
            dates = "-"
        rows.append(
            (
                platform.value,
                measured,
                int(row["posts"]),
                f"{row['min_date']}..{row['max_date']}",
                dates,
            )
        )
    return format_table(
        ["Data set", "measured posts", "paper posts", "paper dates", "measured dates"],
        rows,
        title="Table 1 — raw data sets",
    )


def render_table2(results: Mapping[Task, PipelineResult]) -> str:
    """Table 2: crowdsourced training-set sizes per task and platform."""
    rows = []
    for task, result in results.items():
        merged: dict[Platform, list[int]] = {}
        for source, (pos, neg) in result.training_data_sizes.items():
            platform = source.platform
            merged.setdefault(platform, [0, 0])
            merged[platform][0] += pos
            merged[platform][1] += neg
        for platform, (pos, neg) in sorted(merged.items(), key=lambda kv: kv[0].value):
            paper_row = paper.TABLE2_TRAINING_DATA[task].get(platform)
            rows.append(
                (
                    task.value,
                    platform.value,
                    pos,
                    neg,
                    paper_row[0] if paper_row else "-",
                    paper_row[1] if paper_row else "-",
                )
            )
    return format_table(
        ["Task", "Platform", "pos", "neg", "paper pos", "paper neg"],
        rows,
        title="Table 2 — annotated training data per task",
    )


def render_table3(results: Mapping[Task, PipelineResult]) -> str:
    """Table 3: final classifier performance per task."""
    rows = []
    for task, result in results.items():
        expected = paper.TABLE3_CLASSIFIER_PERF[task]
        for label, paper_key in (
            ("positive", "positive"),
            ("negative", "negative"),
            ("weighted_avg", "weighted_avg"),
            ("macro_avg", "macro_avg"),
        ):
            measured = result.eval_report[label]
            expect = expected[paper_key]
            rows.append(
                (
                    task.value,
                    label,
                    f"{measured['f1']:.2f}",
                    f"{measured['precision']:.2f}",
                    f"{measured['recall']:.2f}",
                    f"{expect['f1']:.2f}",
                    f"{expect['precision']:.2f}",
                    f"{expect['recall']:.2f}",
                )
            )
        rows.append((task.value, "auc-roc", f"{result.eval_auc:.3f}", "-", "-", "-", "-", "-"))
    return format_table(
        ["Task", "Label", "F1", "P", "R", "paper F1", "paper P", "paper R"],
        rows,
        title="Table 3 — classifier performance (hyperparameter-optimised)",
    )


def render_table4(results: Mapping[Task, PipelineResult]) -> str:
    """Table 4: thresholds, above-threshold counts, annotations, TPs."""
    rows = []
    for task, result in results.items():
        for source, outcome in result.outcomes.items():
            paper_row = paper.TABLE4_THRESHOLDS[task].get(source, {})
            rows.append(
                (
                    task.value,
                    source.value + ("*" if outcome.fully_annotated else ""),
                    f"{outcome.threshold:.3f}",
                    outcome.n_above,
                    outcome.n_annotated,
                    outcome.n_true_positive,
                    f"{paper_row.get('threshold', float('nan')):.3f}",
                    paper.scaled(paper_row.get("above", 0), paper.SCALE * 500),
                    paper.scaled(paper_row.get("true_positive", 0), paper.SCALE * 500),
                )
            )
        rows.append(
            (
                task.value,
                "total",
                "-",
                result.n_above_total,
                result.n_annotated_total,
                result.n_true_positive_total,
                "-",
                paper.scaled(paper.TABLE4_TOTALS[task]["above"], paper.SCALE * 500),
                paper.scaled(paper.TABLE4_TOTALS[task]["true_positive"], paper.SCALE * 500),
            )
        )
    return format_table(
        [
            "Task", "Source", "t", "above", "annotated", "TP",
            "paper t", "paper above (scaled)", "paper TP (scaled)",
        ],
        rows,
        title="Table 4 — threshold evaluation (* = fully annotated)",
    )


def render_figure1(results: Mapping[Task, PipelineResult]) -> str:
    """Figure 1: the pipeline funnel per task."""
    rows = []
    for task, result in results.items():
        funnel = result.funnel()
        expected = paper.FIGURE1_FUNNEL[task]
        for stage in ("annotations", "above_threshold", "sampled", "true_positive"):
            rows.append(
                (
                    task.value,
                    stage,
                    funnel[stage if stage != "sampled" else "sampled"],
                    paper.scaled(expected[stage], paper.SCALE * 500),
                )
            )
        rows.append((task.value, "raw_documents", funnel["raw_documents"], "-"))
    return format_table(
        ["Task", "Stage", "measured", "paper (scaled)"],
        rows,
        title="Figure 1 — pipeline funnel counts",
    )


_TABLE5_ORDER = [
    AttackType.CONTENT_LEAKAGE,
    AttackType.GENERIC,
    AttackType.IMPERSONATION,
    AttackType.LOCKOUT_AND_CONTROL,
    AttackType.OVERLOADING,
    AttackType.PUBLIC_OPINION_MANIPULATION,
    AttackType.REPORTING,
    AttackType.REPUTATIONAL_HARM,
    AttackType.SURVEILLANCE,
    AttackType.TOXIC_CONTENT,
]

_ANALYSIS_PLATFORMS = (Platform.BOARDS, Platform.CHAT, Platform.GAB)


def render_table5(table: AttackTypeTable) -> str:
    """Table 5: parent attack types per platform (measured | paper)."""
    rows = []
    for attack in _TABLE5_ORDER:
        cells = [attack.value]
        for platform in _ANALYSIS_PLATFORMS:
            count = table.counts[attack].get(platform, 0)
            cells.append(format_percent_count(count, table.sizes.get(platform, 0)))
            share, paper_count = paper.TABLE5_ATTACK_TYPES[attack][platform]
            cells.append(f"{share * 100:.1f}% ({paper_count})")
        rows.append(cells)
    size_row = ["(size)"]
    for platform in _ANALYSIS_PLATFORMS:
        size_row.append(str(table.sizes.get(platform, 0)))
        size_row.append(str(paper.TABLE5_SIZES[platform]))
    return format_table(
        [
            "Attack type",
            "boards", "paper boards",
            "chat", "paper chat",
            "gab", "paper gab",
        ],
        [size_row] + rows,
        title="Table 5 — parent attack types per data set",
    )


def render_table6(table: PiiTable) -> str:
    """Table 6: PII in doxes per platform (measured | paper share)."""
    platforms = (Platform.BOARDS, Platform.CHAT, Platform.GAB, Platform.PASTES)
    rows = []
    for category in sorted(paper.TABLE6_PII):
        cells = [category]
        for platform in platforms:
            count = table.counts[category].get(platform, 0)
            cells.append(format_percent_count(count, table.sizes.get(platform, 0)))
            share, _count = paper.TABLE6_PII[category][platform]
            cells.append(f"{share * 100:.1f}%")
        rows.append(cells)
    headers = ["PII"]
    for platform in platforms:
        headers.extend([platform.value, "paper"])
    return format_table(headers, rows, title="Table 6 — PII included in doxes")


def render_table7() -> str:
    """Table 7: the harm-risk taxonomy mapping (static definition)."""
    rows = []
    for risk in HarmRisk:
        triggers = ", ".join(HARM_RISK_PII[risk]) or "family names / employer (manual)"
        rows.append((risk.value, triggers))
    return format_table(
        ["Harm risk", "PII triggers"],
        rows,
        title="Table 7 — harm-risk taxonomy",
    )


def render_table8(outcomes: Mapping[str, BlogOutcome]) -> str:
    """Table 8: blog analysis funnel (measured vs paper, blogs at 1/10)."""
    rows = []
    for blog, row in paper.TABLE8_BLOGS.items():
        outcome = outcomes.get(blog)
        rows.append(
            (
                blog,
                outcome.n_posts if outcome else 0,
                outcome.n_relevant if outcome else 0,
                outcome.n_actual_doxes if outcome else 0,
                f"{outcome.actual_share * 100:.1f}%" if outcome else "-",
                int(row["posts"]),
                int(row["relevant"]),
                int(row["actual_doxes"]),
                f"{row['actual_share'] * 100:.1f}%",
            )
        )
    return format_table(
        [
            "Blog", "posts", "relevant", "doxes", "share",
            "paper posts", "paper relevant", "paper doxes", "paper share",
        ],
        rows,
        title="Table 8 — blog analysis overview",
    )


def render_table9(outcomes: Mapping[str, BlogOutcome]) -> str:
    """Table 9: blog attack taxonomy, with the measurable §8.3 numbers."""
    stormer = outcomes.get("daily_stormer")
    lines = [
        "Table 9 — taxonomy of attacks in blogs",
        "",
        "The Torch / NoBlogs (far left):",
        "  - doxing with narration of the target's activities plus PII",
        "  - physical-location facts; photos from rallies and protests",
        "  - public reputational harm (flyers, alerting neighbours/landlords)",
        "  - private reputational harm (alerting employers)",
        "",
        "Daily Stormer (far right):",
        "  - doxing co-occurring with calls to overload (raiding/spamming)",
        "  - contact channel only: twitter handle or email",
        "  - hate speech via meme campaigns and hashtag hijacking",
    ]
    if stormer is not None:
        lines += [
            "",
            f"measured: {stormer.overload_share * 100:.0f}% of Daily Stormer doxes "
            f"include an overload call (paper: 60%)",
        ]
    return "\n".join(lines)


def render_table10(table: GenderSubtypeTable) -> str:
    """Table 10: subtype prevalence per inferred gender (measured | paper)."""
    genders = (Gender.UNKNOWN, Gender.FEMALE, Gender.MALE)
    rows = []
    for subtype in AttackSubtype:
        cells = [subtype.value]
        for gender in genders:
            count = table.counts[subtype].get(gender, 0)
            cells.append(format_percent_count(count, table.sizes.get(gender, 0)))
            share, _count = paper.TABLE10_GENDER[subtype][gender]
            cells.append(f"{share * 100:.1f}%")
        rows.append(cells)
    size_row = ["(size)"]
    for gender in genders:
        size_row.append(str(table.sizes.get(gender, 0)))
        size_row.append(str(paper.TABLE10_SIZES[gender]))
    headers = ["Attack type"]
    for gender in genders:
        headers.extend([gender.value, "paper"])
    return format_table(
        headers, [size_row] + rows, title="Table 10 — taxonomy per target gender"
    )


def render_table11(table: AttackTypeTable) -> str:
    """Table 11: full subcategory taxonomy per platform (measured | paper)."""
    rows = []
    for subtype in AttackSubtype:
        cells = [subtype.value]
        for platform in _ANALYSIS_PLATFORMS:
            count = table.counts[subtype].get(platform, 0)
            cells.append(format_percent_count(count, table.sizes.get(platform, 0)))
            share, _count = paper.TABLE11_TAXONOMY[subtype][platform]
            cells.append(f"{share * 100:.1f}%")
        rows.append(cells)
    headers = ["Attack subtype"]
    for platform in _ANALYSIS_PLATFORMS:
        headers.extend([platform.value, "paper"])
    return format_table(headers, rows, title="Table 11 — full taxonomy per data set")
