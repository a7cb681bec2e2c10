"""Internal-consistency checks of the transcribed paper constants.

These tests guard the transcription in :mod:`repro.paper` — every derived
total in the paper must match the sum of its parts as transcribed.
"""

import pytest

from repro import paper
from repro.taxonomy.attack_types import AttackSubtype, PARENT_OF
from repro.types import Gender, Platform, Source, Task


def test_table4_totals_match_rows():
    for task, rows in paper.TABLE4_THRESHOLDS.items():
        for key in ("above", "annotated", "true_positive"):
            total = sum(int(row[key]) for row in rows.values())
            assert total == paper.TABLE4_TOTALS[task][key], (task, key)


def test_table2_totals_match_rows():
    for task, rows in paper.TABLE2_TRAINING_DATA.items():
        pos = sum(p for p, _n in rows.values())
        neg = sum(n for _p, n in rows.values())
        assert (pos, neg) == paper.TABLE2_TOTALS[task]


def test_total_detected_posts():
    # 8,425 doxes + 6,254 CTH = 14,679 (abstract).
    dox = paper.TABLE4_TOTALS[Task.DOX]["true_positive"]
    cth = paper.TABLE4_TOTALS[Task.CTH]["true_positive"]
    assert dox + cth == paper.TOTAL_DETECTED_POSTS


def test_table5_sizes_match_table4():
    # Chat CTH size = Discord + Telegram true positives.
    chat = (
        paper.TABLE4_THRESHOLDS[Task.CTH][Source.DISCORD]["true_positive"]
        + paper.TABLE4_THRESHOLDS[Task.CTH][Source.TELEGRAM]["true_positive"]
    )
    assert chat == paper.TABLE5_SIZES[Platform.CHAT]
    assert (
        paper.TABLE4_THRESHOLDS[Task.CTH][Source.BOARDS]["true_positive"]
        == paper.TABLE5_SIZES[Platform.BOARDS]
    )


def test_table6_sizes_match_table4():
    chat = (
        paper.TABLE4_THRESHOLDS[Task.DOX][Source.DISCORD]["true_positive"]
        + paper.TABLE4_THRESHOLDS[Task.DOX][Source.TELEGRAM]["true_positive"]
    )
    assert chat == paper.TABLE6_SIZES[Platform.CHAT]
    assert (
        paper.TABLE4_THRESHOLDS[Task.DOX][Source.PASTES]["true_positive"]
        == paper.TABLE6_SIZES[Platform.PASTES]
    )


def test_table5_counts_consistent_with_shares():
    for attack, per_platform in paper.TABLE5_ATTACK_TYPES.items():
        for platform, (share, count) in per_platform.items():
            size = paper.TABLE5_SIZES[platform]
            if count:
                assert abs(count / size - share) < 0.002, (attack, platform)


def test_table11_covers_all_subtypes():
    assert set(paper.TABLE11_TAXONOMY) == set(AttackSubtype)


def test_table10_covers_all_subtypes_and_genders():
    assert set(paper.TABLE10_GENDER) == set(AttackSubtype)
    for row in paper.TABLE10_GENDER.values():
        assert set(row) == set(Gender)


def test_table11_parent_sums_approximate_table5():
    """Parent counts in Table 5 are at least as large as the max
    subcategory count and no larger than the subcategory sum."""
    for parent, per_platform in paper.TABLE5_ATTACK_TYPES.items():
        subtypes = [s for s, p in PARENT_OF.items() if p is parent]
        for platform, (_share, parent_count) in per_platform.items():
            sub_counts = [
                paper.TABLE11_TAXONOMY[s][platform][1] for s in subtypes
            ]
            assert parent_count <= sum(sub_counts) + 1, (parent, platform)
            assert parent_count >= max(sub_counts), (parent, platform)


def test_gender_counts_match_table10_sizes():
    assert paper.CTH_GENDER_COUNTS == {
        Gender.MALE: paper.TABLE10_SIZES[Gender.MALE],
        Gender.FEMALE: paper.TABLE10_SIZES[Gender.FEMALE],
        Gender.UNKNOWN: paper.TABLE10_SIZES[Gender.UNKNOWN],
    }
    assert sum(paper.TABLE10_SIZES.values()) == paper.TABLE4_TOTALS[Task.CTH]["true_positive"]


def test_cooccurrence_counts_sum():
    s = paper.COOCCURRENCE_STATS
    assert s["two_types"] + s["three_types"] + s["four_plus_types"] == s["multi_type_count"]


def test_overlap_stats_consistent():
    s = paper.THREAD_OVERLAP_STATS
    assert s["cth_with_dox"] / s["cth_above_threshold"] == pytest.approx(
        s["cth_with_dox_share"], abs=0.001
    )


def test_repeated_dox_stats_consistent():
    s = paper.REPEATED_DOX_STATS
    assert s["repeated_count"] / s["above_threshold_total"] == pytest.approx(
        s["repeated_share"], abs=0.01
    )
    parts = s["pastes_count"] + s["boards_count"] + s["chat_count"] + s["gab_count"]
    assert parts == s["repeated_count"]


def test_blog_shares_consistent():
    for blog, row in paper.TABLE8_BLOGS.items():
        assert row["actual_doxes"] / row["relevant"] == pytest.approx(
            row["actual_share"], abs=0.01
        ), blog


def test_scaled_helper():
    assert paper.scaled(0) == 0
    assert paper.scaled(100) == 1  # floor at 1 for positive counts
    assert paper.scaled(1_000_000) == 1_000
