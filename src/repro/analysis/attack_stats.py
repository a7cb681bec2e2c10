"""Attack-type prevalence per platform (paper §6.2, Tables 5 and 11)."""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.analysis.stats import TestResult, benjamini_hochberg, chi_square_two_way
from repro.taxonomy.attack_types import (
    SUBTYPES_OF,
    AttackSubtype,
    AttackType,
)
from repro.taxonomy.coding import CodedDocument
from repro.types import Platform


@dataclasses.dataclass(frozen=True)
class AttackTypeTable:
    """Counts and shares of attack types per platform column."""

    sizes: Mapping[Platform, int]
    counts: Mapping[object, Mapping[Platform, int]]  # AttackType or AttackSubtype

    def share(self, attack: object, platform: Platform) -> float:
        size = self.sizes.get(platform, 0)
        if size == 0:
            return 0.0
        return self.counts[attack].get(platform, 0) / size


def attack_type_table(
    coded_by_platform: Mapping[Platform, Sequence[CodedDocument]]
) -> AttackTypeTable:
    """Parent attack-type prevalence (Table 5).

    Columns do not sum to 100 % because a call can carry several attack
    types — counts are per-parent document presence.
    """
    sizes = {p: len(docs) for p, docs in coded_by_platform.items()}
    counts: dict[AttackType, dict[Platform, int]] = {a: {} for a in AttackType}
    for platform, docs in coded_by_platform.items():
        for doc in docs:
            for parent in doc.parents:
                counts[parent][platform] = counts[parent].get(platform, 0) + 1
    return AttackTypeTable(sizes=sizes, counts=counts)


def subtype_table(
    coded_by_platform: Mapping[Platform, Sequence[CodedDocument]]
) -> AttackTypeTable:
    """Subcategory prevalence (Table 11)."""
    sizes = {p: len(docs) for p, docs in coded_by_platform.items()}
    counts: dict[AttackSubtype, dict[Platform, int]] = {s: {} for s in AttackSubtype}
    for platform, docs in coded_by_platform.items():
        for doc in docs:
            # dict.fromkeys: first-seen-order dedupe (set order is hash-salted)
            for subtype in dict.fromkeys(doc.subtypes):
                counts[subtype][platform] = counts[subtype].get(platform, 0) + 1
    return AttackTypeTable(sizes=sizes, counts=counts)


def reporting_subtype_tests(
    table: AttackTypeTable, error_rate: float = 0.1
) -> list[TestResult]:
    """Chi-square tests of reporting-subcategory differences across data
    sets, BH-corrected (paper §6.2).

    One test per reporting subcategory, comparing its count against the
    rest of the reporting counts across platform columns.
    """
    platforms = [p for p, n in table.sizes.items() if n > 0]
    if len(platforms) < 2:
        raise ValueError("need at least two platforms to compare")
    reporting_subtypes = list(SUBTYPES_OF[AttackType.REPORTING])
    totals = {
        p: sum(table.counts[s].get(p, 0) for s in reporting_subtypes) for p in platforms
    }
    results = []
    for subtype in reporting_subtypes:
        row = [table.counts[subtype].get(p, 0) for p in platforms]
        rest = [max(totals[p] - row[i], 0) for i, p in enumerate(platforms)]
        if sum(row) == 0 or sum(rest) == 0:
            continue
        if any(row[i] + rest[i] == 0 for i in range(len(platforms))):
            continue  # a platform with no reporting calls at all
        results.append(
            chi_square_two_way([row, rest], name=subtype.value)
        )
    return benjamini_hochberg(results, error_rate=error_rate)
