"""Sensitivity of the paper's conclusions to threshold choice.

The annotated analysis sets depend on the §5.5 thresholds; a natural
robustness question is whether the headline findings (reporting dominates,
content leakage second, overloading concentrated off-boards) hold across
the plausible threshold range.  This module re-derives the Table-5 shares
at alternative thresholds using the pipeline's scores and the expert
oracle, and reports how stable each conclusion is.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.attack_stats import attack_type_table
from repro.pipeline.results import PipelineResult
from repro.taxonomy.attack_types import AttackType
from repro.taxonomy.coding import ExpertCoder
from repro.types import Platform
from repro.util.rng import make_rng


@dataclasses.dataclass(frozen=True)
class ThresholdSensitivity:
    """Table-5-style shares re-derived at several thresholds."""

    thresholds: tuple[float, ...]
    #: threshold -> platform -> attack type -> share
    shares: Mapping[float, Mapping[Platform, Mapping[AttackType, float]]]
    #: threshold -> platform -> set size
    sizes: Mapping[float, Mapping[Platform, int]]

    def dominant_attack(self, threshold: float, platform: Platform) -> AttackType:
        platform_shares = self.shares[threshold][platform]
        return max(platform_shares, key=platform_shares.get)

    def conclusion_stable(self, conclusion, min_size: int = 30) -> bool:
        """Does ``conclusion(shares_at_t)`` hold at every threshold?

        ``conclusion`` receives the per-platform share mapping for one
        threshold and returns a bool.  Platforms whose set at a threshold
        has fewer than ``min_size`` documents are excluded — a three-post
        column cannot overturn a conclusion.
        """
        for threshold in self.thresholds:
            filtered = {
                platform: platform_shares
                for platform, platform_shares in self.shares[threshold].items()
                if self.sizes[threshold].get(platform, 0) >= min_size
            }
            if filtered and not conclusion(filtered):
                return False
        return True


def threshold_sensitivity(
    result: PipelineResult,
    thresholds: Sequence[float] = (0.5, 0.7, 0.9),
    coder: ExpertCoder | None = None,
    max_per_platform: int = 4_000,
    seed: int = 0,
) -> ThresholdSensitivity:
    """Re-derive attack-type shares at each threshold.

    Documents scoring above each threshold are taxonomy-coded (text only);
    false positives naturally dilute the low-threshold columns, which is
    part of what the analysis measures.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    coder = coder or ExpertCoder()
    rng = make_rng(seed)
    docs = result.documents
    scores = result.scores
    shares: dict[float, dict[Platform, dict[AttackType, float]]] = {}
    sizes: dict[float, dict[Platform, int]] = {}
    eligible_sources = set(result.outcomes)
    for threshold in thresholds:
        above = [
            i for i in np.flatnonzero(scores > threshold)
            if docs[int(i)].source in eligible_sources
        ]
        by_platform: dict[Platform, list] = {}
        for i in above:
            doc = docs[int(i)]
            by_platform.setdefault(doc.platform, []).append(doc)
        coded_by_platform = {}
        for platform, platform_docs in by_platform.items():
            if len(platform_docs) > max_per_platform:
                picks = rng.choice(len(platform_docs), max_per_platform, replace=False)
                platform_docs = [platform_docs[int(p)] for p in picks]
            coded_by_platform[platform] = [coder.code(d) for d in platform_docs]
        table = attack_type_table(coded_by_platform)
        shares[threshold] = {
            platform: {attack: table.share(attack, platform) for attack in AttackType}
            for platform in coded_by_platform
        }
        sizes[threshold] = dict(table.sizes)
    return ThresholdSensitivity(
        thresholds=tuple(thresholds), shares=shares, sizes=sizes
    )


def reporting_dominates(shares_at_t: Mapping[Platform, Mapping[AttackType, float]]) -> bool:
    """Per-platform version of the paper's headline conclusion."""
    for platform, platform_shares in shares_at_t.items():
        if not platform_shares:
            continue
        if max(platform_shares, key=platform_shares.get) is not AttackType.REPORTING:
            return False
    return True


def pooled_dominant_attack(sensitivity: ThresholdSensitivity, threshold: float) -> AttackType:
    """Size-weighted dominant attack type across platforms at one threshold."""
    pooled: dict[AttackType, float] = {attack: 0.0 for attack in AttackType}
    total = 0
    for platform, platform_shares in sensitivity.shares[threshold].items():
        n = sensitivity.sizes[threshold].get(platform, 0)
        total += n
        for attack, share in platform_shares.items():
            pooled[attack] += share * n
    if total == 0:
        raise ValueError(f"no documents above threshold {threshold}")
    return max(pooled, key=pooled.get)
