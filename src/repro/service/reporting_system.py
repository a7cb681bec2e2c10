"""Platform reporting-system substrate and mass-flagging abuse detection.

The paper's headline finding is that **reporting systems themselves are
weaponised**: over half of all calls to harassment incite reporting
attacks, with mass flagging the largest subcategory.  §9.2 recommends
platforms "investigate their reporting systems to understand if they are
being abused".  This module provides both sides of that investigation:

* :class:`ReportingSystem` — a simulated platform report queue receiving
  individual account reports (organic and coordinated);
* :class:`MassFlaggingDetector` — a burst detector that separates organic
  reporting from coordinated mass-flagging campaigns using report-rate
  bursts and reporter-account properties.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
from typing import Iterable, Sequence

import numpy as np

from repro.util.rng import child_rng, pick


@dataclasses.dataclass(frozen=True, slots=True)
class AccountReport:
    """One report filed against a target account."""

    report_id: int
    target: str
    reporter: str
    timestamp: float
    reason: str
    #: Ground truth for evaluation: part of a coordinated campaign?
    coordinated: bool = False


class ReportVerdict(enum.Enum):
    ORGANIC = "organic"
    COORDINATED = "coordinated"


@dataclasses.dataclass(frozen=True)
class TargetAssessment:
    """Detector output for one target account."""

    target: str
    n_reports: int
    verdict: ReportVerdict
    burst_score: float
    reporter_overlap_score: float


REPORT_REASONS = ("spam", "harassment", "impersonation", "hate", "other")


class ReportingSystem:
    """Simulates a platform's report queue.

    * Organic reports arrive as a Poisson background over many targets
      from mostly-unique reporters.
    * Coordinated campaigns (the attacks the paper measures) hit a single
      target with a burst of reports in a short window, filed by a
      clique of reporter accounts that also appear in each other's
      campaigns.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = child_rng(seed, "reporting-system")
        self._reports: list[AccountReport] = []
        self._next_id = 0
        #: The recurring clique of abusive reporter accounts.
        self._clique = [f"flagger{i}" for i in range(40)]

    @property
    def reports(self) -> Sequence[AccountReport]:
        return self._reports

    def _emit(self, target: str, reporter: str, ts: float, coordinated: bool) -> None:
        self._reports.append(
            AccountReport(
                report_id=self._next_id,
                target=target,
                reporter=reporter,
                timestamp=ts,
                reason=pick(self._rng, REPORT_REASONS),
                coordinated=coordinated,
            )
        )
        self._next_id += 1

    def add_organic_reports(
        self, n_targets: int, duration: float, rate_per_target: float = 3.0
    ) -> None:
        """Background reports: a thin Poisson trickle per target."""
        rng = self._rng
        for t in range(n_targets):
            target = f"account{t}"
            n = int(rng.poisson(rate_per_target))
            for _ in range(n):
                self._emit(
                    target,
                    f"user{int(rng.integers(0, 10_000_000))}",
                    float(rng.uniform(0, duration)),
                    coordinated=False,
                )

    def add_campaign(
        self,
        target: str,
        start: float,
        n_reports: int = 40,
        window: float = 6 * 3600.0,
        clique_share: float = 0.6,
    ) -> None:
        """A coordinated mass-flagging campaign against one target."""
        rng = self._rng
        for _ in range(n_reports):
            if rng.random() < clique_share:
                reporter = pick(rng, self._clique)
            else:
                reporter = f"user{int(rng.integers(0, 10_000_000))}"
            self._emit(
                target,
                reporter,
                float(start + rng.uniform(0, window)),
                coordinated=True,
            )


class MassFlaggingDetector:
    """Separates coordinated mass flagging from organic reports.

    Signals (both cheap enough to run on a real queue):

    * **burst score** — the maximum number of reports against the target
      inside any sliding window, normalised by the target's total;
    * **reporter overlap** — how concentrated the reporter set is across
      *other* flagged targets (campaign cliques re-use accounts).
    """

    def __init__(
        self,
        burst_window: float = 24 * 3600.0,
        burst_threshold: int = 10,
        overlap_threshold: float = 0.25,
    ) -> None:
        if burst_threshold < 2:
            raise ValueError("burst_threshold must be at least 2")
        self.burst_window = burst_window
        self.burst_threshold = burst_threshold
        self.overlap_threshold = overlap_threshold

    def _burst(self, timestamps: np.ndarray) -> int:
        """Max reports inside any ``burst_window`` (two-pointer sweep)."""
        stamps = np.sort(timestamps)
        best = 1
        left = 0
        for right in range(stamps.size):
            while stamps[right] - stamps[left] > self.burst_window:
                left += 1
            best = max(best, right - left + 1)
        return best

    def assess(self, reports: Iterable[AccountReport]) -> list[TargetAssessment]:
        """Assess every target appearing in the report stream."""
        by_target: dict[str, list[AccountReport]] = collections.defaultdict(list)
        reporter_targets: dict[str, set[str]] = collections.defaultdict(set)
        for report in reports:
            by_target[report.target].append(report)
            reporter_targets[report.reporter].add(report.target)

        assessments = []
        for target, target_reports in by_target.items():
            stamps = np.array([r.timestamp for r in target_reports])
            burst = self._burst(stamps)
            reporters = [r.reporter for r in target_reports]
            # Overlap: share of this target's reports filed by accounts
            # that also reported other targets (clique behaviour; organic
            # reporters very rarely file against multiple flagged targets).
            busy = sum(1 for r in reporters if len(reporter_targets[r]) >= 2)
            overlap = busy / len(reporters)
            is_coordinated = (
                burst >= self.burst_threshold and overlap >= self.overlap_threshold
            )
            assessments.append(
                TargetAssessment(
                    target=target,
                    n_reports=len(target_reports),
                    verdict=(
                        ReportVerdict.COORDINATED if is_coordinated
                        else ReportVerdict.ORGANIC
                    ),
                    burst_score=burst / len(target_reports),
                    reporter_overlap_score=overlap,
                )
            )
        return assessments


def evaluate_detector(
    system: ReportingSystem, detector: MassFlaggingDetector
) -> dict[str, float]:
    """Precision/recall of the detector against the simulation's truth."""
    truth_by_target: dict[str, bool] = {}
    for report in system.reports:
        truth_by_target[report.target] = (
            truth_by_target.get(report.target, False) or report.coordinated
        )
    assessments = {a.target: a for a in detector.assess(system.reports)}
    tp = fp = fn = 0
    for target, coordinated in truth_by_target.items():
        flagged = assessments[target].verdict is ReportVerdict.COORDINATED
        if flagged and coordinated:
            tp += 1
        elif flagged:
            fp += 1
        elif coordinated:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return {"precision": precision, "recall": recall, "tp": tp, "fp": fp, "fn": fn}
