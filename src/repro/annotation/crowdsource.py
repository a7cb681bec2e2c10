"""The paper's crowdsourcing protocol (§5.3), simulated end to end.

Protocol, exactly as described:

* annotators qualify by scoring >= 90 % on 10 gold questions;
* every document is annotated by two annotators;
* disagreements go to a third annotator who breaks the tie;
* annotators are re-tested every tenth document and removed (replaced)
  when their running gold score falls below 85 %;
* agreement statistics (disagreement rate, Cohen's kappa over the first
  two annotations) are recorded per batch.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.annotation.annotator import AnnotatorProfile, SimulatedAnnotator
from repro.nlp.metrics import cohens_kappa

QUALIFICATION_QUESTIONS = 10
QUALIFICATION_PASS = 0.90
RETEST_EVERY = 10
REMOVAL_SCORE = 0.85


@dataclasses.dataclass(frozen=True)
class CrowdsourceResult:
    """Labels and process statistics for one annotation batch."""

    labels: np.ndarray  # final (tie-broken) labels
    first: np.ndarray  # first annotator's labels
    second: np.ndarray  # second annotator's labels
    n_tiebreaks: int
    n_removed_annotators: int  # removals during this batch only
    n_qualification_failures: int  # failed recruitments during this batch only

    @property
    def disagreement_rate(self) -> float:
        if self.first.size == 0:
            return 0.0
        return float(np.mean(self.first != self.second))

    @property
    def kappa(self) -> float:
        return cohens_kappa(self.first, self.second)


class CrowdsourcingService:
    """A pool of simulated crowdworkers implementing the §5.3 protocol."""

    def __init__(self, profile: AnnotatorProfile, seed: int) -> None:
        self._profile = profile
        self._seed = seed
        self._next_id = 0
        self._qualification_failures = 0
        self._removed = 0
        self._pool: list[_Worker] = []

    @property
    def n_removed_annotators(self) -> int:
        """Annotators removed over this service's lifetime (all batches)."""
        return self._removed

    @property
    def n_qualification_failures(self) -> int:
        """Failed qualification attempts over this service's lifetime."""
        return self._qualification_failures

    def _recruit(self) -> "_Worker":
        """Recruit workers until one passes the qualification test."""
        while True:
            annotator = SimulatedAnnotator(self._next_id, self._profile, self._seed)
            self._next_id += 1
            if annotator.score_on_gold(QUALIFICATION_QUESTIONS) >= QUALIFICATION_PASS:
                return _Worker(annotator)
            self._qualification_failures += 1

    def _worker(self, index: int) -> "_Worker":
        while len(self._pool) <= index:
            self._pool.append(self._recruit())
        return self._pool[index]

    def _replace(self, index: int) -> None:
        self._removed += 1
        self._pool[index] = self._recruit()

    def annotate_batch(self, truths: Sequence[bool]) -> CrowdsourceResult:
        """Run the full two-annotator + tiebreak protocol over a batch."""
        truths = np.asarray(truths, dtype=bool)
        n = truths.size
        first = np.empty(n, dtype=bool)
        second = np.empty(n, dtype=bool)
        final = np.empty(n, dtype=bool)
        tiebreaks = 0
        removed_before = self._removed
        failures_before = self._qualification_failures
        for i, truth in enumerate(truths):
            a = self._worker(0)
            b = self._worker(1)
            first[i] = a.annotate_and_track(bool(truth))
            second[i] = b.annotate_and_track(bool(truth))
            if first[i] != second[i]:
                tiebreaks += 1
                final[i] = self._worker(2).annotate_and_track(bool(truth))
            else:
                final[i] = first[i]
            # Re-testing every tenth document (per worker slot).
            for slot in range(min(len(self._pool), 3)):
                worker = self._pool[slot]
                if worker.documents_done and worker.documents_done % RETEST_EVERY == 0:
                    if worker.annotator.score_on_gold(QUALIFICATION_QUESTIONS) < REMOVAL_SCORE:
                        self._replace(slot)
        return CrowdsourceResult(
            labels=final,
            first=first,
            second=second,
            n_tiebreaks=tiebreaks,
            n_removed_annotators=self._removed - removed_before,
            n_qualification_failures=self._qualification_failures - failures_before,
        )


class _Worker:
    """Pool bookkeeping around one annotator."""

    __slots__ = ("annotator", "documents_done")

    def __init__(self, annotator: SimulatedAnnotator) -> None:
        self.annotator = annotator
        self.documents_done = 0

    def annotate_and_track(self, truth: bool) -> bool:
        self.documents_done += 1
        return self.annotator.annotate(truth)
