"""Evasion robustness of the filter classifiers (paper §3 risk analysis).

For each perturbation operator, the harness re-scores a set of true
positives after perturbation and reports the recall retained at the
deployment threshold — quantifying how much an adversary gains from each
cheap evasion, and where defenders should invest (e.g. normalisation).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.corpus.documents import Document
from repro.corpus.perturb import PERTURBATIONS
from repro.nlp.features import HashingVectorizer
from repro.util.rng import child_rng


@dataclasses.dataclass(frozen=True)
class RobustnessReport:
    """Recall under each perturbation, at a fixed decision threshold."""

    threshold: float
    n_documents: int
    clean_recall: float
    recall_by_perturbation: Mapping[str, float]

    def degradation(self, name: str) -> float:
        """Absolute recall lost to one perturbation."""
        return self.clean_recall - self.recall_by_perturbation[name]

    @property
    def worst_perturbation(self) -> str:
        return min(self.recall_by_perturbation, key=self.recall_by_perturbation.get)


def evasion_robustness(
    model,
    vectorizer: HashingVectorizer,
    positives: Sequence[Document],
    threshold: float = 0.5,
    seed: int = 0,
    max_documents: int = 1_000,
) -> RobustnessReport:
    """Score true positives clean and perturbed; report recall retained.

    ``model`` is any fitted classifier with ``predict_proba`` over the
    vectorizer's features (the pipeline's filter model family).
    """
    if not positives:
        raise ValueError("need at least one positive document")
    rng = child_rng(seed, "robustness")
    docs = list(positives)
    if len(docs) > max_documents:
        picks = rng.choice(len(docs), size=max_documents, replace=False)
        docs = [docs[int(i)] for i in picks]
    texts = [d.text for d in docs]
    clean_scores = model.predict_proba(vectorizer.transform_texts(texts))
    clean_recall = float((clean_scores > threshold).mean())
    recall_by_perturbation = {}
    for name, operator in PERTURBATIONS.items():
        perturbed = [operator(t, rng) for t in texts]
        scores = model.predict_proba(vectorizer.transform_texts(perturbed))
        recall_by_perturbation[name] = float((scores > threshold).mean())
    return RobustnessReport(
        threshold=threshold,
        n_documents=len(docs),
        clean_recall=clean_recall,
        recall_by_perturbation=recall_by_perturbation,
    )
