"""Result containers for pipeline runs (the Fig.-1 funnel accounting)."""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.corpus.documents import Document
from repro.types import Source, Task


@dataclasses.dataclass(frozen=True)
class SourceOutcome:
    """Per-source outcome of threshold selection + expert annotation
    (one row of the paper's Table 4)."""

    source: Source
    threshold: float
    n_above: int
    n_annotated: int
    n_true_positive: int
    fully_annotated: bool
    #: Positions (into the pipeline's document list) of docs above threshold.
    above_positions: np.ndarray
    #: Positions of expert-annotated docs confirmed as true positives.
    true_positive_positions: np.ndarray

    @property
    def precision(self) -> float:
        return self.n_true_positive / self.n_annotated if self.n_annotated else 0.0


@dataclasses.dataclass(frozen=True)
class AnnotationProcessStats:
    """Crowdsourcing process statistics across all rounds (paper §5.3)."""

    n_documents: int
    disagreement_rate: float
    kappa: float
    n_tiebreaks: int
    n_removed_annotators: int
    n_qualification_failures: int


@dataclasses.dataclass(frozen=True)
class PipelineResult:
    """Everything one task's pipeline produced.

    Positions index the vectorized corpus the pipeline ran on.  The
    ``result:<task>`` stage stores no documents (``documents=()``), so
    the cached artifact does not pickle the corpus again; the caller
    that ran the stage attaches them with :meth:`bind`.
    """

    task: Task
    documents: Sequence[Document]
    outcomes: Mapping[Source, SourceOutcome]
    #: Table-3-shaped evaluation report of the final classifier.
    eval_report: Mapping[str, Mapping[str, float]]
    eval_auc: float
    #: Total annotated (positive, negative) training pairs per source
    #: (Table 2), measured on crowdsourced labels.
    training_data_sizes: Mapping[Source, tuple[int, int]]
    annotation_stats: AnnotationProcessStats
    #: Document scores for the entire document list (final model).
    scores: np.ndarray
    #: Text length (max tokens per span) used by the final model.
    max_tokens: int

    def bind(self, documents: Sequence[Document]) -> "PipelineResult":
        """A copy with ``documents`` attached, one per score."""
        if len(documents) != len(self.scores):
            raise ValueError(
                f"{len(documents)} documents for {len(self.scores)} scores"
            )
        return dataclasses.replace(self, documents=documents)

    @property
    def n_above_total(self) -> int:
        return sum(o.n_above for o in self.outcomes.values())

    @property
    def n_annotated_total(self) -> int:
        return sum(o.n_annotated for o in self.outcomes.values())

    @property
    def n_true_positive_total(self) -> int:
        return sum(o.n_true_positive for o in self.outcomes.values())

    def true_positive_documents(self, source: Source | None = None) -> list[Document]:
        """Expert-confirmed true positives, optionally for one source."""
        docs: list[Document] = []
        for outcome_source, outcome in self.outcomes.items():
            if source is not None and outcome_source is not source:
                continue
            docs.extend(self.documents[p] for p in outcome.true_positive_positions)
        return docs

    def above_threshold_documents(self, source: Source | None = None) -> list[Document]:
        docs: list[Document] = []
        for outcome_source, outcome in self.outcomes.items():
            if source is not None and outcome_source is not source:
                continue
            docs.extend(self.documents[p] for p in outcome.above_positions)
        return docs

    def funnel(self) -> dict[str, int]:
        """Fig.-1 stage counts for this task's pipeline."""
        return {
            "raw_documents": len(self.documents),
            "annotations": self.annotation_stats.n_documents,
            "above_threshold": self.n_above_total,
            "sampled": self.n_annotated_total,
            "true_positive": self.n_true_positive_total,
        }
