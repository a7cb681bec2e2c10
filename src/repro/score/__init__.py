"""Shared scoring core consumed by both the batch and streaming runtimes."""

from repro.score.core import (
    OSN_PLATFORMS,
    Extraction,
    ScoredBatch,
    ScoreWork,
    ScoringCore,
    extract_targets,
)

__all__ = [
    "OSN_PLATFORMS",
    "Extraction",
    "ScoredBatch",
    "ScoreWork",
    "ScoringCore",
    "extract_targets",
]
