"""PII and target-gender extraction (paper §5.6)."""

from repro.extraction.pii import (
    PII_EXTRACTORS,
    extract_pii,
    pii_categories_present,
    evaluate_extractors,
)
from repro.extraction.gender import infer_gender, evaluate_gender_inference

__all__ = [
    "PII_EXTRACTORS",
    "extract_pii",
    "pii_categories_present",
    "evaluate_extractors",
    "infer_gender",
    "evaluate_gender_inference",
]
