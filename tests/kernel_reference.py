"""Reference implementations of the optimised text and corpus kernels.

:meth:`repro.nlp.features.HashingVectorizer.transform_hashes` builds its
CSR matrix in one pass over the batch;
:func:`repro.extraction.pii.extract_pii` skips the categories whose
triggers a text lacks, and the card and profile-URL patterns whose shape
or domain it lacks, and writes its digit-led and profile-URL patterns in
forms ``re`` scans faster; :meth:`repro.taxonomy.coding.ExpertCoder.code_text`
skips the subtypes whose signature triggers a text lacks;
:func:`repro.util.rng.integer` replicates the scalar draw of
``Generator.integers``, which :func:`repro.util.rng.pick` uses to draw a
sequence element by index where the corpus generator called
``Generator.choice``, and :func:`repro.util.rng.weighted` bisects the
CDF ``Generator.choice`` builds from ``p``;
:meth:`repro.nlp.models.logreg.LogisticRegressionClassifier.fit` runs
Adam on the columns its training rows touch.  The per-row build, the
ungated regex banks (the PII bank with its own copy of the 16 patterns
as first written, so a rewritten pattern is never its own reference),
``Generator.integers``, ``Generator.choice`` and the full-width Adam
loop live on here, outside the package, as the oracles the kernels
must match byte for byte.
``tests/test_kernel_equivalence.py`` checks them on the tiny corpora and
adversarial inputs; ``scripts/check_kernels.py`` checks them on the full
corpus.
"""

from __future__ import annotations

import contextlib
import re
import sys
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np
from scipy import sparse

from repro.corpus.perturb import PERTURBATIONS
from repro.extraction.pii import extract_pii, pii_categories_present
from repro.nlp.features import _MIX, HashingVectorizer
from repro.nlp.models.base import validate_training_inputs
from repro.nlp.models.logreg import LogisticRegressionClassifier, _sigmoid
from repro.taxonomy.attack_types import AttackSubtype
from repro.taxonomy.coding import _BANK, ExpertCoder
from repro.util.rng import Weights, child_rng, integer, pick, weighted

T = TypeVar("T")

# -- hashing vectorizer: one np.unique per row ------------------------------


def reference_feature_ids(
    vectorizer: HashingVectorizer, hashes: np.ndarray
) -> np.ndarray:
    """Map a token-hash array to hashed unigram (+bigram) feature ids."""
    mask = np.uint64(vectorizer.n_features - 1)
    ids = hashes & mask
    if vectorizer.use_bigrams and hashes.size >= 2:
        bigrams = ((hashes[:-1] * _MIX) ^ hashes[1:]) & mask
        ids = np.concatenate([ids, bigrams])
    return ids.astype(np.int64)


def reference_transform_hashes(
    vectorizer: HashingVectorizer, hash_arrays: Sequence[np.ndarray]
) -> sparse.csr_matrix:
    """Vectorize pre-hashed documents row by row into one CSR matrix."""
    indptr = [0]
    indices_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    for hashes in hash_arrays:
        if hashes.size == 0:
            indptr.append(indptr[-1])
            continue
        ids = reference_feature_ids(vectorizer, hashes)
        uniq, counts = np.unique(ids, return_counts=True)
        values = counts.astype(np.float64)
        norm = np.sqrt((values * values).sum())
        values /= norm
        indices_parts.append(uniq)
        data_parts.append(values)
        indptr.append(indptr[-1] + uniq.size)
    if indices_parts:
        indices = np.concatenate(indices_parts)
        data = np.concatenate(data_parts)
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    return sparse.csr_matrix(
        (data, indices, np.array(indptr, dtype=np.int64)),
        shape=(len(hash_arrays), vectorizer.n_features),
    )


def csr_differences(
    actual: sparse.csr_matrix, expected: sparse.csr_matrix
) -> list[str]:
    """How two CSR matrices differ in shape, dtypes or bytes ([] if not)."""
    problems = []
    if actual.shape != expected.shape:
        problems.append(f"shape {actual.shape} != {expected.shape}")
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        if got.dtype != want.dtype:
            problems.append(f"{name} dtype {got.dtype} != {want.dtype}")
        elif got.tobytes() != want.tobytes():
            problems.append(f"{name} bytes differ")
    return problems


# -- PII bank: every pattern on every text ----------------------------------

_STREET_TYPES = r"(?:St|Ave|Blvd|Dr|Ln|Rd|Ct|Way|Street|Avenue|Boulevard|Drive|Lane|Road|Court)"

#: The bank as first written, one ``(pattern, flags)`` list per category in
#: bank order: digit-led patterns that start with ``\b`` or a lookbehind,
#: and profile-URL patterns that start with an optional scheme and ``www.``.
#: The package's bank must extract exactly what these extract.
_REFERENCE_PATTERNS: dict[str, list[tuple[str, int]]] = {
    "address": [(
        rf"\b\d{{1,5}}\s+[A-Z][A-Za-z]+\s+{_STREET_TYPES}\b"
        rf"(?:\s*,\s*[A-Z][A-Za-z ]+,?\s+[A-Z]{{2}}\s+\d{{5}}(?:-\d{{4}})?)?",
        0,
    )],
    "credit_card": [
        (r"\b4\d{3}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b", 0),
        (r"\b5[1-5]\d{2}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b", 0),
        (r"\b3[47]\d{2}[ -]?\d{6}[ -]?\d{5}\b", 0),
        (r"\b6(?:011|5\d{2})[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b", 0),
    ],
    "email": [(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b", 0)],
    "facebook": [
        (r"(?:https?://)?(?:www\.)?facebook\.com/(?!(?:login|pages|groups|events"
         r"|marketplace|watch|help|privacy|settings|friends|photos|sharer|share)\b)"
         r"([A-Za-z0-9.]{5,50})", re.IGNORECASE),
        (r"\b(?:facebook|fb)\s*[:\-]\s*(?!https?://)@?([A-Za-z0-9.]{5,50})",
         re.IGNORECASE),
    ],
    "instagram": [
        (r"(?:https?://)?(?:www\.)?instagram\.com/(?!(?:explore|accounts|about"
         r"|developer|directory|legal)\b)([A-Za-z0-9_.]{2,30})", re.IGNORECASE),
        (r"\b(?:instagram|ig|insta)\s*[:\-]\s*(?!https?://)@?([A-Za-z0-9_.]{2,30})",
         re.IGNORECASE),
    ],
    "phone": [(r"(?<![\d-])\(?\d{3}\)?[ .-]?\d{3}[ .-]\d{4}(?![\d-])", 0)],
    "ssn": [(r"(?<![\d-])\d{3}-\d{2}-\d{4}(?![\d-])", 0)],
    "twitter": [
        (r"(?:https?://)?(?:www\.)?twitter\.com/(?!(?:home|search|explore|settings"
         r"|i|intent|hashtag|share)\b)([A-Za-z0-9_]{1,15})", re.IGNORECASE),
        (r"\b(?:twitter|twtr)\s*[:\-]\s*(?!https?://)@?([A-Za-z0-9_]{1,15})",
         re.IGNORECASE),
    ],
    "youtube": [
        (r"(?:https?://)?(?:www\.)?youtube\.com/(?:c/|channel/|user/|@)"
         r"([A-Za-z0-9_-]{2,60})", re.IGNORECASE),
        (r"\b(?:youtube|yt channel|yt)\s*[:\-]\s*(?!https?://)@?([A-Za-z0-9_-]{2,60})",
         re.IGNORECASE),
    ],
}

#: The reference bank, compiled: an oracle independent of the package's
#: patterns, so a rewritten pattern cannot be its own reference.
REFERENCE_PII_BANK: dict[str, tuple[re.Pattern[str], ...]] = {
    category: tuple(re.compile(pattern, flags) for pattern, flags in patterns)
    for category, patterns in _REFERENCE_PATTERNS.items()
}


def reference_extract_pii(text: str) -> dict[str, list[str]]:
    """All PII matches per category (deduplicated, order preserved)."""
    found: dict[str, list[str]] = {}
    for category, patterns in REFERENCE_PII_BANK.items():
        values = dict.fromkeys(
            match.group(1) if match.groups() else match.group(0)
            for pattern in patterns
            for match in pattern.finditer(text)
        )
        if values:
            found[category] = list(values)
    return found


def reference_pii_categories_present(text: str) -> frozenset[str]:
    """Which PII categories appear in ``text`` (presence only)."""
    return frozenset(
        category
        for category, patterns in REFERENCE_PII_BANK.items()
        if any(pattern.search(text) for pattern in patterns)
    )


def pii_mismatches(texts: Iterable[str]) -> list[str]:
    """The texts on which the gated bank and the reference disagree.

    Extractions compare as item lists, not dicts: dict equality ignores
    key order, and ``Extraction.pii`` keeps the category order.
    """
    mismatches = []
    for text in texts:
        expected = reference_extract_pii(text)
        if list(extract_pii(text).items()) != list(expected.items()) or (
            pii_categories_present(text) != frozenset(expected)
        ):
            mismatches.append(text)
    return mismatches


# -- taxonomy coder: every subtype's alternation on every text ---------------


def reference_code_text(text: str) -> tuple[AttackSubtype, ...]:
    """Taxonomy subtypes of ``text``, GENERIC only when nothing else matched."""
    matched = tuple(subtype for subtype, _, pattern in _BANK if pattern.search(text))
    if not matched:
        return (AttackSubtype.GENERIC,)
    if len(matched) > 1 and AttackSubtype.GENERIC in matched:
        matched = tuple(s for s in matched if s is not AttackSubtype.GENERIC)
    return matched


def taxonomy_mismatches(texts: Iterable[str]) -> list[str]:
    """The texts on which the gated coder and the reference disagree."""
    code = ExpertCoder().code_text
    return [text for text in texts if code(text) != reference_code_text(text)]


# -- logistic regression: Adam over every hashed column ----------------------


def reference_fit(
    model: LogisticRegressionClassifier,
    features: sparse.csr_matrix,
    labels: np.ndarray,
) -> LogisticRegressionClassifier:
    """Fit ``model`` with mini-batch Adam over all ``d`` columns."""
    labels = validate_training_inputs(features, labels)
    rng = child_rng(model.seed, "logreg-shuffle")
    n, d = features.shape
    y = labels.astype(np.float64)
    if model.balanced:
        pos_w = n / (2.0 * y.sum())
        neg_w = n / (2.0 * (n - y.sum()))
        sample_w = np.where(labels, pos_w, neg_w)
    else:
        sample_w = np.ones(n)

    w = np.zeros(d)
    b = 0.0
    m_w = np.zeros(d)
    v_w = np.zeros(d)
    m_b = v_b = 0.0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _epoch in range(model.epochs):
        order = rng.permutation(n)
        for start in range(0, n, model.batch_size):
            idx = order[start : start + model.batch_size]
            batch = features[idx]
            yb = y[idx]
            wb = sample_w[idx]
            z = batch @ w + b
            p = _sigmoid(z)
            residual = (p - yb) * wb / idx.size
            grad_w = batch.T @ residual + model.l2 * w
            grad_b = float(residual.sum())
            step += 1
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w * grad_w
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b * grad_b
            bias_corr1 = 1 - beta1 ** step
            bias_corr2 = 1 - beta2 ** step
            w -= model.lr * (m_w / bias_corr1) / (np.sqrt(v_w / bias_corr2) + eps)
            b -= model.lr * (m_b / bias_corr1) / (np.sqrt(v_b / bias_corr2) + eps)
    model.weights = w
    model.bias = b
    return model


def fit_differences(
    actual: LogisticRegressionClassifier, expected: LogisticRegressionClassifier
) -> list[str]:
    """How two fitted models differ in weight or bias bytes ([] if not)."""
    problems = []
    if actual.weights.tobytes() != expected.weights.tobytes():
        problems.append("weight bytes differ")
    if float(actual.bias).hex() != float(expected.bias).hex():
        problems.append(f"bias {float(actual.bias).hex()} != {float(expected.bias).hex()}")
    return problems


# -- corpus draws: Generator.integers and Generator.choice ---------------------


def reference_integer(rng: np.random.Generator, low: int, high: int) -> int:
    """One draw from ``[low, high)`` through ``Generator.integers``."""
    return int(rng.integers(low, high))


def reference_pick(rng: np.random.Generator, seq: Sequence[T]) -> T:
    """One uniform draw from ``seq`` through ``Generator.choice``."""
    return rng.choice(seq).item()


def reference_weighted(rng: np.random.Generator, weights: Weights[T]) -> T:
    """One weighted draw through ``Generator.choice`` with ``p``."""
    return weights.items[int(rng.choice(len(weights.items), p=weights.p))]


#: Each fast draw and the NumPy call it replaced.
REFERENCE_DRAWS = {
    "integer": (integer, reference_integer),
    "pick": (pick, reference_pick),
    "weighted": (weighted, reference_weighted),
}


@contextlib.contextmanager
def reference_draws() -> Iterator[list[str]]:
    """Rebind every imported ``integer``, ``pick`` and ``weighted`` in
    ``repro`` to its reference in :data:`REFERENCE_DRAWS`.

    Yields the rebound names as ``module.draw``; code run inside the
    block draws through ``Generator.integers`` and ``Generator.choice``
    wherever it called the fast draws.
    """
    bound = [
        (module, draw, fast)
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for draw, (fast, _reference) in REFERENCE_DRAWS.items()
        if getattr(module, draw, None) is fast
    ]
    for module, draw, _fast in bound:
        setattr(module, draw, REFERENCE_DRAWS[draw][1])
    try:
        yield [f"{module.__name__}.{draw}" for module, draw, _fast in bound]
    finally:
        for module, draw, fast in bound:
            setattr(module, draw, fast)


# -- adversarial inputs -------------------------------------------------------


def perturbed_variants(texts: Sequence[str], seed: int) -> dict[str, list[str]]:
    """``texts`` under every :mod:`repro.corpus.perturb` transform.

    Each transform draws from its own named stream, so one variant set
    does not depend on which transforms ran before it.
    """
    variants = {}
    for name, perturb in PERTURBATIONS.items():
        rng = child_rng(seed, "kernel-equivalence", name)
        variants[name] = [perturb(text, rng) for text in texts]
    return variants
