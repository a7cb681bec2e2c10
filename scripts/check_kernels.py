#!/usr/bin/env python3
"""Check the optimised kernels against their references on the full corpus.

``tests/test_kernel_equivalence.py`` holds the one-pass CSR build, the
gated PII bank (category triggers, card shape, URL domains; prefix-scanned
digit-led and profile-URL patterns, against the bank as first written), the
trigger-gated taxonomy coder, the corpus generator's ``integer``,
``pick`` and ``weighted`` draws and the logistic-regression fit (Adam
on the touched columns) to the implementations they replaced on the
tiny corpora.  Building the full-scale ``CorpusConfig()`` takes 12-19 s
(about 55 s with every draw on ``Generator.integers`` and
``Generator.choice``), the four full-corpus fits about a minute with
their features, and the whole check about nine minutes and
0.84 GB on a 2-vCPU host, so the full-profile check runs here instead,
with the same references (``tests/kernel_reference.py``):

    python scripts/check_kernels.py

The full corpus built with the fast draws and built with the NumPy
calls they replaced must write byte-identical JSONL.  Both tasks' filters,
fitted for ``FIT_EPOCHS`` epochs on the hashed features of every
non-blog document (one row each, stored as a study fit receives its
rows) at each of ``FIT_BITS``, must have the weight and bias bytes of
``reference_fit``.  Every distinct document text of the full corpus,
and every ``repro.corpus.perturb`` transform of each of them, must give
byte-identical CSR rows (at three vectorizer settings), identical
extractions and identical taxonomy codes.  Rows are vectorized in
batches of ``BATCH_ROWS`` so memory stays bounded.  Prints one line per
check and exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402

from repro.corpus import CorpusBuilder, CorpusConfig  # noqa: E402
from repro.corpus.io import write_jsonl  # noqa: E402
from repro.nlp.features import HashingVectorizer  # noqa: E402
from repro.nlp.models.logreg import LogisticRegressionClassifier  # noqa: E402
from repro.nlp.tokenize import hash_text  # noqa: E402
from repro.pipeline.vectorized import _compact  # noqa: E402
from repro.types import Platform, Task  # noqa: E402
from tests.kernel_reference import (  # noqa: E402
    REFERENCE_DRAWS,
    csr_differences,
    fit_differences,
    perturbed_variants,
    pii_mismatches,
    reference_draws,
    reference_fit,
    reference_transform_hashes,
    taxonomy_mismatches,
)

#: Seed of the full corpus and of its perturbed variants.
SEED = 7

#: Rows per vectorizer call; bounds the one-pass build's memory.
BATCH_ROWS = 20_000

#: The serving and study default, a small feature space (many collisions)
#: and unigrams only.
VECTORIZERS = (
    HashingVectorizer(),
    HashingVectorizer(n_bits=10),
    HashingVectorizer(use_bigrams=False),
)


#: Feature widths of the fit check: the study's, and one narrow enough
#: that the rows touch every column.
FIT_BITS = (18, 10)

#: Epochs of each fit-check filter.
FIT_EPOCHS = 2


def check_fits(texts: list[str], labels: dict[Task, np.ndarray]) -> bool:
    """Fit a filter per task on one row per text with ``fit`` and with
    ``reference_fit``, at each of ``FIT_BITS``; print a line per fit."""
    ok = True
    for n_bits in FIT_BITS:
        vectorizer = HashingVectorizer(n_bits=n_bits)
        # Stacked, the rows hold float32 data and int32 indices and indptr:
        # what a study fit receives from TaskView.rows_for_docs.
        features = sparse.vstack([
            _compact(vectorizer.transform_hashes(
                [hash_text(text) for text in texts[offset:offset + BATCH_ROWS]]
            ))
            for offset in range(0, len(texts), BATCH_ROWS)
        ], format="csr")
        touched = np.unique(features.indices).size
        for task, task_labels in labels.items():
            start = time.perf_counter()
            ours = LogisticRegressionClassifier(epochs=FIT_EPOCHS).fit(
                features, task_labels
            )
            fit_s = time.perf_counter() - start
            start = time.perf_counter()
            expected = reference_fit(
                LogisticRegressionClassifier(epochs=FIT_EPOCHS), features, task_labels
            )
            reference_s = time.perf_counter() - start
            problems = fit_differences(ours, expected)
            print(
                f"{'fit ' + task.value:<28} n_bits {n_bits:>2}  "
                f"{features.shape[0]:>7} rows  {touched:>6} of "
                f"{features.shape[1]:>6} columns touched  fit {fit_s:5.1f}s  "
                f"reference {reference_s:5.1f}s  "
                f"{'ok' if not problems else 'MISMATCH: ' + '; '.join(problems)}",
                flush=True,
            )
            ok = ok and not problems
        del features
    return ok


def check(name: str, texts: list[str]) -> bool:
    """Compare the kernels with their references on ``texts``; print a line."""
    start = time.perf_counter()
    pii_bad = pii_mismatches(texts)
    taxonomy_bad = taxonomy_mismatches(texts)
    csr_bad = []
    for offset in range(0, len(texts), BATCH_ROWS):
        arrays = [hash_text(text) for text in texts[offset:offset + BATCH_ROWS]]
        for vectorizer in VECTORIZERS:
            problems = csr_differences(
                vectorizer.transform_hashes(arrays),
                reference_transform_hashes(vectorizer, arrays),
            )
            if problems:
                csr_bad.append(
                    f"rows {offset}+ at n_bits={vectorizer.n_bits} "
                    f"bigrams={vectorizer.use_bigrams}: {'; '.join(problems)}"
                )
    print(
        f"{name:<16} {len(texts):>8} texts  pii mismatches {len(pii_bad):>3}  "
        f"taxonomy mismatches {len(taxonomy_bad):>3}  "
        f"csr mismatches {len(csr_bad):>3}  {time.perf_counter() - start:6.1f}s",
        flush=True,
    )
    for text in pii_bad[:5]:
        print(f"  pii: {text!r}")
    for text in taxonomy_bad[:5]:
        print(f"  taxonomy: {text!r}")
    for problem in csr_bad[:5]:
        print(f"  csr: {problem}")
    return not pii_bad and not taxonomy_bad and not csr_bad


def jsonl_digest(documents) -> str:
    """sha256 of the JSONL ``write_jsonl`` writes for ``documents``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "corpus.jsonl"
        write_jsonl(documents, path)
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def main() -> int:
    start = time.perf_counter()
    documents = CorpusBuilder(CorpusConfig(seed=SEED)).build()
    texts = list(dict.fromkeys(doc.text for doc in documents))
    print(
        f"full corpus seed {SEED}: {len(documents)} documents, "
        f"{len(texts)} distinct texts, built in {time.perf_counter() - start:.1f}s",
        flush=True,
    )
    digest = jsonl_digest(documents)
    non_blog = [doc for doc in documents if doc.platform is not Platform.BLOGS]
    fit_texts = [doc.text for doc in non_blog]
    fit_labels = {
        task: np.array([doc.truth_for(task) for doc in non_blog])
        for task in (Task.DOX, Task.CTH)
    }
    del documents, non_blog
    fits_ok = check_fits(fit_texts, fit_labels)
    del fit_texts

    start = time.perf_counter()
    with reference_draws() as rebound:
        reference = jsonl_digest(CorpusBuilder(CorpusConfig(seed=SEED)).build())
    draws = sorted({name.rsplit(".", 1)[1] for name in rebound})
    draws_ok = digest == reference and draws == sorted(REFERENCE_DRAWS)
    print(
        f"{'draws':<16} jsonl sha256 {digest[:16]} {'/'.join(draws)}, "
        f"{reference[:16]} Generator.integers/choice: "
        f"{'ok' if draws_ok else 'MISMATCH'}  "
        f"{time.perf_counter() - start:6.1f}s",
        flush=True,
    )

    inputs = {"original": texts, **perturbed_variants(texts, SEED)}

    ok = all([check(name, batch) for name, batch in inputs.items()])
    ok = ok and draws_ok and fits_ok
    print("kernel equivalence:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
