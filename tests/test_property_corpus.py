"""Cross-seed property tests for corpus generation invariants.

These are slower than unit tests (each example builds a miniature corpus),
so the corpus is kept very small and example counts low.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.types import Platform


def _mini_config(seed: int) -> CorpusConfig:
    return CorpusConfig(
        seed=seed,
        negative_scale=1.0 / 200_000.0,
        positive_scale=1.0 / 200.0,
        blog_scale=1.0 / 200.0,
        min_background=40,
        min_planted=4,
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_invariants_hold_across_seeds(seed):
    corpus = CorpusBuilder(_mini_config(seed)).build()
    # Every platform populated.
    counts = corpus.counts_by_platform()
    assert all(counts[p] > 0 for p in Platform)
    # Unique document ids.
    ids = [d.doc_id for d in corpus]
    assert len(set(ids)) == len(ids)
    # Oracle labels internally consistent.
    for doc in corpus:
        if doc.truth.cth_subtypes:
            assert doc.truth.is_cth
        if doc.truth.pii_planted:
            assert doc.truth.is_dox
        assert not (doc.truth.hard_negative and (doc.truth.is_dox or doc.truth.is_cth))
    # Board thread structure well-formed.
    for thread in corpus.threads:
        positions = [p.position for p in thread.posts]
        assert positions == list(range(len(positions)))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_generation_is_deterministic_per_seed(seed):
    a = CorpusBuilder(_mini_config(seed)).build()
    b = CorpusBuilder(_mini_config(seed)).build()
    assert len(a) == len(b)
    sample = np.random.default_rng(0).choice(len(a), size=25, replace=False)
    docs_a, docs_b = list(a), list(b)
    for i in sample:
        assert docs_a[int(i)].text == docs_b[int(i)].text
        assert docs_a[int(i)].truth == docs_b[int(i)].truth


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_task_exclusions_hold(seed):
    corpus = CorpusBuilder(_mini_config(seed)).build()
    for doc in corpus.by_platform(Platform.PASTES):
        assert not doc.truth.is_cth  # CTH task excludes pastes
