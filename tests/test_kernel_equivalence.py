"""The one-pass CSR build and the gated PII bank against their references.

Both kernels must reproduce the implementations they replaced byte for
byte (``tests/kernel_reference.py``): CSR shape, ``indptr``, ``indices``,
``data`` and dtypes; extractions with their category order.  Inputs are
the tiny corpora at four seeds under every :mod:`repro.corpus.perturb`
transform, hypothesis text built from the gate's triggers and the
Unicode case-fold hazards, and the edge batches of the one-pass build.
A structural test reads off each parsed pattern that its matches hold
its category's trigger, so the gate cannot fall behind the bank.
``scripts/check_kernels.py`` runs the same checks on the full corpus.
"""

import numpy as np
import pytest

try:
    from re import _parser  # the parser behind re.compile (Python 3.11+)
except ImportError:  # Python 3.10
    import sre_parse as _parser
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusBuilder, CorpusConfig
from repro.extraction.pii import (
    PII_EXTRACTORS,
    PII_TRIGGERS,
    _open_categories,
    extract_pii,
    pii_categories_present,
)
from repro.nlp.features import HashingVectorizer
from repro.nlp.tokenize import hash_text
from tests.kernel_reference import (
    csr_differences,
    perturbed_variants,
    pii_mismatches,
    reference_extract_pii,
    reference_pii_categories_present,
    reference_transform_hashes,
)

SEEDS = (3, 4, 7, 8)


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def corpus_variants(request):
    """Distinct texts of one tiny corpus and of each perturbed variant."""
    documents = CorpusBuilder(CorpusConfig.tiny(request.param)).build()
    texts = list(dict.fromkeys(doc.text for doc in documents))
    variants = {"original": texts, **perturbed_variants(texts, request.param)}
    return {name: list(dict.fromkeys(v)) for name, v in variants.items()}


def test_pii_bank_matches_reference_on_tiny_corpora(corpus_variants):
    # A transform leaves many texts as they were: check each text once.
    texts = dict.fromkeys(t for variant in corpus_variants.values() for t in variant)
    assert pii_mismatches(texts) == []


def test_csr_matches_reference_on_tiny_corpora(corpus_variants):
    vectorizer = HashingVectorizer()
    for name, texts in corpus_variants.items():
        arrays = [hash_text(text) for text in texts]
        assert csr_differences(
            vectorizer.transform_hashes(arrays),
            reference_transform_hashes(vectorizer, arrays),
        ) == [], name


# -- PII gate -----------------------------------------------------------------

_DIGIT_CLASS = (_parser.IN, [(_parser.CATEGORY, _parser.CATEGORY_DIGIT)])


def _literal_strings(items):
    """Every string a parsed run of literals and alternations matches.

    ``None`` once the run holds anything else (a class, a repeat, an
    assertion).
    """
    strings = {""}
    for op, arg in items:
        if op is _parser.LITERAL:
            options = {chr(arg)}
        elif op is _parser.SUBPATTERN:
            options = _literal_strings(arg[-1])
        elif op is _parser.BRANCH:
            branches = [_literal_strings(branch) for branch in arg[1]]
            options = None if None in branches else set().union(*branches)
        else:
            return None
        if options is None:
            return None
        strings = {prefix + option for prefix in strings for option in options}
    return strings


def _every_match_holds(pattern, triggers):
    """Whether every match of ``pattern`` holds a trigger (``None``: a digit).

    Read off the parsed pattern's top level, whose items every match
    contains: a ``\\d`` (repeated at least once), or a run of literals and
    alternations whose every spelling holds one of ``triggers``.
    """
    items = list(_parser.parse(pattern.pattern, pattern.flags))
    if triggers is None:
        return any(
            item == _DIGIT_CLASS
            or item[0] is _parser.MAX_REPEAT
            and item[1][0] >= 1
            and list(item[1][2]) == [_DIGIT_CLASS]
            for item in items
        )
    runs = (
        _literal_strings(items[start:stop])
        for start in range(len(items))
        for stop in range(start + 1, len(items) + 1)
    )
    return any(
        run is not None
        and all(any(t in spelling.lower() for t in triggers) for spelling in run)
        for run in runs
    )


def test_every_pattern_holds_its_trigger():
    # The gate is exact only while PII_TRIGGERS keeps up with the bank: a
    # pattern added without its trigger (an x.com URL for twitter, youtu.be
    # for youtube) would silently lose its matches on ASCII text.
    assert list(PII_TRIGGERS) == list(PII_EXTRACTORS)
    for category, patterns in PII_EXTRACTORS.items():
        triggers = PII_TRIGGERS[category]
        assert triggers is None or all(t == t.lower() for t in triggers), category
        for pattern in patterns:
            assert _every_match_holds(pattern, triggers), (category, pattern.pattern)


#: Each trigger letter in either case or as a non-ASCII character that
#: IGNORECASE folds onto it: dotless i, dotted capital I, long s, Kelvin sign.
_FOLDS = {"i": "iI\u0131\u0130", "k": "kK\u212a", "s": "sS\u017f"}
_TRIGGER_WORDS = (
    "facebook", "fb", "insta", "instagram", "ig", "twitter", "twtr",
    "youtube", "yt", "yt channel",
)


def _spelled(word):
    letters = [st.sampled_from(_FOLDS.get(c, c + c.upper())) for c in word]
    return st.tuples(*letters).map("".join)


#: Label- and URL-shaped handles, digit runs (with a non-ASCII digit) and
#: loose glue, joined by spaces.
_texts = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(_TRIGGER_WORDS).flatmap(_spelled),
            st.sampled_from([": ", "-", " : @", ".com/", ".com/c/", "/"]),
            st.sampled_from(["alice", "bob.smith", "x_1", "https://x.org"]),
        ).map("".join),
        st.text(alphabet="0123456789\u0663-().@ ", max_size=14),
        st.sampled_from(["www.", "https://", "mail", "x.org", "12 Main St", "Ave"]),
    ),
    max_size=8,
).map(" ".join)


@given(_texts)
@settings(max_examples=400, deadline=None)
def test_gated_bank_matches_reference_on_trigger_text(text):
    assert list(extract_pii(text).items()) == list(
        reference_extract_pii(text).items()
    )
    assert pii_categories_present(text) == reference_pii_categories_present(text)


@pytest.mark.parametrize("text, category, value", [
    ("ıg: alice", "instagram", "alice"),
    ("İnsta: bob_1", "instagram", "bob_1"),
    ("inſta: bob_1", "instagram", "bob_1"),
    ("faceboo\u212a: alice.b", "facebook", "alice.b"),
    ("ssn ٣٣٣-٣٣-٣٣٣٣", "ssn", "٣٣٣-٣٣-٣٣٣٣"),
], ids=["dotless_i", "dotted_capital_i", "long_s", "kelvin_sign", "arabic_digits"])
def test_case_fold_hazards_still_match(text, category, value):
    # None of these holds its category's trigger after str.lower(); the
    # non-ASCII fallback is what keeps them.
    assert extract_pii(text)[category] == [value]
    assert list(extract_pii(text).items()) == list(
        reference_extract_pii(text).items()
    )


def test_gate_skips_categories_without_triggers():
    def opened(text):
        return [category for category, _ in _open_categories(text)]

    assert opened("just a friendly chat about the weather") == []
    assert opened("call me at 555-0147") == ["address", "credit_card", "phone", "ssn"]
    assert opened("FB: Alice.Smith or mail a@b.org") == ["email", "facebook"]
    assert opened("café chat") == list(PII_EXTRACTORS)


# -- one-pass CSR build -------------------------------------------------------

_EMPTY = np.empty(0, dtype=np.uint64)


def _hashes(*values):
    return np.array(values, dtype=np.uint64)


_EDGE_BATCHES = {
    "no_rows": [],
    "all_empty": [_EMPTY, _EMPTY, _EMPTY],
    "single_tokens_between_long_rows": [
        _hashes(7), _hashes(*range(40)), _hashes(7), _hashes(9),
        _hashes(*range(40, 0, -1)), _EMPTY, _hashes(7),
    ],
    "repeats_wide_hashes_trailing_empty": [
        _hashes(5, 5, 5, 5), _hashes(2**64 - 1, 0, 2**64 - 1, 0), _hashes(5),
        _EMPTY,
    ],
}


@pytest.mark.parametrize("n_bits, use_bigrams", [(8, True), (26, True), (18, False)])
@pytest.mark.parametrize("batch", list(_EDGE_BATCHES))
def test_csr_edge_batches_match_reference(batch, n_bits, use_bigrams):
    vectorizer = HashingVectorizer(n_bits=n_bits, use_bigrams=use_bigrams)
    arrays = _EDGE_BATCHES[batch]
    assert csr_differences(
        vectorizer.transform_hashes(arrays),
        reference_transform_hashes(vectorizer, arrays),
    ) == []


_hash_rows = st.lists(
    st.lists(
        st.integers(0, 15) | st.integers(0, 2**64 - 1), max_size=12
    ).map(lambda values: np.array(values, dtype=np.uint64)),
    max_size=12,
)


@given(_hash_rows, st.sampled_from([8, 10, 18, 26]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_csr_matches_reference_on_random_batches(arrays, n_bits, use_bigrams):
    vectorizer = HashingVectorizer(n_bits=n_bits, use_bigrams=use_bigrams)
    assert csr_differences(
        vectorizer.transform_hashes(arrays),
        reference_transform_hashes(vectorizer, arrays),
    ) == []
