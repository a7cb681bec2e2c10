"""The optimised text and corpus kernels against their references.

The kernels must reproduce the implementations they replaced byte for
byte (``tests/kernel_reference.py``): CSR shape, ``indptr``, ``indices``,
``data`` and dtypes; extractions with their category order; taxonomy
codes with their subtype order.  Inputs are the tiny corpora at four
seeds under every :mod:`repro.corpus.perturb` transform, hypothesis text
built from the gates' triggers and the Unicode case-fold hazards, seeded
adversarial text around the rewritten digit-led and profile-URL PII
patterns, and the edge batches of the one-pass build.  Structural tests
read off each parsed pattern that its matches hold its gates (category
trigger, card shape, URL domain, signature trigger), so no gate can
fall behind its bank.  On the corpus side, ``integer`` must draw what
``Generator.integers`` draws, ``pick`` what ``Generator.choice`` draws
and ``weighted`` what ``Generator.choice`` with ``p`` draws, each
leaving the generator where NumPy leaves it and raising NumPy's errors;
the tiny corpora must write the same JSONL under the fast and the NumPy
draws, documents must pickle the generated dataclass state, and
``write_jsonl`` must write the lines ``json.dumps`` gives.  The
logistic-regression fit, which runs Adam on the columns its rows touch,
must give the weight and bias bytes of the full-width loop
(``reference_fit``) on the tiny study's task views and on adversarial
CSR inputs.  ``scripts/check_kernels.py`` runs the
corpus, text and fit checks on the full corpus.
"""

import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from scipy import sparse

try:
    from re import _parser  # the parser behind re.compile (Python 3.11+)
except ImportError:  # Python 3.10
    import sre_parse as _parser
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusBuilder, CorpusConfig
from repro.corpus.documents import Document, GroundTruth
from repro.corpus.io import document_to_dict, write_jsonl
from repro.extraction.pii import (
    _CARD_SHAPE,
    PII_EXTRACTORS,
    PII_PATTERN_GATES,
    PII_TRIGGERS,
    _open_categories,
    extract_pii,
    pii_categories_present,
)
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.nlp.tokenize import hash_text
from repro.pipeline.filtering import TASK_MAX_TOKENS
from repro.taxonomy.attack_types import AttackSubtype
from repro.taxonomy.coding import _SIGNATURES, ExpertCoder
from repro.types import Gender, Platform, Source, Task
from repro.util.rng import Weights, child_rng, integer, pick, weighted
from tests.kernel_reference import (
    csr_differences,
    fit_differences,
    perturbed_variants,
    pii_mismatches,
    reference_code_text,
    reference_draws,
    reference_extract_pii,
    reference_fit,
    reference_integer,
    reference_pick,
    reference_pii_categories_present,
    reference_transform_hashes,
    reference_weighted,
    taxonomy_mismatches,
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


def test_taxonomy_coder_matches_reference_on_tiny_corpora(corpus_variants):
    texts = dict.fromkeys(t for variant in corpus_variants.values() for t in variant)
    assert taxonomy_mismatches(texts) == []


def test_csr_matches_reference_on_tiny_corpora(corpus_variants):
    vectorizer = HashingVectorizer()
    for name, texts in corpus_variants.items():
        arrays = [hash_text(text) for text in texts]
        assert csr_differences(
            vectorizer.transform_hashes(arrays),
            reference_transform_hashes(vectorizer, arrays),
        ) == [], name


# -- structural gate checks ---------------------------------------------------

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


def _is_digit(item):
    """Whether a parsed item matches exactly one decimal digit."""
    op, arg = item
    if op is _parser.LITERAL:
        return chr(arg).isdigit()
    return op is _parser.IN and all(
        (kind, value) == (_parser.CATEGORY, _parser.CATEGORY_DIGIT)
        or kind is _parser.LITERAL and chr(value).isdigit()
        or kind is _parser.RANGE and all(chr(end).isdigit() for end in value)
        for kind, value in arg
    )


def _atoms(items):
    """A parsed run as atoms: ``"d"`` for each digit, ``repr`` otherwise.

    Zero-width assertions (``\\b``) drop out.  Fixed repeats expand, and
    so do alternations whose arms are all the same number of digits.
    """
    atoms = []
    for item in items:
        op, arg = item
        if op is _parser.AT:
            continue
        if _is_digit(item):
            atoms.append("d")
            continue
        if op is _parser.MAX_REPEAT and arg[0] == arg[1]:
            inner = _atoms(arg[2])
            if set(inner) == {"d"}:
                atoms += inner * arg[0]
                continue
        if op is _parser.BRANCH:
            arms = {tuple(_atoms(arm)) for arm in arg[1]}
            if len(arms) == 1 and set(next(iter(arms))) == {"d"}:
                atoms += next(iter(arms))
                continue
        atoms.append(repr(item))
    return atoms


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


def test_every_gated_pattern_holds_its_gate():
    # An OSN URL pattern must hold its domain (a Twitter URL on x.com would
    # hold neither "twitter.com" nor the category's trigger), and a card
    # pattern must start with the card shape: four digits, the shape's
    # optional separator, four digits.
    shape = _atoms(_parser.parse(_CARD_SHAPE.pattern))
    assert shape == ["d"] * 4 + [shape[4]] + ["d"] * 4
    for category, (gate, gated) in PII_PATTERN_GATES.items():
        assert gated and set(gated) <= set(PII_EXTRACTORS[category]), category
        for pattern in gated:
            if isinstance(gate, str):
                assert gate == gate.lower(), category
                assert _every_match_holds(pattern, (gate,)), (category, pattern.pattern)
            else:
                assert gate is _CARD_SHAPE, category
                atoms = _atoms(_parser.parse(pattern.pattern, pattern.flags))
                assert atoms[:len(shape)] == shape, (category, pattern.pattern)


def test_every_signature_holds_its_trigger():
    # The coder runs a subtype only if one of its triggers occurs, so a
    # signature whose matches can miss its trigger (one filed under another
    # signature's trigger, or an uppercase trigger the lowercase text can
    # never hold) would silently lose its matches on ASCII text.
    for subtype, signatures in _SIGNATURES.items():
        assert signatures, subtype
        for trigger, signature in signatures:
            assert trigger and trigger == trigger.lower(), (subtype, trigger)
            pattern = re.compile(signature, re.IGNORECASE)
            assert _every_match_holds(pattern, (trigger,)), (subtype, signature)


#: Each trigger letter in either case or as a non-ASCII character that
#: IGNORECASE folds onto it: dotless i, dotted capital I, long s, Kelvin sign.
_FOLDS = {"i": "iI\u0131\u0130", "k": "kK\u212a", "s": "sS\u017f"}
_TRIGGER_WORDS = (
    "facebook", "fb", "insta", "instagram", "ig", "twitter", "twtr",
    "youtube", "yt", "yt channel",
)


def _spelled(word, folds=_FOLDS):
    letters = [st.sampled_from(folds.get(c, c + c.upper())) for c in word]
    return st.tuples(*letters).map("".join)


#: Issuer prefixes and card-number groups (Visa, Mastercard, Amex,
#: Discover), short and long groups, and a group of non-ASCII digits.
_CARD_GROUPS = (
    "4111", "5105", "3782", "6011", "6511", "1111", "822463", "10005",
    "411", "41111", "\u0663\u0663\u0663\u0663",
)

#: Card-shaped digit runs: two to four groups joined by one separator,
#: the card shape's own (none, space, hyphen) or one it lacks.
_card_runs = st.tuples(
    st.sampled_from(["", " ", "-", ".", "  ", "--"]),
    st.lists(st.sampled_from(_CARD_GROUPS), min_size=2, max_size=4),
).map(lambda parts: parts[0].join(parts[1]))

#: Label- and URL-shaped handles (and platform names without their
#: domain), digit and card runs (with a non-ASCII digit) and loose glue,
#: joined by spaces.
_texts = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(_TRIGGER_WORDS).flatmap(_spelled),
            st.sampled_from([
                ": ", "-", " : @", ".com/", ".com/c/", "/", " com/", "com/",
                ".org/", ".co/",
            ]),
            st.sampled_from(["alice", "bob.smith", "x_1", "https://x.org"]),
        ).map("".join),
        st.text(alphabet="0123456789\u0663-().@ ", max_size=14),
        _card_runs,
        st.sampled_from(["www.", "https://", "mail", "x.org", "12 Main St", "Ave"]),
    ),
    max_size=8,
).map(" ".join)


@given(_texts)
@example("card 4111 1111 1111 1111")
@example("card 4111-1111-1111-1111")
@example("card 4111.1111.1111.1111")
@example("card 41111111 11111111")
@example("card 4111 1111")
@example("card \u0663\u0663\u0663\u0663 1111 1111 1111")
@example("amex 3782 822463 10005")
@example("twitter: alice")
@example("twitter com/alice")
@example("see twitter.com/alice")
@example("instagram.org/alice or ig: bob")
@example("youtube: @chan and youtu.be/x")
@example("FACEBOOK.COM/alice.smith")
@example("fb - alice.smith")
@settings(max_examples=400, deadline=None)
def test_gated_bank_matches_reference_on_trigger_text(text):
    # The examples sit on either side of the card gate (card-shaped runs
    # with and without its separators) and of the URL gates (platform
    # names with and without their domain).
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
    # The first three hold no trigger after str.lower(); the Kelvin sign
    # lowers to "k" and \d matches the Arabic digits.  All five are
    # non-ASCII, so the fallback runs every pattern on them.
    assert extract_pii(text)[category] == [value]
    assert list(extract_pii(text).items()) == list(
        reference_extract_pii(text).items()
    )


#: Pieces of the adversarial PII texts: decimal digits (ASCII, Arabic-Indic,
#: extended Arabic-Indic, NKo, mathematical) and digit shapes around
#: parentheses, hyphens and dots; the non-ASCII letters IGNORECASE folds
#: onto ASCII (dotless i, dotted capital I, long s, Kelvin sign) and word
#: characters that glue onto a number; street addresses; schemes,
#: ``www.``, profile domains and their paths, stopwords, labels and
#: usernames up to past every pattern's length limit.
_PII_PIECES = (
    "0", "1", "4", "5", "9", "\u0663", "\u06f5", "\u07c1", "\U0001d7d8",
    "(", ")", "-", ".", " ", "555", "(555)", "555-", "-12", "555.", "12",
    "123-45-6789", "(555) 123-4567", "555.123.4567", "5551234567",
    "4111 1111 1111 1111", "x", "Z", "_", "\u0131", "\u0130", "\u017f",
    "\u212a", "12 Main St", "Oak Road", " Ave", ", Springfield, IL 62704",
    "12345 Elm Street", "https://", "http://", "www.", "HTTPS://WWW.",
    "ttps://", "facebook.com/", "FaceBook.com/", "faceboo\u212a.com/",
    "instagram.com/", "\u0131nstagram.com/", "twitter.com/", "twitter.com",
    "youtube.com/", "youtube.com/c/", "youtube.com/@", "youtube.com/channel/",
    "youtube.com/user/", "login", "share", "sharer", "pages", "explore",
    "home", "i", "intent", "legal", "fb: ", "ig: ", "twitter: ", "yt: ",
    "insta- ", "@", "a@b.org", "alice", "bob.smith", "x_1", "ab",
    "a" * 55, "b" * 70, "c.d" * 20,
)


def _adversarial_pii_texts(count, seed):
    """``count`` seeded texts of 1 to 12 pieces, glued or spaced."""
    rng = child_rng(seed, "pii-adversarial")
    return [
        pick(rng, ("", "", " ", "/", ".")).join(
            pick(rng, _PII_PIECES) for _ in range(integer(rng, 1, 13))
        )
        for _ in range(count)
    ]


def test_pii_bank_matches_reference_on_adversarial_text():
    # The package's digit-led patterns start at a character class and its
    # profile-URL patterns at the domain; the reference bank keeps the
    # forms they replaced.  Item lists and presence must agree on every
    # text, non-ASCII ones (which run the whole bank) included.
    texts = _adversarial_pii_texts(12_000, seed=26)
    assert sum(not t.isascii() for t in texts) > 1_000
    assert pii_mismatches(texts) == []


def test_gate_skips_categories_without_triggers():
    def opened(text):
        return [category for category, _ in _open_categories(text)]

    def patterns(text, category):
        return dict(_open_categories(text))[category]

    assert opened("just a friendly chat about the weather") == []
    assert opened("call me at 555-0147") == ["address", "phone", "ssn"]
    assert opened("card 4111 1111 1111 1111") == [
        "address", "credit_card", "phone", "ssn",
    ]
    assert opened("FB: Alice.Smith or mail a@b.org") == ["email", "facebook"]
    assert opened("café chat") == list(PII_EXTRACTORS)
    # A platform name without its domain opens only the label pattern.
    url, label = PII_EXTRACTORS["twitter"]
    assert patterns("twitter: alice", "twitter") == (label,)
    assert patterns("twitter com/alice", "twitter") == (label,)
    assert patterns("see Twitter.com/alice", "twitter") == (url, label)


# -- taxonomy coder gate ------------------------------------------------------

#: Every signature trigger, and the pronouns and objects that complete the
#: signatures around them.
_TAXONOMY_TRIGGERS = tuple(
    dict.fromkeys(t for signatures in _SIGNATURES.values() for t, _ in signatures)
)
_TAXONOMY_GLUE = (
    "him", "her", "them", "his", "their", "he", "she", "they", "out", "info",
    "account", "name", "pages", "phone", "explicit", "nonstop", "hashtag",
)

_PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)

#: Full signature spellings in printable ASCII.
_signature_texts = st.sampled_from(
    [signature for signatures in _SIGNATURES.values() for _, signature in signatures]
).flatmap(
    lambda signature: st.from_regex(signature, fullmatch=True, alphabet=_PRINTABLE)
)

#: Trigger words, glue and whole signatures, each spelled either in mixed
#: ASCII case or with the IGNORECASE fold hazards (``ſpam``, ``raıd``,
#: ``locK`` with a Kelvin sign), joined by spaces.
_taxonomy_texts = st.lists(
    st.one_of(
        st.sampled_from(_TAXONOMY_TRIGGERS + _TAXONOMY_GLUE),
        _signature_texts,
    ).flatmap(lambda word: st.one_of(_spelled(word, folds={}), _spelled(word))),
    max_size=6,
).map(" ".join)


@given(_taxonomy_texts)
@settings(max_examples=400, deadline=None)
def test_gated_coder_matches_reference_on_trigger_text(text):
    assert ExpertCoder().code_text(text) == reference_code_text(text)


@pytest.mark.parametrize("text, subtype", [
    ("\u017fpam him until he quits", AttackSubtype.SPAMMING),
    ("everyone ra\u0131d the stream", AttackSubtype.RAIDING),
    ("loc\u212a them out of it", AttackSubtype.ACCOUNT_LOCKOUT),
    ("P\u0130LE INTO the replies", AttackSubtype.RAIDING),
    ("ma\u017f\u017f-report the channel", AttackSubtype.MASS_FLAGGING),
    ("\u0131 know where she lives", AttackSubtype.DOXING),
], ids=["long_s", "dotless_i", "kelvin_sign", "dotted_capital_i", "two_long_s",
        "non_ascii_elsewhere"])
def test_coder_fold_hazards_still_match(text, subtype):
    # ſ, ı and İ hold their subtype's trigger only under IGNORECASE
    # folding; the Kelvin sign lowers to "k", and the last text is
    # non-ASCII elsewhere.  The non-ASCII fallback runs every pattern.
    assert subtype in ExpertCoder().code_text(text)
    assert ExpertCoder().code_text(text) == reference_code_text(text)


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


# -- corpus kernels: uniform draws, document state, JSONL lines ---------------


@pytest.mark.parametrize("length", [1, 2, 26, 100])
def test_pick_draws_what_generator_choice_draws(length):
    banks = (tuple(f"word{i}" for i in range(length)), list(range(length)))
    for seed in range(100):
        for bank in banks:
            ours = child_rng(seed, "pick", length)
            theirs = child_rng(seed, "pick", length)
            for step in range(30):
                drawn = pick(ours, bank)
                assert drawn == reference_pick(theirs, bank)
                assert type(drawn) is type(bank[0])
                # Interleave the generator's other draws, so a state
                # that drifted apart shows in them too.
                if step % 3 == 0:
                    assert ours.random() == theirs.random()
                if step % 4 == 1:
                    assert ours.integers(0, 1000) == theirs.integers(0, 1000)
            assert ours.bit_generator.state == theirs.bit_generator.state


_SPANS = (1, 2, 3, 26, 1000, 2**31 + 5, 2**32, 2**32 + 1)


@pytest.mark.parametrize("span", _SPANS)
@pytest.mark.parametrize("low", [0, -7_000_000_000])
def test_integer_draws_what_generator_integers_draws(span, low):
    # 2**32 is NumPy's one-word branch, 2**32 + 1 the 64-bit draw that
    # integer hands to Generator.integers.
    for seed in range(100):
        ours = child_rng(seed, "integer", span)
        theirs = child_rng(seed, "integer", span)
        for step in range(30):
            drawn = integer(ours, low, low + span)
            expected = reference_integer(theirs, low, low + span)
            assert drawn == expected and type(drawn) is type(expected) is int
            # Interleave the generator's other draws, so a state that
            # drifted apart (PCG64's buffered half word) shows in them.
            if step % 3 == 0:
                assert ours.random() == theirs.random()
            if step % 4 == 1:
                assert ours.integers(0, 1000) == theirs.integers(0, 1000)
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("low, high", [
    (0, 0), (5, 5), (5, 4), (-3, -9), (0, -1),
    # short spans with a bound outside int64
    (2**63, 2**63 + 5), (-2**63 - 1, -2**63 + 3), (2**63 - 3, 2**63 + 1),
])
def test_integer_raises_what_generator_integers_raises(low, high):
    with pytest.raises(ValueError) as expected:
        child_rng(0, "integer").integers(low, high)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        integer(child_rng(0, "integer"), low, high)


def _weights_cases():
    rng = child_rng(0, "weights")
    lumpy = rng.random(30) ** 4
    return {
        "uniform": Weights("abcd", [0.25] * 4),
        "lumpy": Weights(range(30), lumpy / lumpy.sum()),
        "zeros": Weights("abcde", [0.0, 0.5, 0.0, 0.5, 0.0]),
        "single": Weights(["only"], [1.0]),
        # within sqrt(eps) of 1: choice divides its CDF by cdf[-1]
        "off-by-eps": Weights("xyz", [0.2, 0.3, 0.5 + 1e-9]),
    }


@pytest.mark.parametrize("case", list(_weights_cases()))
def test_weighted_draws_what_generator_choice_draws(case):
    weights = _weights_cases()[case]
    for seed in range(100):
        ours = child_rng(seed, "weighted", case)
        theirs = child_rng(seed, "weighted", case)
        for step in range(30):
            drawn = weighted(ours, weights)
            assert drawn == reference_weighted(theirs, weights)
            assert type(drawn) is type(weights.items[0])
            if step % 4 == 1:
                assert integer(ours, 0, 26) == reference_integer(theirs, 0, 26)
        assert ours.bit_generator.state == theirs.bit_generator.state


class _Uniform:
    """A stand-in generator whose ``random()`` returns one fixed value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("case", list(_weights_cases()))
def test_weighted_index_at_the_cdf_boundaries(case):
    # Generator.choice with p builds cdf = p.cumsum(); cdf /= cdf[-1] and
    # takes cdf.searchsorted(random(), side="right"); random draws almost
    # never land on a boundary, so try each boundary and its neighbours.
    weights = _weights_cases()[case]
    cdf = weights.p.cumsum()
    cdf /= cdf[-1]
    for bound in [0.0, *cdf]:
        for value in (np.nextafter(bound, -1.0), bound, np.nextafter(bound, 2.0)):
            if 0.0 <= value < 1.0:
                index = int(cdf.searchsorted(value, side="right"))
                assert weighted(_Uniform(float(value)), weights) == weights.items[index]


@pytest.mark.parametrize("items, p", [
    ("ab", [1.1, -0.1]),
    ("ab", [0.5, float("nan")]),
    ("ab", [float("inf"), 0.5]),
    ("ab", [float("-inf"), float("inf")]),
    ("abc", [0.5, 0.5]),
    ("ab", [0.5, 0.4]),
    ("ab", [[0.5, 0.5]]),
    ("", []),
])
def test_weights_reject_what_generator_choice_rejects(items, p):
    with pytest.raises(ValueError) as expected:
        child_rng(0, "weights").choice(len(items), p=p)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        Weights(items, p)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_tiny_corpus_jsonl_is_identical_under_reference_draws(seed, tmp_path):
    config = CorpusConfig.tiny(seed)
    write_jsonl(CorpusBuilder(config).build(), tmp_path / "pick.jsonl")
    with reference_draws() as rebound:
        write_jsonl(CorpusBuilder(config).build(), tmp_path / "choice.jsonl")
    # Persons, templates, profiles, blogs, board and flat platforms all
    # draw, through each of the three fast draws.
    assert {
        "repro.corpus.identity.integer",
        "repro.corpus.identity.pick",
        "repro.corpus.templates.integer",
        "repro.corpus.templates.pick",
        "repro.corpus.generator.integer",
        "repro.corpus.profiles.weighted",
        "repro.corpus.platforms.blogs.pick",
        "repro.corpus.platforms.boards.integer",
        "repro.corpus.platforms.boards.pick",
        "repro.corpus.platforms.flat.integer",
        "repro.corpus.platforms.flat.pick",
        "repro.util.rng.integer",
    } <= set(rebound)
    assert (tmp_path / "pick.jsonl").read_bytes() == (
        tmp_path / "choice.jsonl"
    ).read_bytes()


_TRUTHS = (
    GroundTruth(),
    GroundTruth(
        is_dox=True,
        is_cth=True,
        cth_subtypes=(AttackSubtype.MASS_FLAGGING, AttackSubtype.RAIDING),
        target_id=41,
        target_gender=Gender.FEMALE,
        pii_planted=("phone", "address"),
        reputation_info=True,
        hard_negative=True,
    ),
)

_TEXTS = (
    "plain ascii text",
    "naïve café, “curly quotes”, 東京 and 😀",
    'say "hi" and \\ back\\slash \\u0041',
    "tab\there\nnewline\rreturn \x00\x08\x1f\x7f end",
    "line\u2028paragraph\u2029separators",
)


def _documents():
    return [
        Document(
            doc_id=i,
            platform=Platform.BOARDS if i % 2 else Platform.GAB,
            source=Source.GAB if i % 2 == 0 else None,
            domain=f"dömain\"{i}\\.example",
            text=text,
            timestamp=1.5e9 + i / 3,
            author=f"author \"{i}\"",
            thread_id=7 if i % 2 else None,
            position=i if i % 2 else None,
            truth=_TRUTHS[i % 2],
        )
        for i, text in enumerate(_TEXTS)
    ]


def test_documents_pickle_the_generated_dataclass_state():
    for obj in [*_TRUTHS, *_documents()]:
        assert obj.__getstate__() == [
            getattr(obj, field.name) for field in dataclasses.fields(obj)
        ]
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol=protocol)) == obj


def test_write_jsonl_writes_the_lines_json_dumps_gives(tmp_path):
    documents = _documents()
    path = tmp_path / "documents.jsonl"
    assert write_jsonl(documents, path) == len(documents)
    assert path.read_bytes().decode("utf-8").split("\n") == [
        json.dumps(document_to_dict(doc), ensure_ascii=False)
        for doc in documents
    ] + [""]


# -- logistic regression: Adam on the touched columns --------------------------


def _assert_fit_matches_reference(features, labels, **params):
    """Weight and bias bytes equal, and no -0.0 in an untouched column."""
    ours = LogisticRegressionClassifier(**params).fit(features, labels)
    expected = reference_fit(LogisticRegressionClassifier(**params), features, labels)
    assert fit_differences(ours, expected) == []
    untouched = np.ones(features.shape[1], dtype=bool)
    untouched[features.indices] = False
    assert not np.signbit(ours.weights[untouched]).any()


@pytest.mark.parametrize("task", list(Task), ids=lambda task: task.value)
def test_fit_matches_reference_on_the_tiny_study_views(tiny_study, task):
    config = tiny_study.config.pipeline
    vectorized = tiny_study.vectorized
    view = vectorized.task_view(TASK_MAX_TOKENS[task], config.span_strategy)
    truth = np.array([doc.truth_for(task) for doc in vectorized.documents])
    _assert_fit_matches_reference(
        view.matrix, truth[view.span_doc],
        epochs=config.model_epochs, l2=config.model_l2, seed=config.seed,
    )


def _csr(rows, n_columns, data_dtype, index_dtype):
    """A CSR matrix holding ``rows`` of (column, value) entries as given:
    unsorted and duplicate columns stay, in their order."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    matrix = sparse.csr_matrix(
        (
            np.array([v for row in rows for _, v in row], dtype=data_dtype),
            np.array([c for row in rows for c, _ in row], dtype=np.int64),
            indptr,
        ),
        shape=(len(rows), n_columns),
    )
    # The constructor may narrow the index arrays; set the ones asked for.
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


_DTYPES = [
    (data, index)
    for data in (np.float32, np.float64)
    for index in (np.int32, np.int64)
]

_PERMUTED = child_rng(0, "fit-edges").permutation(256).tolist()

_EDGE_FITS = {
    "no_entries": [[], [], [], []],
    "one_touched_column": [[(17, 1.0), (17, 0.5)], [], [(17, -2.0)], [(17, 1.0)]],
    "every_column_touched": [
        [(c, 1.0 + (c % 5)) for c in _PERMUTED[i::3]] + [(_PERMUTED[i], 0.25)]
        for i in range(6)
    ],
    "empty_rows_between_unsorted_duplicates": [
        [], [(200, 1.0), (3, 2.0), (200, -1.0)], [], [(9, 0.5), (3, 1.5)], [],
    ],
}

_EDGE_PARAMS = {
    "defaults": {},
    "l2_0_unbalanced_batch_1": {"l2": 0.0, "balanced": False, "batch_size": 1, "epochs": 3},
    "one_batch_for_all_rows": {"batch_size": 512, "epochs": 2, "seed": 9},
}


@pytest.mark.parametrize("params", list(_EDGE_PARAMS))
@pytest.mark.parametrize("dtypes", _DTYPES, ids=lambda d: f"{d[0].__name__}-{d[1].__name__}")
@pytest.mark.parametrize("rows", list(_EDGE_FITS))
def test_fit_matches_reference_on_edge_matrices(rows, dtypes, params):
    features = _csr(_EDGE_FITS[rows], 256, *dtypes)
    assert (features.data.dtype, features.indices.dtype) == tuple(map(np.dtype, dtypes))
    labels = np.arange(features.shape[0]) % 2 == 0
    _assert_fit_matches_reference(features, labels, **_EDGE_PARAMS[params])
    if rows == "every_column_touched":
        assert np.unique(features.indices).size == 256


@st.composite
def _training_sets(draw):
    """Rows over a few hot columns and any column, unsorted, with
    duplicates and empty rows; labels with both classes."""
    n_columns = 1 << draw(st.sampled_from([8, 18]))
    hot = draw(st.lists(st.integers(0, n_columns - 1), min_size=1, max_size=5))
    column = st.sampled_from(hot) | st.integers(0, n_columns - 1)
    value = st.floats(-4, 4, allow_nan=False, width=32)
    rows = draw(st.lists(
        st.lists(st.tuples(column, value), max_size=6), min_size=2, max_size=30,
    ))
    labels = draw(
        st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))
        .filter(lambda labels: any(labels) and not all(labels))
    )
    dtypes = draw(st.sampled_from(_DTYPES))
    return _csr(rows, n_columns, *dtypes), np.array(labels)


_fit_params = st.fixed_dictionaries({
    "l2": st.sampled_from([0.0, 1e-6, 1e-2]),
    "lr": st.sampled_from([0.05, 0.5]),
    "epochs": st.integers(1, 3),
    "batch_size": st.sampled_from([1, 2, 7, 512]),
    "balanced": st.booleans(),
    "seed": st.integers(0, 7),
})


@given(_training_sets(), _fit_params)
@settings(max_examples=150, deadline=None)
def test_fit_matches_reference_on_random_csr(training_set, params):
    features, labels = training_set
    _assert_fit_matches_reference(features, labels, **params)


def test_fit_takes_a_csr_array_as_a_csr_matrix():
    features = _csr(_EDGE_FITS["every_column_touched"], 256, np.float32, np.int32)
    labels = np.arange(features.shape[0]) % 3 == 0
    as_array = LogisticRegressionClassifier().fit(sparse.csr_array(features), labels)
    as_matrix = LogisticRegressionClassifier().fit(features, labels)
    assert fit_differences(as_array, as_matrix) == []


@pytest.mark.parametrize(
    "convert, name",
    [(lambda m: m.toarray(), "ndarray"), (sparse.csc_matrix, "csc_matrix")],
    ids=["ndarray", "csc_matrix"],
)
def test_fit_rejects_features_that_are_not_csr(convert, name):
    features = _csr(_EDGE_FITS["one_touched_column"], 256, np.float32, np.int32)
    labels = np.array([True, False, True, False])
    with pytest.raises(TypeError, match=name):
        LogisticRegressionClassifier().fit(convert(features), labels)
