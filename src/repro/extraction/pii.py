"""PII extraction with 16 precision-optimised regular expressions (§5.6).

The paper extracts nine PII categories: US street addresses, credit-card
numbers (one pattern per issuer, for precision), email addresses, Facebook
profiles, Instagram profiles, US phone numbers, US SSNs, Twitter handles,
and YouTube channels.  Social-media profiles use two pattern styles:

* profile URLs, with a stopword list removing reserved site-functionality
  paths that share the user-profile URL shape, and
* ``platform-name: username`` label style, with per-platform username
  grammars taken from each platform's documented rules.

All patterns are deliberately precision-first, matching the paper's
reported >= 95 % accuracy on a labelled dox sample.

Most texts hold no PII, so the bank first drops the categories a text
cannot match: every match of a category contains one of its
:data:`PII_TRIGGERS` (a digit, ``@``, or a platform-name literal).
Inside an open category, :data:`PII_PATTERN_GATES` drops the patterns
whose matches hold more than the category trigger: the card patterns
without a ``\\d{4}[ -]?\\d{4}`` run, and each profile-URL pattern without
its domain.  A lowercase copy, one digit search, one card-shape search
and a few substring tests decide which patterns run at all.

Each pattern that runs is written so that ``re`` can skip to where a
match may start.  The digit-led address, phone and SSN patterns begin
with a character class and check their left context (``\\b``, or no
digit or hyphen before the number) right after that first character,
so ``re`` tries a match only at a digit (or a phone's ``(``) instead of
at every position.  A profile-URL pattern starts at its domain: an
optional ``https://`` or ``www.`` before it would change neither the
username it captures nor where its match ends.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from repro.corpus.documents import Document

_STREET_TYPES = r"(?:St|Ave|Blvd|Dr|Ln|Rd|Ct|Way|Street|Avenue|Boulevard|Drive|Lane|Road|Court)"

#: Reserved path segments that look like profile URLs but are not.
_FACEBOOK_STOPWORDS = (
    "login", "pages", "groups", "events", "marketplace", "watch", "help",
    "privacy", "settings", "friends", "photos", "sharer", "share",
)
_INSTAGRAM_STOPWORDS = ("explore", "accounts", "about", "developer", "directory", "legal")
_TWITTER_STOPWORDS = ("home", "search", "explore", "settings", "i", "intent", "hashtag", "share")

def _url_pattern(domain: str, username: str, stopwords: Sequence[str]) -> re.Pattern[str]:
    """A profile URL: ``domain/username``, unless the path is a stopword.

    A match starts at the domain, and the bank returns the username
    group.  An optional ``https://`` or ``www.`` before the domain (no
    domain starts inside one) would change neither the username nor
    where the match ends, only make ``re`` try both at every position.
    """
    stop = "|".join(stopwords)
    return re.compile(
        rf"{domain}/(?!(?:{stop})\b)({username})", re.IGNORECASE
    )

def _label_pattern(names: str, username: str) -> re.Pattern[str]:
    # The negative lookahead keeps "Facebook: https://facebook.com/x" from
    # capturing "https" as a username (the URL pattern handles that form).
    return re.compile(
        rf"\b(?:{names})\s*[:\-]\s*(?!https?://)@?({username})", re.IGNORECASE
    )


#: The 16 regular expressions (:data:`N_PATTERNS`), grouped into the 9 PII
#: categories.
PII_EXTRACTORS: Mapping[str, tuple[re.Pattern[str], ...]] = {
    "address": (
        re.compile(
            rf"\d(?<!\w\d)\d{{0,4}}\s+[A-Z][A-Za-z]+\s+{_STREET_TYPES}\b"
            rf"(?:\s*,\s*[A-Z][A-Za-z ]+,?\s+[A-Z]{{2}}\s+\d{{5}}(?:-\d{{4}})?)?"
        ),
    ),
    "credit_card": (
        re.compile(r"\b4\d{3}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Visa
        re.compile(r"\b5[1-5]\d{2}[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Mastercard
        re.compile(r"\b3[47]\d{2}[ -]?\d{6}[ -]?\d{5}\b"),  # Amex
        re.compile(r"\b6(?:011|5\d{2})[ -]?\d{4}[ -]?\d{4}[ -]?\d{4}\b"),  # Discover
    ),
    "email": (
        re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"),
    ),
    "facebook": (
        _url_pattern(r"facebook\.com", r"[A-Za-z0-9.]{5,50}", _FACEBOOK_STOPWORDS),
        _label_pattern("facebook|fb", r"[A-Za-z0-9.]{5,50}"),
    ),
    "instagram": (
        _url_pattern(r"instagram\.com", r"[A-Za-z0-9_.]{2,30}", _INSTAGRAM_STOPWORDS),
        _label_pattern("instagram|ig|insta", r"[A-Za-z0-9_.]{2,30}"),
    ),
    "phone": (
        # ``(?<![\d-])\(?\d{3}`` with its first character, ``(`` or a
        # digit, taken first: three digits after a ``(``, two more after
        # a digit.
        re.compile(
            r"[(\d](?<![\d-][(\d])(?:(?<=\()\d{3}|(?<=\d)\d{2})"
            r"\)?[ .-]?\d{3}[ .-]\d{4}(?![\d-])"
        ),
    ),
    "ssn": (
        re.compile(r"\d(?<![\d-]\d)\d{2}-\d{2}-\d{4}(?![\d-])"),
    ),
    "twitter": (
        _url_pattern(r"twitter\.com", r"[A-Za-z0-9_]{1,15}", _TWITTER_STOPWORDS),
        _label_pattern("twitter|twtr", r"[A-Za-z0-9_]{1,15}"),
    ),
    "youtube": (
        re.compile(
            r"youtube\.com/(?:c/|channel/|user/|@)([A-Za-z0-9_-]{2,60})",
            re.IGNORECASE,
        ),
        _label_pattern(r"youtube|yt channel|yt", r"[A-Za-z0-9_-]{2,60}"),
    ),
}

#: What every match of a category contains: ``None`` for a decimal digit
#: (every match of a digit-led pattern holds a decimal digit), otherwise
#: lowercase literals of which every match holds at least one — the ``@``
#: of an email, the platform names of the URL and label patterns.  A
#: category whose trigger is absent from a text cannot match it, so
#: :func:`_open_categories` skips its patterns.
PII_TRIGGERS: Mapping[str, tuple[str, ...] | None] = {
    "address": None,
    "credit_card": None,
    "email": ("@",),
    "facebook": ("facebook", "fb"),
    "instagram": ("insta", "ig"),
    "phone": None,
    "ssn": None,
    "twitter": ("twitter", "twtr"),
    "youtube": ("youtube", "yt"),
}

#: The card shape: every issuer pattern starts with four digits, an
#: optional space or hyphen, and four more digits.
_CARD_SHAPE = re.compile(r"\d{4}[ -]?\d{4}")

#: Narrower gates inside an open category, as ``(gate, patterns)``:
#: every match of each listed pattern contains ``gate``, a compiled
#: shape (searched in the text) or a lowercase literal (looked up in
#: its lowercase copy).  Where the gate is absent :func:`_open_categories`
#: drops the listed patterns; the category's other patterns (the
#: ``platform: username`` labels) run on its trigger alone.
PII_PATTERN_GATES: Mapping[
    str, tuple[re.Pattern[str] | str, tuple[re.Pattern[str], ...]]
] = {
    "credit_card": (_CARD_SHAPE, PII_EXTRACTORS["credit_card"]),
    "facebook": ("facebook.com", PII_EXTRACTORS["facebook"][:1]),
    "instagram": ("instagram.com", PII_EXTRACTORS["instagram"][:1]),
    "twitter": ("twitter.com", PII_EXTRACTORS["twitter"][:1]),
    "youtube": ("youtube.com", PII_EXTRACTORS["youtube"][:1]),
}

#: What each gated category runs when its gate is absent.
_UNGATED: Mapping[str, tuple[re.Pattern[str], ...]] = {
    category: tuple(p for p in PII_EXTRACTORS[category] if p not in gated)
    for category, (_, gated) in PII_PATTERN_GATES.items()
}

#: Total number of compiled patterns — the paper's "12 regular expressions"
#: counts the social-URL and label styles jointly per category; this
#: implementation exposes the full per-issuer/per-style breakdown.
N_PATTERNS = sum(len(patterns) for patterns in PII_EXTRACTORS.values())

_DIGIT = re.compile(r"\d")


def _open_categories(text: str) -> Iterable[tuple[str, tuple[re.Pattern[str], ...]]]:
    """The ``PII_EXTRACTORS`` items whose triggers occur in ``text``.

    Each open category comes with the patterns whose
    :data:`PII_PATTERN_GATES` gate also occurs, in bank order.  Both
    gates are exact, not heuristics: a skipped category or pattern could
    not have matched.  Under ``re.IGNORECASE`` the non-ASCII ``ı``,
    ``İ`` and ``ſ`` match ASCII letters that ``str.lower()`` does not
    produce from them (``"ıg: alice"`` is an Instagram label but holds
    no ``"ig"``), so non-ASCII text runs every pattern.
    """
    if not text.isascii():
        return PII_EXTRACTORS.items()
    lowered = text.lower()
    has_digit = _DIGIT.search(text) is not None
    opened = []
    for category, patterns in PII_EXTRACTORS.items():
        triggers = PII_TRIGGERS[category]
        if not (
            has_digit if triggers is None else any(map(lowered.__contains__, triggers))
        ):
            continue
        if category in PII_PATTERN_GATES:
            gate, _ = PII_PATTERN_GATES[category]
            if not (gate in lowered if isinstance(gate, str) else gate.search(text)):
                patterns = _UNGATED[category]
                if not patterns:
                    continue
        opened.append((category, patterns))
    return opened


def extract_pii(text: str) -> dict[str, list[str]]:
    """All PII matches per category (deduplicated, order preserved)."""
    found: dict[str, list[str]] = {}
    for category, patterns in _open_categories(text):
        values = dict.fromkeys(
            match.group(1) if match.groups() else match.group(0)
            for pattern in patterns
            for match in pattern.finditer(text)
        )
        if values:
            found[category] = list(values)
    return found


def pii_categories_present(text: str) -> frozenset[str]:
    """Which PII categories appear in ``text`` (presence only; faster)."""
    return frozenset(
        category
        for category, patterns in _open_categories(text)
        if any(pattern.search(text) for pattern in patterns)
    )


def evaluate_extractors(documents: Iterable[Document]) -> dict[str, float]:
    """Per-category presence accuracy against planted ground truth.

    Mirrors the paper's evaluation on a labelled dox sample: for each
    category, the fraction of documents where extracted presence equals
    planted presence.
    """
    totals: dict[str, int] = {c: 0 for c in PII_EXTRACTORS}
    correct: dict[str, int] = {c: 0 for c in PII_EXTRACTORS}
    n = 0
    for doc in documents:
        n += 1
        planted = set(doc.truth.pii_planted)
        present = pii_categories_present(doc.text)
        for category in PII_EXTRACTORS:
            totals[category] += 1
            if (category in planted) == (category in present):
                correct[category] += 1
    if n == 0:
        raise ValueError("no documents to evaluate")
    return {c: correct[c] / totals[c] for c in PII_EXTRACTORS}
