"""Expert taxonomy coding of calls to harassment (paper §6.1).

The paper's domain-expert authors read each classified call to harassment
and assigned one or more taxonomy subcategories.  This module implements
the equivalent as a transparent rule-based coder: a bank of tactic
signature patterns per subcategory, applied to the post text.  The coder
never reads planted ground truth, so coder quality is measurable against
it (see tests) — the role the paper's expert inter-annotator agreement
(kappa 0.845) played.

Each signature carries a lowercase literal trigger that every one of its
matches holds.  On ASCII text the coder lowercases once and runs a
subtype's pattern only if one of its triggers occurs, so a post pays a
few substring tests for the subtypes it cannot match instead of a full
IGNORECASE scan each.  Non-ASCII text runs every pattern (see
:meth:`ExpertCoder._code_uncached`).
"""

from __future__ import annotations

import dataclasses
import re
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.taxonomy.attack_types import PARENT_OF, AttackSubtype, AttackType
from repro.util.cache import LRUCache

if TYPE_CHECKING:  # avoid a circular import with repro.corpus.documents
    from repro.corpus.documents import Document

#: Tactic signatures as ``(trigger, pattern)`` pairs.  The trigger is a
#: lowercase literal that every match of the pattern holds, so a text
#: whose lowercase form lacks it cannot match.  Order within a subtype
#: does not matter; a post can (and often does) match several subtypes —
#: multi-type calls are a paper finding (§6.2), not an error.
_SIGNATURES: Mapping[AttackSubtype, Sequence[tuple[str, str]]] = {
    AttackSubtype.DOXING: (
        ("home address", r"phone number and home address"),
        ("lives", r"where (he|she|they) lives"),
        ("real name", r"real name and address"),
        ("full name", r"full name, number"),
        ("drop the info", r"drop the info"),
    ),
    AttackSubtype.LEAKED_CHATS_PROFILE: (
        ("server logs", r"server logs"),
        ("chat history", r"chat history"),
        ("post the dms", r"post the dms"),
        ("see the logs", r"see the logs"),
    ),
    AttackSubtype.NON_CONSENSUAL_MEDIA_EXPOSURE: (
        ("private", r"private (pictures|photos|pics)"),
    ),
    AttackSubtype.OUTING_DEADNAMING: (("old name", r"old name"),),
    AttackSubtype.DOX_PROPAGATION: (
        ("repost", r"repost (his|her|their) info"),
        ("spread the file", r"spread the file"),
        ("mirror the dox", r"mirror the dox"),
    ),
    AttackSubtype.CONTENT_LEAKAGE_MISC: (
        ("out in the open", r"out in the open"),
        ("leak whatever", r"leak whatever"),
    ),
    AttackSubtype.IMPERSONATED_PROFILES: (
        ("fake profile", r"fake profile"),
        ("accounts in", r"accounts in (his|her|their) name"),
        ("clone", r"clone (his|her|their) account"),
    ),
    AttackSubtype.SYNTHETIC_PORNOGRAPHY: (
        ("fake explicit edits", r"fake explicit edits"),
        ("photoshop", r"photoshop .{1,30} explicit"),
    ),
    AttackSubtype.IMPERSONATION_MISC: (
        ("pretend to be", r"pretend to be"),
        ("pose as", r"pose as"),
    ),
    AttackSubtype.ACCOUNT_LOCKOUT: (
        ("phish", r"phish"),
        ("reset the password", r"reset the password"),
        ("lock", r"lock (him|her|them) out"),
    ),
    AttackSubtype.LOCKOUT_MISC: (
        ("take over whatever", r"take over whatever"),
        ("get control of", r"get control of (his|her|their) pages"),
    ),
    AttackSubtype.NEGATIVE_RATINGS_REVIEWS: (
        ("one star reviews", r"one star reviews"),
        ("bad reviews", r"bad reviews"),
    ),
    AttackSubtype.RAIDING: (
        ("raid", r"\braid\b"),
        ("pile into", r"pile into"),
        ("swarm the comment", r"swarm the comment"),
        ("overwhelm the mods", r"overwhelm the mods"),
    ),
    AttackSubtype.SPAMMING: (
        ("spam", r"spam (him|her|them|his|her|their)"),
        ("blast", r"blast (his|her|their) phone"),
        ("nonstop", r"spam .{1,20} nonstop"),
        ("spam the forms", r"spam the forms"),
    ),
    AttackSubtype.OVERLOADING_MISC: (
        ("in notifications", r"bury .{1,20} in notifications"),
        ("mentions unusable", r"mentions unusable"),
        ("flood the inbox", r"flood the inbox"),
        ("bury the mentions", r"bury the mentions"),
        ("overwhelm everything", r"overwhelm everything"),
        ("do not let up", r"do not let up"),
    ),
    AttackSubtype.HASHTAG_HIJACKING: (
        ("hijack", r"hijack .{1,20} hashtag"),
        ("take over the tag", r"take over the tag"),
    ),
    AttackSubtype.PUBLIC_OPINION_MISC: (
        ("keep pushing the story", r"keep pushing the story"),
        ("made up version", r"made up version"),
        ("seed the fake quote", r"seed the fake quote"),
        ("spread a false narrative", r"spread a false narrative"),
    ),
    AttackSubtype.FALSE_REPORTING_TO_AUTHORITIES: (
        ("landlord and to the police", r"landlord and to the police"),
        ("employer", r"call (his|her|their) employer"),
        ("false complaint", r"false complaint"),
        ("tip off immigration", r"tip off immigration"),
        ("fired", r"get (him|her|them) fired"),
    ),
    AttackSubtype.MASS_FLAGGING: (
        ("report", r"mass[- ]report"),
        ("flag", r"flag (his|her|their) (videos|posts|account)"),
        ("report every post", r"report every post"),
    ),
    AttackSubtype.REPORTING_MISC: (
        ("everywhere", r"report (him|her|them) everywhere"),
        ("reported", r"get (him|her|them) reported"),
    ),
    AttackSubtype.REPUTATIONAL_HARM_PRIVATE: (
        ("family", r"message (his|her|their) family"),
        ("boss", r"email (his|her|their) boss"),
        ("coworkers", r"contact (his|her|their) coworkers"),
    ),
    AttackSubtype.REPUTATIONAL_HARM_PUBLIC: (
        ("neighborhood group", r"neighborhood group"),
        ("flyers", r"flyers"),
        ("name trend", r"name trend"),
        ("alert the community", r"alert the community"),
    ),
    AttackSubtype.REPUTATIONAL_HARM_MISC: (
        ("reputation", r"ruin (his|her|their) reputation"),
        ("circle", r"nobody in (his|her|their) circle"),
    ),
    AttackSubtype.STALKING_OR_TRACKING: (
        ("track where", r"track where"),
        ("follow", r"follow (his|her|their) car"),
        ("keep a log on", r"keep a log on"),
    ),
    AttackSubtype.SURVEILLANCE_MISC: (
        ("watch everything", r"watch everything"),
        ("monitor", r"monitor (his|her|their) accounts"),
    ),
    AttackSubtype.HATE_SPEECH: (
        ("worst insults", r"worst insults"),
        ("replies with abuse", r"replies with abuse"),
    ),
    AttackSubtype.UNWANTED_EXPLICIT_CONTENT: (
        ("explicit images", r"explicit images"),
        ("graphic content", r"graphic content"),
    ),
    AttackSubtype.TOXIC_CONTENT_MISC: (
        ("miserable", r"interaction .{1,20} miserable"),
        ("pile abuse", r"pile abuse"),
    ),
    AttackSubtype.GENERIC: (
        ("you know what to do", r"you know what to do"),
        ("whatever it takes", r"whatever it takes"),
        ("no specifics needed", r"no specifics needed"),
        ("off the internet", r"bully .{1,30} off the internet"),
        ("life online hell", r"life online hell"),
    ),
}

#: Per subtype, in ``_SIGNATURES`` order: its distinct triggers and one
#: IGNORECASE alternation of its signatures.
_BANK: tuple[tuple[AttackSubtype, tuple[str, ...], re.Pattern[str]], ...] = tuple(
    (
        subtype,
        tuple(dict.fromkeys(trigger for trigger, _ in signatures)),
        re.compile("|".join(f"(?:{p})" for _, p in signatures), re.IGNORECASE),
    )
    for subtype, signatures in _SIGNATURES.items()
)


@dataclasses.dataclass(frozen=True, slots=True)
class CodedDocument:
    """A call to harassment with its coder-assigned taxonomy labels."""

    document: Document
    subtypes: tuple[AttackSubtype, ...]

    @property
    def parents(self) -> frozenset[AttackType]:
        return frozenset(PARENT_OF[s] for s in self.subtypes)


class ExpertCoder:
    """Rule-based stand-in for the paper's domain-expert coders.

    ``cache_size`` bounds an optional LRU memoising :meth:`code_text`
    per distinct text — coding is a pure function of the text, so the
    cache (and its eviction) can never change which subtypes a post
    gets, only how often the signature bank actually runs.
    """

    def __init__(self, cache_size: int = 0) -> None:
        self._cache: LRUCache[str, tuple[AttackSubtype, ...]] | None = (
            LRUCache(cache_size) if cache_size > 0 else None
        )

    def code_text(self, text: str) -> tuple[AttackSubtype, ...]:
        """Assign taxonomy subtypes to raw text.

        A post that matches no specific tactic signature but was routed to
        the coder as a call to harassment gets the GENERIC label, mirroring
        the paper's handling of calls "without an explicit tactic".
        """
        return self.code_text_cached(text)[0]

    def code_text_cached(self, text: str) -> tuple[tuple[AttackSubtype, ...], bool]:
        """Like :meth:`code_text`, plus whether the result was a cache hit."""
        if self._cache is not None:
            return self._cache.get_or_compute(text, self._code_uncached)
        return self._code_uncached(text), False

    @staticmethod
    def _code_uncached(text: str) -> tuple[AttackSubtype, ...]:
        # The trigger gate is exact, not a heuristic: a skipped subtype
        # could not have matched.  Under IGNORECASE the non-ASCII ``ı``,
        # ``İ`` and ``ſ`` match ASCII letters that ``str.lower()`` does not
        # produce from them (``"ſpam him"`` holds no ``"spam"``), so
        # non-ASCII text runs every pattern.
        if text.isascii():
            lowered = text.lower()
            matched = tuple(
                subtype
                for subtype, triggers, pattern in _BANK
                if any(map(lowered.__contains__, triggers)) and pattern.search(text)
            )
        else:
            matched = tuple(
                subtype for subtype, _, pattern in _BANK if pattern.search(text)
            )
        if not matched:
            return (AttackSubtype.GENERIC,)
        # GENERIC is residual: drop it when a specific tactic matched too.
        if len(matched) > 1 and AttackSubtype.GENERIC in matched:
            matched = tuple(s for s in matched if s is not AttackSubtype.GENERIC)
        return matched

    def code_texts(self, texts: Sequence[str]) -> list[tuple[AttackSubtype, ...]]:
        """:meth:`code_text` over a batch (memoised when caching is on)."""
        return [self.code_text(text) for text in texts]

    def code(self, document: Document) -> CodedDocument:
        return CodedDocument(document=document, subtypes=self.code_text(document.text))

    def code_all(self, documents: Iterable[Document]) -> list[CodedDocument]:
        return [self.code(doc) for doc in documents]
