"""Single-extraction, cache-backed scoring core shared by both runtimes.

The batch study engine tokenizes every document exactly once
(:class:`~repro.nlp.tokenize.TokenCache` feeding
:meth:`~repro.nlp.features.HashingVectorizer.transform_hashes`); before
this module the streaming side re-did everything per batch and ran the
full PII regex bank twice per message (once for routing, once inside
the monitor).  :class:`ScoringCore` is the one implementation both
paths now consume:

* **tokenize** — a streaming :class:`~repro.nlp.tokenize.TokenHashCache`
  in front of the same :func:`~repro.nlp.tokenize.hash_text` the batch
  :class:`~repro.nlp.tokenize.TokenCache` uses, so batch and streaming
  features are identical by construction;
* **extract** — :func:`extract_targets` (PII regex bank + target-handle
  derivation) behind a bounded LRU.  Scoring never extracts: a caller
  extracts a message only once it scored over a threshold
  (:meth:`ScoredBatch.extraction`), so each distinct detected text is
  extracted at most once per core;
* **code** — the taxonomy :class:`~repro.taxonomy.coding.ExpertCoder`
  with its own LRU;
* **score** — one vectorizer call + two model dot products per batch.

Every cache memoises a pure function of the text, so eviction can only
change how much regex/tokenizer work runs — never an output byte.  A
:class:`ScoreWork` ledger rides along with each :class:`ScoredBatch` so
the serving cost model can bill tokenize / score / extract / state
seconds separately (:meth:`repro.serve.batching.ServiceCostModel.breakdown`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.extraction.pii import extract_pii
from repro.nlp.features import HashingVectorizer
from repro.nlp.tokenize import TokenHashCache
from repro.obs.ledger import Ledger, Series, field
from repro.obs.metrics import COUNTER
from repro.taxonomy.attack_types import AttackSubtype
from repro.taxonomy.coding import ExpertCoder
from repro.util.cache import LRUCache

if TYPE_CHECKING:  # service layer sits above the core; type-only import
    from repro.service.stream import StreamMessage

#: Distinct texts each per-core LRU holds: token hashes, extractions and
#: taxonomy codings.  Eviction only re-runs a pure function of the text.
TOKEN_CACHE_SIZE = 4096
EXTRACTION_CACHE_SIZE = 4096
CODING_CACHE_SIZE = 2048

#: Online-social-network PII categories whose values name a *target
#: account* — the handles campaign state is keyed on.
OSN_PLATFORMS = ("facebook", "instagram", "twitter", "youtube")


@dataclasses.dataclass(frozen=True)
class Extraction:
    """Everything one PII pass over a text yields — computed at most once.

    ``handles`` are ``platform:value`` strings, lowercased and
    order-preserving-deduplicated: "twitter.com/Alice" and
    "twitter: alice" in one message are the *same* target, so they must
    contribute one handle (case-folding after extraction used to leave
    both and double-count a single message's campaign activity).
    """

    handles: tuple[str, ...]
    pii: Mapping[str, tuple[str, ...]]

    @property
    def primary_handle(self) -> str | None:
        """The first-referenced target handle, or ``None``."""
        return self.handles[0] if self.handles else None


def extract_targets(text: str) -> Extraction:
    """Run the PII bank once and derive target handles from it."""
    pii = extract_pii(text)
    handles = tuple(dict.fromkeys(
        f"{platform}:{value.lower()}"
        for platform in OSN_PLATFORMS
        for value in pii.get(platform, ())
    ))
    return Extraction(
        handles=handles,
        pii={category: tuple(values) for category, values in pii.items()},
    )


_WORK = Series(
    COUNTER, "score_work_messages",
    "texts per component, split by cache hit/miss",
)


@dataclasses.dataclass
class ScoreWork(Ledger):
    """Ledger of the text-processing work one batch actually performed.

    Cache hits and misses are split out so the serving cost model can
    charge only the work that really ran: a template-heavy batch whose
    texts all hit the caches costs (simulated) tokenize/extract time of
    zero.  Counters are plain sums.  In the registry, work that ran vs.
    work a cache absorbed becomes one ``score_work_messages`` family
    labeled ``component={tokenize,extract,code}`` x ``cache={hit,miss}``
    — the cache-efficiency slice dashboards read.
    """

    messages: int = field(metric=Series(
        COUNTER, "score_messages", "messages through the scoring core"
    ))
    chars: int = field(metric=Series(
        COUNTER, "score_chars", "characters through the scoring core"
    ))
    #: texts actually tokenized (token-cache misses) and their chars
    tokenized_messages: int = field(
        metric=_WORK(component="tokenize", cache="miss")
    )
    tokenized_chars: int = 0
    token_cache_hits: int = field(
        metric=_WORK(component="tokenize", cache="hit")
    )
    #: texts actually run through the PII regex bank, and their chars
    extracted_messages: int = field(
        metric=_WORK(component="extract", cache="miss")
    )
    extracted_chars: int = 0
    extraction_cache_hits: int = field(
        metric=_WORK(component="extract", cache="hit")
    )
    #: texts actually run through the taxonomy signature bank
    coded_messages: int = field(metric=_WORK(component="code", cache="miss"))
    coding_cache_hits: int = field(
        metric=_WORK(component="code", cache="hit")
    )


@dataclasses.dataclass
class ScoredBatch:
    """One batch after the pure scoring pass, before any state updates.

    Holds everything :meth:`HarassmentMonitor.process_scored` needs to
    make alert decisions without touching a tokenizer: both model
    scores and per-message extraction slots.  A slot starts as
    ``None`` (scoring comes first; only detections are extracted), and
    :meth:`extraction` fills it on demand through the core's cache,
    recording the work on this batch's ledger.
    """

    messages: Sequence["StreamMessage"]
    cth_scores: np.ndarray
    dox_scores: np.ndarray
    work: ScoreWork
    _extractions: list[Extraction | None]
    _core: "ScoringCore"

    def __len__(self) -> int:
        return len(self.messages)

    def extraction(self, index: int) -> Extraction:
        """Extraction for message ``index`` — precomputed or on demand."""
        extraction = self._extractions[index]
        if extraction is None:
            extraction = self._core.extract(
                self.messages[index].text, work=self.work
            )
            self._extractions[index] = extraction
        return extraction

    def subtypes(self, index: int) -> tuple[AttackSubtype, ...]:
        """Taxonomy coding for message ``index`` (cached in the core)."""
        return self._core.code_text(self.messages[index].text, work=self.work)

    @classmethod
    def from_precomputed(
        cls,
        messages: Sequence["StreamMessage"],
        cth_scores: Sequence[float],
        dox_scores: Sequence[float],
        extractions: Sequence[Extraction | None],
        core: "ScoringCore",
    ) -> "ScoredBatch":
        """Rebuild a scored batch from stored scores and extractions.

        The serving runtime's shards keep only ``(message, scores,
        extraction)`` per message once a batch is scored, with the
        extraction ``None`` for a message under both thresholds; its
        keyed state pass rebuilds batches from them for
        :meth:`HarassmentMonitor.process_scored` — no re-tokenization,
        no re-extraction.  A ``None`` slot that is read anyway is
        extracted through ``core`` and billed to this batch.  The fresh
        work ledger accumulates only the work done during the pass:
        taxonomy coding, plus any such lazy extraction.
        """
        if not (
            len(messages) == len(cth_scores) == len(dox_scores)
            == len(extractions)
        ):
            raise ValueError(
                "messages, scores, and extractions must align "
                f"({len(messages)}/{len(cth_scores)}/{len(dox_scores)}"
                f"/{len(extractions)})"
            )
        return cls(
            messages=list(messages),
            cth_scores=np.asarray(cth_scores, dtype=float),
            dox_scores=np.asarray(dox_scores, dtype=float),
            work=ScoreWork(),
            _extractions=list(extractions),
            _core=core,
        )


class ScoringCore:
    """The shared text → (features, scores, extraction) engine.

    One instance per monitor (hence per shard): the caches are
    instance-local so per-shard work ledgers — and therefore simulated
    service times — are a pure function of that shard's message
    sequence, independent of thread scheduling under ``jobs=N``.
    """

    def __init__(
        self,
        cth_model,
        dox_model,
        vectorizer: HashingVectorizer | None = None,
    ) -> None:
        self._cth = cth_model
        self._dox = dox_model
        self.vectorizer = vectorizer or HashingVectorizer()
        self.token_cache = TokenHashCache(TOKEN_CACHE_SIZE)
        self.extraction_cache: LRUCache[str, Extraction] = LRUCache(
            EXTRACTION_CACHE_SIZE
        )
        self.coder = ExpertCoder(cache_size=CODING_CACHE_SIZE)

    # -- per-text primitives -----------------------------------------------

    def extract(self, text: str, work: ScoreWork | None = None) -> Extraction:
        """Cached :func:`extract_targets`, billing ``work`` for misses."""
        extraction, hit = self.extraction_cache.get_or_compute(
            text, extract_targets
        )
        if work is not None:
            if hit:
                work.extraction_cache_hits += 1
            else:
                work.extracted_messages += 1
                work.extracted_chars += len(text)
        return extraction

    def code_text(
        self, text: str, work: ScoreWork | None = None
    ) -> tuple[AttackSubtype, ...]:
        """Cached taxonomy coding, billing ``work`` for misses."""
        subtypes, hit = self.coder.code_text_cached(text)
        if work is not None:
            if hit:
                work.coding_cache_hits += 1
            else:
                work.coded_messages += 1
        return subtypes

    # -- batch scoring ------------------------------------------------------

    def features_for(
        self, texts: Sequence[str], work: ScoreWork | None = None
    ) -> sparse.csr_matrix:
        """Hashed features for ``texts`` through the streaming token cache."""
        arrays = []
        for text in texts:
            hashes, hit = self.token_cache.cached(text)
            arrays.append(hashes)
            if work is not None:
                if hit:
                    work.token_cache_hits += 1
                else:
                    work.tokenized_messages += 1
                    work.tokenized_chars += len(text)
        return self.vectorizer.transform_hashes(arrays)

    def score_messages(
        self, messages: Sequence["StreamMessage"], span=None
    ) -> ScoredBatch:
        """Pure vectorized scoring of one batch.

        Nothing is extracted here: extractions happen per detection,
        through :meth:`ScoredBatch.extraction`.

        ``span`` is an optional :class:`repro.obs.trace.SpanContext`
        (e.g. the enclosing batch span): the work ledger is annotated
        onto it so a trace viewer sees cache behaviour per batch.
        """
        texts = [m.text for m in messages]
        work = ScoreWork(messages=len(texts), chars=sum(len(t) for t in texts))
        features = self.features_for(texts, work=work)
        cth_scores = self._cth.predict_proba(features)
        dox_scores = self._dox.predict_proba(features)
        if span is not None:
            span.annotate(
                messages=work.messages,
                token_cache_hits=work.token_cache_hits,
                tokenized=work.tokenized_messages,
            )
        return ScoredBatch(
            messages=messages,
            cth_scores=cth_scores,
            dox_scores=dox_scores,
            work=work,
            _extractions=[None] * len(texts),
            _core=self,
        )
