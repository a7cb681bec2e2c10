"""Document, thread, and corpus containers with planted ground truth.

Every synthetic document carries a :class:`GroundTruth` record describing
what the generator planted in it.  The filtering pipeline never reads the
ground truth — it only sees ``Document.text`` — but simulated annotators and
the evaluation harness use it as the oracle label.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Iterable, Iterator, Sequence

from repro.taxonomy.attack_types import AttackSubtype
from repro.types import Gender, Platform, Source, Task


@dataclasses.dataclass(frozen=True, slots=True)
class GroundTruth:
    """What the generator planted in a document.

    ``is_dox`` / ``is_cth`` are the oracle labels for the two tasks.  A dox
    is only also a call to harassment when it contains explicit mobilising
    language (paper §2), which the generator controls via ``is_cth``.
    """

    is_dox: bool = False
    is_cth: bool = False
    #: Attack subtypes of a call to harassment (empty unless ``is_cth``).
    cth_subtypes: tuple[AttackSubtype, ...] = ()
    #: Stable identifier of the synthetic target, for repeated-dox linking.
    target_id: int | None = None
    #: Gender the generator used for the target's pronouns.
    target_gender: Gender = Gender.UNKNOWN
    #: PII categories whose values were rendered into the text.
    pii_planted: tuple[str, ...] = ()
    #: True when the text names family members or an employer (reputation
    #: harm-risk indicator; paper Table 7 marks this as manual annotation).
    reputation_info: bool = False
    #: True for deliberately difficult negatives (e.g. benign mobilising
    #: "contact your representative" posts, §5.4).
    hard_negative: bool = False

    @property
    def positive_for(self) -> tuple[str, ...]:
        labels = []
        if self.is_dox:
            labels.append("dox")
        if self.is_cth:
            labels.append("cth")
        return tuple(labels)

    def __getstate__(self) -> list:
        # The state the generated methods use (field values in field
        # order), without their dataclasses.fields() call per object.
        return list(_TRUTH_STATE(self))

    def __setstate__(self, state: list) -> None:
        for name, value in zip(_TRUTH_FIELDS, state):
            object.__setattr__(self, name, value)


_TRUTH_FIELDS = tuple(f.name for f in dataclasses.fields(GroundTruth))
_TRUTH_STATE = operator.attrgetter(*_TRUTH_FIELDS)


@dataclasses.dataclass(frozen=True, slots=True)
class Document:
    """A single post/message/paste/blog entry from one platform."""

    doc_id: int
    platform: Platform
    source: Source | None
    domain: str
    text: str
    timestamp: float
    author: str
    thread_id: int | None = None
    #: 0-based index within the thread (boards only in this study).
    position: int | None = None
    truth: GroundTruth = dataclasses.field(default_factory=GroundTruth)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("document text must be non-empty")

    @property
    def length(self) -> int:
        return len(self.text)

    def truth_for(self, task: Task) -> bool:
        """Oracle label of this document for one detection task."""
        return self.truth.is_dox if task is Task.DOX else self.truth.is_cth

    def __getstate__(self) -> list:
        # As GroundTruth's: the generated state, read and set at once.
        return list(_DOCUMENT_STATE(self))

    def __setstate__(self, state: list) -> None:
        for name, value in zip(_DOCUMENT_FIELDS, state):
            object.__setattr__(self, name, value)


_DOCUMENT_FIELDS = tuple(f.name for f in dataclasses.fields(Document))
_DOCUMENT_STATE = operator.attrgetter(*_DOCUMENT_FIELDS)


@dataclasses.dataclass(slots=True)
class Thread:
    """An ordered board thread (original post first)."""

    thread_id: int
    domain: str
    posts: list[Document] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.posts)

    @property
    def size(self) -> int:
        return len(self.posts)

    def responses_after(self, position: int) -> int:
        """Number of posts after ``position`` (the paper's response count)."""
        if position < 0 or position >= len(self.posts):
            raise IndexError(f"position {position} outside thread of size {len(self.posts)}")
        return len(self.posts) - position - 1


class Corpus:
    """All synthetic documents for one run, indexed by platform and thread."""

    def __init__(self, documents: Iterable[Document]) -> None:
        self._documents: list[Document] = list(documents)
        self._by_platform: dict[Platform, list[Document]] = {p: [] for p in Platform}
        self._threads: dict[int, Thread] = {}
        for doc in self._documents:
            self._by_platform[doc.platform].append(doc)
            if doc.thread_id is not None:
                thread = self._threads.get(doc.thread_id)
                if thread is None:
                    thread = Thread(thread_id=doc.thread_id, domain=doc.domain)
                    self._threads[doc.thread_id] = thread
                thread.posts.append(doc)
        for thread in self._threads.values():
            thread.posts.sort(key=lambda d: (d.position if d.position is not None else 0))

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    @property
    def documents(self) -> Sequence[Document]:
        return self._documents

    def by_platform(self, platform: Platform) -> Sequence[Document]:
        return self._by_platform[platform]

    def by_source(self, source: Source) -> list[Document]:
        return [d for d in self._by_platform[source.platform] if d.source is source]

    @property
    def threads(self) -> Sequence[Thread]:
        return list(self._threads.values())

    def thread(self, thread_id: int) -> Thread:
        return self._threads[thread_id]

    def counts_by_platform(self) -> dict[Platform, int]:
        return {p: len(docs) for p, docs in self._by_platform.items()}

    def date_range(self, platform: Platform) -> tuple[float, float]:
        docs = self._by_platform[platform]
        if not docs:
            raise ValueError(f"no documents for platform {platform}")
        stamps = [d.timestamp for d in docs]
        return min(stamps), max(stamps)
