"""Message-stream replay over a corpus.

Replays a corpus's documents in timestamp order as a stream of
:class:`StreamMessage` items — the shape of data a deployed moderation
service receives.  Streams can be filtered by platform and batched, and
expose the metadata a serving runtime needs to size itself
(:meth:`MessageStream.platforms`, :meth:`MessageStream.time_span`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Iterator, Sequence

from repro.corpus.documents import Document
from repro.types import Platform, Source
from repro.util.batching import iter_batches


@dataclasses.dataclass(frozen=True, slots=True)
class StreamMessage:
    """One message as the service sees it — no ground truth attached.

    ``tenant`` identifies which gateway tenant streamed the message in
    (empty for single-tenant deployments).  The monitor scopes its
    per-target state by it, so one tenant's campaign/escalation state
    can never be read or advanced by another tenant's traffic; routing
    and scoring read only the text.

    ``text`` must be encodable as UTF-8: the router digests it and the
    tokenizer hashes it as UTF-8 bytes, so a lone surrogate is rejected
    here, naming the message, rather than deep inside a serving run.
    """

    message_id: int
    platform: Platform
    source: Source | None
    channel: str
    author: str
    timestamp: float
    text: str
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.text.isascii():
            return
        try:
            self.text.encode("utf-8")
        except UnicodeEncodeError as error:
            raise ValueError(
                f"message {self.message_id} has text UTF-8 cannot encode "
                f"({error.reason} at index {error.start})"
            ) from None

    @classmethod
    def from_document(cls, doc: Document) -> "StreamMessage":
        return cls(
            message_id=doc.doc_id,
            platform=doc.platform,
            source=doc.source,
            channel=doc.domain,
            author=doc.author,
            timestamp=doc.timestamp,
            text=doc.text,
        )


class MessageStream:
    """Timestamp-ordered replay of documents as stream messages."""

    def __init__(
        self,
        documents: Iterable[Document],
        platforms: Sequence[Platform] | None = None,
    ) -> None:
        wanted = set(platforms) if platforms is not None else None
        kept: list[Document] = []
        for doc in documents:
            if wanted is not None and doc.platform not in wanted:
                continue
            # A NaN timestamp poisons the sort silently (NaN compares
            # false against everything, so sorted() leaves it wherever
            # it happens to sit); reject it here instead.
            if not math.isfinite(doc.timestamp):
                raise ValueError(
                    f"document {doc.doc_id} has a non-finite timestamp "
                    f"({doc.timestamp!r}); streams need a total replay order"
                )
            kept.append(doc)
        self._documents = sorted(kept, key=lambda d: (d.timestamp, d.doc_id))

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[StreamMessage]:
        for doc in self._documents:
            yield StreamMessage.from_document(doc)

    def platforms(self) -> tuple[Platform, ...]:
        """Distinct platforms present, in stable (value-sorted) order."""
        return tuple(
            sorted({d.platform for d in self._documents}, key=lambda p: p.value)
        )

    def time_span(self) -> tuple[float, float] | None:
        """(first, last) message timestamp, or ``None`` for an empty stream."""
        if not self._documents:
            return None
        return self._documents[0].timestamp, self._documents[-1].timestamp

    def batches(self, size: int) -> Iterator[list[StreamMessage]]:
        """Yield messages in fixed-size batches (last one may be short)."""
        return iter_batches(self, size)

    def oracle_labels(self) -> dict[int, tuple[bool, bool]]:
        """message_id -> (is_cth, is_dox) ground truth, for evaluation only."""
        return {
            d.doc_id: (d.truth.is_cth, d.truth.is_dox) for d in self._documents
        }
