"""Flat (non-threaded) platform substrate: chat, Gab, pastes, blogs.

These platforms are modelled as streams of documents attributed to
channels/domains.  Thread ordering was unavailable to the paper for these
data sets, so no position bookkeeping is needed — only platform register,
channel structure, and timestamps.
"""

from __future__ import annotations

import datetime as dt
from typing import Callable, Sequence

import numpy as np

from repro.corpus.documents import Document, GroundTruth
from repro.types import Platform, Source
from repro.util.rng import integer, pick

PASTE_DOMAIN_STEMS = (
    "pastehaven", "textdrop", "snipbin", "rawdump", "clipstash", "notebin",
    "textvault", "pastecove", "dumptext", "binpost",
)
CHAT_CHANNEL_STEMS = (
    "general", "memes", "raids", "politics", "offtopic", "vetting",
    "announcements", "dms-leaks", "screenshots", "recruiting",
)
GAB_DOMAIN = "gab.example"


def date_range_seconds(min_date: str, max_date: str) -> tuple[float, float]:
    """Convert the paper's ISO date strings to epoch-second bounds."""
    t0 = dt.datetime.fromisoformat(min_date).replace(tzinfo=dt.timezone.utc).timestamp()
    t1 = dt.datetime.fromisoformat(max_date).replace(tzinfo=dt.timezone.utc).timestamp()
    if t1 <= t0:
        raise ValueError(f"empty date range: {min_date}..{max_date}")
    return t0, t1


def paste_domains(count: int) -> tuple[str, ...]:
    return tuple(
        f"{PASTE_DOMAIN_STEMS[i % len(PASTE_DOMAIN_STEMS)]}{i // len(PASTE_DOMAIN_STEMS)}.example"
        for i in range(count)
    )


def chat_channels(source: Source, count: int) -> tuple[str, ...]:
    prefix = "tg" if source is Source.TELEGRAM else "dc"
    return tuple(
        f"{prefix}/{CHAT_CHANNEL_STEMS[i % len(CHAT_CHANNEL_STEMS)]}-{i // len(CHAT_CHANNEL_STEMS)}"
        for i in range(count)
    )


class FlatPlatformBuilder:
    """Accumulates background and planted documents for one flat source."""

    def __init__(
        self,
        rng: np.random.Generator,
        platform: Platform,
        source: Source | None,
        domains: Sequence[str],
        time_range: tuple[float, float],
    ) -> None:
        if not domains:
            raise ValueError("at least one domain is required")
        self._rng = rng
        self._platform = platform
        self._source = source
        self._domains = tuple(domains)
        self._time_range = time_range
        self._planted: list[tuple[str, GroundTruth]] = []
        self._n_background = 0

    def add_background(self, count: int) -> None:
        if count < 0:
            raise ValueError("background count must be non-negative")
        self._n_background += count

    def plant(self, text: str, truth: GroundTruth) -> None:
        self._planted.append((text, truth))

    def _author(self) -> str:
        return f"user{integer(self._rng, 1, 200_000)}"

    def materialize(
        self,
        render_benign: Callable[[], str],
        next_doc_id: Callable[[], int],
    ) -> list[Document]:
        rng = self._rng
        t_min, t_max = self._time_range
        documents: list[Document] = []
        for _ in range(self._n_background):
            documents.append(
                Document(
                    doc_id=next_doc_id(),
                    platform=self._platform,
                    source=self._source,
                    domain=pick(rng, self._domains),
                    text=render_benign(),
                    timestamp=float(rng.uniform(t_min, t_max)),
                    author=self._author(),
                    truth=GroundTruth(),
                )
            )
        for text, truth in self._planted:
            documents.append(
                Document(
                    doc_id=next_doc_id(),
                    platform=self._platform,
                    source=self._source,
                    domain=pick(rng, self._domains),
                    text=text,
                    timestamp=float(rng.uniform(t_min, t_max)),
                    author=self._author(),
                    truth=truth,
                )
            )
        return documents
