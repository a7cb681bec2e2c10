"""Threaded imageboard substrate (4chan/8kun-style).

Boards are the only platform where the paper had thread post ordering, so
all thread analyses (§6.3, §7.4, Figures 5/6) run on this substrate.  The
planner first lays out threads (sizes drawn from a truncated lognormal),
then lets the corpus builder reserve (thread, position) slots for planted
positives, and finally materialises every document.

Positions of planted positives follow the paper's findings: a small
probability of being the first or last post, otherwise uniform over the
thread interior — and the thread itself is chosen size-biased, because a
post planted "somewhere on the board" lands in a large thread with
probability proportional to its size.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from repro.corpus import profiles
from repro.corpus.documents import Document, GroundTruth
from repro.types import Platform, Source
from repro.util.rng import integer, pick

BOARD_DOMAIN_STEMS = (
    "fourleaf", "octagon", "kunboard", "greenpond", "wiredchan", "endhall",
    "deepboard", "nullchan", "polboard", "baitpond", "frogmarsh", "syschan",
)


def board_domains(count: int) -> tuple[str, ...]:
    return tuple(
        f"{BOARD_DOMAIN_STEMS[i % len(BOARD_DOMAIN_STEMS)]}{i // len(BOARD_DOMAIN_STEMS)}.example"
        for i in range(count)
    )


@dataclasses.dataclass(frozen=True, slots=True)
class PlantedSlot:
    """A reserved (thread, position) slot for a planted positive."""

    thread_index: int
    position: int


@dataclasses.dataclass(slots=True)
class _ThreadPlan:
    domain: str
    size: int
    start_time: float
    planted: dict[int, tuple[str, GroundTruth]] = dataclasses.field(default_factory=dict)


class BoardsPlanner:
    """Plans board threads and places planted positives into them."""

    def __init__(
        self,
        rng: np.random.Generator,
        total_posts: int,
        n_domains: int,
        time_range: tuple[float, float],
    ) -> None:
        if total_posts <= 0:
            raise ValueError("total_posts must be positive")
        self._rng = rng
        self._domains = board_domains(n_domains)
        self._threads: list[_ThreadPlan] = []
        t_min, t_max = time_range
        posts = 0
        while posts < total_posts:
            size = profiles.sample_thread_size(rng)
            size = min(size, total_posts - posts) or 1
            self._threads.append(
                _ThreadPlan(
                    domain=pick(rng, self._domains),
                    size=size,
                    start_time=float(rng.uniform(t_min, t_max)),
                )
            )
            posts += size
        sizes = np.array([t.size for t in self._threads], dtype=float)
        # Cumulative weights + binary search keeps slot sampling O(log n)
        # even with tens of thousands of planted positives.
        self._cum_size = np.cumsum(sizes)
        self._cum_size_large = np.cumsum(sizes ** 1.7)

    @property
    def threads(self) -> Sequence[_ThreadPlan]:
        return self._threads

    @property
    def total_posts(self) -> int:
        return int(sum(t.size for t in self._threads))

    def choose_slot(
        self,
        first_post_p: float,
        last_post_p: float,
        prefer_large: bool = False,
        thread_index: int | None = None,
    ) -> PlantedSlot:
        """Reserve a slot for a planted positive.

        ``prefer_large`` over-weights large threads (used for toxic-content
        CTH, which the paper finds in threads with more responses).  Pass
        ``thread_index`` to force the thread (used to co-plant a dox into a
        CTH's thread for the §6.3 overlap analysis).
        """
        rng = self._rng
        for _attempt in range(64):
            if thread_index is None:
                cum = self._cum_size_large if prefer_large else self._cum_size
                ti = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                ti = min(ti, len(self._threads) - 1)
            else:
                ti = thread_index
            thread = self._threads[ti]
            roll = rng.random()
            if roll < first_post_p:
                pos = 0
            elif roll < first_post_p + last_post_p:
                pos = thread.size - 1
            elif thread.size > 2:
                pos = integer(rng, 1, thread.size - 1)
            else:
                pos = integer(rng, 0, thread.size)
            if pos not in thread.planted:
                thread.planted[pos] = ("", GroundTruth())  # reserve
                return PlantedSlot(thread_index=ti, position=pos)
            if thread_index is not None:
                # Forced thread full at sampled position; try other positions.
                free = [p for p in range(thread.size) if p not in thread.planted]
                if not free:
                    thread_index = None  # give up on forcing, pick elsewhere
                    continue
                pos = pick(rng, free)
                thread.planted[pos] = ("", GroundTruth())
                return PlantedSlot(thread_index=ti, position=pos)
        raise RuntimeError("could not reserve a board slot after 64 attempts")

    def fill_slot(self, slot: PlantedSlot, text: str, truth: GroundTruth) -> None:
        self._threads[slot.thread_index].planted[slot.position] = (text, truth)

    def materialize(
        self,
        render_benign: Callable[[], str],
        next_doc_id: Callable[[], int],
        next_thread_id: Callable[[], int],
    ) -> list[Document]:
        """Render every thread into Document objects, planted slots included."""
        documents: list[Document] = []
        for thread in self._threads:
            thread_id = next_thread_id()
            for pos in range(thread.size):
                planted = thread.planted.get(pos)
                if planted is not None and planted[0]:
                    text, truth = planted
                else:
                    text, truth = render_benign(), GroundTruth()
                documents.append(
                    Document(
                        doc_id=next_doc_id(),
                        platform=Platform.BOARDS,
                        source=Source.BOARDS,
                        domain=thread.domain,
                        text=text,
                        timestamp=thread.start_time + pos * 37.0,
                        author="Anonymous",
                        thread_id=thread_id,
                        position=pos,
                        truth=truth,
                    )
                )
        return documents
