"""Deterministic bounded LRU cache for pure text-keyed computations.

The scoring core (:mod:`repro.score`) memoises regex extraction,
taxonomy coding, and tokenization per *distinct text*.  Template-heavy
corpora — repeated copypasta being exactly the coordinated-incitement
pattern the paper studies — make these caches pay for themselves many
times over.

Determinism contract: the cache only ever stores values of **pure**
functions of the key, so a hit and a miss produce the same value and
eviction can change *work*, never *outputs*.  Recency order is an
``OrderedDict`` (insertion/access order), a pure function of the call
sequence — no clocks, no hash-salted iteration — so which calls hit
(the flag :meth:`LRUCache.get_or_compute` returns, which callers tally
into their work ledgers) is the same on every run of a fixed call
sequence.
"""

from __future__ import annotations

import collections
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded least-recently-used mapping that reports each hit."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: collections.OrderedDict[K, V] = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, key: K, compute: Callable[[K], V]) -> tuple[V, bool]:
        """Return ``(value, hit)``; computes and stores on a miss.

        ``compute`` must be a pure function of ``key`` — that is what
        makes eviction unobservable in outputs.
        """
        entry = self._entries.get(key)
        if entry is not None or key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key], True
        value = compute(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value, False
