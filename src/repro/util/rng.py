"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit seed and
derives independent child generators by name.  Deriving by name (rather
than by call order) means adding a new consumer of randomness does not
perturb existing experiments, which keeps benchmark output stable across
library revisions.

The corpus generator's hot draws (:func:`integer`, :func:`pick`,
:func:`weighted`) return what ``Generator.integers`` and
``Generator.choice`` return, and leave the generator in the same state,
without their per-call overhead (DESIGN.md §6).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Generic, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_SPAN32 = 1 << 32

T = TypeVar("T")


#: The unkeyed 8-byte blake2b state every stable hash starts from; it is
#: only ever copied.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def _feed(state: hashlib.blake2b, parts: tuple[object, ...]) -> hashlib.blake2b:
    """Feed ``parts`` to a blake2b ``state``: each part's repr in UTF-8,
    then a unit separator.  The one encoding of :func:`stable_hash`."""
    for part in parts:
        state.update(repr(part).encode("utf-8"))
        state.update(b"\x1f")
    return state


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in ``hash`` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  This uses blake2b over
    the repr of each part instead.
    """
    return int.from_bytes(_feed(_BLAKE2B_8.copy(), parts).digest(), "big") & _MASK64


def stable_hasher(*prefix: object) -> Callable[..., int]:
    """:func:`stable_hash` with its leading ``prefix`` parts fixed.

    ``stable_hasher("serve-route")(key) == stable_hash("serve-route",
    key)``.  blake2b is a streaming hash, so the prefix is hashed once
    and each call finishes its parts on a copy of that primed state.
    """
    primed = _feed(_BLAKE2B_8.copy(), prefix)

    def finish(*parts: object) -> int:
        return int.from_bytes(_feed(primed.copy(), parts).digest(), "big") & _MASK64

    return finish


def make_rng(seed: int) -> np.random.Generator:
    """Create a root generator from an integer seed."""
    # The sanctioned constructor DET001 funnels everyone else through.
    return np.random.default_rng(seed & _MASK64)  # repro: noqa[DET001]


def child_rng(seed: int, *name: object) -> np.random.Generator:
    """Derive an independent generator for the component named ``name``.

    ``child_rng(seed, "boards", 3)`` always yields the same stream for the
    same arguments, and streams for distinct names are independent.
    """
    return np.random.default_rng(stable_hash(seed, *name))  # repro: noqa[DET001]


def integer(rng: np.random.Generator, low: int, high: int) -> int:
    """One draw from ``[low, high)``: the value ``int(rng.integers(low, high))``.

    This replicates NumPy's scalar bounded draw, so it returns the same
    value and leaves ``rng`` in the same state, without the argument
    handling of ``Generator.integers`` (about half its cost).  A span
    ``high - low`` up to 2**32 takes Lemire's multiply-and-reject over
    32-bit words, which for a span of exactly 2**32 is the one word
    NumPy returns there.  Each word comes from ``next_uint32`` through
    the bit generator's public ctypes interface, the function
    ``Generator.integers`` calls (PCG64's, which hands out the upper
    half of a 64-bit output on the next call).  Every other span, and
    bounds outside int64, go to ``rng.integers`` itself: a span of 1
    draws nothing, and an empty range raises NumPy's own error.
    ``low`` and ``high`` are Python ints.  Unlike ``Generator.integers``
    this takes no lock: every generator here has one owner (DESIGN.md
    §6).
    """
    span = high - low
    if 1 < span <= _SPAN32 and _INT64_MIN <= low and high - 1 <= _INT64_MAX:
        bits = rng.bit_generator.ctypes
        next32, state = bits.next_uint32, bits.state
        scaled = next32(state) * span
        if scaled & 0xFFFFFFFF < span:
            threshold = (_SPAN32 - span) % span
            while scaled & 0xFFFFFFFF < threshold:
                scaled = next32(state) * span
        return low + (scaled >> 32)
    return int(rng.integers(low, high))


def pick(rng: np.random.Generator, seq: Sequence[T]) -> T:
    """One uniform draw from ``seq``: the element ``rng.choice(seq)`` returns.

    ``Generator.choice`` without ``p``, ``size`` or ``replace`` draws
    ``rng.integers(0, len(seq))`` and indexes with it, so this returns
    the same element and leaves ``rng`` in the same state.  It skips
    the conversion of ``seq`` to an array on every call, and returns
    the sequence's own object rather than a NumPy scalar.
    """
    return seq[integer(rng, 0, len(seq))]


class Weights(Generic[T]):
    """Items with fixed probabilities, for :func:`weighted` draws.

    Holds ``p`` as float64, as ``Generator.choice`` converts it, and the
    CDF ``choice`` builds from it for a weighted draw (``cdf =
    p.cumsum(); cdf /= cdf[-1]``).  Construction runs NumPy's own checks
    on ``p``, through ``choice`` on a throwaway generator, so a ``p``
    that is negative, not finite, of the wrong length or not summing to
    1 within sqrt(eps) raises the ``ValueError`` ``choice`` raises.
    """

    __slots__ = ("items", "p", "cdf")

    def __init__(self, items: Sequence[T], p: Sequence[float]) -> None:
        self.items = tuple(items)
        make_rng(0).choice(len(self.items), p=p)
        self.p = np.array(p, dtype=np.float64)
        cdf = self.p.cumsum()
        cdf /= cdf[-1]
        self.cdf: list[float] = cdf.tolist()


def weighted(rng: np.random.Generator, weights: Weights[T]) -> T:
    """One draw from ``weights``: the item of index
    ``rng.choice(len(weights.items), p=weights.p)``.

    ``Generator.choice`` with ``p`` and no ``size`` draws one
    ``random()`` and searches its CDF with ``side='right'``;
    ``bisect_right`` over the same floats finds the same index, and
    ``rng`` is left in the same state.
    """
    return weights.items[bisect.bisect_right(weights.cdf, rng.random())]
