"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit seed and
derives independent child generators by name.  Deriving by name (rather
than by call order) means adding a new consumer of randomness does not
perturb existing experiments, which keeps benchmark output stable across
library revisions.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in ``hash`` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  This uses blake2b over
    the repr of each part instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big") & _MASK64


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


def pick(rng: np.random.Generator, seq: Sequence[T]) -> T:
    """One uniform draw from ``seq``: the element ``rng.choice(seq)`` returns.

    ``Generator.choice`` without ``p``, ``size`` or ``replace`` draws
    ``rng.integers(0, len(seq))`` and indexes with it, so this returns
    the same element and leaves ``rng`` in the same state.  It skips
    the conversion of ``seq`` to an array on every call, and returns
    the sequence's own object rather than a NumPy scalar.
    """
    return seq[int(rng.integers(0, len(seq)))]
