"""Deterministic fault injection for exercising the recovery layer.

The recovery tests need to *manufacture* the failures a long pipeline
run eventually sees — bit rot in a cached artifact, a write truncated by
a kill — and they need to do so deterministically so a recovered run can
be asserted byte-identical to a clean one.  Nothing here draws
randomness: corruption sites are explicit byte offsets.

These helpers are test infrastructure shipped in the package (like the
paper-constant tables) so downstream users can fault-test their own
stage graphs.
"""

from __future__ import annotations

import pathlib


def flip_bytes(
    path: pathlib.Path | str,
    offsets: tuple[int, ...] = (0,),
    mask: int = 0xFF,
) -> None:
    """XOR the byte at each offset with ``mask`` (negative offsets count
    from the end).  Simulates bit rot without changing the file size, so
    only checksum verification — not a length check — can catch it."""
    path = pathlib.Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot flip bytes of empty file {path}")
    if mask == 0:
        raise ValueError("mask 0 would leave the file unchanged")
    for offset in offsets:
        data[offset % len(data)] ^= mask
    path.write_bytes(bytes(data))


def truncate_file(
    path: pathlib.Path | str, keep_fraction: float = 0.5
) -> None:
    """Drop the tail of a file, as a killed writer would have left it."""
    if not 0 <= keep_fraction < 1:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = pathlib.Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])
