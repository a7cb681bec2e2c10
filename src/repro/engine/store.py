"""Disk-backed artifact store for stage outputs.

Artifacts live flat under one cache directory, named
``<stage>-<key>.pkl`` where ``<key>`` is the stage's 32-hex content
key — so a config change produces new files rather than overwriting old
ones, and ``repro cache ls`` can attribute every file to its stage.

Every stage artifact is one pickle, and only the store knows it:
:meth:`ArtifactStore.save` is the one write path, :meth:`ArtifactStore.load`
the one read path.  (JSONL through :mod:`repro.corpus.io` and ``.npz``
filter models through :mod:`repro.nlp.serialize` stay the exchange
formats of ``repro generate``, ``train`` and ``score``.)  Writes go
through a temp file + ``os.replace`` so a crashed run never leaves a
truncated artifact behind, and every write records a content checksum in
the cache manifest (:mod:`repro.engine.recovery`) before the artifact
takes its name; ``load`` verifies it, so corruption, or an artifact the
manifest does not list, surfaces as :class:`ArtifactIntegrityError`
before anything is unpickled, and :meth:`ArtifactStore.quarantine` moves
bad files aside for the engine's recompute path.  Files an older store
wrote in other formats are still listed, verified and cleared, but never
loaded.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import re
import threading
from typing import Iterable

from repro.engine.recovery import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    ArtifactIntegrityError,
    CacheManifest,
    checksum_file,
)


_FILENAME_RE = re.compile(r"^(?P<stage>.+)-(?P<key>[0-9a-f]{32})(?P<ext>\.[a-z]+)$")


def _sanitize(stage: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", stage)


@dataclasses.dataclass(frozen=True)
class ArtifactEntry:
    """One cached artifact on disk (for ``repro cache ls``)."""

    stage: str
    key: str
    path: pathlib.Path
    n_bytes: int


class ArtifactStore:
    """Flat on-disk artifact cache keyed by (stage name, content key)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest = CacheManifest(self.root / MANIFEST_NAME)

    def path_for(self, stage: str, key: str) -> pathlib.Path:
        return self.root / f"{_sanitize(stage)}-{key}.pkl"

    def has(self, stage: str, key: str) -> bool:
        return self.path_for(stage, key).exists()

    def save(self, stage: str, key: str, value: object) -> pathlib.Path:
        final = self.path_for(stage, key)
        tmp = final.with_name(
            f".tmp-{os.getpid()}-{threading.get_ident()}-{final.name}"
        )
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            # The entry goes first: a reader that finds the artifact finds
            # its entry too, and a crash in between leaves an entry
            # without a file, which ``has`` reads as absent.
            self.manifest.record(final.name, checksum_file(tmp))
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        return final

    def load(self, stage: str, key: str) -> object:
        """Load an artifact, verifying its checksum against the manifest.

        A checksum mismatch, or an artifact the manifest does not list,
        raises :class:`ArtifactIntegrityError` before the bytes are
        unpickled.
        """
        path = self.path_for(stage, key)
        expected = self.manifest.expected(path.name)
        actual = checksum_file(path)
        if actual != expected:
            raise ArtifactIntegrityError(path, expected, actual)
        with path.open("rb") as handle:
            return pickle.load(handle)

    def quarantine(self, path: pathlib.Path) -> pathlib.Path | None:
        """Move a failed artifact into ``<root>/quarantine/`` for
        post-mortem and drop its manifest entry; returns the new path
        (None when the file already vanished)."""
        path = pathlib.Path(path)
        self.manifest.forget(path.name)
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(exist_ok=True)
        dest = qdir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = qdir / f"{path.name}.{suffix}"
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            # Within one run only the calling thread quarantines, once
            # per file; another process healing the same cache may have
            # moved it first.
            return None
        return dest

    def entries(self) -> list[ArtifactEntry]:
        """Cached artifacts sorted by (stage, key) — a stable, diffable
        order independent of directory enumeration and mtimes.  Leftover
        ``.tmp-*`` files from killed runs are not artifacts and are
        skipped (their names would otherwise satisfy the pattern with a
        mangled stage prefix)."""
        found: list[ArtifactEntry] = []
        for path in sorted(self.root.iterdir()):
            if path.name.startswith(".tmp-"):
                continue
            match = _FILENAME_RE.match(path.name)
            if match is None or not path.is_file():
                continue
            found.append(
                ArtifactEntry(
                    stage=match.group("stage"),
                    key=match.group("key"),
                    path=path,
                    n_bytes=path.stat().st_size,
                )
            )
        return sorted(found, key=lambda e: (e.stage, e.key))

    def sweep_temp_files(self) -> int:
        """Delete stale ``.tmp-*`` droppings left by killed writers."""
        removed = 0
        for path in sorted(self.root.iterdir()):
            if path.name.startswith(".tmp-") and path.is_file():
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self, stages: Iterable[str] | None = None) -> int:
        """Delete cached artifacts (optionally only for some stages),
        dropping their manifest entries; a full clear also sweeps stale
        temp files."""
        wanted = None if stages is None else {_sanitize(s) for s in stages}
        removed = 0
        for entry in self.entries():
            if wanted is not None and entry.stage not in wanted:
                continue
            entry.path.unlink(missing_ok=True)
            self.manifest.forget(entry.path.name)
            removed += 1
        if wanted is None:
            removed += self.sweep_temp_files()
            self.manifest.prune_missing(self.root)
        return removed
