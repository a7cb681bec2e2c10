"""Artifact integrity: the engine's self-healing layer.

Two cooperating pieces make a cache trustworthy at the paper's scale
(560M+ posts means days-long runs that *will* see truncated writes and
bad disks):

* :class:`CacheManifest` — a per-cache JSON manifest recording a blake2b
  content checksum for every artifact the store writes.  The store
  records the entry before each ``save`` renames the artifact into place
  and verifies artifacts against it on ``load``, raising
  :class:`ArtifactIntegrityError` on a mismatch or a missing entry so
  corruption is caught *before* the bytes are unpickled.
* Quarantine-and-recompute — when verification (or unpickling itself)
  fails, the engine moves the bad file to ``<cache>/quarantine/``,
  re-executes the stage and only the upstream subgraph it actually
  needs, and records the stage as ``STATUS_RECOVERED`` instead of
  aborting the run (see :meth:`Engine._load`).

:func:`verify_cache` is the offline face of the same checks, driving
``repro cache verify``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.engine.store import ArtifactStore

#: Filename of the integrity manifest inside a cache directory.
MANIFEST_NAME = "manifest.json"

#: Subdirectory where failed artifacts are moved for post-mortem.
QUARANTINE_DIR = "quarantine"

_CHUNK = 1 << 20


def checksum_file(path: pathlib.Path) -> str:
    """Content checksum (32-hex blake2b) of a file, read in chunks."""
    digest = hashlib.blake2b(digest_size=16)
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactIntegrityError(RuntimeError):
    """A cached artifact's bytes do not match its recorded checksum, or
    the manifest records none (``expected`` is None)."""

    def __init__(
        self, path: pathlib.Path, expected: str | None, actual: str
    ) -> None:
        recorded = (
            "no manifest entry" if expected is None else f"expected {expected[:12]}…"
        )
        super().__init__(
            f"artifact {path.name} failed integrity verification "
            f"({recorded}, found {actual[:12]}…)"
        )
        self.path = path
        self.expected = expected
        self.actual = actual


class CacheManifest:
    """Atomic JSON manifest mapping artifact filenames to checksums.

    Writers re-read the file under a lock before every update, so
    concurrent stage threads in one process never lose entries; the
    rewrite itself goes through a temp file + ``os.replace`` like every
    artifact write.  An artifact absent from the manifest fails
    verification like a corrupt one — ``repro cache verify`` reports it
    as ``unmanifested``.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()

    def _read(self) -> dict[str, str]:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        entries = raw.get("artifacts", {}) if isinstance(raw, dict) else {}
        return {str(k): str(v) for k, v in entries.items()}

    def _write(self, entries: dict[str, str]) -> None:
        payload = json.dumps(
            {"version": 1, "artifacts": dict(sorted(entries.items()))},
            indent=0,
            sort_keys=True,
        )
        tmp = self.path.with_name(f".tmp-{os.getpid()}-{self.path.name}")
        tmp.write_text(payload)
        os.replace(tmp, self.path)

    def expected(self, filename: str) -> str | None:
        """The recorded checksum for ``filename``, or None if unmanifested."""
        return self._read().get(filename)

    def entries(self) -> dict[str, str]:
        """A snapshot of every (filename, checksum) pair."""
        return self._read()

    def record(self, filename: str, digest: str) -> None:
        with self._lock:
            entries = self._read()
            entries[filename] = digest
            self._write(entries)

    def forget(self, filename: str) -> None:
        with self._lock:
            entries = self._read()
            if entries.pop(filename, None) is not None:
                self._write(entries)

    def prune_missing(self, root: pathlib.Path) -> int:
        """Drop entries whose artifact file no longer exists under ``root``
        (externally deleted files would otherwise report as missing
        forever); returns how many were dropped."""
        with self._lock:
            entries = self._read()
            stale = [name for name in entries if not (root / name).exists()]
            for name in stale:
                del entries[name]
            if stale:
                self._write(entries)
        return len(stale)


#: Verification statuses reported by :func:`verify_cache`.
VERIFY_OK = "ok"  # checksum matches
VERIFY_CORRUPT = "corrupt"  # checksum mismatch: bytes changed on disk
VERIFY_UNMANIFESTED = "unmanifested"  # no manifest entry: fails on load
VERIFY_MISSING = "missing"  # manifested but the file is gone


@dataclasses.dataclass(frozen=True)
class VerifyFinding:
    """One artifact's verification outcome (for ``repro cache verify``)."""

    filename: str
    status: str


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Outcome of verifying every artifact in a cache directory."""

    findings: tuple[VerifyFinding, ...]

    def count(self, status: str) -> int:
        return sum(1 for f in self.findings if f.status == status)

    @property
    def ok(self) -> bool:
        """True when every artifact matches its manifest entry."""
        return all(f.status == VERIFY_OK for f in self.findings)


def verify_cache(store: "ArtifactStore") -> VerifyReport:
    """Check every artifact in ``store`` against the cache manifest.

    Read-only: corrupt and unmanifested artifacts are reported, not
    quarantined — the engine quarantines lazily on the next load that
    needs them.
    """
    manifest = store.manifest.entries()
    findings: list[VerifyFinding] = []
    seen: set[str] = set()
    for entry in store.entries():
        name = entry.path.name
        seen.add(name)
        expected = manifest.get(name)
        if expected is None:
            status = VERIFY_UNMANIFESTED
        elif checksum_file(entry.path) != expected:
            status = VERIFY_CORRUPT
        else:
            status = VERIFY_OK
        findings.append(VerifyFinding(filename=name, status=status))
    for name in sorted(manifest):
        if name not in seen:
            findings.append(VerifyFinding(filename=name, status=VERIFY_MISSING))
    return VerifyReport(findings=tuple(findings))
