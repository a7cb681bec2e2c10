"""Staged execution engine: cacheable, parallelizable pipeline stages.

The paper's Fig.-1 pipeline filtered 560M+ posts through seed → train →
active-learning → threshold → expert-annotation stages; at that scale
every stage is a separately checkpointed, re-runnable job.  This package
provides the execution substrate for the reproduction's equivalent:
content-hashed cache keys (:mod:`repro.engine.keys`), a disk-backed
artifact store that pickles every stage artifact under a checksum
manifest (:mod:`repro.engine.store`), a demand-driven scheduler with
per-stage observability (:mod:`repro.engine.core`), and a self-healing
layer — artifact integrity verification, quarantine-and-recompute, and
a deterministic fault-injection harness (:mod:`repro.engine.recovery`,
:mod:`repro.engine.faults`).
"""

from repro.engine.core import (
    STATUS_HIT,
    STATUS_RECOVERED,
    STATUS_RUN,
    Engine,
    RunOutcome,
    RunReport,
    Stage,
    StageRecord,
)
from repro.engine.keys import canonicalize, fingerprint
from repro.engine.recovery import (
    ArtifactIntegrityError,
    CacheManifest,
    VerifyReport,
    verify_cache,
)
from repro.engine.store import ArtifactEntry, ArtifactStore

__all__ = [
    "Engine",
    "RunOutcome",
    "RunReport",
    "Stage",
    "StageRecord",
    "STATUS_RUN",
    "STATUS_HIT",
    "STATUS_RECOVERED",
    "ArtifactIntegrityError",
    "CacheManifest",
    "VerifyReport",
    "verify_cache",
    "canonicalize",
    "fingerprint",
    "ArtifactEntry",
    "ArtifactStore",
]
