"""JSONL serialization for synthetic corpora.

The corpus (documents + planted ground truth) round-trips through JSON
Lines, one document per line.  This supports sharing generated corpora
between runs and tools without re-generating, and mirrors the common
release format for research data sets.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Iterator

from repro.corpus.documents import Corpus, Document, GroundTruth
from repro.taxonomy.attack_types import AttackSubtype
from repro.types import Gender, Platform, Source

FORMAT_VERSION = 1

#: One encoder for every line: ``json.dumps(..., ensure_ascii=False)``
#: builds a new one per call, and gives the same bytes.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def document_to_dict(doc: Document) -> dict:
    """JSON-safe dict for one document (schema version FORMAT_VERSION)."""
    truth = doc.truth
    return {
        "v": FORMAT_VERSION,
        "doc_id": doc.doc_id,
        "platform": doc.platform.value,
        "source": doc.source.value if doc.source else None,
        "domain": doc.domain,
        "text": doc.text,
        "timestamp": doc.timestamp,
        "author": doc.author,
        "thread_id": doc.thread_id,
        "position": doc.position,
        "truth": {
            "is_dox": truth.is_dox,
            "is_cth": truth.is_cth,
            "cth_subtypes": [s.name for s in truth.cth_subtypes],
            "target_id": truth.target_id,
            "target_gender": truth.target_gender.value,
            "pii_planted": list(truth.pii_planted),
            "reputation_info": truth.reputation_info,
            "hard_negative": truth.hard_negative,
        },
    }


def document_from_dict(data: dict) -> Document:
    version = data.get("v", 0)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported corpus format version: {version}")
    truth_data = data["truth"]
    truth = GroundTruth(
        is_dox=truth_data["is_dox"],
        is_cth=truth_data["is_cth"],
        cth_subtypes=tuple(AttackSubtype[name] for name in truth_data["cth_subtypes"]),
        target_id=truth_data["target_id"],
        target_gender=Gender(truth_data["target_gender"]),
        pii_planted=tuple(truth_data["pii_planted"]),
        reputation_info=truth_data["reputation_info"],
        hard_negative=truth_data["hard_negative"],
    )
    return Document(
        doc_id=data["doc_id"],
        platform=Platform(data["platform"]),
        source=Source(data["source"]) if data["source"] else None,
        domain=data["domain"],
        text=data["text"],
        timestamp=data["timestamp"],
        author=data["author"],
        thread_id=data["thread_id"],
        position=data["position"],
        truth=truth,
    )


def write_jsonl(documents: Iterable[Document], path: str | pathlib.Path) -> int:
    """Write documents to a JSONL file; returns the number written."""
    path = pathlib.Path(path)
    count = 0
    encode = _ENCODER.encode
    with path.open("w", encoding="utf-8") as handle:
        for doc in documents:
            handle.write(encode(document_to_dict(doc)))
            handle.write("\n")
            count += 1
    return count


def iter_jsonl(path: str | pathlib.Path) -> Iterator[Document]:
    """Stream documents back from a JSONL file."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield document_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed document record") from exc


def read_corpus(path: str | pathlib.Path) -> Corpus:
    """Load a full corpus from JSONL."""
    return Corpus(iter_jsonl(path))
