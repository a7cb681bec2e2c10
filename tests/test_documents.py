"""Unit tests for Document / Thread / Corpus containers."""

import dataclasses
import pickle

import pytest

from repro.corpus.documents import Corpus, Document, GroundTruth, Thread
from repro.types import Platform, Source, Task


def _doc(doc_id=0, thread_id=None, position=None, **truth_kwargs):
    return Document(
        doc_id=doc_id,
        platform=Platform.BOARDS,
        source=Source.BOARDS,
        domain="x.example",
        text="hello world",
        timestamp=1000.0 + doc_id,
        author="anon",
        thread_id=thread_id,
        position=position,
        truth=GroundTruth(**truth_kwargs),
    )


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        Document(
            doc_id=0, platform=Platform.GAB, source=Source.GAB, domain="g",
            text="", timestamp=0.0, author="a",
        )


def test_truth_for_tasks():
    dox = _doc(is_dox=True)
    cth = _doc(is_cth=True)
    assert dox.truth_for(Task.DOX) and not dox.truth_for(Task.CTH)
    assert cth.truth_for(Task.CTH) and not cth.truth_for(Task.DOX)


def test_positive_for_labels():
    both = GroundTruth(is_dox=True, is_cth=True)
    assert both.positive_for == ("dox", "cth")
    assert GroundTruth().positive_for == ()


def test_thread_responses_after():
    thread = Thread(thread_id=1, domain="d", posts=[_doc(i, 1, i) for i in range(5)])
    assert thread.responses_after(0) == 4
    assert thread.responses_after(4) == 0
    with pytest.raises(IndexError):
        thread.responses_after(5)


def test_corpus_groups_threads_in_order():
    docs = [_doc(i, thread_id=7, position=4 - i) for i in range(5)]
    corpus = Corpus(docs)
    thread = corpus.thread(7)
    assert [d.position for d in thread.posts] == [0, 1, 2, 3, 4]
    assert len(corpus.threads) == 1


def test_corpus_counts_by_platform():
    corpus = Corpus([_doc(i) for i in range(3)])
    counts = corpus.counts_by_platform()
    assert counts[Platform.BOARDS] == 3
    assert counts[Platform.GAB] == 0


def test_corpus_by_source():
    corpus = Corpus([_doc(i) for i in range(3)])
    assert len(corpus.by_source(Source.BOARDS)) == 3
    assert corpus.by_source(Source.DISCORD) == []


def test_corpus_date_range():
    corpus = Corpus([_doc(i) for i in range(3)])
    lo, hi = corpus.date_range(Platform.BOARDS)
    assert lo == 1000.0 and hi == 1002.0


def test_date_range_empty_platform_raises():
    corpus = Corpus([_doc(0)])
    with pytest.raises(ValueError):
        corpus.date_range(Platform.GAB)


def test_source_platform_mapping():
    assert Source.DISCORD.platform is Platform.CHAT
    assert Source.TELEGRAM.platform is Platform.CHAT
    assert Source.BOARDS.platform is Platform.BOARDS


def test_corpus_unpickles_without_dataclasses_fields(tiny_corpus, monkeypatch):
    # Document and GroundTruth set their state from a module-level field
    # tuple: no dataclasses.fields() call per object on load.
    data = pickle.dumps(tiny_corpus, protocol=pickle.HIGHEST_PROTOCOL)

    def no_fields(obj):
        raise AssertionError("dataclasses.fields() called while unpickling")

    with monkeypatch.context() as patched:
        patched.setattr(dataclasses, "fields", no_fields)
        loaded = pickle.loads(data)
    assert list(loaded) == list(tiny_corpus)
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == data
