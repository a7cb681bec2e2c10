# ruff: noqa
"""PUR003 positive fixture: functions that write module- or class-level state."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RunObserver
from repro.obs.trace import Tracer

_seen_texts = []
feature_log = []
FEATURE_LOG = {}
_counts = {}
_pending = set()
_calls = 0
SHARED_TRACER = Tracer()
REGISTRY = MetricsRegistry()
OBSERVER = RunObserver("fixture")


def extract_pii(text):
    _seen_texts.append(text)                    # a module-level list
    _counts[text] = len(text)                   # an item store
    _counts[text] += 1                          # an augmented item store
    del _counts[text]                           # an item deletion


def remember():
    global _calls                               # a global rebinding
    _calls += 1


class LogisticRegressionClassifier:
    calls = []
    history = []

    def predict_proba(self, features):
        self.calls.append(len(features))        # a class-body list via self
        self.history += [features]              # augmented, via self
        return features

    @classmethod
    def reset(cls):
        cls.calls.clear()                       # via cls


class HashingVectorizer:
    seen = []

    def transform_hashes(self, hash_arrays):
        HashingVectorizer.seen.append(len(hash_arrays))  # via the class name
        return hash_arrays


class ScoringCore:
    def features_for(self, texts):
        FEATURE_LOG.update({len(texts): True})  # ALL_CAPS is not exempt
        feature_log.append(len(texts))          # a lowercase module list
        return texts


class ServingRuntime:
    def _run_shard(self, shard_id):
        SHARED_TRACER.event("shard", ts=0.0)    # a module-level Tracer
        REGISTRY.counter("batches")             # a module-level registry
        OBSERVER.save("trace")                  # a module-level observer
        return list(map(lambda text: _pending.add(text), ["a"]))  # in a lambda
