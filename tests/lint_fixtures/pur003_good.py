# ruff: noqa
"""PUR003 negative fixture: shared tables read, owned state written."""

import collections

from repro.obs.trace import Tracer

_TABLE = {"a": 1}
_ORDER = ["a", "b"]
_seen = []

# Module-level code builds its tables at import time.
_ORDER.append("c")
_TABLE["b"] = 2


def lookup(key):
    return _TABLE.get(key, 0) + len(_ORDER)     # reading a module table


def shadowed(_seen):
    _seen.append(1)                             # a parameter, not the global
    return _seen


def local_list():
    _seen = []
    _seen.append(2)                             # a local of the same name
    return _seen


def own_tracer():
    tracer = Tracer()
    tracer.event("local", ts=0.0)               # a tracer this call owns
    return tracer


def nested():
    buffer = []

    def add(item):
        buffer.append(item)                     # an enclosing function's local

    add(1)
    return buffer


class Monitor:
    LIMITS = {"dox": 0.5}

    def __init__(self):
        self._state = collections.defaultdict(list)
        self.history = []

    def process(self, key, value):
        self._state[key].append(value)          # instance state
        self.history += [value]
        return value > self.LIMITS.get(key, 1.0)  # reading a class table
