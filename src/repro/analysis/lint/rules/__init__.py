"""The rule pack.

``RULES`` holds one instance of every rule; the engine's
:func:`repro.analysis.lint.engine.all_rules` imports it lazily.  The
``DET`` rules guard determinism and the ``PUR`` rules stage purity and
shared state.  Every rule checks one file at a time.
"""

from repro.analysis.lint.rules.determinism import (
    GlobalRandomness,
    UnorderedIteration,
    WallClock,
)
from repro.analysis.lint.rules.purity import (
    SharedStateMutation,
    StageMutableGlobal,
    StageSideIO,
)

RULES = (
    GlobalRandomness(),
    WallClock(),
    UnorderedIteration(),
    StageSideIO(),
    StageMutableGlobal(),
    SharedStateMutation(),
)

__all__ = ["RULES"]
