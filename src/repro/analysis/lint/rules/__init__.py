"""The rule pack.

Importing this package registers every rule with the engine's registry;
:func:`repro.analysis.lint.engine.all_rules` does so lazily.  The
``DET``/``PUR`` packs are per-file; ``CONC`` is a project pack backed by
the shared call graph in :mod:`repro.analysis.lint.graph`.
"""

from repro.analysis.lint.rules import concurrency, determinism, purity

__all__ = ["concurrency", "determinism", "purity"]
