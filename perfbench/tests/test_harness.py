"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import importlib
import signal
import sys
import threading
import time

import pytest

from perfbench import WORKLOADS, harness
from perfbench.host import HostSpeed, PROBE_INTERVAL_S
from perfbench.trace import (
    PROBES,
    WRAPPED_MARK,
    Probe,
    Tracer,
    repro_modules,
)
from perfbench.workloads import (
    PILEON_REPOSTS,
    add_pileon,
    make_workload,
    serve_models,
)
from repro.score.core import extract_targets
from repro.serve.runtime import ServeConfig


@pytest.fixture
def short_runs(monkeypatch):
    """One set-up, one timed call, one trace cycle."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "MIN_CYCLES", 1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_passes_its_output_check(name, tmp_path, short_runs):
    metrics, tally = harness.measure(make_workload(name, tmp_path), 7, 0)
    assert tally.attempted > 0
    assert tally.failed == 0
    assert sorted(metrics) == ["msgs_per_s", "peak_rss_mb", "setup_s", "wall_s"]
    assert all(value > 0 for value, _unit in metrics.values())


def test_pileon_is_seed_deterministic_and_makes_its_handle_hot():
    messages = list(serve_models()[2])
    stream, handle = add_pileon(messages, seed=7)
    assert add_pileon(messages, seed=7) == (stream, handle)
    assert add_pileon(messages, seed=8)[0] != stream
    assert len(stream) == len(messages) + PILEON_REPOSTS
    assert len({m.message_id for m in stream}) == len(stream)
    assert [m.timestamp for m in stream] == sorted(m.timestamp for m in stream)
    hot = sum(
        1 for m in stream if extract_targets(m.text).primary_handle == handle
    )
    assert hot / len(stream) > ServeConfig().hot_key_share


def test_host_speed_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        time.sleep(10 * PROBE_INTERVAL_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed._probes) >= 5
    assert speed.slowdown > 0
    probing_s = sum(speed._probes[1:])
    assert speed.normalised_s == pytest.approx(
        (speed.wall_s - probing_s) / speed.slowdown
    )


def leftover_wrappers() -> list[str]:
    """Where a timing wrapper is still bound: module attributes and methods."""
    found = set()
    for module in repro_modules():
        for name, value in list(vars(module).items()):
            if callable(value) and hasattr(value, WRAPPED_MARK):
                found.add(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if callable(member) and hasattr(member, WRAPPED_MARK):
                        found.add(f"{module.__name__}.{name}.{attr}")
    return sorted(found)


def _bindings() -> dict[str, object]:
    """What each probe's defining module or class binds right now."""
    bound = {}
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        if probe.owner is None:
            bound[probe.key] = getattr(module, probe.attr)
        else:
            bound[probe.key] = vars(getattr(module, probe.owner))[probe.attr]
    return bound


def test_traced_run_restores_every_patched_function(tmp_path, short_runs):
    before = _bindings()
    workload = make_workload("serve-steady", tmp_path)
    metrics, tally = harness.measure_traced(workload, 7, 0)
    assert tally.failed == 0
    assert leftover_wrappers() == []
    assert all(_bindings()[key] is original for key, original in before.items())
    assert metrics["extraction.calls"][0] > 0
    # serve-steady runs at jobs=1 and ServingRuntime.run is itself timed,
    # so the layers' self times add up to the traced call.
    assert 0.95 < metrics["bench.self_sum_frac"][0] <= 1.0


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer():
            raise RuntimeError("boom")
    assert leftover_wrappers() == []
    assert all(_bindings()[key] is original for key, original in before.items())


class _Nested:
    def outer(self, delay: float) -> float:
        time.sleep(delay)
        return self.inner(2 * delay)

    def inner(self, delay: float) -> float:
        time.sleep(delay)
        return delay


NESTED = (
    Probe("a", __name__, "_Nested", "outer"),
    Probe("b", __name__, "_Nested", "inner"),
)


def test_self_time_excludes_timed_children():
    tracer = Tracer(NESTED)
    with tracer:
        _Nested().outer(0.01)
    stats = tracer.stats()
    outer, inner = stats["a:_Nested.outer"], stats["b:_Nested.inner"]
    assert inner.self_s == inner.total_s >= 0.02
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert 0.01 <= outer.self_s < inner.self_s


def test_threads_keep_their_own_span_stacks():
    tracer = Tracer(NESTED)

    def work() -> None:
        for _ in range(300):
            _Nested().outer(0.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = tracer.stats()
    outer, inner = stats["a:_Nested.outer"], stats["b:_Nested.inner"]
    assert outer.calls == inner.calls == 1200
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
