"""Project call graph: resolution, reachability, caching, and the
merge-contract gate that re-catches the PR 6 bug class forever."""

import ast
import pathlib

import pytest

from repro.analysis.lint import run_lint
from repro.analysis.lint.engine import FileContext, lint_source, select_rules
from repro.analysis.lint.graph import build_graph, module_name_for

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _contexts(files: dict[str, str]) -> list[FileContext]:
    return [
        FileContext(path, source, ast.parse(source))
        for path, source in files.items()
    ]


def _graph(files: dict[str, str]):
    return build_graph(_contexts(files))


# -- module naming -----------------------------------------------------------

def test_module_name_for_repo_layouts():
    assert module_name_for("src/repro/serve/runtime.py") == "repro.serve.runtime"
    assert module_name_for("src/repro/serve/__init__.py") == "repro.serve"
    assert module_name_for("repro/score/core.py") == "repro.score.core"
    assert module_name_for("tests/lint_fixtures/conc001_bad.py") == "conc001_bad"


# -- call resolution ---------------------------------------------------------

def test_resolves_calls_through_import_aliases():
    graph = _graph({
        "src/app/helpers.py": "def process(x):\n    return x\n",
        "src/app/direct.py": (
            "from app.helpers import process\n"
            "def use(x):\n    return process(x)\n"
        ),
        "src/app/aliased.py": (
            "from app.helpers import process as proc\n"
            "def use(x):\n    return proc(x)\n"
        ),
        "src/app/modalias.py": (
            "import app.helpers as h\n"
            "def use(x):\n    return h.process(x)\n"
        ),
    })
    for module in ("direct", "aliased", "modalias"):
        assert graph.callees(f"app.{module}.use") == ("app.helpers.process",), module


def test_resolves_method_calls_on_typed_receivers():
    graph = _graph({
        "src/app/worker.py": (
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self.done = []\n"
            "    def handle(self, item):\n"
            "        return self._note(item)\n"
            "    def _note(self, item):\n"
            "        self.done.append(item)\n"
        ),
        "src/app/driver.py": (
            "from app.worker import Worker\n"
            "def annotated(worker: Worker, item):\n"
            "    return worker.handle(item)\n"
            "def constructed(item):\n"
            "    worker = Worker()\n"
            "    return worker.handle(item)\n"
        ),
    })
    # self.method() inside the class
    assert graph.callees("app.worker.Worker.handle") == ("app.worker.Worker._note",)
    # parameter annotation types the receiver
    assert "app.worker.Worker.handle" in graph.callees("app.driver.annotated")
    # local constructor assignment types the receiver (plus the ctor edge)
    constructed = graph.callees("app.driver.constructed")
    assert "app.worker.Worker.__init__" in constructed
    assert "app.worker.Worker.handle" in constructed


def test_resolves_inherited_methods_through_base_classes():
    graph = _graph({
        "src/app/base.py": (
            "class Base:\n"
            "    def shared(self):\n"
            "        return 1\n"
        ),
        "src/app/child.py": (
            "from app.base import Base\n"
            "class Child(Base):\n"
            "    def use(self):\n"
            "        return self.shared()\n"
        ),
    })
    assert graph.callees("app.child.Child.use") == ("app.base.Base.shared",)


def test_unique_method_fallback_and_ambiguity():
    graph = _graph({
        "src/app/only.py": (
            "class Monitor:\n"
            "    def process_scored(self, x):\n"
            "        return x\n"
            "def factory_use(monitor, x):\n"
            "    return monitor.process_scored(x)\n"
        ),
        "src/app/ambig.py": (
            "class A:\n"
            "    def poll(self):\n"
            "        return 1\n"
            "class B:\n"
            "    def poll(self):\n"
            "        return 2\n"
            "def use(thing):\n"
            "    return thing.poll()\n"
        ),
    })
    # exactly one project class defines process_scored -> resolves
    assert graph.callees("app.only.factory_use") == (
        "app.only.Monitor.process_scored",
    )
    # two classes define poll -> conservatively unresolved
    assert graph.callees("app.ambig.use") == ()


def test_nested_defs_are_graph_nodes_reachable_from_encloser():
    graph = _graph({
        "src/app/shard.py": (
            "class ServingRuntime:\n"
            "    def _run_shard(self, batch):\n"
            "        def offer(item):\n"
            "            return item\n"
            "        return [offer(i) for i in batch]\n"
        ),
    })
    entry = "app.shard.ServingRuntime._run_shard"
    assert graph.callees(entry) == (f"{entry}.offer",)
    assert f"{entry}.offer" in graph.reachable_from(["ServingRuntime._run_shard"])


def test_reachability_matches_dotted_suffixes_only():
    graph = _graph({
        "src/app/m.py": (
            "class HarassmentMonitor:\n"
            "    def run(self):\n"
            "        return helper()\n"
            "class Other:\n"
            "    def run(self):\n"
            "        return unrelated()\n"
            "def helper():\n"
            "    return 1\n"
            "def unrelated():\n"
            "    return 2\n"
        ),
    })
    reachable = graph.reachable_from(["HarassmentMonitor.run"])
    assert "app.m.helper" in reachable
    assert "app.m.Other.run" not in reachable
    assert "app.m.unrelated" not in reachable


# -- caching -----------------------------------------------------------------

def test_all_graph_rules_share_one_graph_build(tmp_path):
    victim = tmp_path / "mod.py"
    victim.write_text(
        "class Ledger:\n"
        "    def merge(self, other):\n"
        "        return Ledger()\n"
    )
    result = run_lint([victim], select=["CONC", "MRG"])
    assert result.project.graph_builds == 1
    assert result.stats.graph_builds == 1
    assert result.stats.graph_functions > 0
    assert "built 1x" in result.stats.render()
    # Per-file rules alone never pay for a graph.
    untouched = run_lint([victim], select=["DET"])
    assert untouched.project.graph_builds == 0
    assert "not built" in untouched.stats.render()


# -- suppression and selection for project rules -----------------------------

def test_project_rule_findings_honour_noqa():
    source = (
        "class HarassmentMonitor:\n"
        "    def __init__(self):\n"
        "        self._state = {}\n"
        "def outside(monitor: HarassmentMonitor):\n"
        "    return monitor._state  # repro: noqa[CONC003]\n"
    )
    assert lint_source(source, "noqa_proj.py", select_rules(["CONC003"])) == []
    unsuppressed = source.replace("  # repro: noqa[CONC003]", "")
    findings = lint_source(unsuppressed, "noqa_proj.py", select_rules(["CONC003"]))
    assert [f.rule for f in findings] == ["CONC003"]


# -- the PR 6 bug class, structurally ----------------------------------------

def test_seeded_mutation_dropping_a_merge_field_is_caught():
    """Acceptance: delete one field from QueueAccounting.merge -> MRG001."""
    source = (REPO_ROOT / "src/repro/serve/queueing.py").read_text()
    clean = lint_source(source, "queueing.py", select_rules(["MRG"]))
    assert clean == []
    mutated = source.replace(
        "            dropped=self.dropped + other.dropped,\n", ""
    )
    assert mutated != source, "seed line not found; update the mutation"
    findings = lint_source(mutated, "queueing.py", select_rules(["MRG"]))
    assert [f.rule for f in findings] == ["MRG001"]
    assert "'dropped'" in findings[0].message


def test_seeded_mutation_hiding_a_merged_field_from_as_dict_is_caught():
    """Regression guard for the ShardTelemetry.as_dict parity fix."""
    source = (REPO_ROOT / "src/repro/serve/telemetry.py").read_text()
    assert lint_source(source, "telemetry.py", select_rules(["MRG"])) == []
    span_lines = (
        '            "first_batch_start": (\n'
        "                self.first_batch_start if self.batches else None\n"
        "            ),\n"
        '            "last_batch_end": self.last_batch_end if self.batches'
        " else None,\n"
    )
    assert span_lines in source, "as_dict span lines moved; update the mutation"
    mutated = source.replace(span_lines, "")
    findings = lint_source(mutated, "telemetry.py", select_rules(["MRG"]))
    assert [f.rule for f in findings] == ["MRG002"]
    assert "first_batch_start" in findings[0].message


def test_whole_repo_graph_packs_are_clean_beyond_justified_baseline():
    """Acceptance: `repro lint --select CONC,MRG src/repro` gate holds."""
    from repro.analysis.lint import Baseline

    result = run_lint([REPO_ROOT / "src" / "repro"], select=["CONC", "MRG"])
    baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
    split = baseline.split(result.findings)
    assert split.new == ()
    # every baselined entry carries a real justification, not a TODO
    for entry in baseline.entries:
        assert entry.justification
        assert "TODO" not in entry.justification
    # and no source file sneaks a CONC/MRG suppression past the gate
    for source in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        text = source.read_text()
        assert "noqa[CONC" not in text and "noqa[MRG" not in text, source


# -- merged telemetry behaves like the contract says -------------------------

def test_shard_telemetry_merge_preserves_every_field():
    from repro.serve.telemetry import ShardTelemetry

    a = ShardTelemetry(shard_id=0)
    a.record_batch(start=1.0, end=2.0, waits=[0.1, 0.2])
    a.record_alert(1.0)
    b = ShardTelemetry(shard_id=0)
    b.record_batch(start=0.5, end=1.2, waits=[0.3])
    b.record_alert(0.7)
    b.record_alert(0.7)
    merged = a.merge(b)
    assert merged.batches == 2
    assert merged.messages_scored == 3
    assert merged.alerts_raised == 3
    assert merged.busy_seconds == pytest.approx(1.7)
    assert merged.first_batch_start == 0.5
    assert merged.last_batch_end == 2.0
    assert merged.service_time.count == 2
    assert merged.queue_wait.count == 3
    # merge is pure
    assert a.batches == 1 and b.batches == 1
    # and as_dict surfaces the span fields merge combines (the parity fix)
    snapshot = merged.as_dict()
    assert snapshot["first_batch_start"] == 0.5
    assert snapshot["last_batch_end"] == 2.0


def test_shard_telemetry_as_dict_uses_none_for_idle_shards():
    from repro.serve.telemetry import ShardTelemetry

    idle = ShardTelemetry(shard_id=3).as_dict()
    assert idle["first_batch_start"] is None
    assert idle["last_batch_end"] is None


def test_serve_telemetry_merge_folds_matching_shards():
    from repro.serve.telemetry import ServeTelemetry, ShardTelemetry

    a0 = ShardTelemetry(shard_id=0)
    a0.record_batch(start=0.0, end=1.0, waits=[0.1])
    b0 = ShardTelemetry(shard_id=0)
    b0.record_batch(start=1.0, end=2.0, waits=[0.2])
    b0.record_alert(1.0)
    b1 = ShardTelemetry(shard_id=1)
    b1.record_batch(start=0.0, end=0.5, waits=[0.3])
    merged = ServeTelemetry(shards=[a0]).merge(ServeTelemetry(shards=[b0, b1]))
    assert [s.shard_id for s in merged.shards] == [0, 1]
    assert merged.shards[0].batches == 2
    assert merged.shards[1].batches == 1
    assert merged.messages_scored == 3
