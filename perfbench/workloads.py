"""The four workloads: seeded inputs, the timed call and output checks.

The streaming workloads build the same set-up (:func:`build_inputs`):
``repro serve-bench --tiny``'s filters and live stream at its default
seed, made by the same CLI helper, and the stream's arrival schedule.
Load is open-loop in simulated time; in wall time each timed call is
one call into a runtime from one process.

The corpora are fixed (:data:`CORPUS_SEED`); the workload seed drives
everything else: the arrival process and its tenant draws, the pile-on,
the gateway's API keys and the study's pipeline.  ``README.md`` says
why.

A workload object offers:

* ``setup(seed)`` — build the inputs, timed as ``setup_s``;
* ``prepare(inputs)`` — fresh per-call objects, made outside the timing;
* ``call(inputs, prepared, recorder)`` — the timed call;
* ``check(inputs, prepared, output)`` — verify the output outside the
  timing and return ``(attempted, failed, facts)``, where ``facts`` are
  counts from the output that the per-layer metrics report;
* ``operations(inputs)`` — what one call attempts, all failed when the
  call raises;
* ``observer()`` — a fresh :class:`~repro.obs.recorder.RunObserver` for
  the recorder-overhead measurement, or ``None``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import pathlib
import shutil

import numpy as np

from repro.cli import _serve_models
from repro.corpus.documents import Document
from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.gateway.bench import bench_profile, bench_registry
from repro.gateway.gateway import Gateway, GatewayConfig, GatewayResult
from repro.lab import Study, StudyConfig, run_study
from repro.nlp.features import HashingVectorizer
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.obs.recorder import RunObserver
from repro.pipeline.filtering import PipelineConfig
from repro.score.core import extract_targets
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.runtime import (
    ServeConfig,
    ServeResult,
    ServingRuntime,
    alert_sort_key,
)
from repro.service.monitor import Alert, HarassmentMonitor, MonitorConfig
from repro.service.stream import StreamMessage
from repro.types import Task

#: seed of the training corpus; the live stream uses the next one
CORPUS_SEED = 7
RATE_PER_SECOND = 2000.0
N_SHARDS = 4
FILTER_EPOCHS = 5
CAMPAIGN_MIN_MESSAGES = 2
#: burst_every = burst_size of the bursty workloads
BURST = 40
#: reposts the pile-on adds: about a tenth of the tiny live stream
PILEON_REPOSTS = 1500
#: fleet capacity of the ``repro.gateway.bench.run_gateway_bench``
#: scenario, which builds it inline; keep the two in step
GATEWAY_CONFIG = GatewayConfig(fleet_rate_per_second=900.0, fleet_burst=64)
#: the single-monitor reference runs at the fleet's batch size
BATCH_SIZE = ServeConfig().batch_size
#: engine stage groups; ``final-train`` counts as ``train``
STAGE_GROUPS = ("corpus", "vectorized", "train", "al", "evaluate", "annotate")
#: cost-model components, as :class:`repro.serve.batching.CostBreakdown` names them
COMPONENTS = ("tokenize", "score", "extract", "state")


@dataclasses.dataclass
class Inputs:
    """Trained filters, the live stream and its arrival schedule."""

    seed: int
    models: dict[Task, LogisticRegressionClassifier]
    vectorizer: HashingVectorizer
    messages: list[StreamMessage]
    arrivals: list[Arrival]

    def monitor(self) -> HarassmentMonitor:
        """A fresh monitor over the trained filters."""
        return HarassmentMonitor(
            self.models[Task.CTH], self.models[Task.DOX], self.vectorizer,
            MonitorConfig(campaign_min_messages=CAMPAIGN_MIN_MESSAGES),
        )

    def single_monitor_alerts(
        self, messages: list[StreamMessage]
    ) -> list[Alert]:
        """The reference: ``messages`` through one monitor, merge-sorted."""
        return sorted(
            self.monitor().run(messages, batch_size=BATCH_SIZE),
            key=alert_sort_key,
        )


def serve_models():
    """``repro serve-bench --tiny``'s filters, vectorizer and live stream."""
    return _serve_models(argparse.Namespace(
        seed=CORPUS_SEED, full=False, epochs=FILTER_EPOCHS
    ))


def build_inputs(
    seed: int, profile: LoadProfile, pileon: bool = False
) -> Inputs:
    """The shared set-up: filters, live stream (plus pile-on), arrivals."""
    models, vectorizer, stream = serve_models()
    messages = list(stream)
    if pileon:
        messages, _handle = add_pileon(messages, seed)
    return Inputs(
        seed, models, vectorizer, messages,
        generate_arrivals(messages, profile),
    )


def add_pileon(
    messages: list[StreamMessage], seed: int
) -> tuple[list[StreamMessage], str]:
    """Repost messages aimed at the stream's most-referenced target handle.

    Returns the merged stream, in timestamp order, and the handle: the
    most frequent primary target, which is the routing key one viral
    target produces (ties go to the smallest handle).  Each repost
    copies a message with that primary target under a fresh id and a
    timestamp drawn from the stream, so the pile-on spreads over the
    whole replay.
    """
    extractions: dict[str, object] = {}
    by_handle: dict[str, list[StreamMessage]] = collections.defaultdict(list)
    for message in messages:
        extraction = extractions.get(message.text)
        if extraction is None:
            extraction = extractions[message.text] = extract_targets(
                message.text
            )
        if extraction.primary_handle is not None:
            by_handle[extraction.primary_handle].append(message)
    handle = max(sorted(by_handle), key=lambda h: len(by_handle[h]))
    sources = by_handle[handle]
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(sources), size=PILEON_REPOSTS)
    stamps = rng.choice(
        np.array([m.timestamp for m in messages]), size=PILEON_REPOSTS
    )
    next_id = max(m.message_id for m in messages) + 1
    copies = [
        dataclasses.replace(
            sources[int(pick)], message_id=next_id + i, timestamp=float(stamp)
        )
        for i, (pick, stamp) in enumerate(zip(picks, stamps))
    ]
    merged = sorted(
        [*messages, *copies], key=lambda m: (m.timestamp, m.message_id)
    )
    return merged, handle


def serve_facts(result: ServeResult, messages: int) -> dict[str, float]:
    """Counts from a serve run: simulated busy seconds, extraction hits."""
    facts: dict[str, float] = {
        f"sim.{key.removesuffix('_seconds')}": seconds
        for key, seconds in result.telemetry.merged_busy_breakdown().items()
    }
    work = result.telemetry.merged_score_work()
    lookups = work.extraction_cache_hits + work.extracted_messages
    facts["extract_hit_ratio"] = (
        work.extraction_cache_hits / lookups if lookups else 0.0
    )
    facts["messages"] = messages
    return facts


class _Streaming:
    """What the three streaming workloads share."""

    name: str

    def operations(self, inputs: Inputs) -> int:
        return len(inputs.arrivals)

    def observer(self) -> RunObserver:
        return RunObserver(self.name)


class ServeWorkload(_Streaming):
    """``ServingRuntime.run`` on 4 shards over the live stream."""

    def __init__(self, name: str, *, pileon: bool, burst: int, jobs: int) -> None:
        self.name = name
        self.pileon = pileon
        self.burst = burst
        self.jobs = jobs
        self._reference: list[Alert] | None = None

    def setup(self, seed: int) -> Inputs:
        profile = LoadProfile(
            rate_per_second=RATE_PER_SECOND,
            burst_every=self.burst,
            burst_size=self.burst,
            seed=seed,
        )
        return build_inputs(seed, profile, pileon=self.pileon)

    def prepare(self, inputs: Inputs) -> ServingRuntime:
        return ServingRuntime(inputs.monitor, ServeConfig(n_shards=N_SHARDS))

    def call(
        self, inputs: Inputs, runtime: ServingRuntime, recorder
    ) -> ServeResult:
        return runtime.run(inputs.arrivals, jobs=self.jobs, recorder=recorder)

    def check(self, inputs: Inputs, runtime, result: ServeResult):
        if self._reference is None:
            self._reference = inputs.single_monitor_alerts(inputs.messages)
        n = len(inputs.arrivals)
        ok = result.alerts == self._reference and result.unaccounted == 0
        return n, 0 if ok else n, serve_facts(result, n)


class GatewayWorkload(_Streaming):
    """``Gateway.handle`` in the ``run_gateway_bench`` overload scenario."""

    name = "gateway-overload"

    def __init__(self) -> None:
        #: the first call's admission ledgers and per-tenant solo replays
        self._expected: tuple[dict, dict[str, list[Alert]]] | None = None

    def setup(self, seed: int) -> Inputs:
        return build_inputs(seed, bench_profile(seed, RATE_PER_SECOND))

    def prepare(self, inputs: Inputs):
        registry = bench_registry(inputs.seed)
        gateway = Gateway(
            registry, inputs.monitor, ServeConfig(n_shards=N_SHARDS),
            GATEWAY_CONFIG,
        )
        return gateway, registry.credentials()

    def call(self, inputs: Inputs, prepared, recorder) -> GatewayResult:
        gateway, credentials = prepared
        return gateway.handle(
            inputs.arrivals, credentials, jobs=1, recorder=recorder
        )

    def check(self, inputs: Inputs, prepared, result: GatewayResult):
        n = len(inputs.arrivals)
        ledgers = {
            tenant: result.admission[tenant].as_dict()
            for tenant in sorted(result.admission)
        }
        if self._expected is None:
            solo = {
                tenant: inputs.single_monitor_alerts([
                    a.message for a in result.admitted_arrivals
                    if a.tenant == tenant
                ])
                for tenant in bench_registry(inputs.seed).tenant_ids()
            }
            self._expected = (ledgers, solo)
        expected_ledgers, solo = self._expected
        conserved = (
            sum(ledger["offered"] for ledger in ledgers.values()) == n
            and all(ledger["unaccounted"] == 0 for ledger in ledgers.values())
            and result.serve.unaccounted == 0
        )
        isolated = all(
            result.alerts_by_tenant.get(tenant, []) == alerts
            for tenant, alerts in solo.items()
        )
        ok = conserved and isolated and ledgers == expected_ledgers
        facts = serve_facts(result.serve, n)
        facts["admit_ratio"] = result.admitted / n if n else 0.0
        return n, 0 if ok else n, facts


@dataclasses.dataclass
class StudyInputs:
    """The study's config and the corpus its corpus stage must produce."""

    config: StudyConfig
    corpus: list[Document]


class StudyWorkload:
    """``run_study`` on the tiny study config into an empty cache.

    ``run_study`` builds its corpus and trains its filters inside the
    timed call, so the set-up is only what the output check needs: the
    reference corpus, built straight from ``CorpusBuilder``.
    """

    name = "study-cold"

    def __init__(self, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        self._runs = 0
        self._stages = 1
        self._first: tuple | None = None

    def setup(self, seed: int) -> StudyInputs:
        config = StudyConfig(
            corpus=CorpusConfig.tiny(CORPUS_SEED),
            pipeline=PipelineConfig.tiny(seed),
        )
        return StudyInputs(config, list(CorpusBuilder(config.corpus).build()))

    def prepare(self, inputs: StudyInputs) -> pathlib.Path:
        self._runs += 1
        return self.workdir / f"cold-{self._runs}"

    def call(self, inputs: StudyInputs, cache: pathlib.Path, recorder) -> Study:
        return run_study(inputs.config, cache_dir=str(cache), jobs=1)

    def check(self, inputs: StudyInputs, cache: pathlib.Path, study: Study):
        records = study.run_report.records
        self._stages = len(records)
        stage_s: collections.Counter[str] = collections.Counter()
        for record in records:
            group = record.name.split(":")[0]
            stage_s["train" if group == "final-train" else group] += (
                record.seconds
            )
        facts: dict[str, float] = {
            f"stage_s.{group}": stage_s[group] for group in STAGE_GROUPS
        }
        facts["store_bytes"] = sum(
            path.stat().st_size for path in cache.rglob("*") if path.is_file()
        )
        facts["messages"] = len(study.corpus)
        warm = run_study(inputs.config, cache_dir=str(cache), jobs=1)
        shutil.rmtree(cache)
        digest = study_digest(study)
        if self._first is None:
            self._first = digest
        ok = (
            study.run_report.n_executed == len(records)
            and warm.run_report.n_executed == 0
            and list(study.corpus) == list(warm.corpus) == inputs.corpus
            and study_digest(warm) == digest == self._first
        )
        return len(records), 0 if ok else len(records), facts

    def operations(self, inputs: StudyInputs) -> int:
        return self._stages

    def observer(self) -> None:
        return None


def study_digest(study: Study) -> tuple:
    """Per task: every source's threshold and the full score vector."""
    return tuple(
        (
            task.value,
            tuple(sorted(
                (source.value, outcome.threshold)
                for source, outcome in result.outcomes.items()
            )),
            result.scores.tobytes(),
        )
        for task, result in sorted(
            study.results.items(), key=lambda item: item[0].value
        )
    )


def make_workload(name: str, workdir: pathlib.Path):
    """A fresh workload object; ``workdir`` holds study-cold's caches."""
    if name == "serve-steady":
        return ServeWorkload(name, pileon=False, burst=0, jobs=1)
    if name == "serve-pileon":
        return ServeWorkload(name, pileon=True, burst=BURST, jobs=2)
    if name == "gateway-overload":
        return GatewayWorkload()
    if name == "study-cold":
        return StudyWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")
