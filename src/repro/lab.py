"""One-call orchestration of the full study.

:func:`run_study` builds the synthetic corpus, runs both filtering
pipelines, and codes the annotated true positives — everything the §6-§8
analyses and the benchmark harness consume.  Results are deterministic
given the config.

The study is an execution graph on :mod:`repro.engine`::

    corpus ── vectorized ──┬── seed:dox ─ train:dox ─ al:dox:* ─ … ─ result:dox
                           └── seed:cth ─ train:cth ─ al:cth:* ─ … ─ result:cth

With ``cache_dir`` set, every stage artifact is checkpointed to disk
as one pickle, and a re-run with the same config executes zero stages.
The documents are pickled twice: all of them in the corpus artifact,
and the non-blog ones again in the vectorized artifact.  Each
``result:<task>`` artifact stores none, and :func:`run_study` binds the
vectorized corpus's documents to the results it returns.
With ``jobs > 1`` the two task pipelines — which share only the
vectorized corpus — and the per-source threshold searches inside each
task run concurrently on a thread pool, with byte-identical results.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping, Sequence

from repro.corpus.documents import Corpus, Document
from repro.corpus.generator import CorpusBuilder, CorpusConfig
from repro.engine import ArtifactStore, Engine, RunReport
from repro.obs.recorder import RunObserver
from repro.pipeline.filtering import FilteringPipeline, PipelineConfig
from repro.pipeline.results import PipelineResult
from repro.pipeline.vectorized import VectorizedCorpus
from repro.taxonomy.coding import CodedDocument, ExpertCoder
from repro.types import Platform, Task


@dataclasses.dataclass(frozen=True)
class StudyConfig:
    corpus: CorpusConfig = dataclasses.field(default_factory=CorpusConfig)
    pipeline: PipelineConfig = dataclasses.field(default_factory=PipelineConfig)

    @classmethod
    def tiny(cls, seed: int = 7) -> "StudyConfig":
        return cls(corpus=CorpusConfig.tiny(seed), pipeline=PipelineConfig.tiny(seed))


@dataclasses.dataclass
class Study:
    """A completed end-to-end run of the reproduction."""

    config: StudyConfig
    corpus: Corpus
    vectorized: VectorizedCorpus
    results: Mapping[Task, PipelineResult]
    #: Per-stage timings and cache hit/miss counters for the run.
    run_report: RunReport | None = None

    @functools.cached_property
    def coder(self) -> ExpertCoder:
        return ExpertCoder()

    @functools.cached_property
    def coded_cth_by_platform(self) -> dict[Platform, list[CodedDocument]]:
        """Expert-coded annotated true-positive calls to harassment,
        grouped by platform (chat merges Discord+Telegram, as in Table 5)."""
        grouped: dict[Platform, list[CodedDocument]] = {}
        for doc in self.results[Task.CTH].true_positive_documents():
            grouped.setdefault(doc.platform, []).append(self.coder.code(doc))
        return grouped

    @functools.cached_property
    def coded_cth(self) -> list[CodedDocument]:
        return [c for docs in self.coded_cth_by_platform.values() for c in docs]

    @functools.cached_property
    def annotated_doxes_by_platform(self) -> dict[Platform, list[Document]]:
        grouped: dict[Platform, list[Document]] = {}
        for doc in self.results[Task.DOX].true_positive_documents():
            grouped.setdefault(doc.platform, []).append(doc)
        return grouped

    @functools.cached_property
    def annotated_doxes(self) -> list[Document]:
        return [d for docs in self.annotated_doxes_by_platform.values() for d in docs]

    def above_threshold(self, task: Task) -> Sequence[Document]:
        return self.results[task].above_threshold_documents()


def build_study_graph(engine: Engine, config: StudyConfig) -> dict[str, str]:
    """Register the full study graph; returns the target stage names.

    The returned mapping has ``"corpus"``, ``"vectorized"``, and one
    ``result:<task>`` entry per task.
    """

    def _build_corpus() -> Corpus:
        return CorpusBuilder(config.corpus).build()

    def _vectorize(corpus: Corpus) -> VectorizedCorpus:
        non_blog = [d for d in corpus if d.platform is not Platform.BLOGS]
        return VectorizedCorpus(non_blog, seed=config.pipeline.seed)

    corpus_s = engine.add("corpus", _build_corpus, key=(config.corpus,))
    vectorized_s = engine.add(
        "vectorized", _vectorize, inputs=(corpus_s,), key=(config.pipeline.seed,)
    )
    targets = {"corpus": corpus_s, "vectorized": vectorized_s}
    for task in (Task.DOX, Task.CTH):
        pipeline = FilteringPipeline(task, config.pipeline)
        targets[f"result:{task.value}"] = pipeline.register(engine, vectorized_s)
    return targets


def run_study(
    config: StudyConfig | None = None,
    *,
    cache_dir: str | None = None,
    jobs: int = 1,
    force: bool = False,
    trace_dir: str | None = None,
) -> Study:
    """Build the corpus and run both pipelines end to end.

    ``cache_dir`` enables the disk-backed stage cache (a warm re-run
    executes zero stages); ``jobs`` sizes the stage thread pool;
    ``force`` re-runs every stage even when cached.  Corrupt, truncated
    or unmanifested cached artifacts are quarantined and recomputed
    transparently (``STATUS_RECOVERED`` in the run report); a stage
    that raises fails the run.  ``trace_dir`` opts into observability:
    the engine's logical-clock stage trace plus the stage-status metrics
    are saved there in ``repro obs`` format (deterministic — no
    wall-clock values enter the artifacts).
    """
    config = config or StudyConfig()
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    recorder = RunObserver("study") if trace_dir is not None else None
    engine = Engine(
        store=store, jobs=jobs, force=force,
        tracer=recorder.tracer if recorder is not None else None,
    )
    targets = build_study_graph(engine, config)
    outcome = engine.run(list(targets.values()))
    if recorder is not None:
        outcome.report.populate_metrics(recorder.metrics)
        recorder.save(trace_dir)
    vectorized = outcome.values[targets["vectorized"]]
    return Study(
        config=config,
        corpus=outcome.values[targets["corpus"]],
        vectorized=vectorized,
        results={
            task: outcome.values[targets[f"result:{task.value}"]].bind(
                vectorized.documents
            )
            for task in (Task.DOX, Task.CTH)
        },
        run_report=outcome.report,
    )
