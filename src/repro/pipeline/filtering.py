"""The end-to-end filtering pipeline (paper Fig. 1 and §5).

Stages, matching the paper's numbering:

1. seed annotations (§5.1) — prior-work-shaped dox labels / keyword-mined
   and expert-annotated CTH labels;
2. train the filter classifier on the seeds;
3. active learning (§5.3): predict the full corpus, sample evenly across
   ten score deciles per source, crowdsource-annotate, retrain — repeated
   ``al_rounds`` times;
4. hold-out evaluation of the final classifier (§5.4, Table 3);
5. per-source threshold selection by precision spot-checks (§5.5);
6. expert annotation of above-threshold samples → true positives
   (Table 4);
7. the annotated true-positive sets feed every analysis in §6–§7.

Each stage is a named node on the :mod:`repro.engine` execution graph
(``seed`` → ``train`` → ``al:<round>`` → {``evaluate``,
``final-train`` → ``score`` → ``annotate:<source>``} → ``result``), so a
run is checkpointable per stage, re-runnable from any cached prefix, and
the per-source threshold searches — which share nothing but the final
score vector — execute concurrently under ``jobs > 1``.  Every stage is
a pure function of its inputs plus *named* RNG streams
(:func:`repro.util.rng.child_rng`), which is what makes cached,
parallel, and sequential runs byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping, Sequence

import numpy as np

from repro import paper
from repro.annotation.active_learning import decile_sample
from repro.annotation.annotator import CROWD_PROFILES, EXPERT_PROFILE, SimulatedAnnotator
from repro.annotation.crowdsource import CrowdsourceResult, CrowdsourcingService
from repro.engine import Engine
from repro.nlp.metrics import binary_classification_report, roc_auc
from repro.nlp.models.logreg import LogisticRegressionClassifier
from repro.nlp.spans import SpanStrategy
from repro.pipeline.errors import PipelineError
from repro.pipeline.results import AnnotationProcessStats, PipelineResult, SourceOutcome
from repro.pipeline.seeds import SeedSet, build_seed
from repro.pipeline.thresholds import THRESHOLD_GRID, select_threshold
from repro.pipeline.vectorized import TaskView, VectorizedCorpus
from repro.types import Source, Task
from repro.util.rng import child_rng

#: Sources each task's pipeline covers (paper Table 4; CTH excludes pastes).
TASK_SOURCES: Mapping[Task, tuple[Source, ...]] = {
    Task.DOX: (Source.BOARDS, Source.DISCORD, Source.GAB, Source.PASTES, Source.TELEGRAM),
    Task.CTH: (Source.BOARDS, Source.GAB, Source.DISCORD, Source.TELEGRAM),
}

#: Text length per task, in tokens per span.  The paper's optimised text
#: lengths were 512 and 128 *characters* (Table 3); at ~4 characters per
#: token these correspond to 128 and 32 tokens.
TASK_MAX_TOKENS: Mapping[Task, int] = {Task.DOX: 128, Task.CTH: 32}


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Pipeline knobs; defaults reproduce the paper's protocol."""

    seed: int = 7
    al_rounds: int = 2
    al_per_bin: int = 60  # documents per score decile per source per round
    span_strategy: SpanStrategy = SpanStrategy.RANDOM_NO_OVERLAP
    max_tokens: int | None = None  # None -> TASK_MAX_TOKENS[task]
    eval_fraction: float = 0.2
    target_precision: float = 0.92
    spot_sample_size: int = 200
    threshold_grid: tuple[float, ...] = THRESHOLD_GRID
    model_epochs: int = 6
    model_l2: float = 1e-6
    #: Per-source expert annotation caps; None -> the paper's Table 4 caps.
    annotation_caps: Mapping[Source, int] | None = None

    @classmethod
    def tiny(cls, seed: int = 7) -> "PipelineConfig":
        return cls(seed=seed, al_per_bin=12, model_epochs=4, spot_sample_size=40)

    def __post_init__(self) -> None:
        if not 0 < self.eval_fraction < 0.5:
            raise ValueError("eval_fraction must be in (0, 0.5)")
        if self.al_rounds < 0:
            raise ValueError("al_rounds must be non-negative")
        if not 0 < self.target_precision <= 1:
            raise ValueError("target_precision must be in (0, 1]")
        if self.spot_sample_size <= 0:
            raise ValueError("spot_sample_size must be positive")
        if self.model_epochs <= 0:
            raise ValueError("model_epochs must be positive")


class FilterModel:
    """A span-aware filter classifier bound to one task view."""

    def __init__(
        self,
        view: TaskView,
        epochs: int = 6,
        l2: float = 1e-6,
        seed: int = 0,
        classifier: LogisticRegressionClassifier | None = None,
    ) -> None:
        self.view = view
        self._model = classifier or LogisticRegressionClassifier(
            epochs=epochs, l2=l2, seed=seed
        )

    @property
    def classifier(self) -> LogisticRegressionClassifier:
        return self._model

    def fit(self, positions: Sequence[int], labels: np.ndarray) -> "FilterModel":
        rows, owner = self.view.rows_for_docs(positions)
        labels = np.asarray(labels, dtype=bool)
        self._model.fit(rows, labels[owner])
        return self

    def predict_all(self) -> np.ndarray:
        """Document-level P(positive) for every document in the view."""
        span_scores = self._model.predict_proba(self.view.matrix)
        return self.view.doc_scores(span_scores)

    def predict_docs(self, positions: Sequence[int]) -> np.ndarray:
        rows, owner = self.view.rows_for_docs(positions)
        span_scores = self._model.predict_proba(rows)
        sums = np.bincount(owner, weights=span_scores, minlength=len(positions))
        counts = np.bincount(owner, minlength=len(positions))
        counts[counts == 0] = 1
        return sums / counts


@dataclasses.dataclass
class TrainingState:
    """Label store + annotation-process state carried between stages.

    The dicts are copied stage to stage (cheap); the crowdsourcing
    service travels by reference within one run and by pickle through
    the artifact store, so a round resumed from cache sees exactly the
    worker pool and counters the previous round left behind.
    """

    labels: dict[int, bool]
    crowd_labels: dict[int, bool]
    crowd_batches: tuple[CrowdsourceResult, ...]
    crowd: CrowdsourcingService
    classifier: LogisticRegressionClassifier


@dataclasses.dataclass(frozen=True)
class EvalOutcome:
    """Held-out evaluation of the final classifier (stage 4)."""

    report: Mapping[str, Mapping[str, float]]
    auc: float


class FilteringPipeline:
    """Runs one task's full Fig.-1 pipeline over a vectorized corpus."""

    def __init__(self, task: Task, config: PipelineConfig | None = None) -> None:
        self.task = task
        self.config = config or PipelineConfig()

    # -- public -------------------------------------------------------------

    def run(self, vc: VectorizedCorpus) -> PipelineResult:
        """Execute the pipeline on an engine of its own, without a cache."""
        engine = Engine()
        source = engine.add(f"vectorized:{self.task.value}", lambda: vc)
        result = self.register(engine, source)
        return engine.run([result]).values[result].bind(vc.documents)

    def register(self, engine: Engine, vectorized: str) -> str:
        """Register this task's stage graph; returns the result stage name.

        ``vectorized`` names an already-registered stage producing the
        shared :class:`VectorizedCorpus`.
        """
        cfg = self.config
        t = self.task.value
        seed_s = engine.add(
            f"seed:{t}", self._stage_seed, inputs=(vectorized,), key=(cfg,)
        )
        prev = engine.add(
            f"train:{t}", self._stage_train, inputs=(vectorized, seed_s), key=(cfg,)
        )
        for al_round in range(cfg.al_rounds):
            prev = engine.add(
                f"al:{t}:{al_round}",
                functools.partial(self._stage_al_round, al_round),
                inputs=(vectorized, prev),
                key=(cfg, al_round),
            )
        eval_s = engine.add(
            f"evaluate:{t}", self._stage_evaluate, inputs=(vectorized, prev), key=(cfg,)
        )
        model_s = engine.add(
            f"final-train:{t}",
            self._stage_final_train,
            inputs=(vectorized, prev),
            key=(cfg,),
        )
        score_s = engine.add(
            f"score:{t}",
            self._stage_score,
            inputs=(vectorized, model_s),
            key=(cfg,),
        )
        annotate_stages = [
            engine.add(
                f"annotate:{t}:{source.value}",
                functools.partial(self._stage_threshold_and_annotate, source),
                inputs=(vectorized, score_s),
                key=(cfg, source.value),
            )
            for source in TASK_SOURCES[self.task]
        ]
        return engine.add(
            f"result:{t}",
            self._stage_assemble,
            inputs=(vectorized, prev, eval_s, score_s, *annotate_stages),
            key=(cfg,),
        )

    # -- stage functions ----------------------------------------------------

    def _stage_seed(self, vc: VectorizedCorpus) -> SeedSet:
        """Stage 1: seed annotations (§5.1)."""
        return build_seed(vc.documents, self.task, self.config.seed)

    def _stage_train(self, vc: VectorizedCorpus, seed_set: SeedSet) -> TrainingState:
        """Stage 2: initial training on the seeds."""
        labels = {int(p): bool(l) for p, l in zip(seed_set.positions, seed_set.labels)}
        return TrainingState(
            labels=labels,
            crowd_labels={},
            crowd_batches=(),
            crowd=CrowdsourcingService(CROWD_PROFILES[self.task], self.config.seed),
            classifier=self._fit(self._view(vc), labels),
        )

    def _stage_al_round(
        self, al_round: int, vc: VectorizedCorpus, state: TrainingState
    ) -> TrainingState:
        """Stage 3: one active-learning round (§5.3)."""
        cfg = self.config
        documents = vc.documents
        view = self._view(vc)
        scores = FilterModel(view, classifier=state.classifier).predict_all()
        labels = dict(state.labels)
        crowd_labels = dict(state.crowd_labels)
        batches = list(state.crowd_batches)
        for source, positions in self._eligible_by_source(vc).items():
            if positions.size == 0:
                continue
            already = np.array(
                [i for i, p in enumerate(positions) if int(p) in labels],
                dtype=np.int64,
            )
            local = decile_sample(
                scores[positions], cfg.al_per_bin,
                child_rng(cfg.seed, "al", self.task.value, al_round, source.value),
                exclude=already if already.size else None,
            )
            if local.size == 0:
                continue
            chosen = positions[local]
            truths = np.array([documents[p].truth_for(self.task) for p in chosen])
            result = state.crowd.annotate_batch(truths)
            batches.append(result)
            for p, label in zip(chosen, result.labels):
                labels[int(p)] = bool(label)
                crowd_labels[int(p)] = bool(label)
        return TrainingState(
            labels=labels,
            crowd_labels=crowd_labels,
            crowd_batches=tuple(batches),
            crowd=state.crowd,
            classifier=self._fit(view, labels),
        )

    def _stage_evaluate(self, vc: VectorizedCorpus, state: TrainingState) -> EvalOutcome:
        """Stage 4: hold out a slice of the *crowd-annotated* data (§5.4).

        The seed annotations stay in training (they bootstrapped the
        model); evaluation mirrors the paper's withheld annotation sets.
        """
        view = self._view(vc)
        labels_store = state.labels
        rng = child_rng(self.config.seed, "pipeline", self.task.value)
        eval_pool = np.fromiter(
            state.crowd_labels.keys(), dtype=np.int64, count=len(state.crowd_labels)
        )
        if eval_pool.size < 20:  # degenerate corpora: fall back to everything
            eval_pool = np.fromiter(
                labels_store.keys(), dtype=np.int64, count=len(labels_store)
            )
        n_eval = max(int(eval_pool.size * self.config.eval_fraction), 10)
        eval_positions = rng.choice(
            eval_pool, size=min(n_eval, eval_pool.size // 2), replace=False
        )
        eval_set = set(int(p) for p in eval_positions)
        train_positions = np.array(
            [p for p in labels_store if p not in eval_set], dtype=np.int64
        )
        train_labels = np.array([labels_store[int(p)] for p in train_positions], dtype=bool)
        if train_labels.all() or not train_labels.any():
            n_positive = int(train_labels.sum())
            raise PipelineError(
                "train split lost a class; corpus too small for evaluation",
                task=self.task,
                n_train_positive=n_positive,
                n_train_negative=int(train_labels.size - n_positive),
                hint="raise al_per_bin or the corpus size so both classes "
                "survive the held-out split",
            )
        model = FilterModel(
            view, epochs=self.config.model_epochs, l2=self.config.model_l2,
            seed=self.config.seed,
        ).fit(train_positions, train_labels)
        probs = model.predict_docs(eval_positions)
        y_true = np.array([labels_store[int(p)] for p in eval_positions], dtype=bool)
        report = binary_classification_report(
            y_true, probs > 0.5,
            positive_name="positive", negative_name="negative",
        )
        auc = roc_auc(y_true, probs) if y_true.any() and not y_true.all() else float("nan")
        return EvalOutcome(report=report, auc=auc)

    def _stage_final_train(
        self, vc: VectorizedCorpus, state: TrainingState
    ) -> LogisticRegressionClassifier:
        """Final model on all annotations (the §3 releasable classifier)."""
        return self._fit(self._view(vc), state.labels)

    def _stage_score(
        self, vc: VectorizedCorpus, classifier: LogisticRegressionClassifier
    ) -> np.ndarray:
        """Score the whole corpus with the final model."""
        return FilterModel(self._view(vc), classifier=classifier).predict_all()

    def _stage_threshold_and_annotate(
        self, source: Source, vc: VectorizedCorpus, scores: np.ndarray
    ) -> SourceOutcome | None:
        """Stages 5–6: threshold selection + expert annotation (§5.5–§5.6).

        Independent across sources — each gets its own named RNG streams
        and its own simulated expert, so the per-source stages can run
        concurrently yet byte-identically to a sequential run.
        """
        cfg = self.config
        documents = vc.documents
        positions = self._eligible_by_source(vc)[source]
        if positions.size == 0:
            return None
        expert = self._expert_for(source)
        source_scores = scores[positions]
        truths = np.array([documents[p].truth_for(self.task) for p in positions])

        def annotate(sample_idx: np.ndarray) -> np.ndarray:
            return expert.annotate_many(truths[sample_idx])

        cap = self._caps().get(source, int(1e12))
        decision = select_threshold(
            source_scores,
            annotate,
            child_rng(cfg.seed, "threshold", self.task.value, source.value),
            grid=cfg.threshold_grid,
            target_precision=cfg.target_precision,
            sample_size=cfg.spot_sample_size,
            annotatable_cap=cap,
        )
        above_local = np.flatnonzero(source_scores > decision.threshold)
        fully = above_local.size <= cap
        if fully:
            annotated_local = above_local
        else:
            rng = child_rng(cfg.seed, "annotate", self.task.value, source.value)
            annotated_local = np.sort(rng.choice(above_local, size=cap, replace=False))
        expert_labels = expert.annotate_many(truths[annotated_local])
        tp_local = annotated_local[expert_labels]
        return SourceOutcome(
            source=source,
            threshold=decision.threshold,
            n_above=int(above_local.size),
            n_annotated=int(annotated_local.size),
            n_true_positive=int(tp_local.size),
            fully_annotated=fully,
            above_positions=positions[above_local],
            true_positive_positions=positions[tp_local],
        )

    def _stage_assemble(
        self,
        vc: VectorizedCorpus,
        state: TrainingState,
        evaluation: EvalOutcome,
        scores: np.ndarray,
        *source_outcomes: SourceOutcome | None,
    ) -> PipelineResult:
        """Stage 7: fold every stage output into the result container.

        The result carries no documents (its positions index ``vc``), so
        its artifact does not pickle the corpus; :meth:`run` and
        :func:`repro.lab.run_study` bind them on return.
        """
        outcomes = {o.source: o for o in source_outcomes if o is not None}
        return PipelineResult(
            task=self.task,
            documents=(),
            outcomes=outcomes,
            eval_report=evaluation.report,
            eval_auc=evaluation.auc,
            training_data_sizes=self._training_sizes(state.crowd_labels, vc.documents),
            annotation_stats=_combine_crowd_stats(state.crowd_batches, state.crowd),
            scores=scores,
            max_tokens=self.config.max_tokens or TASK_MAX_TOKENS[self.task],
        )

    # -- internals ----------------------------------------------------------

    def _view(self, vc: VectorizedCorpus) -> TaskView:
        cfg = self.config
        max_tokens = cfg.max_tokens or TASK_MAX_TOKENS[self.task]
        return vc.task_view(max_tokens, cfg.span_strategy)

    def _eligible_by_source(self, vc: VectorizedCorpus) -> dict[Source, np.ndarray]:
        by_source = vc._source_positions()
        return {source: by_source[source] for source in TASK_SOURCES[self.task]}

    def _expert_for(self, source: Source) -> SimulatedAnnotator:
        """One domain expert per (task, source), on an independent stream."""
        task_base = 900 + 10 * (0 if self.task is Task.DOX else 1)
        source_index = TASK_SOURCES[self.task].index(source)
        return SimulatedAnnotator(task_base + source_index, EXPERT_PROFILE, self.config.seed)

    def _caps(self) -> dict[Source, int]:
        if self.config.annotation_caps is not None:
            return dict(self.config.annotation_caps)
        return {
            source: (int(1e12) if row["full"] else int(row["annotated"]))
            for source, row in paper.TABLE4_THRESHOLDS[self.task].items()
        }

    def _fit(
        self, view: TaskView, labels_store: Mapping[int, bool]
    ) -> LogisticRegressionClassifier:
        positions = np.fromiter(labels_store.keys(), dtype=np.int64, count=len(labels_store))
        labels = np.fromiter(labels_store.values(), dtype=bool, count=len(labels_store))
        model = FilterModel(
            view, epochs=self.config.model_epochs, l2=self.config.model_l2,
            seed=self.config.seed,
        )
        return model.fit(positions, labels).classifier

    def _training_sizes(
        self,
        crowd_labels: Mapping[int, bool],
        documents: Sequence,
    ) -> dict[Source, tuple[int, int]]:
        sizes = {source: [0, 0] for source in TASK_SOURCES[self.task]}
        for position, label in crowd_labels.items():
            source = documents[position].source
            if source in sizes:
                sizes[source][0 if label else 1] += 1
        return {source: (pos, neg) for source, (pos, neg) in sizes.items()}


def _combine_crowd_stats(
    batches: Sequence[CrowdsourceResult],
    service: CrowdsourcingService,
) -> AnnotationProcessStats:
    """Aggregate per-batch agreement stats with the service's lifetime totals.

    Removal and qualification-failure counts accumulate on the long-lived
    :class:`CrowdsourcingService` across batches, so the totals come from
    the service.
    """
    n_removed = service.n_removed_annotators
    n_qualification = service.n_qualification_failures
    if not batches:
        return AnnotationProcessStats(0, 0.0, float("nan"), 0, n_removed, n_qualification)
    first = np.concatenate([b.first for b in batches])
    second = np.concatenate([b.second for b in batches])
    from repro.nlp.metrics import cohens_kappa  # local to avoid cycle at import

    return AnnotationProcessStats(
        n_documents=int(first.size),
        disagreement_rate=float(np.mean(first != second)),
        kappa=cohens_kappa(first, second),
        n_tiebreaks=sum(b.n_tiebreaks for b in batches),
        n_removed_annotators=n_removed,
        n_qualification_failures=n_qualification,
    )
