"""Unit tests for §5.5 threshold selection."""

import numpy as np

from repro.pipeline.thresholds import THRESHOLD_GRID, select_threshold


def _make_scores(rng, n_pos=200, n_neg=2000, pos_loc=0.9, neg_loc=0.3):
    pos = np.clip(rng.normal(pos_loc, 0.08, n_pos), 0, 1)
    neg = np.clip(rng.normal(neg_loc, 0.2, n_neg), 0, 1)
    scores = np.concatenate([pos, neg])
    truths = np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)])
    return scores, truths


def _oracle(truths):
    return lambda idx: truths[idx]


def test_clean_scores_choose_low_threshold(rng):
    # Perfectly separated scores: no reason to leave the base threshold.
    scores = np.concatenate([np.full(200, 0.95), np.full(2000, 0.05)])
    truths = np.concatenate([np.ones(200, bool), np.zeros(2000, bool)])
    decision = select_threshold(scores, _oracle(truths), rng)
    assert decision.threshold == 0.5


def test_noisy_scores_raise_threshold(rng):
    # Many negatives just above 0.5 force the precision-driven raise.
    scores, truths = _make_scores(rng, n_pos=80, n_neg=4000, pos_loc=0.97, neg_loc=0.55)
    decision = select_threshold(scores, _oracle(truths), rng, target_precision=0.9)
    assert decision.threshold > 0.5


def test_history_records_probes(rng):
    scores, truths = _make_scores(rng)
    decision = select_threshold(scores, _oracle(truths), rng)
    assert decision.history
    for threshold, precision, n in decision.history:
        assert 0 <= precision <= 1
        assert n >= 0


def test_n_above_consistent(rng):
    scores, truths = _make_scores(rng)
    decision = select_threshold(scores, _oracle(truths), rng)
    assert decision.n_above == int((scores > decision.threshold).sum())


def test_manageable_cap_shortcut(rng):
    # Mediocre precision but tiny volume -> accept 0.5 (the paper's
    # Discord case: precision 0.47 at threshold 0.5, fully annotated).
    scores, truths = _make_scores(rng, n_pos=20, n_neg=30, pos_loc=0.9, neg_loc=0.6)
    decision = select_threshold(
        scores, _oracle(truths), rng, target_precision=0.95, annotatable_cap=1000
    )
    assert decision.threshold == 0.5


def test_cap_shortcut_needs_workable_precision(rng):
    # Hopeless precision is not accepted even when volume is manageable.
    scores = np.clip(rng.normal(0.7, 0.1, 500), 0, 1)
    truths = np.zeros(500, bool)
    truths[:5] = True
    decision = select_threshold(
        scores, _oracle(truths), rng, annotatable_cap=10_000, workable_precision=0.45
    )
    # The manageable-volume shortcut must NOT fire: the search probed the
    # grid (more than one history entry) instead of accepting 0.5 outright.
    assert len(decision.history) > 1


def test_lowering_phase_prefers_recall(rng):
    # Precision identical at all thresholds -> lowest grid value wins.
    scores = np.concatenate([np.full(50, 0.99), np.full(50, 0.05)])
    truths = np.concatenate([np.ones(50, bool), np.zeros(50, bool)])
    decision = select_threshold(scores, _oracle(truths), rng, target_precision=0.9)
    assert decision.threshold == min(THRESHOLD_GRID)


def test_grid_exhaustion_picks_last(rng):
    # All negatives everywhere: the search walks the grid and settles.
    scores = np.clip(rng.normal(0.8, 0.05, 300), 0, 1)
    truths = np.zeros(300, bool)
    decision = select_threshold(scores, _oracle(truths), rng)
    assert decision.threshold in THRESHOLD_GRID


def test_no_walk_down_when_target_never_reached(rng):
    # Precision is uniformly hopeless: phase 1 exhausts the grid.  The
    # phase-2 walk-down must not fire — "similar" precision to an
    # already-failed threshold would walk the choice back to 0.5 and
    # strictly grow the false-positive volume.
    scores = rng.uniform(0.5, 1.0, 400)
    truths = np.zeros(400, bool)
    decision = select_threshold(scores, _oracle(truths), rng, target_precision=0.9)
    assert decision.threshold == max(THRESHOLD_GRID)


def test_walk_down_still_fires_after_success(rng):
    # Guarding phase 2 must not disable it when phase 1 *did* reach the
    # target: identical precision across the grid still prefers recall.
    scores = np.concatenate([np.full(80, 0.99), np.full(80, 0.02)])
    truths = np.concatenate([np.ones(80, bool), np.zeros(80, bool)])
    decision = select_threshold(scores, _oracle(truths), rng, target_precision=0.9)
    assert decision.threshold == min(THRESHOLD_GRID)


def test_noisy_expert_annotation(rng):
    """The closure receives indices, so a noisy expert integrates cleanly."""
    scores, truths = _make_scores(rng)

    def noisy(idx):
        labels = truths[idx].copy()
        flip = rng.random(labels.size) < 0.05
        return labels ^ flip

    decision = select_threshold(scores, noisy, rng)
    assert 0 < decision.threshold < 1
