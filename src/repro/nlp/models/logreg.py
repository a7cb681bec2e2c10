"""L2-regularised logistic regression trained with mini-batch Adam.

This is the production filter model of the reproduction: fast enough to
score the full synthetic crawl repeatedly during active learning and
threshold selection, with calibrated-ish probabilities for the decile
sampler.  Class imbalance (positives are <5 % of training data) is handled
with inverse-frequency example weights.

Adam runs only on the *touched* columns, those with a stored entry in
some training row (1-5 % of the 2^18 hashed columns on the study's
fits), and the weights are scattered into the full vector.  This is
exact: an untouched column's gradient is exactly 0.0 at every step, so
its weight stays +0.0, and a touched column sees the same operands in
the same order, because the renumbering keeps each row's entries in
their stored order (DESIGN.md §11).  The full-width loop is kept as
``tests/kernel_reference.py::reference_fit``, which the fit must match
byte for byte.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.nlp.models.base import validate_training_inputs
from repro.util.rng import child_rng


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegressionClassifier:
    """Sparse binary logistic regression (numpy + scipy.sparse)."""

    def __init__(
        self,
        l2: float = 1e-5,
        lr: float = 0.05,
        epochs: int = 6,
        batch_size: int = 512,
        balanced: bool = True,
        seed: int = 0,
    ) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        self.l2 = l2
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.balanced = balanced
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0

    def fit(self, features: sparse.csr_matrix, labels: np.ndarray) -> "LogisticRegressionClassifier":
        if not (sparse.issparse(features) and features.format == "csr"):
            raise TypeError(
                f"fit needs a CSR matrix or array, not {type(features).__name__}"
            )
        labels = validate_training_inputs(features, labels)
        rng = child_rng(self.seed, "logreg-shuffle")
        n, d = features.shape
        # Renumber the touched columns 0..k-1 in column order; the
        # entries of each row keep their stored order.
        cols = np.flatnonzero(np.bincount(features.indices, minlength=d))
        # Allocated before the loop, the long-lived full-width vector sits
        # below the loop's temporaries, so the heap can shrink after them.
        weights = np.zeros(d)
        renumber = np.zeros(d, dtype=features.indices.dtype)
        renumber[cols] = np.arange(cols.size)
        features = sparse.csr_matrix(
            (features.data, renumber[features.indices], features.indptr),
            shape=(n, cols.size),
        )
        y = labels.astype(np.float64)
        if self.balanced:
            pos_w = n / (2.0 * y.sum())
            neg_w = n / (2.0 * (n - y.sum()))
            sample_w = np.where(labels, pos_w, neg_w)
        else:
            sample_w = np.ones(n)

        w = np.zeros(cols.size)
        b = 0.0
        m_w = np.zeros(cols.size)
        v_w = np.zeros(cols.size)
        m_b = v_b = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                batch = features[idx]
                yb = y[idx]
                wb = sample_w[idx]
                z = batch @ w + b
                p = _sigmoid(z)
                residual = (p - yb) * wb / idx.size
                grad_w = batch.T @ residual + self.l2 * w
                grad_b = float(residual.sum())
                step += 1
                m_w = beta1 * m_w + (1 - beta1) * grad_w
                v_w = beta2 * v_w + (1 - beta2) * grad_w * grad_w
                m_b = beta1 * m_b + (1 - beta1) * grad_b
                v_b = beta2 * v_b + (1 - beta2) * grad_b * grad_b
                bias_corr1 = 1 - beta1 ** step
                bias_corr2 = 1 - beta2 ** step
                w -= self.lr * (m_w / bias_corr1) / (np.sqrt(v_w / bias_corr2) + eps)
                b -= self.lr * (m_b / bias_corr1) / (np.sqrt(v_b / bias_corr2) + eps)
        weights[cols] = w
        self.weights = weights
        self.bias = b
        return self

    def __getstate__(self) -> dict:
        # A fit touches few columns, so the weights pickle sparse: their
        # size, the int32 positions whose bit pattern is not zero (so a
        # -0.0 round-trips) and the float64 values there.
        state = self.__dict__.copy()
        weights = state.pop("weights")
        if weights is not None:
            positions = np.flatnonzero(weights.view(np.uint64)).astype(np.int32)
            weights = (weights.size, positions, weights[positions])
        state["sparse_weights"] = weights
        return state

    def __setstate__(self, state: dict) -> None:
        state = state.copy()
        # A dense state (written before the weights pickled sparse) has
        # no such key and fails to load: the engine recomputes its stage.
        weights = state.pop("sparse_weights")
        if weights is not None:
            size, positions, values = weights
            weights = np.zeros(size)
            weights[positions] = values
        self.__dict__.update(state, weights=weights)

    def predict_proba(self, features: sparse.csr_matrix) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("classifier is not fitted")
        return _sigmoid(features @ self.weights + self.bias)

    def decision_function(self, features: sparse.csr_matrix) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("classifier is not fitted")
        return features @ self.weights + self.bias
