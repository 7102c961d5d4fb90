"""k-nearest-neighbor classification (Euclidean, odd k, brute force)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .base import DecisionFunction, as_matrix, point_or_batch
from .data import LabeledDataset

@dataclass(frozen=True)
class KnnClassifier(DecisionFunction):
    """Vote of the k nearest stored points.

    k must be odd so two-class votes cannot tie.  Exact distance ties
    are resolved toward the lower stored row index (stable sort on
    distance keeps original order among equals).
    """

    k: int
    dataset: LabeledDataset

    @property
    def dim(self) -> int:
        return self.dataset.dim

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        stored = self.dataset.features
        labels = self.dataset.labels
        k = self.k
        # squared distances order identically to Euclidean ones
        dist = cdist(X, stored, "sqeuclidean")
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        rows = np.arange(X.shape[0])[:, None]
        kth = dist[rows, part].max(axis=1)
        # rows with several points exactly at the k-th distance need the
        # stable order to honor the lower-index tie rule
        tied = (dist <= kth[:, None]).sum(axis=1) > k
        votes = labels[part].mean(axis=1)
        for r in np.flatnonzero(tied):
            order = np.argsort(dist[r], kind="stable")[:k]
            votes[r] = labels[order].mean()
        return votes


def fit_knn(ds: LabeledDataset, k: int) -> KnnClassifier:
    """Store the data verbatim; all work happens at query time."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must lie in [1, N={ds.n}]")
    if k % 2 == 0:
        raise ValueError("even k can tie a two-class vote; use odd k")
    return KnnClassifier(k, ds)


def knn_classify(model: KnnClassifier, x):
    """Majority label among the k nearest stored points."""
    return point_or_batch(model.predict, x)
