"""k-nearest-neighbor classification (Euclidean, odd k, brute force)."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .base import DecisionFunction, as_matrix, blocks
from .data import LabeledDataset

@dataclass(frozen=True)
class KnnClassifier(DecisionFunction):
    """Vote of the k nearest stored points.

    k must be odd so two-class votes cannot tie.  One mask picks the
    points nearer than the k-th smallest distance, then those exactly at
    it in stored-row order, so a distance tie goes to the lower index.
    """

    k: int
    dataset: LabeledDataset

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if not 1 <= self.k <= self.dataset.n:
            raise ValueError(f"k must lie in [1, N={self.dataset.n}]")
        if self.k % 2 == 0:
            raise ValueError("even k can tie a two-class vote; use odd k")

    @property
    def dim(self) -> int:
        return self.dataset.dim

    def decision_function(self, X):
        # squared distances order identically to Euclidean ones
        dist = cdist(as_matrix(X, self.dim), self.dataset.features, "sqeuclidean")
        return _vote(dist, self.k, self.dataset.labels == 1)


def _vote(dist, k: int, positive) -> np.ndarray:
    """Mean of the k labels nearest by each row of ``dist`` (distances to the
    stored points, whose labels are +1 where ``positive``), in dist's buffer.

    A NaN distance sorts after every other one and neither undercuts nor
    equals the k-th, so its point takes no seat.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partition
    at, vote = dist == kth, dist < kth
    seats = k - vote.sum(axis=1, keepdims=True)
    tied = np.flatnonzero(at.sum(axis=1, keepdims=True) > seats)  # only these need the order
    at[tied] &= at[tied].cumsum(axis=1, dtype=np.int32) <= seats[tied]
    vote |= at
    vote &= positive
    return (2 * vote.sum(axis=1) - k) / k  # exact: the mean of the k voting labels


def fit_knn(ds: LabeledDataset, k: int) -> KnnClassifier:
    """Store the data verbatim; all work happens at query time."""
    return KnnClassifier(k, ds)


def knn_loo_scores(ds: LabeledDataset, model: KnnClassifier):
    """Each row's score under the fit to all the other rows, from ``model``,
    the fit to all rows; None when k leaves no complement enough points.

    The row's own distance is NaN, so it takes no seat, and the vote is the
    refit's bit for bit, ties included.
    """
    if model.k >= ds.n:
        return None
    X, positive, scores = ds.features, ds.labels == 1, []
    for rows in blocks(ds.n):
        dist = cdist(X[rows], X, "sqeuclidean")
        dist[np.arange(dist.shape[0]), np.arange(ds.n)[rows]] = np.nan
        scores.append(_vote(dist, model.k, positive))
    return np.concatenate(scores)
