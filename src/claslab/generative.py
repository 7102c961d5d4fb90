"""Generative classifiers: normal-model LDA and the Parzen window rule.

Both model the per-class feature density, weight it by an estimated
class prior, and classify by comparing the two weighted densities.  All
density work happens in log space.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .base import DecisionFunction, as_matrix, freeze, point_or_batch
from .data import LabeledDataset
from .exceptions import FitError, NumericError
from .oracle import LOG_2PI


@dataclass(frozen=True)
class LdaModel(DecisionFunction):
    """Equal-covariance Gaussian model reduced to its linear decision rule.

    The fitted boundary is weight . x + offset = 0 with
    weight = pooled_cov^-1 (mean_pos - mean_neg) and the offset folding
    in the priors and the means' Mahalanobis norms.
    """

    prior_pos: float
    prior_neg: float
    mean_pos: np.ndarray
    mean_neg: np.ndarray
    pooled_cov: np.ndarray
    ridge: float
    weight: np.ndarray
    offset: float

    def __post_init__(self):
        for name in ("mean_pos", "mean_neg", "pooled_cov", "weight"):
            freeze(self, name)

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        return X @ self.weight + self.offset

    def affine_form(self):
        return self.weight, self.offset


def _positive_rows(ds):
    pos = ds.labels == 1
    if not pos.any() or pos.all():
        raise FitError("both classes must be present to fit this model")
    return pos


def fit_lda(
    ds: LabeledDataset,
    laplace_priors: bool = False,
    unbiased_cov: bool = False,
    ridge_cov: float = 0.0,
) -> LdaModel:
    """Maximum-likelihood LDA fit with optional small-sample variants.

    ``laplace_priors`` uses (N_c + 1)/(N + 2) instead of N_c/N;
    ``unbiased_cov`` rescales the pooled covariance by N/(N - 2);
    ``ridge_cov`` adds that multiple of the identity before inversion,
    which is the only way to fit when the pooled covariance is singular
    (e.g. d >= N).
    """
    if ridge_cov < 0:
        raise ValueError("ridge_cov must be nonnegative")
    pos = _positive_rows(ds)
    mean_pos, mean_neg = ds.features[pos].mean(axis=0), ds.features[~pos].mean(axis=0)
    n, d = ds.features.shape
    if laplace_priors:
        prior_pos = (ds.n_pos + 1.0) / (n + 2.0)
    else:
        prior_pos = ds.n_pos / n
    prior_neg = 1.0 - prior_pos

    centered = ds.features - np.where(pos[:, None], mean_pos, mean_neg)
    cov = centered.T @ centered / n
    if unbiased_cov:
        if n <= 2:
            raise FitError("unbiased_cov needs N > 2")
        cov = cov * (n / (n - 2.0))
    solve_cov = cov + ridge_cov * np.eye(d)
    try:
        chol = np.linalg.cholesky(solve_cov)
    except np.linalg.LinAlgError:
        raise NumericError(
            "pooled covariance is singular; refit with ridge_cov > 0"
        ) from None

    def cov_solve(v):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, v))

    weight = cov_solve(mean_pos - mean_neg)
    # offset from the log-density difference itself, rather than a separate
    # closed form: log prior ratio minus half the difference of the means'
    # Mahalanobis norms (the determinant terms cancel for a shared cov).
    offset = float(
        np.log(prior_pos) - np.log(prior_neg)
        - 0.5 * (mean_pos @ cov_solve(mean_pos) - mean_neg @ cov_solve(mean_neg))
    )
    return LdaModel(
        prior_pos=float(prior_pos),
        prior_neg=float(prior_neg),
        mean_pos=mean_pos,
        mean_neg=mean_neg,
        pooled_cov=cov,
        ridge=float(ridge_cov),
        weight=weight,
        offset=offset,
    )


def lda_decision(model: LdaModel, x):
    """weight . x + offset; sign classifies, 0 goes to +1."""
    return point_or_batch(model.decision_function, x)


def _logsumexp_rows(a):
    """scipy.special.logsumexp(a, axis=1) of a real matrix, bit for bit, in a's own buffer."""
    top = a.max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(top))  # only these rows' shifted sums are not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fallback = np.log(np.exp(a[bad]).sum(axis=1))
        mask = a == top
        m = mask.sum(axis=1, keepdims=True, dtype=float)
        a[mask] = -np.inf
        s = np.exp(np.subtract(a, top, out=a), out=a).sum(axis=1, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        out = (np.log1p(s) + np.log(m) + top)[:, 0]
    out[bad] = fallback
    return out


@dataclass(frozen=True)
class ParzenModel(DecisionFunction):
    """Kernel density estimate per class: a mean of isotropic Gaussians
    of width ``bandwidth`` centered at the stored class points."""

    bandwidth: float
    points_pos: np.ndarray
    points_neg: np.ndarray
    prior_pos: float
    prior_neg: float

    def __post_init__(self):
        if isinstance(self.bandwidth, bool) or not isinstance(self.bandwidth, numbers.Real):
            raise ValueError(f"bandwidth must be a real number, got {self.bandwidth!r}")
        if not (self.bandwidth > 0 and 0.0 < self.bandwidth * self.bandwidth < np.inf):
            raise ValueError("bandwidth must be positive with a positive finite square")
        freeze(self, "points_pos")
        freeze(self, "points_neg")

    @property
    def dim(self) -> int:
        return self.points_pos.shape[1]

    def _log_density(self, X, points):
        h2 = self.bandwidth**2
        sq = cdist(X, points, "sqeuclidean")
        sq *= -0.5
        sq /= h2
        norm = -0.5 * self.dim * (LOG_2PI + np.log(h2)) - np.log(points.shape[0])
        return _logsumexp_rows(sq) + norm

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        return (
            np.log(self.prior_pos)
            + self._log_density(X, self.points_pos)
            - np.log(self.prior_neg)
            - self._log_density(X, self.points_neg)
        )


def fit_parzen(ds: LabeledDataset, bandwidth: float) -> ParzenModel:
    """Store the training points; all smoothing happens at query time."""
    pos = _positive_rows(ds)
    return ParzenModel(
        bandwidth=float(bandwidth),
        points_pos=ds.features[pos],
        points_neg=ds.features[~pos],
        prior_pos=ds.n_pos / ds.n,
        prior_neg=ds.n_neg / ds.n,
    )


def parzen_decision(model: ParzenModel, x):
    """Log ratio of the weighted class density estimates at x."""
    return point_or_batch(model.decision_function, x)
