"""Generative classifiers: normal-model LDA and the Parzen window rule.

Both model the per-class feature density, weight it by an estimated
class prior, and classify by comparing the two weighted densities.  All
density work happens in log space.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .base import (
    NEAR_SINGULAR, DecisionFunction, as_matrix, blocks, freeze, well_conditioned,
)
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
    centered = ds.features - np.where(pos[:, None], mean_pos, mean_neg)
    prior_pos, cov = _lda_moments(
        ds.n_pos, ds.n, centered.T @ centered, laplace_priors, unbiased_cov
    )
    prior_neg = 1.0 - prior_pos
    solve_cov = cov + ridge_cov * np.eye(ds.dim)
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
    if not (np.isfinite(offset) and np.all(np.isfinite(cov))):
        raise NumericError("the LDA moments overflow a float; rescale the features")
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


def _lda_moments(n_pos, n, scatter, laplace_priors, unbiased_cov):
    """(prior_pos, pooled covariance) of n rows, n_pos of them positive, whose
    rows minus their class means have the cross-product ``scatter``; each may
    be an array of such, broadcasting together."""
    prior_pos = (n_pos + 1.0) / (n + 2.0) if laplace_priors else n_pos / n
    cov = scatter / n
    if unbiased_cov:
        if np.any(n <= 2):
            raise FitError("unbiased_cov needs N > 2")
        cov = cov * (n / (n - 2.0))
    return prior_pos, cov


def lda_loo_scores(
    ds: LabeledDataset, model: LdaModel, laplace_priors: bool = False, unbiased_cov: bool = False
):
    """Each row's score under the fit to all the other rows, from ``model``,
    the fit to all rows; None when a class has one row, which its complement
    would lose, or when a complement's covariance is too near singular to
    tell whether its refit would fail.

    Leaving out row x of class c, with z = x - m_c, moves m_c by
    -z/(n_c - 1) and takes n_c/(n_c - 1) z z^T off the pooled scatter
    (Lachenbruch & Mickey 1968).  So every complement's covariance is
    M - beta z z^T for one shared M, and one Cholesky factor of M with a
    Sherman-Morrison update gives each complement's Mahalanobis distances
    from x to its two class means; the score is the log prior ratio plus
    half their difference, as in the fit's rule.
    """
    if min(ds.n_pos, ds.n_neg) < 2:
        return None
    X, pos = ds.features, ds.labels == 1
    n_own = np.where(pos, ds.n_pos, ds.n_neg)
    own = n_own / (n_own - 1.0)  # x minus its class's complement mean is own * z
    z = X - np.where(pos[:, None], model.mean_pos, model.mean_neg)
    other = X - np.where(pos[:, None], model.mean_neg, model.mean_pos)  # that mean stays
    # both classes keep two rows, so N - 1 >= 3 and unbiased_cov holds
    prior_pos, scale = _lda_moments(ds.n_pos - pos, ds.n - 1, 1.0, laplace_priors, unbiased_cov)
    shared = scale * (z.T @ z) + model.ridge * np.eye(ds.dim)  # M
    spectrum = np.linalg.eigvalsh(shared)
    if spectrum[0] <= NEAR_SINGULAR * spectrum[-1]:  # before M's Cholesky, which needs it
        return None
    chol = np.linalg.cholesky(shared)
    zw, ow = (solve_triangular(chol, v.T, lower=True) for v in (z, other))  # L^-1 z, L^-1 other
    q, beta = np.sum(zw * zw, axis=0), scale * own
    # the complement's covariance determinant over M's; by eigenvalue
    # interlacing, its smallest over largest eigenvalue is at least rest times M's
    rest = 1.0 - beta * q
    if np.any(rest * spectrum[0] <= NEAR_SINGULAR * spectrum[-1]):
        return None
    d_own = own**2 * q / rest
    d_other = np.sum(ow * ow, axis=0) + beta * np.sum(zw * ow, axis=0) ** 2 / rest
    return (
        np.log(prior_pos) - np.log(1.0 - prior_pos)
        + np.where(pos, 0.5, -0.5) * (d_other - d_own)
    )


def lda_round_scores(
    X, y, C, laplace_priors: bool = False, unbiased_cov: bool = False, ridge_cov: float = 0.0
):
    """Every row's score under the LDA fit to the rows weighted by each row of
    the count matrix ``C`` (see ``evaluation.Trainer.round_scores``); None
    when a round has a class with no weight, when a round's covariance plus
    ridge is too near singular to tell whether its refit would fail, or when
    ``unbiased_cov`` meets a round of at most two rows.

    A weight counts a row that many times in the class counts, means and
    pooled scatter, so each round is the fit to its drawn rows, repeats
    included; the score is the fit's w . x + offset.
    """
    pos = y == 1
    n_pos, n = C @ pos, C.sum(axis=1)
    if np.any(n_pos == 0) or np.any(n_pos == n) or (unbiased_cov and np.any(n <= 2)):
        return None
    means = [np.matmul((C * own)[:, None, :], X)[:, 0] / count[:, None]
             for own, count in ((pos, n_pos), (~pos, n - n_pos))]  # (R, d) each
    centered = X - np.where(pos[:, None], means[0][:, None, :], means[1][:, None, :])
    scatter = np.matmul(np.swapaxes(centered * C[:, :, None], 1, 2), centered)
    prior_pos, cov = _lda_moments(
        n_pos[:, None, None], n[:, None, None], scatter, laplace_priors, unbiased_cov
    )
    solve_cov = cov + ridge_cov * np.eye(X.shape[-1])
    if not well_conditioned(solve_cov):
        return None
    # columns: cov^-1 mean_pos, cov^-1 mean_neg
    solved = np.linalg.solve(solve_cov, np.stack(means, axis=-1))
    weight = solved[..., 0] - solved[..., 1]
    offset = (
        np.log(prior_pos[:, 0, 0]) - np.log(1.0 - prior_pos[:, 0, 0])
        - 0.5 * (np.sum(means[0] * solved[..., 0], axis=1)
                 - np.sum(means[1] * solved[..., 1], axis=1))
    )
    return np.matmul(X, weight[:, :, None])[..., 0] + offset[:, None]


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

    def _log_density(self, X, points, left_out=None):
        """Log density at each row of X of the estimate from ``points``, where
        row r leaves out ``points[left_out[r]]`` if that index is >= 0."""
        h2 = self.bandwidth**2
        sq = cdist(X, points, "sqeuclidean")
        sq *= -0.5
        sq /= h2
        count = points.shape[0]
        if left_out is not None:
            rows = np.flatnonzero(left_out >= 0)
            sq[rows, left_out[rows]] = -np.inf
            count = count - (left_out >= 0)
        norm = -0.5 * self.dim * (LOG_2PI + np.log(h2)) - np.log(count)
        return _logsumexp_rows(sq) + norm

    def _scores(self, X, prior_pos, prior_neg, left_out=(None, None)):
        return (
            np.log(prior_pos)
            + self._log_density(X, self.points_pos, left_out[0])
            - np.log(prior_neg)
            - self._log_density(X, self.points_neg, left_out[1])
        )

    def decision_function(self, X):
        return self._scores(as_matrix(X, self.dim), self.prior_pos, self.prior_neg)


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


def parzen_loo_scores(ds: LabeledDataset, model: ParzenModel):
    """Each row's score under the fit to all the other rows, from ``model``,
    the fit to all rows; None when a class has one row, which its complement
    would lose.

    The row's own kernel term is dropped, so its class counts n_c - 1
    points, and the priors count the N - 1 rows of the complement.
    """
    if min(ds.n_pos, ds.n_neg) < 2:
        return None
    pos = ds.labels == 1
    # each row's index among its own class's points; -1 in the other class
    left_out = [np.where(own, np.cumsum(own) - 1, -1) for own in (pos, ~pos)]
    scores = []
    for rows in blocks(ds.n):
        n_pos = ds.n_pos - pos[rows]
        scores.append(model._scores(
            ds.features[rows], n_pos / (ds.n - 1), (ds.n - 1 - n_pos) / (ds.n - 1),
            [index[rows] for index in left_out],
        ))
    return np.concatenate(scores)
