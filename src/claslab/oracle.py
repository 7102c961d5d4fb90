"""Synthetic two-class Gaussian problems with exactly known optima.

A problem is one Gaussian per class plus a class prior.  Because the
joint density is known in closed form we can sample labeled data, make
optimal (minimum-error) decisions, and compute the minimum achievable
error rate -- in closed form for d = 1 or equal covariances, by Monte
Carlo otherwise.  That gives every classifier in the package an exact
reference to be tested against.  An affine rule's true error is exact
too: under each class its score is a Gaussian variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .base import _BLOCK, DecisionFunction, as_matrix, freeze, sign_labels
from .data import LabeledDataset, _get, _typed, read_json

LOG_2PI = float(np.log(2.0 * np.pi))


def _check_cov(problem, name):
    cov, d = freeze(problem, name), problem.dim
    if cov.shape != (d, d):
        raise ValueError(f"{name} must be {d}x{d}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass(frozen=True)
class GaussianMixtureProblem:
    """Class-conditional Gaussians g(x | mean_c, cov_c) with prior prior_pos."""

    prior_pos: float
    mean_pos: np.ndarray
    mean_neg: np.ndarray
    cov_pos: np.ndarray
    cov_neg: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.prior_pos <= 1.0:
            raise ValueError("prior_pos must lie in [0, 1]")
        mp, mn = freeze(self, "mean_pos", ndmin=1), freeze(self, "mean_neg", ndmin=1)
        if mp.shape != mn.shape or mp.ndim != 1:
            raise ValueError("means must be vectors of equal dimension")
        _check_cov(self, "cov_pos")
        _check_cov(self, "cov_neg")

    @property
    def dim(self) -> int:
        return self.mean_pos.shape[0]

    @property
    def prior_neg(self) -> float:
        return 1.0 - self.prior_pos


def equal_cov_problem(prior_pos, mean_pos, mean_neg, cov=None) -> GaussianMixtureProblem:
    """Problem with one shared covariance (identity when omitted)."""
    mean_pos = np.atleast_1d(np.asarray(mean_pos, dtype=float))
    if cov is None:
        cov = np.eye(mean_pos.shape[0])
    return GaussianMixtureProblem(prior_pos, mean_pos, mean_neg, cov, cov)


def _log_density(X, mean, cov):
    """Log of the Gaussian density, evaluated rowwise via Cholesky."""
    d = mean.shape[0]
    chol = np.linalg.cholesky(cov)
    diff = X - mean
    sol = np.linalg.solve(chol, diff.T)
    maha = np.sum(sol * sol, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * LOG_2PI + logdet + maha)


def _log_joint_margin(problem, X):
    """log(prior_pos g_pos) - log(prior_neg g_neg), finite priors aside."""
    lp = _log_density(X, problem.mean_pos, problem.cov_pos)
    ln = _log_density(X, problem.mean_neg, problem.cov_neg)
    with np.errstate(divide="ignore"):
        log_prior_pos = np.log(problem.prior_pos)
        log_prior_neg = np.log(problem.prior_neg)
    return (log_prior_pos + lp) - (log_prior_neg + ln)


def _draws(problem: GaussianMixtureProblem, n: int, seed: int, block: int):
    """Yield the n points of ``sample(problem, n, seed)`` as (features, labels) blocks.

    The labels' n uniforms come first in the stream, one 64-bit draw
    each, so a second generator advanced past them yields the same
    normals whatever the block size.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    uniforms = np.random.default_rng(seed)
    normals = np.random.default_rng(seed)
    normals.bit_generator.advance(n)
    chol_pos = np.linalg.cholesky(problem.cov_pos)
    chol_neg = np.linalg.cholesky(problem.cov_neg)
    while n > 0:
        size = n if n <= block + 1 else block  # never a one-row last block
        labels = np.where(uniforms.random(size) < problem.prior_pos, 1, -1)
        z = normals.standard_normal((size, problem.dim))
        # both maps act on the whole block: a one-row product rounds differently
        pos, neg = problem.mean_pos + z @ chol_pos.T, problem.mean_neg + z @ chol_neg.T
        yield np.where((labels == 1)[:, None], pos, neg), labels
        n -= size


def sample(problem: GaussianMixtureProblem, n: int, seed: int = 0) -> LabeledDataset:
    """Draw n labeled points: labels Bernoulli(prior_pos), then the class Gaussian."""
    ((feats, labels),) = _draws(problem, n, seed, n)
    return LabeledDataset(feats, labels)


class BayesClassifier(DecisionFunction):
    """The optimal decision rule of a known problem, as a classifier object."""

    def __init__(self, problem: GaussianMixtureProblem):
        self.problem = problem

    def decision_function(self, X):
        X = as_matrix(X, self.problem.dim)
        margin = _log_joint_margin(self.problem, X)
        # -inf vs -inf (both priors degenerate) counts as a tie -> +1
        return np.nan_to_num(margin, nan=0.0)


def _crossings_1d(problem):
    """Roots of log(prior_pos g_pos) = log(prior_neg g_neg) on the line."""
    mp, mn = problem.mean_pos[0], problem.mean_neg[0]
    vp, vn = problem.cov_pos[0, 0], problem.cov_neg[0, 0]
    pp, pn = problem.prior_pos, problem.prior_neg
    a = 0.5 / vn - 0.5 / vp
    b = mp / vp - mn / vn
    c = (
        mn * mn / (2.0 * vn)
        - mp * mp / (2.0 * vp)
        + np.log(pp / pn)
        + 0.5 * np.log(vn / vp)
    )
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    root = np.sqrt(disc)
    return sorted([(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)])


def _closed_form_bayes_error_1d(problem):
    pp, pn = problem.prior_pos, problem.prior_neg
    if pp == 0.0 or pn == 0.0:
        return 0.0
    # between consecutive crossings one weighted density lies below the
    # other throughout, so the smaller weighted mass there is the error
    edges = np.array([-np.inf, *_crossings_1d(problem), np.inf])
    z_pos = (edges - problem.mean_pos[0]) / np.sqrt(problem.cov_pos[0, 0])
    z_neg = (edges - problem.mean_neg[0]) / np.sqrt(problem.cov_neg[0, 0])
    return float(np.minimum(pp * np.diff(ndtr(z_pos)), pn * np.diff(ndtr(z_neg))).sum())


def _exact_bayes_error(problem):
    """The error of the equal-covariance Bayes rule, an affine rule in any d."""
    if not np.array_equal(problem.cov_pos, problem.cov_neg):
        raise ValueError("exact needs equal class covariances")
    pp, pn = problem.prior_pos, problem.prior_neg
    if pp == 0.0 or pn == 0.0:
        return 0.0
    mp, mn = problem.mean_pos, problem.mean_neg
    w = np.linalg.solve(problem.cov_pos, mp - mn)
    return _affine_error(problem, w, np.log(pp / pn) - 0.5 * w @ (mp + mn))


def bayes_error(
    problem: GaussianMixtureProblem,
    method: str = "closed_form_1d",
    n_mc: int = 100_000,
    seed: int = 0,
) -> float:
    """Minimum achievable error rate of the problem.

    ``closed_form_1d`` integrates the pointwise minimum of the two
    weighted densities between their crossing points (d = 1 only);
    ``exact`` scores the Bayes rule's affine form (equal covariances
    only, any d); ``monte_carlo`` counts disagreements between sampled
    labels and the optimal rule.
    """
    if method == "closed_form_1d":
        if problem.dim != 1:
            raise ValueError("closed_form_1d is only available for d = 1")
        return _closed_form_bayes_error_1d(problem)
    if method == "exact":
        return _exact_bayes_error(problem)
    if method == "monte_carlo":
        return true_error(BayesClassifier(problem), problem, n_mc, seed)
    raise ValueError(f"unknown method {method!r}")


def exact_form(classifier):
    """The (w, b) whose error :func:`true_error` computes rather than samples.

    That is the classifier's ``affine_form()``, when it is a
    :class:`DecisionFunction` with one and every entry is finite; else None.
    """
    form = classifier.affine_form() if isinstance(classifier, DecisionFunction) else None
    if form is None or not np.isfinite(np.append(*form)).all():
        return None
    return form


def _affine_error(problem, w, b) -> float:
    """The error of sign(w . x + b): under class c the score is
    N(w . mean_c + b, w' cov_c w), so each class adds prior_c Phi(-c m / s).

    (w, b) is first divided by its largest absolute entry, which keeps
    every sign and keeps w' cov w finite for huge finite weights.  A
    zero spread leaves the score at its mean, labelled by the tie rule.
    """
    top = np.abs(np.append(w, b)).max() or 1.0
    w, b = np.asarray(w, dtype=float) / top, b / top
    error = 0.0
    for label, prior, mean, cov in (
        (1, problem.prior_pos, problem.mean_pos, problem.cov_pos),
        (-1, problem.prior_neg, problem.mean_neg, problem.cov_neg),
    ):
        if prior == 0.0:
            continue
        m, s = w @ mean + b, np.linalg.norm(w @ np.linalg.cholesky(cov))
        miss = ndtr(-label * m / s) if s > 0.0 else sign_labels(m) != label
        error += prior * float(miss)
    return error


def true_error(
    classifier, problem: GaussianMixtureProblem, n_mc: int, seed: int = 0
) -> float:
    """The misclassified probability mass: exact for a classifier with an
    :func:`exact_form`, else a Monte-Carlo estimate from ``n_mc`` draws."""
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    form = exact_form(classifier)
    if form is not None:
        as_matrix(problem.mean_pos, len(form[0]))  # the width check predict would make
        return _affine_error(problem, *form)
    mistakes = sum(
        np.count_nonzero(classifier.predict(feats) != labels)
        for feats, labels in _draws(problem, n_mc, seed, _BLOCK)
    )
    return mistakes / n_mc


# the problem file: every field is required and holds this JSON type
PROBLEM_FIELDS = {"prior_pos": float, "mean_pos": list[float], "mean_neg": list[float],
                  "cov_pos": list[list[float]], "cov_neg": list[list[float]]}


def problem_to_json(problem: GaussianMixtureProblem) -> dict:
    return {key: np.asarray(getattr(problem, key)).tolist() for key in PROBLEM_FIELDS}


def problem_from_json(obj) -> GaussianMixtureProblem:
    obj = _typed(obj, dict, "the problem file")
    return GaussianMixtureProblem(
        *(_get(obj, key, type_, what="problem file") for key, type_ in PROBLEM_FIELDS.items())
    )


def load_problem(path) -> GaussianMixtureProblem:
    return problem_from_json(read_json(path))
