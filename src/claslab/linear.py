"""Regularized empirical risk minimization over affine score functions.

Training minimizes  sum_i loss(w . x_i + w0, y_i) + lambda ||w||^2
(the bias is never penalized).  Losses with a curvature are minimized by
damped Newton, hinge and absolute by full-batch gradient descent; both
backtrack along the ray of training scores, which keeps every run
deterministic.  Features are standardized internally for conditioning;
the penalty is applied to the *original*-coordinate weights throughout,
so the returned minimizer is the minimizer of the objective above, and
the closed-form ridge solver and the kernel machine with a linear
kernel agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import (
    NEAR_SINGULAR, DecisionFunction, as_matrix, freeze, well_conditioned,
)
from .data import LabeledDataset
from .exceptions import NumericError
from .features import Standardize
from .losses import get_loss

_ARMIJO = 1e-4
_MIN_STEP = 1e-20
_RAY_CHUNK = 8192  # scores evaluated per loss.value call of the line search


@dataclass(frozen=True)
class TrainInfo:
    """How an iterative fit ended: ``termination`` is "tolerance" (gradient
    norm reached), "max_iters" (step budget spent) or "stalled" (no step
    down to _MIN_STEP passed Armijo; the last accepted iterate is kept).
    "tolerance" does not prove that a minimizer exists: an unpenalized logistic
    or exponential fit of quasi-separated data (separable, with some points
    on the hyperplane) has none, yet it can end "tolerance" at large weights."""

    iterations: int
    termination: str
    objective: float
    objective_history: tuple[float, ...] = ()

    @property
    def converged(self) -> bool:
        return self.termination == "tolerance"


@dataclass(frozen=True)
class LinearHypothesis(DecisionFunction):
    """Affine score w . x + bias in original feature coordinates."""

    weight: np.ndarray
    bias: float
    shift: np.ndarray | None = None  # standardization used while training
    scale: np.ndarray | None = None
    info: TrainInfo | None = field(default=None, compare=False)

    def __post_init__(self):
        freeze(self, "weight", ndmin=1)
        for name in ("shift", "scale"):
            if getattr(self, name) is not None:
                freeze(self, name, ndmin=1)

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        return X @ self.weight + self.bias

    def affine_form(self):
        return self.weight, self.bias


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "logistic"
    lam: float = 0.0
    max_iters: int = 1000
    step_size: float = 1.0
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.step_size <= 0 or self.tolerance <= 0:
            raise ValueError("step_size and tolerance must be positive")


def _objective_and_grad(Z, y, loss, lam, scale, v, v0):
    """Objective and gradient in standardized coordinates.

    The penalty is lam * ||v / scale||^2, i.e. the squared norm of the
    back-mapped original-space weights.
    """
    scores = Z @ v + v0
    w_orig = v / scale
    obj = float(np.sum(loss.value(scores, y)) + lam * w_orig @ w_orig)
    g = loss.grad(scores, y)
    grad_v = Z.T @ g + 2.0 * lam * v / scale**2
    grad_v0 = float(np.sum(g))
    return obj, grad_v, grad_v0


def _ray_search(s, u, y, loss, lam, scale, v, dv, slope, step):
    """First of step, step/2, ... above _MIN_STEP that meets Armijo, or None.

    Candidate t has scores s + t*u and weights v + t*dv: a chunk of them
    costs one ``loss.value`` call and no matrix product.  The test is
    strict on the summed change of each term, whose rounding scales with
    the change, so a step too small to change the objective fails.
    """
    base, w0 = loss.value(s, y), v / scale
    width = max(1, _RAY_CHUNK // len(s))
    while step > _MIN_STEP:
        ts = step * 0.5 ** np.arange(width)
        ts = ts[ts > _MIN_STEP]
        with np.errstate(over="ignore", invalid="ignore"):  # such a step fails the test
            change = np.sum(loss.value(s + ts[:, None] * u, y) - base, axis=1)
            change += lam * np.sum(((v + ts[:, None] * dv) / scale) ** 2 - w0 * w0, axis=1)
        passed = change < _ARMIJO * ts * slope
        if passed.any():
            return ts[np.argmax(passed)]
        step = ts[-1] * 0.5
    return None


def _descend(Z, y, loss, config, scale, newton):
    """Newton or gradient steps from zero weights to (v, v0, TrainInfo), or
    None once a Newton iterate of a positive unpenalized loss has objective
    below 1: each loss is 1 at margin 0, so every margin is then positive,
    the data are separated and no minimizer exists."""
    lam = config.lam
    A = np.column_stack([Z, np.ones(len(y))])
    v, v0 = np.zeros(Z.shape[1]), 0.0
    obj, grad_v, grad_v0 = _objective_and_grad(Z, y, loss, lam, scale, v, v0)
    history = [obj]
    while True:
        gnorm = np.sqrt(grad_v @ grad_v + grad_v0**2)
        if newton and lam == 0 and loss.positive and obj < 1.0:
            return None
        termination = "tolerance" if gnorm <= config.tolerance else "max_iters"
        if termination == "tolerance" or len(history) > config.max_iters:
            break
        s = Z @ v + v0
        if newton:
            hess = np.einsum("ni,n,nj->ij", A, loss.curvature(s, y), A)  # no n x d temporary
            hess[:-1, :-1] += np.diag(2.0 * lam / scale**2)
            grad = np.append(grad_v, grad_v0)
            try:
                direction = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:  # singular: the minimum-norm step
                direction = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            dv, d0, slope, step = direction[:-1], direction[-1], grad @ direction, 1.0
        else:
            dv, d0, slope, step = -grad_v, -grad_v0, -(gnorm**2), config.step_size
        t = _ray_search(s, A @ np.append(dv, d0), y, loss, lam, scale, v, dv, slope, step)
        if t is None:
            termination = "stalled"
            break
        v, v0 = v + t * dv, v0 + t * d0
        obj, grad_v, grad_v0 = _objective_and_grad(Z, y, loss, lam, scale, v, v0)
        history.append(obj)
    return v, v0, TrainInfo(len(history) - 1, termination, obj, tuple(history))


def train_linear(ds: LabeledDataset, config: TrainConfig) -> LinearHypothesis:
    """Fit the regularized empirical risk: Newton for smooth losses, else GD.

    ``info.termination`` says how the fit ended.  Unpenalized separated
    data under a positive loss have no minimizer; they get gradient
    descent, which runs out its ``max_iters``.  The 0-1 loss is rejected:
    minimizing it directly is intractable, use a surrogate.
    """
    loss = get_loss(config.loss)
    if not loss.differentiable:
        raise ValueError(
            "cannot train on the 0-1 loss (NP-hard); pick a surrogate loss"
        )
    standardize = Standardize.fit(ds)
    shift, scale, y = standardize.mean, standardize.std, ds.labels
    Z = standardize.map(ds.features)
    v, v0, info = _descend(Z, y, loss, config, scale, loss.smooth) or _descend(
        Z, y, loss, config, scale, False
    )
    weight = v / scale
    bias = v0 - float(weight @ shift)
    return LinearHypothesis(weight, float(bias), shift, scale, info)


def train_logistic(ds: LabeledDataset, lam: float = 0.0, **overrides) -> LinearHypothesis:
    """Maximum-likelihood logistic regression (= logistic-loss ERM)."""
    config = TrainConfig(loss="logistic", lam=lam, **overrides)
    return train_linear(ds, config)


def _normal_equations(ds: LabeledDataset, lam: float):
    """(A, G): the rows with a bias column, and the normal matrix A^T A with
    lam added to the diagonal of every weight but the bias."""
    A = np.hstack([ds.features, np.ones((ds.n, 1))])
    gram = A.T @ A
    gram[:-1, :-1] += lam * np.eye(ds.dim)
    return A, gram


def train_least_squares(ds: LabeledDataset, lam: float = 0.0) -> LinearHypothesis:
    """Exact squared-loss + ridge minimizer via the normal equations."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    A, gram = _normal_equations(ds, lam)
    rhs = A.T @ ds.labels.astype(float)
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise NumericError(
            "normal equations are singular; refit with lambda > 0"
        ) from None
    if not np.all(np.isfinite(theta)) or not np.allclose(
        gram @ theta, rhs, rtol=1e-6, atol=1e-8 * max(1.0, float(np.abs(rhs).max()))
    ):
        raise NumericError(
            "normal equations are numerically singular; refit with lambda > 0"
        )
    return LinearHypothesis(theta[:-1], float(theta[-1]))


def least_squares_loo_scores(ds: LabeledDataset, model: LinearHypothesis, lam: float = 0.0):
    """Each row's score under the fit to all the other rows, from ``model``,
    the fit to all rows with ridge ``lam``; None when a row's leverage is so
    near 1 that its complement is singular.

    With G the normal matrix and a the row with its bias entry, the row's
    leverage is h = a^T G^-1 a, and leaving it out turns its score s into
    (s - h y)/(1 - h): Allen's PRESS residual, which holds for ridge too.
    """
    A, gram = _normal_equations(ds, lam)
    h = np.einsum("ij,ji->i", A, np.linalg.solve(gram, A.T))
    if np.any(1.0 - h <= NEAR_SINGULAR):
        return None
    return (model.decision_function(ds.features) - h * ds.labels) / (1.0 - h)


def least_squares_round_scores(X, y, C, lam: float = 0.0):
    """Every row's score under the ridge least-squares fit to the rows weighted
    by each row of the count matrix ``C`` (see
    ``evaluation.Trainer.round_scores``); None when a round's normal matrix is
    too near singular to tell whether its refit would fail.

    A weight counts a row that many times in the normal equations
    A^T diag(c) A theta = A^T diag(c) y, so each round is the fit to its
    drawn rows, repeats included.
    """
    A = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)
    weighted = np.swapaxes(A * C[:, :, None], 1, 2)  # (R, d + 1, n)
    gram = np.matmul(weighted, A)
    gram[:, :-1, :-1] += lam * np.eye(X.shape[-1])
    if not well_conditioned(gram):
        return None
    theta = np.linalg.solve(gram, np.matmul(weighted, y.astype(float)[:, None]))
    return np.matmul(A, theta)[..., 0]
