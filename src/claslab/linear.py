"""Regularized empirical risk minimization over affine score functions.

Training minimizes  sum_i loss(w . x_i + w0, y_i) + lambda ||w||^2
(the bias is never penalized).  The iterative path is plain full-batch
gradient descent with a backtracking line search, which keeps every run
deterministic.  Features are standardized internally for conditioning;
the penalty is applied to the *original*-coordinate weights throughout,
so the returned minimizer is the minimizer of the objective above, and
the closed-form ridge solver and the kernel machine with a linear
kernel agree with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .base import DecisionFunction, as_matrix, point_or_batch
from .data import LabeledDataset
from .exceptions import DivergenceError, NumericError
from .features import Standardize
from .losses import get_loss

_ARMIJO = 1e-4
_MIN_STEP = 1e-20


@dataclass(frozen=True)
class TrainInfo:
    """How a gradient-descent run ended."""

    iterations: int
    termination: str  # "tolerance" | "max_iters"
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
        w = np.atleast_1d(np.asarray(self.weight, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        return X @ self.weight + self.bias


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


def train_linear(ds: LabeledDataset, config: TrainConfig) -> LinearHypothesis:
    """Gradient-descent fit of the regularized empirical risk.

    Stops when the gradient norm drops to ``config.tolerance`` or after
    ``config.max_iters`` accepted steps; ``info.termination`` records
    which.  The 0-1 loss is rejected: minimizing it directly is
    intractable, use a surrogate.
    """
    loss = get_loss(config.loss) if isinstance(config.loss, str) else config.loss
    if not loss.differentiable:
        raise ValueError(
            "cannot train on the 0-1 loss (NP-hard); pick a surrogate loss"
        )
    standardize = Standardize.fit(ds)
    shift, scale, y = standardize.mean, standardize.std, ds.labels
    Z = standardize.map(ds.features)

    v = np.zeros(ds.dim)
    v0 = 0.0
    obj, grad_v, grad_v0 = _objective_and_grad(Z, y, loss, config.lam, scale, v, v0)
    history = [obj]
    iterations = 0
    termination = "max_iters"
    rising = 0
    for _ in range(config.max_iters):
        gnorm = np.sqrt(grad_v @ grad_v + grad_v0**2)
        if gnorm <= config.tolerance:
            termination = "tolerance"
            break
        step = config.step_size
        while step > _MIN_STEP:
            cand_v = v - step * grad_v
            cand_v0 = v0 - step * grad_v0
            cand_obj, cand_gv, cand_gv0 = _objective_and_grad(
                Z, y, loss, config.lam, scale, cand_v, cand_v0
            )
            if cand_obj <= obj - _ARMIJO * step * gnorm**2:
                break
            step *= 0.5
        rising = rising + 1 if cand_obj > obj else 0
        if rising >= 10:
            raise DivergenceError(
                "objective increased on 10 consecutive accepted steps"
            )
        v, v0, obj = cand_v, cand_v0, cand_obj
        grad_v, grad_v0 = cand_gv, cand_gv0
        history.append(obj)
        iterations += 1
    else:
        gnorm = np.sqrt(grad_v @ grad_v + grad_v0**2)
        if gnorm <= config.tolerance:
            termination = "tolerance"

    weight = v / scale
    bias = v0 - float(weight @ shift)
    info = TrainInfo(
        iterations=iterations,
        termination=termination,
        objective=obj,
        objective_history=tuple(history),
    )
    return LinearHypothesis(weight, float(bias), shift, scale, info)


def train_logistic(ds: LabeledDataset, lam: float = 0.0, **overrides) -> LinearHypothesis:
    """Maximum-likelihood logistic regression (= logistic-loss ERM)."""
    config = TrainConfig(loss="logistic", lam=lam, **overrides)
    return train_linear(ds, config)


def train_least_squares(ds: LabeledDataset, lam: float = 0.0) -> LinearHypothesis:
    """Exact squared-loss + ridge minimizer via the normal equations."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    X, y = ds.features, ds.labels.astype(float)
    A = np.hstack([X, np.ones((ds.n, 1))])
    gram = A.T @ A
    gram[:-1, :-1] += lam * np.eye(ds.dim)
    rhs = A.T @ y
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


def posterior_pos(h: LinearHypothesis, x):
    """Posterior probability of the positive class, exp(s)/(1 + exp(s))."""
    return point_or_batch(lambda X: expit(h.decision_function(X)), x, h.dim)
