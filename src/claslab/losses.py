"""Margin-based loss functions with values and (sub)gradients.

Every loss here depends on score a and label b only through the margin
m = b*a.  The six surrogate kinds are convex upper bounds of the 0-1
loss; at their kinks (hinge and absolute at m = 1) the reported
subgradient is 0, so a zero gradient at the optimum stays meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import sign_labels

LN2 = float(np.log(2.0))


def _zero_one(a, b):
    return np.where(sign_labels(a) != b, 1.0, 0.0)


def _logistic(m):
    # log2(1 + e^-m), stable for large |m|
    return np.logaddexp(0.0, -m) / LN2


def _logistic_grad(m):
    # -sigmoid(-m) / ln 2
    return -0.5 * (1.0 - np.tanh(0.5 * m)) / LN2


def _logistic_curvature(m):
    # sigmoid(m) sigmoid(-m) / ln 2, without overflow at large |m|
    e = np.exp(-np.abs(m))
    return e / (1.0 + e) ** 2 / LN2


_VALUES = {
    "logistic": _logistic,
    "hinge": lambda m: np.maximum(1.0 - m, 0.0),
    "squared": lambda m: (1.0 - m) ** 2,
    "exponential": lambda m: np.exp(-m),
    "truncated_squared": lambda m: np.maximum(1.0 - m, 0.0) ** 2,
    "absolute": lambda m: np.abs(1.0 - m),
}

_MARGIN_GRADS = {
    "logistic": _logistic_grad,
    "hinge": lambda m: np.where(m < 1.0, -1.0, 0.0),
    "squared": lambda m: -2.0 * (1.0 - m),
    "exponential": lambda m: -np.exp(-m),
    "truncated_squared": lambda m: -2.0 * np.maximum(1.0 - m, 0.0),
    "absolute": lambda m: -np.sign(1.0 - m),
}

# Second derivatives in the margin, for Newton; truncated_squared gets
# the generalized Hessian 2[m < 1] (Keerthi & DeCoste 2005).  Hinge and
# absolute have none and are left to gradient descent.
_MARGIN_CURVATURES = {
    "logistic": _logistic_curvature,
    "squared": lambda m: np.full_like(m, 2.0),
    "exponential": lambda m: np.exp(-m),
    "truncated_squared": lambda m: np.where(m < 1.0, 2.0, 0.0),
}

# Losses above 0 at every margin: on separated data their unpenalized
# risk keeps falling along the separating direction and has no minimizer.
_POSITIVE = ("logistic", "exponential")

LOSS_NAMES = ("zero_one",) + tuple(_VALUES)


@dataclass(frozen=True)
class Loss:
    """A named margin loss; ``value`` and ``grad`` broadcast over arrays."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_NAMES:
            raise ValueError(
                f"unknown loss {self.kind!r}; choose from {', '.join(LOSS_NAMES)}"
            )

    @property
    def differentiable(self) -> bool:
        return self.kind != "zero_one"

    @property
    def smooth(self) -> bool:
        return self.kind in _MARGIN_CURVATURES

    @property
    def positive(self) -> bool:
        return self.kind in _POSITIVE

    def value(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b)
        if self.kind == "zero_one":
            out = _zero_one(a, b)
        else:
            out = _VALUES[self.kind](b * a)
        return out if out.ndim else float(out)

    def grad(self, a, b):
        """Derivative with respect to the score a (subgradient 0 at kinks)."""
        if self.kind == "zero_one":
            raise ValueError("the 0-1 loss has no usable gradient")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b)
        out = b * _MARGIN_GRADS[self.kind](b * a)
        return out if out.ndim else float(out)

    def curvature(self, a, b):
        """Second derivative with respect to the score a, for smooth losses."""
        return b * b * _MARGIN_CURVATURES[self.kind](b * np.asarray(a, dtype=float))


def get_loss(name: str) -> Loss:
    return Loss(name)
