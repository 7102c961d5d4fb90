"""Margin-based loss functions with values and (sub)gradients.

The six surrogates depend on score a and label b only through the margin
m = b*a (the 0-1 loss does not: value(0, +1) = 0 but value(0, -1) = 1).
They are convex upper bounds of the 0-1 loss; at their kinks (hinge and
absolute at m = 1) the reported subgradient is 0, so a zero gradient at
the optimum stays meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import sign_labels

LN2 = float(np.log(2.0))


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


# name -> (loss(m), loss'(m), loss''(m) or None, positive).  loss'' feeds
# Newton; truncated_squared gets the generalized Hessian 2[m < 1] (Keerthi
# & DeCoste 2005).  A positive loss is above 0 at every margin, so on
# separated data its unpenalized risk keeps falling and has no minimizer.
MARGIN_LOSSES = {
    "logistic": (_logistic, _logistic_grad, _logistic_curvature, True),
    "hinge": (
        lambda m: np.maximum(1.0 - m, 0.0), lambda m: np.where(m < 1.0, -1.0, 0.0), None, False
    ),
    "squared": (
        lambda m: (1.0 - m) ** 2, lambda m: -2.0 * (1.0 - m), lambda m: np.full_like(m, 2.0), False
    ),
    "exponential": (lambda m: np.exp(-m), lambda m: -np.exp(-m), lambda m: np.exp(-m), True),
    "truncated_squared": (
        lambda m: np.maximum(1.0 - m, 0.0) ** 2, lambda m: -2.0 * np.maximum(1.0 - m, 0.0),
        lambda m: np.where(m < 1.0, 2.0, 0.0), False
    ),
    "absolute": (lambda m: np.abs(1.0 - m), lambda m: -np.sign(1.0 - m), None, False),
}

LOSS_NAMES = ("zero_one",) + tuple(MARGIN_LOSSES)


@dataclass(frozen=True)
class Loss:
    """A named margin loss; ``value``, ``grad`` and ``curvature`` broadcast over arrays."""

    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_NAMES:
            raise ValueError(
                f"unknown loss {self.kind!r}; choose from {', '.join(LOSS_NAMES)}"
            )

    @property
    def _row(self) -> tuple:
        return MARGIN_LOSSES.get(self.kind, (None, None, None, False))

    @property
    def differentiable(self) -> bool:
        return self._row[1] is not None

    @property
    def smooth(self) -> bool:
        return self._row[2] is not None

    @property
    def positive(self) -> bool:
        return self._row[3]

    def _derivative(self, order: int, a, b):
        """The order-th derivative of the loss with respect to the score a."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b)
        if self.kind == "zero_one":
            out = np.where(sign_labels(a) != b, 1.0, 0.0)
        else:
            out = self._row[order](b * a)
            if order:  # chain rule through m = b*a
                out = b**order * out
        return out if out.ndim else float(out)

    def value(self, a, b):
        return self._derivative(0, a, b)

    def grad(self, a, b):
        """Derivative with respect to the score a (subgradient 0 at kinks)."""
        if not self.differentiable:
            raise ValueError("the 0-1 loss has no usable gradient")
        return self._derivative(1, a, b)

    def curvature(self, a, b):
        """Second derivative with respect to the score a, for smooth losses."""
        if not self.smooth:
            raise ValueError(f"the {self.kind} loss has no curvature")
        return self._derivative(2, a, b)


def get_loss(name: str) -> Loss:
    return Loss(name)
