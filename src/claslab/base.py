"""The decision-function contract shared by every classifier.

A classifier exposes ``decision_function(X) -> scores`` returning one
real score per row and classifies by the sign of the score.  A score of
exactly 0 maps to +1; that single tie rule is used everywhere in the
package (loss kinks, vote ties, leaf-label ties, threshold hits).
"""

import numpy as np

_BLOCK = 4096  # query rows scored per decision_function call in predict
# a leave-one-out closed form declines a complement whose system may be this
# near singular relative to its scale: only the refit it stands for can tell
# whether that refit fails
NEAR_SINGULAR = 1e-8


def sign_labels(scores) -> np.ndarray:
    """Map real scores to labels in {-1, +1}; zero goes to +1."""
    return np.where(np.asarray(scores, dtype=float) >= 0.0, 1, -1)


class DecisionFunction:
    """Mixin deriving ``predict`` from ``decision_function``."""

    def decision_function(self, X) -> np.ndarray:
        raise NotImplementedError

    def affine_form(self):
        """(w, b) with decision_function(x) = w . x + b, or None when the
        score is not affine (or the model cannot say)."""
        return None

    def predict(self, X) -> np.ndarray:
        """Labels scored ``_BLOCK`` rows at a time, so memory does not grow with the batch."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.concatenate([sign_labels(self.decision_function(X[b])) for b in blocks(len(X))])


def blocks(n: int) -> list:
    """Slices of at most ``_BLOCK`` rows covering ``range(n)``; never a one-row last block."""
    cuts = [0, *range(_BLOCK, n - 1, _BLOCK), n]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def as_matrix(X, dim: int) -> np.ndarray:
    """Coerce a single vector or a batch to an (n, dim) float matrix."""
    arr = np.atleast_2d(np.asarray(X, dtype=float))
    if arr.shape[1] != dim:
        raise ValueError(f"expected {dim}-dimensional inputs, got {arr.shape[1]}")
    return arr


def freeze(obj, name: str, dtype=float, ndmin: int = 0, copy: bool = True) -> np.ndarray:
    """Replace field ``name`` of frozen dataclass ``obj`` with a read-only
    copy of its value, at least ``ndmin``-dimensional; returns the copy.

    ``copy=False`` freezes the value itself: an array that no one else holds.
    """
    arr = np.array(getattr(obj, name), dtype=dtype, ndmin=ndmin) if copy else getattr(obj, name)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def point_or_batch(answer, x):
    """``answer(x)``; the answer coerces x and checks its width itself.

    A single vector x gives the answer's one element as a Python scalar;
    anything else gives the answer's array.
    """
    out = answer(x)
    return out[0].item() if np.ndim(x) == 1 else out
