"""Feature transformations and wrapper-style forward selection.

Transform kinds:

* ``poly2_expand`` -- append every unique degree-2 monomial, cross
  terms scaled by sqrt(2), so a plain dot product of two appended
  blocks equals the homogeneous quadratic kernel.
* ``standardize`` -- shift/scale to zero mean and unit variance; the
  parameters are learned once from the dataset the transform was fitted
  on and reused verbatim afterwards, so applying a fitted transform to
  test data cannot leak test statistics into training.
* ``append_noise`` -- add label-independent standard-normal columns
  (the raw material of dimensionality-curse experiments).
* ``select`` -- keep an explicit index subset.

A transform spec string names a chain: ``"standardize+poly2"``,
``"noise:5"``, ``"select:0,2"`` combined left-to-right with ``+``.
:func:`split_transform_spec` parses it once and splits the steps: the
per-dataset prefix (noise) is applied to the data, and the pointwise
rest goes to :func:`make_pipeline_trainer`, which fits it with the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import NEAR_SINGULAR, DecisionFunction, as_matrix, freeze
from .data import LabeledDataset, child_seed


class FeatureTransform:
    """Deterministic map from one dataset to another; labels untouched."""

    # True for a step drawn afresh for each dataset: it cannot map query
    # points, so it is applied to the data before training, never in a pipeline
    per_dataset = False

    def fit(self, ds: LabeledDataset) -> "FeatureTransform":
        """The transform to use for training data ``ds``: itself unless learned."""
        return self

    def map(self, X: np.ndarray) -> np.ndarray:
        """Rowwise feature map, usable on unlabeled query points."""
        raise NotImplementedError

    def fit_rounds(self, X: np.ndarray, C: np.ndarray):
        """``X`` mapped, for each row of the (R, n) count matrix ``C``, by the
        step fitted to the rows weighted by it (a bootstrap round's drawn
        rows, repeats included), or None when some round's fit is in doubt.

        ``X`` is (n, d), or (R, n, d) after an earlier step fitted per round.
        A step that is not learned maps the last axis, whatever the leading
        axes; a learned step, one that overrides ``fit``, overrides this too.
        """
        return self.map(X)

    def apply(self, ds: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(self.map(ds.features), ds.labels)

    def pull_back(self, w, b):
        """(w', b') with w' . x + b' = w . map(x) + b, or None when the
        map is not affine (or its input width is unknown)."""
        return None


def poly2_block(X: np.ndarray) -> np.ndarray:
    """All unique degree-2 monomials of the rows (the last axis), cross terms * sqrt(2)."""
    i, j = np.triu_indices(X.shape[-1])
    return np.where(i == j, 1.0, np.sqrt(2.0)) * X[..., i] * X[..., j]


@dataclass(frozen=True)
class Poly2Expand(FeatureTransform):
    def map(self, X):
        return np.concatenate([X, poly2_block(X)], axis=-1)


@dataclass(frozen=True)
class Standardize(FeatureTransform):
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        freeze(self, "mean")
        freeze(self, "std")

    @classmethod
    def fit(cls, ds: LabeledDataset) -> "Standardize":
        mean = ds.features.mean(axis=0)
        std = ds.features.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean, std)

    @classmethod
    def fit_rounds(cls, X, C):
        """Each round's weighted mean and std, as ``fit`` takes them from the
        drawn rows; None when some round's std of a column is at most
        ``NEAR_SINGULAR`` times its mean's magnitude: a column constant on the
        drawn rows, or constant to within rounding, where ``fit``'s rule
        ``std == 0.0 -> 1.0`` cannot be followed to the bit."""
        share = (C / C.sum(axis=1, keepdims=True))[:, None, :]
        mean = np.matmul(share, X)
        centered = X - mean
        std = np.sqrt(np.matmul(share, centered**2))
        if not np.all(std > NEAR_SINGULAR * np.abs(mean)):
            return None
        centered /= std
        return centered

    def map(self, X):
        return (as_matrix(X, len(self.mean)) - self.mean) / self.std

    def pull_back(self, w, b):
        w = w / self.std
        return w, b - w @ self.mean


@dataclass(frozen=True)
class AppendNoise(FeatureTransform):
    count: int
    seed: int = 0
    per_dataset = True

    def map(self, X):
        raise ValueError(
            "noise columns are drawn per dataset, not per point; "
            "apply this transform to a dataset before training"
        )

    def apply(self, ds):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        rng = np.random.default_rng(self.seed)
        noise = rng.standard_normal((ds.n, self.count))
        return LabeledDataset(np.hstack([ds.features, noise]), ds.labels)


@dataclass(frozen=True)
class Select(FeatureTransform):
    indices: tuple

    def map(self, X):
        idx = np.asarray(self.indices, dtype=int)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= X.shape[-1]:
            raise ValueError(f"select indices must lie in [0, {X.shape[-1]})")
        return X[..., idx]


def append_noise(ds: LabeledDataset, count: int, seed: int = 0) -> LabeledDataset:
    return AppendNoise(count, seed).apply(ds)


# spec step name (with its ":" when it takes an argument) -> builder(argument, seed)
TRANSFORMS = {
    "poly2": lambda arg, seed: Poly2Expand(),
    "standardize": lambda arg, seed: Standardize,
    "noise:": lambda arg, seed: AppendNoise(int(arg), seed),
    "select:": lambda arg, seed: Select(tuple(int(s) for s in arg.split(","))),
}


def parse_transform_spec(spec: str, seed: int = 0):
    """Turn ``"standardize+poly2"`` &c. into a list of chain steps.

    Each step's ``fit(ds)`` gives the transform to use on training data
    ``ds``; standardize is returned as the :class:`Standardize` class,
    whose ``fit`` learns the parameters (see :func:`fit_transform_chain`).
    """
    chain = []
    for i, part in enumerate([p.strip() for p in spec.split("+")] if spec else []):
        name, colon, arg = part.partition(":")
        if name + colon not in TRANSFORMS:
            raise ValueError(f"unknown transform {part!r}")
        chain.append(TRANSFORMS[name + colon](arg, child_seed(seed, i)))
    return chain


def fit_transform_chain(chain, ds: LabeledDataset):
    """Fit every step on the data it will see; return (transforms, mapped ds)."""
    fitted = []
    current = ds
    for step in chain:
        step = step.fit(current)
        current = step.apply(current)
        fitted.append(step)
    return fitted, current


@dataclass(frozen=True)
class PipelineClassifier(DecisionFunction):
    """A fitted transform chain in front of a fitted classifier.

    The chain was fitted on the training data only, so evaluating new
    points reuses the stored training statistics.
    """

    transforms: tuple
    model: object

    def _map(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        for step in self.transforms:
            X = step.map(X)
        return X

    def decision_function(self, X):
        return self.model.decision_function(self._map(X))

    def affine_form(self):
        """The model's form pulled back through the steps, last step first."""
        form = self.model.affine_form() if isinstance(self.model, DecisionFunction) else None
        for step in reversed(self.transforms):
            if form is not None:
                form = step.pull_back(*form)
        return form


def split_transform_spec(spec: str, seed: int = 0):
    """Parse a chain once into (per-dataset steps, pointwise steps).

    Per-dataset steps (noise) draw fresh columns per dataset and therefore
    cannot sit inside a prediction pipeline; they are only allowed as a
    prefix of the chain, to be applied to the data before training or
    estimating.  Being a prefix, step i keeps its seed ``child_seed(seed, i)``
    of the whole chain; the pointwise steps read no seed.
    """
    chain = parse_transform_spec(spec, seed)
    flags = [step.per_dataset for step in chain]
    if flags != sorted(flags, reverse=True):
        raise ValueError("noise steps must come before pointwise transforms")
    return chain[: sum(flags)], chain[sum(flags) :]


def make_pipeline_trainer(chain, base_trainer):
    """Trainer fitting parsed pointwise chain steps and the base model together.

    ``chain`` is a list of steps, such as the pointwise part of
    :func:`split_transform_spec`.  It is fitted (standardize parameters
    included) on whatever training set the trainer receives, then
    replayed on query points by the returned pipeline, so estimator
    resampling never leaks test statistics into the fit.

    When the base is an ``evaluation.Trainer`` with ``round_scores``, the
    result is one too: each step follows the weights of a chunk of bootstrap
    rounds (:meth:`FeatureTransform.fit_rounds`) and the base scores the
    mapped rows; a chunk that a step or the base declines is refitted.  It
    has no leave-one-out closed form.  Any other base gives a plain callable.
    """
    from .evaluation import Trainer  # local import: evaluation imports us

    if any(step.per_dataset for step in chain):
        raise ValueError(
            "noise steps belong to the dataset, not a pipeline; "
            "see split_transform_spec"
        )

    def train(ds: LabeledDataset) -> PipelineClassifier:
        fitted, mapped = fit_transform_chain(chain, ds)
        return PipelineClassifier(tuple(fitted), base_trainer(mapped))

    if not (isinstance(base_trainer, Trainer) and base_trainer.round_scores):
        return train

    def round_scores(X, y, C):
        for step in chain:
            X = step.fit_rounds(X, C)
            if X is None:
                return None
        return base_trainer.round_scores(X, y, C)

    return Trainer(train, round_scores=round_scores)


def forward_select(
    ds: LabeledDataset,
    trainer,
    max_features: int,
    folds: int = 5,
    seed: int = 0,
):
    """Greedy wrapper selection driven by k-fold cross-validation error.

    At each step the feature whose addition gives the lowest CV error
    joins the subset (ties break toward the lower index).  The whole
    greedy trajectory is returned as (feature index, cv error) pairs so
    the caller can cut it at the error minimum.
    """
    from .evaluation import kfold_cv  # local import: evaluation imports us

    if not 1 <= max_features <= ds.dim:
        raise ValueError(f"max_features must lie in [1, d={ds.dim}]")
    if folds < 2:
        raise ValueError("folds must be at least 2")
    chosen: list[int] = []
    trajectory = []
    remaining = list(range(ds.dim))
    for step in range(max_features):
        best = None  # (error, feature)
        for j in remaining:
            sub = Select(tuple(chosen + [j])).apply(ds)
            err = kfold_cv(trainer, sub, folds, stratified=False, seed=child_seed(seed, step)).value
            if best is None or err < best[0]:
                best = (err, j)
        err, j = best
        chosen.append(j)
        remaining.remove(j)
        trajectory.append((j, err))
    return trajectory
