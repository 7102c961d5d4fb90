"""Multiple classifier systems over decision trees.

Bagging stabilizes a flexible base learner by voting trees grown on
bootstrap replicates; random subspaces vote trees that each see only a
sampled feature subset; AdaBoost grows a weighted sum of stumps, each
round reweighting the data toward the points the previous stumps got
wrong.  Only fixed combiners (majority vote, mean score) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DecisionFunction, as_matrix, sign_labels
from .data import LabeledDataset, bootstrap_sample, child_seed
from .trees import DecisionTree, fit_tree

# combiner -> fusion of member outputs (axis 0) into a vote sum or a mean score
COMBINERS = {
    "majority_vote": lambda scores: sign_labels(scores).sum(axis=0).astype(float),
    "mean_score": lambda scores: scores.mean(axis=0),
}

_EPS_BOOST = 1e-10
_ALPHA_CAP = 0.5 * np.log((1.0 - _EPS_BOOST) / _EPS_BOOST)


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 3
    min_leaf_size: int = 1


def _check_combiner(combiner: str) -> None:
    if combiner not in COMBINERS:
        raise ValueError(f"unknown combiner {combiner!r}")


def combine(scores, combiner: str):
    """Fuse per-member outputs into a label; ties always go to +1.

    ``scores`` is (members,) for one query or (members, queries); the
    result is a scalar label or a label per query.
    """
    _check_combiner(combiner)
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one member output")
    labels = sign_labels(COMBINERS[combiner](arr))
    return int(labels) if arr.ndim == 1 else labels


@dataclass(frozen=True)
class Ensemble(DecisionFunction):
    """Fixed-combiner collection of trained members.

    ``member_feature_masks`` (when present) routes each member its own
    feature subset.  The decision score is the vote sum or the mean raw
    score, depending on the combiner, so signing it reproduces
    :func:`combine`.
    """

    members: tuple
    combiner: str = "majority_vote"
    member_feature_masks: tuple | None = None

    def __post_init__(self):
        _check_combiner(self.combiner)

    def decision_function(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        masks = self.member_feature_masks or [slice(None)] * len(self.members)
        scores = [m.decision_function(X[:, cols]) for m, cols in zip(self.members, masks)]
        return COMBINERS[self.combiner](np.vstack(scores))


def bagging(
    ds: LabeledDataset, base: TreeConfig, m_rounds: int, seed: int = 0
) -> Ensemble:
    """Majority vote over trees grown on bootstrap replicates."""
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    members = []
    for r in range(m_rounds):
        bs = bootstrap_sample(ds, child_seed(seed, r))
        members.append(
            fit_tree(ds.subset(bs.indices), base.max_depth, base.min_leaf_size)
        )
    return Ensemble(tuple(members), "majority_vote")


def random_subspace(
    ds: LabeledDataset,
    base: TreeConfig,
    m_rounds: int,
    subspace_dim: int,
    seed: int = 0,
) -> Ensemble:
    """Majority vote over trees each trained on a sampled feature subset."""
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    if not 1 <= subspace_dim <= ds.dim:
        raise ValueError(f"subspace_dim must lie in [1, d={ds.dim}]")
    members, masks = [], []
    for r in range(m_rounds):
        rng = np.random.default_rng(child_seed(seed, r))
        mask = np.sort(rng.choice(ds.dim, size=subspace_dim, replace=False))
        sub = LabeledDataset(ds.features[:, mask], ds.labels)
        members.append(fit_tree(sub, base.max_depth, base.min_leaf_size))
        masks.append(tuple(int(j) for j in mask))
    return Ensemble(tuple(members), "majority_vote", tuple(masks))


@dataclass(frozen=True)
class BoostRound:
    stump: DecisionTree
    alpha: float
    weighted_error: float


@dataclass(frozen=True)
class BoostModel(DecisionFunction):
    """Weighted stump sum: score(x) = sum_t alpha_t h_t(x), h_t in {-1,+1}."""

    rounds: tuple[BoostRound, ...]

    @property
    def dim(self) -> int:
        return self.rounds[0].stump.dim

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        score = np.zeros(X.shape[0])
        for rd in self.rounds:
            score += rd.alpha * rd.stump.predict(X)
        return score


def adaboost(ds: LabeledDataset, t_rounds: int) -> BoostModel:
    """Discrete AdaBoost over depth-1 trees.

    Weights start uniform; each round fits the weighted-Gini-best stump,
    scores it by weighted error eps, sets alpha = ln((1-eps)/eps)/2,
    multiplies weights by exp(-alpha y h(x)) and renormalizes.  A round
    with eps >= 1/2 (useless) or eps <= 1e-10 (perfect; alpha capped)
    is kept and boosting stops there.
    """
    if t_rounds < 1:
        raise ValueError("t_rounds must be at least 1")
    n = ds.n
    weights = np.full(n, 1.0 / n)
    rounds = []
    for _ in range(t_rounds):
        stump = fit_tree(ds, max_depth=1, min_leaf_size=1, sample_weight=weights)
        pred = stump.predict(ds.features)
        miss = pred != ds.labels
        eps = float(weights[miss].sum() / weights.sum())
        alpha = _ALPHA_CAP if eps <= _EPS_BOOST else 0.5 * np.log((1.0 - eps) / eps)
        rounds.append(BoostRound(stump, alpha, eps))
        if eps <= _EPS_BOOST or eps >= 0.5 - _EPS_BOOST:
            break
        weights = weights * np.exp(-alpha * ds.labels * pred)
        weights = weights / weights.sum()
    return BoostModel(tuple(rounds))
