"""Axis-aligned threshold decision trees with traceable decisions.

Trees are grown by greedy recursive partitioning: every node scores
all (feature, threshold) pairs in one pass over a (features, cuts)
table -- thresholds are midpoints between consecutive sorted distinct
values -- and keeps the split with the lowest weighted Gini impurity
of the children, ties going to the lowest feature, then to the lowest
threshold.  A split is accepted as long as it does not worsen
impurity; a node becomes a leaf on purity, at max_depth, when no
candidate respects min_leaf_size, or when every candidate would
increase impurity.  Leaves carry the (weighted) majority label, ties
going to +1.

The left branch always means "value <= threshold"; instance weights
are supported so boosted stumps can reuse the same search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import DecisionFunction, as_matrix, sign_labels
from .data import LabeledDataset

_EPS = 1e-12


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    label: int = 1
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class DecisionTree(DecisionFunction):
    root: TreeNode
    dim: int
    max_depth: int
    min_leaf_size: int

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        out = np.empty(X.shape[0], dtype=int)

        def walk(node, idx):
            if idx.size == 0:
                return
            if node.is_leaf:
                out[idx] = node.label
                return
            mask = X[idx, node.feature] <= node.threshold
            walk(node.left, idx[mask])
            walk(node.right, idx[~mask])

        walk(self.root, np.arange(X.shape[0]))
        return out

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def render(self) -> str:
        """Plain-text dump, one node per line, two spaces per level."""
        lines = []

        def walk(node, indent):
            pad = "  " * indent
            if node.is_leaf:
                lines.append(f"{pad}leaf: {node.label:+d}")
            else:
                lines.append(f"{pad}f{node.feature} <= {node.threshold!r}")
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines) + "\n"


def _gini_vec(w_pos, w_neg):
    total = w_pos + w_neg
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0.0, w_pos / np.where(total > 0.0, total, 1.0), 0.0)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _grow(X, y, w, depth, max_depth, min_leaf_size):
    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())
    label = int(sign_labels(w_pos - w_neg))
    node_gini = _gini_vec(w_pos, w_neg)
    if node_gini <= 0.0 or depth >= max_depth:
        return TreeNode(label=label)
    # row j, column i scores the cut of feature j after its i + 1 smallest values
    n = X.shape[0]
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    head = order[:, :-1]  # the largest value never lies left of a cut
    left_pos = np.cumsum(np.where(y == 1, w, 0.0)[head], axis=1)
    left_neg = np.cumsum(np.where(y == -1, w, 0.0)[head], axis=1)
    del order, head
    impurity = (left_pos + left_neg) * _gini_vec(left_pos, left_neg)
    right_pos = np.subtract(w_pos, left_pos, out=left_pos)
    right_neg = np.subtract(w_neg, left_neg, out=left_neg)
    impurity += (right_pos + right_neg) * _gini_vec(right_pos, right_neg)
    impurity /= w_pos + w_neg
    size = np.arange(1, n)  # rows left of each cut
    impurity[(xs[:, :-1] == xs[:, 1:]) | (np.minimum(size, n - size) < min_leaf_size)] = np.inf
    # the first minimum in row-major order: lowest feature, then lowest threshold
    feature, i = np.unravel_index(np.argmin(impurity), impurity.shape)
    if impurity[feature, i] > node_gini + _EPS:
        return TreeNode(label=label)
    # the same float as 0.5 * (a + b) for normal a and b, but finite where a + b overflows
    threshold = 0.5 * xs[feature, i] + 0.5 * xs[feature, i + 1]
    mask = X[:, feature] <= threshold
    left = _grow(X[mask], y[mask], w[mask], depth + 1, max_depth, min_leaf_size)
    right = _grow(X[~mask], y[~mask], w[~mask], depth + 1, max_depth, min_leaf_size)
    return TreeNode(int(feature), float(threshold), left=left, right=right)


def fit_tree(
    ds: LabeledDataset,
    max_depth: int,
    min_leaf_size: int = 1,
    sample_weight=None,
) -> DecisionTree:
    if max_depth < 1 or min_leaf_size < 1:
        raise ValueError("max_depth and min_leaf_size must be at least 1")
    if sample_weight is None:
        w = np.full(ds.n, 1.0 / ds.n)
    else:
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (ds.n,) or np.any(w < 0):
            raise ValueError("sample_weight must be N nonnegative reals")
    root = _grow(ds.features, ds.labels, w, 0, max_depth, min_leaf_size)
    return DecisionTree(root, ds.dim, max_depth, min_leaf_size)


def tree_trace(tree: DecisionTree, x):
    """Ordered (feature, threshold, went_left) decisions for one point."""
    row = np.asarray(x, dtype=float)
    if row.shape != (tree.dim,):
        raise ValueError(f"expected a {tree.dim}-dimensional point")
    steps = []
    node = tree.root
    while not node.is_leaf:
        went_left = bool(row[node.feature] <= node.threshold)
        steps.append((node.feature, node.threshold, went_left))
        node = node.left if went_left else node.right
    return steps
