"""Decision trees: split search, classification, tracing, rendering."""

import json
import sys

import numpy as np
import pytest

from claslab import trees
from claslab.base import sign_labels
from claslab.data import LabeledDataset
from claslab.ensembles import TreeConfig, adaboost, bagging, random_subspace
from claslab.oracle import equal_cov_problem, sample
from claslab.serialize import load_model, model_to_dict, save_model
from claslab.trees import TreeNode, fit_tree, tree_trace

FOUR = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
XOR = LabeledDataset([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [-1, -1, 1, 1])


class TestFitTree:
    def test_single_split_on_separated_line(self):
        tree = fit_tree(FOUR, max_depth=3)
        assert tree.depth() == 1
        assert tree.root.feature == 0 and tree.root.threshold == 1.5
        assert np.mean(tree.predict(FOUR.features) != FOUR.labels) == 0.0

    def test_a_cut_near_the_float_max_is_finite_and_round_trips(self, tmp_path):
        huge = LabeledDataset([[1.0e308], [1.5e308], [-1.0e308], [1.7e308]], [-1, 1, -1, 1])
        tree = fit_tree(huge, max_depth=2)
        assert tree.depth() == 1 and tree.root.threshold == 1.25e308
        assert np.array_equal(tree.predict(huge.features), huge.labels)
        save_model(tree, tmp_path / "tree.json")
        loaded = load_model(tmp_path / "tree.json")
        assert loaded.predict(huge.features).tobytes() == tree.predict(huge.features).tobytes()

    def test_pure_data_is_a_leaf(self):
        ds = LabeledDataset([[0.0], [5.0]], [1, 1])
        tree = fit_tree(ds, max_depth=4)
        assert tree.depth() == 0 and tree.root.label == 1

    def test_xor_needs_depth_two(self):
        deep = fit_tree(XOR, max_depth=2)
        assert np.mean(deep.predict(XOR.features) != XOR.labels) == 0.0
        # depth 1: every stump leaves both leaves tied -> all-+1, error 1/2
        stump = fit_tree(XOR, max_depth=1)
        assert np.mean(stump.predict(XOR.features) != XOR.labels) == 0.5

    def test_min_leaf_size_blocks_splits(self):
        tree = fit_tree(FOUR, max_depth=3, min_leaf_size=3)
        assert tree.depth() == 0

    def test_error_nonincreasing_in_depth(self):
        ds = sample(equal_cov_problem(0.5, [0.8, 0.0], [-0.8, 0.0]), 80, seed=1)
        errors = [
            np.mean(fit_tree(ds, max_depth=d).predict(ds.features) != ds.labels)
            for d in range(1, 7)
        ]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_weights_steer_the_majority(self):
        ds = LabeledDataset([[0.0], [0.0]], [1, -1])
        heavy_neg = fit_tree(ds, max_depth=1, sample_weight=np.array([0.1, 0.9]))
        assert heavy_neg.root.label == -1

    def test_tie_between_features_goes_to_the_lower_feature(self):
        # both columns split the labels perfectly, so both best cuts score 0
        low, high = [0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]
        for columns, threshold in (((low, high), 1.5), ((high, low), 11.5)):
            ds = LabeledDataset(np.column_stack(columns), [-1, -1, 1, 1])
            tree = fit_tree(ds, max_depth=1)
            assert (tree.root.feature, tree.root.threshold) == (0, threshold)

    def test_tie_between_thresholds_goes_to_the_lower_threshold(self):
        # cuts at 1.5 and 3.5 each leave one pure pair and one 2:2 side,
        # which unit weights make exactly equal: weighted Gini 2/6
        ds = LabeledDataset([[float(v)] for v in range(6)], [-1, -1, 1, 1, -1, -1])
        tree = fit_tree(ds, max_depth=1, sample_weight=np.ones(6))
        assert tree.root.threshold == 1.5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fit_tree(FOUR, max_depth=0)
        with pytest.raises(ValueError):
            fit_tree(FOUR, max_depth=1, min_leaf_size=0)
        with pytest.raises(ValueError):
            fit_tree(FOUR, max_depth=1, sample_weight=np.array([-1.0, 1, 1, 1]))


LEAF = TreeNode(label=1)


@pytest.mark.parametrize("root, message", [
    (TreeNode(0, 0.5, left=LEAF, right=TreeNode(label=0)), r"'label' must be -1 or \+1, got 0"),
    (TreeNode(0, 0.5, left=TreeNode(2, 0.5, left=LEAF, right=LEAF), right=LEAF),
     r"'feature' must lie in \[0, 2\), got 2"),
])
def test_a_node_below_the_root_is_checked_too(root, message):
    with pytest.raises(ValueError, match=message):
        trees.DecisionTree(root, 2, 3, 1)


def test_a_tree_too_deep_to_recurse_through_builds_and_fails_at_predict():
    root = TreeNode(label=-1)
    for _ in range(sys.getrecursionlimit() + 500):
        root = TreeNode(0, 0.5, left=LEAF, right=root)
    tree = trees.DecisionTree(root, 1, sys.getrecursionlimit() + 500, 1)
    with pytest.raises(RecursionError):
        tree.predict([[1.0]])


class TestTreeClassify:
    def test_fitted_split_sides(self):
        tree = fit_tree(FOUR, max_depth=1)
        assert tree.predict([1.0]) == -1
        assert tree.predict([2.5]) == 1

    def test_threshold_hit_goes_left(self):
        tree = fit_tree(FOUR, max_depth=1)
        assert tree.predict([1.5]) == -1  # "<=" rule

    def test_depth_zero_is_constant(self):
        tree = fit_tree(LabeledDataset([[0.0], [1.0]], [-1, -1]), max_depth=2)
        for x in (-10.0, 0.0, 10.0):
            assert tree.predict([x]) == -1


class TestTreeTrace:
    def test_depth_zero_trace_empty(self):
        tree = fit_tree(LabeledDataset([[0.0]], [1]), max_depth=1)
        assert tree_trace(tree, [3.0]) == []

    def test_single_split_trace(self):
        tree = fit_tree(FOUR, max_depth=1)
        assert tree_trace(tree, [1.0]) == [(0, 1.5, True)]
        assert tree_trace(tree, [2.0]) == [(0, 1.5, False)]

    def test_replay_reproduces_classification(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.2], [-1.0, -0.2]), 60, seed=2)
        tree = fit_tree(ds, max_depth=4)
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(100, 2)):
            node = tree.root
            for feature, threshold, went_left in tree_trace(tree, x):
                assert (x[feature] <= threshold) == went_left
                node = node.left if went_left else node.right
            assert node.is_leaf
            assert node.label == tree.predict(x)


def test_render_golden():
    tree = fit_tree(FOUR, max_depth=1)
    assert tree.render() == "f0 <= 1.5\n  leaf: -1\n  leaf: +1\n"


def _reference_best_split(X, y, w, min_leaf_size):
    """Lowest-weighted-Gini (feature, threshold) by a loop over features,
    ties to the lower pair: the split search that ``_grow`` replaced."""
    n = X.shape[0]
    total_pos = float(w[y == 1].sum())
    total_neg = float(w[y == -1].sum())
    total = total_pos + total_neg
    if total <= 0.0 or n < 2:
        return None
    positions = np.arange(1, n)
    best = None  # (impurity, feature, threshold)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys, ws = X[order, j], y[order], w[order]
        valid = (
            (xs[:-1] != xs[1:])
            & (positions >= min_leaf_size)
            & (n - positions >= min_leaf_size)
        )
        if not valid.any():
            continue
        lp = np.cumsum(np.where(ys == 1, ws, 0.0))[:-1]
        ln_ = np.cumsum(np.where(ys == -1, ws, 0.0))[:-1]
        rp, rn = total_pos - lp, total_neg - ln_
        impurity = (
            (lp + ln_) * trees._gini_vec(lp, ln_) + (rp + rn) * trees._gini_vec(rp, rn)
        ) / total
        impurity[~valid] = np.inf
        i = int(np.argmin(impurity))
        if best is None or impurity[i] < best[0]:
            best = (float(impurity[i]), j, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _reference_grow(X, y, w, depth, max_depth, min_leaf_size):
    w_pos = float(w[y == 1].sum())
    w_neg = float(w[y == -1].sum())
    label = int(sign_labels(w_pos - w_neg))
    node_gini = trees._gini_vec(w_pos, w_neg)
    if node_gini <= 0.0 or depth >= max_depth:
        return TreeNode(label=label)
    best = _reference_best_split(X, y, w, min_leaf_size)
    if best is None or best[0] > node_gini + trees._EPS:
        return TreeNode(label=label)
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    left = _reference_grow(X[mask], y[mask], w[mask], depth + 1, max_depth, min_leaf_size)
    right = _reference_grow(X[~mask], y[~mask], w[~mask], depth + 1, max_depth, min_leaf_size)
    return TreeNode(feature, float(threshold), label, left, right)


def _tree_models(rng):
    """Tree, boosted, bagged and subspace models of one random case, as JSON."""
    n, d = int(rng.integers(1, 120)), int(rng.integers(1, 8))
    # rounding makes tied values, and so duplicate and tied cuts
    X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    ds = LabeledDataset(X, rng.choice([-1, 1], size=n))
    weights = rng.random(n) * (rng.random(n) < 0.8)
    config = TreeConfig(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    seed = int(rng.integers(1000))
    models = [
        fit_tree(ds, config.max_depth, config.min_leaf_size),
        fit_tree(ds, config.max_depth, config.min_leaf_size, sample_weight=weights),
        adaboost(ds, 4),
        bagging(ds, config, 2, seed),
        random_subspace(ds, config, 2, int(rng.integers(1, d + 1)), seed),
    ]
    return [json.dumps(model_to_dict(m), sort_keys=True) for m in models]


def test_one_pass_split_grows_the_reference_loops_models(monkeypatch):
    for case in range(200):
        grown = _tree_models(np.random.default_rng(case))
        with monkeypatch.context() as patch:
            patch.setattr(trees, "_grow", _reference_grow)
            reference = _tree_models(np.random.default_rng(case))
        assert grown == reference, f"case {case}"
