"""k-nearest-neighbor rule: votes, tie handling, storage semantics."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from claslab.data import LabeledDataset
from claslab.neighbors import fit_knn
from claslab.oracle import equal_cov_problem, sample


def _sorted_vote(model, X):
    """The vote by partial sort, with a stable re-sort of every row that has
    several points at its k-th distance: the reference for the masked rule."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    stored = model.dataset.features
    labels = model.dataset.labels
    k = model.k
    dist = cdist(X, stored, "sqeuclidean")
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    rows = np.arange(X.shape[0])[:, None]
    kth = dist[rows, part].max(axis=1)
    tied = (dist <= kth[:, None]).sum(axis=1) > k
    votes = labels[part].mean(axis=1)
    for r in np.flatnonzero(tied):
        order = np.argsort(dist[r], kind="stable")[:k]
        votes[r] = labels[order].mean()
    return votes


def _tied_rows(model, X):
    """How many rows have more stored points within their k-th distance than k."""
    dist = cdist(X, model.dataset.features, "sqeuclidean")
    kth = np.partition(dist, model.k - 1, axis=1)[:, model.k - 1 : model.k]
    return int(((dist <= kth).sum(axis=1) > model.k).sum())


def _tie_case(rng):
    """A model and queries rich in exact distance ties."""
    n, d = int(rng.integers(1, 61)), int(rng.integers(1, 4))
    features = np.round(rng.normal(scale=2.0, size=(n, d)))  # a coarse grid
    if n > 2 and rng.random() < 0.5:  # duplicated stored rows
        features[rng.integers(0, n, n // 3)] = features[rng.integers(0, n)]
    odd = [k for k in range(1, 10, 2) if k <= n] + ([n] if n % 2 else [])
    model = fit_knn(LabeledDataset(features, rng.choice([-1, 1], n)), int(rng.choice(odd)))
    m = int(rng.integers(0, 40))  # 0-row batches included
    queries = np.round(rng.normal(scale=2.0, size=(m, d)))
    hits = rng.integers(0, m + 1)  # queries at distance 0 from a stored row
    queries[:hits] = features[rng.integers(0, n, hits)]
    if m and rng.random() < 0.2:
        queries[rng.integers(0, m), rng.integers(0, d)] = rng.choice([-np.inf, np.inf])
    return model, queries


class TestFitKnn:
    def test_stores_data_verbatim(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [1, -1, 1])
        model = fit_knn(ds, 1)
        assert model.dataset == ds

    def test_even_k_rejected(self):
        ds = LabeledDataset(np.arange(6.0).reshape(6, 1), [1, -1] * 3)
        with pytest.raises(ValueError, match="odd"):
            fit_knn(ds, 4)

    def test_k_bounds(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            fit_knn(ds, 3)
        with pytest.raises(ValueError):
            fit_knn(ds, 0)


class TestKnnClassify:
    def test_nearest_point_decides(self):
        model = fit_knn(LabeledDataset([[0.0], [1.0]], [-1, 1]), 1)
        assert model.predict([0.2]) == -1
        assert model.predict([0.8]) == 1

    def test_k_equals_n_is_global_majority(self):
        model = fit_knn(LabeledDataset([[0.0], [1.0], [10.0]], [-1, -1, 1]), 3)
        for q in (-5.0, 0.5, 20.0):
            assert model.predict([q]) == -1

    def test_k_equals_n_scores_the_mean_of_all_labels(self):
        ds = sample(equal_cov_problem(0.3, [1.0, 0.0], [-1.0, 0.0]), 21, seed=4)
        queries = np.vstack([np.random.default_rng(5).normal(scale=3.0, size=(40, 2)), ds.features])
        scores = fit_knn(ds, ds.n).decision_function(queries)
        np.testing.assert_array_equal(scores, np.full(len(queries), ds.labels.mean()))

    def test_distance_tie_takes_lower_index(self):
        model = fit_knn(LabeledDataset([[0.0], [2.0]], [-1, 1]), 1)
        assert model.predict([1.0]) == -1  # equidistant; index 0 wins

    def test_tied_points_fill_the_vote_in_stored_order(self):
        circle = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        model = fit_knn(LabeledDataset(circle, [-1, -1, 1, 1, 1]), 3)
        assert model.decision_function([[0.0, 0.0]]).tolist() == [-1 / 3]

    def test_masked_vote_matches_the_sorted_vote_bytes(self):
        rng = np.random.default_rng(17)
        cases = [_tie_case(rng) for _ in range(400)]
        model, _ = cases[0]
        cases.append((model, np.round(rng.normal(scale=2.0, size=(4097, model.dim)))))
        # a block with no row tied at its k-th distance, and one with every row tied
        untied = fit_knn(LabeledDataset(rng.normal(size=(60, 3)), rng.choice([-1, 1], 60)), 5)
        quads = np.repeat(rng.normal(size=(15, 2)), 4, axis=0)  # each stored point 4 times
        tied = fit_knn(LabeledDataset(quads, rng.choice([-1, 1], 60)), 3)
        for model, ties in [(untied, 0), (tied, 300)]:
            queries = rng.normal(size=(300, model.dim))
            assert _tied_rows(model, queries) == ties
            cases.append((model, queries))
        for i, (model, queries) in enumerate(cases):
            got = model.decision_function(queries)
            want = _sorted_vote(model, queries)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), i

    def test_non_finite_rows_leave_the_vote_of_their_block_unchanged(self):
        rng = np.random.default_rng(29)
        stored = LabeledDataset(np.round(rng.normal(size=(40, 2))), rng.choice([-1, 1], 40))
        model = fit_knn(stored, 5)
        queries = np.round(rng.normal(size=(60, 2)))
        queries[rng.integers(0, 60, size=15), rng.integers(0, 2, size=15)] = np.inf
        queries[rng.integers(0, 60, size=15), rng.integers(0, 2, size=15)] = -np.inf
        queries[rng.integers(0, 60, size=10), rng.integers(0, 2, size=10)] = np.nan
        nan_rows = np.isnan(queries).any(axis=1)
        inf_rows = np.isinf(queries).any(axis=1) & ~nan_rows
        assert nan_rows.any() and inf_rows.any() and (~nan_rows & ~inf_rows).any()
        want = _sorted_vote(model, queries)
        want[nan_rows] = -1.0  # a NaN distance is nobody's neighbour
        assert model.decision_function(queries).tobytes() == want.tobytes()

    def test_a_nan_query_has_no_neighbours_and_scores_minus_one(self):
        model = fit_knn(LabeledDataset([[0.0], [1.0], [2.0]], [1, 1, 1]), 3)
        assert model.decision_function([[np.nan], [0.5]]).tolist() == [-1.0, 1.0]

    def test_dimension_mismatch(self):
        model = fit_knn(LabeledDataset([[0.0, 0.0]], [1]), 1)
        with pytest.raises(ValueError):
            model.predict([0.0])

    def test_one_nn_is_memorization(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 50, seed=0)
        model = fit_knn(ds, 1)
        np.testing.assert_array_equal(model.predict(ds.features), ds.labels)

    def test_row_permutation_changes_nothing_without_ties(self):
        rng = np.random.default_rng(1)
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 60, seed=2)
        perm = rng.permutation(ds.n)
        shuffled = LabeledDataset(ds.features[perm], ds.labels[perm])
        queries = rng.normal(size=(40, 2))
        np.testing.assert_array_equal(
            fit_knn(ds, 5).predict(queries), fit_knn(shuffled, 5).predict(queries)
        )

    def test_batch_and_single_agree(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 30, seed=3)
        model = fit_knn(ds, 3)
        queries = np.linspace(-2, 2, 9)[:, None]
        batch = model.predict(queries)
        singles = np.concatenate([model.predict(q) for q in queries])
        np.testing.assert_array_equal(batch, singles)
