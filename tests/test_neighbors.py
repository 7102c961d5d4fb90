"""k-nearest-neighbor rule: votes, tie handling, storage semantics."""

import numpy as np
import pytest

from claslab.data import LabeledDataset
from claslab.neighbors import fit_knn, knn_classify
from claslab.oracle import equal_cov_problem, sample


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
        assert knn_classify(model, [0.2]) == -1
        assert knn_classify(model, [0.8]) == 1

    def test_k_equals_n_is_global_majority(self):
        model = fit_knn(LabeledDataset([[0.0], [1.0], [10.0]], [-1, -1, 1]), 3)
        for q in (-5.0, 0.5, 20.0):
            assert knn_classify(model, [q]) == -1

    def test_k_equals_n_scores_the_mean_of_all_labels(self):
        ds = sample(equal_cov_problem(0.3, [1.0, 0.0], [-1.0, 0.0]), 21, seed=4)
        queries = np.vstack([np.random.default_rng(5).normal(scale=3.0, size=(40, 2)), ds.features])
        scores = fit_knn(ds, ds.n).decision_function(queries)
        np.testing.assert_array_equal(scores, np.full(len(queries), ds.labels.mean()))

    def test_distance_tie_takes_lower_index(self):
        model = fit_knn(LabeledDataset([[0.0], [2.0]], [-1, 1]), 1)
        assert knn_classify(model, [1.0]) == -1  # equidistant; index 0 wins

    def test_dimension_mismatch(self):
        model = fit_knn(LabeledDataset([[0.0, 0.0]], [1]), 1)
        with pytest.raises(ValueError):
            knn_classify(model, [0.0])

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
        singles = [knn_classify(model, q) for q in queries]
        np.testing.assert_array_equal(batch, singles)
