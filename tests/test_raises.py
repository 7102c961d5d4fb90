"""Argument checks of the library that no other test reaches: each raises its
exception with its message."""

import re

import numpy as np
import pytest

from claslab.data import FoldAssignment, LabeledDataset
from claslab.ensembles import TreeConfig, bagging, random_subspace
from claslab.evaluation import adapt_problem_dim, bootstrap_corrected, e632, learning_curve
from claslab.exceptions import FitError, NumericError
from claslab.features import AppendNoise
from claslab.generative import fit_lda
from claslab.kernels import DissimilarityMap, load_dissimilarity_csv, select_prototypes
from claslab.linear import TrainConfig, train_least_squares
from claslab.neural import NetTrainConfig
from claslab.oracle import (
    BayesClassifier, GaussianMixtureProblem, bayes_error, equal_cov_problem, problem_from_json,
    true_error,
)
from claslab.serialize import model_to_dict
from claslab.trees import fit_tree, tree_trace

DS = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
PROBLEM = equal_cov_problem(0.5, [1.0], [-1.0])
# a rank-1 design: LAPACK's pivots round to tiny nonzeros, so the solve
# returns a huge theta that does not solve the normal equations
_X = np.array([1.0, -0.6, 1.8, -1.3])
RANK_ONE = LabeledDataset(np.column_stack([_X, _X * (1 / 3)]), [1, -1, 1, -1])


def _dissimilarities(tmp_path, matrix, labels):
    (tmp_path / "d.csv").write_text(matrix, encoding="utf-8")
    (tmp_path / "y.txt").write_text(labels, encoding="utf-8")
    return load_dissimilarity_csv(tmp_path / "d.csv", tmp_path / "y.txt")


# name -> (call(tmp_path), exception, message)
CASES = {
    "data_features_not_2d": (
        lambda _: LabeledDataset([1.0, 2.0], [1, -1]), ValueError,
        "features must be a 2-D array",
    ),
    "data_empty": (
        lambda _: LabeledDataset(np.zeros((0, 1)), []), ValueError,
        "dataset needs at least one row and one column",
    ),
    "data_feature_names_length": (
        lambda _: LabeledDataset([[0.0]], [1], ("a", "b")), ValueError,
        "feature_names length does not match d",
    ),
    "data_uneven_folds": (
        lambda _: FoldAssignment([0, 0, 0, 1], 2), ValueError,
        "fold sizes may differ by at most 1",
    ),
    "ensembles_bagging_rounds": (
        lambda _: bagging(DS, TreeConfig(), 0), ValueError, "m_rounds must be at least 1",
    ),
    "ensembles_subspace_rounds": (
        lambda _: random_subspace(DS, TreeConfig(), 0, 1), ValueError,
        "m_rounds must be at least 1",
    ),
    "evaluation_bootstrap_rounds": (
        lambda _: bootstrap_corrected(fit_lda, DS, 0), ValueError, "m_rounds must be at least 1",
    ),
    "evaluation_e632_rounds": (
        lambda _: e632(fit_lda, DS, 0), ValueError, "m_rounds must be at least 1",
    ),
    "evaluation_repeats": (
        lambda _: learning_curve(fit_lda, PROBLEM, [10], 0, 100), ValueError,
        "repeats must be at least 1",
    ),
    "evaluation_learning_curve_of_a_dataset": (
        lambda _: learning_curve(fit_lda, DS, [10], 1, 100), ValueError,
        "a learning curve needs a problem to sample, not a dataset",
    ),
    "evaluation_problem_dim": (
        lambda _: adapt_problem_dim(PROBLEM, 0), ValueError, "dimension must be at least 1",
    ),
    "features_no_noise_columns": (
        lambda _: AppendNoise(0).apply(DS), ValueError, "count must be at least 1",
    ),
    "features_noise_map": (
        lambda _: AppendNoise(1).map(DS.features), ValueError,
        "noise columns are drawn per dataset, not per point",
    ),
    "generative_negative_ridge": (
        lambda _: fit_lda(DS, ridge_cov=-1.0), ValueError, "ridge_cov must be nonnegative",
    ),
    "generative_unbiased_cov_of_two_rows": (
        lambda _: fit_lda(LabeledDataset([[0.0], [1.0]], [-1, 1]), unbiased_cov=True), FitError,
        "unbiased_cov needs N > 2",
    ),
    "kernels_no_prototypes": (
        lambda _: DissimilarityMap(np.zeros((0, 1))), ValueError, "need at least one prototype",
    ),
    "kernels_unknown_strategy": (
        lambda _: select_prototypes(DS, 1, "nearest"), ValueError, "unknown strategy 'nearest'",
    ),
    "kernels_bad_dissimilarity_label": (
        lambda tmp: _dissimilarities(tmp, "0.5\n1.5\n", "1\n0\n"), ValueError,
        "label '0' is not -1, 1 or +1",
    ),
    "kernels_negative_dissimilarity": (
        lambda tmp: _dissimilarities(tmp, "0.5\n-1.5\n", "1\n-1\n"), ValueError,
        "dissimilarity entries must be finite and nonnegative",
    ),
    "linear_negative_lambda": (
        lambda _: TrainConfig(lam=-1.0), ValueError, "lambda must be nonnegative",
    ),
    "linear_no_iterations": (
        lambda _: TrainConfig(max_iters=0), ValueError, "max_iters must be at least 1",
    ),
    "linear_zero_step": (
        lambda _: TrainConfig(step_size=0.0), ValueError,
        "step_size and tolerance must be positive",
    ),
    "linear_least_squares_negative_lambda": (
        lambda _: train_least_squares(DS, -1.0), ValueError, "lambda must be nonnegative",
    ),
    "linear_least_squares_numerically_singular": (
        lambda _: train_least_squares(RANK_ONE), NumericError,
        "normal equations are numerically singular; refit with lambda > 0",
    ),
    "neural_no_hidden_units": (
        lambda _: NetTrainConfig(hidden_units=0), ValueError, "hidden_units must be at least 1",
    ),
    "neural_zero_learning_rate": (
        lambda _: NetTrainConfig(learning_rate=0.0), ValueError, "learning_rate must be positive",
    ),
    "neural_no_iterations": (
        lambda _: NetTrainConfig(max_iters=0), ValueError, "max_iters must be at least 1",
    ),
    "neural_negative_init_scale": (
        lambda _: NetTrainConfig(init_scale=-1.0), ValueError, "init_scale must be nonnegative",
    ),
    "oracle_covariance_shape": (
        lambda _: GaussianMixtureProblem(0.5, [0.0], [0.0], np.eye(2), [[1.0]]), ValueError,
        "cov_pos must be 1x1",
    ),
    "oracle_unequal_means": (
        lambda _: GaussianMixtureProblem(0.5, [0.0, 0.0], [0.0], np.eye(2), np.eye(2)),
        ValueError, "means must be vectors of equal dimension",
    ),
    "oracle_unknown_method": (
        lambda _: bayes_error(PROBLEM, "quadrature"), ValueError, "unknown method 'quadrature'",
    ),
    "oracle_no_draws": (
        lambda _: true_error(BayesClassifier(PROBLEM), PROBLEM, 0), ValueError,
        "n_mc must be at least 1",
    ),
    "oracle_missing_field": (
        lambda _: problem_from_json({"prior_pos": 0.5}), ValueError,
        "problem file needs 'mean_pos'",
    ),
    "serialize_unknown_type": (
        lambda _: model_to_dict(DS), ValueError, "cannot serialize model of type LabeledDataset",
    ),
    "trees_trace_width": (
        lambda _: tree_trace(fit_tree(DS, 1), [0.0, 1.0]), ValueError,
        "expected a 1-dimensional point",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_raises_with_its_message(tmp_path, case):
    call, exception, message = CASES[case]
    with pytest.raises(exception, match=re.escape(message)):
        call(tmp_path)
