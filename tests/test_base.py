"""Scoring a single row or a batch through each model's own
``decision_function``, and the blocked scoring that every model's
``predict`` inherits."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import claslab as cl
from claslab.base import _BLOCK, sign_labels
from claslab.serialize import load_model

PROBLEM = cl.equal_cov_problem(0.5, [1.0, 0.4], [-1.0, -0.4])
FIXTURES = Path(__file__).parent / "fixtures" / "models"
BLOCK_MODELS = {
    **{p.stem: p for p in sorted(FIXTURES.glob("*.json")) if p.stem != "decision_values"},
    "bayes": None,
}


def _model(name):
    path = BLOCK_MODELS[name]
    return cl.BayesClassifier(PROBLEM) if path is None else load_model(path)


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_a_single_row_scores_as_a_one_row_batch(name):
    model = _model(name)
    pair = np.array([[0.3, -0.7], [1.1, 0.4]])
    single = model.decision_function(pair[0])
    assert single.shape == (1,)
    assert single.tobytes() == model.decision_function(pair[:1]).tobytes()
    # a two-row matrix product may round a row's score differently in the last bit
    assert single[0] == pytest.approx(model.decision_function(pair)[0], rel=1e-14, abs=1e-14)


UNCHECKED_WIDTH = pytest.mark.xfail(
    strict=True, reason="a random-subspace ensemble does not check its input width (ROADMAP item 4)"
)


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=UNCHECKED_WIDTH) if n == "subspace" else n
             for n in sorted(BLOCK_MODELS)]
)
def test_a_row_two_columns_too_wide_is_rejected(name):
    with pytest.raises(ValueError, match="expected 2-dimensional inputs, got 4"):
        _model(name).decision_function(np.zeros(4))


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
@pytest.mark.parametrize("rows", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 5])
def test_predict_agrees_with_one_decision_function_call(name, rows):
    model = _model(name)
    X = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 2))
    labels = model.predict(X)
    scores = np.asarray(model.decision_function(X), dtype=float)
    assert labels.shape == (rows,)
    # a row's score may differ in the last bits with the size of its batch,
    # so only rows away from a tie must agree
    clear = np.abs(scores) > 1e-9
    np.testing.assert_array_equal(labels[clear], sign_labels(scores)[clear])


class _RowCounter(cl.DecisionFunction):
    def __init__(self):
        self.sizes = []

    def decision_function(self, X):
        self.sizes.append(len(X))
        return X[:, 0]


@pytest.mark.parametrize(
    "rows, sizes",
    [
        (0, [0]),
        (1, [1]),
        (_BLOCK, [_BLOCK]),
        (_BLOCK + 1, [_BLOCK + 1]),
        (_BLOCK + 2, [_BLOCK, 2]),
        (2 * _BLOCK + 1, [_BLOCK, _BLOCK + 1]),
    ],
)
def test_predict_never_scores_a_one_row_last_block(rows, sizes):
    # a one-row batch takes a different BLAS routine, so the last row of a
    # block from true_error's sampler would round unlike its neighbours
    model = _RowCounter()
    assert model.predict(np.zeros((rows, 1))).shape == (rows,)
    assert model.sizes == sizes


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fit",
    [
        lambda ds: cl.fit_parzen(ds, 0.7),
        lambda ds: cl.train_kernel_machine(ds, cl.Kernel("rbf", sigma=1.5), 0.5),
    ],
    ids=["parzen", "kernel_ridge"],
)
def test_true_error_memory_does_not_grow_with_the_score_matrix(fit):
    model = fit(cl.sample(PROBLEM, 300, seed=3))
    n = _BLOCK + 904  # every run scores at least one full block
    small = _peak_bytes(lambda: cl.true_error(model, PROBLEM, n, seed=4))
    large = _peak_bytes(lambda: cl.true_error(model, PROBLEM, 4 * n, seed=4))
    # the larger sample's own (n_mc, d) arrays, not n_mc x n_train scores
    sample_array = 4 * n * PROBLEM.dim * 8
    assert large - small <= 4 * sample_array


class _PredictOnly:
    """A model seen only through ``predict``, so true_error must sample."""

    def __init__(self, model):
        self.predict = model.predict


def test_true_error_draws_its_sample_one_block_at_a_time():
    model = _PredictOnly(cl.fit_lda(cl.sample(PROBLEM, 300, seed=3)))
    n = _BLOCK + 904
    small = _peak_bytes(lambda: cl.true_error(model, PROBLEM, 4 * n, seed=4))
    large = _peak_bytes(lambda: cl.true_error(model, PROBLEM, 40 * n, seed=4))
    # less than one block's (rows, d) features and labels, whatever n_mc is
    assert large - small < _BLOCK * (PROBLEM.dim + 1) * 8


@pytest.mark.parametrize(
    "fit, bound_mib",
    [
        (lambda ds: cl.fit_parzen(ds, 0.7), 10),
        (lambda ds: cl.fit_knn(ds, 7), 27),
        (lambda ds: cl.train_kernel_machine(ds, cl.Kernel("rbf"), 0.1), 15),
    ],
    ids=["parzen", "knn", "kernel_ridge"],
)
def test_a_query_block_is_scored_within_its_memory_budget(fit, bound_mib):
    # one (4096, 400) float64 distance block is 12.5 MiB; Parzen holds one
    # class's half of it at a time
    problem = cl.equal_cov_problem(0.5, [0.5] * 5, [-0.5] * 5)
    model = fit(cl.sample(problem, 400, seed=5))
    queries = cl.sample(problem, _BLOCK, seed=6).features
    assert _peak_bytes(lambda: model.decision_function(queries)) <= bound_mib * 2**20
