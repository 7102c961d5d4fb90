"""The point-or-batch rule shared by every per-model helper, and the
blocked scoring that every model's ``predict`` inherits."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import claslab as cl
from claslab.base import _BLOCK, sign_labels
from claslab.serialize import load_model

PROBLEM = cl.equal_cov_problem(0.5, [1.0, 0.4], [-1.0, -0.4])
DS = cl.sample(PROBLEM, 40, seed=1)
BATCH = cl.sample(PROBLEM, 2, seed=2).features


def helpers():
    """(helper, its first argument, the batch answer it must agree with)."""
    lda = cl.fit_lda(DS)
    parzen = cl.fit_parzen(DS, 0.7)
    km = cl.train_kernel_machine(DS, cl.Kernel("rbf"), 0.1)
    boost = cl.adaboost(DS, 5)
    knn = cl.fit_knn(DS, 3)
    tree = cl.fit_tree(DS, 3)
    net = cl.train_net(DS, cl.NetTrainConfig(max_iters=20))
    logistic = cl.train_logistic(DS, lam=0.1)
    return {
        "lda_decision": (cl.lda_decision, lda, lda.decision_function),
        "parzen_decision": (cl.parzen_decision, parzen, parzen.decision_function),
        "km_decision": (cl.km_decision, km, km.decision_function),
        "boost_score": (cl.boost_score, boost, boost.decision_function),
        "knn_classify": (cl.knn_classify, knn, knn.predict),
        "tree_classify": (cl.tree_classify, tree, tree.predict),
        "net_forward": (cl.net_forward, net, net.forward),
        "posterior_pos": (
            cl.posterior_pos, logistic, lambda X: expit(logistic.decision_function(X))
        ),
        "bayes_classify": (
            cl.bayes_classify, PROBLEM, cl.BayesClassifier(PROBLEM).predict
        ),
    }


HELPERS = helpers()


@pytest.mark.parametrize("name", sorted(HELPERS))
def test_point_or_batch(name):
    helper, owner, batch_answer = HELPERS[name]
    batch = helper(owner, BATCH)
    np.testing.assert_array_equal(batch, batch_answer(BATCH))
    # the same point as a one-row batch: a two-row matrix product may round
    # a row's score differently in the last bit
    single = helper(owner, BATCH[0])
    assert type(single) in (float, int)
    assert single == helper(owner, BATCH[:1])[0]
    assert single == pytest.approx(batch[0], rel=1e-14, abs=1e-14)
    with pytest.raises(ValueError, match="expected 2-dimensional inputs"):
        helper(owner, [0.0, 1.0, 2.0])


FIXTURES = Path(__file__).parent / "fixtures" / "models"
BLOCK_MODELS = {
    **{p.stem: p for p in sorted(FIXTURES.glob("*.json")) if p.stem != "decision_values"},
    "bayes": None,
}


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
@pytest.mark.parametrize("rows", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 5])
def test_predict_agrees_with_one_decision_function_call(name, rows):
    path = BLOCK_MODELS[name]
    model = cl.BayesClassifier(PROBLEM) if path is None else load_model(path)
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
