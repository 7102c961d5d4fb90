"""Closed-form leave-one-out of the registry's trainers, checked against refits.

Every ``cli.TRAINERS`` entry whose trainer offers ``loo_scores`` must list
its parameter cases in ``LOO_CASES``, so a shortcut added later is checked
here without further work.
"""

import tracemalloc

import numpy as np
import pytest

from claslab.cli import TRAINERS, _choose
from claslab.data import LabeledDataset
from claslab.evaluation import Trainer, loo_cv
from claslab.exceptions import EstimationError
from claslab.generative import fit_lda, fit_parzen
from claslab.linear import train_least_squares
from claslab.neighbors import fit_knn
from claslab.oracle import GaussianMixtureProblem, sample

PROBLEM = GaussianMixtureProblem(
    0.4, np.array([0.8, 0.0, 0.4]), np.array([-0.8, 0.2, -0.4]),
    np.diag([0.5, 1.0, 2.0]), np.eye(3),
)
LOO_CASES = {
    "bayes": [{}],
    "lda": [{}, {"laplace_priors": True}, {"unbiased_cov": True}, {"ridge_cov": 0.5},
            {"laplace_priors": True, "unbiased_cov": True, "ridge_cov": 0.01}],
    "least_squares": [{}, {"lambda": 0.1}],
    "kernel_ridge": [{"lambda": 0.5}],
    "parzen": [{"bandwidth": 0.4}, {"bandwidth": 1.5}],
    "knn": [{"k": 1}, {"k": 3}, {"k": 7}],
}
# enough parameters to build each trainer that has required ones
BUILD_PARAMS = {
    "parzen": {"bandwidth": 1.0}, "linear": {"loss": "hinge"}, "kernel_ridge": {"lambda": 1.0},
    "knn": {"k": 1}, "tree": {"max_depth": 1}, "bagging": {"m_rounds": 1},
    "random_subspace": {"m_rounds": 1, "subspace_dim": 1}, "adaboost": {"t_rounds": 1},
}


def build(name, params):
    builder, kwargs = _choose(TRAINERS, name, params, "trainer")
    return builder(kwargs, 0, PROBLEM)


def datasets():
    """Seeded samples, one on a coarse grid with duplicated rows, so that
    distances tie and some points coincide."""
    plain = sample(PROBLEM, 40, seed=61)
    coarse = sample(PROBLEM, 45, seed=62)
    grid = np.round(coarse.features * 2.0) / 2.0
    rows = np.r_[np.arange(45), [0, 3, 3, 17, 30]]
    return [plain, LabeledDataset(grid[rows], coarse.labels[rows])]


def refit_scores(trainer, ds):
    """Each row scored by a fit to all the other rows."""
    rest = [np.delete(np.arange(ds.n), i) for i in range(ds.n)]
    return np.array([
        trainer(ds.subset(rest[i])).decision_function(ds.features[i:i + 1])[0]
        for i in range(ds.n)
    ])


def test_every_trainer_with_a_shortcut_has_cases():
    with_shortcut = [
        name for name in TRAINERS if hasattr(build(name, BUILD_PARAMS.get(name, {})), "loo_scores")
    ]
    assert sorted(with_shortcut) == sorted(LOO_CASES)


@pytest.mark.parametrize("name, params", [
    pytest.param(name, p, id="-".join([name, *(f"{k}={v}" for k, v in p.items())]))
    for name, cases in LOO_CASES.items() for p in cases
])
def test_shortcut_scores_match_refits(name, params):
    trainer = build(name, params)
    for ds in datasets():
        shortcut, refit = trainer.loo_scores(ds), refit_scores(trainer, ds)
        if name == "knn":
            assert shortcut.tobytes() == refit.tobytes()
        assert np.max(np.abs(shortcut - refit) / (1.0 + np.abs(refit))) < 1e-9
        decided = np.abs(refit) > 1e-9
        np.testing.assert_array_equal(
            np.sign(shortcut[decided]) >= 0, np.sign(refit[decided]) >= 0
        )


@pytest.mark.parametrize("name", list(LOO_CASES))
def test_scores_do_not_depend_on_the_row_block(name, monkeypatch):
    trainer, ds = build(name, LOO_CASES[name][-1]), datasets()[1]
    whole = trainer.loo_scores(ds)
    monkeypatch.setattr("claslab.base._BLOCK", 16)  # four blocks of the 50 rows
    np.testing.assert_allclose(trainer.loo_scores(ds), whole, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", [n for n in LOO_CASES if n != "kernel_ridge"])
def test_memory_grows_with_n_times_d_and_the_row_block(name, monkeypatch):
    """No d x d matrix per row and no N x N block: at N = 600, d = 60 and
    64-row blocks, a few arrays of N x d or 64 x N floats at most (kernel
    ridge inverts its N + 1 square system, so it is left out)."""
    monkeypatch.setattr("claslab.base._BLOCK", 64)
    rng = np.random.default_rng(63)
    ds = LabeledDataset(rng.normal(size=(600, 60)), np.where(rng.random(600) < 0.5, 1, -1))
    trainer = build(name, LOO_CASES[name][-1])
    tracemalloc.start()
    try:
        assert trainer.loo_scores(ds) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * (ds.n * ds.dim + 64 * ds.n)


def raised(trainer, ds):
    with pytest.raises(Exception) as info:
        loo_cv(trainer, ds)
    return type(info.value), str(info.value)


# (registry trainer, the same fit as a plain closure, which always refits, dataset)
ONE_POSITIVE = LabeledDataset([[0.0], [1.0], [2.0]], [1, -1, -1])
DEGENERATE = {
    # index 0 is the only positive: its complement has one class
    "lda": (("lda", {}), fit_lda, ONE_POSITIVE),
    "parzen": (("parzen", {"bandwidth": 0.5}), lambda d: fit_parzen(d, 0.5), ONE_POSITIVE),
    # k = N: every complement has too few points for k
    "knn_k_equals_n": (
        ("knn", {"k": 5}), lambda d: fit_knn(d, 5),
        LabeledDataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, -1, 1, -1, 1]),
    ),
    # without row 4 the column is constant, like the bias: leverage 1
    "least_squares_singular": (
        ("least_squares", {}), train_least_squares,
        LabeledDataset([[0.0], [0.0], [0.0], [0.0], [1.0]], [1, -1, 1, -1, 1]),
    ),
    # without row 4 the negatives lie on a line: a singular pooled covariance
    "lda_singular": (
        ("lda", {}), fit_lda,
        LabeledDataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 7.0]],
                       [1, 1, -1, -1, -1]),
    ),
}


@pytest.mark.parametrize("case", list(DEGENERATE))
def test_a_complement_that_cannot_be_fitted_raises_as_the_refits_do(case):
    (name, params), fit, ds = DEGENERATE[case]
    assert build(name, params).loo_scores(ds) is None  # the shortcut declines
    assert raised(build(name, params), ds) == raised(fit, ds)


def test_one_row_class_names_index_0():
    for name, params in [("lda", {}), ("parzen", {"bandwidth": 0.5})]:
        kind, message = raised(build(name, params), ONE_POSITIVE)
        assert kind is EstimationError and "index 0" in message


def test_an_error_inside_a_closed_form_is_not_taken_for_a_decline():
    def broken(ds):
        raise ValueError("operands could not be broadcast together")

    with pytest.raises(ValueError, match="broadcast"):
        loo_cv(Trainer(fit_lda, broken), datasets()[0])
