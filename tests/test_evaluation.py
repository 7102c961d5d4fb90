"""Error estimators and curves, checked against hand enumeration."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from claslab import base
from claslab.cli import TRAINERS, _choose
from claslab.data import LabeledDataset, bootstrap_sample, child_seed, make_folds, split_holdout
from claslab.evaluation import (
    ErrorEstimate,
    Trainer,
    apparent_error,
    bootstrap_corrected,
    e632,
    e632_combine,
    error_std,
    feature_curve,
    holdout_error,
    kfold_cv,
    learning_curve,
    loo_cv,
    zero_one_error,
)
from claslab.exceptions import EstimationError, FitError
from claslab.features import Standardize, make_pipeline_trainer, parse_transform_spec
from claslab.generative import fit_lda, fit_parzen
from claslab.linear import train_least_squares
from claslab.neighbors import fit_knn
from claslab.oracle import GaussianMixtureProblem, equal_cov_problem, sample
from claslab.trees import fit_tree

THREE = LabeledDataset([[0.0], [1.0], [10.0]], [-1, -1, 1])


class _Constant:
    def __init__(self, label):
        self.label = label

    def predict(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.label)


def constant_trainer(label):
    return lambda ds: _Constant(label)


class _Counting:
    """A fitted model that records the row count of every predict call."""

    def __init__(self, model, calls):
        self.model, self.calls = model, calls

    def predict(self, X):
        self.calls.append(len(X))
        return self.model.predict(X)


class _Memorizer:
    """Predicts the stored label for seen inputs, +1 for anything unseen."""

    def __init__(self, ds):
        self.table = {tuple(x): y for x, y in zip(ds.features, ds.labels)}

    def predict(self, X):
        return np.array([self.table.get(tuple(x), 1) for x in np.atleast_2d(X)])


class TestErrorStd:
    def test_exact_half_case(self):
        assert error_std(0.5, 100) == 0.05

    def test_degenerate_rates(self):
        assert error_std(0.0, 10) == 0.0
        assert error_std(1.0, 10) == 0.0

    def test_point_one_case(self):
        assert error_std(0.1, 100) == pytest.approx(0.03, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            error_std(1.5, 10)
        with pytest.raises(ValueError):
            error_std(0.5, 0)


class TestApparentError:
    def test_one_nn_memorizes(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 40, seed=0)
        est = apparent_error(fit_knn(ds, 1), ds)
        assert est.value == 0.0

    def test_constant_on_balanced_data(self):
        ds = LabeledDataset(np.arange(4.0).reshape(4, 1), [1, 1, -1, -1])
        assert apparent_error(_Constant(1), ds).value == 0.5

    def test_flipped_perfect_classifier(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, -1])
        assert apparent_error(_Constant(-1), ds).value == 0.5
        flipped = _Memorizer(LabeledDataset(ds.features, -ds.labels))
        assert apparent_error(flipped, ds).value == 1.0


class TestHoldout:
    def test_std_follows_test_count(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 50, seed=1)
        est = holdout_error(lambda d: fit_knn(d, 1), ds, 0.2, seed=2)
        assert est.components["n_test"] == 10
        assert est.std == error_std(est.value, 10)

    def test_single_test_point_is_all_or_nothing(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 10, seed=3)
        est = holdout_error(lambda d: fit_knn(d, 1), ds, 0.1, seed=4)
        assert est.value in (0.0, 1.0)

    def test_deterministic(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 30, seed=5)
        a = holdout_error(fit_lda, ds, 0.3, seed=6)
        b = holdout_error(fit_lda, ds, 0.3, seed=6)
        assert a.value == b.value

    def test_fit_error_names_the_held_out_rows(self):
        # each row's only feature is its index, so the test side names its rows
        ds = LabeledDataset(np.arange(10.0)[:, None], [1, -1] * 5)
        _, test = split_holdout(ds, 0.3, seed=6)

        def fails(d):
            raise FitError("cannot fit")

        expected = f"index {', '.join(str(int(i)) for i in test.features[:, 0])}"
        with pytest.raises(EstimationError, match=expected) as info:
            holdout_error(fails, ds, 0.3, seed=6)
        assert isinstance(info.value.__cause__, FitError)


class TestCrossValidation:
    def test_kfold_equals_loo_bit_exactly(self):
        ds = LabeledDataset(
            [[0.0], [1.0], [2.5], [3.0], [7.0], [8.0], [9.0]],
            [-1, -1, -1, 1, 1, 1, 1],
        )
        trainer = lambda d: fit_knn(d, 1)
        assert kfold_cv(trainer, ds, k=ds.n, seed=0).value == loo_cv(trainer, ds).value

    def test_loo_hand_enumeration(self):
        est = loo_cv(lambda d: fit_knn(d, 1), THREE)
        assert est.value == 1 / 3

    def test_loo_constant_trainer(self):
        est = loo_cv(constant_trainer(1), THREE)
        assert est.value == 2 / 3  # the two negatives are always wrong

    def test_loo_needs_three_points(self):
        tiny = LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(EstimationError, match="N >= 3"):
            loo_cv(constant_trainer(1), tiny)

    def test_loo_names_failing_index(self):
        # index 0 is the only positive: LDA cannot fit its complement
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [1, -1, -1])
        with pytest.raises(EstimationError, match="index 0"):
            loo_cv(fit_lda, ds)

    def test_fit_error_in_a_fold_names_its_held_out_rows(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 12, seed=4)
        folds = make_folds(ds, 3, seed=5)
        held_out = folds.test_indices(folds.fold_index[7])

        def needs_row_7(d):
            if not np.any(np.all(d.features == ds.features[7], axis=1)):
                raise FitError("row 7 is missing")
            return fit_lda(d)

        expected = f"index {', '.join(map(str, held_out))}"
        with pytest.raises(EstimationError, match=expected) as info:
            kfold_cv(needs_row_7, ds, 3, seed=5)
        assert isinstance(info.value.__cause__, FitError)

    def test_tree_deeper_than_the_recursion_limit_names_its_held_out_rows(self):
        # alternating labels on a line need a tree about as deep as its training rows
        n = sys.getrecursionlimit() + 500
        ds = LabeledDataset(np.arange(float(n))[:, None], [1, -1] * (n // 2) + [1] * (n % 2))
        folds = make_folds(ds, 10, seed=3)
        expected = f"index {', '.join(map(str, folds.test_indices(0)))}"
        with pytest.raises(EstimationError, match=expected) as info:
            kfold_cv(lambda d: fit_tree(d, max_depth=2 * n), ds, 10, seed=3)
        assert isinstance(info.value.__cause__, RecursionError)

    def test_bad_parameter_passes_through_unwrapped(self):
        def bad_parameter(d):
            raise ValueError("bandwidth must be positive")

        with pytest.raises(ValueError, match="bandwidth"):
            loo_cv(bad_parameter, THREE)
        with pytest.raises(ValueError, match="bandwidth"):
            kfold_cv(bad_parameter, THREE, 3)

    def test_memorizing_trainer_fails_every_fold(self):
        ds = LabeledDataset(np.arange(6.0).reshape(6, 1), [-1] * 6)
        est = kfold_cv(lambda d: _Memorizer(d), ds, k=3, seed=1)
        assert est.value == 1.0

    def test_well_separated_clusters_cv_zero(self):
        problem = equal_cov_problem(0.5, [50.0], [-50.0])
        ds = sample(problem, 40, seed=7)
        assert kfold_cv(fit_lda, ds, k=5, stratified=True, seed=8).value == 0.0

    def test_deterministic(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 30, seed=9)
        a = kfold_cv(fit_lda, ds, 5, seed=10)
        b = kfold_cv(fit_lda, ds, 5, seed=10)
        assert a.value == b.value


class TestBootstrapCorrected:
    def test_constant_trainer_has_no_bias(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 60, seed=11)
        est = bootstrap_corrected(constant_trainer(1), ds, m_rounds=200, seed=12)
        assert abs(est.components["bias"]) <= 0.02
        assert est.value == pytest.approx(est.components["apparent"], abs=0.02)

    def test_single_round_hand_trace(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
        seed = 13
        est = bootstrap_corrected(lambda d: fit_knn(d, 1), ds, m_rounds=1, seed=seed)
        bs = bootstrap_sample(ds, child_seed(seed, 0))
        model = fit_knn(ds.subset(bs.indices), 1)
        eps_a = zero_one_error(model, ds.subset(bs.indices))
        eps_t = zero_one_error(model, ds)
        expected = max(0.0, min(1.0, 0.0 - (eps_a - eps_t)))
        assert est.value == expected
        assert est.components["bias"] == eps_a - eps_t

    def test_clamps_negative_corrected_value(self):
        # constant classifier, one negative point: a bootstrap that repeats
        # that point 3+ times makes the bias exceed the apparent error
        ds = LabeledDataset(np.arange(20.0).reshape(20, 1), [1] * 19 + [-1])
        hit = None
        for seed in range(200):
            if np.sum(bootstrap_sample(ds, child_seed(seed, 0)).indices == 19) >= 3:
                hit = seed
                break
        assert hit is not None
        est = bootstrap_corrected(constant_trainer(1), ds, m_rounds=1, seed=hit)
        assert est.components["raw"] < 0.0
        assert est.value == 0.0

    def test_each_round_predicts_once_on_all_rows(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 30, seed=14)
        calls = []
        bootstrap_corrected(lambda d: _Counting(fit_lda(d), calls), ds, m_rounds=7, seed=15)
        assert calls == [ds.n] * 8  # the full fit, then one call per round


class TestE632:
    def test_combination_is_exact(self):
        assert e632_combine(0.1, 0.2) == 0.1632

    def test_fixed_point(self):
        assert e632_combine(0.3, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_one_nn_weights_only_oob(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 40, seed=14)
        est = e632(lambda d: fit_knn(d, 1), ds, m_rounds=30, seed=15)
        assert est.components["apparent"] == 0.0
        assert est.value == 0.632 * est.components["out_of_bootstrap"]

    def test_value_between_components(self):
        ds = sample(equal_cov_problem(0.5, [0.7], [-0.7]), 50, seed=16)
        est = e632(fit_lda, ds, m_rounds=40, seed=17)
        lo = min(est.components["apparent"], est.components["out_of_bootstrap"])
        hi = max(est.components["apparent"], est.components["out_of_bootstrap"])
        assert lo <= est.value <= hi

    def test_estimates_lie_in_unit_interval(self):
        ds = sample(equal_cov_problem(0.5, [0.3], [-0.3]), 30, seed=18)
        for est in (
            apparent_error(fit_lda(ds), ds),
            holdout_error(fit_lda, ds, 0.3, seed=1),
            kfold_cv(fit_lda, ds, 5, seed=1),
            loo_cv(fit_lda, ds),
            bootstrap_corrected(fit_lda, ds, 20, seed=1),
            e632(fit_lda, ds, 20, seed=1),
        ):
            assert 0.0 <= est.value <= 1.0


class TestCurves:
    def test_learning_curve_trends(self):
        problem = equal_cov_problem(0.5, [1.0], [-1.0])
        true_curve, app_curve = learning_curve(
            fit_lda, problem, sizes=[20, 1000], repeats=20, n_test_mc=20000, seed=19
        )
        (n_small, true_small, _, _), (n_big, true_big, _, _) = true_curve.points
        assert (n_small, n_big) == (20, 1000)
        assert true_big <= true_small
        # apparent error climbs toward the true error as N grows
        (_, app_small, s_small, r), (_, app_big, s_big, _) = app_curve.points
        band = 2 * np.sqrt(s_small**2 / r + s_big**2 / r)
        assert app_big >= app_small - band
        # the optimism gap closes
        assert (true_big - app_big) <= (true_small - app_small)

    def test_feature_curve_singleton(self):
        problem = equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0])
        curve = feature_curve(
            fit_lda, problem, dims=[2], repeats=4, seed=20, n_train=50, n_test_mc=2000
        )
        assert len(curve.points) == 1
        d, mean, std, reps = curve.points[0]
        assert d == 2 and reps == 4 and std >= 0.0
        assert curve.metadata["estimate"] == "exact"

    def test_feature_curve_of_a_rule_without_a_form_is_mc(self):
        problem = equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0])
        curve = feature_curve(
            lambda ds: fit_parzen(ds, 0.7), problem, dims=[1, 2], repeats=2, seed=20,
            n_train=50, n_test_mc=2000,
        )
        assert curve.metadata["estimate"] == "mc"

    def test_feature_curve_on_dataset_uses_cv(self):
        ds = sample(equal_cov_problem(0.5, [1.5], [-1.5]), 60, seed=21)
        curve = feature_curve(
            fit_lda, ds, dims=[1, 3], repeats=2, seed=22, folds=4
        )
        assert curve.metadata["estimate"] == "cv"
        assert [p[0] for p in curve.points] == [1, 3]

    def test_monotone_dims_required(self):
        problem = equal_cov_problem(0.5, [1.0], [-1.0])
        with pytest.raises(ValueError):
            feature_curve(fit_lda, problem, dims=[3, 2], repeats=1, seed=0)

    def test_learning_curve_deterministic(self):
        problem = equal_cov_problem(0.5, [1.0], [-1.0])
        a, _ = learning_curve(fit_lda, problem, [30], 3, 2000, seed=23)
        b, _ = learning_curve(fit_lda, problem, [30], 3, 2000, seed=23)
        assert a.points == b.points


# The hand-written loops the estimators had before they shared one resampling
# core, kept as the reference the core must reproduce exactly.
def reference_kfold_cv(trainer, ds, k, stratified=False, seed=0):
    folds = make_folds(ds, k, stratified, seed)
    mistakes = 0
    for fold in range(k):
        model = trainer(ds.subset(folds.train_indices(fold)))
        test = ds.subset(folds.test_indices(fold))
        mistakes += int(np.sum(model.predict(test.features) != test.labels))
    value = mistakes / ds.n
    return ErrorEstimate(value, "kfold", error_std(value, ds.n))


def reference_loo_cv(trainer, ds):
    mistakes = 0
    for i in range(ds.n):
        rest = np.delete(np.arange(ds.n), i)
        model = trainer(ds.subset(rest))
        mistakes += int(model.predict(ds.features[i : i + 1])[0] != ds.labels[i])
    value = mistakes / ds.n
    return ErrorEstimate(value, "loo", error_std(value, ds.n))


def reference_bootstrap_corrected(trainer, ds, m_rounds, seed=0):
    full_model = trainer(ds)
    apparent = zero_one_error(full_model, ds)
    diffs = []
    for r in range(m_rounds):
        bs = bootstrap_sample(ds, child_seed(seed, r))
        boot_ds = ds.subset(bs.indices)
        model = trainer(boot_ds)
        eps_a = zero_one_error(model, boot_ds)
        eps_t = zero_one_error(model, ds)
        diffs.append(eps_a - eps_t)
    bias = float(np.mean(diffs))
    raw = apparent - bias
    value = min(1.0, max(0.0, raw))
    return ErrorEstimate(
        value, "bootstrap_corrected", error_std(value, ds.n),
        {"apparent": apparent, "bias": bias, "raw": raw},
    )


def reference_e632(trainer, ds, m_rounds, seed=0):
    apparent = zero_one_error(trainer(ds), ds)
    oob_mistakes = 0
    oob_total = 0
    for r in range(m_rounds):
        bs = None
        for attempt in range(10):
            cand = bootstrap_sample(ds, child_seed(seed, r, attempt))
            if cand.out_of_bag.size > 0:
                bs = cand
                break
        model = trainer(ds.subset(bs.indices))
        oob = ds.subset(bs.out_of_bag)
        oob_mistakes += int(np.sum(model.predict(oob.features) != oob.labels))
        oob_total += oob.n
    oob_error = oob_mistakes / oob_total
    value = e632_combine(apparent, oob_error)
    return ErrorEstimate(
        value, "e632", error_std(value, ds.n),
        {"apparent": apparent, "out_of_bootstrap": oob_error},
    )


REFERENCE_TRAINERS = {
    "lda": fit_lda,
    "knn": lambda d: fit_knn(d, 3),
    "least_squares": lambda d: train_least_squares(d, 0.1),
}


@pytest.mark.parametrize("trainer", list(REFERENCE_TRAINERS))
@pytest.mark.parametrize("case", range(4))
def test_estimators_equal_the_hand_written_loops(trainer, case):
    rng = np.random.default_rng(case)
    dim = int(rng.integers(1, 4))
    problem = equal_cov_problem(0.5, rng.normal(size=dim), rng.normal(size=dim))
    ds = sample(problem, int(rng.integers(20, 45)), seed=case)
    train = REFERENCE_TRAINERS[trainer]
    seed, k, rounds = int(rng.integers(1000)), int(rng.integers(2, 7)), int(rng.integers(1, 12))
    for stratified in (False, True):
        assert kfold_cv(train, ds, k, stratified, seed) == reference_kfold_cv(
            train, ds, k, stratified, seed
        )
    assert loo_cv(train, ds) == reference_loo_cv(train, ds)
    assert bootstrap_corrected(train, ds, rounds, seed) == reference_bootstrap_corrected(
        train, ds, rounds, seed
    )
    assert e632(train, ds, rounds, seed) == reference_e632(train, ds, rounds, seed)


# Registry trainers that score bootstrap rounds as weighted fits, each case
# also run behind the pipelines listed in ROUND_PIPELINES.
ROUND_CASES = {
    "lda": [{}, {"laplace_priors": True}, {"unbiased_cov": True}, {"ridge_cov": 0.5},
            {"laplace_priors": True, "unbiased_cov": True, "ridge_cov": 0.01}],
    "least_squares": [{}, {"lambda": 0.1}],
}
ROUND_PIPELINES = ["", "standardize+poly2", "select:0"]
ROUND_PROBLEM = GaussianMixtureProblem(
    0.4, np.array([0.8, 0.0, 0.4]), np.array([-0.8, 0.2, -0.4]),
    np.diag([0.5, 1.0, 2.0]), np.eye(3),
)
# enough parameters to build each trainer that has required ones
BUILD_PARAMS = {
    "parzen": {"bandwidth": 1.0}, "linear": {"loss": "hinge"}, "kernel_ridge": {"lambda": 1.0},
    "knn": {"k": 1}, "tree": {"max_depth": 1}, "bagging": {"m_rounds": 1},
    "random_subspace": {"m_rounds": 1, "subspace_dim": 1}, "adaboost": {"t_rounds": 1},
}


def build(name, params, spec=""):
    builder, kwargs = _choose(TRAINERS, name, params, "trainer")
    trainer = builder(kwargs, 0, ROUND_PROBLEM)
    return make_pipeline_trainer(parse_transform_spec(spec), trainer) if spec else trainer


def counted(trainer):
    """``trainer`` with its fit wrapped to record every dataset it fits."""
    fits = []

    def fit(ds):
        fits.append(ds)
        return trainer.fit(ds)

    return dataclasses.replace(trainer, fit=fit), fits


def round_counts(ds, seed, rounds):
    """The (rounds, n) count matrix of bootstrap_corrected's first rounds."""
    draws = [bootstrap_sample(ds, child_seed(seed, r)).indices for r in range(rounds)]
    return draws, np.stack([np.bincount(d, minlength=ds.n) for d in draws]).astype(float)


def test_every_trainer_with_round_scores_has_cases():
    trainers = {name: build(name, BUILD_PARAMS.get(name, {})) for name in TRAINERS}
    with_rounds = [name for name, t in trainers.items() if getattr(t, "round_scores", None)]
    assert sorted(with_rounds) == sorted(ROUND_CASES)


@pytest.mark.parametrize("name, params, spec", [
    pytest.param(name, p, spec, id="-".join(
        [name, *(f"{k}={v}" for k, v in p.items()), *([spec] if spec else [])]
    ))
    for name, cases in ROUND_CASES.items() for p in cases for spec in ROUND_PIPELINES
])
@pytest.mark.parametrize("n", [30, 57])
def test_bootstrap_rounds_are_scored_without_refits_as_the_refits_score_them(
    name, params, spec, n
):
    trainer = build(name, params, spec)
    ds = sample(ROUND_PROBLEM, n, seed=n)
    draws, counts = round_counts(ds, 7, 12)
    scores = trainer.round_scores(ds.features, ds.labels, counts)
    refit = np.array([trainer.fit(ds.subset(d)).decision_function(ds.features) for d in draws])
    assert np.max(np.abs(scores - refit) / (1.0 + np.abs(refit))) < 1e-9
    for estimator, reference in [(bootstrap_corrected, reference_bootstrap_corrected),
                                 (e632, reference_e632)]:
        once, fits = counted(trainer)
        assert estimator(once, ds, 40, 7) == reference(trainer.fit, ds, 40, 7)
        assert fits == [ds]  # the apparent fit alone: every round was scored


def test_a_declined_chunk_refits_only_its_own_rounds(monkeypatch):
    """With one round per chunk, a scorer that declines every other chunk
    leaves half the rounds to refits, and the estimate does not change."""
    monkeypatch.setattr("claslab.base._BLOCK", 30)
    trainer = build("lda", {})
    ds = sample(ROUND_PROBLEM, 30, seed=3)
    calls = []

    def every_other(X, y, C):
        calls.append(len(C))
        return None if len(calls) % 2 else trainer.round_scores(X, y, C)

    once, fits = counted(dataclasses.replace(trainer, round_scores=every_other))
    assert e632(once, ds, 10, 4) == reference_e632(fit_lda, ds, 10, 4)
    assert calls == [1] * 10 and len(fits) == 1 + 5


def outcome(estimator, trainer, ds, rounds, seed):
    """The estimate, or the type and message of the error it raised."""
    try:
        return estimator(trainer, ds, rounds, seed)
    except (EstimationError, ValueError) as exc:
        return type(exc), str(exc)


def declining_seed(trainer, ds, rounds):
    """The first seed whose first bootstrap_corrected rounds the scorer declines."""
    for seed in range(500):
        if trainer.round_scores(ds.features, ds.labels, round_counts(ds, seed, rounds)[1]) is None:
            return seed
    raise AssertionError("no seed declines")


# (trainer, dataset): some bootstrap round's refit may fail or fit something
# the weighted fit cannot follow to the bit, so the scorer must decline
DECLINING = {
    # two positives in eight rows: some round draws negatives only
    "lda_one_class": (
        ("lda", {}, ""),
        LabeledDataset(np.arange(8.0)[:, None], [1, -1, -1, -1, -1, -1, -1, 1]),
    ),
    # five rows in d = 3: most rounds draw fewer distinct rows than d + 1
    "least_squares_few_rows": (
        ("least_squares", {}, ""),
        LabeledDataset([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0], [3.0, 1.5, 1.0],
                        [0.5, 3.0, 2.5]], [1, -1, 1, -1, 1]),
    ),
    # column 1 is 0.3 but for row 7: a round that misses row 7 sees it
    # constant, and its weighted std is a rounding error, not 0
    "standardize_constant_column": (
        ("least_squares", {"lambda": 0.1}, "standardize"),
        LabeledDataset(np.column_stack([np.arange(8.0), [0.3] * 7 + [1.0]]),
                       [1, -1, 1, 1, -1, 1, -1, -1]),
    ),
}


@pytest.mark.parametrize("case", list(DECLINING))
def test_a_round_in_doubt_is_declined_and_refitted_as_the_loop_does(case):
    (name, params, spec), ds = DECLINING[case]
    trainer = build(name, params, spec)
    seed = declining_seed(trainer, ds, 4)
    for estimator in (bootstrap_corrected, e632):
        # a bare fit is refitted on every round
        assert outcome(estimator, trainer, ds, 4, seed) == outcome(
            estimator, trainer.fit, ds, 4, seed
        )


def test_standardize_declines_exactly_the_rounds_with_a_constant_column():
    _, ds = DECLINING["standardize_constant_column"]
    for seed in range(40):
        draws, counts = round_counts(ds, seed, 1)
        mapped = Standardize.fit_rounds(ds.features, counts)
        assert (mapped is None) == (7 not in draws[0])
        if mapped is not None:
            np.testing.assert_allclose(
                mapped[0], Standardize.fit(ds.subset(draws[0])).map(ds.features),
                rtol=1e-12, atol=1e-12,
            )


def test_a_round_with_one_class_names_its_held_out_rows():
    (name, params, spec), ds = DECLINING["lda_one_class"]
    trainer = build(name, params, spec)
    seed = declining_seed(trainer, ds, 1)
    drawn = bootstrap_sample(ds, child_seed(seed, 0)).indices
    assert set(ds.labels[drawn]) == {-1}
    held_out = ", ".join(map(str, np.setdiff1d(np.arange(ds.n), drawn)))
    with pytest.raises(EstimationError, match=rf"\(index {held_out}\)"):
        bootstrap_corrected(trainer, ds, 1, seed)


def test_a_failing_draw_comes_after_the_rounds_before_it():
    """Two rows: every e632 round draws one row twice, so its refit has one
    class and fails, and now and then a round's ten draws all leave no row
    out.  Round 0's refit fails first, as in the loop, though the later
    round's draws fail while its chunk is gathered."""
    ds = LabeledDataset([[0.0], [1.0]], [1, -1])
    failing = next(
        r for r in range(5000)
        if all(bootstrap_sample(ds, child_seed(0, r, a)).out_of_bag.size == 0 for a in range(10))
    )
    assert failing < base._BLOCK // ds.n  # in the first chunk
    with pytest.raises(EstimationError, match=f"no out-of-bag row in bootstrap round {failing}"):
        e632(constant_trainer(1), ds, failing + 1, 0)
    trainer = build("lda", {"ridge_cov": 1.0})
    first = outcome(e632, trainer, ds, 1, 0)
    assert first[0] is EstimationError and "held-out rows" in first[1]
    for t in (trainer, trainer.fit):
        assert outcome(e632, t, ds, failing + 1, 0) == first


def test_bootstrap_memory_does_not_grow_with_the_round_count():
    """A chunk holds at most base._BLOCK (round, row) cells: at n = 300 and
    21 columns after standardize+poly2, a few arrays of that many cells by
    21 floats, at 20 rounds as at 2,000."""
    problem = equal_cov_problem(0.5, [0.8, 0.0, 0.4, 0.1, 0.0], [-0.8, 0.2, -0.4, 0.0, 0.3])
    ds = sample(problem, 300, seed=5)
    trainer = build("least_squares", {"lambda": 0.1}, "standardize+poly2")
    peaks = []
    for rounds in (20, 2000):
        tracemalloc.start()
        try:
            e632(trainer, ds, rounds, seed=6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 6 * 8 * base._BLOCK * 21
