"""Error estimators and curves, checked against hand enumeration."""

import sys

import numpy as np
import pytest

from claslab.data import LabeledDataset, bootstrap_sample, child_seed, make_folds, split_holdout
from claslab.evaluation import (
    ErrorEstimate,
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
from claslab.generative import fit_lda, fit_parzen
from claslab.linear import train_least_squares
from claslab.neighbors import fit_knn
from claslab.oracle import equal_cov_problem, sample
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
