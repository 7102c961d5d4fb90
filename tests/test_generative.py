"""LDA closed-form fits and the Parzen window classifier."""

import numpy as np
import pytest
from scipy.special import logsumexp

from claslab.data import LabeledDataset
from claslab.exceptions import FitError, NumericError
from claslab.generative import (
    _logsumexp_rows,
    fit_lda,
    fit_parzen,
)
from claslab.oracle import equal_cov_problem, sample

HAND = LabeledDataset([[0.0], [2.0], [4.0], [6.0]], [1, 1, -1, -1])


def log_likelihood(ds, prior_pos, mean_pos, mean_neg, cov):
    """Joint Gaussian-model log-likelihood, written independently."""
    cov = np.atleast_2d(cov)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    d = cov.shape[0]
    total = 0.0
    for x, y in zip(ds.features, ds.labels):
        mean = mean_pos if y == 1 else mean_neg
        prior = prior_pos if y == 1 else 1.0 - prior_pos
        diff = x - mean
        maha = diff @ np.linalg.solve(cov, diff)
        total += np.log(prior) - 0.5 * (d * np.log(2 * np.pi) + logdet + maha)
    return total


class TestFitLda:
    def test_hand_example(self):
        model = fit_lda(HAND)
        assert model.prior_pos == 0.5
        np.testing.assert_allclose(model.mean_pos, [1.0])
        np.testing.assert_allclose(model.mean_neg, [5.0])
        np.testing.assert_allclose(model.pooled_cov, [[1.0]])
        # boundary at the midpoint x = 3
        assert model.decision_function([3.0]) == pytest.approx(0.0, abs=1e-12)
        assert model.predict(np.array([[3.0]]))[0] == 1  # on-boundary tie

    def test_decision_sides(self):
        model = fit_lda(HAND)
        assert model.decision_function([1.0]) > 0
        assert model.decision_function([5.0]) < 0

    def test_laplace_priors(self):
        assert fit_lda(HAND, laplace_priors=True).prior_pos == 0.5
        skew = LabeledDataset([[0.0], [1.0], [2.0], [5.0]], [1, 1, 1, -1])
        model = fit_lda(skew, laplace_priors=True)
        assert model.prior_pos == pytest.approx(4 / 6)

    def test_unbiased_cov_scaling(self):
        plain = fit_lda(HAND)
        scaled = fit_lda(HAND, unbiased_cov=True)
        np.testing.assert_allclose(scaled.pooled_cov, 2.0 * plain.pooled_cov)
        # boundary location is unchanged by a common covariance rescale
        assert scaled.decision_function([3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_singular_covariance_needs_ridge(self):
        degenerate = LabeledDataset([[1.0], [1.0]], [1, -1])
        with pytest.raises(NumericError, match="ridge_cov"):
            fit_lda(degenerate)
        model = fit_lda(degenerate, ridge_cov=0.5)
        assert np.all(np.isfinite(model.weight))

    @pytest.mark.parametrize("scale", [1e200, 1e307])
    def test_moments_that_overflow_are_rejected(self, scale):
        # a saved model could not hold the non-finite offset or covariance
        huge = LabeledDataset(scale * np.array([[1.0, 0.0], [1.5, 1.0], [-1.0, 0.5], [1.7, 2.0]]),
                              [-1, 1, -1, 1])
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="overflow"):
            fit_lda(huge, ridge_cov=1.0)

    def test_single_class_rejected(self):
        with pytest.raises(FitError):
            fit_lda(LabeledDataset([[0.0], [1.0]], [1, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fit_lda(HAND).decision_function([1.0, 2.0])


class TestLdaGeometry:
    def test_boundary_is_affine(self):
        rng = np.random.default_rng(3)
        ds = sample(equal_cov_problem(0.6, [1.0, 0.5], [-1.0, 0.0]), 200, seed=4)
        model = fit_lda(ds)

        def boundary_point(direction, anchor):
            # score is affine, so one secant step lands exactly on zero
            f0 = model.decision_function(anchor)
            f1 = model.decision_function(anchor + direction)
            t = -f0 / (f1 - f0)
            return anchor + t * direction

        a = boundary_point(rng.normal(size=2), rng.normal(size=2))
        b = boundary_point(rng.normal(size=2), rng.normal(size=2))
        for lam in np.linspace(0, 1, 7):
            assert abs(model.decision_function(lam * a + (1 - lam) * b)) < 1e-9

    def test_symmetric_classes_split_at_midpoint(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(40, 2)) + [2.0, 1.0]
        feats = np.vstack([pos, -pos])  # exact mirror symmetry
        ds = LabeledDataset(feats, [1] * 40 + [-1] * 40)
        model = fit_lda(ds)
        midpoint = 0.5 * (model.mean_pos + model.mean_neg)
        assert abs(model.decision_function(midpoint)) < 1e-9

    def test_fit_maximizes_log_likelihood(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.5]), 60, seed=6)
        model = fit_lda(ds)
        base = log_likelihood(ds, model.prior_pos, model.mean_pos, model.mean_neg, model.pooled_cov)
        eps = 1e-3
        candidates = []
        for sign in (+eps, -eps):
            candidates.append(
                (model.prior_pos + sign, model.mean_pos, model.mean_neg, model.pooled_cov)
            )
            for i in range(2):
                mp = model.mean_pos.copy()
                mp[i] += sign
                candidates.append((model.prior_pos, mp, model.mean_neg, model.pooled_cov))
                mn = model.mean_neg.copy()
                mn[i] += sign
                candidates.append((model.prior_pos, model.mean_pos, mn, model.pooled_cov))
            for i in range(2):
                for j in range(2):
                    cov = model.pooled_cov.copy()
                    cov[i, j] += sign
                    candidates.append((model.prior_pos, model.mean_pos, model.mean_neg, cov))
        for prior, mp, mn, cov in candidates:
            assert log_likelihood(ds, prior, mp, mn, cov) <= base + 1e-12


def _logsumexp_case(rng):
    """A matrix rich in tied maxima and non-finite terms; 1-row and
    1-column shapes included."""
    n, m = (int(v) for v in rng.integers(1, 60, size=2))
    n, m = [(1, m), (n, 1), (n, m), (n, m)][rng.integers(0, 4)]
    a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, m))
    if rng.random() < 0.5:  # rounded values tie, maxima included
        a = np.round(a)
    for value in (np.inf, -np.inf, np.nan, 1e308, -1e308):
        if rng.random() < 0.3:
            a[rng.integers(0, n, size=n // 4 + 1), rng.integers(0, m, size=n // 4 + 1)] = value
    if rng.random() < 0.3:
        a[rng.integers(0, n)] = -np.inf
    return a


def test_private_logsumexp_equals_scipys_bytes():
    rng = np.random.default_rng(23)
    for i in range(400):
        a = _logsumexp_case(rng)
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=1)
        got = _logsumexp_rows(a.copy())
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), i


class TestParzen:
    def test_single_points_give_perpendicular_bisector(self):
        ds = LabeledDataset([[0.0, 0.0], [2.0, 2.0]], [1, -1])
        model = fit_parzen(ds, bandwidth=0.7)
        assert model.decision_function([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
        assert model.decision_function([0.5, 0.5]) > 0
        assert model.decision_function([1.5, 1.5]) < 0

    def test_huge_bandwidth_approaches_prior_majority(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0], [10.0]], [1, 1, 1, -1])
        model = fit_parzen(ds, bandwidth=1e6)
        for x in (-50.0, 0.0, 10.0, 50.0):
            assert model.decision_function([x]) == pytest.approx(np.log(3.0), abs=1e-6)

    def test_tight_bandwidth_reproduces_one_nn_on_training_points(self):
        ds = sample(equal_cov_problem(0.5, [1.5], [-1.5]), 30, seed=8)
        model = fit_parzen(ds, bandwidth=1e-3)
        np.testing.assert_array_equal(model.predict(ds.features), ds.labels)

    def test_on_stored_point_wins(self):
        ds = LabeledDataset([[0.0], [0.4], [3.0], [3.4]], [1, 1, -1, -1])
        model = fit_parzen(ds, bandwidth=0.1)
        assert model.decision_function([0.0]) > 0

    def test_duplicating_a_class_changes_nothing(self):
        ds = LabeledDataset([[0.0], [1.0], [4.0]], [1, 1, -1])
        doubled = LabeledDataset(
            [[0.0], [1.0], [0.0], [1.0], [4.0], [4.0]], [1, 1, 1, 1, -1, -1]
        )
        a = fit_parzen(ds, 0.8)
        b = fit_parzen(doubled, 0.8)
        # same priors, same mean-of-kernels densities
        for x in np.linspace(-2, 6, 17):
            assert a.decision_function([x]) == pytest.approx(
                b.decision_function([x]), abs=1e-12
            )

    def test_far_query_stays_finite(self):
        model = fit_parzen(LabeledDataset([[0.0], [1.0]], [1, -1]), 0.5)
        score = model.decision_function([1e8])
        assert np.isfinite(score)

    def test_far_query_matches_direct_log_densities(self):
        # independent evaluation with mpmath-free exact arithmetic in logs
        ds = LabeledDataset([[0.0], [2.0], [5.0]], [1, 1, -1])
        h = 0.5
        model = fit_parzen(ds, h)
        x = 40.0

        def log_density(points):
            exps = -((x - points) ** 2) / (2 * h * h)
            ref = exps.max()
            return (
                ref
                + np.log(np.exp(exps - ref).sum())
                - np.log(len(points))
                - 0.5 * np.log(2 * np.pi * h * h)
            )

        expected = (
            np.log(2 / 3) + log_density(np.array([0.0, 2.0]))
            - np.log(1 / 3) - log_density(np.array([5.0]))
        )
        assert model.decision_function([x]) == pytest.approx(expected, rel=1e-12)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            fit_parzen(HAND, 0.0)

    @pytest.mark.parametrize("bandwidth", [1e200, 1e-200, float("inf"), float("nan")])
    def test_bandwidth_without_a_positive_finite_square_rejected(self, bandwidth):
        # 1e200 ** 2 overflows; 1e-200 ** 2 underflows to 0, which made every score NaN
        with pytest.raises(ValueError, match="bandwidth"):
            fit_parzen(HAND, bandwidth)

    def test_single_class_rejected(self):
        with pytest.raises(FitError):
            fit_parzen(LabeledDataset([[0.0]], [1]), 1.0)
