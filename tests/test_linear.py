"""Newton and gradient-descent ERM, logistic regression, and closed-form ridge."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from claslab import linear
from claslab.data import LabeledDataset
from claslab.exceptions import NumericError
from claslab.features import Standardize
from claslab.linear import (
    _ARMIJO,
    _MIN_STEP,
    TrainConfig,
    _descend,
    _objective_and_grad,
    train_least_squares,
    train_linear,
    train_logistic,
)
from claslab.losses import get_loss
from claslab.oracle import equal_cov_problem, sample

SEP_1D = LabeledDataset([[-1.0], [1.0]], [-1, 1])


def full_objective(ds, loss, lam, weight, bias):
    scores = ds.features @ weight + bias
    return float(np.sum(loss.value(scores, ds.labels)) + lam * weight @ weight)


class TestTrainLinear:
    def test_separable_squared(self):
        h = train_linear(SEP_1D, TrainConfig(loss="squared", lam=0.0))
        assert h.decision_function(np.array([[-1.0]]))[0] < 0
        assert h.decision_function(np.array([[1.0]]))[0] > 0

    def test_huge_lambda_kills_weights(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.5], [-1.0, -0.5]), 80, seed=1)
        h = train_linear(ds, TrainConfig(loss="squared", lam=1e6, max_iters=3000))
        assert np.linalg.norm(h.weight) <= 1e-3

    def test_weight_norm_shrinks_over_lambda_grid(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.5], [-1.0, -0.5]), 80, seed=2)
        norms = [
            np.linalg.norm(
                train_linear(ds, TrainConfig(loss="logistic", lam=lam, max_iters=2000)).weight
            )
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_symmetric_data_zero_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 2)) + [1.0, 0.3]
        ds = LabeledDataset(np.vstack([x, -x]), [1] * 25 + [-1] * 25)
        h = train_linear(ds, TrainConfig(loss="logistic", lam=0.1, max_iters=2000))
        assert abs(h.bias) <= 1e-6

    def test_zero_one_rejected(self):
        with pytest.raises(ValueError, match="0-1"):
            train_linear(SEP_1D, TrainConfig(loss="zero_one"))

    def test_objective_descends(self):
        ds = sample(equal_cov_problem(0.5, [0.8], [-0.8]), 60, seed=4)
        h = train_linear(ds, TrainConfig(loss="hinge", lam=0.5, max_iters=200))
        hist = np.array(h.info.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_termination_reported(self):
        ds = sample(equal_cov_problem(0.5, [2.0], [-2.0]), 40, seed=5)
        h = train_linear(ds, TrainConfig(loss="squared", lam=1.0, max_iters=5000, tolerance=1e-6))
        assert h.info.termination == "tolerance"
        assert h.info.converged
        # hinge stays on gradient descent; Newton solves squared loss in one step
        h2 = train_linear(ds, TrainConfig(loss="hinge", lam=1.0, max_iters=3))
        assert h2.info.termination == "max_iters"
        assert h2.info.iterations == 3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for name in ("logistic", "squared", "exponential"):
            loss = get_loss(name)
            Z = rng.normal(size=(12, 3))
            y = rng.choice([-1, 1], size=12)
            scale = rng.uniform(0.5, 2.0, size=3)
            v = rng.normal(size=3)
            v0 = float(rng.normal())
            lam = 0.3
            _, gv, gv0 = _objective_and_grad(Z, y, loss, lam, scale, v, v0)
            h = 1e-6
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                up = _objective_and_grad(Z, y, loss, lam, scale, v + e, v0)[0]
                dn = _objective_and_grad(Z, y, loss, lam, scale, v - e, v0)[0]
                fd = (up - dn) / (2 * h)
                assert abs(fd - gv[i]) <= 1e-5 * (1 + abs(gv[i]))
            up = _objective_and_grad(Z, y, loss, lam, scale, v, v0 + h)[0]
            dn = _objective_and_grad(Z, y, loss, lam, scale, v, v0 - h)[0]
            assert abs((up - dn) / (2 * h) - gv0) <= 1e-5 * (1 + abs(gv0))

    def test_penalty_solution_solves_constrained_problem(self):
        # at t = ||w*||^2 no point of the constrained ball does better
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 40, seed=7)
        loss = get_loss("squared")
        h = train_linear(ds, TrainConfig(loss="squared", lam=1.0, max_iters=4000, tolerance=1e-10))
        t = float(h.weight @ h.weight)
        best_risk = full_objective(ds, loss, 0.0, h.weight, h.bias)
        radius = np.sqrt(t)
        for w in np.linspace(-radius, radius, 81):
            for b in np.linspace(-1.5, 1.5, 61):
                risk = full_objective(ds, loss, 0.0, np.array([w]), b)
                assert risk >= best_risk - 1e-6


def random_dataset(rng):
    n, d = int(rng.integers(6, 30)), int(rng.integers(1, 4))
    y = rng.choice([-1, 1], size=n)
    return LabeledDataset(rng.normal(size=(n, d)) + 0.7 * y[:, None] * rng.normal(size=d), y)


def assert_separates(h, ds):
    assert np.all(ds.labels * h.decision_function(ds.features) > 0)


def separable_dataset(rng):
    """1 to 5 columns and 4 to 60 rows labelled by a random hyperplane, none
    of them within 0.1 of it, and both labels present."""
    n, d = int(rng.integers(4, 61)), int(rng.integers(1, 6))
    normal, offset = rng.normal(size=d), rng.normal(scale=0.5)
    normal /= np.linalg.norm(normal)
    while True:
        X = rng.normal(size=(4 * n, d))
        signed = X @ normal + offset
        keep = np.abs(signed) > 0.1
        X, y = X[keep][:n], np.where(signed[keep][:n] > 0, 1, -1)
        if len(y) == n and len(set(y)) == 2:
            return LabeledDataset(X, y)


def standardized(ds):
    st = Standardize.fit(ds)
    return st.map(ds.features), ds.labels, st.std


def reference_descent(ds, config):
    """Gradient descent that scores every halving of the step by a matrix
    product, as the loop before the score ray did, under the same strict
    Armijo test on the summed change of each term.  Returns (weight,
    iterations, termination, resolved); ``resolved`` is False once some
    candidate's change lay within rounding (1e-12 (1 + objective)) of the
    Armijo threshold, where two correct evaluations may decide apart."""
    loss, (Z, y, scale) = get_loss(config.loss), standardized(ds)
    v, v0 = np.zeros(ds.dim), 0.0
    obj, gv, gv0 = _objective_and_grad(Z, y, loss, config.lam, scale, v, v0)
    iterations, resolved = 0, True
    while True:
        gnorm = np.sqrt(gv @ gv + gv0**2)
        if gnorm <= config.tolerance:
            return v / scale, iterations, "tolerance", resolved
        if iterations == config.max_iters:
            return v / scale, iterations, "max_iters", resolved
        terms, w, step = loss.value(Z @ v + v0, y), v / scale, config.step_size
        while step > _MIN_STEP:
            cand_v, cand_v0 = v - step * gv, v0 - step * gv0
            cand_w = cand_v / scale
            change = np.sum(loss.value(Z @ cand_v + cand_v0, y) - terms)
            change += config.lam * np.sum(cand_w * cand_w - w * w)
            threshold = -_ARMIJO * step * gnorm**2
            resolved &= abs(change - threshold) > 1e-12 * (1 + obj)
            if change < threshold:
                break
            step *= 0.5
        else:
            return v / scale, iterations, "stalled", resolved
        v, v0 = cand_v, cand_v0
        obj, gv, gv0 = _objective_and_grad(Z, y, loss, config.lam, scale, v, v0)
        iterations += 1


class TestSolvers:
    @pytest.mark.parametrize("loss", ["logistic", "squared", "exponential", "truncated_squared"])
    def test_newton_no_worse_than_long_gradient_descent(self, loss):
        rng = np.random.default_rng(13)
        for lam in (0.0, 0.1):
            for _ in range(50):
                ds = random_dataset(rng)
                config = TrainConfig(loss=loss, lam=lam, max_iters=500, tolerance=1e-9)
                h = train_linear(ds, config)
                if h.info.termination == "separated":  # no minimizer to compare with
                    assert lam == 0 and h.info.objective < 1.0
                    assert_separates(h, ds)
                else:
                    gd = _descend(ds.features, ds.labels, get_loss(loss), config,
                                  Standardize.fit(ds), False)[2]
                    assert h.info.objective <= gd.objective + 1e-9 * (1 + abs(gd.objective))
                # at the default tolerance every Newton fit ends by its stop
                # rule or at a certificate: none spends the budget
                h = train_linear(ds, TrainConfig(loss=loss, lam=lam, max_iters=100))
                assert h.info.termination in ("tolerance", "separated")
                if h.info.termination == "separated":
                    assert_separates(h, ds)

    def test_squared_newton_is_least_squares(self):
        rng = np.random.default_rng(14)
        for lam in (0.0, 0.1):
            for _ in range(20):
                ds = random_dataset(rng)
                h = train_linear(ds, TrainConfig(loss="squared", lam=lam))
                exact = train_least_squares(ds, lam)
                assert h.info.iterations == 1
                np.testing.assert_allclose(h.weight, exact.weight, rtol=0, atol=1e-8)
                assert h.bias == pytest.approx(exact.bias, abs=1e-8)

    @pytest.mark.parametrize("loss", ["logistic", "squared", "exponential", "truncated_squared"])
    def test_duplicated_column_trains_without_penalty(self, loss):
        # the Hessian is singular; the fit must match the one-column fit
        ds = sample(equal_cov_problem(0.5, [0.5], [-0.5]), 40, seed=15)
        twice = LabeledDataset(np.hstack([ds.features, ds.features]), ds.labels)
        once, h = train_linear(ds, TrainConfig(loss=loss)), train_linear(twice, TrainConfig(loss=loss))
        assert h.info.termination == "tolerance"
        assert np.all(np.isfinite(h.weight))
        assert h.info.objective == pytest.approx(once.info.objective, rel=1e-9)
        np.testing.assert_allclose(h.decision_function(twice.features),
                                   once.decision_function(ds.features), atol=1e-6)

    def test_quasi_separated_data_give_finite_weights(self):
        # a tied pair keeps the objective above 2, so no separation is
        # certified, yet no minimizer exists: the others are separated
        ds = LabeledDataset([[-2.0], [-1.0], [0.0], [0.0], [1.0], [2.0]], [-1, -1, -1, 1, 1, 1])
        for loss in ("logistic", "exponential"):
            h = train_linear(ds, TrainConfig(loss=loss))
            assert np.all(np.isfinite(h.weight))
            assert h.info.termination == "tolerance"
            assert 2.0 < h.info.objective < 2.0 + 1e-5

    @pytest.mark.xfail(strict=True, reason="quasi-complete separation is not detected "
                       "until ROADMAP item 2 step C")
    def test_quasi_separated_data_do_not_end_tolerance(self):
        ds = LabeledDataset([[-2.0], [-1.0], [0.0], [0.0], [1.0], [2.0]], [-1, -1, -1, 1, 1, 1])
        assert train_logistic(ds, 0.0).info.termination != "tolerance"

    def test_separable_sets_end_at_a_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            ds = separable_dataset(rng)
            for loss in ("logistic", "exponential"):
                h = train_linear(ds, TrainConfig(loss=loss))
                assert h.info.termination == "separated"
                assert_separates(h, ds)
                # the certificate does not depend on the budget left after it
                again = train_linear(ds, TrainConfig(loss=loss, max_iters=h.info.iterations))
                assert again.info.termination == "separated"
                assert again.weight.tobytes() == h.weight.tobytes() and again.bias == h.bias
                penalized = train_linear(ds, TrainConfig(loss=loss, lam=0.1))
                assert penalized.info.termination != "separated"
            hinge = train_linear(ds, TrainConfig(loss="hinge", max_iters=200))
            assert hinge.info.termination != "separated"

    @pytest.mark.parametrize("loss", ["hinge", "absolute"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_ray_search_matches_per_candidate_descent(self, loss, lam):
        rng = np.random.default_rng(16)
        compared = 0
        for _ in range(20):
            ds = random_dataset(rng)
            config = TrainConfig(loss=loss, lam=lam, max_iters=30)
            h = train_linear(ds, config)
            weight, iterations, termination, resolved = reference_descent(ds, config)
            if not resolved:  # e.g. every stall: its last steps change nothing
                continue
            compared += 1
            assert (h.info.iterations, h.info.termination) == (iterations, termination)
            np.testing.assert_allclose(h.weight, weight, rtol=1e-9, atol=1e-9)
        assert compared >= 10

    @pytest.mark.parametrize("loss", ["hinge", "exponential"])
    def test_overflowing_steps_fail_the_search_without_a_warning(self, loss):
        # a step of 1e300 overflows the penalty's square; it must fail quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = train_linear(SEP_1D, TrainConfig(loss=loss, step_size=1e300, max_iters=20))
        assert np.all(np.isfinite(h.weight)) and np.isfinite(h.info.objective)

    def test_exhausted_search_stalls_at_the_last_accepted_iterate(self, monkeypatch):
        ds = sample(equal_cov_problem(0.5, [0.8], [-0.8]), 60, seed=4)
        free = train_linear(ds, TrainConfig(loss="hinge", lam=0.5, max_iters=50))
        monkeypatch.setattr(linear, "_MIN_STEP", 0.3)  # candidates 1 and 1/2 only
        h = train_linear(ds, TrainConfig(loss="hinge", lam=0.5, max_iters=50))
        assert free.info.termination != "stalled"
        assert h.info.termination == "stalled"
        assert np.all(np.diff(h.info.objective_history) < 0)
        loss = get_loss("hinge")
        assert full_objective(ds, loss, 0.5, h.weight, h.bias) == pytest.approx(
            h.info.objective, rel=1e-12
        )


class TestTrainLogistic:
    def test_zero_hypothesis_posterior_half(self):
        from claslab.linear import LinearHypothesis

        h = LinearHypothesis(np.zeros(2), 0.0)
        rng = np.random.default_rng(8)
        for x in rng.normal(size=(10, 2)):
            assert expit(h.decision_function(x)) == 0.5

    def test_posterior_monotone_when_means_ordered(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 200, seed=9)
        h = train_logistic(ds, 1e-3)
        xs = np.linspace(-3, 3, 50)[:, None]
        post = expit(h.decision_function(xs))
        assert np.all(np.diff(post) > 0)

    def test_separable_ends_at_its_certificate_without_penalty(self):
        short = train_logistic(SEP_1D, 0.0, max_iters=300)
        long = train_logistic(SEP_1D, 0.0, max_iters=900)
        assert short.info.termination == "separated"
        assert long.info.termination == "separated"
        # unregularized ML on separable data has no minimizer: the fit is the
        # first Newton iterate that separates, whatever the budget
        assert long.weight.tobytes() == short.weight.tobytes() and long.bias == short.bias
        assert_separates(long, SEP_1D)
        h_reg = train_logistic(SEP_1D, 1e-4, max_iters=20000, tolerance=1e-5)
        assert h_reg.info.termination == "tolerance"

    def test_objective_plateaus_on_separable_data(self):
        h = train_logistic(SEP_1D, 0.0, max_iters=400)
        hist = h.info.objective_history
        assert hist[-1] < hist[0]
        assert np.all(np.diff(hist) <= 1e-12)


class TestLeastSquares:
    def test_hand_case(self):
        ds = LabeledDataset([[0.0], [2.0]], [-1, 1])
        h = train_least_squares(ds, 0.0)
        assert h.weight[0] == pytest.approx(1.0, abs=1e-12)
        assert h.bias == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(h.decision_function(ds.features), [-1.0, 1.0], atol=1e-12)

    def test_huge_lambda_leaves_label_mean(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, -1])
        h = train_least_squares(ds, 1e12)
        assert np.linalg.norm(h.weight) < 1e-6
        assert h.bias == pytest.approx(np.mean(ds.labels), abs=1e-6)

    def test_matches_iterative_squared_loss(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.4], [-1.0, -0.4]), 50, seed=10)
        exact = train_least_squares(ds, 0.1)
        iterated = train_linear(
            ds, TrainConfig(loss="squared", lam=0.1, max_iters=6000, tolerance=1e-9)
        )
        np.testing.assert_allclose(iterated.weight, exact.weight, atol=1e-4)
        assert iterated.bias == pytest.approx(exact.bias, abs=1e-4)

    def test_singular_without_ridge(self):
        ds = LabeledDataset([[1.0, 2.0]], [1])
        with pytest.raises(NumericError, match="lambda"):
            train_least_squares(ds, 0.0)
        h = train_least_squares(ds, 1e-3)
        assert np.all(np.isfinite(h.weight))


class TestPosterior:
    def test_extremes_saturate_without_overflow(self):
        from claslab.linear import LinearHypothesis

        h = LinearHypothesis(np.array([1.0]), 0.0)
        assert expit(h.decision_function([1000.0])) == 1.0
        assert expit(h.decision_function([-1000.0])) == 0.0

    def test_positive_and_negative_posteriors_sum_to_one(self):
        from claslab.linear import LinearHypothesis

        h = LinearHypothesis(np.array([0.7, -0.2]), 0.3)
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 2))
        pos = expit(h.decision_function(X))
        flipped = LinearHypothesis(-h.weight, -h.bias)
        np.testing.assert_allclose(pos + expit(flipped.decision_function(X)), 1.0, atol=1e-12)

    def test_boundary_means_half(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 60, seed=12)
        h = train_logistic(ds, 1e-2)
        # solve for the boundary point of the affine score
        x_star = -h.bias / h.weight[0]
        assert expit(h.decision_function([x_star])) == pytest.approx(0.5, abs=1e-9)
        assert abs(h.decision_function(np.array([[x_star]]))[0]) <= 1e-12


class TestBiasVarianceDirection:
    def test_coefficient_variance_nonincreasing_in_lambda(self):
        problem = equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0])
        lams = (0.0, 0.1, 1.0, 10.0)
        weights = {lam: [] for lam in lams}
        for rep in range(100):
            ds = sample(problem, 30, seed=1000 + rep)
            for lam in lams:
                weights[lam].append(train_least_squares(ds, lam).weight)
        total_var = {}
        var_of_var = {}
        for lam in lams:
            W = np.array(weights[lam])
            v = W.var(axis=0, ddof=1)
            total_var[lam] = float(v.sum())
            # delta-method spread of the variance estimate itself
            centered = (W - W.mean(axis=0)) ** 2
            var_of_var[lam] = float(centered.var(axis=0, ddof=1).sum() / len(W))
        for a, b in zip(lams, lams[1:]):
            slack = 3.0 * np.sqrt(var_of_var[a] + var_of_var[b])
            assert total_var[b] <= total_var[a] + slack
