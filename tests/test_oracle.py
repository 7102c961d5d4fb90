"""The Gaussian oracle: sampling, optimal decisions, minimum error."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from claslab.base import sign_labels
from claslab.generative import fit_lda
from claslab.linear import LinearHypothesis
from claslab.oracle import (
    BayesClassifier,
    GaussianMixtureProblem,
    _crossings_1d,
    _draws,
    _log_joint_margin,
    bayes_error,
    equal_cov_problem,
    exact_form,
    problem_from_json,
    problem_to_json,
    sample,
    true_error,
)

SYMMETRIC = equal_cov_problem(0.5, [1.0], [-1.0])
PHI_MINUS_1 = float(ndtr(-1.0))


class _Constant:
    def __init__(self, label):
        self.label = label

    def predict(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.label)


class _Flipped:
    def __init__(self, inner):
        self.inner = inner

    def predict(self, X):
        return -self.inner.predict(X)


class _PredictOnly:
    """A model seen only through ``predict``, so true_error must sample."""

    def __init__(self, model):
        self.predict = model.predict


def random_problem(rng, d, prior):
    """Unequal random covariances A A' + 0.1 I and standard-normal means."""
    covs = [a @ a.T + 0.1 * np.eye(d) for a in rng.normal(size=(2, d, d))]
    return GaussianMixtureProblem(prior, rng.normal(size=d), rng.normal(size=d), *covs)


class TestProblemValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixtureProblem(
                0.5, [0.0, 0.0], [1.0, 1.0], [[1.0, 0.5], [0.0, 1.0]], np.eye(2)
            )

    def test_indefinite_cov_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            equal_cov_problem(0.5, [0.0], [1.0], [[-1.0]])

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError):
            equal_cov_problem(1.5, [0.0], [1.0])

    def test_json_roundtrip(self):
        prob = GaussianMixtureProblem(
            0.3, [1.0, 2.0], [-1.0, 0.0], [[2.0, 0.3], [0.3, 1.0]], np.eye(2)
        )
        again = problem_from_json(problem_to_json(prob))
        np.testing.assert_array_equal(again.cov_pos, prob.cov_pos)
        assert again.prior_pos == prob.prior_pos


class TestSample:
    def test_degenerate_prior_gives_one_class(self):
        ds = sample(equal_cov_problem(1.0, [0.0], [5.0]), 100, seed=0)
        assert ds.n_pos == 100

    def test_class_balance_concentrates(self):
        ds = sample(SYMMETRIC, 10_000, seed=1)
        assert abs(ds.n_pos / ds.n - 0.5) < 0.02  # 3 sigma ~ 0.015

    def test_class_means(self):
        prob = equal_cov_problem(0.5, [5.0], [-5.0])
        ds = sample(prob, 20_000, seed=2)
        pos_mean = ds.features[ds.labels == 1].mean()
        neg_mean = ds.features[ds.labels == -1].mean()
        assert abs(pos_mean - 5.0) < 0.1 and abs(neg_mean + 5.0) < 0.1

    def test_deterministic(self):
        assert sample(SYMMETRIC, 50, seed=9) == sample(SYMMETRIC, 50, seed=9)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sample(SYMMETRIC, 0, seed=0)

    @pytest.mark.parametrize("prior", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("block", [1, 2, 7, 4096, 5000])
    def test_blocks_concatenate_to_the_one_block_sample(self, prior, block):
        prob = GaussianMixtureProblem(
            prior, [1.0, 0.0, 2.0], [-1.0, 0.5, 0.0],
            [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]],
            [[1.2, 0.2, 0.2], [0.2, 1.2, 0.2], [0.2, 0.2, 1.2]],
        )
        ds = sample(prob, 5000, seed=11)
        feats, labels = (np.concatenate(a) for a in zip(*_draws(prob, 5000, 11, block)))
        np.testing.assert_array_equal(labels, ds.labels)
        if block == 1:
            # BLAS multiplies a lone row by another path, which may round it
            # differently in the last bit; no block of a multi-block draw made
            # with a larger block size is one row
            np.testing.assert_allclose(feats, ds.features, rtol=1e-15, atol=1e-15)
        else:
            np.testing.assert_array_equal(feats, ds.features)

    @pytest.mark.parametrize("seed", [3, 4, 7])
    def test_a_one_row_remainder_joins_the_block_before_it(self, seed):
        # with a 4096-row block these seeds put a last row of 4097 through the
        # one-row product, which rounded it differently from sample's
        prob = GaussianMixtureProblem(
            0.3, [1.0, 0.0, 2.0], [-1.0, 0.5, 0.0],
            [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]],
            [[1.2, 0.2, 0.2], [0.2, 1.2, 0.2], [0.2, 0.2, 1.2]],
        )
        ds = sample(prob, 4097, seed)
        blocks = list(_draws(prob, 4097, seed, 4096))
        assert [len(labels) for _, labels in blocks] == [4097]
        feats, labels = (np.concatenate(a) for a in zip(*blocks))
        np.testing.assert_array_equal(feats, ds.features)
        np.testing.assert_array_equal(labels, ds.labels)
        rule = BayesClassifier(prob)
        mistakes = np.count_nonzero(rule.predict(ds.features) != ds.labels)
        assert true_error(rule, prob, 4097, seed) == mistakes / 4097
        assert [len(l) for _, l in _draws(prob, 2 * 4096 + 1, seed, 4096)] == [4096, 4097]


class TestBayesClassify:
    def test_tie_goes_positive(self):
        assert BayesClassifier(SYMMETRIC).predict([0.0]) == 1

    def test_negative_side(self):
        assert BayesClassifier(SYMMETRIC).predict([-3.0]) == -1

    def test_strong_prior_wins_everywhere_near_means(self):
        prob = equal_cov_problem(0.999, [1.0], [-1.0])
        assert BayesClassifier(prob).predict([1.0]) == 1
        assert BayesClassifier(prob).predict([-1.0]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BayesClassifier(SYMMETRIC).predict([0.0, 1.0])

    def test_matches_scaled_manual_densities(self):
        # argmax is invariant to scaling both weighted densities by c > 0
        prob = GaussianMixtureProblem(
            0.3, [0.5], [-0.8], [[1.0]], [[4.0]]
        )
        xs = np.linspace(-6, 6, 201)
        got = BayesClassifier(prob).predict(xs[:, None])
        for c in (1e-7, 1.0, 3e5):
            fpos = c * 0.3 * norm.pdf(xs, 0.5, 1.0)
            fneg = c * 0.7 * norm.pdf(xs, -0.8, 2.0)
            manual = np.where(fneg > fpos, -1, 1)
            np.testing.assert_array_equal(got, manual)


class TestBayesError:
    def test_symmetric_closed_form(self):
        assert abs(bayes_error(SYMMETRIC, "closed_form_1d") - PHI_MINUS_1) < 1e-12

    def test_identical_classes_give_half(self):
        prob = equal_cov_problem(0.5, [0.0], [0.0])
        assert bayes_error(prob, "closed_form_1d") == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_prior_gives_zero(self):
        assert bayes_error(equal_cov_problem(1.0, [0.0], [3.0]), "closed_form_1d") == 0.0

    def test_closed_form_needs_1d(self):
        with pytest.raises(ValueError, match="d = 1"):
            bayes_error(equal_cov_problem(0.5, [0.0, 0.0], [1.0, 1.0]), "closed_form_1d")

    @pytest.mark.parametrize(
        "prior,mp,mn,vp,vn",
        [
            (0.5, 1.0, -1.0, 1.0, 1.0),
            (0.3, 0.5, -0.8, 1.0, 4.0),  # unequal priors and variances
            (0.7, 0.0, 0.5, 0.25, 2.25),
            (0.5, 2.0, -1.0, 9.0, 1.0),
        ],
    )
    def test_closed_form_matches_quadrature(self, prior, mp, mn, vp, vn):
        prob = GaussianMixtureProblem(prior, [mp], [mn], [[vp]], [[vn]])

        def diff(x):
            return prior * norm.pdf(x, mp, np.sqrt(vp)) - (1 - prior) * norm.pdf(
                x, mn, np.sqrt(vn)
            )

        def loser_density(x):
            return min(
                prior * norm.pdf(x, mp, np.sqrt(vp)),
                (1 - prior) * norm.pdf(x, mn, np.sqrt(vn)),
            )

        # locate the kinks of the min() independently, then integrate piecewise
        grid = np.linspace(-60, 60, 4001)
        vals = diff(grid)
        cuts = [
            brentq(diff, grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if vals[i] * vals[i + 1] < 0
        ]
        edges = [-60.0] + cuts + [60.0]
        expected = sum(
            quad(loser_density, lo, hi, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        assert bayes_error(prob, "closed_form_1d") == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("crossings", [0, 1, 2])
    def test_closed_form_equals_the_probing_reference(self, crossings):
        rng = np.random.default_rng(crossings)
        checked = 0
        while checked < 20:
            prior = rng.uniform(0.01, 0.99)
            mp, mn = rng.uniform(-3.0, 3.0, size=2)
            vp, vn = rng.uniform(0.1, 4.0, size=2)
            if crossings == 1:
                vn = vp
            prob = GaussianMixtureProblem(prior, [mp], [mn], [[vp]], [[vn]])
            if len(_crossings_1d(prob)) != crossings:
                continue
            got = bayes_error(prob, "closed_form_1d")
            assert abs(got - reference_bayes_error_1d(prob)) <= 1e-15
            checked += 1

    @pytest.mark.parametrize(
        "prob",
        [
            equal_cov_problem(0.0, [0.0], [1.0]),
            equal_cov_problem(1.0, [0.0], [1.0]),
            equal_cov_problem(0.5, [0.3], [0.3]),
            equal_cov_problem(0.2, [0.3], [0.3], [[2.0]]),
        ],
        ids=["prior_0", "prior_1", "identical", "identical_unequal_priors"],
    )
    def test_degenerate_cases_equal_the_probing_reference(self, prob):
        assert bayes_error(prob, "closed_form_1d") == reference_bayes_error_1d(prob)

    def test_exact_equals_the_closed_form_in_1d(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            prior = rng.uniform(0.01, 0.99)
            mp, mn = rng.uniform(-3.0, 3.0, size=2)
            prob = equal_cov_problem(prior, [mp], [mn], [[rng.uniform(0.1, 4.0)]])
            assert abs(bayes_error(prob, "exact") - bayes_error(prob)) <= 1e-12

    @pytest.mark.parametrize(
        "prob",
        [
            equal_cov_problem(0.0, [0.0], [1.0]),
            equal_cov_problem(1.0, [0.0], [1.0]),
            equal_cov_problem(0.5, [0.3], [0.3]),
            equal_cov_problem(0.2, [0.3], [0.3], [[2.0]]),
        ],
        ids=["prior_0", "prior_1", "identical", "identical_unequal_priors"],
    )
    def test_exact_equals_the_closed_form_in_degenerate_cases(self, prob):
        assert abs(bayes_error(prob, "exact") - bayes_error(prob)) <= 1e-12

    def test_exact_agrees_with_monte_carlo_in_4d(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        prob = equal_cov_problem(0.3, rng.normal(size=4), rng.normal(size=4), a @ a.T + np.eye(4))
        n_mc = 200_000
        eps = bayes_error(prob, "exact")
        mc = bayes_error(prob, "monte_carlo", n_mc=n_mc, seed=9)
        assert abs(mc - eps) < 4 * np.sqrt(eps * (1 - eps) / n_mc)

    def test_exact_needs_equal_covariances(self):
        prob = GaussianMixtureProblem(0.5, [1.0], [-1.0], [[1.0]], [[2.0]])
        with pytest.raises(ValueError, match="exact needs equal class covariances"):
            bayes_error(prob, "exact")

    def test_monte_carlo_agrees_with_closed_form(self):
        n_mc = 200_000
        eps = bayes_error(SYMMETRIC, "closed_form_1d")
        mc = bayes_error(SYMMETRIC, "monte_carlo", n_mc=n_mc, seed=5)
        assert abs(mc - eps) < 3 * np.sqrt(eps * (1 - eps) / n_mc)


def reference_bayes_error_1d(problem):
    """The probing version: pick each interval's losing class at one point."""
    pp, pn = problem.prior_pos, problem.prior_neg
    if pp == 0.0 or pn == 0.0:
        return 0.0
    mp, mn = problem.mean_pos[0], problem.mean_neg[0]
    sp = np.sqrt(problem.cov_pos[0, 0])
    sn = np.sqrt(problem.cov_neg[0, 0])
    edges = [-np.inf] + _crossings_1d(problem) + [np.inf]

    def weighted_logdiff(x):
        return float(_log_joint_margin(problem, np.array([[x]]))[0])

    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.isinf(lo) and np.isinf(hi):
            probe = 0.5 * (mp + mn)
        elif np.isinf(lo):
            probe = hi - max(1.0, abs(hi))
        elif np.isinf(hi):
            probe = lo + max(1.0, abs(lo))
        else:
            probe = 0.5 * (lo + hi)
        if weighted_logdiff(probe) >= 0.0:
            mean, std, prior = mn, sn, pn
        else:
            mean, std, prior = mp, sp, pp
        lo_t = -np.inf if np.isinf(lo) else (lo - mean) / std
        hi_t = np.inf if np.isinf(hi) else (hi - mean) / std
        total += prior * (ndtr(hi_t) - ndtr(lo_t))
    return float(total)


class TestTrueError:
    def test_bayes_on_own_problem(self):
        n_mc = 100_000
        eps = bayes_error(SYMMETRIC, "closed_form_1d")
        est = true_error(BayesClassifier(SYMMETRIC), SYMMETRIC, n_mc, seed=3)
        assert abs(est - eps) < 3 * np.sqrt(eps * (1 - eps) / n_mc)

    def test_constant_classifier_hits_half(self):
        est = true_error(_Constant(1), SYMMETRIC, 100_000, seed=4)
        assert est == pytest.approx(0.5, abs=0.01)

    def test_flipped_bayes_is_complement(self):
        eps = bayes_error(SYMMETRIC, "closed_form_1d")
        est = true_error(_Flipped(BayesClassifier(SYMMETRIC)), SYMMETRIC, 100_000, seed=6)
        assert est == pytest.approx(1 - eps, abs=0.01)

    def test_decision_function_sign_matches_classify(self):
        xs = np.linspace(-4, 4, 101)[:, None]
        clf = BayesClassifier(SYMMETRIC)
        np.testing.assert_array_equal(
            sign_labels(clf.decision_function(xs)), clf.predict(xs)
        )


class TestExactTrueError:
    def test_agrees_with_monte_carlo_of_the_predict_only_rule(self):
        rng = np.random.default_rng(20)
        n_mc = 20_000
        for i in range(200):
            d = int(rng.integers(1, 9))
            prior = [0.0, 1.0][i] if i < 2 else float(rng.uniform())
            prob = random_problem(rng, d, prior)
            rule = LinearHypothesis(rng.normal(size=d), float(rng.normal()))
            eps = true_error(rule, prob, n_mc)
            mc = true_error(_PredictOnly(rule), prob, n_mc, seed=i)
            assert abs(mc - eps) <= 4 * np.sqrt(eps * (1 - eps) / n_mc), (i, eps, mc)

    @pytest.mark.parametrize("bias, error", [(0.0, 0.7), (2.5, 0.7), (-1e-300, 0.3)])
    def test_a_zero_weight_rule_is_decided_by_its_bias(self, bias, error):
        prob = GaussianMixtureProblem(0.3, [1.0, 2.0], [-1.0, 0.0], np.eye(2), 2 * np.eye(2))
        assert true_error(LinearHypothesis([0.0, 0.0], bias), prob, 1) == error

    @pytest.mark.parametrize("prior", [0.0, 1.0])
    def test_a_class_with_prior_0_adds_nothing(self, prior):
        prob = GaussianMixtureProblem(prior, [1.0], [-1.0], [[4.0]], [[1.0]])
        rule = LinearHypothesis([1.0], 0.0)
        # the other class alone: its mean lies 1 / 2 or 1 / 1 sigma from the boundary
        expected = ndtr(-0.5) if prior == 1.0 else PHI_MINUS_1
        assert true_error(rule, prob, 1) == pytest.approx(expected, abs=1e-15)

    def test_huge_finite_weights_keep_their_error(self):
        prob = GaussianMixtureProblem(
            0.4, [1.0, 0.0], [-1.0, 0.5], np.eye(2), [[2.0, 0.3], [0.3, 1.0]]
        )
        small = true_error(LinearHypothesis([1.0, -2.0], 0.5), prob, 1)
        huge = true_error(LinearHypothesis([1e200, -2e200], 0.5e200), prob, 1)
        assert 0.0 < small < 1.0
        assert huge == pytest.approx(small, rel=1e-12)

    @pytest.mark.parametrize(
        "weight, bias", [([np.inf, 1.0], 0.25), ([np.nan, 1.0], 0.25), ([1.0, 1.0], np.nan)]
    )
    def test_a_non_finite_rule_is_sampled_like_its_predict(self, weight, bias):
        prob = equal_cov_problem(0.5, [1.0, 0.5], [-1.0, -0.5])
        rule = LinearHypothesis(weight, bias)
        assert exact_form(rule) is None
        sampled = true_error(_PredictOnly(rule), prob, 5000, seed=3)
        assert true_error(rule, prob, 5000, seed=3) == sampled

    def test_a_rule_of_another_width_is_rejected_as_predict_rejects_it(self):
        rule = fit_lda(sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 40, seed=2))
        problem = equal_cov_problem(0.5, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
        for model in (rule, _PredictOnly(rule)):
            with pytest.raises(ValueError, match="expected 2-dimensional inputs, got 3"):
                true_error(model, problem, 10)

    def test_only_decision_functions_have_a_form(self):
        ds = sample(SYMMETRIC, 40, seed=2)
        lda = fit_lda(ds)
        assert exact_form(_PredictOnly(lda)) is None
        assert exact_form(BayesClassifier(SYMMETRIC)) is None
        w, b = exact_form(lda)
        xs = np.linspace(-3.0, 3.0, 7)[:, None]
        np.testing.assert_allclose(xs @ w + b, lda.decision_function(xs), rtol=1e-13)
