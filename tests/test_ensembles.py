"""Bagging, random subspaces, fixed combiners, AdaBoost."""

import numpy as np
import pytest

from claslab.data import LabeledDataset, bootstrap_sample, child_seed
from claslab.ensembles import (
    BoostModel,
    BoostRound,
    Ensemble,
    TreeConfig,
    adaboost,
    bagging,
    combine,
    random_subspace,
)
from claslab.oracle import equal_cov_problem, sample
from claslab.trees import fit_tree

FOUR = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
XOR = LabeledDataset([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [-1, -1, 1, 1])


def replay_boost_weights(model, ds):
    """Reconstruct the weight sequence from the public model fields."""
    weights = np.full(ds.n, 1.0 / ds.n)
    history = []
    for rd in model.rounds:
        pred = rd.stump.predict(ds.features)
        eps = float(weights[pred != ds.labels].sum())
        history.append((weights.copy(), eps, pred))
        weights = weights * np.exp(-rd.alpha * ds.labels * pred)
        weights = weights / weights.sum()
        history[-1] += (weights.copy(),)
    return history


class TestCombine:
    def test_majority(self):
        assert combine([1.0, 1.0, -1.0], "majority_vote") == 1

    def test_vote_tie_goes_positive(self):
        assert combine([1.0, -1.0], "majority_vote") == 1

    def test_mean_score(self):
        assert combine([0.9, -0.1, -0.2], "mean_score") == 1
        assert combine([-0.9, 0.1, 0.2], "mean_score") == -1

    def test_zero_mean_goes_positive(self):
        assert combine([0.5, -0.5], "mean_score") == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine([], "majority_vote")

    def test_matrix_form(self):
        scores = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(combine(scores, "majority_vote"), [1, -1])

    def test_unknown_combiner_rejected_by_combine_and_ensemble(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            combine([1.0, -1.0], "median")
        with pytest.raises(ValueError, match="unknown combiner"):
            Ensemble((fit_tree(FOUR, 1),), "median").predict(FOUR.features)

    def test_unknown_combiner_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            Ensemble((fit_tree(FOUR, 1),), "nope")


class TestBagging:
    def test_single_round_equals_one_bootstrap_tree(self):
        ens = bagging(FOUR, TreeConfig(2, 1), 1, seed=5)
        manual = fit_tree(FOUR.subset(bootstrap_sample(FOUR, child_seed(5, 0)).indices), 2, 1)
        grid = np.linspace(-1, 4, 21)[:, None]
        np.testing.assert_array_equal(ens.predict(grid), manual.predict(grid))

    def test_neighbouring_seeds_draw_disjoint_replicates(self, monkeypatch):
        drawn = []

        def recording(ds, seed):
            drawn.append(seed)
            return bootstrap_sample(ds, seed)

        monkeypatch.setattr("claslab.ensembles.bootstrap_sample", recording)
        bagging(FOUR, TreeConfig(2, 1), 5, seed=0)
        first = set(drawn)
        drawn.clear()
        bagging(FOUR, TreeConfig(2, 1), 5, seed=1)
        assert len(first) == 5 and first.isdisjoint(drawn)

    def test_unanimous_members(self):
        pure = LabeledDataset([[0.0], [1.0], [2.0]], [1, 1, 1])
        ens = bagging(pure, TreeConfig(2, 1), 5, seed=0)
        np.testing.assert_array_equal(ens.predict(np.array([[-3.0], [9.0]])), [1, 1])

    def test_identical_members_reproduce_member(self):
        tree = fit_tree(FOUR, 2, 1)
        ens = Ensemble((tree, tree, tree), "majority_vote")
        grid = np.linspace(-1, 4, 31)[:, None]
        np.testing.assert_array_equal(ens.predict(grid), tree.predict(grid))

    def test_bagging_reduces_prediction_variance(self):
        problem = equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0])
        grid = np.array(
            [[x, y] for x in np.linspace(-2, 2, 7) for y in np.linspace(-2, 2, 7)]
        )
        single_preds, bagged_preds = [], []
        for rep in range(50):
            ds = sample(problem, 50, seed=3000 + rep)
            single_preds.append(fit_tree(ds, 4, 1).predict(grid))
            bagged_preds.append(bagging(ds, TreeConfig(4, 1), 25, seed=rep).predict(grid))
        var_single = np.array(single_preds).var(axis=0).mean()
        var_bagged = np.array(bagged_preds).var(axis=0).mean()
        assert var_bagged <= var_single


class TestRandomSubspace:
    def test_full_subspace_is_plain_tree(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 40, seed=1)
        ens = random_subspace(ds, TreeConfig(3, 1), 4, subspace_dim=2, seed=2)
        tree = fit_tree(ds, 3, 1)
        grid = np.random.default_rng(0).normal(size=(30, 2))
        np.testing.assert_array_equal(ens.predict(grid), tree.predict(grid))

    def test_masks_reproducible(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 30, seed=3)
        a = random_subspace(ds, TreeConfig(2, 1), 2, 1, seed=9)
        b = random_subspace(ds, TreeConfig(2, 1), 2, 1, seed=9)
        assert a.member_feature_masks == b.member_feature_masks

    def test_informative_feature_beats_noise_feature(self):
        rng = np.random.default_rng(4)
        informative = np.where(np.arange(100) < 50, -2.0, 2.0) + rng.normal(
            scale=0.1, size=100
        )
        noise = rng.normal(size=100)
        ds = LabeledDataset(
            np.column_stack([informative, noise]), [-1] * 50 + [1] * 50
        )
        stump_good = fit_tree(LabeledDataset(ds.features[:, :1], ds.labels), 1, 1)
        stump_noise = fit_tree(LabeledDataset(ds.features[:, 1:], ds.labels), 1, 1)
        err_good = np.mean(stump_good.predict(ds.features[:, :1]) != ds.labels)
        err_noise = np.mean(stump_noise.predict(ds.features[:, 1:]) != ds.labels)
        assert err_good < err_noise

    def test_subspace_dim_bounds(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 20, seed=5)
        with pytest.raises(ValueError):
            random_subspace(ds, TreeConfig(2, 1), 2, 0, seed=0)
        with pytest.raises(ValueError):
            random_subspace(ds, TreeConfig(2, 1), 2, 3, seed=0)


class TestAdaboost:
    def test_separable_first_round_perfect(self):
        model = adaboost(FOUR, 5)
        assert len(model.rounds) == 1  # perfect stump: capped alpha, stop
        assert model.rounds[0].weighted_error == 0.0
        assert model.rounds[0].stump.root.threshold == 1.5
        np.testing.assert_array_equal(model.predict(FOUR.features), FOUR.labels)

    def test_xor_stump_is_useless_and_stops(self):
        model = adaboost(XOR, 10)
        assert len(model.rounds) == 1
        assert model.rounds[0].weighted_error == pytest.approx(0.5, abs=1e-12)
        assert model.rounds[0].alpha == pytest.approx(0.0, abs=1e-12)

    def test_initial_weights_uniform(self):
        ds = sample(equal_cov_problem(0.5, [0.6], [-0.6]), 20, seed=6)
        model = adaboost(ds, 3)
        history = replay_boost_weights(model, ds)
        np.testing.assert_allclose(history[0][0], np.full(20, 0.05))

    def test_update_fixed_point_and_weight_simplex(self):
        ds = sample(equal_cov_problem(0.5, [0.6, 0.0], [-0.6, 0.0]), 40, seed=7)
        model = adaboost(ds, 8)
        updated_rounds = 0
        for weights, eps, pred, new_weights in replay_boost_weights(model, ds):
            assert np.all(new_weights > 0)
            assert abs(new_weights.sum() - 1.0) <= 1e-12
            if 1e-10 < eps < 0.5 - 1e-10:
                post_eps = float(new_weights[pred != ds.labels].sum())
                assert abs(post_eps - 0.5) <= 1e-9
                updated_rounds += 1
        assert updated_rounds >= 2  # the check must actually bite

    def test_training_error_bound(self):
        ds = sample(equal_cov_problem(0.5, [0.6, 0.0], [-0.6, 0.0]), 40, seed=8)
        model = adaboost(ds, 10)
        err = np.mean(model.predict(ds.features) != ds.labels)
        bound = np.prod(
            [2 * np.sqrt(r.weighted_error * (1 - r.weighted_error)) for r in model.rounds]
        )
        assert err <= bound + 1e-12

    def test_training_error_monotone_on_xor_run(self):
        full = adaboost(XOR, 10)
        errors = []
        for t in range(1, len(full.rounds) + 1):
            partial = BoostModel(full.rounds[:t])
            errors.append(np.mean(partial.predict(XOR.features) != XOR.labels))
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_exponential_bound_shrinks_each_round(self):
        ds = sample(equal_cov_problem(0.5, [0.6, 0.0], [-0.6, 0.0]), 40, seed=9)
        full = adaboost(ds, 10)
        factors = [
            2 * np.sqrt(r.weighted_error * (1 - r.weighted_error)) for r in full.rounds
        ]
        bounds = np.cumprod(factors)
        assert np.all(np.diff(bounds) < 0)
        err = np.mean(full.predict(ds.features) != ds.labels)
        assert err <= bounds[-1] + 1e-12

    def test_single_round_score_is_stump(self):
        stump = fit_tree(FOUR, 1, 1)
        model = BoostModel((BoostRound(stump, 1.0, 0.1),))
        for x in (-1.0, 0.5, 2.0):
            assert model.decision_function([x]) in (-1.0, 1.0)
            assert model.decision_function([x]) == stump.predict(np.array([[x]]))[0]

    def test_all_zero_alphas_classify_positive(self):
        stump = fit_tree(FOUR, 1, 1)
        model = BoostModel((BoostRound(stump, 0.0, 0.5),))
        np.testing.assert_array_equal(model.predict(FOUR.features), [1, 1, 1, 1])

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            adaboost(FOUR, 0)
