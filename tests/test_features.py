"""Feature transforms, noise augmentation, forward selection, pipelines."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from claslab.data import LabeledDataset, child_seed
from claslab.features import (
    TRANSFORMS,
    AppendNoise,
    FeatureTransform,
    PipelineClassifier,
    Poly2Expand,
    Select,
    Standardize,
    append_noise,
    fit_transform_chain,
    forward_select,
    make_pipeline_trainer,
    parse_transform_spec,
    poly2_block,
    split_transform_spec,
)
from claslab.generative import fit_lda
from claslab.kernels import Kernel, kernel_eval
from claslab.linear import train_least_squares
from claslab.oracle import equal_cov_problem, sample
from claslab.serialize import load_model


class TestPoly2Expand:
    def test_hand_block(self):
        ds = LabeledDataset([[1.0, 2.0]], [1])
        out = Poly2Expand().apply(ds)
        np.testing.assert_allclose(out.features[0, :2], [1.0, 2.0])
        np.testing.assert_allclose(
            out.features[0, 2:], [1.0, 2.0 * np.sqrt(2.0), 4.0]
        )

    def test_output_dimension(self):
        for d in (1, 2, 3, 6):
            ds = LabeledDataset(np.ones((2, d)), [1, -1])
            assert Poly2Expand().apply(ds).dim == d + d * (d + 1) // 2

    def test_block_dot_equals_kernel(self):
        rng = np.random.default_rng(0)
        kernel = Kernel("poly2_homogeneous")
        for d in (2, 3, 5):
            Z = rng.normal(size=(200, d))
            X = rng.normal(size=(200, d))
            lhs = np.sum(poly2_block(Z) * poly2_block(X), axis=1)
            rhs = np.array([kernel_eval(kernel, z, x) for z, x in zip(Z, X)])
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.normal(3.0, 2.0, size=(50, 3)), rng.choice([-1, 1], 50))
        out = Standardize.fit(ds).apply(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_survives(self):
        ds = LabeledDataset([[1.0], [1.0]], [1, -1])
        out = Standardize.fit(ds).apply(ds)
        np.testing.assert_array_equal(out.features, [[0.0], [0.0]])

    def test_test_data_reuses_training_statistics(self):
        train = LabeledDataset([[0.0], [2.0]], [1, -1])  # mean 1, std 1
        t = Standardize.fit(train)
        fresh = np.array([[5.0]])
        np.testing.assert_allclose(t.map(fresh), [[4.0]])

    def test_a_standardize_first_pipeline_rejects_rows_of_the_wrong_width(self):
        # one column would broadcast across both stored columns and score
        model = load_model(Path(__file__).parent / "fixtures" / "models" / "pipeline.json")
        assert isinstance(model.transforms[0], Standardize)
        with pytest.raises(ValueError, match="expected 2-dimensional inputs, got 1"):
            model.decision_function(np.zeros((3, 1)))


class TestSelect:
    def test_keeps_requested_column(self):
        ds = LabeledDataset([[1.0, 2.0, 3.0]], [1])
        out = Select((0,)).apply(ds)
        assert out.dim == 1 and out.features[0, 0] == 1.0

    def test_out_of_range_rejected(self):
        ds = LabeledDataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            Select((2,)).apply(ds)


class TestAppendNoise:
    def test_dimensions(self):
        ds = LabeledDataset(np.zeros((3, 2)), [1, -1, 1])
        assert append_noise(ds, 5, seed=0).dim == 7

    def test_noise_uncorrelated_with_labels(self):
        problem = equal_cov_problem(0.5, [1.0], [-1.0])
        ds = append_noise(sample(problem, 10_000, seed=2), 3, seed=3)
        for j in range(1, 4):
            r = np.corrcoef(ds.features[:, j], ds.labels)[0, 1]
            assert abs(r) <= 0.05

    def test_deterministic(self):
        ds = LabeledDataset(np.zeros((4, 1)), [1, -1, 1, -1])
        a = append_noise(ds, 2, seed=9)
        b = append_noise(ds, 2, seed=9)
        assert a == b

    def test_labels_preserved_by_every_transform(self):
        rng = np.random.default_rng(4)
        ds = LabeledDataset(rng.normal(size=(10, 3)), rng.choice([-1, 1], 10))
        for t in (
            Poly2Expand(),
            Standardize.fit(ds),
            AppendNoise(2, seed=1),
            Select((0, 2)),
        ):
            out = t.apply(ds)
            np.testing.assert_array_equal(out.labels, ds.labels)
            assert out.n == ds.n


class TestForwardSelect:
    def test_informative_feature_found_first(self):
        problem = equal_cov_problem(0.5, [1.5], [-1.5])
        hits = 0
        for seed in range(20):
            ds = append_noise(sample(problem, 400, seed=100 + seed), 3, seed=seed)
            traj = forward_select(ds, fit_lda, max_features=1, folds=5, seed=seed)
            hits += traj[0][0] == 0
        assert hits >= 18

    def test_full_trajectory_is_permutation(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.3, 0.0], [-1.0, -0.3, 0.0]), 60, seed=5)
        traj = forward_select(ds, fit_lda, max_features=3, folds=3, seed=0)
        assert sorted(j for j, _ in traj) == [0, 1, 2]

    def test_duplicate_column_tie_takes_lower_index(self):
        problem = equal_cov_problem(0.5, [1.5], [-1.5])
        base = sample(problem, 120, seed=6)
        col = base.features[:, 0]
        rng = np.random.default_rng(7)
        feats = np.column_stack([col, rng.normal(size=120), rng.normal(size=120), col])
        ds = LabeledDataset(feats, base.labels)
        traj = forward_select(ds, fit_lda, max_features=1, folds=4, seed=1)
        assert traj[0][0] == 0

    def test_step_one_argmin_invariant_to_feature_order(self):
        ds = sample(
            equal_cov_problem(0.5, [1.2, 0.1, 0.0], [-1.2, -0.1, 0.0]), 100, seed=8
        )
        swapped = LabeledDataset(ds.features[:, [2, 1, 0]], ds.labels)
        first = forward_select(ds, fit_lda, 1, folds=4, seed=3)[0][0]
        first_swapped = forward_select(swapped, fit_lda, 1, folds=4, seed=3)[0][0]
        assert {first, first_swapped} == {0, 2}  # same column under the swap

    def test_bad_args(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 20, seed=9)
        with pytest.raises(ValueError):
            forward_select(ds, fit_lda, 0)
        with pytest.raises(ValueError):
            forward_select(ds, fit_lda, 1, folds=1)


class TestTransformSpecs:
    def test_parse_chain(self):
        chain = parse_transform_spec("noise:3+standardize+poly2+select:0,1", seed=5)
        assert isinstance(chain[0], AppendNoise) and chain[0].count == 3
        assert chain[1] is Standardize
        assert isinstance(chain[2], Poly2Expand)
        assert chain[3] == Select((0, 1))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown transform"):
            parse_transform_spec("pca")

    def test_split_noise_prefix(self):
        assert split_transform_spec("noise:2+standardize", seed=4) == (
            [AppendNoise(2, child_seed(4, 0))], [Standardize]
        )
        assert split_transform_spec("poly2") == ([], [Poly2Expand()])
        with pytest.raises(ValueError, match="before"):
            split_transform_spec("standardize+noise:2")

    @pytest.mark.parametrize(
        "spec", ["noise:2", "noise:2+standardize", "noise:1+noise:3+poly2+select:0,1", "poly2"]
    )
    def test_split_steps_match_a_parse_of_their_own_part(self, spec):
        # the noise prefix keeps the seeds it has in the whole chain, and the
        # pointwise steps read no seed, so a pipeline needs none
        prefix = "+".join(part for part in spec.split("+") if part.startswith("noise:"))
        for seed in (0, 7):
            noise, pointwise = split_transform_spec(spec, seed)
            assert noise == parse_transform_spec(prefix, seed)
            assert pointwise == split_transform_spec(spec, seed + 1)[1]

    def test_per_dataset_flag_alone_decides_the_split(self, monkeypatch):
        @dataclass(frozen=True)
        class Jitter(FeatureTransform):
            seed: int
            per_dataset = True

        monkeypatch.setitem(TRANSFORMS, "jitter", lambda arg, seed: Jitter(seed))
        assert split_transform_spec("jitter+noise:1+poly2", seed=3) == (
            [Jitter(child_seed(3, 0)), AppendNoise(1, child_seed(3, 1))], [Poly2Expand()]
        )
        with pytest.raises(ValueError, match="before"):
            split_transform_spec("poly2+jitter")
        with pytest.raises(ValueError, match="pipeline"):
            make_pipeline_trainer([Jitter(0)], fit_lda)

    def test_fit_transform_chain_fits_standardize(self):
        ds = LabeledDataset([[0.0], [2.0]], [1, -1])
        fitted, mapped = fit_transform_chain(parse_transform_spec("standardize"), ds)
        assert isinstance(fitted[0], Standardize)
        np.testing.assert_allclose(mapped.features[:, 0], [-1.0, 1.0])


class TestPipeline:
    def test_pipeline_trainer_fits_on_training_data_only(self):
        problem = equal_cov_problem(0.5, [3.0], [-3.0])
        train = sample(problem, 100, seed=10)
        trainer = make_pipeline_trainer(
            parse_transform_spec("standardize"), lambda d: train_least_squares(d, 0.1)
        )
        model = trainer(train)
        assert isinstance(model, PipelineClassifier)
        standardize = model.transforms[0]
        np.testing.assert_allclose(standardize.mean, train.features.mean(axis=0))
        test = sample(problem, 200, seed=11)
        assert np.mean(model.predict(test.features) != test.labels) < 0.1

    def test_standardize_pipelines_pull_their_model_form_back(self):
        problem = equal_cov_problem(0.4, [3.0, 1.0, 0.0], [-3.0, 0.0, 2.0])
        train, test = sample(problem, 100, seed=10), sample(problem, 50, seed=11)
        for spec, fit in [("standardize", fit_lda), ("standardize+standardize", fit_lda),
                          ("standardize", train_least_squares)]:
            model = make_pipeline_trainer(parse_transform_spec(spec), fit)(train)
            w, b = model.affine_form()
            np.testing.assert_allclose(
                test.features @ w + b, model.decision_function(test.features),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("spec", ["select:0,1", "poly2", "standardize+poly2"])
    def test_other_steps_have_no_form(self, spec):
        train = sample(equal_cov_problem(0.5, [1.0, 0.5], [-1.0, 0.0]), 60, seed=12)
        model = make_pipeline_trainer(parse_transform_spec(spec), fit_lda)(train)
        assert model.affine_form() is None

    def test_pipeline_rejects_noise(self):
        with pytest.raises(ValueError, match="noise"):
            make_pipeline_trainer(parse_transform_spec("noise:2"), fit_lda)

    def test_poly2_pipeline_learns_quadratic_boundary(self):
        # ring-shaped classes: inner -1, outer +1; linear fails, poly2 works
        rng = np.random.default_rng(12)
        angles = rng.uniform(0, 2 * np.pi, 160)
        radii = np.concatenate([np.full(80, 0.5), np.full(80, 2.0)])
        radii = radii + rng.normal(scale=0.05, size=160)
        X = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        ds = LabeledDataset(X, [-1] * 80 + [1] * 80)
        trainer = make_pipeline_trainer(
            parse_transform_spec("poly2"), lambda d: train_least_squares(d, 1e-6)
        )
        model = trainer(ds)
        assert np.mean(model.predict(ds.features) != ds.labels) == 0.0
