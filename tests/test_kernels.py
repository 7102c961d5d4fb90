"""Kernels, the trick identity, kernel ridge, dissimilarity embeddings."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from claslab.data import LabeledDataset
from claslab.evaluation import Trainer
from claslab.exceptions import NumericError
from claslab.features import poly2_block
from claslab.kernels import (
    KERNEL_KINDS,
    DissimilarityMap,
    Kernel,
    dissim_embed,
    gram_matrix,
    kernel_eval,
    kernel_ridge_loo_scores,
    load_dissimilarity_csv,
    select_prototypes,
    train_kernel_machine,
)
from claslab.linear import train_least_squares
from claslab.oracle import equal_cov_problem, sample
from claslab.serialize import model_from_dict, model_to_dict

ALL_KERNELS = [
    Kernel("linear"),
    Kernel("poly2_homogeneous"),
    Kernel("poly2_inhomogeneous", c=1.3),
    Kernel("rbf", sigma=1.7),
]


class TestKernelEval:
    def test_poly2_hand_value(self):
        assert kernel_eval(Kernel("poly2_homogeneous"), [1.0, 2.0], [3.0, 4.0]) == 121.0

    def test_poly2_equals_explicit_expansion(self):
        z, x = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        assert float(poly2_block(z)[0] @ poly2_block(x)[0]) == pytest.approx(121.0, rel=1e-12)

    def test_rbf_at_self_is_one(self):
        k = Kernel("rbf", sigma=0.9)
        assert kernel_eval(k, [0.3, -0.4], [0.3, -0.4]) == 1.0

    def test_rbf_at_sigma_distance(self):
        k = Kernel("rbf", sigma=2.0)
        assert kernel_eval(k, [0.0], [2.0]) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_inhomogeneous_offset(self):
        k = Kernel("poly2_inhomogeneous", c=2.0)
        assert kernel_eval(k, [1.0], [1.0]) == (1.0 + 4.0) ** 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(Kernel("linear"), [1.0], [1.0, 2.0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_trick_identity_random_pairs(self, d):
        rng = np.random.default_rng(100 + d)
        kernel = Kernel("poly2_homogeneous")
        Z = rng.normal(size=(1000, d))
        X = rng.normal(size=(1000, d))
        lhs = np.sum(poly2_block(Z) * poly2_block(X), axis=1)
        rhs = np.array([kernel_eval(kernel, z, x) for z, x in zip(Z, X)])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for k in ALL_KERNELS:
            z, x = rng.normal(size=3), rng.normal(size=3)
            assert kernel_eval(k, z, x) == kernel_eval(k, x, z)


@pytest.mark.parametrize("kwargs", [
    {"kind": "rbf", "sigma": 1e200},
    {"kind": "rbf", "sigma": 1e-200},
    {"kind": "rbf", "sigma": float("inf")},
    {"kind": "poly2_inhomogeneous", "c": 1e200},
    {"kind": "poly2_inhomogeneous", "c": float("-inf")},
])
def test_width_or_offset_whose_square_is_not_finite_or_positive_rejected(kwargs):
    with pytest.raises(ValueError, match="square"):
        Kernel(**kwargs)
    # a model file goes through the same check when it is loaded; a value
    # that is not finite fails the file's type rule first
    km = train_kernel_machine(LabeledDataset([[0.0], [1.0]], [1, -1]), Kernel(kwargs["kind"]), 1.0)
    obj = model_to_dict(km)
    ((name, value),) = ((k, v) for k, v in kwargs.items() if k != "kind")
    obj["kernel"][name] = value
    message = "square" if np.isfinite(value) else f"'{name}' must be a finite JSON number"
    with pytest.raises(ValueError, match=message):
        model_from_dict(obj)


def test_a_width_or_offset_that_the_kernel_does_not_use_is_not_checked():
    assert Kernel("linear", c=1e200, sigma=1e-200).matrix([[1.0]], [[2.0]])[0, 0] == 2.0


def _reference_matrix(kernel, Z, X):
    """The kind ladder as it stood before KERNEL_KINDS was a table."""
    if kernel.kind == "linear":
        return Z @ X.T
    if kernel.kind == "poly2_homogeneous":
        return (Z @ X.T) ** 2
    if kernel.kind == "poly2_inhomogeneous":
        return (Z @ X.T + kernel.c**2) ** 2
    return np.exp(-cdist(Z, X, "sqeuclidean") / kernel.sigma**2)


@pytest.mark.parametrize("kind", list(KERNEL_KINDS))
def test_kind_table_matches_the_reference_ladder_bit_for_bit(kind):
    rng = np.random.default_rng(5)
    for _ in range(30):
        d, m, n = (int(k) for k in rng.integers(1, 7, size=3))
        kernel = Kernel(kind, c=float(rng.uniform(0.1, 3.0)), sigma=float(rng.uniform(0.1, 3.0)))
        Z, X = rng.normal(size=(m, d), scale=2.0), rng.normal(size=(n, d), scale=2.0)
        K, ref = kernel.matrix(Z, X), _reference_matrix(kernel, Z, X)
        assert K.dtype == ref.dtype and K.shape == ref.shape and K.tobytes() == ref.tobytes()
        ref = _reference_matrix(kernel, X, X)
        gram = gram_matrix(kernel, LabeledDataset(X, np.ones(n)))
        assert gram.tobytes() == (np.triu(ref) + np.triu(ref, 1).T).tobytes()


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="^unknown kernel 'nope'$"):
        Kernel("nope")


class TestGramMatrix:
    def test_orthonormal_linear_gram_is_identity(self):
        ds = LabeledDataset(np.eye(4), [1, -1, 1, -1])
        np.testing.assert_array_equal(gram_matrix(Kernel("linear"), ds), np.eye(4))

    def test_single_point(self):
        ds = LabeledDataset([[2.0, 1.0]], [1])
        K = gram_matrix(Kernel("linear"), ds)
        assert K.shape == (1, 1) and K[0, 0] == 5.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(rng.normal(size=(40, 3)), rng.choice([-1, 1], size=40))
        for k in ALL_KERNELS:
            K = gram_matrix(k, ds)
            assert np.max(np.abs(K - K.T)) == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        ds = LabeledDataset(rng.normal(size=(50, 4)), rng.choice([-1, 1], size=50))
        for k in ALL_KERNELS:
            eigs = np.linalg.eigvalsh(gram_matrix(k, ds))
            assert eigs.min() >= -1e-9, k.kind


class TestKernelMachine:
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("kind, features", [
        ("linear", lambda X: X),
        ("poly2_homogeneous", poly2_block),
    ], ids=["linear", "poly2_homogeneous"])
    def test_kernel_matches_primal_ridge(self, kind, features, lam):
        # the primal ridge fit on the kernel's explicit features is the same rule
        problem = equal_cov_problem(0.5, [1.0, 0.3], [-1.0, -0.3])
        ds = sample(problem, 60, seed=3)
        km = train_kernel_machine(ds, Kernel(kind), lam)
        primal = train_least_squares(LabeledDataset(features(ds.features), ds.labels), lam)
        queries = np.vstack([ds.features, sample(problem, 20, seed=4).features])
        np.testing.assert_allclose(
            km.decision_function(queries),
            primal.decision_function(features(queries)),
            atol=1e-8,
        )

    def test_tiny_rbf_interpolates(self):
        ds = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 40, seed=5)
        km = train_kernel_machine(ds, Kernel("rbf", sigma=1e-3), 1e-10)
        scores = km.decision_function(ds.features)
        np.testing.assert_allclose(scores, ds.labels, atol=1e-3)
        assert np.mean(km.predict(ds.features) != ds.labels) == 0.0

    def test_constant_labels_give_constant_scores(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [1, 1, 1])
        km = train_kernel_machine(ds, Kernel("rbf", sigma=1.0), 0.5)
        np.testing.assert_allclose(km.decision_function(ds.features), 1.0, atol=1e-9)

    def test_decision_from_stored_fields(self):
        from claslab.kernels import KernelMachine

        k = Kernel("linear")
        km = KernelMachine(np.zeros(3), 0.25, np.eye(3), k)
        assert km.decision_function([9.0, 9.0, 9.0]) == 0.25
        km_one = KernelMachine(np.array([1.0]), 0.0, np.array([[2.0, 0.0]]), k)
        assert km_one.decision_function([3.0, 7.0]) == 6.0

    def test_matches_gram_rows_on_training_queries(self):
        ds = sample(equal_cov_problem(0.5, [0.8, 0.0], [-0.8, 0.0]), 30, seed=6)
        kernel = Kernel("rbf", sigma=1.2)
        km = train_kernel_machine(ds, kernel, 0.3)
        K = gram_matrix(kernel, ds)
        np.testing.assert_allclose(
            km.decision_function(ds.features),
            K @ km.coefficients + km.bias,
            atol=1e-10,
        )

    def test_lambda_must_be_positive(self):
        ds = LabeledDataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError, match="lambda must be positive"):
            train_kernel_machine(ds, Kernel("linear"), 0.0)

    def test_non_finite_kernel_raises_numeric_error(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [1, -1, 1])
        kernel = Kernel("rbf", sigma=float("nan"))
        trainer = Trainer(
            lambda d: train_kernel_machine(d, kernel, 1.0),
            lambda d, model: kernel_ridge_loo_scores(d, model, 1.0),
        )
        with pytest.raises(NumericError):
            trainer(ds)
        assert trainer.loo_scores(ds) is None  # the refits raise it, naming a row


def brute_force_loo_scores(ds, kernel, lam):
    """Each row scored by a kernel ridge fit to all the other rows."""
    scores = []
    for i in range(ds.n):
        km = train_kernel_machine(ds.subset(np.delete(np.arange(ds.n), i)), kernel, lam)
        scores.append(km.decision_function(ds.features[i:i + 1])[0])
    return np.array(scores)


class TestLeaveOneOutShortcut:
    SIZES = [(5, 1), (8, 3), (13, 2), (21, 5), (34, 4), (60, 5)]  # (n, d)

    def test_matches_refits_on_every_complement(self):
        rng = np.random.default_rng(40)
        worst, ties = 0.0, 0
        for n, d in self.SIZES:
            ds = LabeledDataset(rng.normal(size=(n, d)), rng.choice([-1, 1], size=n))
            for kernel in ALL_KERNELS:
                for lam in (1e-3, 0.1, 1.0, 10.0):
                    shortcut = kernel_ridge_loo_scores(
                        ds, train_kernel_machine(ds, kernel, lam), lam
                    )
                    brute = brute_force_loo_scores(ds, kernel, lam)
                    worst = max(worst, np.max(np.abs(shortcut - brute) / (1 + np.abs(brute))))
                    decided = np.abs(brute) > 1e-9
                    ties += int(np.sum(~decided))
                    np.testing.assert_array_equal(
                        np.sign(shortcut[decided]), np.sign(brute[decided])
                    )
        print(f"largest relative gap {worst:.2e}, ties {ties}")
        assert worst < 1e-9
        assert ties == 0


class TestDissimilarity:
    def test_embedding_of_prototype_has_zero_coordinate(self):
        ds = LabeledDataset([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [1, -1, 1])
        dmap = select_prototypes(ds, 3, "random", seed=0)
        emb = dissim_embed(ds, dmap)
        # prototypes are dataset rows: each row hits one zero column
        proto_rows = {tuple(p) for p in dmap.prototypes}
        for i, row in enumerate(ds.features):
            if tuple(row) in proto_rows:
                assert emb.features[i].min() == 0.0

    def test_single_prototype_at_origin_gives_norms(self):
        ds = LabeledDataset([[3.0, 4.0], [0.0, 5.0]], [1, -1])
        emb = dissim_embed(ds, DissimilarityMap(np.zeros((1, 2))))
        np.testing.assert_allclose(emb.features[:, 0], [5.0, 5.0])

    def test_linear_classifier_on_embedding_realizes_weighted_form(self):
        ds = sample(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]), 40, seed=7)
        dmap = select_prototypes(ds, 5, "random", seed=1)
        emb = dissim_embed(ds, dmap)
        h = train_least_squares(emb, 0.5)
        # score(o) must equal sum_i a_i delta(p_i, o) + bias, by hand
        from scipy.spatial.distance import cdist

        deltas = cdist(ds.features, dmap.prototypes)
        np.testing.assert_allclose(
            h.decision_function(emb.features),
            deltas @ h.weight + h.bias,
            atol=1e-10,
        )

    def test_zero_diagonal_invariant(self):
        rng = np.random.default_rng(8)
        ds = LabeledDataset(rng.normal(size=(6, 2)), [1, -1, 1, -1, 1, -1])
        dmap = select_prototypes(ds, 6, "random", seed=2)
        emb = dissim_embed(LabeledDataset(dmap.prototypes, [1] * 6), dmap)
        np.testing.assert_array_equal(np.diag(emb.features), np.zeros(6))

    def test_negative_measure_rejected(self):
        ds = LabeledDataset([[0.0]], [1])
        dmap = DissimilarityMap(np.zeros((1, 1)), measure=lambda p, o: -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dissim_embed(ds, dmap)

    def test_custom_measure_used(self):
        ds = LabeledDataset([[2.0]], [1])
        dmap = DissimilarityMap(
            np.array([[5.0]]), measure=lambda p, o: abs(p[0] - o[0]) ** 2
        )
        assert dissim_embed(ds, dmap).features[0, 0] == 9.0


class TestSelectPrototypes:
    def setup_method(self):
        self.ds = LabeledDataset([[0.0], [1.0], [10.0]], [1, -1, 1])

    def test_all_points(self):
        dmap = select_prototypes(self.ds, 3, "random", seed=0)
        assert {tuple(p) for p in dmap.prototypes} == {(0.0,), (1.0,), (10.0,)}

    def test_farthest_first_collinear_picks_extremes(self):
        # reference = point closest to the mean (the middle one); the two
        # greedy rounds then take the far extreme, then the other extreme
        dmap = select_prototypes(self.ds, 2, "farthest_first", seed=0)
        assert {tuple(p) for p in dmap.prototypes} == {(0.0,), (10.0,)}

    def test_farthest_first_hand_trace_order(self):
        dmap = select_prototypes(self.ds, 3, "farthest_first", seed=0)
        np.testing.assert_allclose(dmap.prototypes[:, 0], [10.0, 0.0, 1.0])

    def test_random_deterministic(self):
        a = select_prototypes(self.ds, 2, "random", seed=5)
        b = select_prototypes(self.ds, 2, "random", seed=5)
        np.testing.assert_array_equal(a.prototypes, b.prototypes)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_prototypes(self.ds, 0, "random")
        with pytest.raises(ValueError):
            select_prototypes(self.ds, 4, "random")


def test_load_dissimilarity_csv(tmp_path):
    matrix = tmp_path / "delta.csv"
    labels = tmp_path / "labels.txt"
    matrix.write_text("0.0,1.5\n1.5,0.0\n2.5,3.5\n", encoding="utf-8")
    labels.write_text("+1\n-1\n1\n", encoding="utf-8")
    ds = load_dissimilarity_csv(matrix, labels)
    assert ds.n == 3 and ds.dim == 2
    np.testing.assert_array_equal(ds.labels, [1, -1, 1])
    np.testing.assert_allclose(ds.features[2], [2.5, 3.5])
