"""Dataset construction, CSV ingestion, splitting, folding, bootstrapping."""

import numpy as np
import pytest

from claslab.data import (
    BootstrapSample,
    FoldAssignment,
    LabeledDataset,
    _holdout_rows,
    bootstrap_sample,
    child_seed,
    load_csv,
    make_folds,
    save_csv,
    split_holdout,
)
from claslab.exceptions import DataFormatError
from claslab.features import Standardize
from claslab.generative import LdaModel, ParzenModel
from claslab.kernels import DissimilarityMap, Kernel, KernelMachine
from claslab.linear import LinearHypothesis
from claslab.neural import OneHiddenLayerNet
from claslab.oracle import GaussianMixtureProblem


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLabeledDataset:
    def test_counts(self):
        ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [-1, 1, -1])
        assert (ds.n, ds.dim, ds.n_pos, ds.n_neg) == (3, 2, 1, 2)

    def test_label_domain_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset([[0.0]], [0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LabeledDataset([[np.inf]], [1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset([[0.0], [1.0]], [1])

    def test_immutable_after_construction(self):
        ds = LabeledDataset([[0.0]], [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_subset_takes_only_integer_indices(self):
        ds = LabeledDataset([[0.0], [1.0], [2.0]], [-1, 1, -1])
        for wrong in (np.array([True, False, True]), [0.9, 2.7], [[0, 1]]):
            with pytest.raises(ValueError, match="1-D array of integers"):
                ds.subset(wrong)
        with pytest.raises(ValueError, match="at least one row"):
            ds.subset([])
        for right in ([2, 0], np.array([2, 0], dtype=np.uint8), (-1, 0)):
            np.testing.assert_array_equal(ds.subset(right).features[:, 0], [2.0, 0.0])
        with pytest.raises(IndexError):
            ds.subset([3])


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path, "f1,f2,label\n0.5,1.5,-1\n2.5,3.5,1\n4.5,5.5,-1\n")
        ds = load_csv(path)
        assert (ds.n, ds.dim, ds.n_pos, ds.n_neg) == (3, 2, 1, 2)
        assert ds.feature_names == ("f1", "f2")
        np.testing.assert_array_equal(ds.labels, [-1, 1, -1])

    def test_plus_one_accepted(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,label\n1.0,+1\n2.0,-1\n"))
        np.testing.assert_array_equal(ds.labels, [1, -1])

    def test_label_zero_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="label"):
            load_csv(write(tmp_path, "x,label\n1.0,0\n"))

    def test_header_only_is_empty_dataset(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty dataset"):
            load_csv(write(tmp_path, "x,label\n"))

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="label"):
            load_csv(write(tmp_path, "a,b\n1,2\n"))

    def test_bad_cell_reports_position(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 3.*'x'"):
            load_csv(write(tmp_path, "x,label\n1.0,1\noops,-1\n"))

    @pytest.mark.parametrize("text, message", [
        ("x,label\n1.0,1\n2.0\n", "row 3 has 1 cells, expected 2"),
        ("x,label\n1.0,1,7\n", "row 2 has 3 cells, expected 2"),
        ("x,label\n1.0,1\ninf,-1\n", "row 3, column 'x': non-finite value"),
        ("label,y\n1,nan\n", "row 2, column 'y': non-finite value"),
        ("x,label\n-Infinity,1\n", "row 2, column 'x': non-finite value"),
        ("", "empty file"),
        ("\n\n", "empty file"),
        ("label\n1\n", "no feature columns"),
    ])
    def test_malformed_file_message(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_roundtrip(self, tmp_path):
        ds = LabeledDataset([[0.25, -1.75], [3.125, 9.5]], [1, -1], ("a", "b"))
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        assert load_csv(path) == ds


class TestSplitHoldout:
    def setup_method(self):
        self.ds = LabeledDataset(
            np.arange(20.0).reshape(10, 2), [1] * 5 + [-1] * 5
        )

    def test_sizes(self):
        train, test = split_holdout(self.ds, 0.2, seed=0)
        assert (train.n, test.n) == (8, 2)

    def test_stratified_balanced(self):
        _, test = split_holdout(self.ds, 0.2, stratified=True, seed=3)
        assert test.n_pos == 1 and test.n_neg == 1

    def test_deterministic(self):
        a = split_holdout(self.ds, 0.3, seed=7)
        b = split_holdout(self.ds, 0.3, seed=7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_disjoint_exhaustive(self):
        train, test = split_holdout(self.ds, 0.3, seed=1)
        rows = np.vstack([train.features, test.features])
        assert rows.shape[0] == self.ds.n
        # every original row appears exactly once
        original = {tuple(r) for r in self.ds.features}
        assert {tuple(r) for r in rows} == original

    def test_stratified_within_one_of_share(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n_pos = int(rng.integers(3, 15))
            n_neg = int(rng.integers(3, 15))
            frac = float(rng.uniform(0.15, 0.6))
            ds = LabeledDataset(
                rng.normal(size=(n_pos + n_neg, 2)), [1] * n_pos + [-1] * n_neg
            )
            try:
                _, test = split_holdout(ds, frac, stratified=True, seed=trial)
            except ValueError:
                continue
            assert abs(test.n_pos - n_pos * frac) < 1.0
            assert abs(test.n_neg - n_neg * frac) < 1.0

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            split_holdout(self.ds, 0.01, seed=0)

    def test_input_not_mutated(self):
        before = LabeledDataset(self.ds.features, self.ds.labels)
        split_holdout(self.ds, 0.3, seed=2)
        assert self.ds == before


def reference_holdout_rows(ds, test_fraction, stratified, seed):
    """The two-branch draw ``_holdout_rows`` had before it dealt from row
    groups in one loop, kept as the reference it must reproduce exactly."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = ds.n
    n_test = int(np.floor(n * test_fraction + 0.5))
    if n_test < 1 or n - n_test < 1:
        raise ValueError(
            f"test_fraction={test_fraction} leaves an empty side for N={n}"
        )
    rng = np.random.default_rng(seed)
    if stratified:
        quotas = np.array([ds.n_pos * test_fraction, ds.n_neg * test_fraction])
        base = np.floor(quotas).astype(int)
        order = np.argsort(-(quotas - base))
        for i in range(n_test - int(base.sum())):
            base[order[i % 2]] += 1
        test_idx = []
        for label, quota in ((1, base[0]), (-1, base[1])):
            members = np.flatnonzero(ds.labels == label)
            perm = rng.permutation(members.size)
            test_idx.append(members[perm[:quota]])
        test_idx = np.sort(np.concatenate(test_idx))
    else:
        perm = rng.permutation(n)
        test_idx = np.sort(perm[:n_test])
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    return np.flatnonzero(~mask), test_idx


def outcome(draw, *args):
    """A draw's (train, test) rows, or its error's type and message."""
    try:
        return draw(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_holdout_rows_equal_the_two_branch_draw():
    rng = np.random.default_rng(0)
    for case in range(240):
        n = int(rng.integers(1, 40))
        labels = rng.choice([-1, 1], size=n, p=[0.5, 0.5] if case % 4 else [0.9, 0.1])
        ds = LabeledDataset(np.zeros((n, 1)), labels)
        fraction = [0.0, 1.0, 0.5, 1e-3][case % 8] if case % 8 < 4 else float(rng.uniform())
        args = (ds, fraction, bool(case % 2), int(rng.integers(2**32)))
        got, want = outcome(_holdout_rows, *args), outcome(reference_holdout_rows, *args)
        if isinstance(want[0], type):
            assert got == want, case
        else:
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), case


class TestMakeFolds:
    def setup_method(self):
        self.ds = LabeledDataset(
            np.arange(10.0).reshape(10, 1), [1] * 6 + [-1] * 4
        )

    def test_equal_folds(self):
        folds = make_folds(self.ds, 5, seed=0)
        sizes = np.bincount(folds.fold_index)
        np.testing.assert_array_equal(sizes, [2] * 5)

    def test_k_equals_n_is_leave_one_out(self):
        folds = make_folds(self.ds, 10, seed=0)
        assert sorted(np.bincount(folds.fold_index)) == [1] * 10

    def test_uneven_sizes_differ_by_one(self):
        folds = make_folds(self.ds, 3, seed=1)
        assert sorted(np.bincount(folds.fold_index), reverse=True) == [4, 3, 3]

    def test_covers_each_index_once(self):
        folds = make_folds(self.ds, 4, seed=5)
        gathered = np.concatenate([folds.test_indices(f) for f in range(4)])
        np.testing.assert_array_equal(np.sort(gathered), np.arange(10))

    def test_stratified_class_balance(self):
        folds = make_folds(self.ds, 2, stratified=True, seed=2)
        for f in range(2):
            test = self.ds.subset(folds.test_indices(f))
            assert test.n_pos == 3 and test.n_neg == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            make_folds(self.ds, 1)
        with pytest.raises(ValueError):
            make_folds(self.ds, 11)

    def test_deterministic(self):
        a = make_folds(self.ds, 3, seed=9)
        b = make_folds(self.ds, 3, seed=9)
        np.testing.assert_array_equal(a.fold_index, b.fold_index)


class TestFoldAssignment:
    def test_k_is_checked_first(self):
        with pytest.raises(ValueError, match="k must be at least 2"):
            FoldAssignment([0, 5, -1], 1)

    @pytest.mark.parametrize("fold_index", [[0, 1, 2], [0, -1], [1, 0, 2, 1]])
    def test_an_index_outside_the_folds_names_the_range(self, fold_index):
        with pytest.raises(ValueError, match=r"fold indices must lie in \[0, 2\)"):
            FoldAssignment(fold_index, 2)

    def test_an_empty_fold(self):
        with pytest.raises(ValueError, match="every fold must be nonempty"):
            FoldAssignment([0, 0, 2], 3)


class TestBootstrap:
    def test_single_point(self):
        ds = LabeledDataset([[1.0]], [1])
        bs = bootstrap_sample(ds, seed=4)
        np.testing.assert_array_equal(bs.indices, [0])
        assert bs.out_of_bag.size == 0

    def test_invariants(self):
        ds = LabeledDataset(np.arange(30.0).reshape(30, 1), [1] * 30)
        bs = bootstrap_sample(ds, seed=11)
        assert bs.indices.shape == (30,)
        in_bag = set(bs.indices.tolist())
        oob = set(bs.out_of_bag.tolist())
        assert in_bag & oob == set()
        assert in_bag | oob == set(range(30))

    def test_out_of_bag_fraction_near_e_inverse(self):
        # P(index unseen) = (1 - 1/N)^N -> e^-1; Monte Carlo over seeds
        ds = LabeledDataset(np.zeros((1000, 1)), [1] * 1000)
        fractions = [
            bootstrap_sample(ds, seed=s).out_of_bag.size / 1000 for s in range(1000)
        ]
        assert 0.36 < np.mean(fractions) < 0.38

    def test_out_of_bag_is_the_set_difference(self):
        rng = np.random.default_rng(0)
        for n in [1, 1, 2, 3, *rng.integers(1, 300, size=40).tolist()]:
            idx = rng.integers(0, n, size=n)
            drawn = BootstrapSample(idx)
            want = np.setdiff1d(np.arange(n), idx)
            assert drawn.out_of_bag.dtype == want.dtype and np.array_equal(drawn.out_of_bag, want)
            assert np.array_equal(drawn.counts, np.bincount(idx, minlength=n))
            assert not drawn.counts.flags.writeable

    @pytest.mark.parametrize("indices", [[0, 5], [0, -1]])
    def test_an_index_outside_the_rows_names_the_range(self, indices):
        with pytest.raises(ValueError, match=r"bootstrap indices must lie in \[0, 2\)"):
            BootstrapSample(indices)

    def test_out_of_bag_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            BootstrapSample([0, 0], out_of_bag=[1])

    def test_deterministic(self):
        ds = LabeledDataset(np.arange(12.0).reshape(12, 1), [1] * 12)
        np.testing.assert_array_equal(
            bootstrap_sample(ds, seed=3).indices, bootstrap_sample(ds, seed=3).indices
        )


def test_child_seed_is_stable_and_distinct():
    assert child_seed(42, 1) == child_seed(42, 1)
    assert child_seed(42, 1) != child_seed(42, 2)
    assert child_seed(42, 1, 2) != child_seed(42, 2, 1)


@pytest.mark.parametrize("build, stored, caller", [
    (lambda a: LabeledDataset(a, [1]), "features", [[1.0, 0.0]]),
    (lambda a: LabeledDataset([[0.0]], a), "labels", [1]),
    (lambda a: GaussianMixtureProblem(0.5, a, [0.0], [[1.0]], [[1.0]]), "mean_pos", [1.0]),
    (lambda a: GaussianMixtureProblem(0.5, [0.0], a, [[1.0]], [[1.0]]), "mean_neg", [1.0]),
    (lambda a: GaussianMixtureProblem(0.5, [0.0], [0.0], a, [[1.0]]), "cov_pos", [[1.0]]),
    (lambda a: GaussianMixtureProblem(0.5, [0.0], [0.0], [[1.0]], a), "cov_neg", [[1.0]]),
    (lambda a: LinearHypothesis(a, 0.0), "weight", [1.0, 0.0]),
    (lambda a: FoldAssignment(a, 2), "fold_index", [1, 0]),
    (lambda a: BootstrapSample(a), "indices", [1, 0]),
    (lambda a: DissimilarityMap(a), "prototypes", [[1.0, 0.0]]),
    (lambda a: LdaModel(0.5, 0.5, a, [0.0], [[1.0]], 0.0, [1.0], 0.0), "mean_pos", [1.0]),
    (lambda a: LdaModel(0.5, 0.5, [0.0], a, [[1.0]], 0.0, [1.0], 0.0), "mean_neg", [1.0]),
    (lambda a: LdaModel(0.5, 0.5, [0.0], [0.0], a, 0.0, [1.0], 0.0), "pooled_cov", [[1.0]]),
    (lambda a: LdaModel(0.5, 0.5, [0.0], [0.0], [[1.0]], 0.0, a, 0.0), "weight", [1.0]),
    (lambda a: ParzenModel(1.0, a, [[0.0]], 0.5, 0.5), "points_pos", [[1.0]]),
    (lambda a: ParzenModel(1.0, [[0.0]], a, 0.5, 0.5), "points_neg", [[1.0]]),
    (lambda a: KernelMachine(a, 0.0, [[0.0]], Kernel("linear")), "coefficients", [1.0]),
    (lambda a: KernelMachine([1.0], 0.0, a, Kernel("linear")), "support_points", [[1.0]]),
    (lambda a: OneHiddenLayerNet(a, [0.0], [0.0], 0.0), "hidden_weights", [[1.0]]),
    (lambda a: OneHiddenLayerNet([[0.0]], a, [0.0], 0.0), "hidden_biases", [1.0]),
    (lambda a: OneHiddenLayerNet([[0.0]], [0.0], a, 0.0), "output_weights", [1.0]),
    (lambda a: Standardize(a, [1.0]), "mean", [1.0]),
    (lambda a: Standardize([0.0], a), "std", [1.0]),
    (lambda a: LinearHypothesis([1.0], 0.0, a, [1.0]), "shift", [1.0]),
    (lambda a: LinearHypothesis([1.0], 0.0, [0.0], a), "scale", [1.0]),
], ids=["features", "labels", "mean_pos", "mean_neg", "cov_pos", "cov_neg", "weight",
        "fold_index", "indices", "prototypes", "lda_mean_pos", "lda_mean_neg",
        "lda_pooled_cov", "lda_weight", "parzen_points_pos", "parzen_points_neg",
        "km_coefficients", "km_support_points", "net_hidden_weights", "net_hidden_biases",
        "net_output_weights", "standardize_mean", "standardize_std", "linear_shift",
        "linear_scale"])
def test_constructors_freeze_their_own_copy(build, stored, caller):
    caller = np.array(caller)
    frozen = getattr(build(caller), stored)
    assert not frozen.flags.writeable
    assert caller.flags.writeable
    caller[...] = 0
    assert frozen.flat[0] == 1
