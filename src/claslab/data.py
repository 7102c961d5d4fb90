"""Datasets with two-class labels, CSV and JSON ingestion, splits, folds, bootstraps.

A dataset is an immutable pair of an ``(N, d)`` feature matrix and a
length-``N`` label vector with entries in ``{-1, +1}``.  All resampling
helpers are pure functions of their inputs plus an integer seed, so any
two runs with the same seed produce identical partitions.  Every JSON file
is read by :func:`read_json`, and its fields checked by :func:`_get`.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import InitVar, dataclass

import numpy as np

from .base import freeze
from .exceptions import DataFormatError

LABEL_STRINGS = {"-1": -1, "1": 1, "+1": 1}
REQUIRED = object()  # schema default of a field the file must give
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", list: "list",
               dict: "object"}


def read_json(path):
    """The JSON value in a UTF-8 file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # a RuntimeError, yet the input is at fault
            raise ValueError(f"{path} is nested too deeply") from None


def _shown(value, width: int = 40) -> str:
    """``repr(value)``, cut to ``width`` characters with an ellipsis, for a one-line message."""
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def _typed(value, type_, what):
    """``value`` checked against a schema type; a float must be finite and accepts an integer."""
    if typing.get_origin(type_) is list:
        (item,) = typing.get_args(type_)
        return [_typed(v, item, f"each of {what}") for v in _typed(value, list, what)]
    if type_ is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{what} lies beyond the range of a float")
        return float(value)
    if type_ is float and isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be a finite JSON number, got {value!r}")
    if isinstance(value, type_) and not (type_ is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be a JSON {_JSON_TYPES[type_]}, got {_shown(value)}")


def _get(obj, key, type_, default=REQUIRED, what="config"):
    if key in obj:
        return _typed(obj[key], type_, f"{what} {key!r}")
    if default is REQUIRED:
        raise ValueError(f"{what} needs {key!r}")
    return default


def child_seed(seed: int, *path: int) -> int:
    """Derive a deterministic 64-bit sub-seed for a nested computation.

    ``child_seed(s, i)`` and ``child_seed(s, j)`` are independent streams
    for i != j, so parallel per-chunk work can reproduce a sequential run.
    """
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class LabeledDataset:
    """N points in R^d with labels in {-1, +1}.

    Feature and label arrays are copied and frozen at construction;
    instances are safe to share between threads.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None
    # set by ``subset``: the arrays are fresh copies of rows that passed
    # these checks, so they are frozen in place and their values not rechecked
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        feats = freeze(self, "features", copy=not _checked)
        labs = freeze(self, "labels", int, copy=not _checked)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError(
                f"feature rows ({feats.shape[0]}) != labels ({labs.shape[0]})"
            )
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one column")
        if not _checked and not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if not _checked and not np.all((labs == 1) | (labs == -1)):
            raise ValueError("labels must be -1 or +1")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != feats.shape[1]:
                raise ValueError("feature_names length does not match d")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n_neg(self) -> int:
        return int(np.sum(self.labels == -1))

    def subset(self, indices) -> "LabeledDataset":
        """Dataset restricted to the given row indices (order preserved).

        The child takes one indexed copy of the rows, which passed this
        dataset's checks.  Indices that are not integers (a boolean mask,
        floats) raise ``ValueError``; one outside [-N, N) raises ``IndexError``.
        """
        idx = np.asarray(indices)
        if idx.size == 0:  # [] reads as floats; the empty child fails its row check
            idx = idx.astype(int)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError("subset indices must be a 1-D array of integers")
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.feature_names, _checked=True
        )

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and self.feature_names == other.feature_names
        )

    def __hash__(self):
        return hash((self.features.tobytes(), self.labels.tobytes()))


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Partition of N indices into k folds whose sizes differ by at most 1."""

    fold_index: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        idx = freeze(self, "fold_index", int)
        if np.any((idx < 0) | (idx >= self.k)):
            raise ValueError(f"fold indices must lie in [0, {self.k})")
        counts = np.bincount(idx, minlength=self.k)
        if np.any(counts == 0):
            raise ValueError("every fold must be nonempty")
        if counts.max() - counts.min() > 1:
            raise ValueError("fold sizes may differ by at most 1")

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_index != fold)


@dataclass(frozen=True, eq=False)
class BootstrapSample:
    """N indices into N rows, drawn with replacement."""

    indices: np.ndarray

    def __post_init__(self):
        idx = freeze(self, "indices", int)
        if np.any((idx < 0) | (idx >= idx.size)):
            raise ValueError(f"bootstrap indices must lie in [0, {idx.size})")

    @property
    def out_of_bag(self) -> np.ndarray:
        """The sorted rows that no index draws."""
        return np.flatnonzero(np.bincount(self.indices, minlength=self.indices.size) == 0)


def load_csv(path) -> LabeledDataset:
    """Read a dataset from a headered, comma-separated UTF-8 file.

    Exactly one column must be named ``label`` and hold -1, 1 or +1; every
    other column is parsed as a decimal real.  Quoting and escaping are
    not supported.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header.count("label") != 1:
        raise DataFormatError(f"{path}: need exactly one 'label' column")
    label_col = header.index("label")
    names = tuple(c for i, c in enumerate(header) if i != label_col)
    if not names:
        raise DataFormatError(f"{path}: no feature columns")
    if len(lines) == 1:
        raise DataFormatError(f"{path}: empty dataset")

    rows, labels = [], []
    for r, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path}: row {r} has {len(cells)} cells, expected {len(header)}"
            )
        lab = cells[label_col]
        if lab not in LABEL_STRINGS:
            raise DataFormatError(
                f"{path}: row {r}: label {lab!r} is not -1, 1 or +1"
            )
        labels.append(LABEL_STRINGS[lab])
        feat = []
        for c, cell in enumerate(cells):
            if c == label_col:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {r}, column {header[c]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {r}, column {header[c]!r}: non-finite value"
                )
            feat.append(value)
        rows.append(feat)
    return LabeledDataset(np.array(rows), np.array(labels), names)


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset in the format accepted by :func:`load_csv`."""
    names = ds.feature_names or tuple(f"f{j}" for j in range(ds.dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + ",label\n")
        for row, lab in zip(ds.features.tolist(), ds.labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{lab}\n")


def _shuffled_groups(ds: LabeledDataset, stratified: bool, seed: int) -> list:
    """Each class's rows, or all rows, in the seed's random order: the one
    draw that holdout splits and folds deal from."""
    groups = [np.arange(ds.n)]
    if stratified:
        groups = [np.flatnonzero(ds.labels == lab) for lab in (1, -1)]
    rng = np.random.default_rng(seed)
    return [members[rng.permutation(members.size)] for members in groups]


def _class_test_quota(n_pos: int, n_neg: int, n_test: int, fraction: float):
    # Largest-remainder apportionment keeps each class within 1 of its
    # exact share n_c * fraction.
    quotas = np.array([n_pos * fraction, n_neg * fraction])
    base = np.floor(quotas).astype(int)
    short = n_test - int(base.sum())
    order = np.argsort(-(quotas - base))  # largest fractional part first
    for i in range(short):
        base[order[i % 2]] += 1
    return base  # (test_pos, test_neg)


def split_holdout(
    ds: LabeledDataset,
    test_fraction: float,
    stratified: bool = False,
    seed: int = 0,
):
    """Split into (train, test) with round(N * test_fraction) test points.

    Stratified mode keeps each class's test count within 1 of its exact
    proportional share.  The two index sets are disjoint and exhaustive.
    """
    train_idx, test_idx = _holdout_rows(ds, test_fraction, stratified, seed)
    return ds.subset(train_idx), ds.subset(test_idx)


def _holdout_rows(ds: LabeledDataset, test_fraction: float, stratified: bool, seed: int):
    """The sorted (train, test) row indices of :func:`split_holdout`."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = ds.n
    n_test = int(np.floor(n * test_fraction + 0.5))
    if n_test < 1 or n - n_test < 1:
        raise ValueError(
            f"test_fraction={test_fraction} leaves an empty side for N={n}"
        )
    quotas = [n_test]
    if stratified:
        quotas = _class_test_quota(ds.n_pos, ds.n_neg, n_test, test_fraction)
    groups = _shuffled_groups(ds, stratified, seed)
    test_idx = np.sort(np.concatenate([rows[:quota] for rows, quota in zip(groups, quotas)]))
    return np.flatnonzero(np.bincount(test_idx, minlength=n) == 0), test_idx


def make_folds(
    ds: LabeledDataset, k: int, stratified: bool = False, seed: int = 0
) -> FoldAssignment:
    """Assign each index to one of k folds; k = N gives leave-one-out.

    Indices are shuffled by the seed and dealt round-robin; in stratified
    mode the deal runs class by class with a shared counter, so per-fold
    class counts also differ by at most 1.
    """
    n = ds.n
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= N (got k={k}, N={n})")
    fold_index = np.empty(n, dtype=int)
    counter = 0
    for rows in _shuffled_groups(ds, stratified, seed):
        fold_index[rows] = (counter + np.arange(rows.size)) % k
        counter += rows.size
    return FoldAssignment(fold_index, k)


def bootstrap_sample(ds: LabeledDataset, seed: int = 0) -> BootstrapSample:
    """Draw N row indices with replacement."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, ds.n, size=ds.n)
    return BootstrapSample(indices)
