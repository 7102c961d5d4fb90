"""Kernels, kernel ridge machines, and the dissimilarity representation.

The kernel machine realizes the representer form
score(x) = sum_i a_i k(x_i, x) + a0 and is trained with squared loss
only (kernel ridge), so the fit is one solve of the bordered (LS-SVM)
system

    C [a; a0] = [y; 0],   C = [[K + lambda I, 1], [1^T, 0]]

whose last row, sum_i a_i = 0, makes a0 the unpenalized bias; for the
linear kernel this reproduces the primal ridge classifier exactly.
Leave-one-out scores are read from the inverse of the same C, with no
refit: f_-i(x_i) = y_i - a_i / (C^-1)_ii (Cawley & Talbot 2004).

The dissimilarity representation swaps inner products for an arbitrary
nonnegative measure against a prototype set: an object becomes the
vector of its dissimilarities to the prototypes, and any classifier can
then be trained on that vector.  The measure does not need to be a
kernel, a metric, or even symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .base import DecisionFunction, as_matrix, freeze, point_or_batch
from .data import LABEL_STRINGS, LabeledDataset
from .exceptions import NumericError


def _rbf(D, sigma2):  # exp(-D / sigma2) in D's own buffer: negate, divide, exponentiate
    return np.exp(np.divide(np.negative(D, out=D), sigma2, out=D), out=D)


# kind -> (matrix(kernel, Z, X), the width or offset check as (broken(kernel), what it
# needs), or None); a NaN breaks no check, so that its kernel fails the fit's finiteness check
KERNEL_KINDS = {
    "linear": (lambda k, Z, X: Z @ X.T, None),
    "poly2_homogeneous": (lambda k, Z, X: (Z @ X.T) ** 2, None),
    "poly2_inhomogeneous": (lambda k, Z, X: (Z @ X.T + k.c**2) ** 2,
                            (lambda k: k.c * k.c == np.inf, "c whose square is finite")),
    "rbf": (lambda k, Z, X: _rbf(cdist(Z, X, "sqeuclidean"), k.sigma**2), (
        lambda k: k.sigma <= 0 or k.sigma * k.sigma in (0.0, np.inf),
        "sigma > 0 whose square is positive and finite")),
}


@dataclass(frozen=True)
class Kernel:
    """A named positive-semidefinite similarity on R^d.

    linear                z . x
    poly2_homogeneous     (z . x)^2          -- all degree-2 monomials
    poly2_inhomogeneous   (z . x + c^2)^2    -- degree <= 2, offset c
    rbf                   exp(-||x - z||^2 / sigma^2)
    """

    kind: str
    c: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        check = KERNEL_KINDS[self.kind][1]
        if check and check[0](self):
            raise ValueError(f"{self.kind} kernel needs {check[1]}")

    def matrix(self, Z, X) -> np.ndarray:
        """Cross-kernel matrix with entries k(Z[i], X[j])."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if Z.shape[1] != X.shape[1]:
            raise ValueError("kernel arguments must have equal dimension")
        return KERNEL_KINDS[self.kind][0](self, Z, X)


def kernel_eval(kernel: Kernel, z, x) -> float:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(kernel.matrix(z[None, :], x[None, :])[0, 0])


def gram_matrix(kernel: Kernel, ds: LabeledDataset) -> np.ndarray:
    """N x N kernel matrix of the dataset, exactly symmetric."""
    K = kernel.matrix(ds.features, ds.features)
    upper = np.triu(K)
    return upper + np.triu(K, 1).T


@dataclass(frozen=True)
class KernelMachine(DecisionFunction):
    """Representer-form classifier over stored support points."""

    coefficients: np.ndarray
    bias: float
    support_points: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        freeze(self, "coefficients")
        freeze(self, "support_points")

    @property
    def dim(self) -> int:
        return self.support_points.shape[1]

    def decision_function(self, X):
        X = as_matrix(X, self.dim)
        return self.kernel.matrix(X, self.support_points) @ self.coefficients + self.bias


def _bordered(kernel: Kernel, ds: LabeledDataset, lam: float) -> np.ndarray:
    """The kernel ridge system of ``ds``: C = [[K + lam I, 1], [1^T, 0]]."""
    n = ds.n
    C = np.ones((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the fit's finiteness check reports it
        C[:n, :n] = gram_matrix(kernel, ds)
    C[np.arange(n), np.arange(n)] += lam
    C[n, n] = 0.0
    return C


def train_kernel_machine(
    ds: LabeledDataset, kernel: Kernel, lam: float
) -> KernelMachine:
    """Kernel ridge fit (squared loss, unpenalized bias); needs lam > 0."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    C = _bordered(kernel, ds, lam)
    try:
        solution = np.linalg.solve(C, np.append(ds.labels.astype(float), 0.0))
    except np.linalg.LinAlgError:
        raise NumericError("kernel ridge system could not be solved") from None
    if not np.all(np.isfinite(solution)):
        raise NumericError("kernel ridge solve produced non-finite coefficients")
    return KernelMachine(solution[:-1], float(solution[-1]), ds.features, kernel)


def kernel_ridge_loo_scores(ds: LabeledDataset, model: KernelMachine, lam: float):
    """Each row's score under the fit to all the other rows, from ``model``,
    the fit to all rows with ridge ``lam``; None when the system cannot be
    inverted or a score is not finite."""
    try:
        C_inv = np.linalg.inv(_bordered(model.kernel, ds, lam))
    except np.linalg.LinAlgError:
        return None
    y = ds.labels.astype(float)
    scores = y - (C_inv[:-1, :-1] @ y) / np.diag(C_inv)[:-1]
    return scores if np.all(np.isfinite(scores)) else None


def km_decision(km: KernelMachine, x):
    return point_or_batch(km.decision_function, x)


@dataclass(frozen=True)
class DissimilarityMap:
    """D prototypes plus a nonnegative measure delta(prototype, object)."""

    prototypes: np.ndarray
    measure: object = None  # None means built-in Euclidean distance

    def __post_init__(self):
        if freeze(self, "prototypes", ndmin=2).shape[0] < 1:
            raise ValueError("need at least one prototype")

    @property
    def n_prototypes(self) -> int:
        return self.prototypes.shape[0]


def dissim_embed(objects: LabeledDataset, dmap: DissimilarityMap) -> LabeledDataset:
    """Represent every object by its dissimilarities to the prototypes."""
    if dmap.measure is None:
        emb = cdist(objects.features, dmap.prototypes, "euclidean")
    else:
        emb = np.array(
            [
                [float(dmap.measure(p, o)) for p in dmap.prototypes]
                for o in objects.features
            ]
        )
    if not np.all(np.isfinite(emb)) or np.any(emb < 0):
        raise ValueError("dissimilarity measure must return finite nonnegative values")
    names = tuple(f"delta_p{i}" for i in range(dmap.n_prototypes))
    return LabeledDataset(emb, objects.labels, names)


def select_prototypes(
    ds: LabeledDataset, d_protos: int, strategy: str = "random", seed: int = 0
) -> DissimilarityMap:
    """Pick prototype rows from the dataset.

    ``random`` draws uniformly without replacement.  ``farthest_first``
    runs a greedy max-min-distance traversal whose starting reference is
    the point closest to the dataset mean (the reference itself is only
    selected if it wins a greedy round); argmax ties break toward the
    lower row index.
    """
    if not 1 <= d_protos <= ds.n:
        raise ValueError(f"d_protos must lie in [1, {ds.n}]")
    X = ds.features
    if strategy == "random":
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(ds.n, size=d_protos, replace=False))
    elif strategy == "farthest_first":
        center_dist = np.sqrt(np.sum((X - X.mean(axis=0)) ** 2, axis=1))
        start = int(np.argmin(center_dist))
        min_dist = np.sqrt(np.sum((X - X[start]) ** 2, axis=1))
        chosen = []
        available = np.ones(ds.n, dtype=bool)
        for _ in range(d_protos):
            masked = np.where(available, min_dist, -np.inf)
            pick = int(np.argmax(masked))  # argmax takes the first (lowest) index
            chosen.append(pick)
            available[pick] = False
            dist_new = np.sqrt(np.sum((X - X[pick]) ** 2, axis=1))
            min_dist = np.minimum(min_dist, dist_new)
        chosen = np.array(chosen)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return DissimilarityMap(X[chosen])


def load_dissimilarity_csv(matrix_path, labels_path) -> LabeledDataset:
    """Read an expert-provided dissimilarity matrix plus its labels.

    The matrix file is headerless CSV, rows = objects and columns =
    prototypes, entries nonnegative reals.  The labels file holds one
    label (-1, 1 or +1) per line, in object order.
    """
    matrix = np.loadtxt(matrix_path, delimiter=",", ndmin=2)
    with open(labels_path, encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    try:
        labels = [LABEL_STRINGS[r] for r in raw]
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not -1, 1 or +1") from None
    if np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
        raise ValueError("dissimilarity entries must be finite and nonnegative")
    names = tuple(f"delta_p{i}" for i in range(matrix.shape[1]))
    return LabeledDataset(matrix, np.array(labels), names)
