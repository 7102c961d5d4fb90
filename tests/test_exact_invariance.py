"""Each affine rule judged against its own transformed problem.

With exact true errors an equivariance is an equality to rounding: a
rule fitted on data mapped by x -> Mx + c and judged on the mapped
problem must make the same error as the unmapped fit on the unmapped
problem.  The rounding error of the mapped fit grows with the condition
number of M, so M is drawn with singular values in [e^-1.5, e^1.5].
"""

import numpy as np
import pytest

from claslab.data import LabeledDataset
from claslab.generative import fit_lda
from claslab.linear import train_least_squares
from claslab.oracle import GaussianMixtureProblem, exact_form, sample, true_error


def exact_error(model, problem):
    assert exact_form(model) is not None
    return true_error(model, problem, 1)


def random_cases(seed, count=100):
    """(problem, its sample, M, c) with d <= 6 and unequal covariances."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(1, 7))
        covs = [a @ a.T + 0.1 * np.eye(d) for a in rng.normal(size=(2, d, d))]
        prior = float(rng.uniform(0.1, 0.9))
        problem = GaussianMixtureProblem(prior, rng.normal(size=d), rng.normal(size=d), *covs)
        u, v = (np.linalg.qr(rng.normal(size=(d, d)))[0] for _ in range(2))
        M = u @ np.diag(np.exp(rng.uniform(-1.5, 1.5, size=d))) @ v.T
        yield problem, sample(problem, 60, seed=i), M, rng.normal(size=d)


def mapped(problem, ds, M, c):
    """The problem and the sample under x -> Mx + c."""

    def cov(S):
        out = M @ S @ M.T
        return (out + out.T) / 2.0

    image = GaussianMixtureProblem(
        problem.prior_pos, M @ problem.mean_pos + c, M @ problem.mean_neg + c,
        cov(problem.cov_pos), cov(problem.cov_neg),
    )
    return image, LabeledDataset(ds.features @ M.T + c, ds.labels)


@pytest.mark.parametrize("fit", [fit_lda, train_least_squares], ids=["lda", "least_squares"])
def test_affine_maps_keep_the_exact_error(fit):
    for problem, ds, M, c in random_cases(seed=0):
        image, image_ds = mapped(problem, ds, M, c)
        before, after = exact_error(fit(ds), problem), exact_error(fit(image_ds), image)
        assert abs(before - after) <= 1e-11


def test_swapping_the_classes_keeps_lda_exact_error():
    for problem, ds, *_ in random_cases(seed=1):
        swapped = GaussianMixtureProblem(
            problem.prior_neg, problem.mean_neg, problem.mean_pos,
            problem.cov_neg, problem.cov_pos,
        )
        flipped = LabeledDataset(ds.features, -ds.labels)
        before = exact_error(fit_lda(ds), problem)
        after = exact_error(fit_lda(flipped), swapped)
        assert abs(before - after) <= 1e-15
