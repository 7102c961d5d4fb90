"""Error estimation: apparent, holdout, CV, bootstrap, and curves.

A *trainer* here is any callable mapping a LabeledDataset to a fitted
classifier (an object with ``predict``).  Every estimator is a
deterministic function of (trainer, data, seed); resampling seeds are
derived per fold/round so parallel and sequential runs agree.

The bootstrap family follows the pooled convention: the out-of-bag
error is total out-of-bag mistakes over all rounds divided by the total
out-of-bag count, not a mean of per-round rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, bootstrap_sample, child_seed, make_folds, split_holdout
from .exceptions import EstimationError
from .oracle import GaussianMixtureProblem, sample, true_error
from . import features as _features

@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    method: str
    std: float | None = None
    components: dict | None = None


@dataclass(frozen=True)
class Curve:
    """Mean/std error against an increasing abscissa (samples or features)."""

    kind: str  # "learning_true" | "learning_apparent" | "feature"
    points: tuple  # of (abscissa, mean_error, std_error, n_repeats)
    metadata: dict = field(default_factory=dict)


def error_std(eps: float, n_test: int) -> float:
    """Binomial std of an error estimate from n_test trials."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    return float(np.sqrt(eps * (1.0 - eps) / n_test))


def zero_one_error(classifier, ds: LabeledDataset) -> float:
    return float(np.mean(classifier.predict(ds.features) != ds.labels))


def apparent_error(classifier, ds: LabeledDataset) -> ErrorEstimate:
    """Resubstitution error: the classifier judged on its own training set."""
    value = zero_one_error(classifier, ds)
    return ErrorEstimate(value, "apparent", error_std(value, ds.n))


def holdout_error(
    trainer,
    ds: LabeledDataset,
    test_fraction: float,
    seed: int = 0,
    stratified: bool = False,
) -> ErrorEstimate:
    """Train on one split side, count mistakes on the held-out side."""
    train, test = split_holdout(ds, test_fraction, stratified, seed)
    value = zero_one_error(trainer(train), test)
    return ErrorEstimate(
        value, "holdout", error_std(value, test.n), {"n_test": test.n}
    )


def kfold_cv(
    trainer,
    ds: LabeledDataset,
    k: int,
    stratified: bool = False,
    seed: int = 0,
) -> ErrorEstimate:
    """Leave out each fold in turn; value = total mistakes / N."""
    folds = make_folds(ds, k, stratified, seed)
    mistakes = 0
    for fold in range(k):
        model = trainer(ds.subset(folds.train_indices(fold)))
        test = ds.subset(folds.test_indices(fold))
        mistakes += int(np.sum(model.predict(test.features) != test.labels))
    value = mistakes / ds.n
    return ErrorEstimate(value, "kfold", error_std(value, ds.n))


def loo_cv(trainer, ds: LabeledDataset) -> ErrorEstimate:
    """Leave-one-out: mean of N single-point test errors.

    Needs N >= 3 so every training complement keeps at least two
    points; a trainer that cannot fit some complement (e.g. it lost a
    whole class) aborts the estimate, naming the left-out index.
    """
    if ds.n < 3:
        raise EstimationError(
            "leave-one-out needs N >= 3 so complements stay trainable"
        )
    mistakes = 0
    for i in range(ds.n):
        rest = np.delete(np.arange(ds.n), i)
        try:
            model = trainer(ds.subset(rest))
        except Exception as exc:
            raise EstimationError(
                f"trainer failed on the complement of index {i}: {exc}"
            ) from exc
        mistakes += int(model.predict(ds.features[i : i + 1])[0] != ds.labels[i])
    value = mistakes / ds.n
    return ErrorEstimate(value, "loo", error_std(value, ds.n))


def bootstrap_corrected(
    trainer, ds: LabeledDataset, m_rounds: int, seed: int = 0
) -> ErrorEstimate:
    """Apparent error minus its bootstrap bias estimate, clamped to [0, 1].

    The bias is the mean over rounds of (error on the bootstrap sample
    itself) - (error on the full set), both for the round's classifier.
    """
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    full_model = trainer(ds)
    apparent = zero_one_error(full_model, ds)
    diffs = []
    for r in range(m_rounds):
        bs = bootstrap_sample(ds, child_seed(seed, r))
        boot_ds = ds.subset(bs.indices)
        model = trainer(boot_ds)
        eps_a = zero_one_error(model, boot_ds)
        eps_t = zero_one_error(model, ds)
        diffs.append(eps_a - eps_t)
    bias = float(np.mean(diffs))
    raw = apparent - bias
    value = min(1.0, max(0.0, raw))
    return ErrorEstimate(
        value,
        "bootstrap_corrected",
        error_std(value, ds.n),
        {"apparent": apparent, "bias": bias, "raw": raw},
    )


def e632_combine(apparent: float, out_of_bootstrap: float) -> float:
    return 0.368 * apparent + 0.632 * out_of_bootstrap


def e632(trainer, ds: LabeledDataset, m_rounds: int, seed: int = 0) -> ErrorEstimate:
    """The .632 estimator: 0.368 apparent + 0.632 pooled out-of-bag error."""
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    apparent = zero_one_error(trainer(ds), ds)
    oob_mistakes = 0
    oob_total = 0
    for r in range(m_rounds):
        bs = None
        for attempt in range(10):
            cand = bootstrap_sample(ds, child_seed(seed, r, attempt))
            if cand.out_of_bag.size > 0:
                bs = cand
                break
        if bs is None:
            raise EstimationError(
                f"bootstrap round {r} never produced an out-of-bag sample"
            )
        model = trainer(ds.subset(bs.indices))
        oob = ds.subset(bs.out_of_bag)
        oob_mistakes += int(np.sum(model.predict(oob.features) != oob.labels))
        oob_total += oob.n
    oob_error = oob_mistakes / oob_total
    value = e632_combine(apparent, oob_error)
    return ErrorEstimate(
        value,
        "e632",
        error_std(value, ds.n),
        {"apparent": apparent, "out_of_bootstrap": oob_error},
    )


def _sample_trainable(problem, n, seed, size_key, repeat):
    """Sample a training set, retrying (new derived seed) if one class is absent."""
    for attempt in range(10):
        ds = sample(problem, n, child_seed(seed, size_key, repeat, attempt))
        if 0 < ds.n_pos < ds.n:
            return ds
    raise EstimationError(
        f"10 samples of size {n} in a row contained a single class"
    )


def _aggregate(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std()), arr.size


def learning_curve(
    trainer,
    problem: GaussianMixtureProblem,
    sizes,
    repeats: int,
    n_test_mc: int,
    seed: int = 0,
    trainer_name: str = "",
):
    """True-error and apparent-error curves against training-set size.

    Per size and repeat a fresh training set is sampled, the trainer is
    fitted, and both the resubstitution error and a Monte-Carlo estimate
    of the true error are recorded.  Returns (true_curve, apparent_curve).
    """
    if not isinstance(problem, GaussianMixtureProblem):
        raise ValueError("a learning curve needs a problem to sample, not a dataset")
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    true_points, app_points = [], []
    for si, n in enumerate(sizes):
        true_vals, app_vals = [], []
        for rep in range(repeats):
            ds = _sample_trainable(problem, n, seed, si, rep)
            model = trainer(ds)
            app_vals.append(zero_one_error(model, ds))
            true_vals.append(
                true_error(model, problem, n_test_mc, child_seed(seed, si, rep, 999))
            )
        true_points.append((n, *_aggregate(true_vals)))
        app_points.append((n, *_aggregate(app_vals)))
    meta = {"trainer": trainer_name, "seed": seed, "estimate": "mc"}
    return (
        Curve("learning_true", tuple(true_points), meta),
        Curve("learning_apparent", tuple(app_points), dict(meta)),
    )


def _truncate_problem(problem, d):
    return GaussianMixtureProblem(
        problem.prior_pos,
        problem.mean_pos[:d],
        problem.mean_neg[:d],
        problem.cov_pos[:d, :d],
        problem.cov_neg[:d, :d],
    )


def _extend_problem(problem, d):
    extra = d - problem.dim
    mp = np.concatenate([problem.mean_pos, np.zeros(extra)])
    mn = np.concatenate([problem.mean_neg, np.zeros(extra)])

    def pad(cov):
        out = np.eye(d)
        out[: problem.dim, : problem.dim] = cov
        return out

    return GaussianMixtureProblem(
        problem.prior_pos, mp, mn, pad(problem.cov_pos), pad(problem.cov_neg)
    )


def adapt_problem_dim(problem: GaussianMixtureProblem, d: int) -> GaussianMixtureProblem:
    """Marginalize to the first d dims, or pad with unit-variance noise dims."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d == problem.dim:
        return problem
    if d < problem.dim:
        return _truncate_problem(problem, d)
    return _extend_problem(problem, d)


def feature_curve(
    trainer,
    source,
    dims,
    repeats: int,
    seed: int = 0,
    n_train: int = 100,
    n_test_mc: int = 20_000,
    folds: int = 5,
    trainer_name: str = "",
) -> Curve:
    """Error against feature count (informative dims first, then noise).

    With a known problem as source the error per repeat is Monte-Carlo
    true error of a model trained on a fresh sample (the problem itself
    is marginalized or padded to each dimensionality).  With a plain
    dataset the error is k-fold CV on the dataset with columns selected
    or noise columns appended; metadata records which route was used.
    """
    dims = list(dims)
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly increasing")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    oracle_mode = isinstance(source, GaussianMixtureProblem)
    points = []
    for di, d in enumerate(dims):
        vals = []
        if oracle_mode:
            prob_d = adapt_problem_dim(source, d)
            for rep in range(repeats):
                ds = _sample_trainable(prob_d, n_train, seed, di, rep)
                model = trainer(ds)
                vals.append(
                    true_error(model, prob_d, n_test_mc, child_seed(seed, di, rep, 999))
                )
        else:
            if d <= source.dim:
                ds_d = _features.Select(tuple(range(d))).apply(source)
            else:
                ds_d = _features.append_noise(
                    source, d - source.dim, child_seed(seed, di)
                )
            for rep in range(repeats):
                vals.append(
                    kfold_cv(
                        trainer, ds_d, folds, stratified=False,
                        seed=child_seed(seed, di, rep),
                    ).value
                )
        points.append((d, *_aggregate(vals)))
    meta = {
        "trainer": trainer_name,
        "seed": seed,
        "estimate": "mc" if oracle_mode else "cv",
    }
    return Curve("feature", tuple(points), meta)


def write_curves_csv(curves, path) -> None:
    """Write curves to CSV: metadata as '#' comments, then fixed columns."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = {}
        for curve in curves:
            meta.update(curve.metadata)
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write("kind,abscissa,mean_error,std_error,n_repeats\n")
        for curve in curves:
            for absc, mean, std, reps in curve.points:
                fh.write(f"{curve.kind},{absc},{mean!r},{std!r},{reps}\n")
