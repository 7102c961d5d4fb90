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

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import base
from .base import sign_labels
from .data import (
    FoldAssignment, LabeledDataset, _holdout_rows, bootstrap_sample, child_seed, make_folds,
)
from .exceptions import EstimationError
from .oracle import GaussianMixtureProblem, exact_form, sample, true_error
from . import features as _features


@dataclass(frozen=True)
class Trainer:
    """A trainer whose refits some estimators can do without.

    ``fit(ds)`` returns the model.  Two optional shortcuts stand for refits,
    each returning None to decline, and the estimator then refits:

    * ``closed_form(ds, model)`` turns the fit to all rows into the score of
      each row under the fit to all the other rows (leave-one-out);
    * ``round_scores(X, y, C)`` gives, for each row r of the (R, n) count
      matrix ``C``, every row's score under the fit to all n rows, row i
      weighted by ``C[r, i]``: the rows of a bootstrap round drawn with
      repeats.  ``X`` is the (n, d) features, or an (R, n, d) stack of them
      after a step fitted per round, and ``y`` the labels.  It declines
      wherever a round's refit might fail or fit something else.
    """

    fit: Callable
    closed_form: Callable | None = None
    round_scores: Callable | None = None

    def __call__(self, ds: LabeledDataset):
        return self.fit(ds)

    def loo_scores(self, ds: LabeledDataset):
        """The closed form of the fit to all rows; None, without a fit, when
        there is no closed form, and None when that fit fails, so the
        refits raise its error themselves, naming the held-out row."""
        if self.closed_form is None:
            return None
        try:
            model = self.fit(ds)
        except (ValueError, RuntimeError):
            return None
        return self.closed_form(ds, model)


@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    method: str
    std: float
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
    train, test = _holdout_rows(ds, test_fraction, stratified, seed)
    value = int(np.sum(_mistakes(trainer, ds, train, test))) / test.size
    return ErrorEstimate(
        value, "holdout", error_std(value, test.size), {"n_test": test.size}
    )


def _mistakes(trainer, ds: LabeledDataset, train, test) -> np.ndarray:
    """Refit on the train rows; the mistake mask of the test rows.

    The rows are index arrays into ``ds``, or ``slice(None)`` for every
    row; each estimator reduces the masks.  This is the one place an
    estimator refits.  A fit that fails on its rows (any ``RuntimeError``,
    such as a ``FitError`` or a ``RecursionError``) aborts the estimate
    with an ``EstimationError`` naming the held-out rows; a ``ValueError``
    -- a bad parameter -- passes through unchanged.
    """
    try:
        model = trainer(ds.subset(train))
    except RuntimeError as exc:
        held_out = ", ".join(map(str, np.setdiff1d(np.arange(ds.n), train)))
        raise EstimationError(
            f"trainer failed with held-out rows (index {held_out}): {exc}"
        ) from exc
    return model.predict(ds.features[test]) != ds.labels[test]


def _cross_validate(trainer, ds: LabeledDataset, folds, method: str) -> ErrorEstimate:
    splits = ((folds.train_indices(f), folds.test_indices(f)) for f in range(folds.k))
    value = sum(int(np.sum(_mistakes(trainer, ds, *split))) for split in splits) / ds.n
    return ErrorEstimate(value, method, error_std(value, ds.n))


def kfold_cv(
    trainer, ds: LabeledDataset, k: int, stratified: bool = False, seed: int = 0
) -> ErrorEstimate:
    """Leave out each fold in turn; value = total mistakes / N."""
    return _cross_validate(trainer, ds, make_folds(ds, k, stratified, seed), "kfold")


def loo_cv(trainer, ds: LabeledDataset) -> ErrorEstimate:
    """Leave-one-out: k-fold with k = N, leaving the indices out in order.

    Needs N >= 3 so every training complement keeps at least two
    points; a trainer that cannot fit some complement (e.g. it lost a
    whole class) aborts the estimate, naming the left-out index.  A
    :class:`Trainer` fits all rows once and gives every row's left-out
    score in closed form, and nothing is refitted; where it declines
    (returns None), the refits run, so any error is theirs and names the
    row.
    """
    if ds.n < 3:
        raise EstimationError("leave-one-out needs N >= 3 so complements stay trainable")
    scores = trainer.loo_scores(ds) if isinstance(trainer, Trainer) else None
    if scores is None:
        return _cross_validate(trainer, ds, FoldAssignment(np.arange(ds.n), ds.n), "loo")
    value = int(np.sum(sign_labels(scores) != ds.labels)) / ds.n
    return ErrorEstimate(value, "loo", error_std(value, ds.n))


def _retry(draw, ok, what: str):
    """The first of ten draws ``draw(attempt)`` that passes ``ok``."""
    for attempt in range(10):
        result = draw(attempt)
        if ok(result):
            return result
    raise EstimationError(f"10 draws in a row gave {what}")


def _chunks(items, width: int):
    """Lists of the next ``width`` items.  When drawing an item raises, the
    items drawn before it come first, so the work on them runs, and fails,
    before that error, as it would have one item at a time."""
    chunk = []
    try:
        for item in items:
            chunk.append(item)
            if len(chunk) == width:
                yield chunk
                chunk = []
    except EstimationError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _bootstrap_rounds(trainer, ds: LabeledDataset, samples, test):
    """Each bootstrap round with the mistake mask, on the rows ``test(sample)``,
    of the fit to its rows: pairs (sample, mask), in the order of ``samples``.

    A :class:`Trainer` with ``round_scores`` scores the rounds a chunk at a
    time from their count matrix, in at most ``base._BLOCK`` (round, row)
    cells, so memory does not grow with the round count.  A chunk it
    declines, and every round of any other trainer, is refitted, round by
    round, through :func:`_mistakes`.
    """
    scorer = trainer.round_scores if isinstance(trainer, Trainer) else None
    for chunk in _chunks(samples, max(1, base._BLOCK // ds.n)):
        scores = None
        if scorer is not None:
            counts = np.stack([s.counts for s in chunk])
            scores = scorer(ds.features, ds.labels, counts.astype(float))
        for r, s in enumerate(chunk):
            rows = test(s)
            if scores is None:
                yield s, _mistakes(trainer, ds, s.indices, rows)
            else:
                yield s, sign_labels(scores[r, rows]) != ds.labels[rows]


def bootstrap_corrected(
    trainer, ds: LabeledDataset, m_rounds: int, seed: int = 0
) -> ErrorEstimate:
    """Apparent error minus its bootstrap bias estimate, clamped to [0, 1].

    The bias is the mean over rounds of (error on the bootstrap sample
    itself) - (error on the full set), both for the round's classifier.
    Round r draws from ``child_seed(seed, r)``.  A :class:`Trainer` with
    ``round_scores`` scores the rounds as weighted fits, fitting only the
    apparent one; any other trainer is refitted on every round.
    """
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    apparent = zero_one_error(trainer(ds), ds)
    samples = (bootstrap_sample(ds, child_seed(seed, r)) for r in range(m_rounds))
    diffs = [
        int(np.sum(mask[s.indices])) / ds.n - int(np.sum(mask)) / ds.n
        for s, mask in _bootstrap_rounds(trainer, ds, samples, lambda s: slice(None))
    ]
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
    """The .632 estimator: 0.368 apparent + 0.632 pooled out-of-bag error.

    Round r draws from ``child_seed(seed, r, attempt)``, the first of ten
    attempts that leaves a row out of the bag.  A :class:`Trainer` with
    ``round_scores`` scores the rounds as weighted fits, fitting only the
    apparent one; any other trainer is refitted on every round.
    """
    if m_rounds < 1:
        raise ValueError("m_rounds must be at least 1")
    apparent = zero_one_error(trainer(ds), ds)
    samples = (
        _retry(
            lambda attempt: bootstrap_sample(ds, child_seed(seed, r, attempt)),
            lambda drawn: drawn.out_of_bag.size > 0,
            f"no out-of-bag row in bootstrap round {r}",
        )
        for r in range(m_rounds)
    )
    mistakes = tested = 0
    for _, mask in _bootstrap_rounds(trainer, ds, samples, lambda s: s.out_of_bag):
        mistakes += int(np.sum(mask))
        tested += mask.size
    oob_error = mistakes / tested
    value = e632_combine(apparent, oob_error)
    return ErrorEstimate(
        value,
        "e632",
        error_std(value, ds.n),
        {"apparent": apparent, "out_of_bootstrap": oob_error},
    )


def _oracle_fits(trainer, problem, n: int, repeats: int, n_test_mc: int, seed: int, key: int):
    """Per repeat: (training set, fitted model, true error, whether it is exact).

    Each training set is a fresh two-class sample of size ``n`` (a
    single-class draw is redrawn from a new derived seed).  The true
    error is exact for a model with an affine form, else Monte Carlo.
    """
    for rep in range(repeats):
        ds = _retry(
            lambda attempt: sample(problem, n, child_seed(seed, key, rep, attempt)),
            lambda drawn: 0 < drawn.n_pos < drawn.n,
            f"a single-class sample of size {n}",
        )
        model = trainer(ds)
        err = true_error(model, problem, n_test_mc, child_seed(seed, key, rep, 999))
        yield ds, model, err, exact_form(model) is not None


def _estimate_label(exact: list) -> str:
    """A curve's ``estimate``: "exact" when every true error on it was."""
    return "exact" if all(exact) else "mc"


def _check_grid(values, name: str, repeats: int) -> list:
    values = list(values)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    return values


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
    fitted, and both the resubstitution error and the true error (exact
    or Monte Carlo, see :func:`true_error`) are recorded.  Returns
    (true_curve, apparent_curve).
    """
    if not isinstance(problem, GaussianMixtureProblem):
        raise ValueError("a learning curve needs a problem to sample, not a dataset")
    sizes = _check_grid(sizes, "sizes", repeats)
    true_points, app_points, exact = [], [], []
    for si, n in enumerate(sizes):
        fits = _oracle_fits(trainer, problem, n, repeats, n_test_mc, seed, si)
        errs, apps, flags = zip(*((err, zero_one_error(m, ds), ex) for ds, m, err, ex in fits))
        true_points.append((n, *_aggregate(errs)))
        app_points.append((n, *_aggregate(apps)))
        exact += flags
    meta = {"trainer": trainer_name, "seed": seed, "estimate": _estimate_label(exact)}
    return (
        Curve("learning_true", tuple(true_points), meta),
        Curve("learning_apparent", tuple(app_points), dict(meta)),
    )


def adapt_problem_dim(problem: GaussianMixtureProblem, d: int) -> GaussianMixtureProblem:
    """Marginalize to the first d dims, or pad with unit-variance noise dims."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d == problem.dim:
        return problem
    k = min(d, problem.dim)
    mp, mn, cp, cn = np.zeros(d), np.zeros(d), np.eye(d), np.eye(d)
    mp[:k], mn[:k] = problem.mean_pos[:k], problem.mean_neg[:k]
    cp[:k, :k], cn[:k, :k] = problem.cov_pos[:k, :k], problem.cov_neg[:k, :k]
    return GaussianMixtureProblem(problem.prior_pos, mp, mn, cp, cn)


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

    With a known problem as source the error per repeat is the true
    error (exact or Monte Carlo) of a model trained on a fresh sample
    (the problem itself is marginalized or padded to each
    dimensionality).  With a plain dataset the error is k-fold CV on the
    dataset with columns selected or noise columns appended; metadata
    records which route was used ("exact", "mc" or "cv").
    """
    dims = _check_grid(dims, "dims", repeats)
    oracle_mode = isinstance(source, GaussianMixtureProblem)
    points, exact = [], []
    for di, d in enumerate(dims):
        if oracle_mode:
            prob_d = adapt_problem_dim(source, d)
            fits = _oracle_fits(trainer, prob_d, n_train, repeats, n_test_mc, seed, di)
            vals, flags = zip(*((err, ex) for *_, err, ex in fits))
            exact += flags
        else:
            if d <= source.dim:
                ds_d = _features.Select(tuple(range(d))).apply(source)
            else:
                ds_d = _features.append_noise(
                    source, d - source.dim, child_seed(seed, di)
                )
            vals = [
                kfold_cv(trainer, ds_d, folds, seed=child_seed(seed, di, rep)).value
                for rep in range(repeats)
            ]
        points.append((d, *_aggregate(vals)))
    meta = {
        "trainer": trainer_name,
        "seed": seed,
        "estimate": _estimate_label(exact) if oracle_mode else "cv",
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
