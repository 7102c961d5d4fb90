"""Command-line experiment driver.

Five subcommands, all driven by a JSON config file plus optional
``--seed`` / ``--out`` overrides:

  gen    sample a dataset from a problem file into CSV
  train  fit a named trainer, save the model (JSON) and a training report
  eval   run one error estimator, save the estimate as JSON
  curve  emit a learning or feature curve as CSV
  bench  compare several trainers under one estimator (CSV table)

Every command is a pure function of (config, input files): rerunning
with identical inputs writes byte-identical outputs.  Exit codes:
0 success, 2 bad usage or config, 3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import evaluation
from .data import REQUIRED, _get, _typed, child_seed, load_csv, read_json, save_csv
from .ensembles import TreeConfig, adaboost, bagging, random_subspace
from .features import make_pipeline_trainer, split_transform_spec
from .generative import fit_lda, fit_parzen, lda_loo_scores, parzen_loo_scores
from .kernels import Kernel, kernel_ridge_loo_scores, train_kernel_machine
from .linear import (
    TrainConfig, least_squares_loo_scores, train_least_squares, train_linear, train_logistic,
)
from .neighbors import fit_knn, knn_loo_scores
from .neural import NetTrainConfig, train_net
from .oracle import BayesClassifier, load_problem, sample
from .serialize import save_model, write_json
from .trees import fit_tree

# every package failure is a RuntimeError (see exceptions.py), a RecursionError too
_USAGE_ERRORS = (ValueError, KeyError, OSError)
_RUNTIME_ERRORS = (RuntimeError, MemoryError)

# sub-seed roles, so data sampling, training and estimation draw from
# independent streams of the one config seed
_DATA, _TRAIN, _EST, _CURVE = 0, 1, 2, 3

_KWARGS = {"lambda": "lam"}  # config key -> keyword, where the key is reserved in Python


def _choose(table, name, params, what):
    """Look ``name`` up in a registry and check ``params`` against its schema.

    A registry maps each name to (schema, builder); a schema maps each
    parameter to (type, default or REQUIRED).  Returns (builder, keyword
    arguments for it).
    """
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    schema, build = table[name]
    what = f"{what} {name!r}"
    params = _typed(params, dict, f"{what} parameters")
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ValueError(f"unknown parameters for {what}: {unknown}")
    return build, {
        _KWARGS.get(key, key): _get(params, key, type_, default, what)
        for key, (type_, default) in schema.items()
    }


def _linear(p, seed, problem):
    config = TrainConfig(**p)
    return lambda ds: train_linear(ds, config)


def _kernel_ridge(p, seed, problem):
    kernel = Kernel(p["kernel"], p["c"], p["sigma"])
    return evaluation.Trainer(
        lambda ds: train_kernel_machine(ds, kernel, p["lam"]),
        lambda ds, model: kernel_ridge_loo_scores(ds, model, p["lam"]),
    )


def _net(p, seed, problem):
    config = NetTrainConfig(seed=seed, **p)
    return lambda ds: train_net(ds, config)


def _bayes(p, seed, problem):
    if problem is None:
        raise ValueError("trainer 'bayes' needs a problem, not a dataset")

    def fit(ds):  # appended noise columns are N(0, 1) in both classes: the padded problem's rule
        return BayesClassifier(evaluation.adapt_problem_dim(problem, ds.dim))

    # the rule ignores its training rows, so leaving one out changes nothing
    return evaluation.Trainer(fit, lambda ds, model: model.decision_function(ds.features))


_GD = {"lambda": (float, 0.0), "max_iters": (int, 1000), "step_size": (float, 1.0),
       "tolerance": (float, 1e-6)}
_TREES = {"max_depth": (int, 3), "min_leaf_size": (int, 1), "m_rounds": (int, REQUIRED)}

# name -> (schema, builder(params, seed, problem) -> trainer).  A trainer is
# any callable from a dataset to a model: a closure, or an evaluation.Trainer,
# which also scores leave-one-out in closed form from the fit to all rows.
# Trainers call the fit functions through module-level names when they run,
# so a tool that rebinds those names (a tracer) sees every fit.
TRAINERS = {
    "lda": (
        {"laplace_priors": (bool, False), "unbiased_cov": (bool, False),
         "ridge_cov": (float, 0.0)},
        lambda p, *_: evaluation.Trainer(
            lambda ds: fit_lda(ds, **p),
            lambda ds, model: lda_loo_scores(ds, model, p["laplace_priors"], p["unbiased_cov"]),
        ),
    ),
    "parzen": (
        {"bandwidth": (float, REQUIRED)},
        lambda p, *_: evaluation.Trainer(lambda ds: fit_parzen(ds, **p), parzen_loo_scores),
    ),
    "logistic": (_GD, lambda p, *_: lambda ds: train_logistic(ds, **p)),
    "least_squares": (
        {"lambda": (float, 0.0)},
        lambda p, *_: evaluation.Trainer(
            lambda ds: train_least_squares(ds, **p),
            lambda ds, model: least_squares_loo_scores(ds, model, **p),
        ),
    ),
    "linear": ({"loss": (str, REQUIRED), **_GD}, _linear),
    "kernel_ridge": (
        {"kernel": (str, "rbf"), "c": (float, 1.0), "sigma": (float, 1.0),
         "lambda": (float, REQUIRED)},
        _kernel_ridge,
    ),
    "knn": (
        {"k": (int, REQUIRED)},
        lambda p, *_: evaluation.Trainer(lambda ds: fit_knn(ds, **p), knn_loo_scores),
    ),
    "tree": (
        {"max_depth": (int, REQUIRED), "min_leaf_size": (int, 1)},
        lambda p, *_: lambda ds: fit_tree(ds, **p),
    ),
    "bagging": (
        _TREES,
        lambda p, seed, _: lambda ds: bagging(
            ds, TreeConfig(p["max_depth"], p["min_leaf_size"]), p["m_rounds"], seed
        ),
    ),
    "random_subspace": (
        {**_TREES, "subspace_dim": (int, REQUIRED)},
        lambda p, seed, _: lambda ds: random_subspace(
            ds, TreeConfig(p["max_depth"], p["min_leaf_size"]), p["m_rounds"],
            p["subspace_dim"], seed,
        ),
    ),
    "adaboost": ({"t_rounds": (int, REQUIRED)}, lambda p, *_: lambda ds: adaboost(ds, **p)),
    "net": (
        {"hidden_units": (int, 4), "learning_rate": (float, 0.1), "max_iters": (int, 2000),
         "init_scale": (float, 0.5), "hidden_activation": (str, "logistic_sigmoid"),
         "output_activation": (str, "identity")},
        _net,
    ),
    "bayes": ({}, _bayes),
}

# method -> (schema, runner(trainer, ds, seed, **params) -> ErrorEstimate)
ESTIMATORS = {
    "apparent": ({}, lambda t, ds, seed: evaluation.apparent_error(t(ds), ds)),
    "holdout": (
        {"test_fraction": (float, 0.3), "stratified": (bool, False)},
        lambda t, ds, seed, **p: evaluation.holdout_error(t, ds, seed=seed, **p),
    ),
    "kfold": (
        {"k": (int, 5), "stratified": (bool, False)},
        lambda t, ds, seed, **p: evaluation.kfold_cv(t, ds, seed=seed, **p),
    ),
    "loo": ({}, lambda t, ds, seed: evaluation.loo_cv(t, ds)),
    "bootstrap_corrected": (
        {"m_rounds": (int, 100)},
        lambda t, ds, seed, **p: evaluation.bootstrap_corrected(t, ds, seed=seed, **p),
    ),
    "e632": (
        {"m_rounds": (int, 100)},
        lambda t, ds, seed, **p: evaluation.e632(t, ds, seed=seed, **p),
    ),
}

# kind -> (schema, runner(trainer, problem or dataset, **params) -> curves)
CURVES = {
    "learning": (
        {"sizes": (list[int], REQUIRED), "repeats": (int, 10), "n_test_mc": (int, 20000)},
        lambda t, source, **p: evaluation.learning_curve(t, source, **p),
    ),
    "feature": (
        {"dims": (list[int], REQUIRED), "repeats": (int, 10), "n_train": (int, 100),
         "n_test_mc": (int, 20000), "folds": (int, 5)},
        lambda t, source, **p: [evaluation.feature_curve(t, source, **p)],
    ),
}


def _load_config(args):
    cfg = _typed(read_json(args.config), dict, "the config")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    cfg["seed"] = _get(cfg, "seed", int, 0)
    if cfg["seed"] < 0:
        raise ValueError("seed must be a nonnegative integer")
    return cfg


def _prepare(cfg, need_data: bool = True):
    """Resolve source and transform chain; returns (problem, ds, pointwise steps)."""
    if ("problem" in cfg) == ("dataset" in cfg):
        raise ValueError("config needs exactly one of 'problem' or 'dataset'")
    problem = ds = None
    if "problem" in cfg:
        problem = load_problem(_get(cfg, "problem", str))
        if need_data:
            ds = sample(problem, _get(cfg, "n", int), child_seed(cfg["seed"], _DATA))
    else:
        ds = load_csv(_get(cfg, "dataset", str))
    spec = _get(cfg, "transform", str, "")
    noise, pointwise = split_transform_spec(spec, child_seed(cfg["seed"], _DATA, 1))
    if noise and ds is None:
        raise ValueError("noise transforms need a dataset to apply to")
    for step in noise:
        ds = step.apply(ds)
    return problem, ds, pointwise


def _resolve_trainer(cfg, spec, problem, pointwise):
    spec = _typed(spec, dict, "a trainer spec")
    name = spec.get("name")
    build, params = _choose(TRAINERS, name, spec.get("params", {}), "trainer")
    trainer = build(params, child_seed(cfg["seed"], _TRAIN), problem)
    # the oracle rule acts on raw coordinates; transforms belong to trainers
    if pointwise and name != "bayes":
        return name, make_pipeline_trainer(pointwise, trainer)
    return name, trainer


def _estimator(cfg):
    """The configured estimator as a callable(trainer, ds) -> ErrorEstimate."""
    spec = dict(_get(cfg, "estimator", dict, {}))
    run, params = _choose(ESTIMATORS, spec.pop("method", None), spec, "estimator")
    return lambda trainer, ds: run(trainer, ds, child_seed(cfg["seed"], _EST), **params)


def cmd_gen(cfg) -> int:
    problem = load_problem(_get(cfg, "problem", str))
    n = _get(cfg, "n", int)
    out = Path(_get(cfg, "out", str))
    ds = sample(problem, n, cfg["seed"])
    save_csv(ds, out)
    print(f"wrote {out} ({ds.n} rows, d={ds.dim})")
    return 0


def cmd_train(cfg) -> int:
    problem, ds, pointwise = _prepare(cfg)
    out = Path(_get(cfg, "out", str))
    spec = _get(cfg, "trainer", dict, {})
    if spec.get("name") == "bayes":
        raise ValueError("the bayes oracle is not trainable; use it via bench")
    name, trainer = _resolve_trainer(cfg, spec, problem, pointwise)
    model = trainer(ds)
    save_model(model, out)
    inner = getattr(model, "model", model)  # unwrap pipelines for the report
    info = getattr(inner, "info", None)
    report = {
        "trainer": name,
        "apparent_error": evaluation.zero_one_error(model, ds),
        "n_train": ds.n,
        **{key: getattr(info, key, None) for key in ("iterations", "objective", "termination")},
    }
    report_path = out.parent / (out.stem + ".report.json")
    write_json(report, report_path)
    print(f"wrote {out} and {report_path}")
    return 0


def cmd_eval(cfg) -> int:
    problem, ds, pointwise = _prepare(cfg)
    out = Path(_get(cfg, "out", str))
    name, trainer = _resolve_trainer(cfg, _get(cfg, "trainer", dict, {}), problem, pointwise)
    est = _estimator(cfg)(trainer, ds)
    write_json({"trainer": name, **dataclasses.asdict(est)}, out)
    print(f"wrote {out} (value={est.value})")
    return 0


def cmd_curve(cfg) -> int:
    spec = dict(_get(cfg, "curve", dict, {}))
    run, params = _choose(CURVES, spec.pop("kind", None), spec, "curve")
    out = Path(_get(cfg, "out", str))
    problem, ds, pointwise = _prepare(cfg, need_data=False)
    name, trainer = _resolve_trainer(cfg, _get(cfg, "trainer", dict, {}), problem, pointwise)
    source = problem if problem is not None else ds
    seed = child_seed(cfg["seed"], _CURVE)
    evaluation.write_curves_csv(run(trainer, source, seed=seed, trainer_name=name, **params), out)
    print(f"wrote {out}")
    return 0


def cmd_bench(cfg) -> int:
    problem, ds, pointwise = _prepare(cfg)
    out = Path(_get(cfg, "out", str))
    specs = _get(cfg, "trainers", list, [])
    if not specs:
        raise ValueError("bench needs a nonempty 'trainers' list")
    trainers = [_resolve_trainer(cfg, spec, problem, pointwise) for spec in specs]
    estimate = _estimator(cfg)
    rows = []
    for name, trainer in trainers:
        est = estimate(trainer, ds)
        rows.append((name, est.method, ds.n, est.value, est.std))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("trainer,method,n,value,std\n")
        for name, method, n, value, std in rows:
            fh.write(f"{name},{method},{n},{value!r},{std!r}\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "curve": cmd_curve,
    "bench": cmd_bench,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claslab",
        description="Run classification experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output path")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
