"""Benchmark workloads: generated problems, per-op CLI scripts, output checks.

Every input the program sees is written here from the workload seed: two
Gaussian problem files and one JSON config per CLI step.  An *op* is the
fixed list of CLI steps of its workload, run with one op seed passed as
``--seed``; the outputs land at fixed paths in the work directory and are
checked for meaning (schema, errors in [0, 1], agreement with the Bayes
floor), never against golden bytes, so exact-oracle changes stay legal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Problems have a fixed spectrum and separation; only their orientation
# comes from the seed, so the amount of work and the Bayes floor stay
# comparable across seeds while the inputs differ.
P5U_SPECTRUM_POS = (0.4, 0.6, 1.0, 1.6, 2.5)
P5U_SPECTRUM_NEG = (1.0, 1.0, 1.0, 1.0, 1.0)
P5U_HALF_GAP = 0.8
P10_SPECTRUM = tuple(np.geomspace(0.5, 2.0, 10))
P10_HALF_GAP = 0.6
P10_PRIOR = 0.4

FLOOR_MC = 400_000  # draws for the Bayes floor the checks compare against
N_MC = 50_000  # Monte-Carlo points per true error in the curve workloads

CURVE_HEADER = "kind,abscissa,mean_error,std_error,n_repeats"
BENCH_HEADER = "trainer,method,n,value,std"


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op ``index``; the warm-up op uses index -1."""
    ss = np.random.SeedSequence([int(workload_seed), 0xB0B, int(index) + 1])
    return int(ss.generate_state(1, np.uint32)[0])


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _cov(rng, spectrum):
    q = _rotation(rng, len(spectrum))
    cov = q @ np.diag(spectrum) @ q.T
    return (cov + cov.T) / 2.0


def _unit(rng, d):
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


def make_problem(name: str, seed: int) -> dict:
    """Problem file contents for ``p5u`` or ``p10`` under the workload seed."""
    rng = np.random.default_rng([int(seed), 0x9F0B, 5 if name == "p5u" else 10])
    if name == "p5u":
        u = _unit(rng, 5)
        return {
            "prior_pos": 0.5,
            "mean_pos": (P5U_HALF_GAP * u).tolist(),
            "mean_neg": (-P5U_HALF_GAP * u).tolist(),
            "cov_pos": _cov(rng, P5U_SPECTRUM_POS).tolist(),
            "cov_neg": _cov(rng, P5U_SPECTRUM_NEG).tolist(),
        }
    if name == "p10":
        u = _unit(rng, 10)
        cov = _cov(rng, P10_SPECTRUM).tolist()
        return {
            "prior_pos": P10_PRIOR,
            "mean_pos": (P10_HALF_GAP * u).tolist(),
            "mean_neg": (-P10_HALF_GAP * u).tolist(),
            "cov_pos": cov,
            "cov_neg": cov,
        }
    raise ValueError(f"unknown problem {name!r}")


def bayes_floor(problem: dict, seed: int, n_mc: int = FLOOR_MC):
    """Monte-Carlo error of the optimal rule, computed without claslab.

    Returns (floor, binomial std of the estimate).
    """
    rng = np.random.default_rng([int(seed), 0xF1002])
    prior = problem["prior_pos"]
    pos = rng.random(n_mc) < prior
    d = len(problem["mean_pos"])
    z = rng.standard_normal((n_mc, d))
    X = np.empty((n_mc, d))
    params = []
    for mask, mean_key, cov_key, p in (
        (pos, "mean_pos", "cov_pos", prior),
        (~pos, "mean_neg", "cov_neg", 1.0 - prior),
    ):
        mean = np.asarray(problem[mean_key])
        chol = np.linalg.cholesky(np.asarray(problem[cov_key]))
        X[mask] = mean + z[mask] @ chol.T
        params.append((mean, chol, p))

    def log_weighted(mean, chol, p):
        white = (X - mean) @ np.linalg.inv(chol).T
        return np.log(p) - np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(white * white, axis=1)

    decide_pos = log_weighted(*params[0]) >= log_weighted(*params[1])
    floor = float(np.mean(decide_pos != pos))
    return floor, math.sqrt(floor * (1.0 - floor) / n_mc)


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``claslab <command> --config <config> --seed <op seed>``."""

    command: str
    config: str  # file name in the work directory
    out: str  # output file name in the work directory


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str
    steps: tuple
    configs: dict  # config file name -> config dict with "@problem" / "@dir/" placeholders
    sizes: dict  # input sizes: MC points, n, d
    largest: tuple  # (rows, cols, what) of the largest float64 matrix an op builds
    needs_floor: bool = True

    def inputs(self) -> dict:
        rows, cols, what = self.largest
        return {
            **self.sizes,
            "largest_matrix": {"rows": rows, "cols": cols, "mb": rows * cols * 8 / 1e6, "what": what},
        }


def _curve_learning(trainer, sizes, repeats, out):
    return {
        "problem": "@problem",
        "trainer": trainer,
        "curve": {"kind": "learning", "sizes": list(sizes), "repeats": repeats, "n_test_mc": N_MC},
        "out": f"@dir/{out}",
    }


AFFINE_SIZES = (10, 20, 50, 100, 200, 500)
AFFINE_REPEATS = 3
AFFINE_DIMS = (1, 2, 3, 4, 5, 8)
AFFINE_LOGISTIC_MAX_ITERS = 200
MEMORY_SIZES = (20, 100, 400)
MEMORY_REPEATS = 1
RESAMPLE_N = 300
RESAMPLE_ROUNDS = 200
IO_GEN_N = 5000
IO_BENCH_N = 400
IO_FOLDS = 5
IO_TRAIN_MAX_ITERS = 100

_RBF = {"kernel": "rbf", "sigma": 1.5, "lambda": 1.0}

CURVE_AFFINE = Workload(
    name="curve_affine",
    why="Monte-Carlo true error of affine rules (50k draws per curve point) takes "
    "most of the time, so an exact oracle shows here and LOO shortcuts cannot",
    problem="p5u",
    steps=(
        Step("curve", "lda.json", "lda.csv"),
        Step("curve", "logistic.json", "logistic.csv"),
        Step("curve", "feature.json", "feature.csv"),
    ),
    configs={
        "lda.json": _curve_learning({"name": "lda"}, AFFINE_SIZES, AFFINE_REPEATS, "lda.csv"),
        # 200 iterations bound what one stalled logistic fit costs (about
        # 67 objective evaluations per stalled iteration), so the number of
        # stalls in a run cannot decide its median; they still show in
        # fit.gd.max_iters_share and losses.value.calls
        "logistic.json": _curve_learning(
            {"name": "logistic", "params": {"max_iters": AFFINE_LOGISTIC_MAX_ITERS}},
            AFFINE_SIZES, AFFINE_REPEATS, "logistic.csv",
        ),
        "feature.json": {
            "problem": "@problem",
            "transform": "standardize",
            "trainer": {"name": "least_squares"},
            "curve": {
                "kind": "feature",
                "dims": list(AFFINE_DIMS),
                "repeats": AFFINE_REPEATS,
                "n_train": 100,
                "n_test_mc": N_MC,
            },
            "out": "@dir/feature.csv",
        },
    },
    sizes={"d": 5, "n": list(AFFINE_SIZES), "mc_points": N_MC, "repeats": AFFINE_REPEATS},
    largest=(N_MC, max(AFFINE_DIMS), "Monte-Carlo sample of the feature curve's widest problem"),
)

CURVE_MEMORY = Workload(
    name="curve_memory",
    why="predict-heavy generative/neighbors/kernels use: 50k-query x 400-train "
    "matrices dominate time and peak memory, so blocked scoring shows here",
    problem="p5u",
    steps=(
        Step("curve", "parzen.json", "parzen.csv"),
        Step("curve", "knn.json", "knn.csv"),
        Step("curve", "kernel_ridge.json", "kernel_ridge.csv"),
    ),
    configs={
        "parzen.json": _curve_learning(
            {"name": "parzen", "params": {"bandwidth": 0.7}},
            MEMORY_SIZES, MEMORY_REPEATS, "parzen.csv",
        ),
        "knn.json": _curve_learning(
            {"name": "knn", "params": {"k": 7}}, MEMORY_SIZES, MEMORY_REPEATS, "knn.csv"
        ),
        "kernel_ridge.json": _curve_learning(
            {"name": "kernel_ridge", "params": _RBF},
            MEMORY_SIZES, MEMORY_REPEATS, "kernel_ridge.csv",
        ),
    },
    sizes={"d": 5, "n": list(MEMORY_SIZES), "mc_points": N_MC, "repeats": MEMORY_REPEATS},
    largest=(N_MC, max(MEMORY_SIZES), "rbf kernel between MC queries and the training set"),
)

RESAMPLE_TRAINERS = (
    {"name": "bayes"},
    {"name": "lda"},
    {"name": "least_squares"},
    {"name": "kernel_ridge", "params": _RBF},
    {"name": "parzen", "params": {"bandwidth": 0.7}},
    {"name": "knn", "params": {"k": 7}},
)

RESAMPLE_FIT = Workload(
    name="resample_fit",
    why="hundreds of small fits with one-row predicts and a working set under "
    "1 MB, so a resampling core or LOO shortcut shows here and blocked scoring cannot",
    problem="p5u",
    steps=(
        Step("bench", "loo.json", "loo.csv"),
        Step("eval", "e632.json", "e632.json.out"),
        Step("eval", "bootstrap.json", "bootstrap.json.out"),
    ),
    configs={
        "loo.json": {
            "problem": "@problem",
            "n": RESAMPLE_N,
            "trainers": list(RESAMPLE_TRAINERS),
            "estimator": {"method": "loo"},
            "out": "@dir/loo.csv",
        },
        "e632.json": {
            "problem": "@problem",
            "n": RESAMPLE_N,
            "transform": "standardize+poly2",
            "trainer": {"name": "least_squares", "params": {"lambda": 0.1}},
            "estimator": {"method": "e632", "m_rounds": RESAMPLE_ROUNDS},
            "out": "@dir/e632.json.out",
        },
        "bootstrap.json": {
            "problem": "@problem",
            "n": RESAMPLE_N,
            "trainer": {"name": "lda"},
            "estimator": {"method": "bootstrap_corrected", "m_rounds": RESAMPLE_ROUNDS},
            "out": "@dir/bootstrap.json.out",
        },
    },
    sizes={"d": 5, "n": RESAMPLE_N, "mc_points": 0, "rounds": RESAMPLE_ROUNDS},
    largest=(RESAMPLE_N, RESAMPLE_N, "kernel ridge Gram matrix"),
)

IO_TRAINERS = (
    {"name": "tree", "params": {"max_depth": 4}},
    {"name": "bagging", "params": {"max_depth": 3, "m_rounds": 10}},
    {"name": "random_subspace", "params": {"max_depth": 3, "m_rounds": 10, "subspace_dim": 5}},
    {"name": "adaboost", "params": {"t_rounds": 20}},
    {"name": "net", "params": {"hidden_units": 4, "max_iters": 300}},
    {"name": "linear", "params": {"loss": "hinge", "max_iters": 200}},
    {"name": "logistic"},
)

ITERATIVE_IO = Workload(
    name="iterative_io",
    why="trees, ensembles, the net, gradient-descent fits, CSV I/O and model "
    "saving, which no other workload reaches",
    problem="p10",
    steps=(
        Step("gen", "gen.json", "data.csv"),
        Step("train", "train_logistic.json", "logistic.model.json"),
        Step("train", "train_adaboost.json", "adaboost.model.json"),
        Step("bench", "kfold.json", "kfold.csv"),
    ),
    configs={
        "gen.json": {"problem": "@problem", "n": IO_GEN_N, "out": "@dir/data.csv"},
        "train_logistic.json": {
            "dataset": "@dir/data.csv",
            # as in curve_affine: 100 iterations bound what one stalled fit
            # on 5000 rows costs
            "trainer": {"name": "logistic", "params": {"max_iters": IO_TRAIN_MAX_ITERS}},
            "out": "@dir/logistic.model.json",
        },
        "train_adaboost.json": {
            "dataset": "@dir/data.csv",
            "trainer": {"name": "adaboost", "params": {"t_rounds": 20}},
            "out": "@dir/adaboost.model.json",
        },
        "kfold.json": {
            "problem": "@problem",
            "n": IO_BENCH_N,
            "trainers": list(IO_TRAINERS),
            "estimator": {"method": "kfold", "k": IO_FOLDS},
            "out": "@dir/kfold.csv",
        },
    },
    sizes={"d": 10, "n": [IO_GEN_N, IO_BENCH_N], "mc_points": 0, "folds": IO_FOLDS},
    largest=(IO_GEN_N, 10, "the generated dataset's features"),
    needs_floor=False,
)

WORKLOADS = {w.name: w for w in (CURVE_AFFINE, CURVE_MEMORY, RESAMPLE_FIT, ITERATIVE_IO)}


def _resolve(value, problem_path: Path, workdir: Path):
    if isinstance(value, dict):
        return {k: _resolve(v, problem_path, workdir) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve(v, problem_path, workdir) for v in value]
    if value == "@problem":
        return str(problem_path)
    if isinstance(value, str) and value.startswith("@dir/"):
        return str(workdir / value[len("@dir/"):])
    return value


def write_inputs(workload: Workload, seed: int, workdir: Path) -> dict:
    """Write the problem file, every config and the Bayes floor; return the context."""
    workdir.mkdir(parents=True, exist_ok=True)
    problem = make_problem(workload.problem, seed)
    problem_path = workdir / f"{workload.problem}.json"
    problem_path.write_text(json.dumps(problem, indent=2) + "\n", encoding="utf-8")
    for name, cfg in workload.configs.items():
        resolved = _resolve(cfg, problem_path, workdir)
        (workdir / name).write_text(json.dumps(resolved, indent=2) + "\n", encoding="utf-8")
    ctx = {"problem": problem, "floor": None, "floor_std": None}
    if workload.needs_floor:
        ctx["floor"], ctx["floor_std"] = bayes_floor(problem, seed)
    floor = {"floor": ctx["floor"], "floor_std": ctx["floor_std"]}
    (workdir / "floor.json").write_text(json.dumps(floor) + "\n", encoding="utf-8")
    return ctx


def step_argv(step: Step, workdir: Path, seed: int) -> list:
    return [step.command, "--config", str(workdir / step.config), "--seed", str(seed)]


# ---------------------------------------------------------------- checks


def _is_error(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def _check_curve_csv(path: Path, cfg: dict, ctx: dict) -> list:
    spec = cfg["curve"]
    errors = []
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != CURVE_HEADER:
        return [f"{path.name}: bad header"]
    if spec["kind"] == "learning":
        expected = [("learning_true", n) for n in spec["sizes"]]
        expected += [("learning_apparent", n) for n in spec["sizes"]]
    else:
        expected = [("feature", d) for d in spec["dims"]]
    rows = [ln.split(",") for ln in body[1:]]
    if [(r[0], int(r[1])) for r in rows] != expected:
        return [f"{path.name}: rows {[(r[0], r[1]) for r in rows]} != {expected}"]
    for kind, _, mean, std, reps in rows:
        mean, std = float(mean), float(std)
        if not _is_error(mean) or not (math.isfinite(std) and std >= 0.0):
            errors.append(f"{path.name}: {kind} error {mean} / std {std} out of range")
        if int(reps) != spec["repeats"]:
            errors.append(f"{path.name}: n_repeats {reps} != {spec['repeats']}")
        if kind != "learning_apparent" and ctx["floor"] is not None:
            floor, n_mc = ctx["floor"], spec["n_test_mc"]
            sigma = math.hypot(math.sqrt(floor * (1.0 - floor) / n_mc), ctx["floor_std"])
            if mean < floor - 4.0 * sigma:
                errors.append(f"{path.name}: true error {mean} below Bayes floor {floor}")
    return errors


def _check_bench_csv(path: Path, cfg: dict, ctx: dict) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != BENCH_HEADER:
        return [f"{path.name}: bad header"]
    rows = [ln.split(",") for ln in lines[1:]]
    names = [t["name"] for t in cfg["trainers"]]
    if [r[0] for r in rows] != names:
        return [f"{path.name}: trainers {[r[0] for r in rows]} != {names}"]
    errors = []
    for name, method, n, value, std in rows:
        value, std = float(value), float(std)
        if method != cfg["estimator"]["method"] or int(n) != cfg["n"]:
            errors.append(f"{path.name}: {name} row has method {method}, n {n}")
        if not _is_error(value) or not (math.isfinite(std) and std >= 0.0):
            errors.append(f"{path.name}: {name} error {value} / std {std} out of range")
        if name == "bayes":
            floor = ctx["floor"]
            sigma = math.hypot(math.sqrt(floor * (1.0 - floor) / cfg["n"]), ctx["floor_std"])
            if abs(value - floor) > 4.0 * sigma:
                errors.append(f"{path.name}: bayes {value} is off the floor {floor}")
    return errors


def _check_eval_json(path: Path, cfg: dict, ctx: dict) -> list:
    out = json.loads(path.read_text(encoding="utf-8"))
    method = cfg["estimator"]["method"]
    if set(out) != {"trainer", "value", "method", "std", "components"}:
        return [f"{path.name}: keys {sorted(out)}"]
    errors = []
    if out["method"] != method or out["trainer"] != cfg["trainer"]["name"]:
        errors.append(f"{path.name}: method/trainer {out['method']}/{out['trainer']}")
    if not _is_error(out["value"]):
        errors.append(f"{path.name}: value {out['value']} out of range")
    parts = ("apparent", "out_of_bootstrap") if method == "e632" else ("apparent",)
    for key in parts:
        if not _is_error((out["components"] or {}).get(key)):
            errors.append(f"{path.name}: component {key} out of range")
    return errors


def _check_dataset_csv(path: Path, cfg: dict, ctx: dict) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    d = len(ctx["problem"]["mean_pos"])
    if not lines or lines[0].split(",") != [f"f{j}" for j in range(d)] + ["label"]:
        return [f"{path.name}: bad header"]
    if len(lines) - 1 != cfg["n"]:
        return [f"{path.name}: {len(lines) - 1} rows, expected {cfg['n']}"]
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if table.shape != (cfg["n"], d + 1) or not np.all(np.isfinite(table)):
        return [f"{path.name}: table shape {table.shape} or non-finite cells"]
    if not np.all(np.isin(table[:, -1], (-1.0, 1.0))):
        return [f"{path.name}: labels outside {{-1, +1}}"]
    return []


def _check_train(path: Path, cfg: dict, ctx: dict) -> list:
    model = json.loads(path.read_text(encoding="utf-8"))
    report_path = path.parent / (path.stem + ".report.json")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    errors = []
    if not isinstance(model, dict) or "kind" not in model:
        errors.append(f"{path.name}: model has no kind")
    if report.get("trainer") != cfg["trainer"]["name"]:
        errors.append(f"{report_path.name}: trainer {report.get('trainer')}")
    if not _is_error(report.get("apparent_error")):
        errors.append(f"{report_path.name}: apparent_error out of range")
    if report.get("n_train") != IO_GEN_N:
        errors.append(f"{report_path.name}: n_train {report.get('n_train')}")
    return errors


CHECKERS = {
    "curve": _check_curve_csv,
    "bench": _check_bench_csv,
    "eval": _check_eval_json,
    "gen": _check_dataset_csv,
    "train": _check_train,
}


def check_outputs(workload: Workload, workdir: Path, ctx: dict) -> list:
    """Return a list of problems with the outputs of the last op (empty if fine)."""
    errors = []
    for step in workload.steps:
        cfg = json.loads((workdir / step.config).read_text(encoding="utf-8"))
        try:
            errors += CHECKERS[step.command](workdir / step.out, cfg, ctx)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"{step.out}: unreadable ({type(exc).__name__}: {exc})")
    return errors
