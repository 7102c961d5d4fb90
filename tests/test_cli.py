"""End-to-end CLI runs: files in, files out, exit codes, determinism."""

import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claslab.cli import _KWARGS, CURVES, ESTIMATORS, REQUIRED, TRAINERS, main
from claslab.data import load_csv
from claslab.ensembles import TreeConfig
from claslab.evaluation import apparent_error, feature_curve, holdout_error, kfold_cv
from claslab.features import TRANSFORMS
from claslab.generative import fit_lda
from claslab.kernels import Kernel
from claslab.linear import TrainConfig, train_least_squares, train_logistic
from claslab.neural import NetTrainConfig
from claslab.oracle import PROBLEM_FIELDS, bayes_error, equal_cov_problem, problem_to_json, sample
from claslab.serialize import load_model
from claslab.trees import fit_tree

PROBLEM = problem_to_json(equal_cov_problem(0.5, [1.0], [-1.0]))
PROBLEM_2D = problem_to_json(equal_cov_problem(0.5, [1.0, 0.5], [-1.0, -0.5]))
# only dimension 0 tells the classes apart, so every width has PROBLEM's floor
PROBLEM_DIM0 = problem_to_json(equal_cov_problem(0.5, [1.0, 0.0], [-1.0, 0.0]))
FLOOR = bayes_error(equal_cov_problem(0.5, [1.0], [-1.0]), "closed_form_1d")


def near_floor(error, n_trials):
    """``error`` lies within 4 Monte-Carlo sigma of FLOOR."""
    return abs(error - FLOOR) <= 4 * np.sqrt(FLOOR * (1 - FLOOR) / n_trials)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "problem.json").write_text(json.dumps(PROBLEM), encoding="utf-8")
    (tmp_path / "problem2d.json").write_text(json.dumps(PROBLEM_2D), encoding="utf-8")
    return tmp_path


def run(workdir, command, config, name="config.json"):
    path = workdir / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return main([command, "--config", str(path)])


class TestGen:
    def test_roundtrip_and_determinism(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 100,
            "seed": 7,
            "out": str(workdir / "a.csv"),
        }
        assert run(workdir, "gen", cfg) == 0
        ds = load_csv(workdir / "a.csv")
        assert ds.n == 100 and ds.dim == 1
        # the CSV round trip is lossless: reloading gives the sampled dataset
        expected = sample(equal_cov_problem(0.5, [1.0], [-1.0]), 100, seed=7)
        assert ds.features.tolist() == expected.features.tolist()
        assert ds.labels.tolist() == expected.labels.tolist()
        cfg["out"] = str(workdir / "b.csv")
        assert run(workdir, "gen", cfg) == 0
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_missing_problem_file_exits_2(self, workdir, capsys):
        cfg = {
            "problem": str(workdir / "nope.json"),
            "n": 10,
            "out": str(workdir / "x.csv"),
        }
        assert run(workdir, "gen", cfg) == 2
        assert "error" in capsys.readouterr().err


    def test_out_under_a_regular_file_exits_2(self, workdir, capsys):
        (workdir / "a_file").write_text("not a directory", encoding="utf-8")
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 10,
            "out": str(workdir / "a_file" / "x.csv"),
        }
        assert run(workdir, "gen", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestTrain:
    def test_report_matches_reloaded_model(self, workdir):
        gen_cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 80,
            "seed": 3,
            "out": str(workdir / "train.csv"),
        }
        assert run(workdir, "gen", gen_cfg) == 0
        cfg = {
            "dataset": str(workdir / "train.csv"),
            "trainer": {"name": "lda", "params": {}},
            "seed": 5,
            "out": str(workdir / "model.json"),
        }
        assert run(workdir, "train", cfg) == 0
        report = json.loads((workdir / "model.report.json").read_text())
        model = load_model(workdir / "model.json")
        ds = load_csv(workdir / "train.csv")
        assert report["apparent_error"] == apparent_error(model, ds).value
        assert report["trainer"] == "lda"

    def test_logistic_separable_flags_max_iters(self, workdir):
        (workdir / "sep.csv").write_text(
            "x,label\n-2.0,-1\n-1.0,-1\n1.0,1\n2.0,1\n", encoding="utf-8"
        )
        cfg = {
            "dataset": str(workdir / "sep.csv"),
            "trainer": {"name": "logistic", "params": {"lambda": 0.0, "max_iters": 50}},
            "out": str(workdir / "sep_model.json"),
        }
        assert run(workdir, "train", cfg) == 0
        report = json.loads((workdir / "sep_model.report.json").read_text())
        assert report["termination"] == "max_iters"

    def test_unknown_trainer_exits_2(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 30,
            "trainer": {"name": "svm"},
            "out": str(workdir / "m.json"),
        }
        assert run(workdir, "train", cfg) == 2

    def test_training_failure_exits_3(self, workdir):
        (workdir / "mono.csv").write_text(
            "x,label\n0.0,1\n1.0,1\n2.0,1\n", encoding="utf-8"
        )
        cfg = {
            "dataset": str(workdir / "mono.csv"),
            "trainer": {"name": "lda"},
            "out": str(workdir / "m.json"),
        }
        assert run(workdir, "train", cfg) == 3

    def test_tree_deeper_than_the_recursion_limit_exits_3(self, workdir, capsys):
        # alternating labels on a line need a tree about as deep as the line is long
        n = sys.getrecursionlimit() + 500
        rows = "".join(f"{i}.0,{1 if i % 2 else -1}\n" for i in range(n))
        (workdir / "line.csv").write_text("x,label\n" + rows, encoding="utf-8")
        cfg = {
            "dataset": str(workdir / "line.csv"),
            "trainer": {"name": "tree", "params": {"max_depth": 2 * n}},
            "out": str(workdir / "deep.json"),
        }
        assert run(workdir, "train", cfg) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pipeline_transform_roundtrips(self, workdir):
        cfg = {
            "problem": str(workdir / "problem2d.json"),
            "n": 60,
            "seed": 2,
            "transform": "standardize+poly2",
            "trainer": {"name": "least_squares", "params": {"lambda": 0.1}},
            "out": str(workdir / "pipe.json"),
        }
        assert run(workdir, "train", cfg) == 0
        model = load_model(workdir / "pipe.json")
        assert model.predict(np.array([[0.5, 0.5]])).shape == (1,)


class TestEval:
    def test_loo_three_point_case(self, workdir):
        (workdir / "three.csv").write_text(
            "x,label\n0.0,-1\n1.0,-1\n10.0,1\n", encoding="utf-8"
        )
        cfg = {
            "dataset": str(workdir / "three.csv"),
            "trainer": {"name": "knn", "params": {"k": 1}},
            "estimator": {"method": "loo"},
            "out": str(workdir / "est.json"),
        }
        assert run(workdir, "eval", cfg) == 0
        est = json.loads((workdir / "est.json").read_text())
        assert est["value"] == 1 / 3
        assert est["method"] == "loo"

    def test_e632_echoes_components(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 40,
            "seed": 4,
            "trainer": {"name": "knn", "params": {"k": 3}},
            "estimator": {"method": "e632", "m_rounds": 20},
            "out": str(workdir / "est632.json"),
        }
        assert run(workdir, "eval", cfg) == 0
        est = json.loads((workdir / "est632.json").read_text())
        assert set(est["components"]) == {"apparent", "out_of_bootstrap"}

    def test_kfold_k_too_large_exits_2(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 10,
            "trainer": {"name": "lda"},
            "estimator": {"method": "kfold", "k": 11},
            "out": str(workdir / "bad.json"),
        }
        assert run(workdir, "eval", cfg) == 2

    @pytest.mark.parametrize("method", ["loo", "kfold", "holdout"])
    @pytest.mark.parametrize("trainer", [
        {"name": "parzen", "params": {"bandwidth": 0.0}},
        {"name": "linear", "params": {"loss": "nope"}},
        {"name": "kernel_ridge", "params": {"lambda": 0.0}},
    ])
    def test_bad_parameter_exits_2_under_every_resampling(self, workdir, capsys, method, trainer):
        # each trainer rejects its value only when it fits, inside the resampling
        # loop; under loo the fit to all rows fails, so the refits raise it
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 20,
            "trainer": trainer,
            "estimator": {"method": method},
            "out": str(workdir / "bad.json"),
        }
        assert run(workdir, "eval", cfg) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_noise_after_a_pointwise_step_exits_2(self, workdir, capsys):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 20,
            "transform": "standardize+noise:2",
            "trainer": {"name": "lda"},
            "estimator": {"method": "kfold"},
            "out": str(workdir / "bad.json"),
        }
        assert run(workdir, "eval", cfg) == 2
        assert "noise steps must come before" in capsys.readouterr().err

    def test_fit_failure_inside_resampling_exits_3_naming_rows(self, workdir, capsys):
        (workdir / "one_pos.csv").write_text(
            "x,label\n0.0,1\n1.0,-1\n2.0,-1\n3.0,-1\n", encoding="utf-8"
        )
        cfg = {
            "dataset": str(workdir / "one_pos.csv"),
            "trainer": {"name": "lda"},
            "estimator": {"method": "kfold", "k": 4},
            "out": str(workdir / "est.json"),
        }
        assert run(workdir, "eval", cfg) == 3
        assert "held-out rows (index 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("trainer", [
        {"name": "lda"}, {"name": "parzen", "params": {"bandwidth": 0.5}}, {"name": "least_squares"},
    ], ids=["lda", "parzen", "least_squares"])
    def test_loo_fit_failure_exits_3_naming_the_row(self, workdir, capsys, trainer):
        # row 0 is the only positive, and the only row off the others' line;
        # its complement has one class, or a column as constant as the bias
        (workdir / "one_pos.csv").write_text(
            "x,label\n1.0,1\n0.0,-1\n0.0,-1\n", encoding="utf-8"
        )
        cfg = {
            "dataset": str(workdir / "one_pos.csv"),
            "trainer": trainer,
            "estimator": {"method": "loo"},
            "out": str(workdir / "est.json"),
        }
        assert run(workdir, "eval", cfg) == 3
        assert "held-out rows (index 0)" in capsys.readouterr().err


class TestCurve:
    def test_learning_curve_row_count(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "trainer": {"name": "lda"},
            "curve": {
                "kind": "learning",
                "sizes": [20, 40],
                "repeats": 2,
                "n_test_mc": 500,
            },
            "seed": 6,
            "out": str(workdir / "curve.csv"),
        }
        assert run(workdir, "curve", cfg) == 0
        lines = (workdir / "curve.csv").read_text().splitlines()
        rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
        kinds = {}
        for row in rows:
            kinds.setdefault(row.split(",")[0], []).append(row)
        assert set(kinds) == {"learning_true", "learning_apparent"}
        assert all(len(v) == 2 for v in kinds.values())

    def test_feature_curve_on_dataset_records_cv(self, workdir):
        gen_cfg = {
            "problem": str(workdir / "problem2d.json"),
            "n": 60,
            "seed": 8,
            "out": str(workdir / "fc.csv"),
        }
        assert run(workdir, "gen", gen_cfg) == 0
        cfg = {
            "dataset": str(workdir / "fc.csv"),
            "trainer": {"name": "lda"},
            "curve": {"kind": "feature", "dims": [1, 2], "repeats": 2, "folds": 3},
            "seed": 9,
            "out": str(workdir / "feat.csv"),
        }
        assert run(workdir, "curve", cfg) == 0
        text = (workdir / "feat.csv").read_text()
        assert "# estimate=cv" in text

    def test_feature_curve_of_the_oracle_follows_the_width(self, workdir):
        (workdir / "dim0.json").write_text(json.dumps(PROBLEM_DIM0), encoding="utf-8")
        cfg = {
            "problem": str(workdir / "dim0.json"),
            "trainer": {"name": "bayes"},
            "curve": {"kind": "feature", "dims": [1, 2, 3], "repeats": 2, "n_train": 10,
                      "n_test_mc": 5000},
            "seed": 40,
            "out": str(workdir / "oracle.csv"),
        }
        assert run(workdir, "curve", cfg) == 0
        lines = (workdir / "oracle.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
        assert [int(r[1]) for r in rows] == [1, 2, 3]
        assert all(near_floor(float(r[2]), 2 * 5000) for r in rows)

    def test_rerun_is_byte_identical(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "trainer": {"name": "lda"},
            "curve": {"kind": "learning", "sizes": [15, 30], "repeats": 2, "n_test_mc": 300},
            "seed": 10,
            "out": str(workdir / "c1.csv"),
        }
        assert run(workdir, "curve", cfg) == 0
        cfg["out"] = str(workdir / "c2.csv")
        assert run(workdir, "curve", cfg) == 0
        assert (workdir / "c1.csv").read_bytes() == (workdir / "c2.csv").read_bytes()


class TestBench:
    def test_two_trainers_with_bayes_row(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 200,
            "seed": 11,
            "trainers": [
                {"name": "bayes"},
                {"name": "lda"},
                {"name": "knn", "params": {"k": 5}},
            ],
            "estimator": {"method": "kfold", "k": 5},
            "out": str(workdir / "bench.csv"),
        }
        assert run(workdir, "bench", cfg) == 0
        lines = (workdir / "bench.csv").read_text().splitlines()
        assert lines[0] == "trainer,method,n,value,std"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3
        values = {r[0]: float(r[3]) for r in rows}
        stds = {r[0]: float(r[4]) for r in rows}
        # the oracle row wins up to statistical noise
        noise = 3 * max(stds.values())
        assert values["bayes"] <= min(values.values()) + noise
        assert all(r[2] == "200" for r in rows)

    def test_oracle_row_under_appended_noise(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 1000,
            "seed": 41,
            "transform": "noise:2",
            "trainers": [{"name": "lda"}, {"name": "bayes"}],
            "estimator": {"method": "kfold", "k": 2},
            "out": str(workdir / "noisy.csv"),
        }
        assert run(workdir, "bench", cfg) == 0
        rows = [ln.split(",") for ln in (workdir / "noisy.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["lda", "bayes"]
        assert near_floor(float(rows[1][3]), 1000)

    def test_empty_trainer_list_exits_2(self, workdir):
        cfg = {
            "problem": str(workdir / "problem.json"),
            "n": 20,
            "trainers": [],
            "estimator": {"method": "apparent"},
            "out": str(workdir / "nope.csv"),
        }
        assert run(workdir, "bench", cfg) == 2


# Golden outputs, captured under tests/fixtures/cli from the code before the
# trainer/estimator registry replaced the hand-written dispatch.  "@problem"
# and "@data" stand for the problem file and the dataset written by the first
# (gen) case.
BENCH_TRAINERS = [
    {"name": "bayes"},
    {"name": "lda", "params": {"unbiased_cov": True}},
    {"name": "parzen", "params": {"bandwidth": 0.8}},
    {"name": "logistic", "params": {"lambda": 0.01, "max_iters": 30}},
    {"name": "least_squares", "params": {"lambda": 0.1}},
    {"name": "linear", "params": {"loss": "hinge", "max_iters": 30, "step_size": 0.5}},
    {"name": "kernel_ridge", "params": {"kernel": "rbf", "sigma": 1.5, "lambda": 0.5}},
    {"name": "knn", "params": {"k": 3}},
    {"name": "tree", "params": {"max_depth": 2, "min_leaf_size": 2}},
    {"name": "bagging", "params": {"max_depth": 2, "m_rounds": 3}},
    {"name": "random_subspace", "params": {"m_rounds": 3, "subspace_dim": 1}},
    {"name": "adaboost", "params": {"t_rounds": 3}},
    {"name": "net", "params": {"hidden_units": 2, "max_iters": 30, "hidden_activation": "relu"}},
]
GOLDEN_CASES = {
    "gen.csv": ("gen", {"problem": "@problem", "n": 60, "seed": 21}),
    "bench_kfold.csv": ("bench", {
        "problem": "@problem", "n": 60, "seed": 22, "trainers": BENCH_TRAINERS,
        "estimator": {"method": "kfold", "k": 3},
    }),
    "eval_apparent.json": ("eval", {
        "dataset": "@data", "seed": 23,
        "trainer": {"name": "lda", "params": {"laplace_priors": True, "ridge_cov": 0.01}},
        "estimator": {"method": "apparent"},
    }),
    "eval_holdout.json": ("eval", {
        "dataset": "@data", "seed": 24, "transform": "standardize+poly2",
        "trainer": {"name": "least_squares", "params": {"lambda": 0.1}},
        "estimator": {"method": "holdout", "test_fraction": 0.25, "stratified": True},
    }),
    "eval_kfold.json": ("eval", {
        "dataset": "@data", "seed": 25, "transform": "noise:2+standardize",
        "trainer": {"name": "knn", "params": {"k": 3}},
        "estimator": {"method": "kfold", "k": 4, "stratified": True},
    }),
    "eval_loo.json": ("eval", {
        "dataset": "@data", "seed": 26,
        "trainer": {"name": "parzen", "params": {"bandwidth": 0.8}},
        "estimator": {"method": "loo"},
    }),
    "eval_bootstrap_corrected.json": ("eval", {
        "dataset": "@data", "seed": 27,
        "trainer": {"name": "tree", "params": {"max_depth": 2}},
        "estimator": {"method": "bootstrap_corrected", "m_rounds": 5},
    }),
    "eval_e632.json": ("eval", {
        "problem": "@problem", "n": 40, "seed": 28, "transform": "select:1",
        "trainer": {"name": "logistic", "params": {"lambda": 0.01, "max_iters": 30}},
        "estimator": {"method": "e632", "m_rounds": 5},
    }),
    "curve_learning.csv": ("curve", {
        "problem": "@problem", "seed": 29, "trainer": {"name": "lda"},
        "curve": {"kind": "learning", "sizes": [10, 20], "repeats": 2, "n_test_mc": 500},
    }),
    "curve_feature_mc.csv": ("curve", {
        "problem": "@problem", "seed": 30, "trainer": {"name": "least_squares"},
        "curve": {"kind": "feature", "dims": [1, 2, 3], "repeats": 2, "n_train": 30,
                  "n_test_mc": 500},
    }),
    "curve_feature_cv.csv": ("curve", {
        "dataset": "@data", "seed": 31, "trainer": {"name": "knn", "params": {"k": 3}},
        "curve": {"kind": "feature", "dims": [1, 3], "repeats": 2, "folds": 3},
    }),
    "train_pipeline.json": ("train", {
        "dataset": "@data", "seed": 32, "transform": "standardize",
        "trainer": {"name": "logistic", "params": {"max_iters": 30, "tolerance": 1e-4}},
    }),
    "train_net.json": ("train", {
        "dataset": "@data", "seed": 33,
        "trainer": {"name": "net", "params": {"hidden_units": 2, "max_iters": 30,
                                              "output_activation": "logistic_sigmoid"}},
    }),
    # captured from the kernel ridge fit that refitted on every complement
    "bench_loo.csv": ("bench", {
        "problem": "@problem", "n": 60, "seed": 34, "trainers": [
            {"name": "kernel_ridge", "params": {"kernel": "rbf", "sigma": 1.5, "lambda": 0.5}},
            {"name": "kernel_ridge",
             "params": {"kernel": "poly2_inhomogeneous", "lambda": 0.01}},
            {"name": "least_squares"},
            {"name": "knn", "params": {"k": 3}},
        ],
        "estimator": {"method": "loo"},
    }),
}


def run_golden_cases(workdir):
    """Run every golden case in order; return {output file name: bytes}."""
    problem = workdir / "problem2d.json"
    problem.write_text(json.dumps(PROBLEM_2D), encoding="utf-8")
    places = {"@problem": str(problem), "@data": str(workdir / "gen.csv")}
    outputs = {}
    for out, (command, cfg) in GOLDEN_CASES.items():
        cfg = {k: places.get(v, v) if isinstance(v, str) else v for k, v in cfg.items()}
        assert run(workdir, command, {**cfg, "out": str(workdir / out)}) == 0, out
        outputs[out] = (workdir / out).read_bytes()
        report = workdir / (Path(out).stem + ".report.json")
        if command == "train":
            outputs[report.name] = report.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    return run_golden_cases(tmp_path_factory.mktemp("golden"))


GOLDEN_DIR = Path(__file__).parent / "fixtures" / "cli"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_outputs_match_golden_bytes(golden_outputs, name):
    assert golden_outputs[name] == (GOLDEN_DIR / name).read_bytes()


# Each config is wrong in one JSON type; all must exit 2 with a one-line message.
BAD_CONFIGS = {
    "top_level_list": ("eval", ["problem.json"]),
    "trainer_is_a_string": ("eval", {"trainer": "lda"}),
    "params_is_a_list": ("eval", {"trainer": {"name": "lda", "params": [1]}}),
    "null_bandwidth": ("eval", {"trainer": {"name": "parzen", "params": {"bandwidth": None}}}),
    "string_bool": ("eval", {"trainer": {"name": "lda", "params": {"laplace_priors": "false"}}}),
    "fractional_k": ("eval", {"estimator": {"method": "kfold", "k": 2.7}}),
    "sizes_not_a_list": ("curve", {"curve": {"kind": "learning", "sizes": 5}}),
}


def small_config(workdir, command):
    """A valid, cheap config for eval, bench or curve."""
    base = {"problem": str(workdir / "problem.json"), "seed": 1, "out": str(workdir / "out")}
    if command == "eval":
        return {**base, "n": 20, "transform": "standardize",
                "trainer": {"name": "knn", "params": {"k": 3}},
                "estimator": {"method": "kfold", "k": 2, "stratified": True}}
    if command == "bench":
        return {**base, "n": 20,
                "trainers": [{"name": "lda"}, {"name": "parzen", "params": {"bandwidth": 0.5}}],
                "estimator": {"method": "holdout", "test_fraction": 0.3}}
    return {**base, "trainer": {"name": "lda"},
            "curve": {"kind": "learning", "sizes": [10, 20], "repeats": 1, "n_test_mc": 100}}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_wrong_json_type_exits_2(workdir, capsys, case):
    command, patch = BAD_CONFIGS[case]
    assert run(workdir, command, small_config(workdir, command)) == 0
    capsys.readouterr()
    cfg = patch if isinstance(patch, list) else {**small_config(workdir, command), **patch}
    assert run(workdir, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_a_deeply_nested_config_exits_2(workdir, capsys):
    # json.load gives up with a RecursionError, a RuntimeError; the input is at fault
    path = workdir / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["eval", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def problem_config(workdir, command, problem):
    """A valid, cheap config for gen, eval, bench or curve that reads ``problem``."""
    path = workdir / "tried_problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    return {**small_config(workdir, command), "n": 20, "problem": str(path)}


# Each problem file is wrong in one JSON type, the whole file included: all must
# exit 2 with a one-line message naming the field.  (patch or whole file, field)
BAD_PROBLEMS = {
    "null_prior": ({"prior_pos": None}, "'prior_pos'"),
    "list_prior": ({"prior_pos": [0.5]}, "'prior_pos'"),
    "string_prior": ({"prior_pos": "0.5"}, "'prior_pos'"),
    "boolean_prior": ({"prior_pos": True}, "'prior_pos'"),
    "object_mean": ({"mean_pos": {"a": 1}}, "'mean_pos'"),
    "string_in_mean": ({"mean_pos": ["1"]}, "'mean_pos'"),
    "bare_number_mean": ({"mean_pos": 1.0}, "'mean_pos'"),
    "object_cov": ({"cov_pos": {"a": 1}}, "'cov_pos'"),
    "boolean_in_cov": ({"cov_pos": [[True]]}, "'cov_pos'"),
    "top_level_list": ([PROBLEM], "the problem file"),
}


@pytest.mark.parametrize("command", ["gen", "eval"])
@pytest.mark.parametrize("case", list(BAD_PROBLEMS))
def test_wrong_json_type_in_the_problem_file_exits_2(workdir, capsys, case, command):
    patch, field = BAD_PROBLEMS[case]
    problem = patch if isinstance(patch, list) else {**PROBLEM, **patch}
    assert run(workdir, command, problem_config(workdir, command, problem)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and field in err


def test_a_rejected_value_is_echoed_cut_short(workdir, capsys):
    # a problem file written as a top-level list would otherwise print itself whole
    cfg = problem_config(workdir, "gen", [PROBLEM] * 20)
    assert run(workdir, "gen", cfg) == 2
    err = capsys.readouterr().err
    assert err == "config error: the problem file must be a JSON object, got [{'prior_pos': 0.5, 'mean_pos': [1.0]...\n"


@pytest.mark.parametrize("command", ["gen", "eval"])
def test_a_deeply_nested_problem_file_exits_2(workdir, capsys, command):
    cfg = problem_config(workdir, command, PROBLEM)
    Path(cfg["problem"]).write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run(workdir, command, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


# Each config breaks one usage rule of the driver: exit 2, naming the rule.
# (command, keys to set, keys to drop, message); "@data" is a small CSV file.
# gen and train start from the curve config, which has no "n".
USAGE_ERROR_CONFIGS = {
    "missing_required_key": ("gen", {}, (), "config needs 'n'"),
    "unknown_parameters": ("eval", {"trainer": {"name": "lda", "params": {"ridge": 1.0}}}, (),
                           "unknown parameters for trainer 'lda': ['ridge']"),
    "bayes_without_a_problem": ("eval", {"dataset": "@data", "trainer": {"name": "bayes"}},
                                ("problem", "n"), "trainer 'bayes' needs a problem, not a dataset"),
    "negative_seed": ("eval", {"seed": -1}, (), "seed must be a nonnegative integer"),
    "problem_and_dataset": ("eval", {"dataset": "@data"}, (),
                            "config needs exactly one of 'problem' or 'dataset'"),
    "neither_problem_nor_dataset": ("eval", {}, ("problem",),
                                    "config needs exactly one of 'problem' or 'dataset'"),
    "noise_without_a_dataset": ("curve", {"transform": "noise:1"}, (),
                                "noise transforms need a dataset to apply to"),
    "bayes_under_train": ("train", {"n": 20, "trainer": {"name": "bayes"}}, (),
                          "the bayes oracle is not trainable; use it via bench"),
}


@pytest.mark.parametrize("case", list(USAGE_ERROR_CONFIGS))
def test_usage_error_exits_2_naming_the_rule(workdir, capsys, case):
    command, patch, drop, message = USAGE_ERROR_CONFIGS[case]
    (workdir / "data.csv").write_text("x,label\n0.0,-1\n1.0,1\n2.0,-1\n3.0,1\n", encoding="utf-8")
    patch = {k: str(workdir / "data.csv") if v == "@data" else v for k, v in patch.items()}
    cfg = {k: v for k, v in {**small_config(workdir, command), **patch}.items() if k not in drop}
    assert run(workdir, command, cfg) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# Each width or offset is no float, or would overflow or underflow to 0 when squared.
OUT_OF_RANGE_CONFIGS = {
    "parzen_integer_bandwidth_beyond_floats": {"name": "parzen", "params": {"bandwidth": 10**400}},
    "parzen_huge_bandwidth": {"name": "parzen", "params": {"bandwidth": 1e200}},
    "parzen_tiny_bandwidth": {"name": "parzen", "params": {"bandwidth": 1e-200}},
    "rbf_huge_sigma": {"name": "kernel_ridge", "params": {"sigma": 1e200, "lambda": 0.1}},
    "poly2_huge_offset": {
        "name": "kernel_ridge",
        "params": {"kernel": "poly2_inhomogeneous", "c": 1e200, "lambda": 0.1},
    },
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_CONFIGS))
def test_out_of_range_width_or_offset_exits_2(workdir, capsys, case):
    cfg = {**small_config(workdir, "eval"), "trainer": OUT_OF_RANGE_CONFIGS[case]}
    assert run(workdir, "eval", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


NAN, INF = float("nan"), float("inf")  # json.dumps writes these as NaN and Infinity

# Each trainer gives a non-finite number or names an unknown kind: exit 2, naming the value.
BAD_VALUE_CONFIGS = {
    "lda_nan_ridge": ({"name": "lda", "params": {"ridge_cov": NAN}},
                      "trainer 'lda' 'ridge_cov' must be a finite JSON number, got nan"),
    "logistic_nan_lambda": ({"name": "logistic", "params": {"lambda": NAN}},
                            "trainer 'logistic' 'lambda' must be a finite JSON number, got nan"),
    "logistic_infinite_lambda": (
        {"name": "logistic", "params": {"lambda": INF}},
        "trainer 'logistic' 'lambda' must be a finite JSON number, got inf",
    ),
    "hinge_nan_step": (
        {"name": "linear", "params": {"loss": "hinge", "step_size": NAN}},
        "trainer 'linear' 'step_size' must be a finite JSON number, got nan",
    ),
    "least_squares_nan_lambda": (
        {"name": "least_squares", "params": {"lambda": NAN}},
        "trainer 'least_squares' 'lambda' must be a finite JSON number, got nan",
    ),
    "kernel_ridge_nan_lambda": (
        {"name": "kernel_ridge", "params": {"lambda": NAN}},
        "trainer 'kernel_ridge' 'lambda' must be a finite JSON number, got nan",
    ),
    "net_nan_learning_rate": (
        {"name": "net", "params": {"learning_rate": NAN}},
        "trainer 'net' 'learning_rate' must be a finite JSON number, got nan",
    ),
    "unknown_kernel": ({"name": "kernel_ridge", "params": {"kernel": "nope", "lambda": 0.1}},
                       "unknown kernel 'nope'"),
    "unknown_hidden_activation": ({"name": "net", "params": {"hidden_activation": "tanh"}},
                                  "unknown hidden activation 'tanh'"),
    "unknown_output_activation": ({"name": "net", "params": {"output_activation": "tanh"}},
                                  "unknown output activation 'tanh'"),
}


@pytest.mark.parametrize("case", list(BAD_VALUE_CONFIGS))
def test_non_finite_number_or_unknown_kind_exits_2(workdir, capsys, case):
    trainer, message = BAD_VALUE_CONFIGS[case]
    assert run(workdir, "eval", {**small_config(workdir, "eval"), "trainer": trainer}) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_seed_and_out_flags_override_the_config(workdir):
    cfg = {"problem": str(workdir / "problem.json"), "n": 30, "seed": 0,
           "out": str(workdir / "config_out.csv")}
    path = workdir / "gen.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    flagged = workdir / "flagged.csv"
    assert main(["gen", "--config", str(path), "--seed", "7", "--out", str(flagged)]) == 0
    assert not (workdir / "config_out.csv").exists()
    assert run(workdir, "gen", {**cfg, "seed": 7, "out": str(workdir / "seeded.csv")}) == 0
    assert flagged.read_bytes() == (workdir / "seeded.csv").read_bytes()
    assert run(workdir, "gen", cfg) == 0
    assert flagged.read_bytes() != (workdir / "config_out.csv").read_bytes()


def test_memory_error_exits_3(workdir, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("claslab.cli.sample", no_memory)
    cfg = {"problem": str(workdir / "problem.json"), "n": 10**12, "out": str(workdir / "x.csv")}
    assert run(workdir, "gen", cfg) == 3
    assert capsys.readouterr().err == "error: MemoryError\n"


def _json_paths(value, prefix=()):
    """Every path into a JSON value, the empty path (the value itself) included."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3.0, 3.0, allow_nan=False) | st.text(max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def hypothesis_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("hypothesis")
    (workdir / "problem.json").write_text(json.dumps(PROBLEM), encoding="utf-8")
    return workdir


def one_value_swapped(data, value):
    """``value`` with one value in it, itself included, swapped for one of another JSON type."""
    path = data.draw(st.sampled_from(list(_json_paths(value))))
    old = value
    for key in path:
        old = old[key]
    # a value of another JSON type, so no size or iteration count can grow
    new = data.draw(_JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    return _replaced(value, path, new)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["eval", "bench", "curve"]))
def test_any_wrong_json_type_keeps_the_exit_code_contract(hypothesis_dir, data, command):
    cfg = one_value_swapped(data, small_config(hypothesis_dir, command))
    assert run(hypothesis_dir, command, cfg) in (0, 2, 3)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["gen", "eval", "bench", "curve"]))
def test_any_wrong_json_type_in_the_problem_file_keeps_the_exit_code_contract(
    hypothesis_dir, data, command
):
    cfg = problem_config(hypothesis_dir, command, one_value_swapped(data, PROBLEM))
    assert run(hypothesis_dir, command, cfg) in (0, 2, 3)


README = Path(__file__).resolve().parents[1] / "README.md"
TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
              list[int]: "list of integers", list[float]: "list of numbers",
              list[list[float]]: "list of lists of numbers"}


def readme_table(heading):
    """{first-column name: second cell} of the table under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = [ln.split(" | ") for ln in section.splitlines() if ln.startswith("| `")]
    return {row[0][len("| `"):-1]: row[1].rstrip(" |") for row in rows}


def schema_text(schema):
    return ", ".join(
        f"`{key}` {TYPE_NAMES[type_]}"
        + (", required" if default is REQUIRED else f" = {json.dumps(default)}")
        for key, (type_, default) in schema.items()
    ) or "none"


@pytest.mark.parametrize(
    "heading, table",
    [("Trainers", TRAINERS), ("Estimators", ESTIMATORS), ("Curves", CURVES),
     ("Problem file", PROBLEM_FIELDS)],
)
def test_readme_lists_every_registry_entry_with_its_schema(heading, table):
    documented = readme_table(heading)
    assert list(documented) == list(table)
    for name, entry in table.items():
        # a registry entry is (schema, builder); a problem field is its type
        text = schema_text(entry[0]) if isinstance(entry, tuple) else TYPE_NAMES[entry]
        assert documented[name] == text, name


def test_readme_lists_every_transform():
    # the registry keys a step that takes an argument with its ":"
    names = {name.split(":")[0] + ":" * (":" in name) for name in readme_table("Transforms")}
    assert names == set(TRANSFORMS)


# registry entry -> the functions and dataclasses its parameters feed, searched in order
FEEDS = {
    ("TRAINERS", "lda"): [fit_lda],
    ("TRAINERS", "logistic"): [train_logistic, TrainConfig],
    ("TRAINERS", "least_squares"): [train_least_squares],
    ("TRAINERS", "linear"): [TrainConfig],
    ("TRAINERS", "kernel_ridge"): [Kernel],
    ("TRAINERS", "tree"): [fit_tree],
    ("TRAINERS", "bagging"): [TreeConfig],
    ("TRAINERS", "random_subspace"): [TreeConfig],
    ("TRAINERS", "net"): [NetTrainConfig],
    ("ESTIMATORS", "holdout"): [holdout_error],
    ("ESTIMATORS", "kfold"): [kfold_cv],
    ("CURVES", "feature"): [feature_curve],
}
# schema defaults for parameters that the library asks every caller to give
CLI_ONLY = {
    "TRAINERS.kernel_ridge.kernel", "ESTIMATORS.holdout.test_fraction", "ESTIMATORS.kfold.k",
    "ESTIMATORS.bootstrap_corrected.m_rounds", "ESTIMATORS.e632.m_rounds",
    "CURVES.learning.repeats", "CURVES.learning.n_test_mc", "CURVES.feature.repeats",
}
SCHEMA_DEFAULTS = {
    f"{registry}.{name}.{key}": (FEEDS.get((registry, name), []), key, default)
    for registry, table in [("TRAINERS", TRAINERS), ("ESTIMATORS", ESTIMATORS),
                            ("CURVES", CURVES)]
    for name, (schema, _) in table.items()
    for key, (_, default) in schema.items()
    if default is not REQUIRED
}


def library_default(targets, keyword):
    """The default the first target that takes ``keyword`` gives it, else REQUIRED."""
    for target in targets:
        if dataclasses.is_dataclass(target):
            defaults = {f.name: f.default for f in dataclasses.fields(target)}
            missing = dataclasses.MISSING
        else:
            defaults = {k: p.default for k, p in inspect.signature(target).parameters.items()}
            missing = inspect.Parameter.empty
        if keyword in defaults:
            return REQUIRED if defaults[keyword] is missing else defaults[keyword]
    return REQUIRED


@pytest.mark.parametrize("case", sorted(SCHEMA_DEFAULTS))
def test_schema_default_is_the_library_default(case):
    targets, key, default = SCHEMA_DEFAULTS[case]
    fed = library_default(targets, _KWARGS.get(key, key))
    if case in CLI_ONLY:
        assert fed is REQUIRED
    else:
        assert type(fed) is type(default) and fed == default
