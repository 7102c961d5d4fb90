"""Tests of the benchmark itself: inputs, op determinism, checks and the tracer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import spantrace
import workloads as wl
import worker

SEED = 3


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_same_seed_generates_identical_inputs(tmp_path):
    for workload in wl.WORKLOADS.values():
        a, b, c = (tmp_path / workload.name / k for k in "abc")
        wl.write_inputs(workload, SEED, a)
        wl.write_inputs(workload, SEED, b)
        wl.write_inputs(workload, SEED + 1, c)
        same = {k: v.replace(bytes(str(b), "utf-8"), bytes(str(a), "utf-8")) for k, v in snapshot(b).items()}
        assert same == snapshot(a)
        problem = f"{workload.problem}.json"
        assert snapshot(a)[problem] != snapshot(c)[problem]


@pytest.fixture(scope="module")
def op_runs(tmp_path_factory):
    """Op 0 of every workload, run twice in one directory: (dir, ctx, first, second)."""
    cli = worker.import_cli()
    runs = {}
    for workload in wl.WORKLOADS.values():
        workdir = tmp_path_factory.mktemp(workload.name)
        ctx = wl.write_inputs(workload, SEED, workdir)
        outputs = []
        for _ in range(2):
            _, problems = worker.run_op(cli, workload, workdir, wl.op_seed(SEED, 0))
            assert problems == []
            outputs.append(snapshot(workdir))
        runs[workload.name] = (workdir, ctx, *outputs)
    return runs


def test_repeated_op_writes_identical_outputs(op_runs):
    for name, (_, _, first, second) in op_runs.items():
        workload = wl.WORKLOADS[name]
        assert {step.out for step in workload.steps} <= set(first), name
        assert first == second, name


def test_outputs_pass_their_checks(op_runs):
    for name, (workdir, ctx, _, _) in op_runs.items():
        assert wl.check_outputs(wl.WORKLOADS[name], workdir, ctx) == [], name


def test_checks_catch_wrong_outputs(op_runs):
    workdir, ctx, first, _ = op_runs["resample_fit"]
    workload = wl.WORKLOADS["resample_fit"]
    loo = workdir / "loo.csv"
    try:
        # the Bayes rule's LOO error pushed far above the floor
        lines = first["loo.csv"].decode().splitlines()
        name, method, n, _, std = lines[1].split(",")
        lines[1] = ",".join([name, method, n, repr(min(1.0, ctx["floor"] + 0.2)), std])
        loo.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert any("off the floor" in p for p in wl.check_outputs(workload, workdir, ctx))
        # an error outside [0, 1]
        lines[2] = lines[2].rsplit(",", 2)[0] + ",1.5,0.0"
        loo.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert any("out of range" in p for p in wl.check_outputs(workload, workdir, ctx))
    finally:
        loo.write_bytes(first["loo.csv"])

    workdir, ctx, first, _ = op_runs["curve_affine"]
    curve = workdir / "lda.csv"
    try:
        lines = first["lda.csv"].decode().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("learning_true,"))
        kind, absc, _, std, reps = lines[row].split(",")
        lines[row] = ",".join([kind, absc, repr(ctx["floor"] / 2), std, reps])
        curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems = wl.check_outputs(wl.WORKLOADS["curve_affine"], workdir, ctx)
        assert any("below Bayes floor" in p for p in problems)
    finally:
        curve.write_bytes(first["lda.csv"])


def test_self_time_arithmetic_on_a_synthetic_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spantrace.Tracer(clock=lambda: next(ticks))
    op = tracer.begin("op")  # 0 .. 10
    a = tracer.begin("fit.lda")  # 1 .. 4
    a1 = tracer.begin("data.subset")  # 2 .. 3
    tracer.end(a1)
    tracer.end(a)
    b = tracer.begin("predict.lda")  # 5 .. 9
    tracer.end(b)
    tracer.end(op)
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    calls, self_s, incl_s = tracer.totals()
    assert calls["fit.lda"] == 1 and self_s["op"] == 3.0 and incl_s["fit.lda"] == 3.0


def test_wrappers_cover_every_binding_and_are_removed():
    import claslab.cli
    import claslab.ensembles
    import claslab.evaluation
    import claslab.generative

    originals = {
        "cli.sample": claslab.cli.sample,
        "evaluation.true_error": claslab.evaluation.true_error,
        "ensembles.fit_tree": claslab.ensembles.fit_tree,
        "LdaModel.decision_function": claslab.generative.LdaModel.decision_function,
    }
    assert spantrace.installed_wrappers() == []
    with spantrace.Tracer() as tracer:
        assert claslab.cli.sample is not originals["cli.sample"]
        assert claslab.evaluation.true_error.__wrapped__ is originals["evaluation.true_error"]
        assert claslab.ensembles.fit_tree.__wrapped__ is originals["ensembles.fit_tree"]
        wrapped = spantrace.installed_wrappers()
        assert {"claslab.cli.sample", "claslab.oracle.sample", "claslab.sample"} <= set(wrapped)
        assert "claslab.generative.LdaModel.decision_function" in wrapped
    assert tracer.spans == []
    assert spantrace.installed_wrappers() == []
    assert claslab.cli.sample is originals["cli.sample"]
    assert claslab.evaluation.true_error is originals["evaluation.true_error"]
    assert claslab.ensembles.fit_tree is originals["ensembles.fit_tree"]
    assert claslab.generative.LdaModel.decision_function is originals["LdaModel.decision_function"]


def test_traced_op_self_times_sum_to_its_wall_time(tmp_path):
    cli = worker.import_cli()
    workload = wl.WORKLOADS["curve_affine"]
    ctx = wl.write_inputs(workload, SEED, tmp_path)
    tracer = spantrace.Tracer()
    with tracer:
        root = tracer.begin("op")
        wall, problems = worker.run_op(cli, workload, tmp_path, wl.op_seed(SEED, 0))
        tracer.end(root)
    assert spantrace.installed_wrappers() == []
    assert problems == [] and wl.check_outputs(workload, tmp_path, ctx) == []
    _, _, t0, t1 = tracer.spans[root]
    assert sum(tracer.self_times()) == pytest.approx(t1 - t0, abs=1e-9)
    assert t1 - t0 == pytest.approx(wall, abs=0.01 + 0.01 * wall)
    names = {span[0] for span in tracer.spans}
    assert {"cli", "evaluation.learning_curve", "oracle.true_error", "oracle.sample",
            "fit.lda", "fit.logistic", "predict.lda", "predict.linear"} <= names
    metrics = spantrace.layer_metrics(tracer, 1)
    assert metrics["oracle.true_error.mc_points"][0] == 54 * wl.N_MC
    assert metrics["fit.gd.iterations"][0] > 0


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = set(spantrace.layer_metrics(spantrace.Tracer(), 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
