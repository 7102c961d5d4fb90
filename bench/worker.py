"""One fresh process of a benchmark run; started by ``run.py``.

    python3 bench/worker.py setup --workload W --seed N --dir D
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 --dir D [--spans F]

``setup`` imports claslab (with numpy and scipy) and writes the workload's
inputs and Bayes floor to D; ``run.py`` times it from outside.  ``run``
reads those inputs, runs one untimed warm-up op and then a closed loop of
ops, one client, until S seconds have passed, driving ``claslab.cli.main``
in-process.  With ``--trace 1`` each op runs once plain and once under the
tracer, with the same op seed, and the tracer is installed only around the
traced copy.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402  (needs the path set above)


def import_cli():
    """Import claslab from this checkout's ``src`` and nowhere else."""
    import claslab.cli

    if Path(claslab.__file__).resolve().parent != SRC / "claslab":
        raise SystemExit(f"claslab was imported from {claslab.__file__}, not {SRC}")
    return claslab.cli


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_context(workload, workdir: Path) -> dict:
    problem = json.loads((workdir / f"{workload.problem}.json").read_text(encoding="utf-8"))
    floor = json.loads((workdir / "floor.json").read_text(encoding="utf-8"))
    return {"problem": problem, "floor": floor["floor"], "floor_std": floor["floor_std"]}


def run_op(cli, workload, workdir: Path, seed: int):
    """Run every step of one op; return (wall seconds, list of problems)."""
    sink = io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for step in workload.steps:
                code = cli.main(wl.step_argv(step, workdir, seed))
                if code != 0:
                    problems.append(f"{step.command} {step.config} exited {code}")
                    break
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    if problems:
        problems.append(sink.getvalue()[-500:])
    return wall, problems


def timed_loop(cli, workload, workdir, ctx, seed, seconds, tracer):
    """Closed loop of ops until ``seconds`` have passed; at least one op."""
    plain, traced, failures = [], [], []

    def one(index, tracer_for_op):
        op = wl.op_seed(seed, index)
        if tracer_for_op is None:
            wall, problems = run_op(cli, workload, workdir, op)
        else:
            with tracer_for_op:
                root = tracer_for_op.begin("op")
                wall, problems = run_op(cli, workload, workdir, op)
                tracer_for_op.end(root)
        problems = problems or wl.check_outputs(workload, workdir, ctx)
        if problems:
            failures.append({"op": index, "traced": tracer_for_op is not None, "problems": problems})
        return wall, not problems

    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        wall, ok = one(index, None)
        plain.append((wall, ok))
        if tracer is not None:
            traced.append(one(index, tracer))
        index += 1
    return plain, traced, failures


def cmd_setup(args) -> int:
    import_cli()
    wl.write_inputs(wl.WORKLOADS[args.workload], args.seed, Path(args.dir))
    return 0


def cmd_run(args) -> int:
    cli = import_cli()
    workload = wl.WORKLOADS[args.workload]
    workdir = Path(args.dir)
    ctx = load_context(workload, workdir)
    warm_wall, warm_problems = run_op(cli, workload, workdir, wl.op_seed(args.seed, -1))
    warm_problems = warm_problems or wl.check_outputs(workload, workdir, ctx)

    tracer = None
    if args.trace:
        import spantrace

        tracer = spantrace.Tracer()
    plain, traced, failures = timed_loop(cli, workload, workdir, ctx, args.seed, args.seconds, tracer)
    attempted = len(plain) + len(traced)
    if warm_problems:
        failures.insert(0, {"op": -1, "traced": False, "problems": warm_problems})
        attempted += 1
    lat = [wall for wall, _ in plain]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "warmup_s": warm_wall,
        "latencies_s": lat,
        "completed": sum(ok for _, ok in plain),
        "timed_s": sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": versions(),
        "inputs": workload.inputs(),
    }
    if tracer is not None:
        import spantrace

        result["leftover_wrappers"] = spantrace.installed_wrappers()
        layers = spantrace.layer_metrics(tracer, len(traced))
        overhead = statistics.median(t - p for (t, _), (p, _) in zip(traced, plain))
        layers["trace.overhead_s"] = (overhead, "s")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["traced_latencies_s"] = [wall for wall, _ in traced]
        if args.spans:
            Path(args.spans).write_text(json.dumps({"spans": tracer.spans}) + "\n", encoding="utf-8")
    # an untraced run never imports the tracer, so none can be in its call path
    result["tracer_loaded"] = "spantrace" in sys.modules
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
