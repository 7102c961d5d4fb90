"""claslab benchmark: run one workload and print its metrics as a JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports claslab from
``src/`` and exits with code 2 when it is missing.  Each run uses fresh
processes and no third-party module in this one:

* ``setup_s``: the median wall time of three fresh processes that each
  import claslab (with numpy and scipy) and write the workload's inputs.
* one worker process runs an untimed warm-up op, then a closed loop of ops
  (one client, next op when the last one ended) for S seconds.

With ``--trace 0`` the metrics are the end-to-end ones: ``op_p50_s``,
``ops_per_s``, ``peak_rss_mb`` (``ru_maxrss`` of the worker), ``ok_ratio``
(ops that exited 0 and passed their output checks / ops attempted) and
``setup_s``.  With ``--trace 1`` they are the per-layer ones, from a traced
copy of each op.  Per-op latencies, the tail percentile, environment and
failures go to ``.bench_out/<workload>-seed<N>-trace<T>.json``; the spans of
a traced run go next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("curve_affine", "curve_memory", "resample_fit", "iterative_io")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this


def tail(latencies):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(latencies)[n - 11], "ops": n}


def child_env(nproc: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("PYTHONPATH", None)
    return env


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies_s"]
    return {
        "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "ops_per_s": {"value": res["completed"] / res["timed_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one claslab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not (ROOT / "src" / "claslab" / "__init__.py").is_file():
        print(f"error: no claslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{tag}.spans.json"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, str(WORKER), "setup", *common, "--dir", str(work / f"setup{k}")],
                env=env, check=True, timeout=60, stdout=subprocess.DEVNULL,
            )
            setup_times.append(time.perf_counter() - t0)
        cmd = [
            sys.executable, str(WORKER), "run", *common,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--dir", str(work / f"setup{SETUP_REPEATS - 1}"),
        ]
        if args.trace:
            cmd += ["--spans", str(spans_path)]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(
            cmd, env=env, timeout=remaining, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    setup_s = statistics.median(setup_times)
    clean = not res["tracer_loaded"] if not args.trace else not res["leftover_wrappers"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs_s": setup_times,
        "tail": tail(res["latencies_s"]),
        **res,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env_info = res["env"]
    print(
        f"env: nproc={env_info['nproc']} blas_threads={env_info['blas_thread_cap']} "
        f"python={env_info['python']} numpy={env_info['numpy']} scipy={env_info['scipy']} "
        f"blas={env_info['blas']} seed={args.seed} ops={len(res['latencies_s'])}"
    )
    for failure in res["failures"]:
        print(f"failed op: {json.dumps(failure)}")
    metrics = res["layers"] if args.trace else end_to_end(res, setup_s)
    print(json.dumps({
        "correct": res["failed"] == 0 and clean,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
