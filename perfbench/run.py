"""Benchmark of fielddesign: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The runner draws the seeded inputs,
times the import of the package in fresh interpreters (set-up), starts
the worker that runs the workload's operations against `src/`, checks
every answer against the independent reference, and prints a summary
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The runner itself never imports fielddesign.
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from inputs import make_inputs, write_cli_files  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "arrays.self_s": "s", "arrays.orbits_enumerated": "count",
    "model.self_s": "s", "model.triples_scored": "count",
    "model.component_blocks": "count", "model.pinv_calls": "count",
    "model.fraction_pinv_s": "s",
    "optimality.self_s": "s", "optimality.solver_steps": "count",
    "optimality.pool_size": "count", "optimality.support_size": "count",
    "optimality.measure_atoms": "count", "optimality.verify_s": "s",
    "designs.self_s": "s", "designs.swap_evaluations": "count",
    "designs.construct_s": "s", "designs.efficiency_s": "s",
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.main_s": "s",
    "traced.wall_s": "s",
}

# the import time less the speed probes, scaled to the reference speed (speed.py)
IMPORT_PROBE = ("import sys, time; sys.path.append(sys.argv[1]); import speed; "
                "s = speed.Sampler(); s.start(); t = time.perf_counter(); "
                "import fielddesign, fielddesign.cli; "
                "t1 = time.perf_counter(); s.stop(); "
                "print((t1 - t - s.spent) * s.factor(t, t1))")


def measure_setup(env: dict) -> float:
    """Median import time of fielddesign and its CLI in fresh interpreters,
    at the reference machine speed."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(HERE)]
    times = [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                                  text=True, timeout=60).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def run_worker(args, env: dict, inputs_path: Path, out_path: Path, budget: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--inputs", str(inputs_path), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_path)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {budget:.0f} s")
    finally:
        # also reached when the runner itself is interrupted or terminated
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(out + err)
        raise SystemExit(f"worker exited with code {proc.returncode}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    start = perf_counter()
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fielddesign" / "__init__.py").is_file():
        print(f"error: no fielddesign sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(args.seed)
        write_cli_files(inputs, work)
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        # warm bytecode caches for every fresh interpreter the run starts
        compileall.compile_dir(SRC / "fielddesign", quiet=1)
        setup_s = None if args.trace else measure_setup(env)
        out_path = work / "worker.json"
        run_worker(args, env, inputs_path, out_path, DEADLINE_S - (perf_counter() - start))
        report = json.loads(out_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    ops = workloads.operations(args.workload)
    checker = Checker(inputs)
    results = report["results"]
    problems = []
    for op in ops:
        problems += [f"{op['name']}: {p}"
                     for p in checker.check(op, results[op["name"]], results)]
    if args.workload == "certify":
        problems += checker.check_type_h_scaling(results, ops)
    problems += [f"{name}: result changed between rounds" for name in report["changed"]]

    # per-operation medians; each distinct operation counts once
    medians = [statistics.median(ts) for ts in report["times"].values()]
    raw_wall = sum(statistics.median(ts) for ts in report["raw_times"].values())
    samples = sum(len(ts) for ts in report["times"].values())
    if args.trace:
        values = {key: report["trace"][key] for key in PER_LAYER}
        units = PER_LAYER
    else:
        values = {"setup_s": setup_s,
                  "wall_s": sum(medians),
                  "op_p50_s": statistics.median(medians),
                  "peak_rss_mb": report["peak_rss_kb"] / 1024}
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  rounds {report['rounds']}  "
          f"attempted {report['attempted']}  failed {report['failed']}  "
          f"operations {len(medians)}  samples {samples}  "
          f"unscaled pass {raw_wall:.6g} s  median probe {report['probe_s'] * 1e3:.4g} ms")
    for key, value in values.items():
        print(f"  {key:<28} {value:.6g} {units[key]}")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
