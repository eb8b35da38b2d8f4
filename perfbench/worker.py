"""Runs one workload's operations against fielddesign and records them.

    python3 perfbench/worker.py --workload W --inputs F --seconds S --trace 0|1 --out F

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP pools pinned to one thread.  Operations run one at a time in
whole rounds (see workloads.schedule) until the round that ends past
--seconds.  Each execution is timed alone and scaled to the reference
machine speed (speed.py): in-process operations by the probes this process
takes while they run, CLI operations by those of the CLI process.
Encoding a result for the checks happens outside the timed region.  The
first result of each operation is written out in full, later ones are only
compared with it.
With tracing, per-layer figures are given per round.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import numpy as np  # noqa: E402

import fielddesign  # noqa: E402
from fielddesign import arrays, designs, model, optimality  # noqa: E402

import workloads  # noqa: E402
from inputs import COMPANION_428, OPTIMAL_232  # noqa: E402
from speed import Sampler, scale  # noqa: E402
from tracer import Tracer  # noqa: E402


# where clirun.py writes the speed, and the trace, of its CLI process
CLI_STATS = "cli-stats.json"


class OpFailed(Exception):
    """The operation could not produce a checkable answer."""


def enc(v):
    """Fractions as 'n/d' strings, every other number as a float."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def sigma_of(spec: dict, p: int, inputs: dict):
    kind = spec["kind"]
    if kind == "identity":
        return model.IDENTITY
    if kind == "type-h":
        return model.TypeH(Fraction(spec["x"]))
    if kind == "ar":
        k = np.arange(p)
        return model.GeneralCov.from_matrix(spec["rho"] ** np.abs(k[:, None] - k[None, :]))
    if spec["input"] == "eye":
        return model.GeneralCov.from_matrix(np.eye(p))
    return model.GeneralCov.from_matrix(inputs[spec["input"]])


def atoms_of(measure) -> list:
    return [[list(s.colex), enc(w)] for s, w in measure.items()]


# -- operations: each returns a thunk to time and an encoder for its output ----

def op_certify(op: dict, inputs: dict):
    shape = arrays.Shape(*op["shape"])
    sigma = sigma_of(op["sigma"], shape.p, inputs)

    def run():
        res = optimality.solve_closed_form(shape, sigma)
        if res.measure is None:
            raise OpFailed("solve_closed_form returned no measure to certify")
        report = optimality.verify_measure(res.measure, sigma, res.x_star, res.y_star)
        gap = None
        if arrays.orbit_count(shape) <= optimality.FULL_POOL_LIMIT:
            gap = optimality.equivalence_gap(
                res.measure, optimality.full_pool(shape), sigma)
        n = eff = None
        least = designs.min_n_symmetric(res.orbit_weights).n
        if least <= workloads.MAX_SYMMETRIC_N:
            n = least
            design = designs.expand_symmetric(res.orbit_weights, n)
            eff = designs.efficiencies(design, sigma, res.y_star)
        return res, report, gap, n, eff

    def encode(out):
        res, report, gap, n, eff = out
        return {"x": enc(res.x_star), "y": enc(res.y_star),
                "atoms": atoms_of(res.measure), "verdict": report.verdict,
                "gap": None if gap is None else enc(gap), "sym_n": n,
                "eff": None if eff is None else list(eff.astuple())}
    return run, encode


def op_design(op: dict, inputs: dict):
    doc = {"optimal_232": OPTIMAL_232, "companion_428": COMPANION_428}.get(
        op["design"]) or inputs[op["design"]]

    def run():
        design = designs.ExactDesign.from_json(doc)
        res = optimality.solve_closed_form(design.shape, model.IDENTITY)
        report = optimality.verify_measure(
            designs.measure_of_design(design), model.IDENTITY, res.x_star, res.y_star)
        eff = designs.efficiencies(design, model.IDENTITY, y_star=res.y_star)
        return res, report, eff

    def encode(out):
        res, report, eff = out
        return {"x": enc(res.x_star), "y": enc(res.y_star), "verdict": report.verdict,
                "eff": list(eff.astuple()), "eff_y": eff.y_star}
    return run, encode


def op_exchange(op: dict, inputs: dict):
    shape = arrays.Shape(*op["shape"])
    sigma = sigma_of(op["sigma"], shape.p, inputs)

    def run():
        return optimality.solve_exchange(shape, sigma)

    def encode(res):
        return {"x": enc(res.x_star), "y": enc(res.y_star), "converged": res.converged,
                "iterations": res.iterations, "gap": enc(res.gap),
                "atoms": atoms_of(res.measure)}
    return run, encode


def op_construct(op: dict, inputs: dict):
    shape, _ = arrays.normalize_shape(*op["shape"])
    sigma = sigma_of(op["sigma"], shape.p, inputs)

    def run():
        return designs.construct_exact(shape, op["n"], sigma, seed=op["seed"])

    def encode(out):
        design, report = out
        s = design.shape
        return {"shape": [s.a, s.b, s.t], "n": design.n,
                "blocks": [list(blk.colex) for blk in design.blocks],
                "eff": list(report.astuple()), "y": report.y_star}
    return run, encode


def op_cli(op: dict, inputs: dict, workdir: Path, trace: int):
    stats = workdir / CLI_STATS
    argv = [sys.executable, str(HERE / "clirun.py"), str(stats), str(trace), *op["argv"]]

    def run():
        stats.unlink(missing_ok=True)
        return subprocess.run(argv, cwd=workdir, capture_output=True, text=True,
                              timeout=120)

    def encode(proc):
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr[-2000:]}
    return run, encode


def warm_up(workload: str, workdir: Path) -> None:
    """Touch each layer once, untimed, so lazy initialisation is not measured."""
    if workload == "cli":
        subprocess.run([sys.executable, "-m", "fielddesign.cli", "enumerate",
                        "--a", "2", "--b", "2", "--t", "2"], cwd=workdir,
                       capture_output=True, timeout=120)
        return
    shape = arrays.Shape(2, 3, 2)
    res = optimality.solve_closed_form(shape)
    optimality.verify_measure(res.measure, model.IDENTITY, res.x_star, res.y_star)
    optimality.solve_exchange(shape, model.GeneralCov.from_matrix(np.eye(6)))
    designs.construct_exact(shape, 4)


def import_times(repeats: int = 3) -> tuple[float, float]:
    """Median import time of fielddesign.cli and of the scipy modules it
    pulls in, from `python -X importtime` in fresh interpreters."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fielddesign.cli"],
            capture_output=True, text=True, timeout=120, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|", 2)
            rows.append((int(self_us), int(cum_us), name.rstrip()))
        top = min(len(n) - len(n.lstrip()) for _, _, n in rows)
        totals.append(sum(c for _, c, n in rows if len(n) - len(n.lstrip()) == top
                          and n.strip().startswith("fielddesign")) / 1e6)
        scipys.append(sum(s for s, _, n in rows
                          if n.strip() == "scipy" or n.strip().startswith("scipy.")) / 1e6)
    return float(np.median(totals)), float(np.median(scipys))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    if not Path(fielddesign.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fielddesign imported from {fielddesign.__file__}, "
                         f"not from {ROOT / 'src'}")
    inputs = json.loads(args.inputs.read_text())
    workdir = args.inputs.parent
    ops = workloads.operations(args.workload)
    warm_up(args.workload, workdir)

    tracer = None
    cli_totals: dict = {}
    if args.trace and args.workload != "cli":
        tracer = Tracer()
        tracer.install()

    makers = {"certify": op_certify, "design": op_design, "exchange": op_exchange,
              "construct": op_construct}
    prepared = {}
    for op in ops:
        if op["kind"] == "cli":
            prepared[op["name"]] = op_cli(op, inputs, workdir, args.trace)
        else:
            prepared[op["name"]] = makers[op["kind"]](op, inputs)
    plan = workloads.schedule(ops)

    # per execution: (start, end, seconds outside the probes, probe time or None)
    spans = {op["name"]: [] for op in ops}
    first: dict[str, str] = {}
    results: dict[str, dict] = {}
    changed: set[str] = set()
    rounds = failed = 0
    # a CLI operation's speed is sampled in its own process
    sampler = Sampler()
    if args.workload != "cli":
        sampler.start()
    try:
        start = perf_counter()
        while True:
            for op in plan:
                run, encode = prepared[op["name"]]
                spent = sampler.spent
                t0 = perf_counter()
                try:
                    out = run()
                    error = None
                except OpFailed as exc:
                    error = {"error": str(exc)}
                except Exception:  # reported as a failed check, not a crash
                    error = {"error": traceback.format_exc(limit=3), "unexpected": True}
                t1 = perf_counter()
                probed, probe = sampler.spent - spent, None
                if op["kind"] == "cli":
                    stats = json.loads((workdir / CLI_STATS).read_text())
                    probed, probe = stats["spent"], stats["mean_probe"]
                    for key, value in stats.get("trace", {}).items():
                        cli_totals[key] = cli_totals.get(key, 0) + value
                spans[op["name"]].append((t0, t1, t1 - t0 - probed, probe))
                if error is not None:
                    failed += 1
                    doc = error
                else:
                    doc = encode(out)
                text = json.dumps(doc, sort_keys=True)
                if op["name"] not in first:
                    first[op["name"]] = text
                    results[op["name"]] = doc
                elif text != first[op["name"]]:
                    changed.add(op["name"])
            rounds += 1
            if perf_counter() - start >= args.seconds:
                break
    finally:
        sampler.stop()
    raw = {name: [s[2] for s in ss] for name, ss in spans.items()}
    times = {name: [s[2] * (sampler.factor(s[0], s[1]) if s[3] is None else scale(s[3]))
                    for s in ss]
             for name, ss in spans.items()}

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    probes = sampler.took or [s[3] for ss in spans.values() for s in ss]
    report = {"rounds": rounds, "times": times, "raw_times": raw,
              "probe_s": float(np.median(probes)),
              "attempted": rounds * len(plan), "failed": failed,
              "changed": sorted(changed), "results": results,
              "peak_rss_kb": usage}
    if args.trace:
        totals = tracer.totals() if tracer is not None else cli_totals
        layer = {key: value / rounds for key, value in totals.items()}
        layer["cli.import_s"], layer["cli.import_scipy_s"] = import_times()
        layer["traced.wall_s"] = sum(float(np.median(ts)) for ts in times.values())
        report["trace"] = layer
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
