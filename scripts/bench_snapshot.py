"""Run perfbench over several checkouts and seeds and save one snapshot.

    python3 scripts/bench_snapshot.py --root parent=../parent --root change=. \
        --workload dense-sigma --workload certify --seeds 601-610 \
        --seconds 10 --out BENCH_k.json

Each --root NAME=PATH is the root of a checkout with its own perfbench/.
Every checkout is copied once (without .git and caches) into a fresh
temporary directory, and every run starts from one of the fixed sibling
slot directories slot0, slot1, ... there, as the working directory of a
run can move its figures (a dense-sigma `wall_s` read +5% between two
clones of one commit).  From seed to seed the copies move one slot on, so
with two checkouts they swap slots at every pair; the first checkout to
run swaps every second seed, so over four seeds each checkout runs first
and sits in each slot twice.  For every seed and workload the checkouts
run `perfbench/run.py --trace 0` one after the other, so each seed gives
one pair of runs under the same conditions.  The snapshot holds each
checkout's commit and its source and test line counts, the seeds, every
JSON line run.py printed with the slot it ran from, per workload the number of each
checkout's runs that exited non-zero before they passed ("retried": a check
that runs each side once, with no retry, would have refused them), and per
workload and metric the median and quartiles of each checkout and the
number of pairs that each later checkout won against the first.  `resolved` says whether that is a
gain by the claim rule: the later checkout won at least nine tenths of the
pairs, and its median is below the first's by more than the first's
interquartile spread (q3 - q1).
Each --traced WORKLOAD adds one `--trace 1` run per checkout, on the first
seed, after the pairs, under "traced": the per-layer self times and counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")  # lower is better
ATTEMPTS = 240
RETRY_PAUSE_S = 15.0


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def describe(root: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, a
    digest and the line count of its package sources, and the line count of
    the Python files under tests/ and demos/ (so a snapshot tells lines
    deleted from lines moved out of the package)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    digest, lines = hashlib.sha256(), 0
    for path in sorted((root / "src").rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + text)
        lines += len(text.splitlines())
    tests_lines = sum(len(path.read_bytes().splitlines())
                      for folder in ("tests", "demos") for path in (root / folder).rglob("*.py"))
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": digest.hexdigest(), "src_lines": lines, "tests_lines": tests_lines}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """run.py's result line.  A run that exits non-zero is run again after
    a pause, up to ATTEMPTS times in all: its import-time probe can end
    before the speed sampler's first tick ("the speed sampler took no
    probe").  The last stderr line of each failed attempt is kept under
    "retries"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    retries = []
    for _ in range(ATTEMPTS):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            return {**result, "retries": retries} if retries else result
        retries.append((proc.stderr.strip().splitlines() or [""])[-1])
        time.sleep(RETRY_PAUSE_S)
    raise RuntimeError(f"{cmd} in {root} failed {ATTEMPTS} times: {retries}")


def place(copies: list[Path], work: Path, shift: int) -> list[Path]:
    """Move the k-th copy of the work directory into its slot (k + shift)
    mod n, by way of held{k}; copies then lists the slots, and a copy of it
    is returned."""
    for k, copy in enumerate(copies):
        copies[k] = copy.rename(work / f"held{k}")
    for k, copy in enumerate(copies):
        copies[k] = copy.rename(work / f"slot{(k + shift) % len(copies)}")
    return list(copies)


def summarize(runs: list[dict], names: list[str], workloads: list[str]) -> tuple[dict, dict]:
    summary: dict = {}
    pairs: dict = {}
    for w in workloads:
        by_name = {n: {r["seed"]: r["result"] for r in runs
                       if r["root"] == n and r["workload"] == w} for n in names}
        for n in names:
            res = list(by_name[n].values())
            entry = {"correct": all(r["correct"] for r in res),
                     "failed": sum(r["failed"] for r in res),
                     "attempted": sum(r["attempted"] for r in res),
                     "retried": sum(bool(r.get("retries")) for r in res)}
            for m in METRICS:
                vals = [r["metrics"][m]["value"] for r in res]
                q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                               if len(vals) > 1 else vals * 3)
                entry[m] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
            summary.setdefault(n, {})[w] = entry
        base = by_name[names[0]]
        for n in names[1:]:
            for m in METRICS:
                won = lost = 0
                for seed, r in by_name[n].items():
                    new, old = r["metrics"][m]["value"], base[seed]["metrics"][m]["value"]
                    won += new < old
                    lost += new > old
                first, later = summary[names[0]][w][m], summary[n][w][m]
                resolved = (10 * won >= 9 * len(by_name[n])
                            and first["median"] - later["median"] > first["q3"] - first["q1"])
                pairs.setdefault(n, {}).setdefault(w, {})[m] = {
                    "won": won, "lost": lost, "pairs": len(by_name[n]), "resolved": resolved}
    return summary, pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", required=True,
                        help="NAME=PATH of a checkout; the first is the baseline")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 601-610 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="append", default=[],
                        help="a workload to run once more per checkout with --trace 1")
    args = parser.parse_args()

    roots = dict(spec.split("=", 1) for spec in args.root)
    names = list(roots)
    seeds = parse_seeds(args.seeds)
    runs, traced = [], []
    work = Path(tempfile.mkdtemp(prefix="bench_snapshot_"))
    try:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".work", ".pytest_cache")
        copies = [Path(shutil.copytree(roots[n], work / f"held{k}", ignore=ignore))
                  for k, n in enumerate(names)]
        for k, seed in enumerate(seeds):
            slots = dict(zip(names, place(copies, work, k)))
            order = names if (k // 2) % 2 == 0 else names[::-1]
            for w in args.workload:
                for n in order:
                    result = run_once(slots[n], w, seed, args.seconds)
                    runs.append({"root": n, "workload": w, "seed": seed,
                                 "slot": slots[n].name, "result": result})
                    print(json.dumps(runs[-1]), flush=True)
        slots = dict(zip(names, place(copies, work, 0)))
        for w in args.traced:
            for n in names:
                result = run_once(slots[n], w, seeds[0], args.seconds, trace=1)
                traced.append({"root": n, "workload": w, "seed": seeds[0],
                               "slot": slots[n].name, "result": result})
                print(json.dumps(traced[-1]), flush=True)
    finally:
        shutil.rmtree(work)
    summary, pairs = summarize(runs, names, args.workload)
    snapshot = {
        "roots": {n: describe(Path(p)) for n, p in roots.items()},
        "seeds": seeds,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "runs": runs,
        "summary": summary,
        "pairs": pairs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
