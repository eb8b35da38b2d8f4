"""Run perfbench over several checkouts and seeds and save one snapshot.

    python3 scripts/bench_snapshot.py --root parent=../parent --root change=. \
        --workload dense-sigma --workload certify --seeds 601-610 \
        --seconds 10 --out BENCH_k.json

Each --root NAME=PATH is the root of a checkout with its own perfbench/.
For every seed and workload the checkouts run `perfbench/run.py --trace 0`
one after the other, the first of them alternating from seed to seed, so
each seed gives one pair of runs under the same conditions.  The snapshot
holds each checkout's commit, the seeds, every JSON line run.py printed,
and per workload and metric the median and quartiles of each checkout and
the number of pairs that each later checkout won against the first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")  # lower is better


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def describe(root: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, and
    a digest of its package sources."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + path.read_bytes())
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": digest.hexdigest()}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
                     "attempted": sum(r["attempted"] for r in res)}
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
                pairs.setdefault(n, {}).setdefault(w, {})[m] = {
                    "won": won, "lost": lost, "pairs": len(by_name[n])}
    return summary, pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", required=True,
                        help="NAME=PATH of a checkout; the first is the baseline")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 601-610 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    roots = dict(spec.split("=", 1) for spec in args.root)
    names = list(roots)
    seeds = parse_seeds(args.seeds)
    runs = []
    for k, seed in enumerate(seeds):
        order = names if k % 2 == 0 else names[::-1]
        for w in args.workload:
            for n in order:
                result = run_once(Path(roots[n]), w, seed, args.seconds)
                runs.append({"root": n, "workload": w, "seed": seed, "result": result})
                print(json.dumps(runs[-1]), flush=True)
    summary, pairs = summarize(runs, names, args.workload)
    snapshot = {
        "roots": {n: describe(Path(p)) for n, p in roots.items()},
        "seeds": seeds,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "runs": runs,
        "summary": summary,
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
