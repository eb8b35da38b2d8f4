"""Benchmark inputs: published designs as literals, the rest drawn from a seed.

Run as a command to write one seed's generated files:

    python3 perfbench/inputs.py --seed 3 --out some/dir

The same seed always gives the same inputs.  Random designs are redrawn
until the reference says they are not optimal, so every one of them must
be rejected by `verify`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import reference as ref

# The universally optimal 4-block design on 2x3 blocks with 2 treatments,
# the paper's worked example (also the package README's quickstart).
OPTIMAL_232 = {
    "a": 2, "b": 3, "t": 2, "n": 4,
    "blocks": [
        [[1, 1, 2], [1, 2, 2]],
        [[1, 1, 2], [1, 2, 2]],
        [[1, 1, 2], [2, 1, 2]],
        [[1, 2, 1], [2, 2, 1]],
    ],
}

# The companion 14-block design on 4x2 blocks with 8 treatments that
# accompanies the Uddin-Morgan design; published A/D/E/T efficiencies
# (0.9792, 0.9806, 0.9002, 0.9820).
COMPANION_428 = {
    "a": 4, "b": 2, "t": 8, "n": 14,
    "blocks": [
        [[1, 1], [2, 8], [3, 7], [6, 4]],
        [[6, 6], [8, 1], [3, 7], [5, 4]],
        [[2, 2], [5, 7], [3, 1], [8, 4]],
        [[7, 7], [2, 3], [1, 4], [6, 8]],
        [[5, 5], [2, 8], [3, 7], [6, 1]],
        [[4, 4], [2, 1], [5, 3], [6, 8]],
        [[8, 7], [4, 6], [2, 3], [5, 1]],
        [[8, 8], [5, 1], [7, 4], [2, 6]],
        [[3, 3], [1, 4], [5, 6], [7, 2]],
        [[4, 5], [2, 8], [3, 7], [6, 1]],
        [[5, 6], [3, 8], [4, 1], [7, 2]],
        [[6, 7], [4, 8], [5, 2], [1, 3]],
        [[7, 1], [5, 8], [6, 3], [2, 4]],
        [[1, 2], [6, 8], [7, 4], [3, 5]],
    ],
}
COMPANION_428_PUBLISHED = (0.9792, 0.9806, 0.9002, 0.9820)


def normalized_blocks(design: dict) -> tuple[tuple[int, int, int], list[list[int]]]:
    """Shape with rows <= columns and each block as a colex label sequence;
    a tall design is transposed, which keeps the neighbour structure."""
    a, b, t = design["a"], design["b"], design["t"]
    blocks = design["blocks"]
    if a > b:
        a, b = b, a
        blocks = [[list(r) for r in zip(*blk)] for blk in blocks]
    return (a, b, t), [ref.rows_to_colex(blk) for blk in blocks]


def random_spd(rng: np.random.Generator, p: int) -> list[list[float]]:
    """A well-conditioned random covariance: A A'/p + I with normal A."""
    m = rng.normal(size=(p, p))
    s = m @ m.T / p + np.eye(p)
    s = (s + s.T) / 2
    return [[float(v) for v in row] for row in s]


def random_design(rng: np.random.Generator, a: int, b: int, t: int, n: int) -> dict:
    """Uniform random labels, redrawn while the reference finds the design optimal."""
    kernel = ref.Kernel.identity()
    while True:
        blocks = rng.integers(1, t + 1, size=(n, a, b)).tolist()
        design = {"a": a, "b": b, "t": t, "n": n, "blocks": blocks}
        (na, nb, _), colex = normalized_blocks(design)
        if not ref.is_optimal_design(colex, na, nb, t, kernel, reference_y_star(na, nb, t)):
            return design


def reference_y_star(a: int, b: int, t: int):
    """Identity-kernel minimax value: exact for t <= p-2, else the
    reference envelope minimum over every orbit."""
    if t <= a * b - 2:
        return ref.balanced_y_star(a, b, t)
    table = ref.triples_float(ref.orbit_labels(a, b, t), a, b, t, ref.Kernel.identity())
    return ref.envelope_minimum(table)[0]


def make_inputs(seed: int) -> dict:
    """Every seeded input of every workload."""
    rng = np.random.default_rng([seed, 2017])
    return {
        "seed": seed,
        "spd_243": random_spd(rng, 8),
        "cov_233": random_spd(rng, 6),
        "random_232": random_design(rng, 2, 3, 2, 4),
        "random_428": random_design(rng, 4, 2, 8, 14),
    }


def write_cli_files(inputs: dict, out: Path) -> None:
    """The design and covariance files the cli workload reads."""
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "optimal_232.json": OPTIMAL_232,
        "companion_428.json": COMPANION_428,
        "random_232.json": inputs["random_232"],
        "random_428.json": inputs["random_428"],
        "cov_233.json": {"matrix": inputs["cov_233"]},
    }
    for name, doc in files.items():
        (out / name).write_text(json.dumps(doc))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = make_inputs(args.seed)
    write_cli_files(inputs, args.out)
    (args.out / "inputs.json").write_text(json.dumps(inputs))


if __name__ == "__main__":
    main()
