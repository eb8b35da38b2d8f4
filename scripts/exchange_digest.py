"""Print one SHA-256 per exchange solve, to compare two checkouts byte for byte.

    PYTHONPATH=src python3 scripts/exchange_digest.py > digest.txt

Run it in each checkout and `diff` the two files: an empty diff means every
case gave the same bytes.  The grid is 15 shapes x 17 covariances x 10
solves.  The covariances are identity, type-H 3/2 and 2.5, the dense
identity and 2.5 I, AR(rho) for nine rho and three random SPD matrices.  Per
shape and covariance, with no full pool kept beforehand, the solves are:
the first over the full pool (cold), the second (warm), one over an unkept
copy of the pool, max_iter 3, 1 and 10, tol 1e-3 (these four over the kept
pool), and three over unkept pools: every row repeated, the pool tiled
twice, and the pool reversed.  A case's digest covers to_json(), the
measure's label and weight bytes and dtypes, the pickled orbit_weights,
the support's label bytes, x*, y*, gap, iterations and converged.  A line
reads "shape covariance solve digest".  It takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from fractions import Fraction

import numpy as np

import fielddesign.optimality as optimality
from fielddesign import GeneralCov, LabelPool, Shape, TypeH, full_pool, solve_exchange

SHAPES = [Shape(2, 2, t) for t in (2, 3, 4, 5)] + [Shape(2, 3, t) for t in (2, 3, 4, 5, 6)] + [
    Shape(2, 4, t) for t in (2, 3, 4)] + [Shape(3, 3, t) for t in (2, 3, 4)]
RHOS = (0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 0.95, -0.3, -0.5)
SPD_SEEDS = (3, 7, 2017)


def covariances(p: int) -> dict:
    idx = np.arange(p)
    sigmas = {"identity": None, "type-h-3/2": TypeH(Fraction(3, 2)), "type-h-2.5": TypeH(2.5),
              "dense-eye": GeneralCov.from_matrix(np.eye(p)),
              "dense-2.5eye": GeneralCov.from_matrix(2.5 * np.eye(p))}
    for rho in RHOS:
        sigmas[f"ar{rho}"] = GeneralCov.from_matrix(rho ** np.abs(idx[:, None] - idx[None, :]))
    for seed in SPD_SEEDS:
        m = np.random.default_rng(seed).normal(size=(p, p))
        s = m @ m.T / p + np.eye(p)
        sigmas[f"spd{seed}"] = GeneralCov.from_matrix((s + s.T) / 2)
    return sigmas


def solves(shape: Shape, sigma):
    """The ten (name, result) solves of one case, in the order of the docstring."""
    def solve(**kw):
        return solve_exchange(shape, **kw) if sigma is None else solve_exchange(shape, sigma, **kw)

    optimality._full_pools.clear()  # cold: no pool or table kept
    yield "cold", solve()
    yield "warm", solve()
    labels = full_pool(shape).labels
    yield "copy", solve(pool=LabelPool(shape, labels.copy()))
    for max_iter in (3, 1, 10):
        yield f"max_iter={max_iter}", solve(max_iter=max_iter)
    yield "tol=1e-3", solve(tol=1e-3)
    yield "repeated", solve(pool=LabelPool(shape, np.repeat(labels, 2, axis=0)))
    yield "tiled", solve(pool=LabelPool(shape, np.tile(labels, (2, 1))))
    yield "reversed", solve(pool=LabelPool(shape, labels[::-1].copy()))


def digest(res) -> str:
    h = hashlib.sha256(json.dumps(res.to_json(), sort_keys=True).encode())
    weights = res.measure.weights
    for arr in (res.measure.labels, np.asarray(weights), res.q_support.arrays.labels):
        h.update(str(arr.dtype).encode() + arr.tobytes())
    h.update(pickle.dumps((weights if isinstance(weights, tuple) else None, res.orbit_weights),
                          protocol=4))
    h.update(repr([v.hex() if isinstance(v, float) else repr(v)
                   for v in (res.x_star, res.y_star, res.gap)]).encode())
    h.update(repr((res.iterations, res.converged)).encode())
    return h.hexdigest()


def main() -> None:
    for shape in SHAPES:
        for name, sigma in covariances(shape.p).items():
            for variant, res in solves(shape, sigma):
                print(shape, name, variant, digest(res), flush=True)


if __name__ == "__main__":
    main()
