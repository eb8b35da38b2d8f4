"""The operations of each workload, as data shared by the worker and the checks.

A covariance is written as a spec: {"kind": "identity"},
{"kind": "type-h", "x": "3/2"}, {"kind": "ar", "rho": r} (AR(1) along the
plot order) or {"kind": "dense", "input": key} (a matrix among the seeded
inputs, or "eye" for the identity matrix given densely).
"""

from __future__ import annotations

IDENTITY = {"kind": "identity"}
TYPE_H = {"kind": "type-h", "x": "3/2"}

# A round is PASSES passes.  A light operation (well under a second) runs in
# every pass, so its median comes from samples spread over the round; every
# other operation runs once, in the pass given by its place among them.
PASSES = 8

# Expand the closed-form measure into a symmetric design and score it only
# when the least symmetric block count is at most this.
MAX_SYMMETRIC_N = 100

# Closed-form solves whose measure is not materialised, so the certificate
# cannot be checked: these operations fail on every run.
KNOWN_FAILING = ((2, 4, 8), (3, 3, 8), (3, 3, 9))

# certify shapes whose operations take more than about half a second.  They
# run under identity only: type-H repeats the same work on a rescaled
# measure, and the light shapes already check the type-H scaling.
HEAVY_CERTIFY = ((3, 3, 5), (2, 5, 4), (2, 4, 6), (2, 4, 7), (2, 3, 6))

CERTIFY_SHAPES = (
    # t <= p-2: x* = 0, balanced support
    (2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5), (2, 5, 4), (2, 4, 6),
    # t = p-1 at the lowest class's vertex
    (2, 4, 7),
    # the class crossing
    (2, 3, 5), (2, 3, 6),
    # a = b = 2
    (2, 2, 3),
) + KNOWN_FAILING


def _certify_ops() -> list[dict]:
    ops = []
    for shape in CERTIFY_SHAPES:
        light = shape not in HEAVY_CERTIFY
        for sigma in (IDENTITY, TYPE_H) if light else (IDENTITY,):
            tag = "identity" if sigma is IDENTITY else "type-h"
            ops.append({"name": f"certify{shape}:{tag}".replace(" ", ""),
                        "kind": "certify", "shape": shape, "sigma": sigma,
                        "light": light})
    for key in ("optimal_232", "companion_428", "random_232", "random_428"):
        ops.append({"name": f"design:{key}", "kind": "design", "design": key,
                    "light": True})
    return ops


def _dense_ops() -> list[dict]:
    ops = [{"name": f"exchange(2,3,3):ar{rho}", "shape": (2, 3, 3),
            "sigma": {"kind": "ar", "rho": rho}, "light": True}
           for rho in (0.2, 0.5, 0.8)]
    ops += [
        {"name": "exchange(3,3,4):ar0.5", "shape": (3, 3, 4),
         "sigma": {"kind": "ar", "rho": 0.5}},
        {"name": "exchange(2,4,3):random-spd", "shape": (2, 4, 3),
         "sigma": {"kind": "dense", "input": "spd_243"}},
        {"name": "exchange(2,3,5):dense-identity", "shape": (2, 3, 5),
         "sigma": {"kind": "dense", "input": "eye"}, "light": True},
        {"name": "exchange(3,3,3):dense-identity", "shape": (3, 3, 3),
         "sigma": {"kind": "dense", "input": "eye"}},
        {"name": "exchange(3,3,5):identity-kernel", "shape": (3, 3, 5),
         "sigma": IDENTITY},
    ]
    for op in ops:
        op["kind"] = "exchange"
    return ops


def _construct_ops() -> list[dict]:
    specs = [
        ((4, 2, 8), 14, IDENTITY, 7),
        ((3, 3, 4), 20, IDENTITY, 0),
        ((2, 3, 5), 20, IDENTITY, 0),
        ((2, 3, 3), 6, IDENTITY, 0),
        ((2, 3, 4), 12, TYPE_H, 0),
        ((2, 3, 3), 6, {"kind": "ar", "rho": 0.5}, 0),
    ]
    return [{"name": f"construct{shape}n{n}:{sigma['kind']}".replace(" ", ""),
             "kind": "construct", "shape": shape, "n": n, "sigma": sigma,
             "seed": seed, "light": shape == (2, 3, 3)}
            for shape, n, sigma, seed in specs]


def _cli_ops() -> list[dict]:
    runs = [
        ("solve-identity", ["solve", "--a", "2", "--b", "3", "--t", "5"], 0),
        ("solve-type-h", ["solve", "--a", "2", "--b", "3", "--t", "4",
                          "--sigma", "type-h:3/2"], 0),
        ("solve-dense", ["solve", "--a", "2", "--b", "3", "--t", "3",
                         "--sigma", "cov_233.json"], 0),
        ("enumerate-list", ["enumerate", "--a", "2", "--b", "3", "--t", "3",
                            "--list"], 0),
        ("verify-optimal", ["verify", "optimal_232.json"], 0),
        ("verify-random", ["verify", "random_232.json"], 3),
        ("efficiency-companion", ["efficiency", "companion_428.json"], 0),
        ("construct", ["construct", "--a", "2", "--b", "3", "--t", "3",
                       "--n", "6", "--seed", "0"], 0),
        ("construct-again", ["construct", "--a", "2", "--b", "3", "--t", "3",
                             "--n", "6", "--seed", "0"], 0),
        ("solve-table", ["solve", "--a", "2", "--b", "4", "--t", "3",
                         "--format", "table"], 0),
        ("efficiency-table", ["efficiency", "random_428.json",
                              "--format", "table"], 0),
    ]
    return [{"name": f"cli:{name}", "kind": "cli", "argv": argv, "exit": code}
            for name, argv, code in runs]


WORKLOADS = {
    "certify": _certify_ops,
    "dense-sigma": _dense_ops,
    "construct": _construct_ops,
    "cli": _cli_ops,
}


def operations(workload: str) -> list[dict]:
    return WORKLOADS[workload]()


def schedule(ops: list[dict]) -> list[dict]:
    """One round: light operations in every pass, the others spread over passes."""
    heavy = [op for op in ops if not op.get("light")]
    plan = []
    for j in range(PASSES):
        plan += [op for op in ops if op.get("light")]
        plan += heavy[j::PASSES]
    return plan
