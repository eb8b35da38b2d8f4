"""Optimal measures when the within-block covariance is not white.

No closed form exists for a general positive definite kernel, so the
computational solver bisects for the minimum of the upper envelope of the
quadratics of every orbit of the shape and mixes the arrays active
there.  An AR-style kernel shifts both the optimum and the support away
from their identity-covariance values.
"""

import numpy as np

from fielddesign.arrays import Shape
from fielddesign.model import GeneralCov
from fielddesign.optimality import solve_closed_form, solve_exchange


def ar_kernel(p: int, rho: float) -> GeneralCov:
    idx = np.arange(p)
    return GeneralCov.from_matrix(rho ** np.abs(idx[:, None] - idx[None, :]))


def main() -> None:
    shape = Shape(2, 3, 3)
    base = solve_closed_form(shape)
    print(f"(2,3,3) identity: x*={float(base.x_star):.6f} "
          f"y*={float(base.y_star):.6f}")

    for rho in (0.2, 0.5, 0.8):
        res = solve_exchange(shape, ar_kernel(shape.p, rho))
        atoms = sorted(res.measure.atoms.items(),
                       key=lambda kv: -float(kv[1]))
        head = ", ".join(f"{s} @ {float(w):.3f}" for s, w in atoms[:3])
        print(f"rho={rho}: y*={res.y_star:.6f} gap={float(res.gap):.1e} "
              f"iters={res.iterations}\n    support: {head}")

    # sanity: with the identity matrix passed as a dense kernel the
    # computational path reproduces the closed form
    dense = GeneralCov.from_matrix(np.eye(shape.p))
    res = solve_exchange(shape, dense)
    drift = abs(res.y_star - float(base.y_star))
    print(f"\ndense identity check: |y* - closed form| = {drift:.2e}")


if __name__ == "__main__":
    main()
