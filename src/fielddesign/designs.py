"""Exact designs with integer block replication.

An exact design is an ordered list of n block arrays.  This module turns
designs into empirical measures, expands symmetric orbit weights into
designs, evaluates A/D/E/T efficiencies against the minimax bound, finds
the smallest n a symmetric weight vector supports, and builds efficient
designs for arbitrary n by rounding plus local block swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arrays import BlockArray, Orbit, Shape, orbit_members, orbit_size
from .model import (
    IDENTITY,
    CovarianceSpec,
    GeneralCov,
    centering_projector,
    component_table,
    info_matrix_exact,
    symmetric_pinv,
)
from .optimality import (
    GAP_TOL,
    Measure,
    SolveResult,
    default_pool,
    q_star,
    solve_closed_form,
    solve_exchange,
    support_pool,
)

NULL_EIG_CUT = 1e-8


@dataclass(frozen=True)
class ExactDesign:
    """An ordered list of blocks, each an a x b array of one shape."""

    shape: Shape
    blocks: tuple[BlockArray, ...]

    def __post_init__(self):
        if len(self.blocks) < 1:
            raise ValueError("a design needs at least one block")
        for s in self.blocks:
            if s.shape != self.shape:
                raise ValueError("all blocks must share the design shape")

    @property
    def n(self) -> int:
        return len(self.blocks)

    def to_json(self) -> dict:
        return {
            "a": self.shape.a,
            "b": self.shape.b,
            "t": self.shape.t,
            "n": self.n,
            "blocks": [[list(r) for r in s.rows] for s in self.blocks],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "ExactDesign":
        a, b, t = int(obj["a"]), int(obj["b"]), int(obj["t"])
        rows_list = obj["blocks"]
        if "n" in obj and int(obj["n"]) != len(rows_list):
            raise ValueError(
                f"declared n={obj['n']} but {len(rows_list)} blocks given")
        if a > b:
            # stored transposed relative to the normalized orientation;
            # the neighbor structure is symmetric under transposition
            shape = Shape(b, a, t)
            blocks = tuple(
                BlockArray.from_rows(shape, list(zip(*rows))) for rows in rows_list
            )
        else:
            shape = Shape(a, b, t)
            blocks = tuple(BlockArray.from_rows(shape, rows) for rows in rows_list)
        return ExactDesign(shape, blocks)


def measure_of_design(d: ExactDesign) -> Measure:
    """Empirical measure with exact weights n_s / n."""
    counts: dict[BlockArray, int] = {}
    for s in d.blocks:
        counts[s] = counts.get(s, 0) + 1
    return Measure(d.shape, {s: Fraction(c, d.n) for s, c in counts.items()})


@dataclass
class EfficiencyReport:
    """A/D/E/T efficiencies of a design against the minimax bound y*."""

    eff_A: float
    eff_D: float
    eff_E: float
    eff_T: float
    eigenvalues: tuple[float, ...]
    y_star: float
    n: int
    diagnostic: str | None = None

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.eff_A, self.eff_D, self.eff_E, self.eff_T)

    def to_json(self) -> dict:
        out = {
            "eff_A": round(self.eff_A, 6),
            "eff_D": round(self.eff_D, 6),
            "eff_E": round(self.eff_E, 6),
            "eff_T": round(self.eff_T, 6),
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "y_star": self.y_star,
            "n": self.n,
        }
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def _resolve_y_star(shape: Shape, sigma: CovarianceSpec, y_star):
    if y_star is not None:
        return float(y_star)
    if isinstance(sigma, GeneralCov):
        raise ValueError("y_star is required under general covariance")
    return float(solve_closed_form(shape, sigma).y_star)


def efficiencies(
    d: ExactDesign,
    sigma: CovarianceSpec = IDENTITY,
    y_star=None,
) -> EfficiencyReport:
    """Evaluate a design under the A, D, E and T criteria.

    The information matrix has 1_t in its null space; the eigenvalue of
    smallest magnitude is discarded (it must be numerically zero) and
    the four criteria are computed from the remaining t - 1, normalized
    by n * y_star.  A second near-zero eigenvalue means some treatment
    contrast is not estimable and all efficiencies are reported as 0.
    """
    y = _resolve_y_star(d.shape, sigma, y_star)
    t = d.shape.t
    c = np.asarray(info_matrix_exact(d, sigma), dtype=float)
    lam = np.linalg.eigvalsh(c)
    k = int(np.argmin(np.abs(lam)))
    cut = NULL_EIG_CUT * max(float(np.trace(c)), 1.0)
    assert abs(lam[k]) <= cut, "no numerically-zero eigenvalue for the 1_t direction"
    lam_used = np.delete(lam, k)
    if (lam_used <= cut).any():
        return EfficiencyReport(
            0.0, 0.0, 0.0, 0.0,
            tuple(float(v) for v in lam_used), y, d.n,
            diagnostic="some treatment contrast is not estimable "
                       f"({int((lam_used <= cut).sum())} extra null directions)",
        )
    ny = d.n * y
    h = float(np.sum(1.0 / lam_used))
    return EfficiencyReport(
        eff_A=(t - 1) ** 2 / (ny * h),
        eff_D=(t - 1) / ny * float(np.exp(np.mean(np.log(lam_used)))),
        eff_E=(t - 1) * float(lam_used[0]) / ny,
        eff_T=float(np.sum(lam_used)) / ny,
        eigenvalues=tuple(float(v) for v in lam_used),
        y_star=y,
        n=d.n,
    )


def pseudo_symmetric_efficiency(xi: Measure, sigma: CovarianceSpec = IDENTITY,
                                y_star=None):
    """Common efficiency of the symmetrized version of a measure.

    Coefficient triples are invariant under relabeling, so the peak
    value q* of xi equals that of its full symmetrization, whose
    information matrix is completely symmetric with all four criteria
    equal to q*/y*.
    """
    if y_star is None:
        if isinstance(sigma, GeneralCov):
            raise ValueError("y_star is required under general covariance")
        y_star = solve_closed_form(xi.shape, sigma).y_star
    qs, _ = q_star(xi, sigma)
    if isinstance(qs, Fraction) and isinstance(y_star, Fraction):
        return qs / y_star
    return float(qs) / float(y_star)


@dataclass(frozen=True)
class MinNReport:
    """Smallest block counts a symmetric weight vector supports.

    n is the full symmetric expansion (every orbit member replicated
    equally); pseudo_symmetric is the t(t-1) shortcut available when a
    single orbit carries all the weight; approximated flags weights
    that had to be rationalized from floats.
    """

    n: int
    pseudo_symmetric: int | None = None
    approximated: bool = False


def _rationalized(w) -> tuple[Fraction, bool]:
    if isinstance(w, (int, Fraction)):
        return Fraction(w), False
    return Fraction(float(w)).limit_denominator(10**6), True


def min_n_symmetric(weights: Iterable[tuple[Orbit, object]]) -> MinNReport:
    """Least n with every n * w_k / |orbit_k| a whole number."""
    pairs = list(weights)
    if not pairs:
        raise ValueError("no orbit weights given")
    approx = False
    denoms = []
    for o, w in pairs:
        f, was_float = _rationalized(w)
        approx = approx or was_float
        if f < 0:
            raise ValueError("negative orbit weight")
        if f:
            denoms.append((f / o.size).denominator)
    pseudo = None
    if len(pairs) == 1:
        t = pairs[0][0].representative.shape.t
        pseudo = t * (t - 1)
    return MinNReport(n=math.lcm(*denoms), pseudo_symmetric=pseudo,
                      approximated=approx)


def expand_symmetric(weights: Iterable[tuple[Orbit, object]], n: int) -> ExactDesign:
    """Design replicating each orbit member n * w_k / |orbit_k| times."""
    pairs = list(weights)
    if not pairs:
        raise ValueError("no orbit weights given")
    shape = pairs[0][0].representative.shape
    counts = []
    for o, w in pairs:
        f, _ = _rationalized(w)
        share = f * n / o.size
        counts.append(share)
    if any(c.denominator != 1 for c in counts):
        feasible = min_n_symmetric(pairs).n
        raise ValueError(
            f"n={n} does not split the orbits evenly; "
            f"smallest feasible n is {feasible}"
        )
    blocks: list[BlockArray] = []
    for (o, _), c in zip(pairs, counts):
        reps = int(c)
        if reps == 0:
            continue
        for member in orbit_members(o.representative):
            blocks.extend([member] * reps)
    return ExactDesign(shape, tuple(blocks))


# ---------------------------------------------------------------------------
# heuristic construction for arbitrary n


def _orbit_sample(orbit: Orbit, cap: int, rng: np.random.Generator) -> list[BlockArray]:
    if orbit.size <= cap:
        return list(orbit_members(orbit.representative))
    rep = orbit.representative
    labels: list[int] = []
    for v in rep.colex:
        if v not in labels:
            labels.append(v)
    t = rep.shape.t
    base = rep.colex
    out = {rep}
    for _ in range(50 * cap):
        if len(out) >= cap:
            break
        image = rng.permutation(t)[: len(labels)] + 1
        relabel = dict(zip(labels, (int(v) for v in image)))
        out.add(BlockArray.from_colex(rep.shape, [relabel[v] for v in base]))
    return sorted(out, key=lambda s: s.colex)


def _largest_remainder(quotas: Sequence[Fraction | float], n: int) -> list[int]:
    floors = [int(q) for q in quotas]
    left = n - sum(floors)
    order = sorted(
        range(len(quotas)),
        key=lambda k: (-(float(quotas[k]) - floors[k]), k),
    )
    for k in order[:left]:
        floors[k] += 1
    return floors


class _SwapState:
    # running component sums so one-block swaps are cheap to score
    def __init__(self, blocks: list[BlockArray], comp: dict, target: np.ndarray):
        self.blocks = blocks
        self.comp = comp
        self.target = target
        t = target.shape[0]
        self.s00 = np.zeros((t, t))
        self.s01 = np.zeros((t, t))
        self.s11 = np.zeros((t, t))
        for s in blocks:
            c00, c01, c11 = comp[s]
            self.s00 += c00
            self.s01 += c01
            self.s11 += c11

    def residual(self, delta=None) -> float:
        s00, s01, s11 = self.s00, self.s01, self.s11
        if delta is not None:
            old, new = delta
            o = self.comp[old]
            w = self.comp[new]
            s00 = s00 - o[0] + w[0]
            s01 = s01 - o[1] + w[1]
            s11 = s11 - o[2] + w[2]
        info = s00 - s01 @ symmetric_pinv(s11) @ s01.T
        return float(np.linalg.norm(info - self.target))

    def apply(self, i: int, new: BlockArray):
        old = self.blocks[i]
        o = self.comp[old]
        w = self.comp[new]
        self.s00 += w[0] - o[0]
        self.s01 += w[1] - o[1]
        self.s11 += w[2] - o[2]
        self.blocks[i] = new


def construct_exact(
    shape: Shape,
    n: int,
    sigma: CovarianceSpec = IDENTITY,
    seed: int = 0,
    effort: int = 4,
) -> tuple[ExactDesign, EfficiencyReport]:
    """Build an efficient n-block design by rounding plus local swaps.

    Starts from a largest-remainder apportionment of n over the optimal
    measure's support, then greedily replaces single blocks with other
    support arrays whenever that shrinks the distance between the design
    information matrix and its optimal completely-symmetric target.
    `effort` counts restarts (the first start is the rounded measure,
    later ones are seeded random draws); deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if effort < 1:
        raise ValueError("effort must be at least 1")
    rng = np.random.default_rng(seed)
    if isinstance(sigma, GeneralCov):
        result = solve_exchange(shape, sigma, default_pool(shape), seed=seed)
    else:
        result = solve_closed_form(shape, sigma)
    y = float(result.y_star)
    t = shape.t

    pairs = list(result.orbit_weights or [])
    if not pairs:
        raise ValueError("solver returned no support to draw candidates from")
    cap = max(2 * n, 64)
    members = [_orbit_sample(o, cap, rng) for o, _ in pairs]
    # swap candidates: every support-class placement, not just the
    # orbits the weights touch; exact designs mix relabelings freely
    reps = {o.representative for o, _ in pairs}
    if not isinstance(sigma, GeneralCov):
        reps.update(support_pool(shape))
    per_orbit = max(4, -(-4 * max(n, 64) // len(reps)))
    pool_set = {s for group in members for s in group}
    for rep in sorted(reps, key=lambda s: s.colex):
        pool_set.update(_orbit_sample(Orbit(rep, orbit_size(rep)), per_orbit, rng))
    pool = sorted(pool_set, key=lambda s: s.colex)
    comp = dict(zip(pool, component_table(pool, sigma)))
    target = np.asarray(centering_projector(t), dtype=float) * (n * y / (t - 1))

    def rounded_start() -> list[BlockArray]:
        counts = _largest_remainder([Fraction(w) * n if isinstance(w, (int, Fraction))
                                     else float(w) * n for _, w in pairs], n)
        blocks: list[BlockArray] = []
        for group, c in zip(members, counts):
            for j in range(c):
                blocks.append(group[j % len(group)])
        return blocks

    def random_start() -> list[BlockArray]:
        picks = rng.integers(0, len(pool), size=n)
        return [pool[int(k)] for k in picks]

    best_blocks: list[BlockArray] | None = None
    best_res = np.inf
    for attempt in range(effort):
        blocks = rounded_start() if attempt == 0 else random_start()
        state = _SwapState(blocks, comp, target)
        current = state.residual()
        improved = True
        while improved and current > 1e-12:
            improved = False
            for i in range(n):
                old = state.blocks[i]
                best_cand, best_val = None, current
                for cand in pool:
                    if cand == old:
                        continue
                    val = state.residual(delta=(old, cand))
                    if val < best_val - 1e-12:
                        best_cand, best_val = cand, val
                if best_cand is not None:
                    state.apply(i, best_cand)
                    current = best_val
                    improved = True
        if current < best_res:
            best_res = current
            best_blocks = list(state.blocks)
        if best_res <= 1e-12:
            break

    design = ExactDesign(shape, tuple(best_blocks))
    report = efficiencies(design, sigma, y_star=y)
    return design, report
