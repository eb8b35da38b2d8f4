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
    CHUNK_ROWS,
    IDENTITY,
    CovarianceSpec,
    GeneralCov,
    centering_projector,
    component_table,
    info_matrix_exact,
    schur_complement,
)
from .optimality import (
    GAP_TOL,
    Measure,
    SolveResult,
    q_star,
    solve_closed_form,
    solve_exchange,
    support_pool,
)

NULL_EIG_CUT = 1e-8


class NullDirectionError(RuntimeError):
    """An information matrix without the numerically-zero eigenvalue of 1_t."""


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
    smallest magnitude is discarded (it must be numerically zero, else
    NullDirectionError) and the four criteria are computed from the
    remaining t - 1, normalized by n * y_star.  A second near-zero
    eigenvalue means some treatment contrast is not estimable and all
    efficiencies are reported as 0.
    """
    y = _resolve_y_star(d.shape, sigma, y_star)
    t = d.shape.t
    c = np.asarray(info_matrix_exact(d, sigma), dtype=float)
    lam = np.linalg.eigvalsh(c)
    k = int(np.argmin(np.abs(lam)))
    cut = NULL_EIG_CUT * max(float(np.trace(c)), 1.0)
    if abs(lam[k]) > cut:
        raise NullDirectionError("no numerically-zero eigenvalue for the 1_t direction "
                                 f"(smallest {abs(lam[k]):.3g}, cutoff {cut:.3g})")
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


def _residuals(sums: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Frobenius distance from target of the information matrix of each
    (C00, C01, C11) sum in a (k, 3, t, t) stack."""
    diff = schur_complement(sums[:, 0], sums[:, 1], sums[:, 2]) - target
    # one dot product per row, as np.linalg.norm forms it, so each value
    # equals that of the 2-D computation bit for bit
    flat = diff.reshape(len(sums), 1, -1)
    return np.sqrt(flat @ np.swapaxes(flat, 1, 2)).reshape(-1)


def _swap_residuals(base: np.ndarray, stack: np.ndarray, target: np.ndarray) -> np.ndarray:
    """_residuals of base + stack[k] for every candidate k, CHUNK_ROWS at a time."""
    return np.concatenate([_residuals(base + stack[lo:lo + CHUNK_ROWS], target)
                           for lo in range(0, len(stack), CHUNK_ROWS)])


def _scan(vals: np.ndarray, current: float) -> tuple[int | None, float]:
    """The index and value a pool-order scan keeps: each value that beats the
    best so far (at first, current) by more than 1e-12 replaces it."""
    best, best_val = None, current
    for k in np.flatnonzero(vals < current - 1e-12):  # the only ones that can pass
        if vals[k] < best_val - 1e-12:
            best, best_val = int(k), float(vals[k])
    return best, best_val


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
    information matrix and its optimal completely-symmetric target.  Each
    slot scores every pool candidate in one stacked eigendecomposition
    (_swap_residuals) and takes the pick of a pool-order scan (_scan).
    `effort` counts restarts (the first start is the rounded measure,
    later ones are seeded random draws); deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if effort < 1:
        raise ValueError("effort must be at least 1")
    rng = np.random.default_rng(seed)
    if isinstance(sigma, GeneralCov):
        result = solve_exchange(shape, sigma)
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
    index = {s: k for k, s in enumerate(pool)}
    stack = component_table(pool, sigma)
    target = np.asarray(centering_projector(t), dtype=float) * (n * y / (t - 1))

    counts = _largest_remainder([Fraction(w) * n if isinstance(w, (int, Fraction))
                                 else float(w) * n for _, w in pairs], n)
    rounded = [index[group[j % len(group)]]
               for group, c in zip(members, counts) for j in range(c)]

    best_idx: list[int] | None = None
    best_res = np.inf
    for attempt in range(effort):
        idx = rounded if attempt == 0 else rng.integers(0, len(pool), size=n).tolist()
        total = sum(stack[idx])  # from zero in slot order: ties break on the last bit
        current = float(_residuals(total[None], target)[0])
        improved = True
        while improved and current > 1e-12:
            improved = False
            for i in range(n):
                old = idx[i]
                vals = _swap_residuals(total - stack[old], stack, target)
                vals[old] = np.inf
                best_cand, best_val = _scan(vals, current)
                if best_cand is not None:
                    total += stack[best_cand] - stack[old]
                    idx[i] = best_cand
                    current = best_val
                    improved = True
        if current < best_res:
            best_res = current
            best_idx = list(idx)
        if best_res <= 1e-12:
            break

    design = ExactDesign(shape, tuple(pool[k] for k in best_idx))
    report = efficiencies(design, sigma, y_star=y)
    return design, report
