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

from .arrays import (
    BlockArray,
    LabelPool,
    Orbit,
    Shape,
    _integer,
    canonical_pool,
    group_rows,
    label_matrix,
    normalize_shape,
    orbit_labels,
    orbit_members,
)
from .model import (
    CHUNK_ROWS,
    IDENTITY,
    CovarianceSpec,
    GeneralCov,
    centering_projector,
    component_table,
    exact_value,
    info_matrix_exact,
    schur_complement,
)
from .optimality import (
    Measure,
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
        """Read {"a", "b", "t", "blocks"} and an optional "n".  A tall grid
        (a > b) is read as its b x a mirror (normalize_shape), whose neighbor
        structure is the same; its blocks must form a x b grids as given,
        which is checked before they are transposed."""
        a, b, t = (_integer(obj[k], f"{k} =") for k in "abt")
        rows_list = obj["blocks"]
        if "n" in obj and _integer(obj["n"], "n =") != len(rows_list):
            raise ValueError(
                f"declared n={obj['n']} but {len(rows_list)} blocks given")
        shape, transposed = normalize_shape(a, b, t)
        if transposed:
            if any(len(rows) != a or any(len(r) != b for r in rows) for rows in rows_list):
                raise ValueError(f"rows must form an {a}x{b} grid")
            rows_list = [list(zip(*rows)) for rows in rows_list]
        return ExactDesign(shape, tuple(BlockArray.from_rows(shape, rows) for rows in rows_list))


def measure_of_design(d: ExactDesign) -> Measure:
    """Empirical measure with exact weights n_s / n, its atoms in order of
    first appearance among the blocks."""
    return Measure.from_labels(d.shape, label_matrix(d.blocks), [Fraction(1, d.n)] * d.n)


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
        return y_star
    if isinstance(sigma, GeneralCov):
        raise ValueError("y_star is required under general covariance")
    return solve_closed_form(shape, sigma).y_star


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
    y = float(_resolve_y_star(d.shape, sigma, y_star))
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
    y_star = _resolve_y_star(xi.shape, sigma, y_star)
    qs, _ = q_star(xi, sigma)
    qe, ye = exact_value(qs), exact_value(y_star)
    return float(qs) / float(y_star) if qe is None or ye is None else qe / ye


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
    f = exact_value(w)
    return (f, False) if f is not None else (Fraction(float(w)).limit_denominator(10**6), True)


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
    """Design replicating each orbit member n * w_k / |orbit_k| times, orbit by
    orbit in orbit_members order.  n must be a multiple of min_n_symmetric's
    n (which refuses negative weights), and the weights must sum to one."""
    pairs = list(weights)
    least = min_n_symmetric(pairs).n
    if n % least:
        raise ValueError(
            f"n={n} does not split the orbits evenly; smallest feasible n is {least}")
    blocks: list[BlockArray] = []
    for o, w in pairs:
        reps = int(_rationalized(w)[0] * n / o.size)
        for member in orbit_members(o.representative):
            blocks.extend([member] * reps)
    if len(blocks) != n:
        raise ValueError(f"weights sum to {Fraction(len(blocks), n)}, so n={n} "
                         f"gives {len(blocks)} blocks")
    return ExactDesign(pairs[0][0].representative.shape, tuple(blocks))


# ---------------------------------------------------------------------------
# heuristic construction for arbitrary n


def _orbit_sample(ranks: np.ndarray, t: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Label rows, in colex order, of the orbit whose canonical representative
    is ranks + 1: all of it when it has at most cap members, else the
    representative and the distinct relabelings among up to 50 * cap
    draws of rng.permutation(t), one per draw, stopping at cap rows."""
    rho = int(ranks.max()) + 1
    if math.perm(t, rho) <= cap:
        return orbit_labels(ranks, t)
    # distinct injections give distinct arrays; the representative's is 1..rho
    seen = {tuple(range(1, rho + 1))}
    for _ in range(50 * cap):
        if len(seen) >= cap:
            break
        seen.add(tuple((rng.permutation(t)[:rho] + 1).tolist()))
    # sorted injections give the rows in colex order: both follow the ranks
    return orbit_labels(ranks, t, sorted(seen))


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


# The eigenbasis bound and the congruence scorer apply only when the base's
# C11 stays this well conditioned with any candidate's C11 added; the bound is
# lowered by BOUND_SLACK of the slot's scale, far above rounding in it.
BOUND_MAX_COND = 1e3
BOUND_SLACK = 1e-7
# a slot works through its candidates in chunks of (2t, 2t) matrices holding
# BOUND_ENTRIES entries (128 KiB of floats), which keeps every temporary small
BOUND_ENTRIES = 1 << 14


def _chunk_rows(t: int) -> int:
    return max(1, BOUND_ENTRIES // (2 * t) ** 2)


def _joint(stack: np.ndarray) -> np.ndarray:
    """(k, 2t, 2t) matrices [[C00, C01], [C10, C11]] of a (k, 3, t, t) stack."""
    k, _, t, _ = stack.shape
    out = np.empty((k, 2 * t, 2 * t))
    out[:, :t, :t] = stack[:, 0]
    out[:, :t, t:] = stack[:, 1]
    out[:, t:, :t] = np.swapaxes(stack[:, 1], 1, 2)
    out[:, t:, t:] = stack[:, 2]
    return out


def _distinct_rows(stack: np.ndarray) -> np.ndarray:
    """For each row of stack, the first row in order with the same bytes."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(row.tobytes(), k)
                     for k, row in enumerate(stack.reshape(len(stack), -1))])


@dataclass(frozen=True)
class _Candidates:
    """A construct run's swap candidates: the (k, 3, t, t) component table,
    first = _distinct_rows(stack), the rows that are their own first
    (`distinct`), their _joint matrices, which both tiers read, and the
    largest C11 trace and C00 Frobenius norm among them."""

    stack: np.ndarray
    first: np.ndarray
    distinct: np.ndarray
    joint: np.ndarray
    c11_trace: float
    c00_norm: float

    @staticmethod
    def of(stack: np.ndarray) -> "_Candidates":
        first = _distinct_rows(stack)
        distinct = np.flatnonzero(first == np.arange(len(first)))
        joint = _joint(stack[distinct])
        t = stack.shape[-1]
        c00 = joint[:, :t, :t]
        return _Candidates(stack, first, distinct, joint,
                           float(np.trace(joint[:, t:, t:], axis1=1, axis2=2).max()),
                           float(np.sqrt(np.einsum("kij,kij->k", c00, c00).max())))


def _base_factor(base: np.ndarray, cands: _Candidates, target: np.ndarray):
    """(X, h, C(B) - T, slack) for the base B of a slot, which both tiers
    share: X = B01 B11^-1, h h' = B11^-1 and the slot's BOUND_SLACK; or None
    when B11 is not well conditioned with a candidate's C11 added, where
    _swap_residuals scores every distinct table."""
    b00, b01, b11 = base
    w, v = np.linalg.eigh(b11)
    if not w[0] * BOUND_MAX_COND > w[-1] + cands.c11_trace:
        return None
    h = v / np.sqrt(w)
    x = b01 @ h @ h.T
    slack = BOUND_SLACK * (np.linalg.norm(b00) + np.linalg.norm(target) + cands.c00_norm)
    return x, h, b00 - x @ b01.T - target, slack


def _eigen_bounds(factor, joint: np.ndarray) -> np.ndarray:
    """Lower bounds on _swap_residuals for the candidates with these _joint
    matrices, from one matrix product.

    S >= 0, and the Schur complement is the least [I, -Y] M [I, -Y]' over Y,
    so C(B) <= C(B + S) <= C(B) + [I, -X] S [I, -X]' in Loewner order.  With
    C(B) - T = V diag(e) V' and z_i = [v_i; -X' v_i], entry i of
    V' (C(B + S) - T) V lies in [e_i, e_i + z_i' S z_i], and a symmetric M
    has |M|^2 >= sum_i (v_i' M v_i)^2 in the Frobenius norm; so
    |C(B + S) - T| is at least the norm of the distances from 0 to those
    intervals.
    """
    x, _, shift, slack = factor
    e, v = np.linalg.eigh(shift)
    z = np.concatenate([v, -x.T @ v])
    q = joint.reshape(len(joint), -1) @ (z[:, None] * z[None]).reshape(-1, len(e))
    gap = np.maximum(np.maximum(e, -(e + q)), 0.0)
    return np.sqrt(np.einsum("ki,ki->k", gap, gap)) - slack


def _swap_exact(factor, joint: np.ndarray, which: np.ndarray) -> np.ndarray:
    """_swap_residuals, to rounding, of the candidates with the _joint
    matrices joint[which], a chunk at a time.

    With G = [[I, -X], [0, h']], G B G' = [[C(B), 0], [0, I]], and G keeps
    Schur complements, so with G S G' = [[U, A], [A', K]],
    C(B + S) = C(B) + U - A (I + K)^-1 A'; I + K > 0 as S >= 0, so one
    batched solve per chunk replaces a pseudo-inverse per candidate.
    """
    x, h, shift, _ = factor
    t = len(shift)
    gt = np.zeros((2 * t, 2 * t))  # G'
    gt[:t, :t] = np.eye(t)
    gt[t:, :t] = -x.T
    gt[t:, t:] = h
    g = gt.T
    rows = _chunk_rows(t)
    out = []
    for lo in range(0, len(which), rows):
        part = which[lo:lo + rows]
        gsg = g @ (joint[part].reshape(-1, 2 * t) @ gt).reshape(len(part), 2 * t, 2 * t)
        a = gsg[:, :t, t:]
        dev = gsg[:, :t, :t] + shift - a @ np.linalg.solve(np.eye(t) + gsg[:, t:, t:],
                                                           np.swapaxes(a, 1, 2))
        out.append(np.sqrt(np.einsum("kij,kij->k", dev, dev)))
    return np.concatenate(out)


def _slot_pick(base: np.ndarray, cands: _Candidates, target: np.ndarray,
               current: float, old: int) -> tuple[int | None, float]:
    """What _scan picks from _swap_residuals(base, cands.stack, target) with
    candidate old excluded, each distinct table scored once: by _swap_exact
    where _eigen_bounds says it can beat current, or by _swap_residuals
    when _base_factor does not apply.  A _swap_exact winner is scored again
    by _swap_residuals, so the value is the full scan's, and so is the pick
    unless two values straddle a 1e-12 margin of _scan by less than the two
    routes' rounding (at most 2e-14 on the benchmark's construct specs)."""
    factor = _base_factor(base, cands, target)
    vals = np.full(len(cands.stack), np.inf)
    if factor is not None:
        keep = np.flatnonzero(_eigen_bounds(factor, cands.joint) < current - 1e-12)
        if not len(keep):
            return None, current
        vals[cands.distinct[keep]] = _swap_exact(factor, cands.joint, keep)
    else:
        rows = _chunk_rows(len(target))
        for lo in range(0, len(cands.distinct), rows):
            part = cands.distinct[lo:lo + rows]
            vals[part] = _swap_residuals(base, cands.stack[part], target)
    vals = vals[cands.first]
    vals[old] = np.inf
    best, best_val = _scan(vals, current)
    if best is not None and factor is not None:
        best_val = float(_swap_residuals(base, cands.stack[best:best + 1], target)[0])
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
    slot takes the pick of a pool-order scan (_scan) of exact residuals over
    the distinct component tables, in two tiers: an eigenbasis bound
    (_eigen_bounds, one matrix product) drops those that cannot beat the
    current residual, and the base's congruence (_swap_exact, one batched
    solve) scores the rest; with the base's C11 singular or ill conditioned,
    _swap_residuals scores them all.  A slot whose block was scored without a
    swap since the last swap is skipped.  The blocks and report are those of
    scoring every candidate by pseudo-inverse (see _slot_pick).
    `effort` counts restarts (the first start is the rounded measure, later
    ones are seeded random draws); deterministic given the seed.
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

    pairs = result.orbit_weights
    cap = max(2 * n, 64)
    reps = label_matrix([o.representative for o, _ in pairs])
    members = [_orbit_sample(rep - 1, t, cap, rng) for rep in reps]
    # swap candidates: every support-class placement, not just the
    # orbits the weights touch; exact designs mix relabelings freely
    if not isinstance(sigma, GeneralCov):
        reps = np.concatenate([reps, support_pool(shape).labels])
    reps = canonical_pool(shape, reps).labels
    per_orbit = max(4, -(-4 * max(n, 64) // len(reps)))
    rows = np.concatenate(members + [_orbit_sample(rep - 1, t, per_orbit, rng) for rep in reps])
    # the pool in colex order; where[k] is the pool index of rows[k]
    labels, _, where = group_rows(rows)
    pool = LabelPool(shape, labels)
    stack = component_table(pool, sigma)
    target = np.asarray(centering_projector(t), dtype=float) * (n * y / (t - 1))

    counts = _largest_remainder([float(w) * n if (e := exact_value(w)) is None else e * n
                                 for _, w in pairs], n)
    sizes = [len(group) for group in members]
    groups = np.split(where[:sum(sizes)], np.cumsum(sizes)[:-1])
    rounded = [int(group[j % len(group)]) for group, c in zip(groups, counts) for j in range(c)]

    cands = _Candidates.of(stack)
    best_idx: list[int] | None = None
    best_res = np.inf
    for attempt in range(effort):
        idx = rounded if attempt == 0 else rng.integers(0, len(pool), size=n).tolist()
        total = sum(stack[idx])  # from zero in slot order: ties break on the last bit
        current = float(_residuals(total[None], target)[0])
        idle: set[int] = set()  # pool indices scored without a swap since the last one
        improved = True
        while improved and current > 1e-12:
            improved = False
            for i in range(n):
                old = idx[i]
                if old in idle:  # same base as then, so the same outcome
                    continue
                best_cand, best_val = _slot_pick(total - stack[old], cands, target,
                                                 current, old)
                if best_cand is None:
                    idle.add(old)
                else:
                    total += stack[best_cand] - stack[old]
                    idx[i] = best_cand
                    current = best_val
                    improved = True
                    idle.clear()
        if current < best_res:
            best_res = current
            best_idx = list(idx)
        if best_res <= 1e-12:
            break

    design = ExactDesign(shape, tuple(pool[k] for k in best_idx))
    report = efficiencies(design, sigma, y_star=y)
    return design, report
