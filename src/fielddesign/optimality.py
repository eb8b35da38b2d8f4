"""Minimax optimality for treatment measures.

Every block array s contributes a convex quadratic q_s(x); the upper
envelope r(x) = max_s q_s(x) has a unique minimum (x*, y*) that caps the
criterion value of every measure, and a measure is universally optimal
exactly when its own aggregated quadratic touches that minimum.  This
module provides the closed-form (x*, y*, support) solution for identity
and type-H covariance, an envelope solver for everything else, the
one-constraint proportion solve for symmetric weights, and the matrix
verification of a candidate measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arrays import (
    DEFAULT_ORBIT_BUDGET,
    BlockArray,
    LabelPool,
    Orbit,
    Shape,
    canonical_form,
    canonical_labels,
    classify_array,
    enumerate_label_matrix,
    label_matrix,
    orbit_members,
    orbit_size,
)
from .model import (
    IDENTITY,
    CoefficientTriple,
    CovarianceSpec,
    GeneralCov,
    accumulate_components,
    c11_base,
    centering_projector,
    exact_units,
    exact_weighted_sum,
    rational_scale,
    schur_complement,
    trace_numerators_batch,
    triple_table,
)

GAP_TOL = 1e-9
MATERIALIZE_LIMIT = 20_000
# old name of the budget, still read by the benchmark worker (perfbench/)
FULL_POOL_LIMIT = DEFAULT_ORBIT_BUDGET


def _is_rational(v) -> bool:
    return isinstance(v, (int, Fraction))


def _triple_rows(pool: Sequence[BlockArray], sigma: CovarianceSpec, exact: bool):
    """(N, 3) coefficient rows of a pool and the value of one unit in each
    column: int64 numerators with exact units, or floats."""
    pool = LabelPool.of(pool)
    if exact:
        nums = trace_numerators_batch(pool.labels, pool.shape)
        return np.column_stack(nums), exact_units(pool.shape, rational_scale(sigma))
    return triple_table(pool, sigma), np.ones(3)


class Measure:
    """Probability weights over block arrays of one shape.

    Weights given as int or Fraction stay exact; any float atom switches
    the whole measure to floating point.
    """

    __slots__ = ("shape", "atoms")

    def __init__(self, shape: Shape, atoms: Mapping[BlockArray, object]):
        clean: dict[BlockArray, object] = {}
        exact = True
        for s, w in atoms.items():
            if s.shape != shape:
                raise ValueError("atom shape differs from the measure shape")
            if _is_rational(w):
                w = Fraction(w)
            else:
                w = float(w)
                exact = False
            if w < 0:
                raise ValueError("weights must be nonnegative")
            if w == 0:
                continue
            clean[s] = clean.get(s, Fraction(0) if _is_rational(w) else 0.0) + w
        if not clean:
            raise ValueError("a measure needs at least one atom of positive weight")
        total = sum(clean.values())
        if exact:
            if total != 1:
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(total)}, expected 1")
        self.shape = shape
        self.atoms = clean

    @staticmethod
    def point(s: BlockArray) -> "Measure":
        return Measure(s.shape, {s: Fraction(1)})

    @staticmethod
    def from_orbit_weights(
        shape: Shape,
        pairs: Iterable[tuple[Orbit, object]],
        limit: int | None = None,
    ) -> "Measure":
        """Spread each orbit weight uniformly over all its member arrays."""
        pairs = list(pairs)
        total = sum(o.size for o, _ in pairs)
        if limit is not None and total > limit:
            raise ValueError(f"orbit expansion needs {total} atoms, limit is {limit}")
        atoms: dict[BlockArray, object] = {}
        for orbit, w in pairs:
            share = (Fraction(w) if _is_rational(w) else float(w)) / orbit.size
            for member in orbit_members(orbit.representative):
                atoms[member] = atoms.get(member, 0) + share
        return Measure(shape, atoms)

    def is_exact(self) -> bool:
        return all(isinstance(w, Fraction) for w in self.atoms.values())

    def items(self):
        return self.atoms.items()

    def __len__(self) -> int:
        return len(self.atoms)

    def to_json(self) -> list:
        out = []
        for s, w in sorted(self.atoms.items(), key=lambda kv: kv[0].colex):
            out.append({"array": s.to_json(), "weight": _number_json(w)})
        return out


def measure_triple(xi: Measure, sigma: CovarianceSpec = IDENTITY) -> CoefficientTriple:
    """Weighted sum of per-array coefficient triples."""
    exact = xi.is_exact() and rational_scale(sigma) is not None
    rows, units = _triple_rows(list(xi.atoms), sigma, exact)
    weights = list(xi.atoms.values())
    if exact:
        c = exact_weighted_sum(weights, lambda k: rows[k].sum(axis=0), units)
    else:
        c = [float(v) for v in np.array(weights, dtype=float) @ rows]
    return CoefficientTriple(*c, source="aggregate")


def q_eval(c, x):
    """Value of the array quadratic at x; exact under rational inputs."""
    if isinstance(c, CoefficientTriple):
        c00, c01, c11 = c.astuple()
    else:
        c00, c01, c11 = c
    return c00 + 2 * c01 * x + c11 * x * x


def _q_star_of_triple(c: CoefficientTriple):
    c00, c01, c11 = c.astuple()
    if c11 == 0:
        # flat quadratic (2x2 stripe degeneracy forces c01 = 0 too)
        return c00, c00 - c00
    x = -c01 / c11
    return c00 - c01 * c01 / c11, x


def q_star(xi: Measure, sigma: CovarianceSpec = IDENTITY):
    """Peak criterion value of a measure and the x where it is attained.

    Returns (q*, x~) with q* = c00 - c01^2/c11 and x~ = -c01/c11 for the
    aggregated triple; exact Fractions whenever measure and covariance
    allow it.
    """
    return _q_star_of_triple(measure_triple(xi, sigma))


def r_eval(x, pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY):
    """Envelope value max_s q_s(x) over the pool, with its witness array.

    Ties go to the earliest pool entry.  Exact integer scoring when x is
    rational and the covariance is identity or rational type-H.
    """
    pool = LabelPool.of(pool)
    shape = pool.shape
    if rational_scale(sigma) is not None and _is_rational(x):
        xf = Fraction(x)
        u, v = xf.numerator, xf.denominator
        rows, units = _triple_rows(pool, sigma, exact=True)
        n00, n01, n11 = rows.T
        t = shape.t
        if abs(v) <= 10_000 and abs(u) <= 30_000:
            score = n00 * (t * v * v) + n01 * (2 * t * u * v) + n11 * (u * u)
            k = int(np.argmax(score))
        else:
            # huge fraction: shortlist by float, settle exactly
            q = n00 / shape.p + 2 * (n01 / shape.p) * float(xf) \
                + (n11 / (shape.p * t)) * float(xf) ** 2
            near = np.flatnonzero(q >= q.max() - 1e-6 * max(1.0, abs(q.max())))
            k = min(near, key=lambda i: (
                -(int(n00[i]) * t * v * v + int(n01[i]) * 2 * t * u * v
                  + int(n11[i]) * u * u), i))
        return q_eval(rows[k].astype(object) * units, xf), pool[k]
    q = _scores(triple_table(pool, sigma), float(x))
    k = int(np.argmax(q))
    return float(q[k]), pool[k]


def support_set(
    shape: Shape,
    x_star,
    y_star,
    pool: Sequence[BlockArray],
    tol: float = GAP_TOL,
    sigma: CovarianceSpec = IDENTITY,
) -> list[BlockArray]:
    """Pool arrays whose quadratic meets y* at x* within tolerance."""
    pool = LabelPool.of(pool)
    keep = _touching(triple_table(pool, sigma), x_star, y_star, tol)
    return [pool[k] for k in np.flatnonzero(keep)]


def _scores(table: np.ndarray, x: float) -> np.ndarray:
    return table[:, 0] + 2.0 * table[:, 1] * x + table[:, 2] * x * x


def _touching(table: np.ndarray, x_star, y_star, tol: float) -> np.ndarray:
    """Mask of the table rows whose quadratic meets y* at x* within tol."""
    yf = float(y_star)
    return np.abs(_scores(table, float(x_star)) - yf) <= tol * max(1.0, abs(yf))


# ---------------------------------------------------------------------------
# support descriptors and the closed-form solution


@dataclass(frozen=True)
class QSupport:
    """Support set descriptor: a named family or an explicit list.

    kind "balanced" covers arrays with replication counts within one of
    each other; kind "classes" covers the corner-double classes named in
    `names` (Q0 binary, Qi with i corner-anchored doubles, trailing *
    for the both-plots-on-corners variant); kind "explicit" lists arrays.
    """

    kind: str
    names: tuple[str, ...] = ()
    arrays: tuple[BlockArray, ...] = ()

    @staticmethod
    def balanced() -> "QSupport":
        return QSupport(kind="balanced")

    @staticmethod
    def classes(names: Sequence[str]) -> "QSupport":
        return QSupport(kind="classes", names=tuple(names))

    @staticmethod
    def explicit(arrays: Sequence[BlockArray]) -> "QSupport":
        return QSupport(kind="explicit", arrays=tuple(arrays))

    def contains(self, s: BlockArray) -> bool:
        if self.kind == "balanced":
            return classify_array(s).balanced
        if self.kind == "explicit":
            return s in self.arrays
        cl = classify_array(s)
        for name in self.names:
            if name.endswith("*"):
                i = int(name[1:-1])
                hit = cl.q1_strict if i == 1 else cl.q2_strict
            else:
                hit = cl.q_index == int(name[1:])
            if hit:
                return True
        return False

    def describe(self) -> str:
        if self.kind == "balanced":
            return "Q* (balanced replication)"
        if self.kind == "explicit":
            return f"explicit[{len(self.arrays)}]"
        return " u ".join(self.names)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "classes":
            out["classes"] = list(self.names)
        if self.kind == "explicit":
            out["arrays"] = [s.to_json() for s in self.arrays]
        return out


def _number_json(v):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}", "decimal": float(v)}
    return {"decimal": float(v)}


@dataclass
class SolveResult:
    """Outcome of a minimax solve: the optimum, its support, a measure."""

    shape: Shape
    x_star: object
    y_star: object
    regime: str
    q_support: QSupport
    measure: Measure | None
    orbit_weights: tuple[tuple[Orbit, object], ...] | None
    gap: object
    converged: bool = True
    iterations: int = 0

    def to_json(self) -> dict:
        out = {
            "a": self.shape.a,
            "b": self.shape.b,
            "t": self.shape.t,
            "x_star": _number_json(self.x_star),
            "y_star": _number_json(self.y_star),
            "regime": self.regime,
            "support": self.q_support.to_json(),
            "gap": _number_json(self.gap),
            "converged": self.converged,
            "iterations": self.iterations,
        }
        if self.orbit_weights is not None:
            out["orbit_weights"] = [
                {"representative": o.representative.to_json(), "size": o.size,
                 "weight": _number_json(w)}
                for o, w in self.orbit_weights
            ]
        if self.measure is not None:
            out["measure"] = self.measure.to_json()
        return out


@dataclass(frozen=True)
class FanClass:
    """One corner-double class: i doubled treatments, rest singletons."""

    name: str
    doubles: int
    strict: bool
    triple: CoefficientTriple


def fan_classes(shape: Shape) -> list[FanClass]:
    """Feasible corner-double classes with their coefficient triples.

    The classes share per-double increments, so adjacent quadratics all
    cross at one common point; class i needs p - i distinct labels, so
    only i >= p - t are feasible.
    """
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    if t < p - 1:
        raise ValueError("corner-double classes apply only for t >= p - 1")
    eta = c11_base(shape)
    base = (
        Fraction(p - 1),
        -Fraction(4 * p - 2 * a - 2 * b, p),
        eta - Fraction(16 * p - 14 * a - 14 * b + 8, p),
    )
    if a == 2:
        step = (-Fraction(2, p), Fraction(2) - Fraction(2, b), -Fraction(4, b))
        top, strict = 2, True
    else:
        step = (-Fraction(2, p), Fraction(2 * p - 5, p), -Fraction(12, p))
        top, strict = 4, False
    out = []
    for i in range(max(0, p - t), top + 1):
        c = CoefficientTriple(
            base[0] + i * step[0], base[1] + i * step[1], base[2] + i * step[2]
        )
        name = "Q0" if i == 0 else (f"Q{i}*" if strict else f"Q{i}")
        out.append(FanClass(name, i, strict and i > 0, c))
    return out


def _fan_crossing(shape: Shape) -> tuple[int, int, int]:
    # integer quadratic whose smaller root is the common class crossing
    if shape.a == 2:
        return 4, -4 * (shape.b - 1), 1
    return 6, -(2 * shape.p - 5), 1


def _corner_double_pairs(shape: Shape) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    a, b = shape.a, shape.b
    if a == 2:
        return [((1, 1), (2, 1)), ((1, b), (2, b))]
    out = []
    for (i, j) in shape.corners:
        di = 2 if i == 1 else a - 1
        dj = 2 if j == 1 else b - 1
        out.append(((i, j), (di, j)))
        out.append(((i, j), (i, dj)))
    return out


def class_representative(shape: Shape, doubles: int) -> BlockArray:
    """Canonical array with `doubles` corner doubles and distinct fillers."""
    a, b, p = shape.a, shape.b, shape.p
    if a == 2:
        pairs = _corner_double_pairs(shape)[:doubles]
    else:
        # one disjoint pair per corner, partners rotated to avoid overlap
        pairs = [
            ((1, 1), (2, 1)),
            ((a, 1), (a, 2)),
            ((1, b), (1, b - 1)),
            ((a, b), (a - 1, b)),
        ][:doubles]
    grid = [[0] * b for _ in range(a)]
    label = 0
    for cell1, cell2 in pairs:
        label += 1
        for (i, j) in (cell1, cell2):
            if grid[i - 1][j - 1]:
                raise ValueError("double placements collide")
            grid[i - 1][j - 1] = label
    for j in range(b):
        for i in range(a):
            if grid[i][j] == 0:
                label += 1
                grid[i][j] = label
    if label > shape.t:
        raise ValueError(f"class needs {label} treatments, shape has {shape.t}")
    return canonical_form(BlockArray.from_rows(shape, grid))


def _fan_pool(shape: Shape) -> list[BlockArray]:
    imin = max(0, shape.p - shape.t)
    top = 2 if shape.a == 2 else 4
    pairs = _corner_double_pairs(shape)
    seen: set[BlockArray] = set()
    for i in range(imin, top + 1):
        if i == 0:
            seen.add(class_representative(shape, 0))
            continue
        for chosen in combinations(pairs, i):
            cells = [c for pair in chosen for c in pair]
            if len(set(cells)) != 2 * i:
                continue
            grid = [[0] * shape.b for _ in range(shape.a)]
            for label, (c1, c2) in enumerate(chosen, start=1):
                grid[c1[0] - 1][c1[1] - 1] = label
                grid[c2[0] - 1][c2[1] - 1] = label
            nxt = i
            for j in range(shape.b):
                for r in range(shape.a):
                    if grid[r][j] == 0:
                        nxt += 1
                        grid[r][j] = nxt
            seen.add(canonical_form(BlockArray.from_rows(shape, grid)))
    return sorted(seen, key=lambda s: s.colex)


def balanced_no_adjacent(shape: Shape) -> BlockArray:
    """Balanced array with no equal orthogonal neighbors (backtracking)."""
    a, t, p = shape.a, shape.t, shape.p
    lo, rem = divmod(p, t)
    seq = [0] * p
    counts = [0] * (t + 1)
    hi_used = 0

    def fill(k: int) -> bool:
        nonlocal hi_used
        if k == p:
            return True
        banned = set()
        if k % a:
            banned.add(seq[k - 1])
        if k >= a:
            banned.add(seq[k - a])
        for v in sorted(range(1, t + 1), key=lambda m: (counts[m], m)):
            if v in banned:
                continue
            cap = lo + 1 if (counts[v] > lo or hi_used < rem) else lo
            if counts[v] >= cap or counts[v] >= lo + (1 if rem else 0):
                continue
            bump = counts[v] == lo
            counts[v] += 1
            hi_used += bump
            seq[k] = v
            if fill(k + 1):
                return True
            counts[v] -= 1
            hi_used -= bump
        return False

    if not fill(0):
        raise ValueError(f"no spread balanced array exists for {shape}")
    return canonical_form(BlockArray.from_colex(shape, seq))


def balanced_clustered(shape: Shape) -> BlockArray:
    """Balanced array laid down in snake-order runs (adjacent repeats)."""
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    lo, rem = divmod(p, t)
    sizes = [lo + 1] * rem + [lo] * (t - rem)
    order = []
    for j in range(b):
        rows = range(a) if j % 2 == 0 else range(a - 1, -1, -1)
        order.extend((i, j) for i in rows)
    grid = [[0] * b for _ in range(a)]
    pos = 0
    for label, size in enumerate(sizes, start=1):
        for _ in range(size):
            i, j = order[pos]
            grid[i][j] = label
            pos += 1
    return canonical_form(BlockArray.from_rows(shape, grid))


def random_balanced(shape: Shape, rng: np.random.Generator) -> BlockArray:
    lo, rem = divmod(shape.p, shape.t)
    bag = []
    for m in range(1, shape.t + 1):
        bag.extend([m] * (lo + (1 if m <= rem else 0)))
    rng.shuffle(bag)
    return canonical_form(BlockArray.from_colex(shape, bag))


def _balanced_measure(shape: Shape, seed: int = 0):
    """Orbit weights for a balanced mixture whose slope vanishes at 0."""
    candidates = [balanced_no_adjacent(shape), balanced_clustered(shape)]
    rng = np.random.default_rng(seed)
    for _ in range(200):
        uniq = sorted(set(candidates), key=lambda s: s.colex)
        orbits = [Orbit(s, orbit_size(s)) for s in uniq]
        try:
            weights, _ = solve_sbs_proportions(orbits, Fraction(0))
        except ValueError:
            candidates.append(random_balanced(shape, rng))
            continue
        return [(o, w) for o, w in zip(orbits, weights) if w > 0]
    raise RuntimeError(f"could not balance slopes at x=0 for {shape}")


def _regime_tag(shape: Shape) -> str:
    p, t, a, b = shape.p, shape.t, shape.a, shape.b
    if t <= p - 2:
        return "t<=p-2"
    head = "t>=p, " if t >= p else "t=p-1, "
    if a == 2 and b == 2:
        return head + "a=b=2"
    if a == 2:
        return head + "a=2,b>=3"
    return head + "a>=3"


def solve_closed_form(
    shape: Shape,
    sigma: CovarianceSpec = IDENTITY,
    materialize_limit: int = MATERIALIZE_LIMIT,
) -> SolveResult:
    """Closed-form minimax point, support, and an optimal measure.

    Covariance must be identity or type-H; a type-H kernel only rescales
    every quadratic by the same factor, so x* and the support carry over
    and y* picks up the scale.  Three regimes:

    * t <= p-2: x* = 0, y* from the balanced replication profile, support
      is every balanced array; the measure mixes balanced orbits so the
      aggregated slope at 0 vanishes.
    * t >= p-1, generic shape: the lowest feasible corner-double class
      has its vertex left of the common class crossing, the minimax sits
      on that vertex, and the support is that single class.
    * t >= p-1 on the smallest grids (2x3 and 3x3 at t = p-1, every
      shape at t >= p, and all of 2x2): the vertex falls at or beyond
      the crossing, the minimax is the crossing point itself, and every
      feasible class is in the support.
    """
    if isinstance(sigma, GeneralCov):
        raise ValueError(
            "no closed form for general covariance; use solve_exchange"
        )
    scale = rational_scale(sigma)
    yscale = scale if scale is not None else 1.0 / float(sigma.x)
    p, t = shape.p, shape.t
    gap = Fraction(0) if scale is not None else 0.0

    if t <= p - 2:
        r = p % t
        x_star = Fraction(0)
        y_id = Fraction(p) - Fraction(p * p + r * (t - r), p * t)
        support = QSupport.balanced()
        orbit_pairs = _balanced_measure(shape)
    else:
        classes = fan_classes(shape)
        low = classes[0]
        c00, c01, c11 = low.triple.astuple()
        x_vertex = -c01 / c11
        A, B, C = _fan_crossing(shape)
        phi = A * x_vertex * x_vertex + B * x_vertex + C
        if phi > 0 and x_vertex < Fraction(-B, 2 * A):
            x_star = x_vertex
            y_id = c00 - c01 * c01 / c11
            support = QSupport.classes((low.name,))
            rep = class_representative(shape, low.doubles)
            orbit_pairs = [(Orbit(rep, orbit_size(rep)), Fraction(1))]
        else:
            names = tuple(c.name for c in classes)
            support = QSupport.classes(names)
            if phi == 0:
                x_star = x_vertex
                y_id = q_eval(low.triple, x_star)
                rep = class_representative(shape, low.doubles)
                orbit_pairs = [(Orbit(rep, orbit_size(rep)), Fraction(1))]
            else:
                disc = B * B - 4 * A * C
                x_star = (-B - math.sqrt(disc)) / (2 * A)
                y_id = float(q_eval(
                    CoefficientTriple(float(c00), float(c01), float(c11)),
                    x_star,
                ))
                reps = [class_representative(shape, c.doubles) for c in classes]
                orbits = [Orbit(s, orbit_size(s)) for s in reps]
                weights, _ = solve_sbs_proportions(orbits, x_star)
                orbit_pairs = [(o, w) for o, w in zip(orbits, weights) if w > 0]

    y_star = y_id * yscale
    total = sum(o.size for o, _ in orbit_pairs)
    measure = (
        Measure.from_orbit_weights(shape, orbit_pairs)
        if total <= materialize_limit
        else None
    )
    return SolveResult(
        shape=shape,
        x_star=x_star,
        y_star=y_star,
        regime=_regime_tag(shape),
        q_support=support,
        measure=measure,
        orbit_weights=tuple(orbit_pairs),
        gap=gap,
    )


# ---------------------------------------------------------------------------
# proportion solve, verification, envelope solve


def solve_sbs_proportions(
    orbits: Sequence[Orbit], x_star, sigma: CovarianceSpec = IDENTITY
):
    """Nonnegative orbit weights killing the aggregated slope at x*.

    Solves sum_k w_k (c01_k + x* c11_k) = 0 with sum w_k = 1 as a basic
    feasible solution: a single zero-slope orbit if one exists, else the
    extreme negative/positive pair.  Returns (weights, residual); exact
    on the rational path.  Raises ValueError when every slope has the
    same strict sign.
    """
    if not orbits:
        raise ValueError("no orbits given")
    exact = _is_rational(x_star) and rational_scale(sigma) is not None
    rows, units = _triple_rows([o.representative for o in orbits], sigma, exact)
    x = Fraction(x_star) if exact else float(x_star)
    g = [int(n01) * units[1] + x * (int(n11) * units[2]) if exact
         else float(n01 + x * n11) for _, n01, n11 in rows]
    n = len(orbits)
    zero = Fraction(0) if exact else 0.0
    weights = [zero] * n
    cut = 0 if exact else 1e-12 * max(1.0, max(abs(float(v)) for v in g))
    for k, v in enumerate(g):
        if abs(v) <= cut:
            weights[k] = Fraction(1) if exact else 1.0
            return weights, zero
    neg = min(range(n), key=lambda k: g[k])
    pos = max(range(n), key=lambda k: g[k])
    if g[neg] > 0 or g[pos] < 0:
        raise ValueError("infeasible: every slope has the same sign")
    span = g[pos] - g[neg]
    weights[neg] = g[pos] / span
    weights[pos] = -g[neg] / span
    residual = weights[neg] * g[neg] + weights[pos] * g[pos]
    return weights, residual


@dataclass
class VerificationReport:
    """Matrix-level check that a measure attains the minimax bound.

    balance_residual: deviation of the weighted direct-plus-cross blocks
    from the scaled contrast projector; slope_residual: size of the
    weighted cross-plus-neighbor blocks, which must vanish; support_mass:
    weight sitting on arrays outside the support; info_residual: the full
    information matrix against the same target.
    """

    balance_residual: object
    slope_residual: object
    support_mass: object
    info_residual: object
    tolerance: float
    optimal: bool

    @property
    def verdict(self) -> str:
        return "optimal" if self.optimal else "not optimal"

    def to_json(self) -> dict:
        return {
            "balance_residual": float(self.balance_residual),
            "slope_residual": float(self.slope_residual),
            "support_mass": float(self.support_mass),
            "info_residual": float(self.info_residual),
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def _max_abs(mat, exact: bool):
    if exact:
        return max(abs(v) for v in mat.reshape(-1))
    return float(np.max(np.abs(np.asarray(mat, dtype=float))))


def verify_measure(
    xi: Measure,
    sigma: CovarianceSpec,
    x_star,
    y_star,
    tol: float = GAP_TOL,
) -> VerificationReport:
    """Check the optimality conditions of a measure at a claimed (x*, y*)."""
    t = xi.shape.t
    exact = (
        xi.is_exact()
        and rational_scale(sigma) is not None
        and _is_rational(x_star)
        and _is_rational(y_star)
    )
    atoms = LabelPool.of(list(xi.atoms))
    c00, c01, c11 = comps = accumulate_components(xi.items(), sigma, exact,
                                                  labels=atoms.labels)
    bt = centering_projector(t, exact=exact)
    num = Fraction if exact else float
    x, y = num(x_star), num(y_star)
    # conditions hold on treatment contrasts; project out the constant
    # direction the raw neighbor blocks may carry
    target = bt * (y / (t - 1))
    balance = _max_abs(bt @ (c00 + x * c01) @ bt - target, exact)
    slope = _max_abs(bt @ (c01.T + x * c11) @ bt, exact)
    # support: atoms of one orbit share a triple, so test each distinct row once
    rows, units = _triple_rows(atoms, sigma, exact)
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    off = np.array([abs(q_eval(c.astype(object) * units, x_star) - y_star)
                    > tol * max(1, abs(y_star)) for c in distinct])[inverse.reshape(-1)]
    support_mass = sum((w for w, o in zip(xi.atoms.values(), off) if o),
                       Fraction(0) if exact else 0.0)
    info_res = _max_abs(schur_complement(*comps, exact=exact) - target, exact)
    ok = balance <= tol and slope <= tol and support_mass <= tol
    return VerificationReport(
        balance_residual=balance,
        slope_residual=slope,
        support_mass=support_mass,
        info_residual=info_res,
        tolerance=tol,
        optimal=bool(ok),
    )


def equivalence_gap(xi: Measure, pool: Sequence[BlockArray],
                    sigma: CovarianceSpec = IDENTITY):
    """Envelope value at the measure's own peak minus the peak: >= 0,
    and zero exactly when no pool array improves on the measure."""
    qs, xt = q_star(xi, sigma)
    val, _ = r_eval(xt, pool, sigma)
    return val - qs


def full_pool(shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET) -> LabelPool:
    """Every orbit's canonical representative, in enumeration order, as a
    label matrix; raises EnumerationBudgetError, before allocating, when
    the shape has more than `budget` orbits."""
    return LabelPool(shape, enumerate_label_matrix(shape, budget=budget))


def support_pool(shape: Shape, seed: int = 0, extra: int = 0) -> LabelPool:
    """Constructive pool covering the closed-form support classes."""
    if shape.t <= shape.p - 2:
        out = {balanced_no_adjacent(shape), balanced_clustered(shape)}
        rng = np.random.default_rng(seed)
        want = max(extra, 64)
        for _ in range(20 * want):
            if len(out) >= want:
                break
            out.add(random_balanced(shape, rng))
        return LabelPool.of(sorted(out, key=lambda s: s.colex))
    pool = _fan_pool(shape)
    if extra:
        rng = np.random.default_rng(seed)
        seen = set(pool)
        for _ in range(20 * extra):
            if len(seen) >= len(pool) + extra:
                break
            lab = rng.integers(1, shape.t + 1, size=shape.p)
            seen.add(canonical_form(BlockArray.from_colex(shape, lab.tolist())))
        pool = sorted(seen, key=lambda s: s.colex)
    return LabelPool.of(pool)


def random_pool(shape: Shape, count: int, seed: int = 0) -> LabelPool:
    """Canonicalized uniform random arrays, deduplicated."""
    rng = np.random.default_rng(seed)
    out: set[BlockArray] = set()
    for _ in range(30 * count):
        if len(out) >= count:
            break
        lab = rng.integers(1, shape.t + 1, size=shape.p)
        out.add(canonical_form(BlockArray.from_colex(shape, lab.tolist())))
    return LabelPool.of(sorted(out, key=lambda s: s.colex))


def default_pool(shape: Shape) -> LabelPool:
    """The pool solve_exchange scans when given none: every orbit
    (full_pool), for every covariance.  Above DEFAULT_ORBIT_BUDGET orbits it
    raises EnumerationBudgetError; a restricted pool (support_pool,
    random_pool) is used only when a caller passes one."""
    return full_pool(shape)


def _active_slopes(table: np.ndarray, x: float):
    """Rows tied with the envelope at x up to rounding, in pool order,
    and their slopes c01 + x c11."""
    q = _scores(table, x)
    m = float(q.max())
    act = np.flatnonzero(q >= m - 1e-14 * max(1.0, abs(m)))
    return act, table[act, 1] + x * table[act, 2]


def _nearest_crossing(clo, chi, xt: float) -> float:
    # root of q_lo - q_hi closest to xt, or xt when they do not cross
    a2 = clo[2] - chi[2]
    a1 = 2.0 * (clo[1] - chi[1])
    a0 = clo[0] - chi[0]
    if abs(a2) <= 1e-14 * (abs(clo[2]) + abs(chi[2]) + 1.0):
        if abs(a1) <= 1e-300:
            return xt
        return -a0 / a1
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        return xt
    root = math.sqrt(disc)
    r1 = (-a1 - root) / (2.0 * a2)
    r2 = (-a1 + root) / (2.0 * a2)
    return r1 if abs(r1 - xt) <= abs(r2 - xt) else r2


def _peak(w: np.ndarray, table: np.ndarray, x: float):
    """(q*, x~, gap) of the mixture w: a flat mixture (c11 = 0, hence
    c01 = 0) peaks everywhere, so it is read at x."""
    c00, c01, c11 = w @ table
    if c11 > 0:
        x = -c01 / c11
        c00 -= c01 * c01 / c11
    return float(c00), float(x), float(_scores(table, x).max() - c00)


def _basic_mixture(table: np.ndarray, x: float) -> np.ndarray | None:
    # one- or two-atom mixture over the envelope's active band at x.  A
    # zero-slope row is its own vertex; otherwise the two extreme slopes
    # are weighted to zero the mixture slope at their exact crossing,
    # which puts the mixture vertex on the crossing.  Slopes within
    # rounding of the extreme go to the earliest row.
    act, g = _active_slopes(table, x)
    w = np.zeros(len(table))
    cut = 1e-13 * max(1.0, float(np.abs(g).max()))
    near0 = np.abs(g) <= cut
    if near0.any():
        w[act[int(np.argmax(near0))]] = 1.0
        return w
    lo, hi = int(np.argmax(g <= g.min() + cut)), int(np.argmax(g >= g.max() - cut))
    if g[lo] > 0 or g[hi] < 0:
        return None
    cx = _nearest_crossing(table[act[lo]], table[act[hi]], x)
    glo = table[act[lo], 1] + cx * table[act[lo], 2]
    ghi = table[act[hi], 1] + cx * table[act[hi], 2]
    if glo > 0 or ghi < 0:
        glo, ghi = g[lo], g[hi]
    span = ghi - glo
    w[act[lo]] = ghi / span
    w[act[hi]] = -glo / span
    return w


def _side(table: np.ndarray, x: float) -> int:
    """Sign of the envelope's subdifferential at x: +1 when every active
    slope is positive (the minimiser lies left), -1 when every one is
    negative, 0 when x is a minimiser."""
    _, g = _active_slopes(table, x)
    return 1 if g.min() > 0 else -1 if g.max() < 0 else 0


def _envelope_argmin(table: np.ndarray, max_iter: int) -> tuple[float, int]:
    """Minimiser of r(x) = max_k q_k(x) and the bisection steps taken."""
    s0 = _side(table, 0.0)
    if s0 == 0:
        return 0.0, 0
    near, far = 0.0, -float(s0)
    while (side := _side(table, far)) == s0:
        near, far = far, 2.0 * far
    if side == 0:
        return far, 0
    lo, hi = sorted((near, far))
    for steps in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, steps
        side = _side(table, mid)
        if side == 0:
            return mid, steps + 1
        lo, hi = (lo, mid) if side > 0 else (mid, hi)
    return 0.5 * (lo + hi), max_iter


def _pool_rows(pool: LabelPool, atoms: Sequence[BlockArray]) -> np.ndarray:
    """Pool row of each atom: the first row equal to it, else the first row
    equal to its canonical form; ValueError when neither is in the pool."""
    lab = label_matrix(atoms)
    keys = np.concatenate([pool.labels, lab, canonical_labels(lab)])
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    n, m = len(pool), len(lab)
    # leftmost match in a stable sort: the earliest equal row, pool rows first
    first = order[np.searchsorted(keys[order], keys[n:])]
    rows = np.where(first[:m] < n, first[:m], first[m:])
    if (rows >= n).any():
        raise ValueError("initial atom not represented in the pool")
    return rows


def solve_exchange(
    shape: Shape,
    sigma: CovarianceSpec = IDENTITY,
    pool: Sequence[BlockArray] | None = None,
    tol: float = GAP_TOL,
    max_iter: int = 500,
    init: Measure | None = None,
) -> SolveResult:
    """Maximize the measure criterion over a pool by minimising the envelope.

    The pool defaults to every orbit of the shape (default_pool), so the
    optimum and its certificate cover all arrays; above DEFAULT_ORBIT_BUDGET
    orbits that raises EnumerationBudgetError, and a restricted pool must
    be passed explicitly.  A pool is scored as one label matrix (a
    LabelPool; a plain sequence of arrays is converted once), and only the
    measure atoms and support rows become BlockArrays.

    By minimax duality max_xi min_x sum_s xi_s q_s(x) = min_x r(x), with
    r(x) = max_s q_s(x) convex and piecewise quadratic.  The minimiser
    of r is bracketed from x = 0 by doubling steps and bisected on the
    sign of the subdifferential, the slopes of the pool rows tied with
    the envelope, until it contains 0 or the interval stops shrinking;
    `iterations` counts the bisection steps, at most max_iter.  The
    measure is a one- or two-atom mixture over the rows active at the
    minimiser (_basic_mixture); ties go to the earliest pool row.  An
    `init` measure whose own peak is already within tol of the envelope
    is returned as is, with iterations 0; each of its atoms goes to the
    first pool row of its orbit.  `gap` is the envelope at the measure's
    peak less the peak; the result is flagged converged when gap <= tol
    (relative).
    """
    pool = LabelPool.of(default_pool(shape) if pool is None else pool)
    table = triple_table(pool, sigma)
    w = None
    if init is not None:
        w = np.zeros(len(pool))
        np.add.at(w, _pool_rows(pool, list(init.atoms)),
                  [float(wt) for wt in init.atoms.values()])
        w /= w.sum()
        qs, xt, gap = _peak(w, table, 0.0)
        iterations = 0
    if w is None or gap > tol * max(1.0, abs(qs)):
        x, iterations = _envelope_argmin(table, max_iter)
        w = _basic_mixture(table, x)
        if w is None:  # bisection cut short by max_iter: best single row
            w = np.zeros(len(pool))
            w[_active_slopes(table, x)[0][0]] = 1.0
        qs, xt, gap = _peak(w, table, x)

    keep = w > 1e-15
    w = np.where(keep, w, 0.0)
    w /= w.sum()
    atoms = {pool[k]: float(w[k]) for k in np.flatnonzero(keep)}
    measure = Measure(shape, atoms)
    orbit_pairs = tuple(
        (Orbit(s, orbit_size(s)), wt) for s, wt in sorted(
            atoms.items(), key=lambda kv: kv[0].colex)
    )
    return SolveResult(
        shape=shape,
        x_star=xt,
        y_star=qs,
        regime="computational",
        q_support=QSupport.explicit(
            tuple(pool[k] for k in np.flatnonzero(_touching(table, xt, qs, tol)))
        ),
        measure=measure,
        orbit_weights=orbit_pairs,
        gap=max(gap, 0.0),
        converged=bool(gap <= tol * max(1.0, abs(qs))),
        iterations=iterations,
    )
