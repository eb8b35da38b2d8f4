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

import functools
import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .arrays import (
    DEFAULT_ORBIT_BUDGET,
    BlockArray,
    LabelPool,
    Orbit,
    Shape,
    _check_budget,
    canonical_form,
    canonical_labels,
    canonical_pool,
    classify_labels,
    enumerate_label_matrix,
    group_rows,
    label_matrix,
    orbit_labels,
    orbit_size,
)
from .model import (
    IDENTITY,
    BoundCov,
    CovarianceSpec,
    _exact_triple,
    _float_rows,
    _vertex,
    bind,
    centering_projector,
    exact_q,
    exact_value,
    measure_triple,
    numerator_rows,
    scaled_rows,
    schur_complement,
    schur_numerators,
    summed_components,
    triple_table,
)

GAP_TOL = 1e-9
MATERIALIZE_LIMIT = 20_000
# old name of the budget, still read by the benchmark worker (perfbench/)
FULL_POOL_LIMIT = DEFAULT_ORBIT_BUDGET


class Measure:
    """Probability weights over block arrays of one shape.

    The rows of `labels`, a read-only (N, p) label_dtype(t) colex label
    matrix of distinct rows, carry the weights.  Weights that are exact
    (model.exact_value: an int, a Fraction or a numpy integer) stay exact:
    `weights` holds their Python-int numerators over `denominator`, the
    least common denominator.  Any other weight, a float included, switches
    the whole measure to floating point: `weights` is then one read-only
    float64 vector and `denominator` is None.

    An atom measure (`orbit_sizes` None) puts weights[k] on row k; an orbit
    measure (from_orbit_weights) spreads it evenly over the orbit of row k,
    whose size is orbit_sizes[k], and is read off its measure_triple, as a
    symmetric measure's components are fixed by it (verify_measure).
    atoms() expands it, and items(), to_json() and len() read the atoms.
    The rows' identity triple numerators are built on the first
    numerator_rows() call and kept.  Every array a measure holds is
    read-only.
    """

    __slots__ = ("shape", "labels", "weights", "denominator", "orbit_sizes", "_shares", "_rows")

    def __init__(self, shape: Shape, atoms: Mapping[BlockArray, object]):
        if any(s.shape != shape for s in atoms):
            raise ValueError("atom shape differs from the measure shape")
        labels = label_matrix(list(atoms)) if atoms else np.empty((0, shape.p), dtype=int)
        self._fill(shape, labels, list(atoms.values()))

    @staticmethod
    def from_labels(shape: Shape, labels: np.ndarray, weights: Sequence) -> "Measure":
        """Measure with weights[k] on row k of an (N, p) label matrix.  Equal
        rows merge, at the place where the first of them stands, and rows of
        weight zero drop out."""
        xi = Measure.__new__(Measure)
        xi._fill(shape, labels, list(weights))
        return xi

    def _fill(self, shape: Shape, labels, weights: list) -> None:
        labels = np.asarray(labels)
        if labels.shape != (len(weights), shape.p):
            raise ValueError(f"need one weight per row of an (N, {shape.p}) label matrix")
        labels = LabelPool(shape, labels).labels
        values = [exact_value(w) for w in weights]
        exact = all(v is not None for v in values)
        weights = values if exact else [float(w) for w in weights]
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        keep = [k for k, w in enumerate(weights) if w != 0]
        if not keep:
            raise ValueError("a measure needs at least one atom of positive weight")
        weights = [weights[k] for k in keep]
        rows = labels[keep]
        _, first, group = group_rows(rows)  # kept in order of first appearance
        slot = np.argsort(np.argsort(first))[group].tolist()
        self.shape, self.orbit_sizes, self._shares, self._rows = shape, None, None, None
        self.labels = rows[np.sort(first)]
        self.labels.flags.writeable = False
        vec = np.zeros(len(first), dtype=object if exact else float)
        if exact:
            den = math.lcm(*(w.denominator for w in weights))
            np.add.at(vec, slot, [w.numerator * (den // w.denominator) for w in weights])
            nums = vec.tolist()
            if sum(nums) != den:
                raise ValueError(f"weights sum to {Fraction(sum(nums), den)}, expected exactly 1")
            g = math.gcd(den, *nums)  # merged rows may leave a common factor
            self.weights, self.denominator = tuple(n // g for n in nums), den // g
        else:
            np.add.at(vec, slot, weights)
            total = math.fsum(vec.tolist())  # a running sum drifts past 1e-12 on large measures
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {total}, expected 1")
            vec.flags.writeable = False
            self.weights, self.denominator = vec, None

    @staticmethod
    def point(s: BlockArray) -> "Measure":
        return Measure(s.shape, {s: Fraction(1)})

    @staticmethod
    def from_orbit_weights(shape: Shape, pairs: Iterable[tuple[Orbit, object]]) -> "Measure":
        """Orbit measure with each orbit weight spread evenly over the orbit,
        the weights on the canonical forms (from_labels: a repeated orbit
        merges at its first place of positive weight)."""
        pairs = list(pairs)
        canon = canonical_labels(label_matrix([o.representative for o, _ in pairs]))
        xi = Measure.from_labels(shape, canon, [w for _, w in pairs])
        xi.orbit_sizes = tuple(math.perm(shape.t, m) for m in xi.labels.max(axis=1).tolist())
        if not xi.is_exact():  # an atom's weight: its pairs' shares w / size in pair order
            at = {r: k for k, r in enumerate(map(tuple, xi.labels.tolist()))}
            xi._shares = np.zeros(len(at))
            for (_, w), r in zip(pairs, map(tuple, canon.tolist())):
                n, v = math.perm(shape.t, max(r)), exact_value(w)
                if r in at:  # a pair of weight 0 adds 0.0, which changes no share
                    xi._shares[at[r]] += float(w) / n if v is None else float(v / n)
            xi._shares.flags.writeable = False
        return xi

    def numerator_rows(self) -> np.ndarray:
        """The (N, 3) int64 identity triple numerators of the label rows, over
        (p, p, p t) (model.numerator_rows): one pass, then kept."""
        if self._rows is None:
            self._rows = numerator_rows(self.shape, self.labels)
        return self._rows

    def is_exact(self) -> bool:
        return self.denominator is not None

    def float_weights(self) -> np.ndarray:
        """The weights as one float64 vector, each exact one rounded once."""
        if self.denominator is None:
            return self.weights
        return np.array([n / self.denominator for n in self.weights])

    def atoms(self) -> tuple[np.ndarray, list]:
        """The atoms' (N, p) label matrix and weights (Fractions or floats): an
        orbit's members in orbit_labels order, at the orbit weight over its size."""
        if self.orbit_sizes is None:
            return self.labels, (self.weights.tolist() if self.denominator is None
                                 else [Fraction(n, self.denominator) for n in self.weights])
        sizes = self._listed_sizes()
        labels = np.concatenate([orbit_labels(r - 1, self.shape.t)
                                 for r, k in zip(self.labels, sizes) if k])
        if self.denominator is None:
            return labels, np.repeat(self._shares, sizes).tolist()
        return labels, [w for n, k in zip(self.weights, self.orbit_sizes)
                        for w in [Fraction(n, self.denominator * k)] * k]

    def _listed_sizes(self) -> tuple[int, ...]:
        """Members atoms() lists per orbit: all of them, or none where a float
        member share underflows to 0.0 (the atom measure dropped those)."""
        if self._shares is None:
            return self.orbit_sizes
        return tuple(k if w else 0 for k, w in zip(self.orbit_sizes, self._shares.tolist()))

    def items(self) -> list[tuple[BlockArray, Fraction | float]]:
        """(array, weight) pairs in atom order, the arrays built on each call."""
        labels, weights = self.atoms()
        return [(BlockArray.from_colex(self.shape, row), w)
                for row, w in zip(labels.tolist(), weights)]

    def __len__(self) -> int:
        return len(self.labels) if self.orbit_sizes is None else sum(self._listed_sizes())

    def to_json(self) -> list:
        """Atoms in colex order, arrays in LabelPool.to_json form."""
        labels, weights = self.atoms()
        order = np.lexsort(labels.T[::-1]).tolist()
        return [{"array": array, "weight": _number_json(weights[k])} for array, k
                in zip(LabelPool(self.shape, labels[order]).to_json(), order)]


def q_eval(c, x):
    """Value of the array quadratic at x; exact under rational inputs.  c is
    a triple, or three columns: q_eval(table.T, x) scores every table row."""
    c00, c01, c11 = c
    # c01 + c01 is 2 c01 exactly, and spares numpy an int-scalar conversion
    return c00 + (c01 + c01) * x + c11 * x * x


def q_star(xi: Measure, sigma: CovarianceSpec = IDENTITY):
    """Peak criterion value of a measure and the x where it is attained:
    the _vertex of the aggregated triple, a flat one read at x~ = 0; exact
    Fractions, made from integers (model._exact_triple), where both allow it."""
    cov = bind(xi.shape, sigma)
    if (exact := _exact_triple(xi, cov)) is not None:
        return Fraction(*exact[2]), Fraction(*exact[3])
    c00, c01, c11 = measure_triple(xi, cov)
    return _vertex(c00, c01, c11, c00 - c00)


def r_eval(x, pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY):
    """Envelope value max_s q_s(x) over the pool, with its witness array.

    Ties go to the earliest pool entry.  When x is exact (model.exact_value)
    and the bound scale exact (identity or exact type-H), every distinct integer
    row of the pool, standing for its earliest pool entry, is scored
    exactly (model.exact_q) and the first maximum wins.  A pool that
    full_pool keeps has its distinct rows built once; r_eval only reads a
    kept pool, never builds one.
    """
    pool = LabelPool.of(pool)
    xf, cov = exact_value(x), bind(pool.shape, sigma)
    if isinstance(cov.scale, Fraction) and xf is not None:
        kept = _full_pools.get(pool.shape)
        if kept is None or kept.pool is not pool:
            kept = _PoolTriples(pool)  # for this call only
        rows, first = kept.triples()
        q, den = exact_q(rows, pool.shape, *xf.as_integer_ratio())
        (a, b), k = cov.scale.as_integer_ratio(), int(np.argmax(q))
        return Fraction(int(q[k]) * a, den * b), pool[first[k]]
    q = q_eval(triple_table(pool, cov).T, float(x))
    k = int(np.argmax(q))
    return float(q[k]), pool[k]


def _touching(table: np.ndarray, x_star, y_star, tol: float) -> np.ndarray:
    """Mask of the table rows whose quadratic meets y* at x* within tol |y*|."""
    yf = float(y_star)
    return np.abs(q_eval(table.T, float(x_star)) - yf) <= tol * abs(yf)


# ---------------------------------------------------------------------------
# support descriptors and the closed-form solution


class QSupport(NamedTuple):
    """Support set descriptor: a named family or an explicit pool.

    kind "balanced" covers arrays with replication counts within one of
    each other; kind "classes" covers the corner-double classes named in
    `names` (Q0 binary, Qi with i corner-anchored doubles, trailing *
    for the both-plots-on-corners variant); kind "explicit" holds a pool.
    """

    shape: Shape
    kind: str
    names: tuple[str, ...] = ()
    arrays: LabelPool | None = None

    @staticmethod
    def balanced(shape: Shape) -> "QSupport":
        return QSupport(shape, "balanced")

    @staticmethod
    def classes(shape: Shape, names: Sequence[str]) -> "QSupport":
        return QSupport(shape, "classes", names=tuple(names))

    @staticmethod
    def explicit(pool: LabelPool) -> "QSupport":
        return QSupport(pool.shape, "explicit", arrays=pool)

    def contains(self, labels) -> np.ndarray:
        """Boolean mask of the rows of an (N, p) colex label matrix that lie
        in the support."""
        lab = np.asarray(labels)
        if self.kind == "explicit":
            inverse = group_rows(np.concatenate([self.arrays.labels, lab]))[2]
            return np.isin(inverse[len(self.arrays):], inverse[:len(self.arrays)])
        cl = classify_labels(self.shape, lab)
        if self.kind == "balanced":
            return cl.balanced
        hit = np.zeros(len(lab), dtype=bool)
        for name in self.names:
            if name.endswith("*"):
                hit |= cl.q1_strict if name == "Q1*" else cl.q2_strict
            else:
                hit |= cl.q_index == int(name[1:])
        return hit

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
            out["arrays"] = self.arrays.to_json()
        return out


def _number_json(v):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}", "decimal": float(v)}
    return {"decimal": float(v)}


class SolveResult(NamedTuple):
    """Outcome of a minimax solve: the optimum, its support, a measure.
    solve_closed_form's is the orbit measure of orbit_weights (None past
    MATERIALIZE_LIMIT atoms), and it verifies; solve_exchange's holds each
    orbit weight on one pool row, and Measure.from_orbit_weights(shape,
    orbit_weights) is the measure that verifies.  The closed form keeps
    its measure, orbit_weights and q_support per shape, so every solve of
    a shape returns those same objects: they are read-only (a Measure's
    arrays refuse writes)."""

    shape: Shape
    x_star: object
    y_star: object
    regime: str
    q_support: QSupport
    measure: Measure | None
    orbit_weights: tuple[tuple[Orbit, object], ...]
    gap: object
    converged: bool = True
    iterations: int = 0

    def to_json(self) -> dict:
        out = {
            **self.shape._asdict(),
            "x_star": _number_json(self.x_star),
            "y_star": _number_json(self.y_star),
            "regime": self.regime,
            "support": self.q_support.to_json(),
            "gap": _number_json(self.gap),
            "converged": self.converged,
            "iterations": self.iterations,
            "orbit_weights": [
                {"representative": o.representative.to_json(), "size": o.size,
                 "weight": _number_json(w)}
                for o, w in self.orbit_weights
            ],
        }
        if self.measure is not None:
            out["measure"] = self.measure.to_json()
        return out


class FanClass(NamedTuple):
    """One feasible corner-double class: `doubles` corner-anchored doubled
    treatments, the rest singletons; a starred name (2-row grids) marks
    doubles whose plots are all corners."""

    name: str
    doubles: int


def fan_classes(shape: Shape) -> list[FanClass]:
    """The feasible corner-double classes, fewest doubles first.

    Class i needs p - i distinct labels, so only i >= p - t are feasible,
    up to 2 doubles on a 2-row grid and 4 otherwise.  A class's
    coefficient triple is that of its class_representative.
    """
    if shape.t < shape.p - 1:
        raise ValueError("corner-double classes apply only for t >= p - 1")
    star = "*" if shape.a == 2 else ""
    return [FanClass(f"Q{i}{star}" if i else "Q0", i)
            for i in range(max(0, shape.p - shape.t), (2 if shape.a == 2 else 4) + 1)]


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


def _filled(shape: Shape, pairs) -> list[int]:
    """Colex labels giving the k-th pair of cells label k and every other
    plot the next unused label, in colex order."""
    seq = [0] * shape.p
    for label, pair in enumerate(pairs, start=1):
        for (i, j) in pair:
            k = shape.plot_index(i, j)
            if seq[k]:
                raise ValueError("double placements collide")
            seq[k] = label
    free = iter(range(len(pairs) + 1, shape.p + 1))
    return [v or next(free) for v in seq]


def class_representative(shape: Shape, doubles: int) -> BlockArray:
    """Canonical array with `doubles` corner doubles and distinct fillers, on the
    first `doubles` of _corner_double_pairs 0, 1 (a = 2) or 0, 3, 5, 6 (a >= 3)."""
    pairs = _corner_double_pairs(shape)
    picks = (0, 1) if shape.a == 2 else (0, 3, 5, 6)
    seq = _filled(shape, [pairs[k] for k in picks[:doubles]])
    if max(seq) > shape.t:
        raise ValueError(f"class needs {max(seq)} treatments, shape has {shape.t}")
    return canonical_form(BlockArray.from_colex(shape, seq))


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


def _balanced_bag(shape: Shape) -> np.ndarray:
    """Labels 1..t in order, each p // t times and the first p % t once more."""
    lo, rem = divmod(shape.p, shape.t)
    labels = np.arange(1, shape.t + 1)
    return np.repeat(labels, lo + (labels <= rem))


def balanced_clustered(shape: Shape) -> BlockArray:
    """Balanced array laid down in snake-order runs (adjacent repeats)."""
    a = shape.a
    snake = [j * a + (i if j % 2 == 0 else a - 1 - i) for j in range(shape.b) for i in range(a)]
    seq = np.empty(shape.p, dtype=np.int64)
    seq[snake] = _balanced_bag(shape)
    return canonical_form(BlockArray.from_colex(shape, seq.tolist()))


def _envelope_min(rows: Sequence[Sequence[Fraction]]) -> tuple[object, object, list[bool]]:
    """(x*, y*, tied): the minimum of r(x) = max_k q_k(x) over a few exact
    (c00, c01, c11) rows with r bounded below, and which rows are on r at x*.
    Of 0, each vertex -c01/c11 (c11 > 0) and each root of a pairwise
    difference d, the least exact r wins, ties going to the nearest 0.  A
    root of 1 + B x + A x^2 (A = d11/d00, B = 2 d01/d00) is a float unless
    B^2 - 4A is a rational square.  y* is the first tied row's value; rows
    tie exactly at a Fraction x*, and within 1e-14 (relative) at a float one."""
    xs = [Fraction(0)] + [-c01 / c11 for _, c01, c11 in rows if c11 > 0]
    for r, s in combinations(rows, 2):
        d00, d01, d11 = (v - u for u, v in zip(r, s))
        if d11 == 0:
            xs += [-d00 / (2 * d01)] if d01 else []
        elif d00 == 0:
            xs += [Fraction(0), -2 * d01 / d11]
        else:
            A, B = d11 / d00, 2 * d01 / d00
            if (disc := B * B - 4 * A) >= 0:
                root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                root = root if root * root == disc else math.sqrt(disc)
                xs += [(-B - root) / (2 * A), (-B + root) / (2 * A)]
    x = min(xs, key=lambda x: (max(q_eval(c, Fraction(x)) for c in rows), abs(x),
                               isinstance(x, float)))
    exact = isinstance(x, Fraction)
    q = [q_eval(c if exact else tuple(map(float, c)), x) for c in rows]
    tied = [v >= max(q) - (0 if exact else 1e-14 * max(1.0, abs(max(q)))) for v in q]
    return x, q[tied.index(True)], tied


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
) -> SolveResult:
    """Closed-form minimax point, support, and an optimal measure.

    Covariance must be identity or type-H, which bind reduces to identity
    times a scale: the unit solve is made once per shape per process
    (_closed_form), and each call scales its y* and gap (_at_scale), so its
    SolveResult is new, but its measure, orbit_weights and q_support are
    the kept, read-only objects.

    The regime names a few representatives, and (x*, y*) is the minimum of
    the exact envelope of their rows (_envelope_min), at a vertex or a
    crossing.  The representatives tied there are kept, their orbits
    weighted to zero the aggregated slope (solve_sbs_proportions).

    * t <= p-2: the no-adjacent and the clustered balanced arrays, which
      share c00 and cross at x* = 0 with slopes of opposite signs; the
      support is every balanced array.
    * t >= p-1: one class_representative per feasible corner-double class
      (fan_classes).  x* is the lowest class's vertex, that class alone
      the support, or the crossing the classes share, all in the support.
    """
    cov = bind(shape, sigma)
    if cov.unit is not None:
        raise ValueError("no closed form for general covariance; use solve_exchange")
    return _at_scale(_closed_form(shape), cov.scale)


def _at_scale(res: SolveResult, scale) -> SolveResult:
    """A unit solve's y* and gap times a scale, OverflowError past the float range."""
    exact = isinstance(scale, Fraction)  # then 1, or a zero gap, keeps the value: no Fraction
    y, gap = (v if exact and (scale == 1 or not v) else v * scale for v in (res.y_star, res.gap))
    if not (math.isfinite(y) and math.isfinite(gap)):
        raise OverflowError(f"y* = {res.y_star!r} times {scale!r} is past the float range")
    return res._replace(y_star=y, gap=gap)


@functools.lru_cache(maxsize=64)
def _closed_form(shape: Shape) -> SolveResult:
    """solve_closed_form under identity, kept per shape: each entry holds
    a few orbit rows, and its measure its numerator rows."""
    if shape.t <= shape.p - 2:
        names = None
        reps = sorted([balanced_no_adjacent(shape), balanced_clustered(shape)],
                      key=lambda s: s.colex)
    else:
        classes = fan_classes(shape)
        names = [c.name for c in classes]
        reps = [class_representative(shape, c.doubles) for c in classes]
    units = (Fraction(1, shape.p),) * 2 + (Fraction(1, shape.p * shape.t),)
    x_star, y_id, tied = _envelope_min([[n * u for n, u in zip(row, units)] for row
                                        in numerator_rows(shape, label_matrix(reps)).tolist()])
    reps = [s for s, hit in zip(reps, tied) if hit]
    support = (QSupport.balanced(shape) if names is None else
               QSupport.classes(shape, [name for name, hit in zip(names, tied) if hit]))

    orbits = [Orbit(s, orbit_size(s)) for s in reps]
    weights = solve_sbs_proportions(orbits, x_star)[0] if len(orbits) > 1 else [Fraction(1)]
    orbit_pairs = [(o, w) for o, w in zip(orbits, weights) if w > 0]
    # verifying an orbit measure reads no atom and no component sum, but the benchmark
    # worker (perfbench/) sends every atom to its reference: none past MATERIALIZE_LIMIT
    measure = None
    if sum(o.size for o, _ in orbit_pairs) <= MATERIALIZE_LIMIT:
        measure = Measure.from_orbit_weights(shape, orbit_pairs)
        measure.numerator_rows()  # kept with it: the readers of a solve score no rows
    return SolveResult(
        shape=shape,
        x_star=x_star,
        y_star=y_id,
        regime=_regime_tag(shape),
        q_support=support,
        measure=measure,
        orbit_weights=tuple(orbit_pairs),
        gap=Fraction(0),
    )


# ---------------------------------------------------------------------------
# proportion solve, verification, envelope solve


def solve_sbs_proportions(orbits: Sequence[Orbit], x_star):
    """Nonnegative orbit weights killing the aggregated slope at x*.

    Solves sum_k w_k (c01_k + x* c11_k) = 0 with sum w_k = 1 as a basic
    feasible solution: a single zero-slope orbit if one exists, else the
    extreme negative/positive pair, on the unit-scale slopes (a bound scale
    rescales them all alike).  Returns (weights, residual), exact when x* is
    rational.  Raises ValueError when every slope has the same strict sign.
    """
    if not orbits:
        raise ValueError("no orbits given")
    exact = (x := exact_value(x_star)) is not None
    reps = LabelPool.of([o.representative for o in orbits])
    rows = numerator_rows(reps.shape, reps.labels)
    if exact:  # c01 + x c11 = (q(x + 1) - q(x - 1)) / 4, and q(x +- 1) share one unit
        (hi, _), (lo, _) = (exact_q(rows, reps.shape, *(x + d).as_integer_ratio())
                            for d in (1, -1))
        g = [Fraction(a - b) for a, b in zip(hi.tolist(), lo.tolist())]
        zero, one, cut = Fraction(0), Fraction(1), 0
    else:
        x = float(x_star)
        g = [float(n01 + x * n11) for _, n01, n11 in scaled_rows(rows, reps.shape)]
        zero, one, cut = 0.0, 1.0, 1e-12 * max(1.0, max(abs(v) for v in g))
    n = len(orbits)
    weights = [zero] * n
    for k, v in enumerate(g):
        if abs(v) <= cut:
            weights[k] = one
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


class VerificationReport(NamedTuple):
    """Matrix-level check that a measure attains the minimax bound.

    balance_residual: deviation of the weighted direct-plus-cross blocks
    from the scaled contrast projector; slope_residual: size of the
    weighted cross-plus-neighbor blocks, which must vanish; support_mass:
    weight sitting on arrays outside the support; info_residual: the full
    information matrix against the same target.  The measure is optimal
    when the residuals are at most tolerance * y* and the support mass, a
    probability, at most the tolerance.  The information residual matters
    for a measure that is not symmetrized, such as an exact design's: its
    slope residual is projected on both sides and can vanish while its
    information matrix misses the target.
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


def verify_measure(
    xi: Measure,
    sigma: CovarianceSpec,
    x_star,
    y_star,
    tol: float = GAP_TOL,
) -> VerificationReport:
    """Check the optimality conditions of a measure at a claimed (x*, y*):
    the verdict is optimal when the balance, slope and information
    residuals are at most tol |y*| and the support mass, the weight on
    arrays whose q misses y* at x* by more than tol |y*|, at most tol.
    An exact measure, exact (x*, y*) and an exact bound scale (identity or
    exact type-H) are checked in integers (_verify_exact), and a Fraction is
    made only for each residual and the support mass reported.
    An orbit measure is symmetric (Kiefer 1975): each component is
    c_jk/(t-1) B_t of its measure_triple, plus a J part on C11 alone
    (Btilde 1 = 0), and max |B_t| = (t-1)/t, so no component is summed."""
    t, cov = xi.shape.t, bind(xi.shape, sigma)
    x, y = exact_value(x_star), exact_value(y_star)
    if xi.is_exact() and isinstance(cov.scale, Fraction) and None not in (x, y):
        return _verify_exact(xi, cov, x, y, tol)
    x, y = float(x_star), float(y_star)
    if xi.orbit_sizes is not None:
        c00, c01, c11 = (float(v) for v in measure_triple(xi, cov))
        balance, slope, info_res = (abs(r) / t for r in (
            c00 + x * c01 - y, c01 + x * c11, _vertex(c00, c01, c11, x)[0] - y))
    else:
        c00, c01, c11 = comps = summed_components(xi.shape, xi.labels, xi.float_weights(),
                                                  cov)[0]
        bt = centering_projector(t)
        # conditions hold on treatment contrasts; project out the constant
        # direction the raw neighbor blocks may carry
        target = bt * (y / (t - 1))
        balance, slope, info_res = (float(np.max(np.abs(mat))) for mat in (
            bt @ (c00 + x * c01) @ bt - target, bt @ (c01.T + x * c11) @ bt,
            schur_complement(*comps) - target))
    off = ~_touching(_float_rows(xi, cov), x, y, tol)
    # left to right in row order, not np.sum's pairwise order
    support_mass = sum((w for w, o in zip(xi.float_weights().tolist(), off) if o), 0.0)
    ok = max(balance, slope, info_res) <= tol * abs(y) and support_mass <= tol
    return VerificationReport(balance, slope, support_mass, info_res, tol, bool(ok))


def _verify_exact(xi: Measure, cov: BoundCov, x: Fraction, y: Fraction, tol) -> VerificationReport:
    """verify_measure in integers, with x = u / v, y = m / e, scale a / b."""
    t, ((u, v), (m, e), (a, b)) = xi.shape.t, (r.as_integer_ratio() for r in (x, y, cov.scale))
    if xi.orbit_sizes is not None:  # c = n / d (model._exact_triple)
        (n00, n01, n11), d, (qn, qd), _ = _exact_triple(xi, cov)
        residuals = [(abs(e * (v * n00 + u * n01) - m * v * d), t * e * v * d),
                     (abs(v * n01 + u * n11), t * v * d), (abs(e * qn - m * qd), t * e * qd)]
    else:
        # C = N / d and t B_t = P = t I - J: each residual is the largest
        # |entry| of a matrix over one integer
        (n00, n01, n11), d = summed_components(xi.shape, xi.labels, xi.weights, cov, True)
        d *= xi.denominator
        proj, s = (t * np.eye(t, dtype=np.int64) - 1).astype(object), t * (t - 1) * e
        info, pivot = schur_numerators(n00, n01, n11)  # C = info / (pivot d)
        residuals = [(np.abs(num).max(), den) for num, den in (
            ((t - 1) * e * _sandwich(v * n00 + u * n01) - t * v * d * m * proj, t * s * v * d),
            (_sandwich(v * n01.T + u * n11), t * t * v * d),
            (s * info - pivot * d * m * proj, s * pivot * d))]
    # atoms of one orbit share a row, so each distinct row is scored once:
    # its q at x* less y* is (q a e - m b den) / (b den e)
    distinct, _, inverse = group_rows(xi.numerator_rows())
    q, den = exact_q(distinct, xi.shape, u, v)
    bound = tol * (abs(m) / e) if isinstance(tol, float) else tol * abs(y)  # as tol * abs(y)
    off = np.array([_ratio_holds(operator.gt, abs(n * a * e - m * b * den), b * den * e, bound)
                    for n in q.tolist()])
    mass = sum(n for n, o in zip(xi.weights, off[inverse]) if o)
    ok = (all(_ratio_holds(operator.le, *r, bound) for r in residuals)
          and _ratio_holds(operator.le, mass, xi.denominator, tol))
    balance, slope, info_res = (Fraction(*r) for r in residuals)
    return VerificationReport(balance, slope, Fraction(mass, xi.denominator), info_res, tol, ok)


def _ratio_holds(op, num: int, den: int, bound) -> bool:
    """op(num / den, bound), den > 0, as a Fraction compares with a number:
    exactly, by cross-multiplying, and as op(0.0, bound) past the finite floats."""
    if isinstance(bound, float) and not math.isfinite(bound):
        return op(0.0, bound)
    c, k = bound.as_integer_ratio()
    return op(num * k, c * den)


def _sandwich(x: np.ndarray) -> np.ndarray:
    """P X P for P = t I - J, in O(t^2) and exact on integers: t^2 X less
    t (r 1' + 1 c') plus s J, with r, c and s the row sums, column sums
    and total of X."""
    x = np.asarray(x, dtype=object)
    t, r, c = len(x), x.sum(axis=1), x.sum(axis=0)
    return t * t * x - t * (r[:, None] + c[None, :]) + r.sum()


def equivalence_gap(xi: Measure, pool: Sequence[BlockArray],
                    sigma: CovarianceSpec = IDENTITY):
    """Envelope value at the measure's own peak minus the peak: >= 0,
    and zero exactly when no pool array improves on the measure."""
    cov = bind(xi.shape, sigma)
    qs, xt = q_star(xi, cov)
    val, _ = r_eval(xt, pool, cov)
    return val - qs


class _PoolTriples:
    """A pool and, built when first asked, its distinct exact triple rows
    (model.numerator_rows) in order of first occurrence, the first pool row
    of each, and only for table() the int32 row of each pool row; read-only."""

    __slots__ = ("pool", "_triples", "_index")

    def __init__(self, pool: LabelPool):
        self.pool, self._triples, self._index = pool, None, None

    def triples(self, index: bool = False) -> tuple[np.ndarray, np.ndarray]:
        if self._triples is None or (index and self._index is None):
            distinct, first, group = group_rows(numerator_rows(self.pool.shape, self.pool.labels))
            order = np.argsort(first)
            self._triples = self._triples or (distinct[order], first[order])
            self._index = np.argsort(order).astype(np.int32)[group] if index else None
            for arr in (*self._triples, self._index)[:2 + index]:
                arr.flags.writeable = False
        return self._triples

    def table(self) -> np.ndarray:
        """triple_table(pool) under identity, the same bits."""
        return scaled_rows(self.triples(index=True)[0], self.pool.shape)[self._index]


# Full pools (keyed by shape) and support pools (keyed by (shape, seed)) kept
# per process, least recently used dropped first, while they hold more than
# _FULL_POOL_ROWS rows in all; a larger pool is built on every call.  A shape
# of at most _FULL_POOL_ROWS orbits has p <= 16 (t >= 2 gives at least
# 2^(p-1) orbits, and p = 17 is no grid), so a kept full-pool row costs at
# most p = 16 bytes of int8 labels and 32 of triple and first index: 4.8 MB at
# worst.  The certify shapes of the benchmark hold 75,212 rows, 0.7 MB of labels.
# A support pool holds at most 64 balanced rows or its shape's few
# corner-double placements (80 at most for the shapes up to p = 40 tried), so
# it weighs little; it is scored like any other pool, as r_eval and
# triple_table look up full pools only.
_FULL_POOL_ROWS = 100_000
_full_pools: dict[Shape | tuple[Shape, int], _PoolTriples] = {}


def _kept_pool(key, build) -> LabelPool:
    """The kept pool under key, else build()'s, kept when small enough."""
    kept = _full_pools.pop(key, None)
    if kept is None:
        kept = _PoolTriples(build())
        if len(kept.pool) > _FULL_POOL_ROWS:
            return kept.pool
    _full_pools[key] = kept  # the most recently used last
    while sum(len(k.pool) for k in _full_pools.values()) > _FULL_POOL_ROWS:
        del _full_pools[next(iter(_full_pools))]
    return kept.pool


def full_pool(shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET) -> LabelPool:
    """Every orbit's canonical representative, in enumeration order, as a
    read-only label matrix; raises EnumerationBudgetError, before
    allocating, when the shape has more than `budget` orbits.  A pool of
    at most _FULL_POOL_ROWS rows is built once per process and the same
    object is returned on every call; the budget is checked on each one."""
    _check_budget(shape, budget)
    return _kept_pool(shape, lambda: LabelPool(
        shape, enumerate_label_matrix(shape, budget=budget)))


def support_pool(shape: Shape, seed: int = 0) -> LabelPool:
    """Constructive pool covering the closed-form support classes, in colex
    order.  For t <= p - 2 it holds the first 64 distinct balanced orbits
    among the two structured balanced arrays and 1,280 random ones;
    otherwise every placement of the feasible corner-double classes.  It
    is kept per (shape, seed) beside the full pools, so a repeated call in
    one process returns the same read-only pool."""
    return _kept_pool((shape, seed), lambda: _built_support_pool(shape, seed))


def _built_support_pool(shape: Shape, seed: int) -> LabelPool:
    if shape.t <= shape.p - 2:
        # up to 20 batches of 64 shuffles of the bag, one per row; only the
        # forms found so far (fewer than 64, so all stay) go on to the next
        rows = [balanced_no_adjacent(shape).colex, balanced_clustered(shape).colex]
        bag, rng = _balanced_bag(shape), np.random.default_rng(seed)
        for _ in range(20):
            pool = canonical_pool(shape, [*rows, *rng.permuted(np.tile(bag, (64, 1)), axis=1)], 64)
            if len(pool) == 64:
                break
            rows = list(pool.labels)
        return pool
    pairs = _corner_double_pairs(shape)
    return canonical_pool(shape, [
        _filled(shape, chosen)
        for cls in fan_classes(shape)
        for chosen in combinations(pairs, cls.doubles)
        if len({cell for pair in chosen for cell in pair}) == 2 * cls.doubles])


def _active_slopes(table: np.ndarray, x: float):
    """Rows tied with the envelope at x up to rounding, in pool order,
    and their slopes c01 + x c11."""
    q = q_eval(table.T, x)
    m = float(q.max())
    act = np.flatnonzero(q >= m - 1e-14 * abs(m))
    return act, table[act, 1] + x * table[act, 2]


def _live_rows(table: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The rows that can come within _active_slopes' tie band of the envelope
    in [lo, hi], in order.  A row peaks there at an end, or at most |c11|
    (hi - lo)^2 above one if c11 < 0.  A row on top at lo or hi bounds the
    envelope from below by its tangent there, or by |c11| (hi - lo)^2 less.
    The slack, 1e-9 of the largest term on [lo, hi], is far above rounding."""
    _, c01, c11 = cols = table.T
    ends = q_eval(cols, lo), q_eval(cols, hi)
    (r0, g0), (r1, g1) = ((q[k], 2.0 * (c01[k] + x * c11[k])) for x, q in zip((lo, hi), ends)
                          for k in [int(np.argmax(q))])
    cross = min(hi, max(lo, (r1 - r0 + g0 * lo - g1 * hi) / (g0 - g1))) if g0 != g1 else lo
    floor = min(max(r0 + g0 * (x - lo), r1 + g1 * (x - hi)) for x in (lo, hi, cross))
    reach, bend = max(abs(lo), abs(hi)), max(0.0, -c11.min()) * (hi - lo) * (hi - lo)
    slack = 1e-9 * (np.abs(table).max(axis=0) @ (1.0, 2.0 * reach, reach * reach))
    return table[np.maximum(*ends) >= floor - 2.0 * bend - slack]


def _nearest_crossing(clo, chi, xt: float) -> float:
    # root of q_lo - q_hi closest to xt, or xt when they do not cross
    a2, a1, a0 = clo[2] - chi[2], 2.0 * (clo[1] - chi[1]), clo[0] - chi[0]
    if abs(a2) <= 1e-14 * (abs(clo[2]) + abs(chi[2])):  # flat: a line, or parallel
        return xt if abs(a1) <= 1e-300 else -a0 / a1
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        return xt
    root = math.sqrt(disc)
    r1 = (-a1 - root) / (2.0 * a2)
    r2 = (-a1 + root) / (2.0 * a2)
    return r1 if abs(r1 - xt) <= abs(r2 - xt) else r2


def _basic_mixture(table: np.ndarray, x: float) -> np.ndarray | None:
    # one- or two-atom mixture over the envelope's active band at x.  A
    # zero-slope row is its own vertex; otherwise the two extreme slopes
    # are weighted to zero the mixture slope at their exact crossing,
    # which puts the mixture vertex on the crossing.  Slopes within
    # rounding of the extreme go to the earliest row.
    act, g = _active_slopes(table, x)
    w = np.zeros(len(table))
    cut = 1e-13 * float(np.abs(g).max())
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


def _side(table: np.ndarray | list, x: float) -> int:
    """Sign of the envelope's subdifferential at x: +1 when every active
    slope is positive (the minimiser lies left), -1 when every one is
    negative, 0 when x is a minimiser."""
    if isinstance(table, list):  # a few rows: q_eval's and _active_slopes' float operations
        q = [c00 + (c01 + c01) * x + c11 * x * x for c00, c01, c11 in table]
        m = max(q)
        cut = m - 1e-14 * abs(m)
        g = [c01 + x * c11 for (_, c01, c11), v in zip(table, q) if v >= cut]
        return 1 if min(g) > 0 else -1 if max(g) < 0 else 0
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
        if steps and steps % 4 == 0 and not isinstance(table, list):
            table = _live_rows(table, lo, hi)
            table = table.tolist() if len(table) <= 16 else table
        side = _side(table, mid)
        if side == 0:
            return mid, steps + 1
        lo, hi = (lo, mid) if side > 0 else (mid, hi)
    return 0.5 * (lo + hi), max_iter


def solve_exchange(
    shape: Shape,
    sigma: CovarianceSpec = IDENTITY,
    pool: Sequence[BlockArray] | None = None,
    tol: float = GAP_TOL,
    max_iter: int = 500,
) -> SolveResult:
    """Maximize the measure criterion over a pool by minimising the envelope.

    The pool defaults to every orbit of the shape (full_pool), so the
    optimum and its certificate cover all arrays; above DEFAULT_ORBIT_BUDGET
    orbits that raises EnumerationBudgetError, and a restricted pool must
    be passed explicitly.  A pool is scored as one label matrix (a
    LabelPool; a plain sequence of arrays is converted once), and only the
    support rows and the orbit representatives become BlockArrays.

    By minimax duality max_xi min_x sum_s xi_s q_s(x) = min_x r(x), with
    r(x) = max_s q_s(x) convex and piecewise quadratic.  The minimiser
    of r is bracketed from x = 0 by doubling steps and bisected on the
    sign of the subdifferential, the slopes of the pool rows tied with
    the envelope, until it contains 0 or the interval stops shrinking;
    `iterations` counts the bisection steps, at most max_iter.  Every few
    steps it narrows to the rows still live on the bracket (_live_rows),
    taking the same steps.  The measure is a one- or two-atom mixture over
    the rows active at the minimiser (_basic_mixture); ties go to the
    earliest pool row.  `gap` is the envelope at the measure's peak less
    the peak; the result is flagged converged when gap <= tol |y*|, and
    the support lists the pool rows within tol |y*| of y* at x*.  The solve
    runs on the unit-scale table of the bound covariance (model.bind), all
    its tests relative, and y* and gap take the scale at the end
    (_at_scale).  To certify a measure already at hand, use equivalence_gap.
    """
    cov = bind(shape, sigma)
    pool = LabelPool.of(full_pool(shape) if pool is None else pool)
    kept = _full_pools.get(pool.shape)
    table = (kept.table() if kept is not None and kept.pool is pool and cov.unit is None
             else triple_table(pool, BoundCov(1.0, cov.unit)))
    x, iterations = _envelope_argmin(table, max_iter)
    w = _basic_mixture(table, x)
    if w is None:  # bisection cut short by max_iter: best single row
        w = np.zeros(len(pool))
        w[_active_slopes(table, x)[0][0]] = 1.0
    # a flat mixture peaks everywhere, so it is read at x
    qs, xt = (float(v) for v in _vertex(*(w @ table), x))
    gap = float(q_eval(table.T, xt).max()) - qs

    keep = w > 1e-15
    w = np.where(keep, w, 0.0)
    w /= w.sum()
    keep = np.flatnonzero(keep)
    measure = Measure.from_labels(shape, pool.labels[keep], w[keep])
    orbit_pairs = tuple(
        (Orbit(s, orbit_size(s)), wt) for s, wt in sorted(
            measure.items(), key=lambda kv: kv[0].colex)
    )
    return _at_scale(SolveResult(
        shape=shape,
        x_star=xt,
        y_star=qs,
        regime="computational",
        q_support=QSupport.explicit(
            LabelPool(shape, pool.labels[_touching(table, xt, qs, tol)])),
        measure=measure,
        orbit_weights=orbit_pairs,
        gap=max(gap, 0.0),
        converged=bool(gap <= tol * abs(qs)),
        iterations=iterations,
    ), cov.scale)
