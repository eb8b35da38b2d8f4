"""Independent reference for the two-dimensional interference model.

Written from the paper's model, not from `fielddesign`, which this module
never imports.  A block is an a x b grid of treatment labels 1..t; plots
are numbered down each column, columns left to right (colex), so plot
(i, j) with 0-based row i and column j is number j*a + i.  For one block:

* T0 is the p x t plot-by-treatment incidence, F = M T0 the neighbour
  incidence, with M the p x p 0/1 matrix of orthogonally adjacent plots;
* Btilde = S^-1 - S^-1 J S^-1 / (1' S^-1 1) for the within-block
  covariance S, so Btilde = (I - J/p) / x under type-H with weight x;
* C00 = T0' Btilde T0, C01 = T0' Btilde F, C11 = F' Btilde F, and the
  quadratic of the block is q(x) = c00 + 2 c01 x + c11 x^2 with
  c_ij = tr(B_t C_ij), B_t = I - J/t.

A measure's quadratic is the weighted sum of its blocks' quadratics.  The
minimax value y* = min_x max_s q_s(x) bounds every measure's minimum
min_x q_xi(x); a measure whose quadratic has its minimum y* at x* while
max_s q_s(x*) <= y* attains the bound (the equivalence certificate).  A
design's information matrix is the Schur complement
C = S00 - S01 S11^- S10 of its summed components, and its A/D/E/T
efficiencies compare the t-1 contrast eigenvalues of C with those of the
completely symmetric optimum n y*/(t-1) B_t.

Everything is exact (integers and Fractions) for the identity and
rational type-H kernels, floating point for a dense covariance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# -- kernels -----------------------------------------------------------------

class Kernel:
    """Within-block covariance: identity, type-H with weight x, or dense.

    `scale` is the exact factor relating Btilde to I - J/p (1 for identity,
    1/x for type-H), or None for a dense covariance.
    """

    def __init__(self, scale: Fraction | None = None, matrix=None):
        self.scale = scale
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)

    @staticmethod
    def identity() -> "Kernel":
        return Kernel(scale=Fraction(1))

    @staticmethod
    def type_h(x) -> "Kernel":
        return Kernel(scale=1 / Fraction(x))

    @staticmethod
    def dense(matrix) -> "Kernel":
        return Kernel(matrix=matrix)

    @property
    def exact(self) -> bool:
        return self.scale is not None

    def btilde(self, p: int) -> np.ndarray:
        """Dense-covariance Btilde; the identity family goes through exact
        integer numerators instead."""
        inv = np.linalg.inv(self.matrix)
        u = inv.sum(axis=1)
        return inv - np.outer(u, u) / u.sum()


def ar1_matrix(p: int, rho: float) -> np.ndarray:
    """AR(1) covariance rho^|i-j| along the plot order."""
    k = np.arange(p)
    return rho ** np.abs(k[:, None] - k[None, :]).astype(float)


# -- grids and orbits ----------------------------------------------------------

def neighbour_matrix(a: int, b: int) -> np.ndarray:
    p = a * b
    m = np.zeros((p, p), dtype=np.int64)
    for j in range(b):
        for i in range(a):
            k = j * a + i
            if i + 1 < a:
                m[k, k + 1] = m[k + 1, k] = 1
            if j + 1 < b:
                m[k, k + a] = m[k + a, k] = 1
    return m


def rows_to_colex(rows) -> list[int]:
    """Grid rows (a lists of b labels) to the colex label sequence."""
    a, b = len(rows), len(rows[0])
    return [int(rows[i][j]) for j in range(b) for i in range(a)]


def orbit_labels(a: int, b: int, t: int) -> np.ndarray:
    """Every relabeling orbit as its first-occurrence label sequence.

    These are the restricted growth strings of length p with at most
    min(t, p) distinct values, in lexicographic order, as an (N, p) array.
    """
    p, top = a * b, min(t, a * b)
    seqs = np.ones((1, 1), dtype=np.int64)
    maxes = np.ones(1, dtype=np.int64)
    for _ in range(1, p):
        lim = np.minimum(maxes + 1, top)
        parent = np.repeat(np.arange(len(seqs)), lim)
        vals = np.arange(lim.sum()) - np.repeat(np.cumsum(lim) - lim, lim) + 1
        seqs = np.concatenate([seqs[parent], vals[:, None]], axis=1)
        maxes = np.maximum(maxes[parent], vals)
    return seqs


def orbit_size(labels, t: int) -> int:
    """Number of distinct relabelings: t! / (t - distinct labels)!."""
    return math.perm(t, len(set(int(v) for v in labels)))


# -- per-block quadratics ------------------------------------------------------

def _incidences(labels: np.ndarray, a: int, b: int, t: int):
    lab = np.asarray(labels, dtype=np.int64).reshape(-1, a * b)
    t0 = (lab[:, :, None] == np.arange(1, t + 1)[None, None, :]).astype(np.int64)
    f = np.einsum("pq,nqt->npt", neighbour_matrix(a, b), t0)
    return t0, f


def triple_numerators(labels, a: int, b: int, t: int) -> np.ndarray:
    """(N, 3) integers K with c_ij = scale * K_ij / (p t) for the identity family.

    With p Btilde = p I - J, G_ij = p X_i'X_j - (X_i'1)(1'X_j) and
    t tr(B_t G_ij) = t tr(G_ij) - 1'G_ij 1.
    """
    p = a * b
    t0, f = _incidences(labels, a, b, t)
    xs = (t0, f)
    out = np.empty((t0.shape[0], 3), dtype=np.int64)
    for col, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        x, y = xs[i], xs[j]
        tr = p * np.einsum("npt,npt->n", x, y) - np.einsum(
            "nt,nt->n", x.sum(axis=1), y.sum(axis=1))
        xr, yr = x.sum(axis=2), y.sum(axis=2)
        total = p * np.einsum("np,np->n", xr, yr) - xr.sum(axis=1) * yr.sum(axis=1)
        out[:, col] = t * tr - total
    return out


def triples_float(labels, a: int, b: int, t: int, kernel: Kernel) -> np.ndarray:
    """(N, 3) float triples (c00, c01, c11) under any kernel."""
    p = a * b
    if kernel.exact:
        return triple_numerators(labels, a, b, t) * (float(kernel.scale) / (p * t))
    bt = kernel.btilde(p)
    t0, f = _incidences(labels, a, b, t)
    xs = (t0.astype(float), f.astype(float))
    out = np.empty((t0.shape[0], 3))
    for col, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        x, y = xs[i], xs[j]
        by = np.einsum("pq,nqt->npt", bt, y)
        tr = np.einsum("npt,npt->n", x, by)
        total = np.einsum("np,pq,nq->n", x.sum(axis=2), bt, y.sum(axis=2))
        out[:, col] = tr - total / t
    return out


def exact_triples(labels, a: int, b: int, t: int, kernel: Kernel) -> list[tuple]:
    """Exact Fraction triples for the identity family."""
    fac = kernel.scale / (a * b * t)
    return [tuple(Fraction(int(v)) * fac for v in row)
            for row in triple_numerators(labels, a, b, t)]


def quadratic_minimum(c):
    """(y, x): the minimum of c00 + 2 c01 x + c11 x^2 and where it is attained."""
    c00, c01, c11 = c
    if c11 == 0:
        if c01 != 0:
            raise ValueError("unbounded linear quadratic")
        return c00, c00 * 0
    return c00 - c01 * c01 / c11, -c01 / c11


def aggregate(triples, weights):
    """Weighted sum of triples; exact when both inputs are exact."""
    acc = [0, 0, 0]
    for c, w in zip(triples, weights):
        for k in range(3):
            acc[k] = acc[k] + w * c[k]
    return tuple(acc)


def envelope_max_exact(numerators: np.ndarray, scale: Fraction, p: int, t: int, x):
    """max_s q_s(x) over integer numerator rows, exactly, at rational x."""
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    best = None
    for k00, k01, k11 in {tuple(int(z) for z in row) for row in numerators}:
        val = k00 * v * v + 2 * k01 * u * v + k11 * u * u
        best = val if best is None else max(best, val)
    return Fraction(best, p * t * v * v) * scale


def envelope_minimum(table: np.ndarray) -> tuple[float, float]:
    """(y*, x*) = min_x max_s q_s(x) over the rows of a float triple table.

    The envelope is convex; golden-section search brackets the minimum,
    then the exact minimiser is chosen among the vertices and pairwise
    crossings of the parabolas active near it.
    """
    tab = np.unique(np.round(np.asarray(table, dtype=float), 12), axis=0)

    def r(x):
        return float(np.max(tab[:, 0] + 2 * tab[:, 1] * x + tab[:, 2] * x * x))

    lo, hi = -4.0, 4.0
    while r(lo) <= r(lo / 2):
        lo *= 2
    while r(hi) <= r(hi / 2):
        hi *= 2
    g = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = r(x1), r(x2)
    for _ in range(200):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = r(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = r(x2)
    xm = 0.5 * (lo + hi)
    vals = tab[:, 0] + 2 * tab[:, 1] * xm + tab[:, 2] * xm * xm
    near = tab[vals >= vals.max() - 1e-6 * max(1.0, abs(vals.max()))]
    cands = [xm]
    for c00, c01, c11 in near:
        if c11 > 0:
            cands.append(-c01 / c11)
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            d = near[i] - near[j]
            a2, a1, a0 = d[2], 2 * d[1], d[0]
            if abs(a2) < 1e-14:
                if abs(a1) > 1e-14:
                    cands.append(-a0 / a1)
                continue
            disc = a1 * a1 - 4 * a2 * a0
            if disc >= 0:
                root = math.sqrt(disc)
                cands += [(-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)]
    x_best = min(cands, key=r)
    return r(x_best), x_best


def balanced_y_star(a: int, b: int, t: int) -> Fraction:
    """Identity-kernel minimax value for t <= p-2 (the paper's closed form):
    x* = 0 and y* = p - (p^2 + r(t-r)) / (p t) with r = p mod t."""
    p = a * b
    if t > p - 2:
        raise ValueError("closed form needs t <= p - 2")
    r = p % t
    return Fraction(p) - Fraction(p * p + r * (t - r), p * t)


def two_orbit_proportions(reps, x_star, a: int, b: int, t: int):
    """Weights (w, 1-w) on two orbits that zero the aggregated slope
    c01 + x* c11 at x*, exactly."""
    c = exact_triples(np.array([rows_to_colex(r) for r in reps]), a, b, t,
                      Kernel.identity())
    g = [ci[1] + Fraction(x_star) * ci[2] for ci in c]
    w = g[1] / (g[1] - g[0])
    return w, 1 - w


def least_symmetric_n(weights_and_sizes) -> int:
    """Least n making every n * w_k / |orbit_k| a whole number."""
    return math.lcm(*(
        (Fraction(w) / size).denominator for w, size in weights_and_sizes if w))


# -- designs -------------------------------------------------------------------

def _fraction_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _generalized_inverse(m: np.ndarray) -> np.ndarray:
    """Exact g-inverse of a symmetric PSD rational matrix: invert a maximal
    nonsingular principal submatrix, zeros elsewhere."""
    n = m.shape[0]
    chosen: list[int] = []
    for k in range(n):
        trial = chosen + [k]
        sub = [[m[i, j] for j in trial] for i in trial]
        if _fraction_rank(sub) == len(trial):
            chosen = trial
    out = np.full((n, n), Fraction(0), dtype=object)
    if chosen:
        inv = _fraction_inverse([[m[i, j] for j in chosen] for i in chosen])
        for x, i in enumerate(chosen):
            for y, j in enumerate(chosen):
                out[i, j] = inv[x][y]
    return out


def _fraction_rank(m: list[list[Fraction]]) -> int:
    rows = [list(r) for r in m]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def information_matrix(blocks, a: int, b: int, t: int, kernel: Kernel):
    """Information matrix of a design (blocks as colex label sequences),
    summed over blocks: exact object array for the identity family."""
    p = a * b
    t0, f = _incidences(np.asarray(blocks), a, b, t)
    if kernel.exact:
        xs = (t0, f)
        s = []
        for i, j in ((0, 0), (0, 1), (1, 1)):
            x, y = xs[i], xs[j]
            g = p * np.einsum("npt,npu->ntu", x, y) - np.einsum(
                "nt,nu->ntu", x.sum(axis=1), y.sum(axis=1))
            fac = kernel.scale / p
            s.append(np.vectorize(lambda v: Fraction(int(v)) * fac, otypes=[object])(
                g.sum(axis=0)))
        s00, s01, s11 = s
        return s00 - s01 @ _generalized_inverse(s11) @ s01.T
    bt = kernel.btilde(p)
    xs = (t0.astype(float), f.astype(float))
    s = [np.einsum("npt,pq,nqu->tu", xs[i], bt, xs[j])
         for i, j in ((0, 0), (0, 1), (1, 1))]
    s00, s01, s11 = s
    return s00 - s01 @ np.linalg.pinv(s11, rcond=1e-10, hermitian=True) @ s01.T


def is_optimal_design(blocks, a: int, b: int, t: int, kernel: Kernel, y_star) -> bool:
    """Exact test that C / n equals the optimum y*/(t-1) B_t."""
    c = information_matrix(blocks, a, b, t, kernel)
    n = len(blocks)
    target = Fraction(y_star) / (t - 1)
    for i in range(t):
        for j in range(t):
            want = target * ((1 if i == j else 0) - Fraction(1, t))
            if c[i, j] / n != want:
                return False
    return True


def efficiencies(blocks, a: int, b: int, t: int, kernel: Kernel, y_star) -> tuple:
    """(A, D, E, T) efficiencies of a design against the bound n y*.

    The t - 1 contrast eigenvalues are all but the one of least magnitude
    (the 1_t direction); the optimum has each equal to n y* / (t-1).
    """
    c = np.asarray(information_matrix(blocks, a, b, t, kernel), dtype=float)
    lam = np.sort(np.linalg.eigvalsh(c))
    lam = np.delete(lam, int(np.argmin(np.abs(lam))))
    each = len(blocks) * float(y_star) / (t - 1)
    if lam.min() <= 1e-8 * max(float(np.trace(c)), 1.0):
        return (0.0, 0.0, 0.0, 0.0)
    return (
        float(len(lam) / np.sum(each / lam)),
        float(np.exp(np.mean(np.log(lam / each)))),
        float(lam.min() / each),
        float(np.mean(lam / each)),
    )
