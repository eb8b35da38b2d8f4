"""Interference model linear algebra.

The response in block k is y = mu 1 + beta_k 1 + T0 tau + (T1+T2+T3+T4) gamma
+ eps, where T0 is the plot-by-treatment incidence and T1..T4 pick out the
treatment of the four orthogonal neighbors (no guard plots, so border plots
simply have fewer neighbors).  Eliminating the block mean against a
within-block covariance Sigma leaves the kernel

    Btilde = Sigma^-1 - Sigma^-1 J Sigma^-1 / (1' Sigma^-1 1),

and the per-block information components C_ij = Ti' Btilde Tj (i, j in
{0, 1} with T_1 meaning the neighbor total F).  A design's information
matrix for treatment contrasts is the Schur complement
C = C00 - C01 C11^+ C10 accumulated over blocks.

Scalar reductions c_ij = tr(B_t C_ij) drive the optimality theory.  With
O the plot-by-treatment one-hot, E = O O' the same-treatment indicator
over plot pairs and M the neighbor matrix, Btilde 1 = 0 gives

    c00 = <K, E>,  c01 = <K M, E>,  c11 = <M K M, E> - 1'M K M 1 / t,
    (C00, C01, C11) = (O'K O, O'K M O, O'M K M O)

for K = Btilde.  One pair kernel evaluates both over an (N, p) label
matrix for every covariance: in int64 on K = pI - J for the identity and
type-H family, with the scale applied once (exactly when rational), and
in float on K = Btilde for a dense Sigma.  The paper's closed forms in the
counting statistics (c_coeffs_closed, closed_numerators_batch) stay as
the independent check of that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .arrays import (
    BlockArray,
    CountStatistics,
    LabelPool,
    Shape,
    count_statistics,
    label_matrix,
)

EIG_CUTOFF = 1e-10
# rows per kernel pass: the pair indicator of a chunk stays a few MB
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class Identity:
    """White within-block covariance (the reference case)."""

    def __repr__(self):
        return "Identity()"


@dataclass(frozen=True)
class TypeH:
    """Sigma = x I + y 1' + 1 y', which shares its contrast kernel with x I."""

    x: Fraction | float | int
    y: tuple | None = None

    def __post_init__(self):
        if not (float(self.x) > 0):
            raise ValueError("type-H diagonal weight x must be positive")


@dataclass(frozen=True)
class GeneralCov:
    """Arbitrary symmetric positive definite within-block covariance."""

    matrix: tuple[tuple[float, ...], ...]

    @staticmethod
    def from_matrix(m) -> "GeneralCov":
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(arr, arr.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(arr)[0] <= 0:
            raise ValueError("covariance must be positive definite")
        return GeneralCov(tuple(tuple(float(v) for v in row) for row in arr))

    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


CovarianceSpec = Identity | TypeH | GeneralCov

IDENTITY = Identity()


def is_contrast_identity(sigma: CovarianceSpec) -> bool:
    """True when Btilde is a positive multiple of the centering projector."""
    return isinstance(sigma, (Identity, TypeH))


def rational_scale(sigma: CovarianceSpec) -> Fraction | None:
    """The exact scale 1/x relating Btilde to B_p, if representable."""
    if isinstance(sigma, Identity):
        return Fraction(1)
    if isinstance(sigma, TypeH) and isinstance(sigma.x, Rational):
        return 1 / Fraction(sigma.x)
    return None


def sigma_from_json(obj) -> CovarianceSpec:
    """Parse a covariance description.

    Accepts {"type": "identity"}, {"type": "type-h", "x": ..., "y": [...]}
    (x as int or "num/den" string stays exact), {"matrix": [[...]]}, or a
    bare dense row-major matrix.
    """
    if isinstance(obj, Mapping):
        kind = obj.get("type")
        if kind == "identity":
            return Identity()
        if kind == "type-h":
            x = obj["x"]
            x = Fraction(x) if isinstance(x, (int, str)) else float(x)
            y = obj.get("y")
            return TypeH(x, None if y is None else tuple(float(v) for v in y))
        if "matrix" in obj:
            return GeneralCov.from_matrix(obj["matrix"])
        raise ValueError(f"unrecognized covariance type {kind!r}")
    return GeneralCov.from_matrix(obj)


def sigma_matrix(sigma: CovarianceSpec, p: int) -> np.ndarray:
    if isinstance(sigma, Identity):
        return np.eye(p)
    if isinstance(sigma, TypeH):
        y = np.zeros(p) if sigma.y is None else np.asarray(sigma.y, dtype=float)
        if y.shape != (p,):
            raise ValueError(f"type-H offset vector must have length {p}")
        m = float(sigma.x) * np.eye(p) + np.outer(y, np.ones(p)) + np.outer(np.ones(p), y)
        if np.linalg.eigvalsh(m)[0] <= 0:
            raise ValueError("type-H parameters do not give a positive definite matrix")
        return m
    m = sigma.array()
    if m.shape != (p, p):
        raise ValueError(f"covariance is {m.shape[0]}x{m.shape[1]}, need {p}x{p}")
    return m


def btilde(sigma: CovarianceSpec, p: int) -> np.ndarray:
    """Block-centered precision kernel (p x p, float)."""
    if isinstance(sigma, Identity):
        return np.eye(p) - np.full((p, p), 1.0 / p)
    if isinstance(sigma, TypeH):
        return (np.eye(p) - np.full((p, p), 1.0 / p)) / float(sigma.x)
    inv = np.linalg.inv(sigma_matrix(sigma, p))
    u = inv.sum(axis=1)
    return inv - np.outer(u, u) / u.sum()


def btilde_fraction(sigma: CovarianceSpec, p: int) -> np.ndarray:
    """Exact rational Btilde; only the identity-kernel family supports it."""
    scale = rational_scale(sigma)
    if scale is None:
        raise ValueError("exact path needs Identity or rational type-H covariance")
    out = np.empty((p, p), dtype=object)
    off = -scale * Fraction(1, p)
    out[:] = off
    for i in range(p):
        out[i, i] = scale - scale * Fraction(1, p)
    return out


def _neighbor_shifts(x: np.ndarray, shape: Shape) -> list[np.ndarray]:
    """A plot-indexed (p, k) matrix read at the neighbor in the row above,
    the row below, the left and the right column (zero off the grid)."""
    a, b = shape.a, shape.b
    pad = np.pad(x.reshape(b, a, -1), ((1, 1), (1, 1), (0, 0)))
    return [pad[1 + dj:1 + dj + b, 1 + di:1 + di + a].reshape(x.shape)
            for dj, di in ((0, -1), (0, 1), (-1, 0), (1, 0))]


def neighbor_matrix(shape: Shape) -> np.ndarray:
    """p x p 0/1 matrix marking orthogonally adjacent plots (colex order)."""
    return sum(_neighbor_shifts(np.eye(shape.p, dtype=np.int64), shape))


@dataclass(frozen=True)
class IncidenceSet:
    """Plot-by-treatment incidences: direct and the four neighbor directions."""

    t0: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray

    @property
    def f(self) -> np.ndarray:
        return self.t1 + self.t2 + self.t3 + self.t4


def _onehot(labels: np.ndarray, t: int, dtype) -> np.ndarray:
    return (labels[:, :, None] == np.arange(1, t + 1)).astype(dtype)


def incidence_matrices(s: BlockArray) -> IncidenceSet:
    t0 = _onehot(label_matrix([s]), s.shape.t, np.int64)[0]
    return IncidenceSet(t0, *_neighbor_shifts(t0, s.shape))


@dataclass(frozen=True)
class CoefficientTriple:
    """Quadratic coefficients (c00, c01, c11) of one array, with provenance."""

    c00: Fraction | float
    c01: Fraction | float
    c11: Fraction | float
    source: str = "closed-form"

    def astuple(self):
        return (self.c00, self.c01, self.c11)


def c11_base(shape: Shape) -> Fraction:
    """Shape constant: the label-free part of c11 (same for every array)."""
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    return (
        Fraction(4 * p - 2 * a - 2 * b)
        - Fraction(2 * (8 * a * b - 7 * a - 7 * b + 4), t)
        + Fraction(4 * (2 * p - a - b) ** 2, p * t)
    )


def c_coeffs_closed(s: BlockArray, stats: CountStatistics | None = None) -> CoefficientTriple:
    """Exact coefficients from the counting statistics (identity kernel scale)."""
    shape = s.shape
    p, t = shape.p, shape.t
    st = stats if stats is not None else count_statistics(s)
    h00 = st.h[0][0]
    c00 = p - Fraction(h00, p)
    c01 = st.z1 - Fraction(st.h1, p)
    c11 = c11_base(shape) + st.z2 - Fraction(st.h2, p) - Fraction(2 * st.h3, p)
    return CoefficientTriple(c00, c01, c11, source="closed-form")


def c_coeffs_trace(s: BlockArray, sigma: CovarianceSpec = IDENTITY) -> CoefficientTriple:
    """Exact coefficients of one array by the pair kernel; identity and
    rational type-H covariance only (use triple_table for a dense Sigma)."""
    scale = rational_scale(sigma)
    if scale is None:
        raise ValueError("exact triples need identity or rational type-H covariance")
    nums = trace_numerators_batch(label_matrix([s]), s.shape)
    units = exact_units(s.shape, scale)
    return CoefficientTriple(*(int(n[0]) * u for n, u in zip(nums, units)), source="trace")


def closed_numerators_batch(labels: np.ndarray, shape: Shape):
    """Vectorized closed-form path over an (N, p) label matrix.

    Returns integer numerators (n00, n01, n11) over denominators
    (p, p, p*t); exact for the identity kernel.
    """
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    lab = np.asarray(labels, dtype=np.int64)
    n = lab.shape[0]
    onehot = _onehot(lab, t, np.int64)
    i, j = np.arange(p) % a, np.arange(p) // a
    subgrids = (j <= b - 2, j >= 1, i <= a - 2, i >= 1)
    f0 = onehot.sum(axis=1)
    fsub = [onehot[:, m, :].sum(axis=1) for m in subgrids]
    h00 = (f0 * f0).sum(axis=1)
    h1 = sum((f0 * fk).sum(axis=1) for fk in fsub)
    h2 = sum((fk * fk).sum(axis=1) for fk in fsub)
    h3 = sum(
        (fsub[x] * fsub[y]).sum(axis=1) for x in range(4) for y in range(x + 1, 4)
    )

    def same(mask: np.ndarray, offset: int) -> np.ndarray:
        src = np.flatnonzero(mask)
        return (lab[:, src] == lab[:, src + offset]).sum(axis=1)

    zr1 = same(j <= b - 2, a)
    zc1 = same(i <= a - 2, 1)
    zr2 = same(j <= b - 3, 2 * a) if b >= 3 else np.zeros(n, dtype=np.int64)
    zc2 = same(i <= a - 3, 2) if a >= 3 else np.zeros(n, dtype=np.int64)
    zd1 = same((i >= 1) & (j <= b - 2), a - 1)
    zd2 = same((i <= a - 2) & (j <= b - 2), a + 1)
    z1 = 2 * zr1 + 2 * zc1
    z2 = 2 * zr2 + 2 * zc2 + 4 * zd1 + 4 * zd2

    eta_num = (
        (4 * p - 2 * a - 2 * b) * p * t
        - 2 * (8 * a * b - 7 * a - 7 * b + 4) * p
        + 4 * (2 * p - a - b) ** 2
    )
    n00 = p * p - h00
    n01 = p * z1 - h1
    n11 = eta_num + p * t * z2 - t * h2 - 2 * t * h3
    return n00, n01, n11


def exact_units(shape: Shape, scale: Fraction) -> np.ndarray:
    """Exact value of one unit of the integer numerators of (c00, c01, c11)."""
    return np.array([scale / shape.p] * 2 + [scale / (shape.p * shape.t)], dtype=object)


@dataclass(frozen=True)
class _PairKernel:
    """The stack (K, K M, M K M) of one shape and covariance.

    On the identity family K = pI - J in int64 and Btilde = scale K / p;
    for a dense Sigma K = Btilde in float and scale is None.  unit is the
    float value of one count of K.
    """

    shape: Shape
    stack: np.ndarray
    scale: Fraction | float | None
    unit: float

    def triples(self, labels: np.ndarray) -> np.ndarray:
        """(N, 3) rows <X, E> for X in the stack, less the c11 constant: the
        numerators over (p, p, p t) before the scale for an integer kernel,
        the coefficients themselves for a float one."""
        i, j = np.triu_indices(self.shape.p, 1)
        # E is symmetric with a unit diagonal: only the pairs i < j vary
        pair_w = (self.stack + self.stack.transpose(0, 2, 1))[:, i, j].T
        diag = np.trace(self.stack, axis1=1, axis2=2)
        out = np.empty((len(labels), 3), dtype=self.stack.dtype)
        for lo in range(0, len(labels), CHUNK_ROWS):
            lab = labels[lo:lo + CHUNK_ROWS]
            same = (lab[:, i] == lab[:, j]).astype(pair_w.dtype)
            out[lo:lo + CHUNK_ROWS] = same @ pair_w + diag
        corner, t = self.stack[2].sum(), self.shape.t
        if self.scale is None:
            out[:, 2] -= corner / t
        else:
            out[:, 2] = t * out[:, 2] - corner
        return out

    def components(self, labels: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Per-row (C00, C01, C11) = O'X O before the scale, as chunks
        (rows, (n, 3, t, t))."""
        for lo in range(0, len(labels), CHUNK_ROWS):
            o = _onehot(labels[lo:lo + CHUNK_ROWS], self.shape.t, self.stack.dtype)
            xo = self.stack @ o[:, None]  # (n, 3, p, t)
            yield slice(lo, lo + len(o)), np.swapaxes(o, 1, 2)[:, None] @ xo

    def component_sum(self, labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(3, t, t) weighted sum of the rows' components."""
        return sum(np.tensordot(weights[rows], comp, axes=1)
                   for rows, comp in self.components(labels))


def _pair_kernel(shape: Shape, sigma: CovarianceSpec, exact: bool = False) -> _PairKernel:
    p = shape.p
    m = neighbor_matrix(shape)
    scale = rational_scale(sigma)
    if exact and scale is None:
        raise ValueError("exact path needs Identity or rational type-H covariance")
    if is_contrast_identity(sigma):
        k = p * np.eye(p, dtype=np.int64) - 1
        scale = 1.0 / float(sigma.x) if scale is None else scale
        unit = float(scale) / p
    else:
        k, unit = btilde(sigma, p), 1.0
    return _PairKernel(shape, np.stack([k, k @ m, m @ k @ m]), scale, unit)


def trace_numerators_batch(labels: np.ndarray, shape: Shape):
    """Pair-kernel path over an (N, p) label matrix; same integer contract
    as closed_numerators_batch (numerators over p, p and p*t)."""
    nums = _pair_kernel(shape, IDENTITY).triples(np.asarray(labels, dtype=np.int64))
    return nums[:, 0], nums[:, 1], nums[:, 2]


def triple_table(
    pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY
) -> np.ndarray:
    """(N, 3) float table of coefficients for a pool of same-shape arrays
    (a LabelPool, or any sequence of BlockArrays)."""
    if not len(pool):
        return np.zeros((0, 3))
    pool = LabelPool.of(pool)
    kern = _pair_kernel(pool.shape, sigma)
    out = kern.triples(pool.labels)
    if kern.scale is None:
        return out
    fac, p = float(kern.scale), pool.shape.p
    return out * np.array([fac / p, fac / p, fac / (p * pool.shape.t)])


def component_table(
    pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY
) -> np.ndarray:
    """(N, 3, t, t) float components (C00, C01, C11) of each pool array."""
    pool = LabelPool.of(pool)
    kern = _pair_kernel(pool.shape, sigma)
    return np.concatenate([c for _, c in kern.components(pool.labels)]) * kern.unit


def block_components(s: BlockArray, sigma: CovarianceSpec = IDENTITY, exact: bool = False):
    """Per-block information components (C00, C01, C11), each t x t."""
    return accumulate_components([(s, 1)], sigma, exact=exact)


def symmetric_pinv(mat: np.ndarray, cutoff: float = EIG_CUTOFF) -> np.ndarray:
    """Moore-Penrose inverse of each symmetric matrix of a (..., t, t) stack via
    eigendecomposition, zeroing eigenvalues below cutoff * its max|eigenvalue|."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=float))
    top = np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    keep = np.abs(w) > cutoff * np.maximum(top, 1e-300)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=keep)
    return (v * inv[..., None, :]) @ np.swapaxes(v, -1, -2)


def _fraction_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    aug = np.concatenate([a.copy(), rhs.copy()], axis=1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r, col] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular rational matrix")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def fraction_pinv(c: np.ndarray) -> np.ndarray:
    """Exact Moore-Penrose inverse of a symmetric rational matrix.

    Uses a rational basis V of the column space: pinv = V (V' C V)^-1 V'.
    """
    n = c.shape[0]
    # column-space basis by Gaussian elimination on a working copy
    work = c.astype(object).copy()
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if work[r, col] != 0), None)
        if piv is None:
            continue
        work[[row, piv]] = work[[piv, row]]
        work[row] = work[row] / work[row, col]
        for r in range(n):
            if r != row and work[r, col] != 0:
                work[r] = work[r] - work[r, col] * work[row]
        pivots.append(col)
        row += 1
    if not pivots:
        return np.full((n, n), Fraction(0), dtype=object)
    v = c[:, pivots]
    core = v.T @ c @ v
    inv = _fraction_solve(core, np.array(
        [[Fraction(1) if i == j else Fraction(0) for j in range(len(pivots))]
         for i in range(len(pivots))], dtype=object))
    return v @ inv @ v.T


def schur_complement(c00, c01, c11, exact: bool = False):
    """Information matrix C00 - C01 C11^+ C10 of accumulated components;
    float components may be (..., t, t) stacks."""
    if exact:
        return c00 - c01 @ fraction_pinv(c11) @ c01.T
    return c00 - c01 @ symmetric_pinv(c11) @ np.swapaxes(c01, -1, -2)


def exact_weighted_sum(
    weights: Sequence[Fraction | int],
    group_sum: Callable[[np.ndarray], np.ndarray],
    factor,
) -> np.ndarray:
    """factor * sum_k w_k x_k in exact Fractions, where group_sum(rows) is
    the int64 sum of x_k over an index array.  Rows sharing a weight (every
    atom of one orbit does) are summed in one call, and the groups combined
    in Python integers over the weights' common denominator."""
    groups: dict[Fraction, list[int]] = {}
    for k, w in enumerate(weights):
        groups.setdefault(Fraction(w), []).append(k)
    den = math.lcm(*(w.denominator for w in groups))
    total = sum(group_sum(np.array(rows)).astype(object) * (w * den).numerator
                for w, rows in groups.items())
    return total * (factor / den)


def accumulate_components(
    weighted_blocks: Iterable[tuple[BlockArray, object]],
    sigma: CovarianceSpec = IDENTITY,
    exact: bool = False,
    labels: np.ndarray | None = None,
):
    """Weighted sums of (C00, C01, C11) over (array, weight) pairs; exact
    sums are Fractions, converted once per entry (see exact_weighted_sum).
    labels, if given, is the label_matrix of the arrays."""
    pairs = list(weighted_blocks)
    if not pairs:
        raise ValueError("no blocks given")
    shape = pairs[0][0].shape
    kern = _pair_kernel(shape, sigma, exact)
    lab = label_matrix([s for s, _ in pairs]) if labels is None else labels
    if exact:
        out = exact_weighted_sum(
            [w for _, w in pairs],
            lambda rows: kern.component_sum(lab[rows], np.ones(len(rows), dtype=np.int64)),
            kern.scale / shape.p)
    else:
        weights = np.array([float(w) for _, w in pairs])
        out = kern.component_sum(lab, weights) * kern.unit
    return out[0], out[1], out[2]


def info_matrix_exact(design, sigma: CovarianceSpec = IDENTITY, exact: bool = False) -> np.ndarray:
    """Information matrix of an exact design (blocks accumulated, then Schur)."""
    comps = accumulate_components([(s, 1) for s in design.blocks], sigma, exact=exact)
    return schur_complement(*comps, exact=exact)


def info_matrix_measure(measure, sigma: CovarianceSpec = IDENTITY, exact: bool = False) -> np.ndarray:
    """Per-block-average information matrix of an approximate measure."""
    comps = accumulate_components(measure.atoms.items(), sigma, exact=exact)
    return schur_complement(*comps, exact=exact)


def centering_projector(t: int, exact: bool = False) -> np.ndarray:
    """B_t = I - J/t, the projector onto treatment contrasts."""
    if exact:
        out = np.full((t, t), -Fraction(1, t), dtype=object)
        for i in range(t):
            out[i, i] = 1 - Fraction(1, t)
        return out
    return np.eye(t) - np.full((t, t), 1.0 / t)
