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
type-H family, and in float on K = Btilde for a dense Sigma.  The
covariance-free part (neighbor matrix, int64 stack, plot-pair index and
pair weights) is built once per shape and held read-only; a covariance
adds its scale, or its own float stack, and its size is checked on each.
Triples are a 0/1 pair indicator times the pair weights in float64 BLAS,
exact for the integer stack (_shape_kernel states the bound).  Only this
module reads the identity numerators over (p, p, p t): numerator_rows,
the float route scaled_rows and the exact q of exact_q.  The one exact
sum is component_numerators: Python-int numerators over one known
denominator, from counts of each weight's rows per (plot pair, label
pair) cell; schur_numerators eliminates in integers, and Fractions are
made once, at the output.  The paper's counting formula, written once in
closed_numerators_batch (and read for one array by c_coeffs_closed),
stays as the independent check of that kernel.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .arrays import (
    BlockArray,
    LabelPool,
    Shape,
    _neighbor_shifts,
    label_matrix,
    neighbor_matrix,
)

EIG_CUTOFF = 1e-10
# rows per kernel pass: the pair indicator of a chunk stays a few MB
CHUNK_ROWS = 2048


class _TypeHFields(NamedTuple):
    x: Fraction | float | int
    y: tuple | None = None


class TypeH(_TypeHFields):
    """Sigma = x I + y 1' + 1 y', which shares its contrast kernel with x I;
    x > 0 with x and 1/x finite as floats, and finite offsets y, tested once in
    Fractions: positive definite exactly when x + sum y > sqrt(len(y) y'y)."""

    __slots__ = ()

    def __new__(cls, x: Fraction | float | int, y: tuple | None = None):
        try:
            ok = 0 < float(x) < math.inf and 1 / float(x) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError("type-H weight x must be positive and finite, and so must 1/x")
        if y is not None:
            try:  # numpy integers as Python ints (exact_value), floats as they are
                fx, *fy = (Fraction(v) if (e := exact_value(v)) is None else e for v in (x, *y))
            except (OverflowError, ValueError):  # an infinite or NaN float
                raise ValueError("type-H offsets y must be finite numbers") from None
            if not (0 < (lead := fx + sum(fy)) and lead * lead > len(fy) * sum(v * v for v in fy)):
                raise ValueError("type-H parameters do not give a positive definite matrix")
        return super().__new__(cls, x, y)


class Identity(TypeH):
    """White within-block covariance: the type-H member x = 1, y = 0."""

    __slots__ = ()

    def __new__(cls):
        return super().__new__(cls, Fraction(1))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return ()

    def __repr__(self) -> str:
        return "Identity()"


class GeneralCov(NamedTuple):
    """Arbitrary symmetric positive definite within-block covariance."""

    matrix: tuple[tuple[float, ...], ...]

    @staticmethod
    def from_matrix(m) -> "GeneralCov":
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(m, dtype=object).flat):
            raise ValueError("covariance entries must be numbers, not booleans")
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("covariance must be square")
        if not (np.isfinite(arr).all()  # symmetric to 1e-10 of the largest |entry|
                and np.allclose(arr, arr.T, atol=1e-10 * np.abs(arr).max(initial=0.0))):
            raise ValueError("covariance must be finite and symmetric")
        if not np.linalg.eigvalsh(arr)[0] > 0:  # a NaN eigenvalue is refused too
            raise ValueError("covariance must be positive definite")
        cov = GeneralCov(tuple(tuple(float(v) for v in row) for row in arr))
        with np.errstate(all="ignore"):  # an overflowing inverse is refused, not warned of
            if not np.isfinite(btilde(cov, len(arr))).all():
                raise ValueError("covariance kernel (its block-centered inverse) is not finite")
        return cov

    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


CovarianceSpec = TypeH | GeneralCov

IDENTITY = Identity()


def exact_value(v) -> Fraction | None:
    """The one exactness rule: an int, a Fraction or a numpy integer is exact,
    returned as a Fraction of Python ints so no numpy scalar reaches Fraction
    arithmetic; anything else is None, and the path reading it runs in floats."""
    if type(v) is Fraction and type(v.numerator) is int is type(v.denominator):
        return v
    if isinstance(v, (int, np.integer, Fraction)):
        return Fraction(int(v.numerator), int(v.denominator))
    return None


def rational_scale(sigma: CovarianceSpec) -> Fraction | None:
    """The exact scale 1/x relating Btilde to B_p, for a type-H x that is
    exact (exact_value); None for a float x or a dense Sigma."""
    x = exact_value(sigma.x) if isinstance(sigma, TypeH) else None
    return None if x is None else 1 / x


def sigma_from_json(obj) -> CovarianceSpec:
    """Parse a covariance description; ValueError for anything malformed.

    Accepts {"type": "identity"}, {"type": "type-h", "x": ..., "y": [...]},
    {"matrix": [[...]]}, or a bare dense row-major matrix.  The type-H x
    stays exact as an int or a "num/den" or decimal string, is a float
    otherwise, and must be positive and finite; a boolean is refused.  The
    optional offsets y are a list of numbers, one per plot (check_sigma_size).
    """
    if isinstance(obj, Mapping):
        kind = obj.get("type")
        if kind == "identity":
            return Identity()
        if kind == "type-h":
            x, y = obj.get("x"), obj.get("y")
            if isinstance(x, bool):
                raise ValueError(f"type-H x must be a number, got {x}")
            if y is not None and not (isinstance(y, list) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in y)):
                raise ValueError(f"type-H offsets y must be a list of numbers, got {y!r}")
            try:
                x = Fraction(x) if isinstance(x, (int, str)) else float(x)
                y = None if y is None else tuple(float(v) for v in y)
            except (TypeError, ZeroDivisionError, OverflowError):
                raise ValueError(f"bad type-H x={obj.get('x')!r} or y={obj.get('y')!r}") from None
            return TypeH(x, y)
        if "matrix" in obj:
            return GeneralCov.from_matrix(obj["matrix"])
        raise ValueError(f"unrecognized covariance type {kind!r}")
    return GeneralCov.from_matrix(obj)


def check_sigma_size(sigma: CovarianceSpec, p: int) -> None:
    """The one check that a spec fits p plots, ValueError otherwise: type-H
    offsets, one per plot, with no float matrix built (it can overflow), or a
    p x p dense matrix.  Either spec is positive definite when made."""
    if isinstance(sigma, TypeH):
        if sigma.y is not None and len(sigma.y) != p:
            raise ValueError(f"type-H offset vector must have length {p}")
    elif (m := sigma.array().shape) != (p, p):
        raise ValueError(f"covariance is {m[0]}x{m[1]}, need {p}x{p}")


def sigma_matrix(sigma: CovarianceSpec, p: int) -> np.ndarray:
    """The p x p matrix of a covariance spec that fits p plots (check_sigma_size)."""
    check_sigma_size(sigma, p)
    if isinstance(sigma, TypeH):
        y = np.zeros(p) if sigma.y is None else np.asarray(sigma.y, dtype=float)
        return float(sigma.x) * np.eye(p) + np.outer(y, np.ones(p)) + np.outer(np.ones(p), y)
    return sigma.array()


def btilde(sigma: CovarianceSpec, p: int) -> np.ndarray:
    """Block-centered precision kernel (p x p, float)."""
    if isinstance(sigma, TypeH):
        check_sigma_size(sigma, p)
        return (np.eye(p) - np.full((p, p), 1.0 / p)) / float(sigma.x)
    inv = np.linalg.inv(sigma_matrix(sigma, p))
    u = inv.sum(axis=1)
    return inv - np.outer(u, u) / u.sum()


class IncidenceSet(NamedTuple):
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


class CoefficientTriple(NamedTuple):
    """Quadratic coefficients (c00, c01, c11) of one array."""

    c00: Fraction | float
    c01: Fraction | float
    c11: Fraction | float

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


def c_coeffs_closed(s: BlockArray) -> CoefficientTriple:
    """Exact coefficients of one array by the counting formula (identity
    kernel scale): closed_numerators_batch on its one row."""
    nums = closed_numerators_batch(label_matrix([s]), s.shape)
    units = exact_units(s.shape, Fraction(1))
    return CoefficientTriple(*(int(n[0]) * u for n, u in zip(nums, units)))


def closed_numerators_batch(labels: np.ndarray, shape: Shape):
    """The paper's counting formula over an (N, p) label matrix.

    With f0 the replication counts over the grid, f1..f4 over the grid
    less its last column, first column, last row and first row, h[i][j] =
    f_i . f_j, h1 = sum_{j>=1} h[0][j], h2 = sum_{i>=1} h[i][i], h3 =
    sum_{1<=i<j} h[i][j], z1 the ordered same-label neighbor pairs and z2
    the ordered same-label pairs weighted by their shared neighbors,
    returns the integer numerators n00 = p^2 - h00, n01 = p z1 - h1 and
    n11 = eta p t + p t z2 - t h2 - 2 t h3 over denominators (p, p, p*t),
    eta = c11_base; exact for the identity kernel.
    """
    a, b, t, p = shape.a, shape.b, shape.t, shape.p
    lab = np.asarray(labels, dtype=np.int64)
    i, j = np.arange(p) % a, np.arange(p) // a
    grids = np.array([j >= 0, j <= b - 2, j >= 1, i <= a - 2, i >= 1], dtype=np.int64)
    f = grids @ _onehot(lab, t, np.int64)  # (N, 5, t): f0..f4
    h = f @ f.transpose(0, 2, 1)
    h1 = h[:, 0, 1:].sum(axis=1)
    h2 = np.trace(h[:, 1:, 1:], axis1=1, axis2=2)
    h3 = (h[:, 1:, 1:].sum(axis=(1, 2)) - h2) // 2

    def same(mask: np.ndarray, offset: int) -> np.ndarray:
        src = np.flatnonzero(mask)
        return (lab[:, src] == lab[:, src + offset]).sum(axis=1)

    # plot pairs one apart in a row and in a column; two apart in a row
    # and in a column (one shared neighbor); diagonal (two shared)
    z1 = 2 * same(j <= b - 2, a) + 2 * same(i <= a - 2, 1)
    z2 = (2 * same(j <= b - 3, 2 * a) + 2 * same(i <= a - 3, 2)
          + 4 * same((i >= 1) & (j <= b - 2), a - 1)
          + 4 * same((i <= a - 2) & (j <= b - 2), a + 1))
    n00 = p * p - h[:, 0, 0]
    n01 = p * z1 - h1
    n11 = int(c11_base(shape) * p * t) + p * t * z2 - t * h2 - 2 * t * h3
    return n00, n01, n11


def exact_units(shape: Shape, scale: Fraction) -> np.ndarray:
    """Exact value of one unit of the integer numerators of (c00, c01, c11)."""
    return np.array([scale / shape.p] * 2 + [scale / (shape.p * shape.t)], dtype=object)


class _PairKernel(NamedTuple):
    """The stack (K, K M, M K M) of one shape and covariance, with its
    reductions over the plot pairs i < j (pairs): the symmetrized weights
    pair_w (P, 3) in float64, the diagonal and the c11 corner 1'M K M 1.

    On the identity family K = pI - J in int64 and Btilde = scale K / p;
    for a dense Sigma K = Btilde in float and scale is None.  unit is the
    float value of one count of K.
    """

    shape: Shape
    neighbors: np.ndarray
    stack: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    pair_w: np.ndarray
    diag: np.ndarray
    corner: np.integer | np.floating
    scale: Fraction | float | None
    unit: float

    def triples(self, labels: np.ndarray) -> np.ndarray:
        """(N, 3) rows <X, E> for X in the stack, less the c11 constant: the
        int64 numerators over (p, p, p t) before the scale for an integer
        kernel, the coefficients themselves for a float one.  Both multiply
        a float64 0/1 pair indicator by pair_w in BLAS; on an integer kernel
        every partial sum is an integer below 2**53 (_shape_kernel), so the
        float64 result is exact."""
        i, j = self.pairs
        narrow = np.min_scalar_type(self.shape.t)
        out = np.empty((len(labels), 3), dtype=self.stack.dtype)
        for lo in range(0, len(labels), CHUNK_ROWS):
            # one plot per row, so the pair gathers copy whole rows
            lab = labels[lo:lo + CHUNK_ROWS].T.astype(narrow, order="C")
            # E is symmetric with a unit diagonal: only the pairs i < j vary
            out[lo:lo + CHUNK_ROWS] = (lab[i] == lab[j]).T.astype(np.float64) @ self.pair_w
        out += self.diag
        if self.scale is None:
            out[:, 2] -= self.corner / self.shape.t
        else:
            out[:, 2] = self.shape.t * out[:, 2] - self.corner
        return out

    def components(self, labels: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Per-row (C00, C01, C11) = O'X O before the scale, as chunks
        (rows, (n, 3, t, t))."""
        for lo in range(0, len(labels), CHUNK_ROWS):
            o = _onehot(labels[lo:lo + CHUNK_ROWS], self.shape.t, self.stack.dtype)
            xo = self.stack @ o[:, None]  # (n, 3, p, t)
            yield slice(lo, lo + len(o)), np.swapaxes(o, 1, 2)[:, None] @ xo

    def count_sum(self, labels: np.ndarray) -> np.ndarray:
        """(3, t, t) int64 sum of the rows' O'X O: X contracted with the
        number of rows placing labels (a, b) on plots (i, j), a bincount."""
        p, t = self.shape.p, self.shape.t
        pairs = np.arange(0, p * p * t * t, t * t).reshape(p, p)
        counts = np.zeros(p * p * t * t, dtype=np.int64)
        for lo in range(0, len(labels), CHUNK_ROWS):
            lab = np.ascontiguousarray(labels[lo:lo + CHUNK_ROWS]) - 1
            idx = (lab * t)[:, :, None] + lab[:, None, :] + pairs
            counts += np.bincount(idx.ravel(), minlength=len(counts))
        return (self.stack.reshape(3, p * p) @ counts.reshape(p * p, t * t)).reshape(3, t, t)


def _stack_kernel(shape: Shape, m: np.ndarray, k: np.ndarray, pairs, scale, unit) -> _PairKernel:
    """The pair kernel of K on a shape with neighbor matrix m."""
    stack = np.stack([k, k @ m, m @ k @ m])
    i, j = pairs
    pair_w = (stack + stack.transpose(0, 2, 1))[:, i, j].T.astype(np.float64)
    return _PairKernel(shape, m, stack, pairs, pair_w, np.trace(stack, axis1=1, axis2=2),
                       stack[2].sum(), scale, unit)


@functools.lru_cache(maxsize=64)
def _shape_kernel(shape: Shape) -> _PairKernel:
    """The covariance-free int64 kernel of a shape at unit scale, built once
    per shape and held read-only; every pair kernel of the shape starts here."""
    p = shape.p
    kern = _stack_kernel(shape, neighbor_matrix(shape), p * np.eye(p, dtype=np.int64) - 1,
                         np.triu_indices(p, 1), Fraction(1), 1 / p)
    # triples sums at most P = p(p-1)/2 integer weights of size |w| <= 8p + 32
    # in float64: every partial sum is an exact integer while P max|w| < 2**53
    # (p = 48 gives under 2**19), whatever order BLAS adds in
    if len(kern.pairs[0]) * np.abs(kern.pair_w).max() >= 2**53:
        raise ValueError(f"{shape}: pair weights too large for exact float64 sums")
    for arr in (kern.neighbors, kern.stack, *kern.pairs, kern.pair_w, kern.diag):
        arr.flags.writeable = False
    return kern


def _pair_kernel(shape: Shape, sigma: CovarianceSpec, exact: bool = False) -> _PairKernel:
    scale = rational_scale(sigma)
    if exact and scale is None:
        raise ValueError("exact path needs Identity or rational type-H covariance")
    if isinstance(sigma, TypeH):
        check_sigma_size(sigma, shape.p)  # the offsets cancel in K
        scale = 1.0 / float(sigma.x) if scale is None else scale
        return _shape_kernel(shape)._replace(scale=scale, unit=float(scale) / shape.p)
    base = _shape_kernel(shape)
    return _stack_kernel(shape, base.neighbors, btilde(sigma, shape.p), base.pairs, None, 1.0)


def trace_numerators_batch(labels: np.ndarray, shape: Shape):
    """Pair-kernel path over an (N, p) label matrix; same integer contract
    as closed_numerators_batch (numerators over p, p and p*t)."""
    nums = _shape_kernel(shape).triples(np.asarray(labels, dtype=np.int64))
    return nums[:, 0], nums[:, 1], nums[:, 2]


def numerator_rows(shape: Shape, labels: np.ndarray) -> np.ndarray:
    """(N, 3) int64 identity numerators (n00, n01, n11) of a label matrix,
    over (p, p, p t) (trace_numerators_batch), read-only."""
    rows = np.column_stack(trace_numerators_batch(labels, shape))
    rows.flags.writeable = False
    return rows


def scaled_rows(nums: np.ndarray, shape: Shape, sigma: TypeH) -> np.ndarray:
    """Float coefficient rows of (N, 3) identity numerators (numerator_rows)
    under an identity or type-H sigma: the one float route, which
    triple_table takes too, so the same bits with no label scored."""
    fac, p = float(_pair_kernel(shape, sigma).scale), shape.p
    return nums * np.array([fac / p, fac / p, fac / (p * shape.t)])


def exact_q(nums: np.ndarray, shape: Shape, scale: Fraction, x: Fraction):
    """q = c00 + 2 c01 x + c11 x^2 of every row of (N, 3) identity
    numerators (numerator_rows) at an exact type-H scale and x = u / v:
    the integers t v^2 n00 + 2 t u v n01 + u^2 n11 and the one Fraction
    they share, scale / (p t v^2).  In int64 when no dot product can pass
    2**63, otherwise in Python ints."""
    u, v, t = x.numerator, x.denominator, shape.t
    w = [t * v * v, 2 * t * u * v, u * u]
    if 3 * max(1, int(np.abs(nums).max(initial=0))) * max(map(abs, w)) >= 2**63:
        nums, w = nums.astype(object), np.array(w, dtype=object)
    return nums @ np.array(w), scale / (shape.p * t * v * v)


def triple_table(
    pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY
) -> np.ndarray:
    """(N, 3) float table of coefficients for a pool of same-shape arrays
    (a LabelPool, or any sequence of BlockArrays)."""
    if not len(pool):
        return np.zeros((0, 3))
    pool = LabelPool.of(pool)
    if isinstance(sigma, TypeH):
        return scaled_rows(_shape_kernel(pool.shape).triples(pool.labels), pool.shape, sigma)
    return _pair_kernel(pool.shape, sigma).triples(pool.labels)


def _float_rows(measure, sigma: CovarianceSpec) -> np.ndarray:
    """Float coefficient rows of a measure's label rows: its kept numerators
    under identity or type-H covariance (scaled_rows); a dense Sigma scores
    the labels."""
    if isinstance(sigma, GeneralCov):
        return triple_table(LabelPool(measure.shape, measure.labels), sigma)
    return scaled_rows(measure.numerator_rows(), measure.shape, sigma)


def measure_triple(measure, sigma: CovarianceSpec = IDENTITY) -> CoefficientTriple:
    """Weighted sum of per-array coefficient triples: exact measure and covariance
    give one Python-int dot of the weights and numerators, times the units over
    the denominator; anything else a float dot."""
    scale = rational_scale(sigma) if measure.is_exact() else None
    if scale is not None:
        check_sigma_size(sigma, measure.shape.p)
        c = (np.array(measure.weights, dtype=object) @ measure.numerator_rows().astype(object)
             * (exact_units(measure.shape, scale) / measure.denominator))
    else:
        c = [float(v) for v in measure.float_weights() @ _float_rows(measure, sigma)]
    return CoefficientTriple(*c)


def _vertex(c00, c01, c11, flat_x):
    """(q*, x~) of c00 + 2 c01 x + c11 x^2: its least value and where it is
    attained, (c00 - c01^2/c11, -c01/c11) when c11 > 0.  Otherwise the
    quadratic is flat (c11 = 0 forces c01 = 0, as on the 2x2 stripes) and
    is read at flat_x."""
    if c11 > 0:
        return c00 - c01 * c01 / c11, -c01 / c11
    return c00, flat_x


def component_table(
    pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY
) -> np.ndarray:
    """(N, 3, t, t) float components (C00, C01, C11) of each pool array."""
    pool = LabelPool.of(pool)
    kern = _pair_kernel(pool.shape, sigma)
    return np.concatenate([c for _, c in kern.components(pool.labels)]) * kern.unit


def symmetric_pinv(mat: np.ndarray, cutoff: float = EIG_CUTOFF) -> np.ndarray:
    """Moore-Penrose inverse of each symmetric matrix of a (..., t, t) stack via
    eigendecomposition, zeroing eigenvalues below cutoff * its max|eigenvalue|."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=float))
    top = np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    keep = np.abs(w) > cutoff * np.maximum(top, 1e-300)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=keep)
    return (v * inv[..., None, :]) @ np.swapaxes(v, -1, -2)


def schur_complement(c00, c01, c11):
    """Float information matrix C00 - C01 C11^+ C10 of accumulated
    components, which may be (..., t, t) stacks."""
    return c00 - c01 @ symmetric_pinv(c11) @ np.swapaxes(c01, -1, -2)


def schur_numerators(n00, n01, n11) -> tuple[np.ndarray, int]:
    """Exact C00 - C01 C11^+ C10 = N / pivot of integer components (int64
    is promoted), as Python-int N and pivot > 0.  [[C11, C10], [C01, C00]]
    must be positive semidefinite, as every sum of components with
    nonnegative weights is: C11 is eliminated fraction-free (Bareiss: exact
    division by the last pivot; a zero pivot has a zero row and is skipped)."""
    t = len(n11)
    joint = np.block([[n11, n01.T], [n01, n00]]).astype(object)
    pivot = 1
    for k in range(t):
        if joint[k, k] != 0:
            joint[k + 1:, k + 1:] = (joint[k, k] * joint[k + 1:, k + 1:] - np.outer(
                joint[k + 1:, k], joint[k, k + 1:])) // pivot
            pivot = joint[k, k]
    return joint[t:, t:], pivot


def component_numerators(shape: Shape, labels: np.ndarray, weights: Sequence[int],
                         sigma: CovarianceSpec = IDENTITY):
    """Exact sum of (C00, C01, C11) over the rows of an (N, p) label matrix
    with integer weights[k] >= 0 of any size on row k, as a (3, t, t) object array
    of Python ints and the positive int denominator they share.  Rows sharing a
    weight (as an orbit's atoms do) are counted by one count_sum."""
    kern = _pair_kernel(shape, sigma, exact=True)
    w = np.array(weights, dtype=np.int64 if max(weights) < 2**63 else object)
    order = np.argsort(w, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(w[order]) != 0) + 1)
    nums = sum(kern.count_sum(labels[rows]).astype(object) * int(w[rows[0]]) for rows in groups)
    return nums * kern.scale.numerator, shape.p * kern.scale.denominator


def summed_components(shape: Shape, labels: np.ndarray, weights: Sequence,
                      sigma: CovarianceSpec = IDENTITY, exact: bool = False):
    """The (3, t, t) sum of (C00, C01, C11) over the rows of an (N, p) label
    matrix at the weights, over a denominator: component_numerators (exact),
    or floats over 1."""
    if exact:
        return component_numerators(shape, labels, weights, sigma)
    if not len(labels):
        raise ValueError("no blocks given")
    kern, w = _pair_kernel(shape, sigma), np.asarray(weights, dtype=float)
    return sum(np.tensordot(w[rows], comp, axes=1)
               for rows, comp in kern.components(labels)) * kern.unit, 1


def _information(shape: Shape, labels, weights, sigma, exact: bool, den: int = 1) -> np.ndarray:
    """C00 - C01 C11^+ C10 of summed_components: float, or Fractions at weights / den."""
    nums, d = summed_components(shape, labels, weights, sigma, exact)
    if not exact:
        return schur_complement(*(nums / d))
    n, pivot = schur_numerators(*nums)
    return n * Fraction(1, pivot * d * den)


def info_matrix_exact(design, sigma: CovarianceSpec = IDENTITY, exact: bool = False) -> np.ndarray:
    """Information matrix of an exact design (blocks accumulated, then Schur)."""
    return _information(design.shape, label_matrix(design.blocks), [1] * design.n, sigma, exact)


def info_matrix_measure(measure, sigma: CovarianceSpec = IDENTITY, exact: bool = False) -> np.ndarray:
    """Per-block-average information matrix of an approximate measure; an
    orbit measure's is q*/(t-1) B_t, q* the _vertex of its measure_triple."""
    if exact and measure.denominator is None:
        raise ValueError("exact sums need a measure with exact weights")
    if measure.orbit_sizes is None:
        weights = measure.weights if exact else measure.float_weights()
        return _information(measure.shape, measure.labels, weights, sigma, exact,
                            measure.denominator)
    if exact and rational_scale(sigma) is None:
        raise ValueError("exact path needs Identity or rational type-H covariance")
    t, q = measure.shape.t, _vertex(*measure_triple(measure, sigma), 0)[0]
    proj = t * np.eye(t, dtype=np.int64) - 1  # t B_t, completely symmetric (verify_measure)
    return proj.astype(object) * (q / (t * t - t)) if exact else proj * (float(q) / (t * t - t))


def centering_projector(t: int) -> np.ndarray:
    """B_t = I - J/t, the projector onto treatment contrasts."""
    return np.eye(t) - np.full((t, t), 1.0 / t)
