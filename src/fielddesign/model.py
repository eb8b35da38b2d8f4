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
matrix for every covariance, as bind reduces it: in int64 on K = pI - J
for the identity and type-H family, and in float on K = Btilde of the
unit-scale Sigma for a dense one, each result times the bound scale.  The
covariance-free part (neighbor matrix, int64 stack, plot-pair index and
pair weights) is built once per shape, and a dense Sigma's unit and float
kernel once per spec and shape, all held read-only.
Triples are a 0/1 pair indicator times the pair weights in float64 BLAS,
exact for the integer stack (_shape_kernel states the bound).  Only this
module reads the identity numerators over (p, p, p t): numerator_rows,
the float route scaled_rows and the exact q of exact_q.  The one exact
sum is component_numerators: Python-int numerators over one known
denominator, from counts of each weight's rows per (plot pair, label
pair) cell; schur_numerators eliminates in integers, and Fractions are
made once, at the output.  The paper's counting formula is not here: it
lives beside the tests (tests/reference_model.py), the independent check
of this kernel.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .arrays import BlockArray, LabelPool, Shape, neighbor_matrix

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


class BoundCov(NamedTuple):
    """A covariance bound to p plots by bind: Btilde is scale times B_p (unit
    None: the identity and type-H family) or times Btilde of `unit`, the
    unit-scale p x p Sigma.  The scale is a Fraction exactly where sums
    under it can be exact (an exact type-H x), else a float."""

    scale: Fraction | float
    unit: np.ndarray | None = None


def bind(shape: Shape | int, sigma: CovarianceSpec | BoundCov) -> BoundCov:
    """The one door of a covariance spec (a BoundCov passes as it is) for a
    shape or its plot count p, ValueError where it does not fit.  Type-H has
    Btilde = B_p / x, its offsets cancelling, so only their number is
    checked.  A dense Sigma is divided by 2^e, e the binary exponent of its
    mean diagonal entry: exact, so Sigma 2^k binds to the unit of Sigma and
    a unit diagonal keeps its bits.  A spec is checked when it is made, and
    its BoundCov kept; a public function binds once and passes it down."""
    if isinstance(sigma, BoundCov):
        return sigma
    p = getattr(shape, "p", shape)
    if isinstance(sigma, TypeH):
        if sigma.y is not None and len(sigma.y) != p:
            raise ValueError(f"type-H offset vector must have length {p}")
        return _bound_type_h(sigma.x)
    return _bind_dense(p, sigma)


@functools.lru_cache(maxsize=64, typed=True)
def _bound_type_h(x) -> BoundCov:
    """bind of a type-H weight, kept per value and type: 1.5 and the equal
    Fraction(3, 2) bind to a float and an exact scale."""
    return BoundCov(1.0 / float(x) if (e := exact_value(x)) is None else 1 / e)


@functools.lru_cache(maxsize=64)
def _bind_dense(p: int, sigma: GeneralCov) -> BoundCov:
    """bind of a dense Sigma, kept per (p, spec) with its unit read-only."""
    if (m := sigma.array()).shape != (p, p):
        raise ValueError(f"covariance is {m.shape[0]}x{m.shape[1]}, need {p}x{p}")
    diag = [row[k] for k, row in enumerate(sigma.matrix)]
    top = math.frexp(max(diag))[1]  # the mean of the diagonal over 2^top cannot overflow
    e = math.frexp(sum(math.ldexp(v, -top) for v in diag) / p)[1] - 1 + top
    unit = np.ldexp(m, -e)
    unit.flags.writeable = False
    return BoundCov(float(np.ldexp(1.0, -e)), unit)  # scale inf past the float range


def sigma_from_json(obj) -> CovarianceSpec:
    """Parse a covariance description; ValueError for anything malformed.

    Accepts {"type": "identity"}, {"type": "type-h", "x": ..., "y": [...]},
    {"matrix": [[...]]}, or a bare dense row-major matrix.  The type-H x
    stays exact as an int or a "num/den" or decimal string, is a float
    otherwise, and must be positive and finite; a boolean is refused.  The
    optional offsets y are a list of numbers, one per plot (bind).
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


def btilde(sigma: CovarianceSpec | BoundCov, p: int) -> np.ndarray:
    """Block-centered precision kernel (p x p, float): the bound scale times
    B_p, or times the block-centered inverse of the unit Sigma."""
    cov = bind(p, sigma)
    if cov.unit is None:
        return (np.eye(p) - np.full((p, p), 1.0 / p)) * float(cov.scale)
    inv = np.linalg.inv(cov.unit)
    u = inv.sum(axis=1)
    return (inv - np.outer(u, u) / u.sum()) * cov.scale


class CoefficientTriple(NamedTuple):
    """Quadratic coefficients (c00, c01, c11) of one array."""

    c00: Fraction | float
    c01: Fraction | float
    c11: Fraction | float

    def astuple(self):
        return (self.c00, self.c01, self.c11)


class _PairKernel(NamedTuple):
    """The stack (K, K M, M K M) of one shape and covariance, with its
    reductions over the plot pairs i < j (pairs): the symmetrized weights
    pair_w (P, 3) in float64, the diagonal and the c11 corner 1'M K M 1.

    At unit scale (bind): K = pI - J in int64 on the identity family, with
    triple denominators dens = (p, p, p t); K = Btilde of the unit Sigma in
    float for a dense one, dens (1,).  A component's denominator is dens[0].
    """

    shape: Shape
    neighbors: np.ndarray
    stack: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    pair_w: np.ndarray
    diag: np.ndarray
    corner: np.integer | np.floating
    dens: np.ndarray

    def triples(self, labels: np.ndarray) -> np.ndarray:
        """(N, 3) rows <X, E> for X in the stack, less the c11 constant: the
        int64 numerators over dens for an integer kernel, the unit-scale
        coefficients themselves for a float one.  Both multiply
        a float64 0/1 pair indicator by pair_w in BLAS; on an integer kernel
        every partial sum is an integer below 2**53 (_shape_kernel), so the
        float64 result is exact."""
        i, j = self.pairs
        out = np.empty((len(labels), 3), dtype=self.stack.dtype)
        for lo in range(0, len(labels), CHUNK_ROWS):
            # one plot per row, so the pair gathers copy whole rows
            lab = np.ascontiguousarray(labels[lo:lo + CHUNK_ROWS].T)
            # E is symmetric with a unit diagonal: only the pairs i < j vary
            out[lo:lo + CHUNK_ROWS] = (lab[i] == lab[j]).T.astype(np.float64) @ self.pair_w
        out += self.diag
        if self.stack.dtype.kind == "f":
            out[:, 2] -= self.corner / self.shape.t
        else:
            out[:, 2] = self.shape.t * out[:, 2] - self.corner
        return out

    def components(self, labels: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Per-row (C00, C01, C11) = O'X O in counts, as chunks
        (rows, (n, 3, t, t))."""
        for lo in range(0, len(labels), CHUNK_ROWS):
            lab = labels[lo:lo + CHUNK_ROWS, :, None]
            o = (lab == np.arange(1, self.shape.t + 1)).astype(self.stack.dtype)
            xo = self.stack @ o[:, None]  # (n, 3, p, t)
            yield slice(lo, lo + len(o)), np.swapaxes(o, 1, 2)[:, None] @ xo

    def count_sum(self, labels: np.ndarray) -> np.ndarray:
        """(3, t, t) int64 sum of the rows' O'X O: X contracted with the
        number of rows placing labels (a, b) on plots (i, j), a bincount."""
        p, t = self.shape.p, self.shape.t
        pairs = np.arange(0, p * p * t * t, t * t).reshape(p, p)
        counts = np.zeros(p * p * t * t, dtype=np.int64)
        for lo in range(0, len(labels), CHUNK_ROWS):
            lab = labels[lo:lo + CHUNK_ROWS].astype(np.intp) - 1  # lab * t passes int8
            idx = (lab * t)[:, :, None] + lab[:, None, :] + pairs
            counts += np.bincount(idx.ravel(), minlength=len(counts))
        return (self.stack.reshape(3, p * p) @ counts.reshape(p * p, t * t)).reshape(3, t, t)


def _stack_kernel(shape: Shape, m: np.ndarray, k: np.ndarray, pairs, dens) -> _PairKernel:
    """The pair kernel of K on a shape with neighbor matrix m."""
    stack = np.stack([k, k @ m, m @ k @ m])
    i, j = pairs
    pair_w = (stack + stack.transpose(0, 2, 1))[:, i, j].T.astype(np.float64)
    kern = _PairKernel(shape, m, stack, pairs, pair_w, np.trace(stack, axis1=1, axis2=2),
                       stack[2].sum(), np.asarray(dens, dtype=float))
    for arr in (kern.neighbors, kern.stack, *kern.pairs, kern.pair_w, kern.diag, kern.dens):
        arr.flags.writeable = False
    return kern


@functools.lru_cache(maxsize=64)
def _shape_kernel(shape: Shape) -> _PairKernel:
    """The covariance-free int64 kernel of a shape at unit scale, built once
    per shape and held read-only; every pair kernel of the shape starts here."""
    p = shape.p
    kern = _stack_kernel(shape, neighbor_matrix(shape), p * np.eye(p, dtype=np.int64) - 1,
                         np.triu_indices(p, 1), (p, p, p * shape.t))
    # triples sums at most P = p(p-1)/2 integer weights of size |w| <= 8p + 32
    # in float64: every partial sum is an exact integer while P max|w| < 2**53
    # (p = 48 gives under 2**19), whatever order BLAS adds in
    if len(kern.pairs[0]) * np.abs(kern.pair_w).max() >= 2**53:
        raise ValueError(f"{shape}: pair weights too large for exact float64 sums")
    return kern


@functools.lru_cache(maxsize=64)
def _dense_kernel(shape: Shape, unit: bytes) -> _PairKernel:
    """The float pair kernel of a unit-scale Sigma, given as its float64
    bytes, built once per (shape, unit) and held read-only."""
    kern = _shape_kernel(shape)
    sigma = BoundCov(1.0, np.frombuffer(unit).reshape(shape.p, shape.p))
    return _stack_kernel(shape, kern.neighbors, btilde(sigma, shape.p), kern.pairs,
                         (1,))  # one entry broadcasts as a scalar, fast


def _pair_kernel(shape: Shape, cov: BoundCov) -> tuple[_PairKernel, np.ndarray]:
    """The unit-scale pair kernel of a bound covariance, and the float value
    at its scale of one count of each triple entry (scale / dens)."""
    kern = _shape_kernel(shape) if cov.unit is None else _dense_kernel(shape, cov.unit.tobytes())
    return kern, float(cov.scale) / kern.dens


def numerator_rows(shape: Shape, labels: np.ndarray) -> np.ndarray:
    """(N, 3) int64 identity numerators (n00, n01, n11) of a label matrix,
    over (p, p, p t) (the shape's pair kernel), read-only."""
    rows = _shape_kernel(shape).triples(np.asarray(labels))
    rows.flags.writeable = False
    return rows


def scaled_rows(nums: np.ndarray, shape: Shape, scale=1) -> np.ndarray:
    """Float coefficient rows of (N, 3) identity numerators (numerator_rows)
    at a bound scale: the one float route, which triple_table takes too, so
    the same bits with no label scored."""
    return nums * (float(scale) / _shape_kernel(shape).dens)


def exact_q(nums: np.ndarray, shape: Shape, u: int, v: int):
    """q = c00 + 2 c01 x + c11 x^2 at unit scale of every row of (N, 3)
    identity numerators (numerator_rows) at x = u / v, v > 0: the integers
    t v^2 n00 + 2 t u v n01 + u^2 n11 and the one Python-int denominator
    they share, p t v^2 (an exact bound scale multiplies them all).  In
    int64 when no dot product can pass 2**63, otherwise in Python ints."""
    t = shape.t
    w = [t * v * v, 2 * t * u * v, u * u]
    if 3 * max(1, int(np.abs(nums).max(initial=0))) * max(map(abs, w)) >= 2**63:
        nums, w = nums.astype(object), np.array(w, dtype=object)
    return nums @ np.array(w), shape.p * t * v * v


def triple_table(
    pool: Sequence[BlockArray], sigma: CovarianceSpec = IDENTITY
) -> np.ndarray:
    """(N, 3) float table of coefficients for a pool of same-shape arrays
    (a LabelPool, or any sequence of BlockArrays)."""
    if not len(pool):
        return np.zeros((0, 3))
    pool = LabelPool.of(pool)
    kern, count = _pair_kernel(pool.shape, bind(pool.shape, sigma))
    return kern.triples(pool.labels) * count


def _float_rows(measure, cov: BoundCov) -> np.ndarray:
    """Float coefficient rows of a measure's label rows: its kept identity
    numerators (scaled_rows), or for a dense Sigma its labels scored."""
    if cov.unit is None:
        return scaled_rows(measure.numerator_rows(), measure.shape, cov.scale)
    return triple_table(LabelPool(measure.shape, measure.labels), cov)


def measure_triple(measure, sigma: CovarianceSpec = IDENTITY) -> CoefficientTriple:
    """Weighted sum of per-array coefficient triples: an exact measure under an
    exact bound scale is summed in Python ints (_exact_triple), and each entry
    made a Fraction once, here; anything else is a float dot."""
    cov = bind(measure.shape, sigma)
    if (exact := _exact_triple(measure, cov)) is not None:
        return CoefficientTriple(*(Fraction(n, exact[1]) for n in exact[0]))
    return CoefficientTriple(*(float(v) for v in measure.float_weights()
                               @ _float_rows(measure, cov)))


def _exact_triple(measure, cov: BoundCov):
    """An exact measure's triple under an exact scale a / b in Python ints:
    the numerators (n00, n01, n11) over one denominator d = p t b D, D the
    measure's, and its _vertex, a flat one read at 0, as (numerator,
    denominator > 0) pairs q* and x~; None on a float path."""
    if not (measure.is_exact() and isinstance(cov.scale, Fraction)):
        return None
    (a, b), t = cov.scale.as_integer_ratio(), measure.shape.t
    s00, s01, s11 = (sum(w * n for w, n in zip(measure.weights, col))
                     for col in zip(*measure.numerator_rows().tolist()))
    n00, n01, n11 = t * a * s00, t * a * s01, a * s11  # the rows count over (p, p, p t)
    d = measure.shape.p * t * b * measure.denominator
    if n11 > 0:  # q* = c00 - c01^2 / c11 at x~ = -c01 / c11
        g = math.gcd(n01, n11)
        return (n00, n01, n11), d, (n00 * n11 - n01 * n01, n11 * d), (-n01 // g, n11 // g)
    return (n00, n01, n11), d, (n00, d), (0, 1)


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
    kern, count = _pair_kernel(pool.shape, bind(pool.shape, sigma))
    return np.concatenate([c for _, c in kern.components(pool.labels)]) * count[0]


def symmetric_pinv(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of each symmetric matrix of a (..., t, t) stack via
    eigendecomposition, zeroing eigenvalues below EIG_CUTOFF * its max|eigenvalue|."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=float))
    top = np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    keep = np.abs(w) > EIG_CUTOFF * np.maximum(top, 1e-300)
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
    joint = np.empty((2 * t, 2 * t), dtype=object)  # filled block by block: Python ints
    joint[:t, :t], joint[:t, t:], joint[t:, :t], joint[t:, t:] = n11, n01.T, n01, n00
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
    if not isinstance(scale := bind(shape, sigma).scale, Fraction):
        raise ValueError("exact path needs Identity or rational type-H covariance")
    kern = _shape_kernel(shape)
    w = np.array(weights, dtype=np.int64 if max(weights) < 2**63 else object)
    order = np.argsort(w, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(w[order]) != 0) + 1)
    nums = sum(kern.count_sum(labels[rows]).astype(object) * int(w[rows[0]]) for rows in groups)
    return nums * scale.numerator, shape.p * scale.denominator


def summed_components(shape: Shape, labels: np.ndarray, weights: Sequence,
                      sigma: CovarianceSpec = IDENTITY, exact: bool = False):
    """The (3, t, t) sum of (C00, C01, C11) over the rows of an (N, p) label
    matrix at the weights, over a denominator: component_numerators (exact),
    or floats over 1.  Unit weights on an integer kernel (a design's blocks)
    take one count_sum, the bits of the per-row sum, whose partial sums are
    all integers below 2**53."""
    if exact:
        return component_numerators(shape, labels, weights, sigma)
    if not len(labels):
        raise ValueError("no blocks given")
    kern, count = _pair_kernel(shape, cov := bind(shape, sigma))
    if cov.unit is None and all(v == 1 for v in weights):
        return kern.count_sum(labels) * count[0], 1
    w = np.asarray(weights, dtype=float)
    return sum(np.tensordot(w[rows], comp, axes=1)
               for rows, comp in kern.components(labels)) * count[0], 1


def info_matrix_exact(design, sigma: CovarianceSpec = IDENTITY, exact: bool = False) -> np.ndarray:
    """Information matrix of an exact design: its label matrix summed
    (summed_components), then C00 - C01 C11^+ C10 in floats or Fractions."""
    nums, d = summed_components(design.shape, design.blocks.labels, [1] * design.n, sigma, exact)
    if not exact:
        return schur_complement(*(nums / d))
    n, pivot = schur_numerators(*nums)
    return n * Fraction(1, pivot * d)


def centering_projector(t: int) -> np.ndarray:
    """B_t = I - J/t, the projector onto treatment contrasts."""
    return np.eye(t) - np.full((t, t), 1.0 / t)
