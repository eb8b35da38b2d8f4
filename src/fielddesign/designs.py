"""Exact designs with integer block replication.

An exact design is an ordered list of n block arrays.  This module turns
designs into empirical measures, expands symmetric orbit weights into
designs, evaluates A/D/E/T efficiencies against the minimax bound, finds
the smallest n a symmetric weight vector supports, and builds efficient
designs for arbitrary n: exactly optimal ones over a 2-transitive group of
the treatments where n allows, else by rounding plus local block swaps.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .arrays import (
    DEFAULT_ORBIT_BUDGET,
    BlockArray,
    LabelPool,
    Orbit,
    Shape,
    _integer,
    canonical_labels,
    canonical_pool,
    group_rows,
    label_dtype,
    label_matrix,
    normalize_shape,
    orbit_labels,
)
from .model import (
    CHUNK_ROWS,
    IDENTITY,
    BoundCov,
    CovarianceSpec,
    bind,
    centering_projector,
    component_table,
    exact_value,
    info_matrix_exact,
    schur_complement,
)
from .optimality import (
    Measure,
    solve_closed_form,
    solve_exchange,
    support_pool,
)

NULL_EIG_CUT = 1e-8


class NullDirectionError(RuntimeError):
    """An information matrix without the numerically-zero eigenvalue of 1_t."""


class _ExactDesignFields(NamedTuple):
    shape: Shape
    blocks: LabelPool


class ExactDesign(_ExactDesignFields):
    """An ordered list of n blocks of one shape, held as one (n, p) LabelPool
    (BlockArrays given are converted once), which yields BlockArrays."""

    __slots__ = ()

    def __new__(cls, shape: Shape, blocks: Sequence[BlockArray]):
        if len(blocks) < 1:
            raise ValueError("a design needs at least one block")
        if (blocks.shape != shape if isinstance(blocks, LabelPool)
                else any(s.shape != shape for s in blocks)):
            raise ValueError("all blocks must share the design shape")
        return super().__new__(cls, shape, LabelPool.of(blocks))

    @property
    def n(self) -> int:
        return len(self.blocks)

    def to_json(self) -> dict:
        return {**self.shape._asdict(), "n": self.n,
                "blocks": [arr["rows"] for arr in self.blocks.to_json()]}

    @staticmethod
    def from_json(obj: Mapping) -> "ExactDesign":
        """Read {"a", "b", "t", "blocks"} and an optional "n" into one label
        matrix, each block checked as BlockArray.from_rows checks it, in
        the grid as given.  A tall grid (a > b) is read as its b x a mirror
        (normalize_shape), whose neighbor structure is the same."""
        a, b, t = (_integer(obj[k], f"{k} =") for k in "abt")
        rows_list = obj["blocks"]
        if "n" in obj and _integer(obj["n"], "n =") != len(rows_list):
            raise ValueError(
                f"declared n={obj['n']} but {len(rows_list)} blocks given")
        shape, transposed = normalize_shape(a, b, t)
        grids = []
        for rows in rows_list:
            rows = [[_integer(v, "treatment label") for v in r] for r in rows]
            if len(rows) != a or any(len(r) != b for r in rows):
                raise ValueError(f"rows must form an {a}x{b} grid")
            if bad := [v for r in rows for v in r if not 1 <= v <= t]:
                raise ValueError(f"treatment {bad[0]} outside 1..{t}")
            grids.append(rows)
        grids = np.array(grids, dtype=label_dtype(t)).reshape(len(grids), a, b)
        # the colex scan of a tall grid's mirror runs along its rows as given
        labels = grids if transposed else grids.transpose(0, 2, 1)
        return ExactDesign(shape, LabelPool(shape, labels.reshape(len(grids), shape.p)))


def measure_of_design(d: ExactDesign) -> Measure:
    """Empirical measure with exact weights n_s / n, its atoms in order of
    first appearance among the blocks."""
    return Measure.from_labels(d.shape, d.blocks.labels, [Fraction(1, d.n)] * d.n)


class EfficiencyReport(NamedTuple):
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


def efficiencies(
    d: ExactDesign,
    sigma: CovarianceSpec = IDENTITY,
    y_star=None,
) -> EfficiencyReport:
    """Evaluate a design under the A, D, E and T criteria.

    The information matrix has 1_t in its null space; the eigenvalue of
    smallest magnitude is discarded (it must be numerically zero, else
    NullDirectionError) and the four criteria are computed from the
    remaining t - 1, normalized by n * y_star (by default the closed
    form's, which a dense Sigma has not).  A second near-zero
    eigenvalue means some treatment contrast is not estimable and all
    efficiencies are reported as 0.  Both cuts are NULL_EIG_CUT times the
    larger of trace(C) and n y*, which scale alike with Sigma.
    """
    cov = bind(d.shape, sigma)
    y = float(solve_closed_form(d.shape, cov).y_star if y_star is None else y_star)
    t = d.shape.t
    c = np.asarray(info_matrix_exact(d, cov), dtype=float)
    lam = np.linalg.eigvalsh(c)
    k = int(np.argmin(np.abs(lam)))
    cut = NULL_EIG_CUT * max(float(np.trace(c)), d.n * y)
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


class MinNReport(NamedTuple):
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
    """Least n with every n * w_k / |orbit_k| a whole number: with w_k = a / b
    in lowest terms (a float weight rationalized first), the lcm of
    b |orbit_k| / gcd(a, |orbit_k|), all in integers."""
    pairs = list(weights)
    if not pairs:
        raise ValueError("no orbit weights given")
    approx = False
    denoms = []
    for o, w in pairs:
        f, was_float = _rationalized(w)
        approx = approx or was_float
        a, b = f.as_integer_ratio()
        if a < 0:
            raise ValueError("negative orbit weight")
        if a:
            denoms.append(b * o.size // math.gcd(a, o.size))
    pseudo = None
    if len(pairs) == 1:
        t = pairs[0][0].representative.shape.t
        pseudo = t * (t - 1)
    return MinNReport(n=math.lcm(*denoms), pseudo_symmetric=pseudo,
                      approximated=approx)


def expand_symmetric(weights: Iterable[tuple[Orbit, object]], n: int) -> ExactDesign:
    """Design replicating each orbit member n * w_k / |orbit_k| times, orbit by
    orbit in orbit_members order, built as one label matrix: each orbit's
    orbit_labels rows, repeated.  n must be a multiple of min_n_symmetric's
    n (which refuses negative weights), and the weights must sum to one.  An
    n past DEFAULT_ORBIT_BUDGET blocks is refused before any row is built."""
    if n > DEFAULT_ORBIT_BUDGET:
        raise ValueError(f"n={n} blocks is over the label-matrix bound of "
                         f"{DEFAULT_ORBIT_BUDGET} rows")
    pairs = list(weights)
    least = min_n_symmetric(pairs).n
    if n % least:
        raise ValueError(
            f"n={n} does not split the orbits evenly; smallest feasible n is {least}")
    shape = pairs[0][0].representative.shape
    ranks = canonical_labels(label_matrix([o.representative for o, _ in pairs])) - 1
    ratios = [_rationalized(w)[0].as_integer_ratio() for _, w in pairs]
    labels = np.concatenate([np.repeat(orbit_labels(r, shape.t), n * a // (b * o.size), axis=0)
                             for r, (o, _), (a, b) in zip(ranks, pairs, ratios)])
    if len(labels) != n:
        raise ValueError(f"weights sum to {Fraction(len(labels), n)}, so n={n} "
                         f"gives {len(labels)} blocks")
    return ExactDesign(shape, LabelPool(shape, labels))


# ---------------------------------------------------------------------------
# 2-transitive groups: a G-average of a t x t matrix is its S_t average


def _prime_power(q: int) -> int | None:
    """The prime p with q = p^k, k >= 1, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


def _group_order(t: int) -> int | None:
    """|two_transitive(t)| without building it: t (t - 1) for AGL(1, t),
    q (q^2 - 1) / gcd(2, q - 1) for PSL(2, q) with t = q + 1, else None."""
    if _prime_power(t):
        return t * (t - 1)
    if _prime_power(q := t - 1):
        return q * (q * q - 1) // math.gcd(2, q - 1)
    return None


def _field(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (q, q) addition and multiplication tables of GF(q), q = p^k,
    element e the polynomial whose coefficients are the base-p digits of
    e, taken modulo the first monic x^k + f(x) (f's digits counting up)
    under which no two nonzero elements multiply to 0."""
    p = _prime_power(q)
    k = round(math.log(q, p))
    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p  # (q, k)
    add = (digits[:, None] + digits[None, :]) % p @ place
    for f in digits:
        # power[e, i] is x^i e, as digits: x^(i+1) e shifts x^i e up one
        # place and takes its top digit times x^k = -f back off
        power = [digits]
        for _ in range(k - 1):
            top = power[-1][:, -1:]
            power.append((np.pad(power[-1][:, :-1], ((0, 0), (1, 0))) - top * f) % p)
        mul = np.einsum("aij,bi->abj", np.stack(power, axis=1), digits) % p @ place
        if (mul[1:, 1:] != 0).all():
            return add, mul
    raise AssertionError(f"GF({q}) has an irreducible modulus")


def _build_group(t: int) -> np.ndarray:
    """two_transitive(t), built, for a t that has a group."""
    if _prime_power(t):
        add, mul = _field(t)
        group = add[mul[1:, None, :], np.arange(t)[None, :, None]].reshape(-1, t)
    else:
        q = t - 1
        add, mul = _field(q)
        inv = np.argmax(mul == 1, axis=1)  # inv[0] is 0, read only where masked
        neg = np.argmax(add == 0, axis=1)  # the additive inverse of each element
        # SL(2, q), q (q^2 - 1) rows: a != 0 fixes d = (1 + bc) / a, and
        # a = 0 needs c = -1 / b with d free
        a, b, c = (v.ravel() for v in np.meshgrid(
            np.arange(1, q), np.arange(q), np.arange(q), indexing="ij"))
        b0, d0 = (v.ravel() for v in np.meshgrid(np.arange(1, q), np.arange(q), indexing="ij"))
        a, b, c, d = (np.concatenate(pair)[:, None] for pair in (
            (a, np.zeros_like(b0)), (b, b0), (c, neg[inv[b0]]),
            (mul[add[1, mul[b, c]], inv[a]], d0)))
        z = np.arange(q)[None, :]
        num, den = add[mul[a, z], b], add[mul[c, z], d]
        finite = np.where(den == 0, q, mul[num, inv[den]])
        infinity = np.where(c == 0, q, mul[a, inv[c]])
        # -g acts as g does, so each PSL element comes twice for odd q
        group = np.unique(np.concatenate([finite, infinity], axis=1), axis=0)
    group.flags.writeable = False
    return group


# Groups of at most _KEPT_GROUP_LABELS labels (|G| t) are kept per process,
# 16 at most, 1 MB each: those of every t <= 23 among others.  A larger one
# is built on each call; its design holds at least as many labels.
_KEPT_GROUP_LABELS = 1 << 17
_kept_group = functools.lru_cache(maxsize=16)(_build_group)


def two_transitive(t: int) -> np.ndarray | None:
    """A 2-transitive group on the labels 0..t-1, as a read-only (|G|, t)
    array whose row g maps label i to g[i], the identity first: AGL(1, t),
    x -> a x + b over GF(t), for a prime power t; else PSL(2, q), z ->
    (a z + b) / (c z + d) with ad - bc = 1 on the projective line of
    GF(q), infinity the label q, for t = q + 1; else None.  Every t <= 14
    has one.  |G| is _group_order(t)."""
    order = _group_order(t)
    if order is None:
        return None
    return (_kept_group if order * t <= _KEPT_GROUP_LABELS else _build_group)(t)


def _group_design(shape: Shape, pairs: Sequence[tuple[Orbit, object]],
                  n: int) -> ExactDesign | None:
    """The n-block design that spreads the orbit weights w_k over a
    two_transitive group G, or None.  With L the least common denominator
    of the weights and m_k = L w_k, it is m_k copies of G(s_k) = [g(s_k) for
    g in G] for each orbit representative s_k in turn, n_G = |G| L blocks,
    repeated n / n_G times; None when G does not exist, n is no multiple of
    n_G or a weight is not exact (model.exact_value), a lone orbit's
    weight counting as 1.  n_G comes from _group_order, so G is built only
    when the design is.  Each G(s_k) has the components of s_k's S_t
    orbit average, as relabeling permutes a component's rows and columns
    alike, so the design's information matrix is n times the measure's."""
    order = _group_order(shape.t)
    weights = [Fraction(1)] if len(pairs) == 1 else [exact_value(w) for _, w in pairs]
    if order is None or None in weights:
        return None
    lcd = math.lcm(*(w.denominator for w in weights))
    if n % (order * lcd):
        return None
    group = two_transitive(shape.t)
    reps = label_matrix([o.representative for o, _ in pairs])
    labels = np.concatenate([group[:, rep - 1] + 1 for rep, w in zip(reps, weights)
                             for _ in range(int(w * lcd))])
    return ExactDesign(shape, LabelPool(shape, np.tile(labels, (n // len(labels), 1))))


# ---------------------------------------------------------------------------
# heuristic construction for arbitrary n


def _orbit_sample(ranks: np.ndarray, t: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Label rows, in colex order, of the orbit whose canonical representative
    is ranks + 1: all of it when it has at most cap members, else the
    representative and the distinct relabelings among up to 50 * cap
    draws of rng.permutation(t), stopping at cap rows.  One rng.permuted
    call draws the rows still needed, as those single draws would."""
    rho = int(ranks.max()) + 1
    if math.perm(t, rho) <= cap:
        return orbit_labels(ranks, t)
    # distinct injections give distinct arrays; the representative's is 1..rho
    seen, draws = {tuple(range(1, rho + 1))}, 50 * cap
    while len(seen) < cap and draws:
        k = min(cap - len(seen), draws)  # each draw adds one row at most
        draws -= k
        seen.update(map(tuple, rng.permuted(np.tile(np.arange(1, t + 1), (k, 1)), axis=1)
                        [:, :rho].tolist()))
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
    """_residuals of base + stack[k] for every candidate k, CHUNK_ROWS at a
    time; base is one (3, t, t) base for them all or a stack of one per k."""
    sums = base + stack
    return np.concatenate([_residuals(sums[lo:lo + CHUNK_ROWS], target)
                           for lo in range(0, len(sums), CHUNK_ROWS)])


def _scan(vals: np.ndarray, current: float) -> tuple[int | None, float]:
    """The index and value a pool-order scan keeps: each value that beats the
    best so far (at first, current) by more than 1e-12 replaces it."""
    best, best_val = None, current
    for k in np.flatnonzero(vals < current - 1e-12):  # the only ones that can pass
        if vals[k] < best_val - 1e-12:
            best, best_val = int(k), float(vals[k])
    return best, best_val


# The eigenbasis bound and the batched solve apply only when the base's
# C11 stays this well conditioned with any candidate's C11 added; the bound is
# lowered by BOUND_SLACK of the slot's scale, far above rounding in it.
BOUND_MAX_COND = 1e3
BOUND_SLACK = 1e-7
# a step works through its candidates in chunks of as many (2t, 2t) matrices
# as BOUND_ENTRIES entries (128 KiB of floats) hold, and through its bases in
# groups whose z_i z_i' terms fit in as many, which keeps every temporary small
BOUND_ENTRIES = 1 << 14


def _chunk_rows(t: int) -> int:
    return max(1, BOUND_ENTRIES // (2 * t) ** 2)


def _distinct_rows(stack: np.ndarray) -> np.ndarray:
    """For each row of stack, the first row in order with the same bytes."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(row.tobytes(), k)
                     for k, row in enumerate(stack.reshape(len(stack), -1))])


class _Candidates(NamedTuple):
    """A construct run's swap candidates: the (k, 3, t, t) component table,
    first = _distinct_rows(stack), the rows that are their own first
    (`distinct`); for those, the entries of [[C00, C01], [C10, C11]] that
    a symmetric matrix does not repeat, at the row and column indices
    `upper`, each off-diagonal one doubled (`weights`, which the eigenbasis
    bound reads); and the largest C11 trace and C00 Frobenius norm among
    them."""

    stack: np.ndarray
    first: np.ndarray
    distinct: np.ndarray
    upper: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray
    c11_trace: float
    c00_norm: float

    @staticmethod
    def of(stack: np.ndarray) -> "_Candidates":
        first = _distinct_rows(stack)
        distinct = np.flatnonzero(first == np.arange(len(first)))
        t = stack.shape[-1]
        i, j = np.triu_indices(2 * t)
        # entry (i, j) of [[C00, C01], [C10, C11]] in the flattened (3, t, t)
        # table, block i // t + j // t, as the upper triangle holds no C10
        flat = (i // t + j // t) * t * t + i % t * t + j % t
        weights = stack.reshape(len(stack), -1)[np.ix_(distinct, flat)]
        weights *= np.where(i == j, 1.0, 2.0)
        # duplicates change no maximum, so the whole table is read in place
        return _Candidates(stack, first, distinct, (i, j), weights,
                           float(np.trace(stack[:, 2], axis1=1, axis2=2).max()),
                           float(np.sqrt(np.einsum("kij,kij->k", stack[:, 0], stack[:, 0]).max())))


def _base_factor(bases: np.ndarray, cands: _Candidates, target: np.ndarray):
    """The indices of the bases B in a (R, 3, t, t) stack of slot bases whose
    B11 stays well conditioned with any candidate's C11 added, and for those
    (e, zz, slack), which _eigen_bounds reads: with X = B01 B11^-1, the
    eigenvalues e and vectors v_i of C(B) - T; the entries of each z_i z_i'
    at cands.upper, for z_i = [v_i; -X' v_i], as an (entries, R t) matrix zz;
    and the slot's BOUND_SLACK.  _swap_residuals scores every distinct table
    for the other bases."""
    w, v = np.linalg.eigh(bases[:, 2])
    found = np.flatnonzero(w[:, 0] * BOUND_MAX_COND > w[:, -1] + cands.c11_trace)
    b00, b01, w, v = bases[found, 0], bases[found, 1], w[found], v[found]
    h = v / np.sqrt(w)[:, None]  # h h' = B11^-1
    x = b01 @ h @ np.swapaxes(h, 1, 2)
    e, u = np.linalg.eigh(b00 - x @ np.swapaxes(b01, 1, 2) - target)
    # row a, column (r, i): entry a of z_i for base r
    z = np.swapaxes(np.concatenate([u, -np.swapaxes(x, 1, 2) @ u], axis=1), 0, 1).reshape(
        2 * len(target), -1)
    i, j = cands.upper
    slack = BOUND_SLACK * (np.linalg.norm(b00, axis=(1, 2)) + np.linalg.norm(target)
                           + cands.c00_norm)
    return found, (e, z[i] * z[j], slack)


def _eigen_bounds(factor, weights: np.ndarray) -> np.ndarray:
    """(k, R) lower bounds on _swap_residuals for the k candidates with these
    _Candidates weights under each of the R bases of a _base_factor, from one
    matrix product.

    S >= 0, and the Schur complement is the least [I, -Y] M [I, -Y]' over Y,
    so C(B) <= C(B + S) <= C(B) + [I, -X] S [I, -X]' in Loewner order.  With
    C(B) - T = V diag(e) V' and z_i = [v_i; -X' v_i], entry i of
    V' (C(B + S) - T) V lies in [e_i, e_i + z_i' S z_i], and a symmetric M
    has |M|^2 >= sum_i (v_i' M v_i)^2 in the Frobenius norm; so
    |C(B + S) - T| is at least the norm of the distances from 0 to those
    intervals.
    """
    e, zz, slack = factor
    q = (weights @ zz).reshape(len(weights), *e.shape)
    gap = np.maximum(np.maximum(e, -(e + q)), 0.0)
    return np.sqrt(np.einsum("kri,kri->kr", gap, gap)) - slack


def _swap_exact(bases: np.ndarray, stack: np.ndarray, target: np.ndarray,
                of: np.ndarray, which: np.ndarray) -> np.ndarray:
    """_swap_residuals, to rounding, of each base bases[of[i]] with the
    table stack[which[i]] added, a chunk of pairs at a time.

    With M = B + S, C(M) = M00 - M01 M11^-1 M10, and M11 is well conditioned
    wherever _base_factor applies, so one batched solve per chunk replaces a
    pseudo-inverse per pair.
    """
    rows = _chunk_rows(len(target))
    out = [np.zeros(0)]  # np.concatenate needs one array even for no pairs
    for lo in range(0, len(which), rows):
        m = bases[of[lo:lo + rows]] + stack[which[lo:lo + rows]]
        dev = m[:, 0] - m[:, 1] @ np.linalg.solve(m[:, 2], np.swapaxes(m[:, 1], 1, 2)) - target
        out.append(np.sqrt(np.einsum("kij,kij->k", dev, dev)))
    return np.concatenate(out)


def _slot_pick(bases: np.ndarray, cands: _Candidates, target: np.ndarray,
               current: Sequence[float], old: Sequence[int]) -> list[tuple[int | None, float]]:
    """For each base B = bases[r] of a (R, 3, t, t) stack, what _scan picks
    from _swap_residuals(B, cands.stack, target) with candidate old[r]
    excluded and current[r] to beat, each distinct table scored once into
    one (R, K) score matrix, inf where unscored: by _swap_exact where
    _eigen_bounds says it can beat current[r], or by _swap_residuals on
    every distinct table for the bases _base_factor leaves out.  Each tier
    serves all the bases at once, a group at a time past the number whose
    z_i z_i' fit in BOUND_ENTRIES, in chunks that keep its temporaries
    within BOUND_ENTRIES.  A _swap_exact winner is scored again by
    _swap_residuals, so the value is the full scan's, and so is the pick
    unless two values straddle a 1e-12 margin of _scan by less than the two
    routes' rounding (at most 2e-14 on the benchmark's construct specs)."""
    t = len(target)
    group = max(1, BOUND_ENTRIES // (2 * t) ** 2 // t)  # bases whose z_i z_i' fit
    if len(bases) > group:
        return [pick for lo in range(0, len(bases), group)
                for pick in _slot_pick(bases[lo:lo + group], cands, target,
                                       current[lo:lo + group], old[lo:lo + group])]
    found, factor = _base_factor(bases, cands, target)
    limit = np.asarray(current)[found] - 1e-12
    span = max(1, BOUND_ENTRIES // (len(found) * t or 1))  # candidates per product
    of, which = [], []
    for at in range(0, len(cands.weights), span):
        k, r = np.nonzero(_eigen_bounds(factor, cands.weights[at:at + span]) < limit)
        of.append(found[r])
        which.append(cands.distinct[at + k])
    of, which = np.concatenate(of), np.concatenate(which)
    vals = np.full((len(bases), len(cands.stack)), np.inf)
    vals[of, which] = _swap_exact(bases, cands.stack, target, of, which)
    rows = _chunk_rows(t)
    for r in np.flatnonzero(np.bincount(found, minlength=len(bases)) == 0).tolist():
        for lo in range(0, len(cands.distinct), rows):
            part = cands.distinct[lo:lo + rows]
            vals[r, part] = _swap_residuals(bases[r], cands.stack[part], target)
    vals = vals[:, cands.first]
    vals[np.arange(len(bases)), old] = np.inf
    picks = [_scan(row, cur) for row, cur in zip(vals, current)]
    won = [r for r in found.tolist() if picks[r][0] is not None]
    if won:
        again = _swap_residuals(bases[won], cands.stack[[picks[r][0] for r in won]], target)
        for r, value in zip(won, again.tolist()):
            picks[r] = (picks[r][0], value)
    return picks


class _Restart:
    """One restart of construct_exact's search, a slot at a time: sweeps
    over the slots while the last sweep made a swap, skipping a slot whose
    block was scored without a swap since the last swap (same base as
    then, so the same outcome).  The search ends once current is 0, as no
    swap can beat it by _scan's margin."""

    def __init__(self, idx: list[int], total: np.ndarray, current: float):
        self.idx, self.total, self.current = idx, total, current
        self.idle = set()  # pool indices scored since the last swap
        self.improved = True
        self.slot = len(idx)  # at the end of a sweep, so the sweep test comes first

    def next_slot(self) -> int | None:
        """The slot the search scores next, or None once it has ended."""
        n = len(self.idx)
        while self.current > 1e-12:
            while self.slot < n and self.idx[self.slot] in self.idle:
                self.slot += 1
            if self.slot < n:
                return self.slot
            if not self.improved:
                return None
            self.improved, self.slot = False, 0
        return None

    def take(self, stack: np.ndarray, best: int | None, value: float) -> None:
        """Apply the pick for the slot next_slot returned."""
        old = self.idx[self.slot]
        if best is None:
            self.idle.add(old)
        else:
            self.total += stack[best] - stack[old]
            self.idx[self.slot] = best
            self.current = value
            self.improved = True
            self.idle.clear()
        self.slot += 1


def construct_exact(
    shape: Shape,
    n: int,
    sigma: CovarianceSpec = IDENTITY,
    seed: int = 0,
    effort: int = 4,
) -> tuple[ExactDesign, EfficiencyReport]:
    """Build an efficient n-block design: a group design where one fits,
    else by rounding plus local swaps.

    The group design (_group_design) spreads the solve's orbit weights over
    a 2-transitive group G of the treatments (two_transitive), which gives
    the optimal measure's information matrix exactly.  It is returned, with
    no search, when G exists (every t <= 14), the weights are exact (the
    closed form's Fractions, or a general-Sigma solve with one orbit) and n
    is a multiple of n_G = |G| times their least common denominator;
    `seed` and `effort` do not apply to it.

    Otherwise the search starts from a largest-remainder apportionment of n
    over the optimal measure's support.  When n p < t some treatment is in
    no block, so every efficiency is 0, and that start is returned with no
    swap.  Else the search greedily replaces single blocks with other
    support arrays whenever that shrinks the distance between the design
    information matrix and its optimal completely-symmetric target.  Each
    slot takes the pick of a pool-order scan (_scan) of exact residuals over
    the distinct component tables, in two tiers: an eigenbasis bound
    (_eigen_bounds, one matrix product) drops those that cannot beat the
    current residual, and one batched solve (_swap_exact) scores the rest;
    with the base's C11 singular or ill conditioned, _swap_residuals scores
    them all.  A slot whose block was scored without a swap since the last
    swap is skipped.  The blocks and report are those of scoring every
    candidate by pseudo-inverse (see _slot_pick).  The solve, components and
    target are those of the unit-scale kernel (model.bind), so the absolute
    1e-12 margins decide alike at every scale of Sigma, and only the report
    takes the scale.

    `effort` counts restarts (the first start is the rounded measure, later
    ones are seeded random draws); deterministic given the seed.  The
    restarts are independent, so they run in lockstep: each step takes the
    next slot of every restart that has joined and makes one batched
    _slot_pick for all of them, and restart r joins at step r.  A restart
    that reaches residual 0 drops every later one, as the first restart to
    reach 0 is the one kept.  The blocks and report are those of running
    the restarts one after another.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if effort < 1:
        raise ValueError("effort must be at least 1")
    cov = bind(shape, sigma)
    unit = BoundCov(cov.scale / cov.scale, cov.unit)  # scale 1, a Fraction where cov's is one
    result = (solve_closed_form if cov.unit is None else solve_exchange)(shape, unit)
    y, y_star = float(result.y_star), result.y_star * cov.scale
    t = shape.t

    pairs = result.orbit_weights
    design = _group_design(shape, pairs, n)
    if design is not None:
        return design, efficiencies(design, cov, y_star)
    rng = np.random.default_rng(seed)
    cap = max(2 * n, 64)
    reps = label_matrix([o.representative for o, _ in pairs])
    members = [_orbit_sample(rep - 1, t, cap, rng) for rep in reps]
    # swap candidates: every support-class placement, not just the
    # orbits the weights touch; exact designs mix relabelings freely
    if cov.unit is None:
        reps = np.concatenate([reps, support_pool(shape).labels])
    reps = canonical_pool(shape, reps).labels
    per_orbit = max(4, -(-4 * max(n, 64) // len(reps)))
    rows = np.concatenate(members + [_orbit_sample(rep - 1, t, per_orbit, rng) for rep in reps])
    # the pool in colex order; where[k] is the pool index of rows[k]
    labels, _, where = group_rows(rows)
    pool = LabelPool(shape, labels)

    counts = _largest_remainder([float(w) * n if (e := exact_value(w)) is None else e * n
                                 for _, w in pairs], n)
    sizes = [len(group) for group in members]
    groups = np.split(where[:sum(sizes)], np.cumsum(sizes)[:-1])
    rounded = [int(group[j % len(group)]) for group, c in zip(groups, counts) for j in range(c)]
    if n * shape.p < t:  # some treatment is in no block: every design scores 0
        design = ExactDesign(shape, LabelPool(shape, pool.labels[rounded]))
        return design, efficiencies(design, cov, y_star)
    stack = component_table(pool, unit)
    target = np.asarray(centering_projector(t), dtype=float) * (n * y / (t - 1))

    runs: list[_Restart] = []
    cands: _Candidates | None = None  # built at the first pick: a start at 0 needs none
    while True:
        # the first restart at 0 is the one kept, so it drops every later
        # one; until then restart r joins at step r, so that a start which
        # reaches 0 within its first picks ends the search before the later
        # starts are drawn
        zero = next((r for r, run in enumerate(runs) if run.current <= 1e-12), None)
        if zero is not None:
            del runs[zero + 1:]
        elif len(runs) < effort:
            idx = rounded if not runs else rng.integers(0, len(pool), size=n).tolist()
            total = sum(stack[idx])  # from zero in slot order: ties break on the last bit
            runs.append(_Restart(idx, total, float(_residuals(total[None], target)[0])))
        step = [run for run in runs if run.next_slot() is not None]
        if not step:
            if zero is not None or len(runs) == effort:
                break
            continue
        if cands is None:
            cands = _Candidates.of(stack)
        olds = [run.idx[run.slot] for run in step]
        bases = np.stack([run.total - stack[old] for run, old in zip(step, olds)])
        picks = _slot_pick(bases, cands, target, [run.current for run in step], olds)
        for run, (best, value) in zip(step, picks):
            run.take(stack, best, value)

    best = min(runs, key=lambda run: run.current)  # ties go to the first
    design = ExactDesign(shape, LabelPool(shape, pool.labels[best.idx]))
    return design, efficiencies(design, cov, y_star)
