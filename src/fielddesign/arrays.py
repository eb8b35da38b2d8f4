"""Block arrays on an a x b grid and their combinatorics.

A block array assigns one of t treatments to each plot of an a x b grid.
Plots are ordered colexicographically (down each column, columns left to
right), so the linear index of plot (i, j) is (j-1)*a + (i-1) with 1-based
grid coordinates.  Relabeling the t treatments acts on arrays; the orbits
of that action are the unit of enumeration here, represented canonically
by first-occurrence relabeling along the colex scan.

The counting statistics (replication counts over trimmed subgrids,
same-treatment adjacency counts at distance one and two) are the raw
material for the closed-form information coefficients in `model`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Mapping, Sequence

import numpy as np

DEFAULT_ORBIT_BUDGET = 2_000_000


class EnumerationBudgetError(RuntimeError):
    """Raised when an orbit enumeration would exceed the configured budget."""

    def __init__(self, shape: "Shape", count: int, budget: int):
        super().__init__(
            f"enumerating {shape} requires {count} orbits, over the budget of {budget}"
        )
        self.shape = shape
        self.orbit_count = count
        self.budget = budget


@dataclass(frozen=True, order=True)
class Shape:
    """Grid dimensions and treatment count (a rows, b columns, t treatments)."""

    a: int
    b: int
    t: int

    def __post_init__(self):
        if self.a < 2 or self.b < self.a:
            raise ValueError(f"need 2 <= a <= b, got a={self.a}, b={self.b}")
        if self.t < 2:
            raise ValueError(f"need t >= 2, got t={self.t}")

    @property
    def p(self) -> int:
        return self.a * self.b

    @property
    def corners(self) -> tuple[tuple[int, int], ...]:
        a, b = self.a, self.b
        return ((1, 1), (a, 1), (1, b), (a, b))

    def plot_index(self, i: int, j: int) -> int:
        """Colex linear index (0-based) of 1-based grid position (i, j)."""
        return (j - 1) * self.a + (i - 1)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.t})"


def normalize_shape(a: int, b: int, t: int) -> tuple[Shape, bool]:
    """Return (Shape, transposed) with rows <= columns, transposing if needed."""
    if a > b:
        return Shape(b, a, t), True
    return Shape(a, b, t), False


@dataclass(frozen=True)
class BlockArray:
    """One treatment assignment on a grid, stored as row tuples."""

    shape: Shape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        a, b, t = self.shape.a, self.shape.b, self.shape.t
        if len(self.rows) != a or any(len(r) != b for r in self.rows):
            raise ValueError(f"rows must form an {a}x{b} grid")
        for r in self.rows:
            for v in r:
                if not (1 <= v <= t):
                    raise ValueError(f"treatment {v} outside 1..{t}")

    @staticmethod
    def from_rows(shape: Shape, rows: Sequence[Sequence[int]]) -> "BlockArray":
        return BlockArray(shape, tuple(tuple(int(v) for v in r) for r in rows))

    @staticmethod
    def from_colex(shape: Shape, seq: Sequence[int]) -> "BlockArray":
        a, b = shape.a, shape.b
        if len(seq) != a * b:
            raise ValueError(f"need {a * b} entries, got {len(seq)}")
        rows = tuple(
            tuple(int(seq[j * a + i]) for j in range(b)) for i in range(a)
        )
        return BlockArray(shape, rows)

    @property
    def colex(self) -> tuple[int, ...]:
        """Entries in plot order (column-major scan)."""
        a, b = self.shape.a, self.shape.b
        return tuple(self.rows[i][j] for j in range(b) for i in range(a))

    def grid(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def transpose(self) -> "BlockArray":
        shape = Shape(self.shape.b, self.shape.a, self.shape.t)
        return BlockArray(shape, tuple(zip(*self.rows)))

    def to_json(self) -> dict:
        return {
            "a": self.shape.a,
            "b": self.shape.b,
            "t": self.shape.t,
            "rows": [list(r) for r in self.rows],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "BlockArray":
        shape = Shape(int(obj["a"]), int(obj["b"]), int(obj["t"]))
        return BlockArray.from_rows(shape, obj["rows"])

    def __str__(self) -> str:
        cols = [
            ",".join(str(self.rows[i][j]) for i in range(self.shape.a))
            for j in range(self.shape.b)
        ]
        return "(" + ";".join(cols) + ")"


@dataclass(frozen=True)
class Orbit:
    """A treatment-relabeling orbit, held by its canonical representative."""

    representative: BlockArray
    size: int


def canonical_form(s: BlockArray) -> BlockArray:
    """First-occurrence relabeling along the colex scan."""
    relabel: dict[int, int] = {}
    seq = []
    for v in s.colex:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        seq.append(relabel[v])
    return BlockArray.from_colex(s.shape, seq)


def apply_permutation(s: BlockArray, sigma: Mapping[int, int]) -> BlockArray:
    """Relabel treatments by a bijection sigma of 1..t."""
    t = s.shape.t
    image = sorted(sigma.get(m, m) for m in range(1, t + 1))
    if image != list(range(1, t + 1)):
        raise ValueError("sigma is not a bijection of 1..t")
    return BlockArray(
        s.shape, tuple(tuple(sigma.get(v, v) for v in r) for r in s.rows)
    )


def distinct_treatments(s: BlockArray) -> int:
    return len(set(s.colex))


def orbit_size(s: BlockArray) -> int:
    """Number of distinct arrays obtainable from s by relabeling: t!/(t-rho)!."""
    return math.perm(s.shape.t, distinct_treatments(s))


def orbit_members(s: BlockArray) -> Iterator[BlockArray]:
    """All distinct relabelings of s, in a deterministic order.

    Iterates injections of the distinct labels (in first-appearance order)
    into 1..t; each injection yields a different array.
    """
    labels: list[int] = []
    for v in s.colex:
        if v not in labels:
            labels.append(v)
    t = s.shape.t
    base = s.colex
    for image in permutations(range(1, t + 1), len(labels)):
        sigma = dict(zip(labels, image))
        yield BlockArray.from_colex(s.shape, [sigma[v] for v in base])


def _stirling2_row(p: int) -> list[int]:
    """Stirling numbers of the second kind S(p, 0..p)."""
    row = [1] + [0] * p
    for n in range(1, p + 1):
        new = [0] * (p + 1)
        for k in range(1, n + 1):
            new[k] = row[k - 1] + k * row[k]
        row = new
    return row


def orbit_count(shape: Shape) -> int:
    """Number of relabeling orbits: sum of S(p, i) for i <= min(t, p)."""
    row = _stirling2_row(shape.p)
    return sum(row[1 : min(shape.t, shape.p) + 1])


def _check_budget(shape: Shape, budget: int) -> None:
    count = orbit_count(shape)
    if count > budget:
        raise EnumerationBudgetError(shape, count, budget)


def _growth_strings(p: int, tmax: int) -> np.ndarray:
    # restricted-growth strings g (g[0] = 1, g[k] <= min(max(g[:k]) + 1,
    # tmax)), exactly the canonical colex label sequences, by prefix
    # expansion (Knuth, TAOCP 4A 7.2.1.5): the children 1..min(m + 1, tmax)
    # of a prefix with largest label m sit next to each other, in
    # increasing order, so every level stays in lexicographic order
    out = np.ones((1, 1), dtype=np.int64)
    top = np.ones(1, dtype=np.int64)
    for _ in range(1, p):
        kids = np.minimum(top + 1, tmax)
        first = np.repeat(np.cumsum(kids) - kids, kids)
        label = np.arange(len(first)) - first + 1
        out = np.column_stack([np.repeat(out, kids, axis=0), label])
        top = np.maximum(np.repeat(top, kids), label)
    return out


def enumerate_orbits(
    shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET
) -> Iterator[Orbit]:
    """Every orbit of the shape as (canonical representative, size), in the
    row order of enumerate_label_matrix.

    Refuses up front when the orbit count exceeds `budget`.
    """
    _check_budget(shape, budget)
    for seq in _growth_strings(shape.p, min(shape.t, shape.p)).tolist():
        yield Orbit(BlockArray.from_colex(shape, seq), math.perm(shape.t, max(seq)))


def enumerate_label_matrix(shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET) -> np.ndarray:
    """All canonical colex label sequences as an (N, p) int64 array, in
    lexicographic order; refuses before allocating when N exceeds `budget`."""
    _check_budget(shape, budget)
    return _growth_strings(shape.p, min(shape.t, shape.p))


def label_matrix(pool: Sequence[BlockArray]) -> np.ndarray:
    """(N, p) int64 colex labels of same-shape arrays."""
    grids = np.array([s.rows for s in pool], dtype=np.int64)
    return grids.transpose(0, 2, 1).reshape(len(pool), -1)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """canonical_form of every row of an (N, p) label matrix."""
    hit = labels[:, None, :] == np.arange(1, labels.max() + 1)[:, None]
    # each label's first plot (p when absent), ranked along the row
    first = np.where(hit.any(axis=2), hit.argmax(axis=2), labels.shape[1])
    rank = first.argsort(axis=1).argsort(axis=1) + 1
    return np.take_along_axis(rank, labels - 1, axis=1)


class LabelPool(Sequence[BlockArray]):
    """A read-only pool of same-shape arrays held as an (N, p) int64 colex
    label matrix; indexing or iterating builds each BlockArray from its row."""

    __slots__ = ("shape", "labels")

    def __init__(self, shape: Shape, labels: np.ndarray):
        labels = np.asarray(labels, dtype=np.int64).view()
        if labels.ndim != 2 or labels.shape[1] != shape.p:
            raise ValueError(f"labels must be an (N, {shape.p}) matrix")
        labels.flags.writeable = False
        self.shape = shape
        self.labels = labels

    @staticmethod
    def of(pool: Sequence[BlockArray]) -> "LabelPool":
        """The pool itself if it is a LabelPool, else its arrays' labels."""
        if not len(pool):
            raise ValueError("empty pool")
        if isinstance(pool, LabelPool):
            return pool
        return LabelPool(pool[0].shape, label_matrix(pool))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k: int) -> BlockArray:
        return BlockArray.from_colex(self.shape, self.labels[k].tolist())


def all_arrays(shape: Shape) -> Iterator[BlockArray]:
    """Every array of the shape (t^p of them); brute-force helper."""
    for seq in product(range(1, shape.t + 1), repeat=shape.p):
        yield BlockArray.from_colex(shape, seq)


@dataclass(frozen=True)
class CountStatistics:
    """Replication and adjacency counts of one array.

    f0..f4 hold per-treatment replication counts over the whole grid and
    the four trimmed subgrids (drop last column, first column, last row,
    first row).  h is the 5x5 table of inner products h[i][j] = sum_m
    f_i[m] * f_j[m]; h1, h2, h3 are the aggregates sum_j h[0][j] (j>=1),
    sum_i h[i][i] (i>=1) and sum_{1<=i<j} h[i][j].  The z counts tally
    same-treatment plot pairs: zr1/zc1 horizontally/vertically adjacent,
    zr2/zc2 at distance two in a row/column, zd1/zd2 on the two diagonal
    offsets; z1 = 2*zr1 + 2*zc1 and z2 = 2*zr2 + 2*zc2 + 4*zd1 + 4*zd2.
    """

    f0: tuple[int, ...]
    f1: tuple[int, ...]
    f2: tuple[int, ...]
    f3: tuple[int, ...]
    f4: tuple[int, ...]
    h: tuple[tuple[int, ...], ...]
    h1: int
    h2: int
    h3: int
    zr1: int
    zc1: int
    zr2: int
    zc2: int
    zd1: int
    zd2: int
    z1: int
    z2: int
    rho: int


def count_statistics(s: BlockArray) -> CountStatistics:
    a, b, t = s.shape.a, s.shape.b, s.shape.t
    rows = s.rows

    def counts(i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> list[int]:
        f = [0] * t
        for i in range(i_lo, i_hi):
            r = rows[i]
            for j in range(j_lo, j_hi):
                f[r[j] - 1] += 1
        return f

    f0 = counts(0, a, 0, b)
    f1 = counts(0, a, 0, b - 1)
    f2 = counts(0, a, 1, b)
    f3 = counts(0, a - 1, 0, b)
    f4 = counts(1, a, 0, b)
    fs = (f0, f1, f2, f3, f4)

    h = [[sum(x * y for x, y in zip(fs[i], fs[j])) for j in range(5)] for i in range(5)]
    h1 = sum(h[0][j] for j in range(1, 5))
    h2 = sum(h[i][i] for i in range(1, 5))
    h3 = sum(h[i][j] for i in range(1, 5) for j in range(i + 1, 5))

    zr1 = sum(rows[i][j] == rows[i][j + 1] for i in range(a) for j in range(b - 1))
    zc1 = sum(rows[i][j] == rows[i + 1][j] for i in range(a - 1) for j in range(b))
    zr2 = sum(rows[i][j] == rows[i][j + 2] for i in range(a) for j in range(b - 2))
    zc2 = sum(rows[i][j] == rows[i + 2][j] for i in range(a - 2) for j in range(b))
    zd1 = sum(rows[i][j] == rows[i - 1][j + 1] for i in range(1, a) for j in range(b - 1))
    zd2 = sum(rows[i][j] == rows[i + 1][j + 1] for i in range(a - 1) for j in range(b - 1))
    z1 = 2 * zr1 + 2 * zc1
    z2 = 2 * zr2 + 2 * zc2 + 4 * zd1 + 4 * zd2

    return CountStatistics(
        f0=tuple(f0),
        f1=tuple(f1),
        f2=tuple(f2),
        f3=tuple(f3),
        f4=tuple(f4),
        h=tuple(tuple(r) for r in h),
        h1=h1,
        h2=h2,
        h3=h3,
        zr1=zr1,
        zc1=zc1,
        zr2=zr2,
        zc2=zc2,
        zd1=zd1,
        zd2=zd2,
        z1=z1,
        z2=z2,
        rho=sum(1 for f in f0 if f > 0),
    )


@dataclass(frozen=True)
class ArrayClassification:
    """Structural flags used to describe optimal-support membership.

    A treatment is significant when it appears exactly twice, on
    orthogonally adjacent plots, at least one of them a corner; strictly
    significant when both plots are corners.  q_index = i marks arrays
    with exactly i significant treatments and p - 2i treatments appearing
    exactly once (0 <= i <= 4); q1_strict / q2_strict additionally require
    every significant treatment to be strict.  balanced marks arrays whose
    replication counts over all t treatments differ by at most one, and
    in_m marks membership in any of the q_index classes.
    """

    significant: tuple[tuple[int, bool], ...]
    connected: tuple[bool, ...]
    q_index: int | None
    q1_strict: bool
    q2_strict: bool
    balanced: bool
    in_m: bool

    def in_q(self, i: int) -> bool:
        return self.q_index == i


def _positions(s: BlockArray) -> dict[int, list[tuple[int, int]]]:
    pos: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(s.rows):
        for j, v in enumerate(row):
            pos.setdefault(v, []).append((i + 1, j + 1))
    return pos


def _is_connected(plots: list[tuple[int, int]]) -> bool:
    # connectivity under orthogonal adjacency; 0 or 1 plots count as connected
    if len(plots) <= 1:
        return True
    todo = set(plots)
    stack = [plots[0]]
    todo.discard(plots[0])
    while stack:
        i, j = stack.pop()
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if (ni, nj) in todo:
                todo.discard((ni, nj))
                stack.append((ni, nj))
    return not todo


def classify_array(s: BlockArray) -> ArrayClassification:
    shape = s.shape
    corners = set(shape.corners)
    pos = _positions(s)
    f0 = [len(pos.get(m, ())) for m in range(1, shape.t + 1)]

    significant: list[tuple[int, bool]] = []
    for m in range(1, shape.t + 1):
        plots = pos.get(m, [])
        if len(plots) != 2:
            continue
        (i1, j1), (i2, j2) = plots
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            continue
        on_corner = [(i1, j1) in corners, (i2, j2) in corners]
        if any(on_corner):
            significant.append((m, all(on_corner)))

    connected = tuple(
        _is_connected(pos.get(m, [])) for m in range(1, shape.t + 1)
    )

    n_sig = len(significant)
    singles = sum(1 for f in f0 if f == 1)
    doubles = sum(1 for f in f0 if f == 2)
    q_index: int | None = None
    if n_sig <= 4 and singles == shape.p - 2 * n_sig and doubles == n_sig:
        if max(f0) <= 2:
            q_index = n_sig

    all_strict = bool(significant) and all(strict for _, strict in significant)
    q1_strict = q_index == 1 and all_strict
    q2_strict = q_index == 2 and all_strict
    balanced = max(f0) - min(f0) <= 1

    return ArrayClassification(
        significant=tuple(significant),
        connected=connected,
        q_index=q_index,
        q1_strict=q1_strict,
        q2_strict=q2_strict,
        balanced=balanced,
        in_m=q_index is not None,
    )


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
