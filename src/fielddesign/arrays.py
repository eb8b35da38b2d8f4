"""Block arrays on an a x b grid and their combinatorics.

A block array assigns one of t treatments to each plot of an a x b grid.
Plots are ordered colexicographically (down each column, columns left to
right), so the linear index of plot (i, j) is (j-1)*a + (i-1) with 1-based
grid coordinates.  Relabeling the t treatments acts on arrays; the orbits
of that action are the unit of enumeration here, represented canonically
by first-occurrence relabeling along the colex scan.

The support classes of the optimality theory are read off a whole label
matrix at once (classify_labels), over the one neighbor definition
(neighbor_matrix) that `model` uses too.
"""

from __future__ import annotations

import json
import math
from itertools import chain, permutations
from typing import Iterator, Mapping, NamedTuple, Sequence

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


class _ShapeFields(NamedTuple):
    a: int
    b: int
    t: int


class Shape(_ShapeFields):
    """Grid dimensions and treatment count (a rows, b columns, t treatments)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, t: int):
        if a < 2 or b < a:
            raise ValueError(f"need 2 <= a <= b, got a={a}, b={b}")
        if t < 2:
            raise ValueError(f"need t >= 2, got t={t}")
        return super().__new__(cls, a, b, t)

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


def mirror_plot_order(shape: Shape) -> np.ndarray:
    """Colex index in the b x a mirror of each plot k of the a x b grid."""
    k = np.arange(shape.p)
    return k % shape.a * shape.b + k // shape.a


def grid_text(rows) -> str:
    """A grid given as rows, written column by column: (1,1;2,1;2,2)."""
    return "(" + ";".join(",".join(map(str, col)) for col in zip(*rows)) + ")"


def _integer(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} {v!r} is not an integer")
    return int(v)


class _BlockArrayFields(NamedTuple):
    shape: Shape
    rows: tuple[tuple[int, ...], ...]


class BlockArray(_BlockArrayFields):
    """One treatment assignment on a grid, stored as row tuples."""

    __slots__ = ()

    def __new__(cls, shape: Shape, rows: tuple[tuple[int, ...], ...]):
        a, b, t = shape.a, shape.b, shape.t
        if len(rows) != a or any(len(r) != b for r in rows):
            raise ValueError(f"rows must form an {a}x{b} grid")
        for r in rows:
            for v in r:
                if not (1 <= v <= t):
                    raise ValueError(f"treatment {v} outside 1..{t}")
        return super().__new__(cls, shape, rows)

    @staticmethod
    def from_rows(shape: Shape, rows: Sequence[Sequence[int]]) -> "BlockArray":
        """Rows of Python or numpy integers; any other label (a float, a
        bool, a string) is a ValueError, never rounded or coerced."""
        return BlockArray(shape, tuple(tuple(_integer(v, "treatment label") for v in r)
                                       for r in rows))

    @staticmethod
    def from_colex(shape: Shape, seq: Sequence[int]) -> "BlockArray":
        a, b = shape.a, shape.b
        if len(seq) != a * b:
            raise ValueError(f"need {a * b} entries, got {len(seq)}")
        return BlockArray(shape, tuple(tuple(map(int, seq[i::a])) for i in range(a)))

    @property
    def colex(self) -> tuple[int, ...]:
        """Entries in plot order (column-major scan)."""
        return tuple(v for col in zip(*self.rows) for v in col)

    def transpose(self) -> "BlockArray":
        shape = Shape(self.shape.b, self.shape.a, self.shape.t)
        return BlockArray(shape, tuple(zip(*self.rows)))

    def to_json(self) -> dict:
        return LabelPool(self.shape, [self.colex]).to_json()[0]

    @staticmethod
    def from_json(obj: Mapping) -> "BlockArray":
        shape = Shape(*(_integer(obj[k], f"{k} =") for k in "abt"))
        return BlockArray.from_rows(shape, obj["rows"])

    def __str__(self) -> str:
        return grid_text(self.rows)


class Orbit(NamedTuple):
    """A treatment-relabeling orbit, held by its canonical representative."""

    representative: BlockArray
    size: int


def canonical_form(s: BlockArray) -> BlockArray:
    """First-occurrence relabeling along the colex scan."""
    return BlockArray.from_colex(s.shape, canonical_labels(np.array([s.colex]))[0].tolist())


def orbit_size(s: BlockArray) -> int:
    """Number of distinct arrays obtainable from s by relabeling: t!/(t-rho)!,
    with rho the number of distinct treatments in s."""
    return math.perm(s.shape.t, len(set(s.colex)))


def orbit_labels(ranks: np.ndarray, t: int, images=None) -> np.ndarray:
    """Relabelings of one array as an (N, p) label matrix.  ranks[k] is the
    first-appearance rank (0-based) of plot k's label, so a canonical
    representative's ranks are its labels less one; row i gives rank r the
    label images[i][r].  By default images holds every injection of the
    ranks into 1..t in itertools.permutations order: the whole orbit."""
    if images is None:
        rho = int(ranks.max()) + 1
        images = np.fromiter(chain.from_iterable(permutations(range(1, t + 1), rho)),
                             dtype=label_dtype(t), count=math.perm(t, rho) * rho).reshape(-1, rho)
    return np.asarray(images, dtype=label_dtype(t))[:, ranks]


def orbit_members(s: BlockArray) -> Iterator[BlockArray]:
    """All distinct relabelings of s, one per injection of its distinct
    labels (in first-appearance order) into 1..t, in permutations order."""
    ranks = canonical_labels(np.array([s.colex]))[0] - 1
    for row in orbit_labels(ranks, s.shape.t).tolist():
        yield BlockArray.from_colex(s.shape, row)


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


def label_dtype(t: int) -> np.dtype:
    """The narrowest signed integer type holding 1..t, in which every label
    matrix is held: int8 up to t = 127, int16 up to 32,767, then int32."""
    return np.min_scalar_type(-t - 1)  # a signed type holding -t - 1 holds t


def _growth_levels(p: int, tmax: int, dtype) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # restricted-growth strings g (g[0] = 1, g[k] <= min(max(g[:k]) + 1,
    # tmax)), exactly the canonical colex label sequences, by prefix
    # expansion (Knuth, TAOCP 4A 7.2.1.5): the children 1..min(m + 1, tmax)
    # of a prefix with largest label m sit next to each other, in
    # increasing order, so every level stays in lexicographic order.  Each
    # level after the first is kept as its label column and the number of
    # children of each row of the level before, both in dtype.
    labels, kids_of = [], []
    top = np.ones(1, dtype=dtype)
    for _ in range(1, p):
        kids = np.minimum(top, tmax - 1) + 1
        # the children 1..kids of each row: the first kids of 1..tmax
        label = np.broadcast_to(np.arange(1, tmax + 1, dtype=dtype), (len(kids), tmax))[
            np.arange(tmax) < kids[:, None]]
        top = np.maximum(np.repeat(top, kids), label)
        labels.append(label)
        kids_of.append(kids)
    return labels, kids_of


def _growth_strings(p: int, tmax: int, dtype) -> np.ndarray:
    # the (N, p) matrix of _growth_levels, built column by column from the
    # last level back (each row of a level repeats once per last-level row
    # it leads to: its children, then theirs), then transposed in one pass
    labels, kids_of = _growth_levels(p, tmax, dtype)
    cols = np.empty((p, len(labels[-1])), dtype=dtype)
    cols[0], cols[-1] = 1, labels[-1]
    reach = kids_of[-1].astype(np.int64)
    for level in range(p - 2, 0, -1):
        cols[level] = np.repeat(labels[level - 1], reach)
        kids = kids_of[level - 1]
        reach = np.add.reduceat(reach, np.cumsum(kids) - kids)
    return np.ascontiguousarray(cols.T)


def enumerate_orbits(
    shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET
) -> Iterator[Orbit]:
    """Every orbit of the shape as (canonical representative, size), in the
    row order of enumerate_label_matrix.

    Refuses up front when the orbit count exceeds `budget`.
    """
    for seq in enumerate_label_matrix(shape, budget).tolist():
        yield Orbit(BlockArray.from_colex(shape, seq), math.perm(shape.t, max(seq)))


def enumerate_label_matrix(shape: Shape, budget: int = DEFAULT_ORBIT_BUDGET) -> np.ndarray:
    """All canonical colex label sequences as an (N, p) label_dtype(t) array,
    in lexicographic order; refuses before allocating when N exceeds `budget`."""
    _check_budget(shape, budget)
    return _growth_strings(shape.p, min(shape.t, shape.p), label_dtype(shape.t))


def label_matrix(pool: Sequence[BlockArray]) -> np.ndarray:
    """(N, p) colex labels of same-shape arrays, in label_dtype(t)."""
    grids = np.array([s.rows for s in pool], dtype=label_dtype(pool[0].shape.t))
    return grids.transpose(0, 2, 1).reshape(len(pool), -1)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """First-occurrence relabeling of every row of an (N, p) label matrix."""
    # the first plot carrying each plot's label; counting those first plots
    # along the row numbers the labels in order of first appearance
    p = labels.shape[1]
    first = (labels[:, :, None] == labels[:, None, :]).argmax(axis=2)
    rank = (first == np.arange(p)).cumsum(axis=1, dtype=labels.dtype)
    return rank[np.arange(len(labels))[:, None], first]


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_index=True, return_inverse=True) of a
    2-D array by one stable lexsort: the distinct rows in lexicographic
    order, the first row holding each, and the group of every row."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], order[new], inverse


def canonical_pool(shape: Shape, rows, k: int | None = None) -> LabelPool:
    """The distinct canonical forms of the label rows, as a pool in colex
    order; with k, only the first k of them to appear in row order."""
    distinct, first, _ = group_rows(canonical_labels(np.asarray(rows)))
    return LabelPool(shape, distinct[np.sort(np.argsort(first)[:k])])


class LabelPool(Sequence[BlockArray]):
    """A read-only pool of same-shape arrays held as an (N, p) colex label
    matrix in label_dtype(t); indexing or iterating builds each BlockArray
    from its row.  A matrix that is not of integers, or holds a label
    outside 1..t, is refused, so narrowing never wraps a label."""

    __slots__ = ("shape", "labels")

    def __init__(self, shape: Shape, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.shape[1] != shape.p:
            raise ValueError(f"labels must be an (N, {shape.p}) matrix")
        if labels.dtype.kind not in "iu" or labels.size and not (
                1 <= labels.min() <= labels.max() <= shape.t):
            raise ValueError(f"labels must be integers in 1..{shape.t}")
        labels = labels.astype(label_dtype(shape.t), copy=False).view()
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

    # a record by shape and labels; copied and pickled through __init__, read-only
    def __eq__(self, other) -> bool:
        return (isinstance(other, LabelPool) and self.shape == other.shape
                and np.array_equal(self.labels, other.labels))

    def __hash__(self) -> int:
        return hash((self.shape, self.labels.tobytes()))

    def __reduce__(self):
        return LabelPool, (self.shape, self.labels)

    def __repr__(self) -> str:
        return f"LabelPool(shape={self.shape!r}, labels={self.labels.tolist()!r})"

    def to_json(self) -> list[dict]:
        """Every array as {"a", "b", "t", "rows"}: the one array JSON writer."""
        a, b, t = self.shape.a, self.shape.b, self.shape.t
        return [{"a": a, "b": b, "t": t, "rows": rows}
                for rows in self.labels.reshape(-1, b, a).transpose(0, 2, 1).tolist()]


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


class LabelClasses(NamedTuple):
    """Per-row support-class flags of a label matrix; see classify_labels."""

    q_index: np.ndarray
    q1_strict: np.ndarray
    q2_strict: np.ndarray
    balanced: np.ndarray
    connected: np.ndarray


def classify_labels(shape: Shape, labels) -> LabelClasses:
    """Support-class flags of every row of an (N, p) colex label matrix.

    A treatment is significant when it appears exactly twice, on
    orthogonally adjacent plots, at least one of them a corner; strictly
    significant when both plots are corners.  q_index = i marks rows with
    exactly i significant treatments and p - 2i treatments appearing
    exactly once (so 0 <= i <= 4), and is -1 elsewhere; q1_strict /
    q2_strict additionally require every significant treatment to be
    strict.  balanced marks rows whose replication counts over all t
    treatments differ by at most one.  connected[k, m - 1] tells whether
    the plots of treatment m in row k are orthogonally connected (an
    absent treatment counts as connected).
    """
    lab = np.asarray(labels)
    p = shape.p
    onehot = lab[:, :, None] == np.arange(1, shape.t + 1)
    f0 = onehot.sum(axis=1)
    dst, src = np.nonzero(neighbor_matrix(shape))  # adjacent plot pairs, by dst
    same = lab[:, src] == lab[:, dst]
    corner = np.isin(np.arange(p), [shape.plot_index(i, j) for i, j in shape.corners])
    # a twice-replicated label meets itself on one pair at most, counted once
    sig = (same & (src < dst) & (corner[src] | corner[dst])
           & (np.take_along_axis(f0, lab[:, src] - 1, axis=1) == 2))
    n_sig = sig.sum(axis=1)
    q_index = np.where(((f0 == 2).sum(axis=1) == n_sig)
                       & ((f0 == 1).sum(axis=1) == p - 2 * n_sig), n_sig, -1)
    strict = (n_sig > 0) & ~(sig & ~(corner[src] & corner[dst])).any(axis=1)
    # label propagation: every plot ends on the least plot it reaches
    # through equal neighbors, so a connected label has one such root
    comp, starts = np.broadcast_to(np.arange(p), lab.shape), np.searchsorted(dst, np.arange(p))
    while True:
        reach = np.minimum.reduceat(np.where(same, comp[:, src], p), starts, axis=1)
        nxt = np.minimum(comp, reach)
        if (nxt == comp).all():
            break
        comp = nxt
    roots = (onehot & (comp == np.arange(p))[:, :, None]).sum(axis=1)
    return LabelClasses(q_index, (q_index == 1) & strict, (q_index == 2) & strict,
                        f0.max(axis=1) - f0.min(axis=1) <= 1, roots <= 1)


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
