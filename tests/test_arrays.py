"""Grids, orbits, canonical forms, support classes."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fielddesign.arrays import (
    BlockArray,
    EnumerationBudgetError,
    LabelPool,
    Shape,
    canonical_form,
    canonical_labels,
    canonical_pool,
    classify_labels,
    enumerate_label_matrix,
    label_dtype,
    mirror_plot_order,
    normalize_shape,
    orbit_count,
    orbit_members,
    orbit_size,
)
from fielddesign.optimality import full_pool

from .conftest import SBS_ROWS_2X3, all_arrays, apply_permutation, array_of
from .reference_model import enumerate_orbits


def test_shape_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        Shape(1, 3, 2)
    with pytest.raises(ValueError):
        Shape(3, 2, 2)
    with pytest.raises(ValueError):
        Shape(2, 2, 1)


def test_normalize_shape_transposes_tall_grids():
    shape, transposed = normalize_shape(4, 2, 8)
    assert shape == Shape(2, 4, 8) and transposed
    shape, transposed = normalize_shape(2, 4, 8)
    assert shape == Shape(2, 4, 8) and not transposed


@pytest.mark.parametrize("abt", [(2, 4, 8), (3, 5, 4), (3, 3, 2)])
def test_mirror_plot_order_maps_each_plot_to_its_mirror(abt):
    shape = Shape(*abt)
    s = BlockArray.from_colex(shape, np.arange(shape.p) % shape.t + 1)
    mirror = list(zip(*s.rows))  # b rows of a: the grid given transposed
    mirror_colex = [mirror[r][c] for c in range(shape.a) for r in range(shape.b)]
    perm = mirror_plot_order(shape)
    assert sorted(perm.tolist()) == list(range(shape.p))
    assert [mirror_colex[k] for k in perm] == list(s.colex)
    assert perm.tolist() == [k % shape.a * shape.b + k // shape.a for k in range(shape.p)]


def test_plot_index_scans_columns_first():
    shape = Shape(2, 3, 2)
    order = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
    assert [shape.plot_index(i, j) for i, j in order] == list(range(6))


def test_colex_round_trip():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    assert s.colex == (1, 1, 2, 3, 4, 5)
    assert BlockArray.from_colex(s.shape, s.colex) == s
    assert str(s) == "(1,1;2,3;4,5)"


def test_json_round_trip():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    assert BlockArray.from_json(s.to_json()) == s


def test_array_rejects_bad_grids():
    shape = Shape(2, 3, 2)
    with pytest.raises(ValueError):
        BlockArray.from_rows(shape, [[1, 1, 1]])
    with pytest.raises(ValueError):
        BlockArray.from_rows(shape, [[1, 1, 3], [1, 1, 1]])
    for label in (1.0, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="not an integer"):
            BlockArray.from_rows(shape, [[1, 1, 2], [1, 2, label]])
    assert BlockArray.from_rows(shape, [[1, 1, 2], [1, 2, np.int8(2)]]).rows[1] == (1, 2, 2)


def test_transpose_flips_grid():
    # only square grids can transpose in place; tall data is transposed
    # before a Shape ever exists
    s = array_of(2, 2, 3, [[1, 2], [3, 3]])
    assert s.transpose().rows == ((1, 3), (2, 3))


def test_canonical_form_labels_by_first_appearance():
    s = array_of(2, 3, 5, [[3, 5, 3], [3, 1, 2]])
    c = canonical_form(s)
    seen = []
    for v in c.colex:
        if v not in seen:
            seen.append(v)
    assert seen == sorted(seen) and seen[0] == 1


def test_canonical_form_constant_on_orbits():
    rng = np.random.default_rng(5)
    shape = Shape(2, 3, 4)
    for _ in range(25):
        s = BlockArray.from_colex(shape, rng.integers(1, 5, size=6))
        base = canonical_form(s)
        perm = dict(zip(range(1, 5), rng.permutation(4) + 1))
        assert canonical_form(apply_permutation(s, perm)) == base


def test_orbit_size_counts_injections():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)  # 5 labels used out of 5
    assert orbit_size(s) == math.perm(5, 5) == 120
    s2 = array_of(2, 2, 3, [[1, 1], [2, 2]])  # 2 labels used out of 3
    assert orbit_size(s2) == math.perm(3, 2) == 6
    brute = {
        apply_permutation(s2, dict(zip(range(1, 4), p)))
        for p in itertools.permutations(range(1, 4))
    }
    assert len(brute) == 6


def test_orbit_members_are_distinct_and_complete():
    s = array_of(2, 2, 3, [[1, 2], [2, 1]])
    members = list(orbit_members(s))
    assert len(members) == orbit_size(s) == len(set(members))
    assert canonical_form(s) in members


@pytest.mark.parametrize("a,b,t", [(2, 2, 2), (2, 2, 3), (2, 3, 2)])
def test_orbit_sizes_partition_all_arrays(a, b, t):
    shape = Shape(a, b, t)
    total = sum(o.size for o in enumerate_orbits(shape))
    assert total == t ** shape.p
    assert sum(1 for _ in enumerate_orbits(shape)) == orbit_count(shape)


def test_orbit_count_smallest_grid():
    assert orbit_count(Shape(2, 2, 2)) == 8


def test_enumeration_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        enumerate_label_matrix(Shape(3, 4, 12), budget=10)


def _restricted_growth(p: int, tmax: int):
    # the sequential generator the vectorized enumerator replaced, kept
    # here as its reference: g[0] = 1, g[k] <= min(max(g[:k]) + 1, tmax)
    seq = [1] * p
    maxes = [1] * p
    while True:
        yield tuple(seq)
        k = p - 1
        while k > 0 and seq[k] >= min(maxes[k - 1] + 1, tmax):
            k -= 1
        if k == 0:
            return
        seq[k] += 1
        maxes[k] = max(maxes[k - 1], seq[k])
        for j in range(k + 1, p):
            seq[j] = 1
            maxes[j] = maxes[k]


# t < p, t = p, t > p, a = b = 2 and a 3x4 grid
ENUMERATED_SHAPES = [(2, 3, 2), (3, 3, 3), (2, 4, 8), (2, 3, 9), (2, 2, 2),
                     (2, 2, 3), (2, 2, 5), (3, 4, 3)]


@pytest.mark.parametrize("abt", ENUMERATED_SHAPES)
def test_label_matrix_enumeration_equals_sequential_generator(abt):
    shape = Shape(*abt)
    want = list(_restricted_growth(shape.p, min(shape.t, shape.p)))
    lab = enumerate_label_matrix(shape)
    assert lab.dtype == label_dtype(shape.t) and lab.shape == (orbit_count(shape), shape.p)
    assert list(map(tuple, lab.tolist())) == want


def test_label_matrix_peak_memory_stays_near_its_size():
    # one label column per level, not a prefix matrix per level
    shape = Shape(2, 5, 5)
    tracemalloc.start()
    try:
        lab = enumerate_label_matrix(shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lab.shape == (orbit_count(shape), shape.p) and lab.flags.c_contiguous
    # within the int64 matrix's bytes, and near the narrow matrix's size
    assert peak <= 1.6 * lab.size * 8 and peak <= 3 * lab.nbytes


@pytest.mark.parametrize("abt", ENUMERATED_SHAPES[:6])
def test_full_pool_and_orbits_follow_sequential_generator(abt):
    shape = Shape(*abt)
    want = [BlockArray.from_colex(shape, seq)
            for seq in _restricted_growth(shape.p, min(shape.t, shape.p))]
    assert list(full_pool(shape)) == want
    orbits = list(enumerate_orbits(shape))
    assert [o.representative for o in orbits] == want
    assert [o.size for o in orbits] == [orbit_size(s) for s in want]


def test_label_pool_is_a_read_only_sequence_of_arrays():
    shape = Shape(2, 3, 3)
    lab = enumerate_label_matrix(shape)
    pool = LabelPool(shape, lab)
    arrays = list(pool)
    assert len(pool) == len(arrays) == len(lab)
    assert pool[5] == arrays[5] == BlockArray.from_colex(shape, lab[5].tolist())
    assert pool[-1] == arrays[-1] and arrays[7] in pool
    assert LabelPool.of(pool) is pool
    assert (LabelPool.of(arrays).labels == lab).all()
    with pytest.raises(ValueError):
        pool.labels[0, 0] = 2
    lab[0, 0] = 2  # the caller's matrix stays writable
    with pytest.raises(ValueError):
        LabelPool.of([])
    with pytest.raises(ValueError):
        LabelPool(shape, lab[:, :4])


def test_label_pool_refuses_what_it_cannot_narrow():
    shape = Shape(2, 3, 3)
    lab = enumerate_label_matrix(shape).astype(np.int64)
    for bad in (0, 4, 128):  # 128 would wrap to -128 in int8
        wrong = lab.copy()
        wrong[5, 2] = bad
        with pytest.raises(ValueError, match="integers in 1..3"):
            LabelPool(shape, wrong)
    with pytest.raises(ValueError, match="integers in 1..3"):
        LabelPool(shape, lab.astype(float))
    assert LabelPool(shape, lab).labels.dtype == np.int8


def test_label_dtype_is_the_narrowest_signed_type_holding_t():
    for t, want in ((2, np.int8), (127, np.int8), (128, np.int16), (32_767, np.int16),
                    (32_768, np.int32)):
        assert label_dtype(t) == want


def test_kept_full_pool_holds_a_byte_per_plot():
    shape = Shape(2, 5, 4)
    pool = full_pool(shape)
    assert pool.labels.dtype == np.int8 and pool.labels.nbytes == len(pool) * shape.p


@pytest.mark.parametrize("abt", [(2, 3, 3), (3, 3, 4)])
def test_label_pool_json_is_each_arrays_json(abt):
    pool = full_pool(Shape(*abt))
    got = pool.to_json()
    assert got == [s.to_json() for s in pool]
    assert [g["rows"] for g in got] == [[list(r) for r in s.rows] for s in pool]


def _sequential_canonical_form(seq) -> tuple[int, ...]:
    # the one-array-at-a-time relabeling canonical_labels replaced, kept
    # here as its reference: labels numbered by first appearance
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(v, len(relabel) + 1) for v in seq)


def test_canonical_labels_equal_canonical_form():
    shape = Shape(3, 3, 5)
    lab = np.random.default_rng(4).integers(1, 6, size=(300, shape.p))
    got = canonical_labels(lab)
    want = [_sequential_canonical_form(r) for r in lab.tolist()]
    assert list(map(tuple, got.tolist())) == want
    assert [canonical_form(BlockArray.from_colex(shape, r)).colex
            for r in lab.tolist()] == want


def test_canonical_pool_keeps_the_first_distinct_forms_in_colex_order():
    shape = Shape(2, 3, 3)
    rows = np.random.default_rng(8).integers(1, 4, size=(200, shape.p))
    distinct = list(dict.fromkeys(_sequential_canonical_form(r) for r in rows.tolist()))
    for k in (None, 1, 7, len(distinct), len(distinct) + 5):
        got = canonical_pool(shape, rows, k).labels
        assert list(map(tuple, got.tolist())) == sorted(distinct[:k])


@pytest.mark.parametrize("abt, seq", [
    ((2, 3, 5), (3, 3, 5, 1, 5, 3)),      # three labels of five, none canonical
    ((2, 2, 4), (4, 2, 2, 4)),            # two labels, the larger first
    ((3, 3, 6), (2, 2, 2, 2, 2, 2, 2, 2, 2)),  # one label
    ((2, 3, 4), (1, 2, 1, 3, 2, 3)),      # already canonical
])
def test_orbit_members_follow_injection_order(abt, seq):
    # the reference: each injection of the distinct labels, in order of
    # first appearance, into 1..t, applied through a dict
    shape = Shape(*abt)
    s = BlockArray.from_colex(shape, seq)
    labels = list(dict.fromkeys(seq))
    want = [tuple(dict(zip(labels, image))[v] for v in seq)
            for image in itertools.permutations(range(1, shape.t + 1), len(labels))]
    assert [m.colex for m in orbit_members(s)] == want
    assert len(want) == orbit_size(s)


def _reference_classes(s: BlockArray) -> tuple:
    # the per-array classifier classify_labels replaced, kept here as its
    # reference: (q_index or -1, q1_strict, q2_strict, balanced, connected)
    shape = s.shape
    corners = set(shape.corners)
    pos: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(s.rows):
        for j, v in enumerate(row):
            pos.setdefault(v, []).append((i + 1, j + 1))

    def is_connected(plots):
        if len(plots) <= 1:
            return True
        todo, stack = set(plots[1:]), [plots[0]]
        while stack:
            i, j = stack.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in todo:
                    todo.discard(nb)
                    stack.append(nb)
        return not todo

    f0 = [len(pos.get(m, ())) for m in range(1, shape.t + 1)]
    strict = []
    for m in range(1, shape.t + 1):
        plots = pos.get(m, [])
        if len(plots) == 2:
            (i1, j1), (i2, j2) = plots
            on_corner = [(i1, j1) in corners, (i2, j2) in corners]
            if abs(i1 - i2) + abs(j1 - j2) == 1 and any(on_corner):
                strict.append(all(on_corner))
    n_sig = len(strict)
    q_index = -1
    if (n_sig <= 4 and f0.count(1) == shape.p - 2 * n_sig and f0.count(2) == n_sig
            and max(f0) <= 2):
        q_index = n_sig
    all_strict = bool(strict) and all(strict)
    return (q_index, q_index == 1 and all_strict, q_index == 2 and all_strict,
            max(f0) - min(f0) <= 1,
            tuple(is_connected(pos.get(m, [])) for m in range(1, shape.t + 1)))


def _classes_by_row(shape: Shape, lab) -> list[tuple]:
    cl = classify_labels(shape, lab)
    return [(q, q1, q2, bal, tuple(conn)) for q, q1, q2, bal, conn in
            zip(*(f.tolist() for f in cl))]


def _assert_matches_reference(shape: Shape, lab) -> None:
    want = [_reference_classes(BlockArray.from_colex(shape, r)) for r in np.asarray(lab).tolist()]
    assert _classes_by_row(shape, lab) == want


@pytest.mark.parametrize("abt", [(2, 2, 4), (2, 3, 5), (3, 3, 5), (2, 4, 8)])
def test_classify_labels_equals_reference_on_every_orbit(abt):
    shape = Shape(*abt)
    _assert_matches_reference(shape, enumerate_label_matrix(shape))


# a = 2, a 3x3 grid, a = b = 2, and a wider 3-row grid
CLASSIFIED_SHAPES = [Shape(2, 3, 4), Shape(2, 5, 6), Shape(3, 3, 5), Shape(2, 2, 3),
                     Shape(3, 4, 12)]


@st.composite
def _label_matrices(draw, shapes=CLASSIFIED_SHAPES):
    shape = draw(st.sampled_from(shapes))
    rows = draw(st.lists(st.lists(st.integers(1, shape.t), min_size=shape.p,
                                  max_size=shape.p), min_size=1, max_size=12))
    return shape, np.array(rows, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(_label_matrices())
def test_classify_labels_equals_reference_on_random_rows(case):
    _assert_matches_reference(*case)


@settings(max_examples=40, deadline=None)
@given(_label_matrices(), st.randoms(use_true_random=False))
def test_classify_labels_invariant_under_relabeling(case, rnd):
    shape, lab = case
    image = list(range(1, shape.t + 1))
    rnd.shuffle(image)
    got = classify_labels(shape, np.array([0] + image)[lab])
    want = classify_labels(shape, lab)
    for f in ("q_index", "q1_strict", "q2_strict", "balanced"):
        assert (getattr(got, f) == getattr(want, f)).all()
    # label m of the relabeled rows is label image^-1(m) of the originals
    assert (got.connected[:, np.array(image) - 1] == want.connected).all()


@settings(max_examples=40, deadline=None)
@given(_label_matrices([Shape(2, 2, 3), Shape(3, 3, 5), Shape(4, 4, 7)]))
def test_classify_labels_invariant_under_transposition(case):
    shape, lab = case
    transposed = lab.reshape(-1, shape.b, shape.a).transpose(0, 2, 1).reshape(len(lab), -1)
    assert _classes_by_row(shape, transposed) == _classes_by_row(shape, lab)
    # and after canonical relabeling, connected follows each label's new name
    canon = canonical_labels(transposed)
    got = classify_labels(shape, canon)
    want = classify_labels(shape, lab)
    for k in range(len(lab)):
        renamed = dict(zip(transposed[k].tolist(), canon[k].tolist()))
        for old, new in renamed.items():
            assert got.connected[k, new - 1] == want.connected[k, old - 1]
    assert (got.q_index == want.q_index).all() and (got.balanced == want.balanced).all()


def test_classification_one_strict_double():
    cls = classify_labels(Shape(2, 3, 5), [array_of(2, 3, 5, SBS_ROWS_2X3).colex])
    assert cls.q_index.tolist() == [1]
    assert cls.q1_strict.all() and not cls.q2_strict.any()
    assert cls.balanced.all()  # counts (2,1,1,1,1) are as even as p=6, t=5 allows


def test_classification_balanced():
    cls = classify_labels(Shape(2, 3, 2), [array_of(2, 3, 2, [[1, 2, 1], [2, 1, 2]]).colex])
    assert cls.balanced.all() and cls.q_index.tolist() == [-1]


def test_classification_all_distinct():
    cls = classify_labels(Shape(2, 3, 6), [array_of(2, 3, 6, [[1, 2, 3], [4, 5, 6]]).colex])
    assert cls.q_index.tolist() == [0]


def test_all_arrays_yields_every_assignment():
    assert sum(1 for _ in all_arrays(Shape(2, 2, 2))) == 16
