"""Grids, orbits, canonical forms, counting statistics, classification."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from fielddesign.arrays import (
    BlockArray,
    EnumerationBudgetError,
    LabelPool,
    Shape,
    all_arrays,
    apply_permutation,
    canonical_form,
    canonical_labels,
    classify_array,
    count_statistics,
    enumerate_label_matrix,
    enumerate_orbits,
    normalize_shape,
    orbit_count,
    orbit_members,
    orbit_size,
)
from fielddesign.optimality import full_pool

from .conftest import SBS_ROWS_2X3, array_of


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
        list(enumerate_orbits(Shape(3, 4, 12), budget=10))


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
    assert lab.dtype == np.int64 and lab.shape == (orbit_count(shape), shape.p)
    assert list(map(tuple, lab.tolist())) == want


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


def test_canonical_labels_equal_canonical_form():
    shape = Shape(3, 3, 5)
    lab = np.random.default_rng(4).integers(1, 6, size=(300, shape.p))
    got = canonical_labels(lab)
    want = [canonical_form(BlockArray.from_colex(shape, r)).colex for r in lab.tolist()]
    assert list(map(tuple, got.tolist())) == want


def test_count_statistics_reference_values():
    # hand-enumerated counts for (1,1;2,3;4,5) on a 2x3 grid
    st = count_statistics(array_of(2, 3, 5, SBS_ROWS_2X3))
    assert st.rho == 5
    assert st.z1 == 2 and st.z2 == 0
    assert st.h[0][0] == 8
    assert st.h1 == 18 and st.h2 == 16 and st.h3 == 13


def _neighbor_sets(shape: Shape):
    cells = [(i, j) for j in range(shape.b) for i in range(shape.a)]
    out = {}
    for i, j in cells:
        out[(i, j)] = [
            (i + di, j + dj)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= i + di < shape.a and 0 <= j + dj < shape.b
        ]
    return cells, out


def test_z_counts_match_neighbor_graph():
    # z1: ordered adjacent same-label pairs; z2: ordered same-label pairs
    # weighted by the number of shared neighbors
    rng = np.random.default_rng(11)
    for shape in (Shape(2, 3, 3), Shape(3, 4, 5), Shape(2, 2, 2)):
        cells, nbrs = _neighbor_sets(shape)
        for _ in range(20):
            s = BlockArray.from_colex(
                shape, rng.integers(1, shape.t + 1, size=shape.p))
            lab = {c: s.rows[c[0]][c[1]] for c in cells}
            z1 = sum(
                lab[u] == lab[v] for u in cells for v in nbrs[u])
            z2 = sum(
                len(set(nbrs[u]) & set(nbrs[v])) * (lab[u] == lab[v])
                for u in cells for v in cells if u != v)
            st = count_statistics(s)
            assert st.z1 == z1 and st.z2 == z2


def test_classification_one_strict_double():
    cls = classify_array(array_of(2, 3, 5, SBS_ROWS_2X3))
    assert cls.q_index == 1
    assert cls.q1_strict and not cls.q2_strict
    assert cls.balanced  # counts (2,1,1,1,1) are as even as p=6, t=5 allows


def test_classification_balanced():
    cls = classify_array(array_of(2, 3, 2, [[1, 2, 1], [2, 1, 2]]))
    assert cls.balanced and cls.q_index is None


def test_classification_all_distinct():
    cls = classify_array(array_of(2, 3, 6, [[1, 2, 3], [4, 5, 6]]))
    assert cls.q_index == 0


def test_all_arrays_yields_every_assignment():
    assert sum(1 for _ in all_arrays(Shape(2, 2, 2))) == 16
