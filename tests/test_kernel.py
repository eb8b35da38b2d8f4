"""Properties of the pair kernel against explicit per-array algebra."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fielddesign.arrays import BlockArray, Shape, orbit_members
from fielddesign.model import (
    IDENTITY,
    GeneralCov,
    TypeH,
    block_components,
    closed_numerators_batch,
    info_matrix_measure,
    trace_numerators_batch,
    triple_table,
)
from fielddesign.optimality import Measure

REL = 1e-12


def _neighbors(a: int, b: int) -> np.ndarray:
    # orthogonal adjacency in colex order, plot (i, j) at index i + a j
    m = np.zeros((a * b, a * b))
    for j in range(b):
        for i in range(a):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < a and 0 <= j + dj < b:
                    m[i + a * j, i + di + a * (j + dj)] = 1
    return m


def _reference_triple(labels, a: int, b: int, t: int, sigma: np.ndarray):
    """tr(B_t X' Btilde Y) for (X, Y) in (T0, T0), (T0, F), (F, F)."""
    p = a * b
    t0 = np.zeros((p, t))
    t0[np.arange(p), np.asarray(labels) - 1] = 1
    f = _neighbors(a, b) @ t0
    inv = np.linalg.inv(sigma)
    u = inv.sum(axis=1)
    bt = inv - np.outer(u, u) / u.sum()
    proj = np.eye(t) - 1.0 / t
    return np.array([np.trace(proj @ x.T @ bt @ y) for x, y in ((t0, t0), (t0, f), (f, f))])


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= REL * max(1.0, np.abs(want).max())))


def _pool(shape: Shape, rows) -> list[BlockArray]:
    return [BlockArray.from_colex(shape, tuple(r)) for r in rows]


@st.composite
def cases(draw, square: bool = False):
    """A shape with p <= 12, a few label rows and a random SPD covariance."""
    a = draw(st.integers(2, 3))
    b = a if square else draw(st.integers(a, 12 // a))
    t = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(1, t), min_size=a * b, max_size=a * b),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(a * b, a * b))
    sigma = g @ g.T + a * b * np.eye(a * b) * draw(st.floats(0.05, 2.0))
    return Shape(a, b, t), np.array(rows, dtype=np.int64), sigma


@settings(max_examples=60, deadline=None)
@given(cases())
def test_dense_triples_match_explicit_algebra(case):
    shape, lab, sigma = case
    table = triple_table(_pool(shape, lab), GeneralCov.from_matrix(sigma))
    for row, got in zip(lab, table):
        assert _close(got, _reference_triple(row, shape.a, shape.b, shape.t, sigma))


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 7)]))
def test_identity_family_triples_match_explicit_algebra(case, x):
    shape, lab, _ = case
    table = triple_table(_pool(shape, lab), TypeH(x))
    sigma = float(x) * np.eye(shape.p)
    for row, got in zip(lab, table):
        assert _close(got, _reference_triple(row, shape.a, shape.b, shape.t, sigma))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_integer_numerators_equal_counting_formula(case):
    shape, lab, _ = case
    kernel = trace_numerators_batch(lab, shape)
    closed = closed_numerators_batch(lab, shape)
    for x, y in zip(kernel, closed):
        assert x.dtype == np.int64 and (x == y).all()


@settings(max_examples=60, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_triples_invariant_under_relabeling(case, rnd):
    shape, lab, sigma = case
    perm = np.array([0] + rnd.sample(range(1, shape.t + 1), shape.t))
    relabeled = perm[lab]
    for x, y in zip(trace_numerators_batch(lab, shape),
                    trace_numerators_batch(relabeled, shape)):
        assert (x == y).all()
    cov = GeneralCov.from_matrix(sigma)
    assert _close(triple_table(_pool(shape, relabeled), cov),
                  triple_table(_pool(shape, lab), cov))


@settings(max_examples=60, deadline=None)
@given(cases(square=True))
def test_triples_invariant_under_transposition(case):
    shape, lab, sigma = case
    a = shape.a
    pool = _pool(shape, lab)
    flipped = [s.transpose() for s in pool]
    # plot i + a j of the transpose is plot j + a i of the original
    k = np.arange(shape.p)
    moved = (k // a) + a * (k % a)
    for x, y in zip(trace_numerators_batch(lab[:, moved], shape),
                    trace_numerators_batch(lab, shape)):
        assert (x == y).all()
    assert (triple_table(flipped) == triple_table(pool)).all()
    cov = GeneralCov.from_matrix(sigma)
    cov_t = GeneralCov.from_matrix(sigma[np.ix_(moved, moved)])
    assert _close(triple_table(flipped, cov_t), triple_table(pool, cov))


@settings(max_examples=60, deadline=None)
@given(cases(), st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
       st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 7)]))
def test_exact_information_matrix_is_symmetric_with_zero_row_sums(case, nums, x):
    shape, lab, _ = case
    nums = nums[:len(lab)]
    xi = Measure.from_labels(shape, lab, [Fraction(n, sum(nums)) for n in nums])
    sigma = TypeH(x)
    got = info_matrix_measure(xi, sigma, exact=True)
    assert all(isinstance(v, Fraction) for v in got.flat)
    assert (got == got.T).all()
    assert all(sum(row) == 0 for row in got)
    want = info_matrix_measure(xi, sigma)
    assert np.abs(np.array(got, dtype=float) - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_grouped_exact_accumulation_matches_per_block_sum():
    shape = Shape(2, 3, 4)
    reps = [BlockArray.from_colex(shape, c) for c in
            ((1, 2, 1, 3, 2, 4), (1, 1, 2, 3, 4, 4), (1, 2, 3, 4, 1, 2))]
    raw: dict[BlockArray, Fraction] = {}
    # whole orbits at one weight each, and single atoms at further weights
    for rep, w in zip(reps, (Fraction(1, 3), Fraction(2, 7))):
        for s in orbit_members(rep):
            raw[s] = w
    for s, w in zip(orbit_members(reps[2]), (Fraction(5, 11), Fraction(1, 13), Fraction(3, 4))):
        raw[s] = w
    total = sum(raw.values())
    xi = Measure(shape, {s: w / total for s, w in raw.items()})
    assert len(set(xi.weights)) >= 3
    for sigma in (IDENTITY, TypeH(Fraction(5, 2))):
        got = xi.components(sigma, exact=True)
        want = [0, 0, 0]
        for s, w in xi.items():
            want = [acc + w * c for acc, c in zip(want, block_components(s, sigma, exact=True))]
        for g, wnt in zip(got, want):
            assert all(isinstance(v, Fraction) for v in g.flat)
            assert (g == wnt).all()
