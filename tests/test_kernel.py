"""Properties of the pair kernel and of the exact integer path against
explicit per-array algebra and test-local Fraction references."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fielddesign.model as model
import fielddesign.optimality as optimality
from fielddesign.arrays import (
    BlockArray,
    LabelPool,
    Orbit,
    Shape,
    canonical_labels,
    classify_labels,
    group_rows,
    label_dtype,
    label_matrix,
    orbit_members,
    orbit_size,
)
from fielddesign.designs import ExactDesign, efficiencies, measure_of_design
from fielddesign.arrays import neighbor_matrix
from fielddesign.model import (
    IDENTITY,
    GeneralCov,
    TypeH,
    _pair_kernel,
    _shape_kernel,
    bind,
    btilde,
    centering_projector,
    component_numerators,
    exact_q,
    info_matrix_exact,
    numerator_rows,
    scaled_rows,
    schur_numerators,
    triple_table,
)
from fielddesign.optimality import (
    GAP_TOL,
    Measure,
    full_pool,
    solve_closed_form,
    verify_measure,
)

from .conftest import EFFICIENT_BLOCKS_428, OPTIMAL_BLOCKS_232, design_of
from .reference_model import (
    c_coeffs_closed,
    closed_numerators_batch,
    incidence_matrices,
    info_matrix_measure,
)

REL = 1e-12


def _reference_triple(labels, a: int, b: int, t: int, sigma: np.ndarray):
    """tr(B_t X' Btilde Y) for (X, Y) in (T0, T0), (T0, F), (F, F)."""
    inc = incidence_matrices(BlockArray.from_colex(Shape(a, b, t), tuple(int(v) for v in labels)))
    t0, f = inc.t0, inc.f
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
    kernel = numerator_rows(shape, lab).T
    closed = closed_numerators_batch(lab, shape)
    for x, y in zip(kernel, closed):
        assert x.dtype == np.int64 and (x == y).all()


@pytest.mark.parametrize("a,b,t", [(6, 8, 4), (4, 4, 16)])
def test_integer_numerators_equal_counting_formula_on_large_grids(a, b, t):
    shape = Shape(a, b, t)
    lab = np.random.default_rng(a * b * t).integers(1, t + 1, size=(3000, shape.p))
    for x, y in zip(numerator_rows(shape, lab).T, closed_numerators_batch(lab, shape)):
        assert x.dtype == np.int64 and (x == y).all()


def test_shape_kernel_arrays_are_read_only():
    shape = Shape(2, 3, 3)
    kern, _ = _pair_kernel(shape, bind(shape, TypeH(Fraction(3, 2))))
    for arr in (kern.neighbors, kern.stack, *kern.pairs, kern.pair_w, kern.diag):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


def test_dense_kernel_is_kept_per_spec(monkeypatch):
    # bind's unit Sigma and its float pair kernel are made once per spec
    # and shape, so a solve, its check and a design's scores invert once;
    # the caches are process-wide, so they start empty whatever ran before
    model._bind_dense.cache_clear()
    model._dense_kernel.cache_clear()
    shape = Shape(2, 3, 3)
    ar = GeneralCov.from_matrix(0.45 ** np.abs(np.subtract.outer(range(6), range(6))))
    calls = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(1) or real(m))
    res = optimality.solve_exchange(shape, ar)
    optimality.verify_measure(Measure.from_orbit_weights(shape, res.orbit_weights), ar,
                              res.x_star, res.y_star)
    efficiencies(ExactDesign(shape, res.q_support.arrays), ar, res.y_star)
    assert len(calls) == 1
    cov = bind(shape, ar)
    assert cov.unit is bind(shape, ar).unit and not cov.unit.flags.writeable
    kern = _pair_kernel(shape, cov)[0]
    assert kern is _pair_kernel(shape, bind(shape, ar))[0]
    for arr in (kern.neighbors, kern.stack, *kern.pairs, kern.pair_w, kern.diag):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


@pytest.mark.parametrize("float_first", [True, False])
def test_equal_type_h_weights_keep_their_own_exactness(float_first):
    # TypeH(1.5) == TypeH(Fraction(3, 2)) and both hash alike, yet only the
    # second is exact: no bound scale may be shared between them
    shape = Shape(2, 3, 3)
    _shape_kernel.cache_clear()
    sigmas = [TypeH(1.5), TypeH(Fraction(3, 2))]
    assert sigmas[0] == sigmas[1] and hash(sigmas[0]) == hash(sigmas[1])
    for sigma in sigmas if float_first else sigmas[::-1]:
        assert type(bind(shape, sigma).scale) is type(sigma.x)
    labels = full_pool(shape).labels[:3]
    with pytest.raises(ValueError, match="exact path"):
        component_numerators(shape, labels, [1] * 3, TypeH(1.5))
    assert bind(shape, TypeH(Fraction(3, 2))).scale == Fraction(2, 3)


def test_type_h_kernel_is_kept_per_shape_and_scale():
    # the kernel is kept per shape at unit scale; the bound scale keeps its type
    shape = Shape(2, 3, 3)
    exact_two, float_two = bind(shape, TypeH(Fraction(2))), bind(shape, TypeH(2.0))
    assert type(exact_two.scale) is Fraction and type(float_two.scale) is float
    kern, count = _pair_kernel(shape, exact_two)
    assert kern is _pair_kernel(shape, float_two)[0] is _shape_kernel(shape)
    assert (count == _pair_kernel(shape, float_two)[1]).all()
    assert _pair_kernel(Shape(2, 3, 4), exact_two)[0].shape == Shape(2, 3, 4)


def test_type_h_offsets_are_checked_on_every_call():
    shape = Shape(2, 3, 2)
    pool = full_pool(shape)
    triple_table(pool, TypeH(1, y=(0.0,) * 6))
    for bad, match in (((0.5,), "length 6"), ((-3, 0, 0, 0, 0, 0), "positive definite")):
        with pytest.raises(ValueError, match=match):
            triple_table(pool, TypeH(1, y=bad))
        with pytest.raises(ValueError, match=match):
            component_numerators(shape, pool.labels, [1] * len(pool), TypeH(Fraction(1), y=bad))


def _int64_gather_triples(labels: np.ndarray, shape: Shape, sigma) -> np.ndarray:
    """The dense-Sigma triples as first written: int64 labels gathered per
    chunk into a 0/1 indicator of the stack's dtype."""
    p, t = shape.p, shape.t
    k, m = btilde(sigma, p), neighbor_matrix(shape)
    stack = np.stack([k, k @ m, m @ k @ m])
    i, j = np.triu_indices(p, 1)
    pair_w = (stack + stack.transpose(0, 2, 1))[:, i, j].T
    diag = np.trace(stack, axis1=1, axis2=2)
    out = np.empty((len(labels), 3))
    for lo in range(0, len(labels), 2048):
        lab = labels[lo:lo + 2048]
        out[lo:lo + 2048] = (lab[:, i] == lab[:, j]).astype(pair_w.dtype) @ pair_w + diag
    out[:, 2] -= stack[2].sum() / t
    return out


@pytest.mark.parametrize("a,b,t", [(2, 3, 3), (2, 5, 4), (3, 3, 4)])
def test_dense_triples_equal_int64_gather_bit_for_bit(a, b, t):
    shape = Shape(a, b, t)
    pool = full_pool(shape)
    rng = np.random.default_rng(a * b * t)
    g = rng.normal(size=(shape.p, shape.p))
    sigma = GeneralCov.from_matrix(g @ g.T + shape.p * np.eye(shape.p))
    want = _int64_gather_triples(pool.labels, shape, sigma)
    assert triple_table(pool, sigma).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_triples_invariant_under_relabeling(case, rnd):
    shape, lab, sigma = case
    perm = np.array([0] + rnd.sample(range(1, shape.t + 1), shape.t))
    relabeled = perm[lab]
    assert (numerator_rows(shape, lab) == numerator_rows(shape, relabeled)).all()
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
    assert (numerator_rows(shape, lab[:, moved]) == numerator_rows(shape, lab)).all()
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
        got, den = component_numerators(shape, xi.labels, xi.weights, sigma)
        want = 0
        for row, w in zip(xi.labels, xi.weights):
            block, block_den = component_numerators(shape, row[None], [1], sigma)
            assert block_den == den
            want = want + w * block
        assert all(type(v) is int for v in got.flat)
        assert (got == want).all()


# ---------------------------------------------------------------------------
# the exact integer path against the Fraction object-matrix algebra


def _fraction_schur(c00, c01, c11):
    """C00 - C01 C11^+ C10 by Fraction elimination of the C11 block of the
    joint matrix, skipping zero pivots (the joint matrix is PSD)."""
    t = len(c11)
    joint = np.block([[c11, c01.T], [c01, c00]]).astype(object)
    for k in range(t):
        if joint[k, k] != 0:
            joint[k + 1:, k + 1:] -= np.outer(joint[k + 1:, k] / joint[k, k], joint[k, k + 1:])
    return joint[t:, t:]


def _reference_components(xi: Measure, sigma):
    """(C00, C01, C11) of a measure by explicit per-atom components O'K O,
    O'K F, F'K F (K = p I - J, F = M O) summed in Fractions."""
    shape, scale = xi.shape, bind(xi.shape, sigma).scale
    t, p = shape.t, shape.p
    k = p * np.eye(p, dtype=np.int64) - 1
    comps = np.zeros((3, t, t), dtype=object)
    for row, w in xi.items():
        inc = incidence_matrices(row)
        o, f = inc.t0, inc.f
        comps = comps + np.array([o.T @ k @ o, o.T @ k @ f, f.T @ k @ f]).astype(object) * w
    return comps * (scale / p)


def _reference_report(xi: Measure, sigma, x: Fraction, y: Fraction, tol: float = 1e-9):
    """verify_measure's four fields and verdict, by _reference_components,
    Fraction matrix algebra and closed-form triples."""
    scale, t = bind(xi.shape, sigma).scale, xi.shape.t
    c00, c01, c11 = _reference_components(xi, sigma)
    bt = np.array([[Fraction(int(i == j)) - Fraction(1, t) for j in range(t)] for i in range(t)])
    target = bt * (y / (t - 1))

    def peak(mat):
        return max(abs(v) for v in mat.reshape(-1))

    balance = peak(bt @ (c00 + x * c01) @ bt - target)
    slope = peak(bt @ (c01.T + x * c11) @ bt)
    info = peak(_fraction_schur(c00, c01, c11) - target)
    mass = sum((w for s, w in xi.items()
                if abs(scale * (c := c_coeffs_closed(s)).c00 + 2 * x * scale * c.c01
                       + x * x * scale * c.c11 - y) > tol * max(1, abs(y))), Fraction(0))
    return balance, slope, mass, info, max(balance, slope, mass, info) <= tol


def _check_against_reference(xi: Measure, sigma, x: Fraction, y: Fraction) -> str:
    report = verify_measure(xi, sigma, x, y)
    got = (report.balance_residual, report.slope_residual, report.support_mass,
           report.info_residual)
    *want, optimal = _reference_report(xi, sigma, x, y)
    for g, w in zip(got, want):
        assert type(g) is Fraction and g == w
    assert report.optimal == optimal
    return report.verdict


# ---------------------------------------------------------------------------
# the one route from identity numerators: exact values and float rows

_SMALL_X = st.fractions(-4, 4, max_denominator=50)
# an odd numerator over 2**k, k >= 30, is in lowest terms, and t v^2 >= 3 * 2**60
_BIG_X = st.one_of(st.sampled_from([Fraction(2**40 + 1, 3**30), Fraction(1, 2**30)]),
                   st.builds(lambda u, k: Fraction(2 * u + 1, 2**k),
                             st.integers(-2**70, 2**70), st.integers(30, 80)))


@st.composite
def route_rows(draw):
    """One of (2,3,3), (2,4,3) and (3,3,3) and up to eight label rows."""
    shape = Shape(*draw(st.sampled_from([(2, 3, 3), (2, 4, 3), (3, 3, 3)])))
    rows = draw(st.lists(st.lists(st.integers(1, shape.t), min_size=shape.p, max_size=shape.p),
                         min_size=1, max_size=8))
    return shape, np.array(rows, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(route_rows(), st.sampled_from([IDENTITY, TypeH(Fraction(3, 2))]), st.booleans(),
       st.data())
def test_exact_q_is_the_counting_formula(case, sigma, big, data):
    # int64 at small x, Python ints once t v^2 alone passes 2**63 / 3
    shape, labels = case
    x = data.draw(_BIG_X if big else _SMALL_X)
    scale, p, t = bind(shape, sigma).scale, shape.p, shape.t
    rows = numerator_rows(shape, labels)
    assert rows.dtype == np.int64 and not rows.flags.writeable
    q, den = exact_q(rows, shape, x.numerator, x.denominator)
    assert q.dtype == (object if big else np.int64) and type(den) is int
    for n, n00, n01, n11 in zip(q.tolist(), *closed_numerators_batch(labels, shape)):
        c00, c01, c11 = Fraction(int(n00), p), Fraction(int(n01), p), Fraction(int(n11), p * t)
        # at a bound scale a / b the value is n a / (den b), as r_eval forms it
        assert type(n) is int and Fraction(n * scale.numerator, den * scale.denominator) \
            == scale * (c00 + 2 * c01 * x + c11 * x * x)


@settings(max_examples=60, deadline=None)
@given(route_rows(), st.sampled_from([IDENTITY, TypeH(Fraction(3, 2)), TypeH(1.5)]))
def test_float_route_has_the_bits_of_triple_table(case, sigma):
    shape, labels = case
    got = scaled_rows(numerator_rows(shape, labels), shape, bind(shape, sigma).scale)
    assert got.tobytes() == triple_table(LabelPool(shape, labels), sigma).tobytes()


def _one_hot_components(shape, labels, weights, sigma=IDENTITY, exact=False):
    """summed_components' per-row route in floats: each chunk's one-hot
    components, weighted and summed."""
    assert not exact
    kern, count = _pair_kernel(shape, bind(shape, sigma))
    w = np.asarray(weights, dtype=float)
    return sum(np.tensordot(w[rows], comp, axes=1)
               for rows, comp in kern.components(labels)) * count[0], 1


@pytest.mark.parametrize("abt, n", [((2, 3, 2), 16), ((2, 3, 3), 7), ((2, 3, 4), 12),
                                    ((2, 4, 3), 78), ((3, 3, 3), 18), ((3, 3, 5), 9),
                                    ((2, 4, 8), 14)])
def test_unit_weight_sums_have_the_bits_of_the_one_hot_route(monkeypatch, abt, n):
    # an exact design's float sum is one count_sum on an integer kernel,
    # every partial sum an integer below 2**53: the per-row route's bits
    shape = Shape(*abt)
    rng = np.random.default_rng(n)
    found = [ExactDesign(shape, LabelPool(shape, rng.integers(1, shape.t + 1, (n, shape.p))))]
    if abt == (2, 4, 8):
        found.append(design_of(4, 2, 8, EFFICIENT_BLOCKS_428))
    sigmas = (IDENTITY, TypeH(Fraction(3, 2)), TypeH(0.7))
    sums = []
    real = model._PairKernel.count_sum
    monkeypatch.setattr(model._PairKernel, "count_sum",
                        lambda kern, labels: sums.append(1) or real(kern, labels))
    got = [(info_matrix_exact(d, s), efficiencies(d, s)) for d in found for s in sigmas]
    assert len(sums) == 2 * len(got)
    monkeypatch.setattr(model, "summed_components", _one_hot_components)
    want = [(info_matrix_exact(d, s), efficiencies(d, s)) for d in found for s in sigmas]
    for (info, rep), (info_want, rep_want) in zip(got, want):
        assert np.array_equal(info, info_want) and rep == rep_want


SIGMAS = [IDENTITY, TypeH(Fraction(3, 2)), TypeH(Fraction(7, 3))]


def _rational_optimum(shape: Shape, sigma):
    res = solve_closed_form(shape, sigma)
    return tuple(v if isinstance(v, Fraction) else Fraction(v).limit_denominator(10**6)
                 for v in (res.x_star, res.y_star))


@st.composite
def exact_measures(draw):
    """A shape with p <= 9 and a measure on up to six label rows (repeats
    allowed) with random integer weights over their sum, some of them 0."""
    a = draw(st.integers(2, 3))
    shape = Shape(a, draw(st.integers(a, 9 // a)), draw(st.integers(2, 5)))
    rows = draw(st.lists(st.lists(st.integers(1, shape.t), min_size=shape.p, max_size=shape.p),
                         min_size=1, max_size=6))
    nums = draw(st.lists(st.integers(0, 10**6), min_size=len(rows), max_size=len(rows)))
    nums[0] += not sum(nums)
    return Measure.from_labels(shape, np.array(rows), [Fraction(n, sum(nums)) for n in nums])


@settings(max_examples=80, deadline=None)
@given(exact_measures(), st.sampled_from(SIGMAS),
       st.sampled_from([(0, 0), (Fraction(1, 5), 0), (0, Fraction(1, 7))]))
def test_integer_verifier_matches_fraction_algebra(xi, sigma, shift):
    # at the optimum (x*, y*) of the shape, and with x* or y* moved
    x, y = _rational_optimum(xi.shape, sigma)
    _check_against_reference(xi, sigma, x + shift[0], y + shift[1])


@settings(max_examples=60, deadline=None)
@given(exact_measures(), st.sampled_from(SIGMAS))
def test_exact_information_matrix_matches_fraction_algebra(xi, sigma):
    got = info_matrix_measure(xi, sigma, exact=True)
    assert all(type(v) is Fraction for v in got.flat)
    assert (got == _fraction_schur(*_reference_components(xi, sigma))).all()


@pytest.mark.parametrize("a,b,t,blocks", [(2, 3, 2, OPTIMAL_BLOCKS_232),
                                          (4, 2, 8, EFFICIENT_BLOCKS_428)])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_exact_design_information_matrix_matches_fraction_algebra(a, b, t, blocks, sigma):
    design = design_of(a, b, t, blocks)
    want = _fraction_schur(*_reference_components(measure_of_design(design), sigma)) * design.n
    got = info_matrix_exact(design, sigma, exact=True)
    assert all(type(v) is Fraction for v in got.flat)
    assert (got == want).all()


@pytest.mark.parametrize("a,b,t,blocks", [(2, 3, 2, OPTIMAL_BLOCKS_232),
                                          (4, 2, 8, EFFICIENT_BLOCKS_428)])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_integer_verifier_on_design_files(a, b, t, blocks, sigma):
    xi = measure_of_design(design_of(a, b, t, blocks))
    x, y = _rational_optimum(xi.shape, sigma)
    verdicts = [_check_against_reference(xi, sigma, x + dx, y + dy)
                for dx, dy in ((0, 0), (Fraction(1, 5), 0), (0, Fraction(1, 7)))]
    assert verdicts == (["optimal"] + ["not optimal"] * 2 if t == 2 else ["not optimal"] * 3)


@pytest.mark.parametrize("shape", [Shape(2, 3, 2), Shape(2, 2, 3), Shape(2, 3, 4)])
def test_integer_verifier_on_closed_form_measures(shape):
    for sigma in SIGMAS[:2]:
        res = solve_closed_form(shape, sigma)
        assert _check_against_reference(res.measure, sigma, res.x_star, res.y_star) == "optimal"
        _check_against_reference(res.measure, sigma, res.x_star, res.y_star * 2)


def _support_rows(shape: Shape, x: Fraction, y: Fraction) -> np.ndarray:
    """Every array of the shape with q(x) = y, by the counting formula."""
    t, p = shape.t, shape.p
    lab = np.array(list(itertools.product(range(1, t + 1), repeat=p)))
    n00, n01, n11 = closed_numerators_batch(lab, shape)
    (u, v), (m, e) = Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio()
    return lab[e * (t * v * v * n00 + 2 * t * u * v * n01 + u * u * n11) == m * p * t * v * v]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3, 2), (2, 2, 3), (2, 3, 3)]), st.booleans(), st.data())
def test_verdict_is_the_information_target(abt, with_optimal, data):
    # exact designs over every array on which q(x*) = y*, at the closed-form (x*, y*)
    shape = Shape(*abt)
    res = solve_closed_form(shape)
    support = _support_rows(shape, res.x_star, res.y_star)
    picks = data.draw(st.lists(st.integers(0, len(support) - 1), min_size=1, max_size=6))
    blocks = [BlockArray.from_colex(shape, tuple(int(v) for v in support[k])) for k in picks]
    if with_optimal and abt == (2, 3, 2):
        blocks = list(design_of(2, 3, 2, OPTIMAL_BLOCKS_232).blocks) * len(blocks) + blocks[1:]
    design = ExactDesign(shape, tuple(blocks))
    x, y, t = res.x_star, res.y_star, shape.t
    report = verify_measure(measure_of_design(design), IDENTITY, x, y)
    bt = np.array([[Fraction(int(i == j)) - Fraction(1, t) for j in range(t)] for i in range(t)])
    on_target = (info_matrix_exact(design, exact=True) / design.n == bt * (y / (t - 1))).all()
    assert report.optimal == on_target
    if report.balance_residual == 0 and report.support_mass == 0:
        # given balance and support, the one-sided slope decides
        (_, n01, n11), _ = component_numerators(shape, label_matrix(design.blocks),
                                                [1] * design.n)
        assert on_target == ((n01.T + x * n11) @ bt == 0).all()


@pytest.mark.parametrize("x", [Fraction(2**40 + 1, 3**30), Fraction(1, 2**30)])
def test_exact_support_test_past_int64(x):
    # the q numerators at x* pass int64 (at 1/2**30 their weights do not):
    # the support mass and the verdict against per-row Fractions of the
    # counting formula, at y* touching some rows or none
    shape, sigma = Shape(2, 3, 3), TypeH(Fraction(3, 2))
    rows = np.random.default_rng(7).integers(1, shape.t + 1, size=(6, shape.p))
    xi = Measure.from_labels(shape, rows, [Fraction(k, 21) for k in range(1, 7)])
    p, t, scale = shape.p, shape.t, bind(shape, sigma).scale
    assert exact_q(xi.numerator_rows(), shape, x.numerator, x.denominator)[0].dtype == object
    q = [scale * (Fraction(int(a), p) + 2 * x * Fraction(int(b), p) + x * x * Fraction(int(c), p * t))
         for a, b, c in zip(*closed_numerators_batch(xi.labels, shape))]
    for y in (q[0], q[0] + Fraction(1, 3**30), max(q), Fraction(2**40 + 3, 3**30)):
        report = verify_measure(xi, sigma, x, y)
        mass = sum((Fraction(n, xi.denominator) for n, qk in zip(xi.weights, q)
                    if abs(qk - y) > 1e-9 * max(1, abs(y))), Fraction(0))
        assert type(report.support_mass) is Fraction and report.support_mass == mass
        assert report.optimal == _reference_report(xi, sigma, x, y)[-1]


@settings(max_examples=80, deadline=None)
@given(route_rows(), st.sampled_from([IDENTITY, TypeH(Fraction(3, 2))]), _SMALL_X,
       st.fractions(-1, 1, max_denominator=60), st.data())
def test_exact_support_decision_is_the_fraction_comparison(case, sigma, x, shift, data):
    # the exact verifier weighs each row's miss of y* against the float
    # tol |y*| in integers: every decision must be abs(q - y) > tol * abs(y)
    # on Fractions, also where tol |y*| is a miss's float or the float on
    # either side of it; weights 2^k / (2^N - 1) make the mass name its rows
    shape, labels = case
    scale, p, t = bind(shape, sigma).scale, shape.p, shape.t
    xi = Measure.from_labels(shape, labels, [Fraction(2**k, 2**len(labels) - 1)
                                             for k in range(len(labels))])
    q = [scale * (Fraction(int(a), p) + 2 * x * Fraction(int(b), p) + x * x * Fraction(int(c), p * t))
         for a, b, c in zip(*closed_numerators_batch(xi.labels, shape))]
    y = data.draw(st.sampled_from(q)) + shift or Fraction(1, 7)
    miss = abs(data.draw(st.sampled_from(q)) - y)
    edge = float(miss) / abs(y)
    for tol in (edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf), 0.0, GAP_TOL):
        report = verify_measure(xi, sigma, x, y, tol)
        mass = sum((Fraction(n, xi.denominator) for n, qk in zip(xi.weights, q)
                    if abs(qk - y) > tol * abs(y)), Fraction(0))
        assert type(report.support_mass) is Fraction and report.support_mass == mass
        worst = max(report.balance_residual, report.slope_residual, report.info_residual)
        assert report.optimal == (worst <= tol * abs(y) and report.support_mass <= tol)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.data())
def test_exact_schur_complement_matches_fraction_elimination(t, data):
    # joint = G'G is PSD; zero column sums in each half of G give C11 1 = 0
    # (so C11 is singular) and C00 1 = C10 1 = 0, as in every component sum
    rank = data.draw(st.integers(1, 2 * t))
    g = np.array(data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=2 * t, max_size=2 * t),
                                    min_size=rank, max_size=rank)), dtype=np.int64)
    if data.draw(st.booleans()):
        g[:, data.draw(st.integers(0, t - 2))] = 0  # a zero row and column in C11
    g[:, t - 1] = -g[:, :t - 1].sum(axis=1)
    g[:, -1] = -g[:, t:-1].sum(axis=1)
    den = data.draw(st.integers(1, 50))
    nums = g.T @ g  # int64: den times the joint matrix
    joint = np.array([[Fraction(int(v), den) for v in row] for row in nums], dtype=object)
    c11, c01, c00 = joint[:t, :t], joint[t:, :t], joint[t:, t:]
    assert all(sum(row) == 0 for row in c11)
    num, pivot = schur_numerators(nums[t:, t:], nums[t:, :t], nums[:t, :t])
    assert all(type(v) is int for v in num.flat) and pivot > 0
    got = num * Fraction(1, pivot * den)
    assert all(type(v) is Fraction for v in got.flat)
    assert (got == _fraction_schur(c00, c01, c11)).all()


def _expanded(shape: Shape, pairs) -> Measure:
    """from_labels on every orbit member, each at its orbit weight over the orbit size."""
    rows, weights = [], []
    for o, w in pairs:
        members = list(orbit_members(o.representative))
        rows += [s.colex for s in members]
        weights += [(w if isinstance(w, float) else Fraction(w)) / o.size] * len(members)
    return Measure.from_labels(shape, np.array(rows), weights)


def _same_measure(got: Measure, want: Measure) -> None:
    # the orbit measure's expansion is the expanded atom measure, bit for bit
    labels, weights = got.atoms()
    assert labels.tolist() == want.labels.tolist() and len(got) == len(want)
    assert not got.labels.flags.writeable
    assert got.is_exact() == want.is_exact()
    atoms = Measure.from_labels(got.shape, labels, weights)
    assert atoms.denominator == want.denominator
    if want.is_exact():
        assert atoms.weights == want.weights and all(type(n) is int for n in atoms.weights)
        assert all(type(n) is int for n in (*got.weights, got.denominator))
    else:
        assert np.array(weights).tobytes() == want.weights.tobytes()
    assert got.items() == want.items() and got.to_json() == want.to_json()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6), st.integers(0, 10**6)),
                min_size=1, max_size=6), st.booleans())
def test_orbit_measure_equals_expanded_atoms(picks, floats):
    shape = Shape(2, 3, 3)
    pool = full_pool(shape)
    pairs = []
    for k, member, w in picks:
        members = list(orbit_members(pool[k % len(pool)]))
        rep = members[member % len(members)]  # any member stands for its orbit
        pairs.append((Orbit(rep, orbit_size(rep)), w))
    total = sum(w for _, _, w in picks)
    if not total:
        with pytest.raises(ValueError, match="positive weight"):
            Measure.from_orbit_weights(shape, pairs)
        return
    pairs = [(o, w / total if floats else Fraction(w, total)) for o, w in pairs]
    _same_measure(Measure.from_orbit_weights(shape, pairs), _expanded(shape, pairs))


def test_orbit_measure_merges_repeats_at_first_positive_weight():
    shape = Shape(2, 3, 3)
    a, b, c = (Orbit(s, orbit_size(s)) for s in list(full_pool(shape))[2:5])
    for pairs in (
        [(a, Fraction(1, 3)), (b, 0), (a, Fraction(1, 6)), (c, Fraction(1, 2))],
        [(a, 0), (b, Fraction(1, 2)), (a, Fraction(1, 2))],  # a's atoms after b's
        [(a, Fraction(1, 4)), (b, 0.5), (c, Fraction(1, 4))],  # one float: a float measure
    ):
        _same_measure(Measure.from_orbit_weights(shape, pairs), _expanded(shape, pairs))
    with pytest.raises(ValueError, match="nonnegative"):
        Measure.from_orbit_weights(shape, [(a, Fraction(3, 2)), (b, Fraction(-1, 2))])
    with pytest.raises(ValueError, match="expected exactly 1"):
        Measure.from_orbit_weights(shape, [(a, Fraction(1, 2)), (a, Fraction(1, 3))])


def test_large_float_orbit_measure_sums_to_one():
    # (2,4,8)'s closed-form weights are floats over 60,480 atoms: a running
    # sum of them is off by 1.1e-12, past the 1e-12 check
    shape = Shape(2, 4, 8)
    pairs = solve_closed_form(shape).orbit_weights
    assert all(isinstance(w, float) for _, w in pairs)
    labels, weights = Measure.from_orbit_weights(shape, pairs).atoms()
    assert len(labels) == sum(o.size for o, _ in pairs) == 60480
    assert abs(sum(weights) - 1.0) > 1e-12
    xi = Measure.from_labels(shape, labels, weights)  # _fill checks the total by fsum
    assert xi.weights.sum() == pytest.approx(1.0, abs=1e-15)


ORBIT_SHAPES = [Shape(2, 3, 3), Shape(3, 3, 3), Shape(2, 2, 4), Shape(2, 4, 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORBIT_SHAPES), st.sampled_from(SIGMAS[:2]), st.booleans(),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 10**6)), min_size=1, max_size=4),
       st.fractions(-2, 2, max_denominator=50), st.fractions(0, 20, max_denominator=50))
def test_orbit_measure_reads_as_its_atoms(shape, sigma, floats, picks, x, y):
    # the S_t average of the representatives' components against the sum
    # over every member: exact residuals equal, float ones within rounding
    pool = full_pool(shape)
    total = sum(w for _, w in picks)
    pairs = [(Orbit(pool[k % len(pool)], orbit_size(pool[k % len(pool)])),
              w / total if floats else Fraction(w, total)) for k, w in picks]
    xi = Measure.from_orbit_weights(shape, pairs)
    atoms = Measure.from_labels(shape, *xi.atoms())
    assert len(xi.labels) == len(xi.orbit_sizes) < len(xi) == len(atoms)
    assert xi.items() == atoms.items() and xi.to_json() == atoms.to_json()
    got, want = verify_measure(xi, sigma, x, y), verify_measure(atoms, sigma, x, y)
    fields = ("balance_residual", "slope_residual", "support_mass", "info_residual")
    for g, w in ((getattr(got, f), getattr(want, f)) for f in fields):
        if floats:
            assert abs(g - w) <= REL * max(1.0, abs(w))
        else:
            assert type(g) is Fraction and g == w
    assert floats or got.optimal == want.optimal
    for exact in (False,) if floats else (False, True):
        g, w = info_matrix_measure(xi, sigma, exact), info_matrix_measure(atoms, sigma, exact)
        assert (g == w).all() if exact else _close(g, w)


@pytest.mark.parametrize("abt", [(2, 3, 4), (3, 3, 3), (2, 2, 3), (2, 3, 5)])
@pytest.mark.parametrize("sigma", SIGMAS[:2], ids=["identity", "type-h-3/2"])
def test_orbit_measure_is_read_off_its_triple(monkeypatch, abt, sigma):
    # a symmetric measure's components are fixed by its triple, so neither
    # a component sum nor an exact Schur elimination runs; (2,3,5) crosses
    # at an irrational x*, so it is read in floats
    def refuse(*args, **kwargs):
        raise AssertionError("an orbit measure's components were summed")
    for module in (model, optimality):
        monkeypatch.setattr(module, "summed_components", refuse)
        monkeypatch.setattr(module, "schur_numerators", refuse)
    shape, exact = Shape(*abt), abt != (2, 3, 5)
    res = solve_closed_form(shape, sigma)
    assert isinstance(res.x_star, Fraction) == exact
    report = verify_measure(res.measure, sigma, res.x_star, res.y_star)
    assert report.optimal
    residuals = (report.balance_residual, report.slope_residual, report.info_residual)
    if exact:
        assert all(type(r) is Fraction and r == 0 for r in residuals)
    else:
        assert max(residuals) <= 1e-12 * res.y_star
    t = shape.t
    info = info_matrix_measure(res.measure, sigma, exact)
    if exact:  # the optimum's information matrix is y*/(t-1) B_t
        assert (info == (t * np.eye(t, dtype=np.int64) - 1) * (res.y_star / (t * (t - 1)))).all()
    else:
        assert _close(info, centering_projector(t) * (res.y_star / (t - 1)))


@pytest.mark.parametrize("abt", [(2, 3, 3), (3, 3, 3), (2, 5, 4)])
def test_triples_invariant_under_grid_symmetries(abt):
    # the neighbor matrix is fixed by every symmetry of the grid, and
    # K = pI - J by every plot permutation, so every orbit keeps its row
    shape = Shape(*abt)
    a, b = shape.a, shape.b
    lab = full_pool(shape).labels
    i, j = np.arange(shape.p) % a, np.arange(shape.p) // a
    # plot i + a j of the image holds the label of plot moved[i + a j]
    moves = {"column flip": i + a * (b - 1 - j), "row flip": a - 1 - i + a * j,
             "180-degree rotation": a - 1 - i + a * (b - 1 - j)}
    if a == b:
        moves["transposition"] = j + a * i
    rows = numerator_rows(shape, lab)
    for name, moved in moves.items():
        assert np.array_equal(numerator_rows(shape, lab[:, moved]), rows), name


@pytest.mark.parametrize("t", [*range(2, 21), 127, 128])
def test_narrow_labels_read_as_their_int64_copy(t):
    # every reader takes a label_dtype(t) matrix as it is: from t = 16 an
    # unwidened label * t index wraps int8, and at 128 int8 gives way to int16
    rng = np.random.default_rng(t)
    for shape in (Shape(2, 3, t), Shape(3, 3, t)):
        wide = rng.integers(1, t + 1, size=(12, shape.p))
        narrow = wide.astype(label_dtype(t))
        assert narrow.dtype == (np.int8 if t <= 127 else np.int16)
        m = rng.normal(size=(shape.p, shape.p))
        dense = GeneralCov.from_matrix(m @ m.T + shape.p * np.eye(shape.p))
        for kern in (_shape_kernel(shape), _pair_kernel(shape, bind(shape, dense))[0]):
            assert np.array_equal(kern.triples(narrow), kern.triples(wide))
            assert np.array_equal(kern.count_sum(narrow), kern.count_sum(wide))
            for (rows, got), (_, want) in zip(kern.components(narrow), kern.components(wide)):
                assert np.array_equal(got, want), rows
        assert np.array_equal(numerator_rows(shape, narrow), numerator_rows(shape, wide))
        for got, want in zip(classify_labels(shape, narrow), classify_labels(shape, wide)):
            assert np.array_equal(got, want)
        assert np.array_equal(canonical_labels(narrow), canonical_labels(wide))
        for got, want in zip(group_rows(narrow), group_rows(wide)):
            assert np.array_equal(got, want)
