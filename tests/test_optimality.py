"""Minimax solves, measures, support sets, verification, exchange."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fielddesign.arrays as arrays
import fielddesign.model as model
import fielddesign.optimality as optimality
from fielddesign.designs import expand_symmetric, min_n_symmetric
from fielddesign.arrays import (
    EnumerationBudgetError,
    Orbit,
    Shape,
    canonical_form,
    classify_labels,
    enumerate_label_matrix,
    label_matrix,
    orbit_members,
    orbit_size,
)
from fielddesign.model import (
    IDENTITY,
    GeneralCov,
    TypeH,
    component_numerators,
    schur_numerators,
    triple_table,
)
from fielddesign.optimality import (
    LabelPool,
    Measure,
    balanced_clustered,
    balanced_no_adjacent,
    class_representative,
    equivalence_gap,
    fan_classes,
    full_pool,
    measure_triple,
    q_eval,
    q_star,
    r_eval,
    solve_closed_form,
    solve_exchange,
    solve_sbs_proportions,
    support_pool,
    verify_measure,
)

from .conftest import (
    CLUSTERED_ROWS_232,
    LANGTON_SQUARE,
    SBS_ROWS_2X3,
    SPREAD_ROWS_232,
    array_of,
)
from .reference_model import c11_base, c_coeffs_closed, closed_numerators_batch, info_matrix_measure

X_KINK_2B = (2 - math.sqrt(3)) / 2       # root of 4x^2 - 8x + 1
X_KINK_33 = (13 - math.sqrt(145)) / 12   # root of 6x^2 - 13x + 1

# shape -> (x*, y*, regime, support class names or "balanced")
CLOSED_FORM_TABLE = {
    (2, 2, 2): (Fraction(0), Fraction(2), "t<=p-2", "balanced"),
    (2, 2, 3): (Fraction(1, 2), Fraction(2), "t=p-1, a=b=2", ["Q1*", "Q2*"]),
    (2, 2, 4): (Fraction(1, 2), Fraction(2), "t>=p, a=b=2", ["Q0", "Q1*", "Q2*"]),
    (2, 2, 5): (Fraction(1, 2), Fraction(2), "t>=p, a=b=2", ["Q0", "Q1*", "Q2*"]),
    (2, 3, 3): (Fraction(0), Fraction(4), "t<=p-2", "balanced"),
    (2, 3, 4): (Fraction(0), Fraction(13, 3), "t<=p-2", "balanced"),
    (2, 3, 5): (X_KINK_2B, 4.519575369938437, "t=p-1, a=2,b>=3", ["Q1*", "Q2*"]),
    (2, 3, 6): (X_KINK_2B, 4.520373111824266, "t>=p, a=2,b>=3",
                ["Q0", "Q1*", "Q2*"]),
    (3, 3, 7): (Fraction(0), Fraction(68, 9), "t<=p-2", "balanced"),
    (3, 3, 8): (X_KINK_33, 7.675747765362892, "t=p-1, a>=3",
                ["Q1", "Q2", "Q3", "Q4"]),
    (3, 3, 9): (X_KINK_33, 7.676102140729944, "t>=p, a>=3",
                ["Q0", "Q1", "Q2", "Q3", "Q4"]),
    (3, 3, 10): (X_KINK_33, 7.676385641023586, "t>=p, a>=3",
                 ["Q0", "Q1", "Q2", "Q3", "Q4"]),
}


@pytest.mark.parametrize("abt", sorted(CLOSED_FORM_TABLE))
def test_closed_form_frozen_values(abt):
    x_want, y_want, regime, classes = CLOSED_FORM_TABLE[abt]
    res = solve_closed_form(Shape(*abt))
    assert res.regime == regime
    assert abs(float(res.x_star) - float(x_want)) < 1e-12
    assert abs(float(res.y_star) - float(y_want)) < 1e-12
    if isinstance(y_want, Fraction):
        assert res.x_star == x_want and res.y_star == y_want  # exact path
    if classes == "balanced":
        assert res.q_support.kind == "balanced"
    else:
        assert list(res.q_support.names) == classes


# every regime: t <= p-2, the vertex branch (2,4,7), (3,4,11), ..., all
# of 2x2, and the class crossing for a = 2 and for a >= 3, (3,3,8),
# (3,3,9) and (3,4,12) among them
SWEEP_SHAPES = [Shape(a, b, t) for a in (2, 3, 4) for b in range(a, 6)
                for t in range(max(2, a * b - 3), a * b + 3)]


def test_closed_form_sweep_digest():
    # digest recorded before the closed form's formulas were deduplicated
    digest = hashlib.sha256()
    regimes = set()
    for shape in SWEEP_SHAPES:
        for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
            res = solve_closed_form(shape, sigma)
            regimes.add(res.regime)
            digest.update(repr((
                repr(res.x_star), repr(res.y_star), res.regime, res.q_support.describe(),
                [(o.representative.colex, o.size, repr(w)) for o, w in res.orbit_weights],
            )).encode())
    assert len(regimes) == 7
    assert digest.hexdigest() == \
        "c5c01680f117ff15f17b1d0cd93029f57b26760103035390b0c7a2bf26ce47b1"


# every shape with a <= 5, a <= b <= 7, p <= 30 and 2 <= t <= p + 3
WIDE_SWEEP_SHAPES = [Shape(a, b, t) for a in range(2, 6) for b in range(a, 8) if a * b <= 30
                     for t in range(2, a * b + 4)]


def test_closed_form_wide_sweep_digest():
    # digest recorded while the closed form solved its regimes by hand-derived
    # formulas, before it read the envelope of its representatives' rows
    digest = hashlib.sha256()
    for shape in WIDE_SWEEP_SHAPES:
        res = solve_closed_form(shape)
        digest.update(repr((
            shape.a, shape.b, shape.t, repr(res.x_star), type(res.x_star).__name__,
            repr(res.y_star), type(res.y_star).__name__, res.regime, res.q_support.describe(),
            [(o.representative.colex, o.size, repr(w)) for o, w in res.orbit_weights],
        )).encode())
    assert len(WIDE_SWEEP_SHAPES) == 306
    assert digest.hexdigest() == \
        "28d44f900f67dff6897c9bdfce648c05dd029a306c1cf9d2e87af825c3187188"


# the benchmark's certify shapes whose closed form keeps its measure
CERTIFIED_SHAPES = [Shape(*abt) for abt in ((2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5),
                                            (2, 5, 4), (2, 4, 6), (2, 4, 7), (2, 3, 5), (2, 3, 6),
                                            (2, 2, 3))]


def test_certificate_values_and_types_digest():
    # digest recorded before exact certificates were carried as integer
    # ratios: each value and type of the verification report, measure_triple,
    # q_star, the equivalence gap, min_n_symmetric and (up to 20,000 blocks)
    # the labels expand_symmetric gives; exact wherever x* is rational
    digest = hashlib.sha256()
    for shape in CERTIFIED_SHAPES:
        for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
            res = solve_closed_form(shape, sigma)
            report = verify_measure(res.measure, sigma, res.x_star, res.y_star)
            values = [*report[:4], *measure_triple(res.measure, sigma), *q_star(res.measure, sigma),
                      equivalence_gap(res.measure, full_pool(shape), sigma)]
            assert {type(v) for v in values} == {type(res.x_star)}, shape
            least = min_n_symmetric(res.orbit_weights)
            assert type(least.n) is int and type(least.pseudo_symmetric) in (int, type(None))
            design = expand_symmetric(res.orbit_weights, least.n) if least.n <= 20_000 else None
            digest.update(repr((
                [(type(v).__name__, v.hex() if isinstance(v, float) else repr(v)) for v in values],
                report.tolerance, report.optimal, tuple(least),
                design and hashlib.sha256(design.blocks.labels.tobytes()).hexdigest())).encode())
    assert digest.hexdigest() == \
        "a9615dc0d27e256d30dc51caedaf3524a6a624bdfb62cc551fe456aed2be733d"


def test_vertex_branch_exact_values():
    res = solve_closed_form(Shape(2, 4, 7))
    assert (res.x_star, res.y_star) == (Fraction(14, 171), Fraction(4561, 684))
    assert list(res.q_support.names) == ["Q1*"]
    res = solve_closed_form(Shape(3, 4, 11))
    assert (res.x_star, res.y_star) == (Fraction(165, 3166),
                                        Fraction(409105, 37992))
    assert list(res.q_support.names) == ["Q1"]


def test_type_h_scales_y_star_only():
    base = solve_closed_form(Shape(2, 3, 4))
    scaled = solve_closed_form(Shape(2, 3, 4), TypeH(Fraction(3, 2)))
    assert scaled.x_star == base.x_star
    assert scaled.y_star == base.y_star * Fraction(2, 3)


def test_closed_form_rejects_general_covariance():
    rho = [[0.3 ** abs(i - j) for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError):
        solve_closed_form(Shape(2, 3, 2), GeneralCov.from_matrix(rho))


def _fan_triple(shape, doubles):
    # the corner-double classes' triples by hand: a base and a per-double step
    a, b, p = shape.a, shape.b, shape.p
    eta = c11_base(shape)
    base = (
        Fraction(p - 1),
        -Fraction(4 * p - 2 * a - 2 * b, p),
        eta - Fraction(16 * p - 14 * a - 14 * b + 8, p),
    )
    if a == 2:
        step = (-Fraction(2, p), Fraction(2) - Fraction(2, b), -Fraction(4, b))
    else:
        step = (-Fraction(2, p), Fraction(2 * p - 5, p), -Fraction(12, p))
    i = doubles
    return (base[0] + i * step[0], base[1] + i * step[1], base[2] + i * step[2])


def test_fan_triples_match_counting_path():
    # three routes to a class's triple: the base and step above, the pair
    # kernel's numerator rows, and the paper's counting formula
    count = 0
    for shape in WIDE_SWEEP_SHAPES:
        if shape.t < shape.p - 1:
            continue
        units = (Fraction(1, shape.p),) * 2 + (Fraction(1, shape.p * shape.t),)
        for cls in fan_classes(shape):
            rep = class_representative(shape, cls.doubles)
            rows = model.numerator_rows(shape, label_matrix([rep]))[0].tolist()
            kernel = tuple(n * u for n, u in zip(rows, units))
            assert kernel == _fan_triple(shape, cls.doubles) == c_coeffs_closed(rep).astuple(), \
                (shape, cls.name)
            count += 1
    assert count == 348


def _twelfths(lo, hi):
    return st.integers(lo, hi).map(lambda n: Fraction(n, 12))


# c11 >= 0, and c11 = 0 only on a flat row, as on every array: the envelope
# is bounded below, and every vertex lies in [-16, 16]
_ROWS = st.lists(st.tuples(_twelfths(-48, 48), _twelfths(-48, 48),
                           st.one_of(st.just(Fraction(0)), _twelfths(3, 48)))
                 .map(lambda c: c if c[2] else (c[0], Fraction(0), c[2])), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(_ROWS)
def test_envelope_min_is_the_least_envelope_value(rows):
    x, y, tied = optimality._envelope_min(rows)
    exact = isinstance(x, Fraction)
    slack = 0 if exact else 1e-12 * max(1.0, abs(y))
    at_x = [q_eval(c if exact else tuple(map(float, c)), x) for c in rows]
    assert all(q <= y + slack for q in at_x) and at_x[tied.index(True)] == y
    if exact:
        assert tied == [q == y for q in at_x]
    for k in range(-32, 33):
        assert y <= max(q_eval(c, Fraction(k, 2)) for c in rows) + slack


# (rows, x*, y*, tied): the type of x* is checked with its value
ENVELOPE_CASES = {
    # (2,2,2)'s balanced arrays: both reach y* = 2 on [0, 1], and 0 is nearest 0
    "flat-222": ([(2, 0, 0), (2, -4, 8)], Fraction(0), Fraction(2), [True, True]),
    # a flat row on top over [1, 3], away from 0: the crossing 1, not the vertex 2
    "plateau": ([(1, 0, 0), (4, -2, 1)], Fraction(1), Fraction(1), [True, True]),
    "plateau-mirrored": ([(1, 0, 0), (4, 2, 1)], Fraction(-1), Fraction(1), [True, True]),
    # (2,2,3)'s classes touch at the vertex 1/2: discriminant 0
    "tangent-223": ([(Fraction(5, 2), -1, 2), (2, 0, 0)], Fraction(1, 2), Fraction(2),
                    [True, True]),
    # a crossing at 1/2 that is no row's vertex: discriminant (5/3)^2
    "square-crossing": ([(0, 0, 1), (Fraction(3, 2), Fraction(-7, 4), 2)], Fraction(1, 2),
                        Fraction(1, 4), [True, True]),
    # a single row: its vertex
    "one-row": ([(3, -1, 2)], Fraction(1, 2), Fraction(5, 2), [True]),
}


@pytest.mark.parametrize("case", ENVELOPE_CASES)
def test_envelope_min_hand_cases(case):
    rows, x_want, y_want, tied_want = ENVELOPE_CASES[case]
    x, y, tied = optimality._envelope_min([tuple(map(Fraction, c)) for c in rows])
    assert (type(x), x, type(y), y, tied) == (Fraction, x_want, Fraction, y_want, tied_want)


def test_envelope_min_irrational_crossing_keeps_the_float_bits():
    # (2,3,5)'s classes Q1* and Q2*: their difference is 1 + B x + A x^2 up to scale
    rows = [(Fraction(14, 3), Fraction(-1), Fraction(101, 15)),
            (Fraction(13, 3), Fraction(1, 3), Fraction(27, 5))]
    A, B = Fraction(4), Fraction(-8)
    x, y, tied = optimality._envelope_min(rows)
    assert type(x) is float and x == (-B - math.sqrt(B * B - 4 * A)) / (2 * A)
    assert y == q_eval(tuple(map(float, rows[0])), x) and tied == [True, True]


def test_balanced_arrays_bracket_zero_slope():
    # the no-adjacent array has z1 = 0, so c01 = -h1/p < 0, and the
    # clustered one never has a negative slope at 0: the two always mix
    # into the balanced measure with slope 0 at x* = 0
    shapes = [Shape(a, b, t) for a in range(2, 7) for b in range(a, 36 // a + 1)
              for t in range(2, a * b - 1)]
    assert len(shapes) == 736
    for shape in shapes:
        lab = label_matrix([balanced_no_adjacent(shape), balanced_clustered(shape)])
        _, n01, _ = closed_numerators_batch(lab, shape)
        assert n01[0] < 0 <= n01[1], shape


def test_class_representative_sweep_digest():
    # digest recorded while the a >= 3 placements were a hand-written list
    digest, count = hashlib.sha256(), 0
    for a in range(2, 7):
        for b in range(a, 9):
            for t in range(a * b - 1, a * b + 3):
                for doubles in range(3 if a == 2 else 5):
                    try:
                        s = class_representative(Shape(a, b, t), doubles)
                    except ValueError:  # the class needs more than t labels
                        continue
                    count += 1
                    digest.update(repr((a, b, t, doubles, s.colex)).encode())
    assert count == 419
    assert digest.hexdigest() == \
        "17b9c31ad4f26c3c4470fa893fe7a6abc4c8cf14f2bc22d36732ed1f4fb49dab"


def test_class_representatives_classify_back():
    shape = Shape(3, 4, 11)
    for i in (1, 2, 3, 4):
        rep = class_representative(shape, i)
        assert classify_labels(shape, [rep.colex]).q_index.tolist() == [i]


def test_measure_weight_validation():
    s = array_of(2, 3, 2, SPREAD_ROWS_232)
    with pytest.raises(ValueError):
        Measure(s.shape, {s: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Measure(s.shape, {s: 0.5})
    Measure(s.shape, {s: Fraction(1)})  # fine


def test_measure_from_labels_merges_rows_at_first_appearance():
    shape = Shape(2, 3, 2)
    rows = [[1, 1, 2, 2, 1, 2], [1, 2, 1, 2, 1, 2], [1, 1, 2, 2, 1, 2], [2, 2, 2, 2, 2, 1]]
    xi = Measure.from_labels(shape, rows, [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0])
    assert xi.labels.tolist() == rows[:2] and not xi.labels.flags.writeable
    assert xi.weights == (1, 1) and xi.denominator == 2 and xi.is_exact()
    # one float weight makes the whole measure float, summed in row order
    xi = Measure.from_labels(shape, rows[:3], [0.25, Fraction(1, 2), 0.25])
    assert xi.denominator is None and xi.weights.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="one weight per row"):
        Measure.from_labels(shape, rows, [1])
    with pytest.raises(ValueError, match="expected exactly 1"):
        Measure.from_labels(shape, rows[:2], [Fraction(1, 2), Fraction(1, 3)])


def test_orbit_measure_atoms_run_orbit_by_orbit():
    res = solve_closed_form(Shape(2, 3, 4))
    xi = res.measure
    members = [m for o, _ in res.orbit_weights for m in orbit_members(o.representative)]
    assert [s for s, _ in xi.items()] == members
    assert [w for _, w in xi.items()] == [
        w / o.size for o, w in res.orbit_weights for _ in range(o.size)]


def test_closed_form_measure_keeps_one_row_per_orbit():
    res = solve_closed_form(Shape(2, 4, 7))
    xi = res.measure
    assert xi.labels.shape == (1, 8) and xi.orbit_sizes == (5040,)
    assert (xi.weights, xi.denominator) == ((1,), 1) and len(xi) == 5040


def test_float_orbit_share_that_underflows_lists_no_atoms():
    # 5e-324 / 6 rounds to 0.0: the orbit stays, its members are not listed
    shape = Shape(2, 3, 3)
    a, b = [Orbit(s, 6) for s in full_pool(shape) if orbit_size(s) == 6][:2]
    xi = Measure.from_orbit_weights(shape, [(a, 5e-324), (b, 1 - 5e-324)])
    only_b = Measure.from_orbit_weights(shape, [(b, 1.0)])
    assert xi.orbit_sizes == (6, 6)
    assert len(xi) == len(xi.atoms()[0]) == len(xi.items()) == 6
    assert xi.items() == only_b.items() and all(w == 1 / 6 for _, w in xi.items())
    assert xi.to_json() == only_b.to_json()


def test_closed_form_solve_json_keeps_its_bytes():
    # every closed-form shape of the benchmark's certify workload, under
    # identity and type-H 3/2, as the solves printed it while their measures
    # still held one row per atom
    digest = hashlib.sha256()
    for abt in [(2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5), (2, 5, 4), (2, 4, 6),
                (2, 4, 7), (2, 3, 5), (2, 3, 6), (2, 2, 3), (2, 4, 8), (3, 3, 8), (3, 3, 9)]:
        for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
            digest.update(json.dumps(solve_closed_form(Shape(*abt), sigma).to_json()).encode())
    assert digest.hexdigest() == "76c3e0c4c0760d498ae565323bf2cd77c65128ae753f91ec513e7582493c1eef"


CERTIFY_SHAPES = [(2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5), (2, 5, 4), (2, 4, 6),
                  (2, 4, 7), (2, 3, 5), (2, 3, 6), (2, 2, 3), (2, 4, 8), (3, 3, 8), (3, 3, 9)]


def _solve_facts(res) -> tuple:
    return (json.dumps(res.to_json()).encode(),
            type(res.x_star), type(res.y_star), type(res.gap))


@pytest.mark.parametrize("float_first", [True, False])
def test_kept_closed_form_solves_like_a_cold_one(float_first):
    # TypeH(1.5) == TypeH(Fraction(3, 2)) and both hash alike: the kept
    # solve is covariance-free, so each call keeps its own exactness
    exact_h, float_h = TypeH(Fraction(3, 2)), TypeH(1.5)
    sigmas = [IDENTITY, float_h, exact_h] if float_first else [IDENTITY, exact_h, float_h]
    for abt in CERTIFY_SHAPES:
        shape = Shape(*abt)
        cold = []
        for sigma in sigmas:
            optimality._closed_form.cache_clear()
            cold.append(_solve_facts(solve_closed_form(shape, sigma)))
        optimality._closed_form.cache_clear()
        kept = [solve_closed_form(shape, sigma) for sigma in sigmas]
        assert [_solve_facts(res) for res in kept] == cold, abt
        by_sigma = {id(sigma): res for sigma, res in zip(sigmas, kept)}
        if type(by_sigma[id(IDENTITY)].y_star) is Fraction:
            assert type(by_sigma[id(exact_h)].y_star) is Fraction
            assert type(by_sigma[id(float_h)].y_star) is float


def test_closed_form_is_solved_once_per_shape_and_kept_read_only(monkeypatch):
    optimality._closed_form.cache_clear()
    built = []
    real = optimality.balanced_no_adjacent
    monkeypatch.setattr(optimality, "balanced_no_adjacent",
                        lambda shape: built.append(shape) or real(shape))
    shapes = [Shape(2, 3, 2), Shape(2, 4, 3), Shape(3, 3, 3)]
    for _ in range(3):
        for shape in shapes:
            for sigma in (IDENTITY, TypeH(1.5), TypeH(Fraction(3, 2))):
                solve_closed_form(shape, sigma)
    assert built == shapes
    first, again = solve_closed_form(shapes[0]), solve_closed_form(shapes[0], TypeH(2.0))
    assert first is not again and first.measure is again.measure
    assert first.orbit_weights is again.orbit_weights and first.q_support is again.q_support
    for abt, exact in (((2, 3, 4), True), ((2, 3, 5), False)):
        xi = solve_closed_form(Shape(*abt)).measure
        assert xi.is_exact() is exact
        kept = [xi.labels, xi.numerator_rows()]
        kept += [] if exact else [xi.weights, xi._shares]
        for arr in kept:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1
    optimality._closed_form.cache_clear()


@pytest.mark.parametrize("sigma", [IDENTITY, TypeH(Fraction(3, 2)), TypeH(1.5)],
                         ids=["identity", "type-h-exact", "type-h-float"])
@pytest.mark.parametrize("abt", [(2, 3, 4), (2, 4, 7), (2, 3, 5), (2, 2, 3)])
def test_closed_form_measure_scores_its_rows_once(monkeypatch, abt, sigma):
    # after the solve, q_star and verify_measure read the measure's kept
    # numerators and score no label row; a new measure scores its own
    shape = Shape(*abt)
    res = solve_closed_form(shape, sigma)
    fresh = Measure.from_orbit_weights(shape, res.orbit_weights)
    want = (q_star(fresh, sigma), verify_measure(fresh, sigma, res.x_star, res.y_star))
    scored = []
    real = model._PairKernel.triples
    monkeypatch.setattr(model._PairKernel, "triples",
                        lambda kern, labels: scored.append(len(labels)) or real(kern, labels))
    got = (q_star(res.measure, sigma), verify_measure(res.measure, sigma, res.x_star, res.y_star))
    assert not scored
    assert got == want
    assert [type(v) for v in got[0]] == [type(v) for v in want[0]]
    q_star(Measure.from_orbit_weights(shape, res.orbit_weights), sigma)
    assert scored == [len(res.measure.labels)]


def test_projector_sandwich_equals_the_matmul_form():
    # (t I - J) X (t I - J) from row and column sums, on Python ints past int64
    rng = np.random.default_rng(24)
    for t in range(2, 10):
        x = rng.integers(-2**62, 2**62, size=(t, t)).astype(object) * 2**40
        proj = (t * np.eye(t, dtype=np.int64) - 1).astype(object)
        got = optimality._sandwich(x)
        assert got.tolist() == (proj @ x @ proj).tolist()
        assert all(type(v) is int for v in got.ravel())


def test_single_orbit_peak_value():
    # uniform measure on the orbit of (1,1;2,3;4,5): q* = c00 - c01^2/c11
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    orbit = Orbit(canonical_form(s), orbit_size(s))
    xi = Measure.from_orbit_weights(s.shape, [(orbit, Fraction(1))])
    value, x_tilde = q_star(xi)
    assert value == Fraction(1369, 303)
    assert x_tilde == Fraction(15, 101)


def test_symmetric_orbit_measure_triple_equals_member_triple():
    # every member shares the triple, so mixing them changes nothing
    s = array_of(2, 3, 2, CLUSTERED_ROWS_232)
    members = list(orbit_members(s))
    xi = Measure(s.shape, {m: Fraction(1, len(members)) for m in members})
    assert measure_triple(xi).astuple() == c_coeffs_closed(s).astuple()


def test_r_eval_frozen_points():
    val, witness = r_eval(Fraction(0), full_pool(Shape(2, 2, 2)))
    assert val == 2 and classify_labels(witness.shape, [witness.colex]).balanced.all()
    val, witness = r_eval(Fraction(0), full_pool(Shape(2, 2, 4)))
    assert val == 3 and classify_labels(witness.shape, [witness.colex]).q_index.tolist() == [0]


def test_r_eval_exact_and_float_agree():
    pool = full_pool(Shape(2, 3, 3))
    for x in (Fraction(1, 7), Fraction(2, 5), Fraction(0)):
        exact, _ = r_eval(x, pool)
        approx, _ = r_eval(float(x), pool)
        assert abs(float(exact) - approx) < 1e-10


def test_r_eval_exact_maximum_and_earliest_witness():
    # against a per-row Fraction max of the counting formula; the x with large
    # denominators send the settle to Python integers, the others to int64
    for abt, xs in (
        ((2, 3, 3), (Fraction(123456789, 987654321), Fraction(0), Fraction(5, 17),
                     Fraction(2**40 + 1, 3**30),
                     # the weights fit in int64, their dot products do not
                     Fraction(1, 2**30), Fraction(-1, 2**30 + 1))),
        ((2, 4, 3), (Fraction(0), Fraction(2, 9), Fraction(-(2**35) - 3, 7**20))),
        ((2, 5, 4), (Fraction(0),)),  # 6,300 rows tie at the top, 312 of them distinct
    ):
        shape = Shape(*abt)
        pool = full_pool(shape)
        p, t = shape.p, shape.t
        nums = [[int(v) for v in col] for col in closed_numerators_batch(pool.labels, shape)]
        for x in xs:
            @functools.cache  # equal triples, equal values
            def value(n00, n01, n11):
                return Fraction(n00, p) + 2 * Fraction(n01, p) * x + Fraction(n11, p * t) * x * x

            values = [value(*n) for n in zip(*nums)]
            top = max(values)
            assert values.count(top) > 1  # tied rows: the earliest must win
            for sigma, scale in ((IDENTITY, 1), (TypeH(Fraction(3, 2)), Fraction(2, 3))):
                val, witness = r_eval(x, pool, sigma)
                assert type(val) is Fraction and val == top * scale
                assert witness == pool[values.index(top)]


def test_r_eval_at_optimum_equals_y_star():
    for abt in ((2, 3, 2), (2, 3, 5), (3, 3, 8)):
        shape = Shape(*abt)
        res = solve_closed_form(shape)
        val, _ = r_eval(res.x_star, full_pool(shape))
        assert abs(float(val) - float(res.y_star)) < 1e-9


@pytest.fixture
def fresh_full_pools(monkeypatch):
    """An empty full-pool cache for one test, so pools kept by earlier tests
    can hide no enumeration and no budget check."""
    monkeypatch.setattr(optimality, "_full_pools", {})


def _never_enumerate(*args):
    raise AssertionError("enumerated past the budget check")


@pytest.mark.parametrize("sigma", [IDENTITY, TypeH(Fraction(3, 2))], ids=["identity", "type-h"])
@pytest.mark.parametrize("abt", [(2, 3, 3), (2, 4, 3), (2, 5, 4)])
def test_kept_full_pool_scores_like_a_fresh_copy(fresh_full_pools, abt, sigma):
    # the kept pool reuses its distinct rows, the copy has them built for
    # each call; the Fractions with large denominators overflow int64 dot products
    shape = Shape(*abt)
    pool = full_pool(shape)
    copy = LabelPool(shape, pool.labels.copy())
    for x in (Fraction(0), Fraction(1, 2**30), Fraction(2**40 + 1, 3**30),
              Fraction(-5, 17), 0.3125, -0.2):
        kept, fresh = r_eval(x, pool, sigma), r_eval(x, copy, sigma)
        assert type(kept[0]) is type(fresh[0]) and kept == fresh, x
    assert optimality._full_pools[shape].pool is pool


def test_full_pool_is_kept_once_read_only_and_scored_lazily(fresh_full_pools):
    shape = Shape(2, 4, 3)
    pool = full_pool(shape)
    assert full_pool(shape) is pool
    solve_exchange(shape, GeneralCov.from_matrix(np.eye(shape.p)))  # reads no triples
    kept = optimality._full_pools[shape]
    assert kept.pool is pool and kept._triples is None
    r_eval(Fraction(1, 3), pool)
    rows, first, index = kept.triples()
    assert len(rows) == len(first) < len(pool) and (np.diff(first) > 0).all()
    assert index.dtype == np.int32
    assert (rows[index] == model.numerator_rows(shape, pool.labels)).all()
    for arr in (pool.labels, rows, first, index):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


# the shapes of the benchmark's certify and dense-sigma workloads
BENCHMARK_SHAPES = [(2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5), (2, 5, 4), (2, 4, 6),
                    (2, 4, 7), (2, 3, 5), (2, 3, 6), (2, 2, 3), (2, 4, 8), (3, 3, 8), (3, 3, 9),
                    (2, 3, 3), (3, 3, 4)]


def _check_kept_table(pool, unit, record):
    """record is (rows, first, index) of the pool's unit-scale triple_table:
    rows[index] has its bytes, first[k] is the least pool row equal to
    rows[k], bytes compared, the rows are distinct, and all three arrays
    refuse writes."""
    rows, first, index = record
    full = triple_table(pool, model.BoundCov(1.0, unit))
    assert index.dtype == np.int32 and len(index) == len(pool)
    assert rows[index].tobytes() == full.tobytes()
    least = {}
    for k, row in enumerate(full):
        least.setdefault(row.tobytes(), k)
    assert first.tolist() == [least[row.tobytes()] for row in rows] == sorted(least.values())
    for arr in record:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


@pytest.mark.parametrize("abt", BENCHMARK_SHAPES)
def test_kept_numerator_table_is_the_triple_table(fresh_full_pools, abt):
    shape = Shape(*abt)
    pool = full_pool(shape)
    kept = optimality._full_pools[shape]
    _check_kept_table(pool, None, kept.table())
    assert kept.table()[2] is kept.triples()[2]


def test_certify_then_solve_scores_the_kept_rows_once(fresh_full_pools, monkeypatch):
    # the certificate and the solve read one (rows, first, index) record
    shape = Shape(2, 4, 3)
    pool, scored = full_pool(shape), []
    real = optimality.numerator_rows
    monkeypatch.setattr(optimality, "numerator_rows",
                        lambda s, labels: scored.append(labels is pool.labels) or real(s, labels))
    for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
        res = solve_closed_form(shape, sigma)
        assert verify_measure(res.measure, sigma, res.x_star, res.y_star).optimal
        assert equivalence_gap(res.measure, full_pool(shape), sigma) == 0
        r_eval(Fraction(1, 7), full_pool(shape), sigma)
    record = optimality._full_pools[shape].triples()
    for sigma in (TypeH(Fraction(3, 2)), IDENTITY):
        want = float(solve_closed_form(shape, sigma).y_star)
        assert abs(solve_exchange(shape, sigma).y_star - want) <= 1e-9 * want
    assert scored.count(True) == 1
    assert all(a is b for a, b in zip(optimality._full_pools[shape].triples(), record))


def test_full_pools_past_the_row_bound_are_not_kept(fresh_full_pools, monkeypatch):
    monkeypatch.setattr(optimality, "_FULL_POOL_ROWS", 400)
    big = Shape(2, 4, 3)  # 1,094 rows
    assert full_pool(big) is not full_pool(big) and not optimality._full_pools
    # 187 + 202 rows fit; 32 more drop the least recently used shape
    for abt in ((2, 3, 4), (2, 3, 5), (2, 3, 4), (2, 3, 2)):
        full_pool(Shape(*abt))
    assert list(optimality._full_pools) == [Shape(2, 3, 4), Shape(2, 3, 2)]


def test_kept_full_pool_still_checks_the_budget(fresh_full_pools, monkeypatch):
    # a kept pool does not let a shape past the budget through: it raises
    # as a cold call does, before enumerating
    full_pool(Shape(3, 3, 5))  # 18,002 orbits, kept
    monkeypatch.setattr(arrays, "_growth_strings", _never_enumerate)
    shape = Shape(4, 4, 3)  # 7.2 M orbits
    with pytest.raises(EnumerationBudgetError) as err:
        full_pool(shape)
    assert (err.value.shape, err.value.budget) == (shape, arrays.DEFAULT_ORBIT_BUDGET)
    assert err.value.orbit_count == arrays.orbit_count(shape) > arrays.DEFAULT_ORBIT_BUDGET
    assert list(optimality._full_pools) == [Shape(3, 3, 5)]


def test_kept_full_pool_checks_the_budget_against_its_rows(fresh_full_pools, monkeypatch):
    # a full pool holds one row per orbit, within the budget, so a warm call
    # returns it as it is, with no orbit count and no enumeration
    shape = Shape(3, 3, 5)  # 18,002 orbits
    calls, real = [], arrays.orbit_count
    monkeypatch.setattr(arrays, "orbit_count", lambda s: calls.append(s) or real(s))
    pool = full_pool(shape)
    assert len(pool) == 18_002 <= arrays.DEFAULT_ORBIT_BUDGET
    counted = len(calls)
    monkeypatch.setattr(arrays, "_growth_strings", _never_enumerate)
    assert full_pool(shape) is pool
    assert len(calls) == counted
    assert optimality._full_pools[shape].pool is pool


@pytest.mark.parametrize("abt", [(4, 4, 3), (5, 5, 5)])
def test_explicit_pool_of_an_over_budget_shape_never_enumerates(
        fresh_full_pools, monkeypatch, abt):
    shape = Shape(*abt)
    pool = LabelPool(shape, np.random.default_rng(3).integers(1, shape.t + 1, (16, shape.p)))
    xi = Measure.point(pool[0])
    monkeypatch.setattr(arrays, "_growth_strings", _never_enumerate)
    for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
        for x in (Fraction(0), Fraction(1, 3), 0.25):
            r_eval(x, pool, sigma)
        assert equivalence_gap(xi, pool, sigma) >= 0
    assert not optimality._full_pools


def test_proportions_known_mixture():
    res = solve_closed_form(Shape(2, 3, 2))
    weights = {o.representative: w for o, w in res.orbit_weights}
    spread = canonical_form(array_of(2, 3, 2, SPREAD_ROWS_232))
    clustered = canonical_form(array_of(2, 3, 2, CLUSTERED_ROWS_232))
    assert weights[spread] == Fraction(1, 8)
    assert weights[clustered] == Fraction(7, 8)


def test_proportions_single_orbit_at_its_vertex():
    # at x = -c01/c11 of the orbit itself, one atom suffices exactly
    s = canonical_form(array_of(2, 3, 5, SBS_ROWS_2X3))
    orbit = _orbit_of(s)
    weights, residual = solve_sbs_proportions([orbit], Fraction(15, 101))
    assert weights == [Fraction(1)] and residual == 0


def test_proportions_infeasible_when_slopes_agree():
    s = canonical_form(array_of(2, 3, 5, SBS_ROWS_2X3))
    orbit = _orbit_of(s)
    # far left of the vertex every slope is negative
    with pytest.raises(ValueError):
        solve_sbs_proportions([orbit], Fraction(-10))


def test_verify_measure_exact_optimum():
    res = solve_closed_form(Shape(2, 3, 2))
    report = verify_measure(res.measure, IDENTITY, res.x_star, res.y_star)
    assert report.optimal
    assert report.balance_residual == 0 and report.slope_residual == 0
    assert report.support_mass == 0 and report.info_residual == 0


def test_verify_measure_vertex_branch_exact():
    res = solve_closed_form(Shape(2, 4, 7))
    report = verify_measure(res.measure, IDENTITY, res.x_star, res.y_star)
    assert report.optimal and report.verdict == "optimal"
    assert report.balance_residual == 0 and report.slope_residual == 0


# every regime of the closed form: x* = 0, the vertex, the class crossing, a = b = 2
@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 3, 5),
                                   (2, 5, 4), (2, 4, 6), (2, 4, 7), (2, 3, 5), (2, 3, 6),
                                   (2, 2, 3)])
def test_verify_measure_certifies_every_closed_form_measure(shape):
    for sigma in (IDENTITY, TypeH(Fraction(3, 2))):
        res = solve_closed_form(Shape(*shape), sigma)
        report = verify_measure(res.measure, sigma, res.x_star, res.y_star)
        assert report.verdict == "optimal" and report.info_residual <= report.tolerance


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 4, 7)])
def test_numpy_integer_type_h_is_exact_like_an_int(shape):
    # a numpy-integer x is exact (model.exact_value): the same solve and the
    # same verification report, field for field and type for type
    solves = [solve_closed_form(Shape(*shape), TypeH(x)) for x in (3, np.int64(3))]
    assert solves[0].to_json() == solves[1].to_json()
    reports = [verify_measure(res.measure, TypeH(x), res.x_star, res.y_star)
               for res, x in zip(solves, (3, np.int64(3)))]
    assert reports[1] == reports[0] and reports[1].optimal
    assert [type(v) for v in reports[1]] == [type(v) for v in reports[0]]


def test_measures_read_numpy_integer_weights_exactly():
    shape = Shape(2, 3, 2)
    rows = [[1, 1, 2, 2, 1, 2], [1, 2, 1, 2, 1, 2], [2, 2, 2, 2, 2, 1]]
    for weights, ints in (([Fraction(np.int64(1), np.int64(2)), np.uint8(0), Fraction(1, 2)],
                           [Fraction(1, 2), 0, Fraction(1, 2)]),
                          (np.array([0, 1, 0]), [0, 1, 0])):
        xi, want = (Measure.from_labels(shape, rows, w) for w in (weights, ints))
        assert xi.is_exact() and xi.labels.tolist() == want.labels.tolist()
        assert (xi.weights, xi.denominator) == (want.weights, want.denominator)
        assert all(type(n) is int for n in (*xi.weights, xi.denominator))
    orbit = Orbit(canonical_form(array_of(2, 3, 2, SPREAD_ROWS_232)), 2)
    xi = Measure.from_orbit_weights(shape, [(orbit, np.int64(1))])
    atoms = Measure.from_labels(shape, *xi.atoms())
    for m, want in ((xi, ((1,), 1)), (atoms, ((1, 1), 2))):
        assert m.is_exact() and (m.weights, m.denominator) == want
        assert all(type(n) is int for n in (*m.weights, m.denominator))


def _orbit_of(s):
    return Orbit(canonical_form(s), orbit_size(s))


def test_verify_rejects_unbalanced_measure():
    shape = Shape(5, 5, 5)
    square = array_of(5, 5, 5, LANGTON_SQUARE)
    xi = Measure.from_orbit_weights(shape, [(_orbit_of(square), Fraction(1))])
    res = solve_closed_form(shape)
    report = verify_measure(xi, IDENTITY, res.x_star, res.y_star)
    assert not report.optimal and report.verdict == "not optimal"
    assert float(report.slope_residual) > 1e-3


def test_exact_measure_past_int64_denominators():
    # weights over two large primes: their common denominator and the third
    # numerator pass 2**63, so none of the exact sums may narrow to int64
    shape = Shape(2, 3, 3)
    blocks = [array_of(2, 3, 3, rows) for rows in (
        [[1, 2, 3], [1, 2, 3]], [[1, 1, 1], [2, 2, 3]], [[1, 2, 3], [2, 3, 1]])]
    big, small = 2 ** 61 - 1, 2 ** 31 - 1
    weights = [Fraction(1, big), Fraction(1, small), 1 - Fraction(1, big) - Fraction(1, small)]
    assert weights[2].denominator > 2 ** 63 and weights[2].numerator > 2 ** 63
    xi = Measure(shape, dict(zip(blocks, weights)))
    want_c = [sum(w * c for w, c in zip(weights, col)) for col in zip(
        *(c_coeffs_closed(s).astuple() for s in blocks))]
    assert list(measure_triple(xi).astuple()) == want_c
    # per-block integer components, summed at integer weights over the lcm
    lcm = math.lcm(*(w.denominator for w in weights))
    per_block = [component_numerators(shape, label_matrix([s]), [1]) for s in blocks]
    want = sum(int(w * lcm) * nums for w, (nums, _) in zip(weights, per_block))
    num, pivot = schur_numerators(*want)
    info = info_matrix_measure(xi, exact=True)
    assert (info == num * Fraction(1, pivot * per_block[0][1] * lcm)).all()
    res = solve_closed_form(shape)
    off = [abs(q_eval(c_coeffs_closed(s), res.x_star) - res.y_star) > 1e-9 * res.y_star
           for s in blocks]
    report = verify_measure(xi, IDENTITY, res.x_star, res.y_star)
    assert report.support_mass == sum(w for w, o in zip(weights, off) if o) > 0
    target = np.array([[int(i == j) - Fraction(1, 3) for j in range(3)] for i in range(3)]) * (
        res.y_star / 2)
    assert report.info_residual == max(abs(v) for v in (info - target).reshape(-1))


def test_equivalence_gap_zero_at_optimum():
    res = solve_closed_form(Shape(2, 3, 2))
    gap = equivalence_gap(res.measure, full_pool(Shape(2, 3, 2)))
    assert abs(float(gap)) < 1e-12


def test_equivalence_gap_positive_off_optimum():
    square = array_of(5, 5, 5, LANGTON_SQUARE)
    xi = Measure.from_orbit_weights(
        square.shape, [(_orbit_of(square), Fraction(1))])
    gap = equivalence_gap(xi, support_pool(square.shape))
    assert float(gap) > 1.0


@pytest.mark.parametrize("abt", [(2, 3, 2), (2, 2, 4), (2, 3, 5)])
def test_exchange_matches_closed_form(abt):
    shape = Shape(*abt)
    want = solve_closed_form(shape)
    got = solve_exchange(shape)
    assert got.converged
    assert got.gap <= 1e-9 * max(1.0, abs(float(got.y_star)))
    assert abs(float(got.y_star) - float(want.y_star)) < 1e-8


def test_exchange_fixed_point_at_optimum():
    # the closed-form optimum touches the envelope: no pool array improves it
    shape = Shape(2, 3, 2)
    res = solve_closed_form(shape)
    gap = equivalence_gap(res.measure, full_pool(shape))
    assert isinstance(gap, Fraction) and gap == 0


def test_equivalence_gap_certifies_float_crossing():
    shape = Shape(2, 3, 5)  # x* irrational: a float measure, read in floats
    res = solve_closed_form(shape)
    assert not res.measure.is_exact()
    gap = equivalence_gap(res.measure, full_pool(shape))
    assert abs(gap) <= 1e-12 * max(1.0, res.y_star)
    assert q_star(res.measure)[1] == pytest.approx(res.x_star, rel=1e-12)


def test_exchange_general_covariance_converges():
    shape = Shape(2, 3, 3)
    rho = [[0.3 ** abs(i - j) for j in range(6)] for i in range(6)]
    res = solve_exchange(shape, GeneralCov.from_matrix(rho))
    assert res.converged and res.regime == "computational"
    # identity-kernel result is close but not equal under this kernel
    assert 0 < float(res.y_star) < 6


def test_exchange_type_h_rescales():
    shape = Shape(2, 3, 3)
    base = solve_exchange(shape)
    scaled = solve_exchange(shape, TypeH(Fraction(2)))
    assert abs(float(scaled.y_star) - float(base.y_star) / 2) < 1e-8


def _ar_kernel(p: int, rho: float) -> GeneralCov:
    idx = np.arange(p)
    return GeneralCov.from_matrix(rho ** np.abs(idx[:, None] - idx[None, :]))


def _random_spd(p: int, seed: int) -> GeneralCov:
    m = np.random.default_rng(seed).normal(size=(p, p))
    s = m @ m.T / p + np.eye(p)
    return GeneralCov.from_matrix((s + s.T) / 2)


KEPT_TABLE_SIGMAS = {
    "identity": lambda p: IDENTITY, "type-h": lambda p: TypeH(Fraction(3, 2)),
    "ar": lambda p: _ar_kernel(p, 0.5), "random-spd": lambda p: _random_spd(p, 7),
    "dense-eye": lambda p: GeneralCov.from_matrix(np.eye(p))}


@pytest.mark.parametrize("kind", KEPT_TABLE_SIGMAS)
@pytest.mark.parametrize("abt", [(2, 3, 3), (2, 4, 3), (3, 3, 4), (3, 3, 5), (3, 3, 3), (2, 3, 2)])
def test_cold_and_warm_solves_agree(fresh_full_pools, abt, kind):
    # the first solve over the kept pool builds and keeps its unit-scale
    # table as distinct rows, the second reads it, and a copy of the pool
    # (never kept) is scored row by row; (3,3,5) and (3,3,3) hold the most
    # repeated rows, and on (2,3,2) BLAS sums the dense-eye mixture in an
    # order set by where its two atoms sit among the rows
    shape = Shape(*abt)
    sigma = KEPT_TABLE_SIGMAS[kind](shape.p)
    model._dense_kernel.cache_clear()
    cold, warm = solve_exchange(shape, sigma), solve_exchange(shape, sigma)
    pool = full_pool(shape)
    copy = solve_exchange(shape, sigma, pool=LabelPool(shape, pool.labels.copy()))
    for res in (warm, copy):
        assert (res.x_star, res.y_star, res.gap, res.iterations, res.converged) == \
            (cold.x_star, cold.y_star, cold.gap, cold.iterations, cold.converged)
        assert res.measure.to_json() == cold.measure.to_json()
        assert res.q_support.arrays.labels.tobytes() == cold.q_support.arrays.labels.tobytes()
    unit = model.bind(shape, sigma).unit
    kept = optimality._full_pools[shape]
    assert list(kept.tables) == [None if unit is None else unit.tobytes()]
    _check_kept_table(pool, unit, kept.table(unit))


def test_dense_solves_score_the_kept_pool_once(fresh_full_pools, monkeypatch):
    model._dense_kernel.cache_clear()
    shape, sigma = Shape(2, 4, 3), _ar_kernel(8, 0.5)
    calls, real = [], model._PairKernel.triples
    monkeypatch.setattr(model._PairKernel, "triples",
                        lambda kern, labels: calls.append(len(labels)) or real(kern, labels))
    first, second = solve_exchange(shape, sigma), solve_exchange(shape, sigma)
    assert calls == [len(full_pool(shape))]
    assert second.measure.to_json() == first.measure.to_json()


def test_kept_tables_stay_within_the_row_bound(fresh_full_pools, monkeypatch):
    shape = Shape(2, 3, 3)
    n = len(full_pool(shape))  # 122 rows
    monkeypatch.setattr(optimality, "_FULL_POOL_ROWS", 3 * n)  # the pool and two tables
    rhos = [float(r) for r in np.linspace(0.05, 0.95, 20)]
    kept = optimality._full_pools[shape]

    def key(rho):
        return model.bind(shape, _ar_kernel(shape.p, rho)).unit.tobytes()

    for rho in rhos:
        solve_exchange(shape, _ar_kernel(shape.p, rho))
        assert optimality._full_pools[shape] is kept
        assert len(kept.pool) + sum(len(index) for *_, index in kept.tables.values()) <= 3 * n
    assert list(kept.tables) == [key(rhos[-2]), key(rhos[-1])]
    # the least recently used table goes first
    for rho in (rhos[-2], 0.33):
        solve_exchange(shape, _ar_kernel(shape.p, rho))
    assert list(kept.tables) == [key(rhos[-2]), key(0.33)]
    # a table counts the pool rows it maps, not its distinct rows (102 at 0.33)
    monkeypatch.setattr(optimality, "_FULL_POOL_ROWS", 3 * n - 1)
    solve_exchange(shape, _ar_kernel(shape.p, 0.33))
    assert list(kept.tables) == [key(0.33)]
    # a pool that fills the bound keeps no table, and one past it is not kept
    monkeypatch.setattr(optimality, "_FULL_POOL_ROWS", n)
    solve_exchange(shape, _ar_kernel(shape.p, 0.4))
    assert optimality._full_pools[shape] is kept and not kept.tables
    big = Shape(2, 4, 3)  # 1,094 rows
    solve_exchange(big, _ar_kernel(big.p, 0.4))
    solve_exchange(big)
    assert list(optimality._full_pools) == [shape] and not kept.tables


def test_exchange_from_every_point_measure():
    # the 2x2 stripe arrays are flat (c01 = c11 = 0): their point measures
    # have no vertex of their own and are read at x = 0
    shape = Shape(2, 2, 4)
    pool = full_pool(shape)
    flat = optimality.triple_table(pool)[:, 2] == 0
    gaps = [equivalence_gap(Measure.point(s), pool) for s in pool]
    assert all(isinstance(g, Fraction) and g >= 0 for g in gaps)
    assert sorted(g for g, f in zip(gaps, flat) if f) == [1, 1, 3]
    assert gaps.count(0) == 5
    res = solve_exchange(shape)
    assert res.converged is True
    assert float(res.gap) <= 1e-9
    assert abs(float(res.y_star) - 2) <= 1e-9
    json.dumps(res.to_json())


@pytest.mark.parametrize("abt, sigma", [
    ((2, 3, 3), _ar_kernel(6, 0.5)), ((2, 3, 3), _ar_kernel(6, 0.8)),
    ((3, 3, 4), _ar_kernel(9, 0.5)), ((2, 4, 3), _ar_kernel(8, 0.5)),
    ((2, 2, 3), _ar_kernel(4, 0.5)), ((2, 4, 3), _random_spd(8, 3)),
    ((3, 3, 3), _random_spd(9, 4)), ((2, 3, 5), GeneralCov.from_matrix(np.eye(6))),
    ((3, 3, 3), GeneralCov.from_matrix(np.eye(9))),
])
def test_exchange_orbit_weights_symmetrized_verify(abt, sigma):
    # the exchange measure holds each orbit's weight on one pool row; spread
    # over the orbits' members it is the optimal measure the certificate reads
    shape = Shape(*abt)
    res = solve_exchange(shape, sigma)
    xi = Measure.from_orbit_weights(shape, res.orbit_weights)
    report = verify_measure(xi, sigma, res.x_star, res.y_star)
    assert report.optimal, abt
    residuals = (report.balance_residual, report.slope_residual, report.info_residual,
                 report.support_mass)
    assert max(residuals) <= 1e-13


@pytest.mark.parametrize("abt, steps", [((2, 3, 3), 0), ((2, 3, 5), 64)])
def test_exchange_bisection_stops_at_zero_subgradient(abt, steps):
    # at x* = 0 many balanced arrays tie with mixed slopes: the tied
    # band's slopes straddle 0 there, so no bisection step is needed
    res = solve_exchange(Shape(*abt))
    assert res.converged and res.iterations <= steps
    if steps == 0:
        assert abs(res.x_star) <= 1e-15


def test_exchange_max_iter_caps_bisection():
    res = solve_exchange(Shape(2, 3, 3), _ar_kernel(6, 0.5), max_iter=5)
    assert res.iterations == 5 and res.converged is False
    assert sum(w for _, w in res.measure.items()) == pytest.approx(1.0)


@pytest.mark.parametrize("rho, want", [
    (0.2, 4.880737428143704),
    (0.5, 8.362726113437533),
    (0.8, 23.16413523338556),
])
def test_exchange_ar_optimum_pinned(rho, want):
    res = solve_exchange(Shape(2, 3, 3), _ar_kernel(6, rho))
    assert res.converged
    assert abs(res.y_star - want) <= 1e-12 * want


@pytest.mark.parametrize("shape, sigma", [
    (Shape(2, 3, 3), _ar_kernel(6, 0.5)),
    (Shape(2, 3, 3), _ar_kernel(6, 0.8)),
    (Shape(2, 4, 3), _random_spd(8, 2017)),
], ids=["ar0.5-233", "ar0.8-233", "spd-243"])
def test_exchange_ties_survive_last_bit_rounding(shape, sigma, monkeypatch):
    # mirror-image orbits tie exactly under a reflection-symmetric kernel;
    # which one enters the measure must not hang on the table's last bit.
    # Trial 0 scales the whole table by 1 + 2^-52, the others move each
    # row by a few units in the last place.
    base = solve_exchange(shape, sigma)
    exact = optimality.triple_table
    for trial in range(8):
        rng = np.random.default_rng(trial)

        def bumped_table(*args, **kw):
            t = exact(*args, **kw)
            if trial == 0:
                return t * (1 + 2.0 ** -52)
            return t * (1 + rng.integers(-4, 5, size=(len(t), 1)) * 2.0 ** -53)

        monkeypatch.setattr(optimality, "triple_table", bumped_table)
        bumped = solve_exchange(shape, sigma)
        assert bumped.converged
        assert [o.representative for o, _ in bumped.orbit_weights] == \
            [o.representative for o, _ in base.orbit_weights], trial
        for (_, w0), (_, w1) in zip(base.orbit_weights, bumped.orbit_weights):
            assert abs(w1 - w0) <= 1e-12


def _full_table_argmin(table: np.ndarray, max_iter: int) -> tuple[float, int]:
    # the bisection as first written: every step scores the whole table
    def side(x):
        _, g = optimality._active_slopes(table, x)
        return 1 if g.min() > 0 else -1 if g.max() < 0 else 0

    s0 = side(0.0)
    if s0 == 0:
        return 0.0, 0
    near, far = 0.0, -float(s0)
    while (sd := side(far)) == s0:
        near, far = far, 2.0 * far
    if sd == 0:
        return far, 0
    lo, hi = sorted((near, far))
    for steps in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, steps
        sd = side(mid)
        if sd == 0:
            return mid, steps + 1
        lo, hi = (lo, mid) if sd > 0 else (mid, hi)
    return 0.5 * (lo + hi), max_iter


SMALL_SHAPES = [Shape(a, b, t) for a, b in ((2, 2), (2, 3), (2, 4), (3, 3))
                for t in range(2, a * b + 2)]


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_narrowed_bisection_takes_the_full_tables_steps(shape):
    p = shape.p
    pool = full_pool(shape)
    sigmas = [_ar_kernel(p, rho) for rho in (0.2, 0.5, 0.8, -0.4)]
    sigmas += [_random_spd(p, seed) for seed in (3, 2017)]
    sigmas += [GeneralCov.from_matrix(np.eye(p)), TypeH(Fraction(3, 2)), TypeH(0.7)]
    for sigma in sigmas:
        table = triple_table(pool, sigma)
        for max_iter in (5, 500):
            got = optimality._envelope_argmin(table, max_iter)
            want = _full_table_argmin(table, max_iter)
            assert got[0].hex() == want[0].hex() and got[1] == want[1], (sigma, max_iter)


def test_narrowed_bisection_on_hand_made_tables():
    rng = np.random.default_rng(5)
    # a near-linear row rounded to c11 = -1e-17 sets the envelope right of
    # its crossing with a convex row; rows far above and below drop out
    concave = np.array([[1.0, -0.5, 1.0], [0.8, 0.05, -1e-17], [0.1, 0.0, 0.2],
                        *([9.0, 0.0, 1.0] + rng.normal(size=(40, 3)) * [0.1, 0.1, 0.05])])
    # sixty rows within the tie band of each other across the bracket, with
    # slopes of both signs: the envelope is flat to rounding and none may drop
    flat = np.column_stack([1 + 1e-15 * rng.random(60), 1e-13 * rng.normal(size=60),
                            1e-12 * rng.random(60)])
    flat[0] = [1.0, -1e-3, 1e-2]  # the minimiser lies right of 0
    for table in (concave, flat):
        for max_iter in (5, 500):
            got = optimality._envelope_argmin(table, max_iter)
            want = _full_table_argmin(table, max_iter)
            assert got[0].hex() == want[0].hex() and got[1] == want[1], max_iter
    assert optimality._envelope_argmin(concave, 500)[1] > 20
    assert len(optimality._live_rows(flat, -1e-3, 1.0)) == len(flat)


def test_float_rows_decide_steps_like_the_table():
    # a row of slope -0.3 + 0.2 x set a few units in the last place about the
    # edge of the tie band of the envelope row 1 + x: whether it ties, and so
    # the step, hangs on every rounding of q_eval and _active_slopes
    rng = np.random.default_rng(26)
    sides = []
    for x in rng.uniform(-2.0, 2.0, size=300):
        m = 1.0 + (0.5 + 0.5) * x
        cut = m - 1e-14 * max(1.0, abs(m))
        c00 = cut - ((-0.3 + -0.3) * x + 0.2 * x * x)
        for k in range(-4, 5):
            table = np.array([[1.0, 0.5, 0.0], [c00 + k * math.ulp(c00), -0.3, 0.2]])
            sides.append(optimality._side(table, x))
            assert optimality._side(table.tolist(), x) == sides[-1], (x, k)
    assert sides.count(0) > 100 and sides.count(1) > 100


def _envelope_minimum(table: np.ndarray, lo: float = -1.0, hi: float = 1.0) -> float:
    # ternary search of the convex envelope r(x) = max_k q_k(x) over [lo, hi].
    # Each q_k is convex, so a row whose larger end value on the bracket lies
    # below a lower bound on min r there is never the maximum inside it and
    # is dropped; the bound is the least value on the bracket of the larger
    # of r's tangent lines at its two ends.
    def q(x):
        return table[:, 0] + 2 * table[:, 1] * x + table[:, 2] * x * x

    def tangent(x, qx):  # r(x) and a subgradient there: a maximal row's slope
        k = int(np.argmax(qx))
        return qx[k], 2 * (table[k, 1] + table[k, 2] * x)

    q_lo, q_hi = q(lo), q(hi)
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        q1, q2 = q(m1), q(m2)
        if q1.max() <= q2.max():
            hi, q_hi = m2, q2
        else:
            lo, q_lo = m1, q1
        (r_lo, g_lo), (r_hi, g_hi) = tangent(lo, q_lo), tangent(hi, q_hi)
        xs = [lo, hi]
        if g_lo < g_hi:  # where the two tangent lines cross
            xs.append(min(hi, max(lo, (r_hi - r_lo + g_lo * lo - g_hi * hi) / (g_lo - g_hi))))
        bound = min(max(r_lo + g_lo * (x - lo), r_hi + g_hi * (x - hi)) for x in xs)
        keep = np.maximum(q_lo, q_hi) >= bound - 1e-12 * max(1.0, abs(bound))
        table, q_lo, q_hi = table[keep], q_lo[keep], q_hi[keep]
    return float(q((lo + hi) / 2).max())


def test_exchange_default_pool_covers_every_orbit_above_200k():
    # (2,6,4) has 700,075 orbits; a 64-array stand-in pool once gave
    # y* = 18.0175 under AR(0.5), flagged converged, against 18.142857
    shape = Shape(2, 6, 4)
    lab = enumerate_label_matrix(shape)
    assert len(lab) == 700_075
    for rho in (0.5, 0.8):
        sigma = _ar_kernel(shape.p, rho)
        want = _envelope_minimum(triple_table(LabelPool(shape, lab), sigma))
        res = solve_exchange(shape, sigma)
        assert res.converged
        assert abs(res.y_star - want) <= 1e-9 * want, rho


def test_exchange_over_budget_raises_before_enumerating(fresh_full_pools, monkeypatch):
    # (4,4,3) has 7.2 M orbits, over DEFAULT_ORBIT_BUDGET
    monkeypatch.setattr(arrays, "_growth_strings", _never_enumerate)
    with pytest.raises(EnumerationBudgetError):
        solve_exchange(Shape(4, 4, 3), _ar_kernel(16, 0.5))


def _digest(pool) -> str:
    return hashlib.sha256(str([s.rows for s in pool]).encode()).hexdigest()


def test_restricted_pools_keep_contents_and_order():
    # digests of the arrays, in order, as the pools gave them before they
    # became label matrices
    assert _digest(support_pool(Shape(3, 3, 4))) == \
        "735447ed03e4db5c9ee9c16331123a40b55822c5e0b9f2f104b97261ef1f4542"
    # the corner-double branch for a = 2 and for a >= 3, and the balanced
    # branch on a shape whose 15 balanced orbits never fill the 64 wanted,
    # so every one of its 1,280 draws is made
    assert _digest(support_pool(Shape(2, 4, 7))) == \
        "37e098a7217918f1b5b865b8084410891e6298a553e55b68d88bf0d3d7792cfe"
    assert _digest(support_pool(Shape(3, 3, 8))) == \
        "2a934969eaddab1c1b706142ebce64027bcad520c562ac449851d0e2953bd97b"
    assert _digest(support_pool(Shape(2, 3, 3))) == \
        "878786afc4cf3412cfb1d7541de629f787e8e12d41669fa9b07580a5142ee455"


def test_support_pool_is_kept_per_shape(fresh_full_pools):
    # built once per shape: the same read-only pool on every call, kept
    # apart from the full pools, whose row bound it leaves alone
    shape = Shape(2, 3, 3)
    pool = support_pool(shape)
    assert support_pool(shape) is pool and not pool.labels.flags.writeable
    assert support_pool(Shape(2, 4, 7)) is not pool and support_pool(shape) is pool
    assert not optimality._full_pools
    assert optimality._support_pool.cache_info().maxsize == 64


TYPE_H_SHAPES = [(2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (2, 3, 5), (3, 3, 2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TYPE_H_SHAPES),
       st.fractions(min_value=Fraction(1, 97), max_value=97, max_denominator=97))
def test_type_h_scales_whole_solves(abt, x):
    shape = Shape(*abt)
    base = solve_closed_form(shape)
    scaled = solve_closed_form(shape, TypeH(x))
    assert scaled.x_star == base.x_star
    assert scaled.orbit_weights == base.orbit_weights
    if isinstance(base.y_star, Fraction):
        assert scaled.y_star == base.y_star / x
    else:  # irrational crossing: one float rounding of the scale
        assert abs(scaled.y_star - base.y_star / x) <= 2.0 ** -52 * scaled.y_star

    ex0, ex = solve_exchange(shape), solve_exchange(shape, TypeH(x))
    assert ex.converged
    assert abs(ex.y_star - ex0.y_star / x) <= 1e-12 * abs(ex.y_star)
    assert abs(ex.x_star - ex0.x_star) <= 1e-12 * max(1.0, abs(ex0.x_star))
    assert [o for o, _ in ex.orbit_weights] == [o for o, _ in ex0.orbit_weights]
    for (_, w0), (_, w1) in zip(ex0.orbit_weights, ex.orbit_weights):
        assert abs(w1 - w0) <= 1e-12


def _scaled_sigma(sigma, k: int):
    """Sigma times 2^k: exact in binary floating point."""
    if isinstance(sigma, GeneralCov):
        return GeneralCov.from_matrix(sigma.array() * 2.0 ** k)
    return TypeH(Fraction(2) ** k)


def _residuals(report) -> tuple:
    return report.balance_residual, report.slope_residual, report.info_residual


@pytest.mark.parametrize("abt, sigma", [
    ((2, 3, 3), _ar_kernel(6, 0.2)), ((2, 3, 3), _ar_kernel(6, 0.5)),
    ((2, 3, 3), _ar_kernel(6, 0.8)), ((3, 3, 4), _ar_kernel(9, 0.5)),
    ((2, 4, 3), _random_spd(8, 5)), ((2, 3, 3), IDENTITY),
], ids=["ar0.2", "ar0.5", "ar0.8", "ar0.5-334", "spd-243", "type-h"])
def test_scaling_sigma_by_a_power_of_two_repeats_every_decision(abt, sigma):
    # Sigma -> 2^k Sigma divides every quadratic by 2^k exactly, so under
    # bands relative to the values they guard the solve and the verdicts
    # repeat bit for bit, and y*, gap and residuals carry the factor
    shape = Shape(*abt)
    base = solve_exchange(shape, sigma)
    optimal = Measure.from_orbit_weights(shape, base.orbit_weights)
    other = Measure.from_labels(shape, full_pool(shape).labels[:4], [0.25] * 4)
    reports = [verify_measure(xi, sigma, base.x_star, base.y_star) for xi in (optimal, other)]
    assert [r.optimal for r in reports] == [True, False]
    for k in (-40, -20, 20, 40):
        scaled, f = _scaled_sigma(sigma, k), 2.0 ** -k
        res = solve_exchange(shape, scaled)
        assert (res.x_star, res.iterations, res.converged) == \
            (base.x_star, base.iterations, base.converged), k
        assert np.array_equal(res.q_support.arrays.labels, base.q_support.arrays.labels), k
        assert res.orbit_weights == base.orbit_weights, k
        assert (res.y_star, res.gap) == (base.y_star * f, base.gap * f), k
        for xi, report in zip((optimal, other), reports):
            again = verify_measure(xi, scaled, res.x_star, res.y_star)
            assert (again.optimal, again.support_mass) == (report.optimal, report.support_mass), k
            assert _residuals(again) == tuple(v * f for v in _residuals(report)), k


def _grid_symmetries(shape: Shape) -> dict[str, np.ndarray]:
    """Each symmetry of the a x b grid but the identity, as the plot that
    moves to plot i + a j: the flips and the 180-degree rotation, and on a
    square grid the two transpositions and the quarter turns."""
    a, b = shape.a, shape.b
    i, j = np.arange(shape.p) % a, np.arange(shape.p) // a
    moves = {"column flip": i + a * (b - 1 - j), "row flip": a - 1 - i + a * j,
             "180-degree rotation": a - 1 - i + a * (b - 1 - j)}
    if a == b:
        moves.update({"transposition": j + a * i,
                      "anti-transposition": a - 1 - j + a * (a - 1 - i),
                      "quarter turn": j + a * (a - 1 - i),
                      "three-quarter turn": a - 1 - j + a * i})
    return moves


@pytest.mark.parametrize("abt, seed", [((2, 4, 3), 14), ((3, 3, 3), 15), ((2, 3, 4), 16)])
def test_whole_solve_is_invariant_under_grid_symmetries(abt, seed):
    # a grid symmetry P fixes the neighbor matrix and maps the full pool onto
    # itself, so the envelope under P Sigma P' is the envelope under Sigma
    shape = Shape(*abt)
    sigma = _random_spd(shape.p, seed).array()
    base = solve_exchange(shape, GeneralCov.from_matrix(sigma))
    assert base.converged
    for name, moved in _grid_symmetries(shape).items():
        res = solve_exchange(shape, GeneralCov.from_matrix(sigma[np.ix_(moved, moved)]))
        assert abs(res.y_star - base.y_star) <= 1e-12 * abs(base.y_star), name
        assert abs(res.x_star - base.x_star) <= 1e-12 * max(1.0, abs(base.x_star)), name


def test_solver_result_json_shape():
    res = solve_closed_form(Shape(2, 3, 2))
    doc = res.to_json()
    assert doc["x_star"]["fraction"] == "0/1"
    assert doc["y_star"]["fraction"] == "3/1"
    assert doc["support"]["kind"] == "balanced"
    assert {"representative", "size", "weight"} <= set(doc["orbit_weights"][0])


def test_explicit_support_contains_exactly_its_pool():
    pool = full_pool(Shape(2, 3, 2))
    support = optimality.QSupport.explicit(LabelPool(pool.shape, pool.labels[::3]))
    assert support.contains(pool.labels).tolist() == [k % 3 == 0 for k in range(len(pool))]


def test_nearest_crossing_of_rows_with_equal_c11_or_no_real_root():
    cross = optimality._nearest_crossing
    # equal c11: the root of a line, or none when the slopes are equal too
    assert cross((1.0, 1.0, 1.0), (0.0, 0.0, 1.0), 3.0) == -0.5
    assert cross((1.0, 0.0, 1.0), (0.0, 0.0, 1.0), 3.0) == 3.0
    # 1 + x^2 never meets 0
    assert cross((1.0, 0.0, 1.0), (0.0, 0.0, 0.0), 3.0) == 3.0


def test_basic_mixture_falls_back_to_the_slopes_at_x():
    # two rows tied at 0 within rounding, of slopes 1e-9 and -1e-9 there,
    # cross exactly at 2.8e-7, where both slopes are positive: the weights
    # zero the mixture slope at 0 instead
    table = np.array([[1.0, 1e-9, 1.0], [1.0 + 1e-15, -1e-9, 1.0]])
    assert optimality._basic_mixture(table, 0.0).tolist() == [0.5, 0.5]


def test_envelope_argmin_ends_at_a_bracket_end_or_where_the_bracket_stalls():
    # x^2 - 2x has its vertex at 1, the first bracket end tried
    assert optimality._envelope_argmin(np.array([[0.0, -1.0, 1.0]]), 50) == (1.0, 0)
    # the slope -0.7 + 0.6 x rounds to 0 at no float, so the bracket about
    # 7/6 shrinks to two neighbouring floats long before max_iter
    table = np.array([[0.0, -0.7, 0.6]])
    x, steps = optimality._envelope_argmin(table, 500)
    assert steps < 60 and abs(x - 7 / 6) < 1e-15 and optimality._side(table, x) != 0
