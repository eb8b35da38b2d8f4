"""Exact designs: serialization, efficiencies, expansion, construction."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fielddesign import designs
from fielddesign.arrays import (
    DEFAULT_ORBIT_BUDGET,
    LabelPool,
    Orbit,
    Shape,
    canonical_form,
    canonical_json,
    normalize_shape,
    orbit_labels,
    orbit_members,
    orbit_size,
)
from fielddesign.designs import (
    ExactDesign,
    NullDirectionError,
    construct_exact,
    efficiencies,
    expand_symmetric,
    measure_of_design,
    min_n_symmetric,
)
from fielddesign.model import (
    EIG_CUTOFF,
    IDENTITY,
    GeneralCov,
    TypeH,
    btilde,
    centering_projector,
    component_table,
    info_matrix_exact,
    symmetric_pinv,
    triple_table,
)
from fielddesign.optimality import (
    Measure,
    equivalence_gap,
    full_pool,
    measure_triple,
    q_star,
    r_eval,
    solve_closed_form,
    solve_exchange,
    verify_measure,
)

from .conftest import (
    LANGTON_SQUARE,
    OPTIMAL_BLOCKS_232,
    SBS_ROWS_2X3,
    STRIPE_SWAP_SQUARE,
    array_of,
    design_of,
)
from .reference_model import pseudo_symmetric_efficiency


def test_design_validation():
    with pytest.raises(ValueError):
        design_of(2, 3, 2, [])
    with pytest.raises(ValueError):
        ExactDesign.from_json({"a": 2, "b": 3, "t": 2, "n": 2,
                               "blocks": [[[1, 1, 2], [1, 2, 2]]]})  # n mismatch


def test_design_json_round_trip_bytes():
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    text = canonical_json(d.to_json())
    again = ExactDesign.from_json(d.to_json())
    assert canonical_json(again.to_json()) == text


def test_tall_design_rows_are_transposed():
    d = design_of(4, 2, 8, [[[8, 1], [5, 7], [3, 4], [6, 2]]])
    assert d.shape == Shape(2, 4, 8)
    assert d.blocks[0].rows == ((8, 5, 3, 6), (1, 7, 4, 2))


def test_measure_of_design_counts_blocks():
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    xi = measure_of_design(d)
    blocks = [array_of(2, 3, 2, rows) for rows in OPTIMAL_BLOCKS_232]
    weights = dict(xi.items())
    # atoms in order of first appearance, the repeated block counted twice
    assert list(weights) == [blocks[0], blocks[2], blocks[3]]
    assert list(weights.values()) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert xi.weights == (2, 1, 1) and xi.denominator == 4 and len(xi) == 3


def test_optimal_design_efficiencies_are_one(optimal_design_232):
    rep = efficiencies(optimal_design_232)
    assert np.allclose(rep.astuple(), 1.0, atol=1e-12)
    assert rep.n == 4 and abs(rep.y_star - 3.0) < 1e-12


def test_efficiency_chain_ordering():
    # E <= A <= D <= T, the eigenvalue mean inequalities
    rng = np.random.default_rng(23)
    shape = Shape(2, 3, 3)
    for _ in range(5):
        blocks = [
            [[int(v) for v in rng.integers(1, 4, size=3)] for _ in range(2)]
            for _ in range(6)
        ]
        rep = efficiencies(design_of(2, 3, 3, blocks))
        if rep.diagnostic:
            continue  # disconnected draw, nothing to order
        a, d, e, t = rep.eff_A, rep.eff_D, rep.eff_E, rep.eff_T
        assert e <= a + 1e-12 <= d + 2e-12 <= t + 3e-12


def test_unestimable_design_is_flagged():
    rep = efficiencies(design_of(2, 2, 3, [[[1, 1], [1, 1]]]))
    assert rep.diagnostic and rep.astuple() == (0.0, 0.0, 0.0, 0.0)


def test_langton_square_symmetrized_efficiency():
    # the known score belongs to the relabel-symmetrized design, not to
    # the bare single block (which is far less balanced)
    square = array_of(5, 5, 5, LANGTON_SQUARE)
    orbit = Orbit(canonical_form(square), orbit_size(square))
    xi = Measure.from_orbit_weights(square.shape, [(orbit, Fraction(1))])
    eff = pseudo_symmetric_efficiency(xi)
    assert eff == Fraction(17, 33)
    assert abs(float(eff) - 0.5151) < 5e-4
    single = efficiencies(design_of(5, 5, 5, [LANGTON_SQUARE]))
    assert single.eff_A < float(eff)


def test_pseudo_symmetric_matches_materialized_path():
    square = array_of(5, 5, 5, LANGTON_SQUARE)
    orbit = Orbit(canonical_form(square), orbit_size(square))
    xi = Measure.from_orbit_weights(square.shape, [(orbit, Fraction(1))])
    eff = pseudo_symmetric_efficiency(xi)
    expanded = expand_symmetric([(orbit, Fraction(1))], 120)
    rep = efficiencies(expanded)
    assert abs(float(eff) - rep.eff_A) < 1e-9
    assert np.allclose(rep.astuple(), float(eff), atol=1e-9)  # fully symmetric


def test_half_half_mixture_is_optimal():
    shape = Shape(5, 5, 5)
    atoms = {}
    for rows in (LANGTON_SQUARE, STRIPE_SWAP_SQUARE):
        s = array_of(5, 5, 5, rows)
        for m in orbit_members(s):
            atoms[m] = atoms.get(m, 0) + Fraction(1, 2 * orbit_size(s))
    xi = Measure(shape, atoms)
    eff = pseudo_symmetric_efficiency(xi)
    assert eff == 1


def test_min_n_known_mixture():
    res = solve_closed_form(Shape(2, 3, 2))
    rep = min_n_symmetric(res.orbit_weights)
    assert rep.n == 16 and not rep.approximated


def test_min_n_single_orbit_reports_pseudo_floor():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    orbit = Orbit(canonical_form(s), orbit_size(s))
    rep = min_n_symmetric([(orbit, Fraction(1))])
    assert rep.n == 120  # full orbit expansion
    assert rep.pseudo_symmetric == 20  # t(t-1) relabel-closed floor


def test_min_n_float_weights_are_rationalized():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    orbit = Orbit(canonical_form(s), orbit_size(s))
    rep = min_n_symmetric([(orbit, 1.0)])
    assert rep.approximated and rep.n == 120


def test_min_n_numpy_integer_weight_is_exact():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    orbit = Orbit(canonical_form(s), orbit_size(s))
    rep = min_n_symmetric([(orbit, np.int64(1))])
    assert not rep.approximated and rep == min_n_symmetric([(orbit, 1)])


def test_expand_symmetric_round_trip():
    res = solve_closed_form(Shape(2, 3, 2))
    d = expand_symmetric(res.orbit_weights, 16)
    assert d.n == 16
    xi = measure_of_design(d)
    back = {}
    for s, w in xi.items():
        back[canonical_form(s)] = back.get(canonical_form(s), 0) + w
    want = {o.representative: w for o, w in res.orbit_weights}
    assert back == want


def test_expand_symmetric_rejects_uneven_n():
    res = solve_closed_form(Shape(2, 3, 2))
    with pytest.raises(ValueError, match="smallest feasible"):
        expand_symmetric(res.orbit_weights, 12)


@pytest.mark.parametrize("weights, n, match", [
    pytest.param((Fraction(3, 2), Fraction(-1, 2)), 4, "negative orbit weight", id="negative"),
    pytest.param((Fraction(7, 8),), 16, "weights sum to 7/8", id="short-sum"),
])
def test_expand_symmetric_gives_n_blocks_or_raises(weights, n, match):
    # the two (2,3,2) closed-form orbits have two members each; neither
    # weight vector can be spread over n blocks
    orbits = [o for o, _ in solve_closed_form(Shape(2, 3, 2)).orbit_weights]
    with pytest.raises(ValueError, match=match):
        expand_symmetric(list(zip(orbits, weights)), n)


@pytest.mark.parametrize("sigma", [IDENTITY, TypeH(Fraction(3, 2))], ids=["identity", "type-h"])
def test_expand_symmetric_refuses_n_past_the_row_bound(sigma):
    # a crossing-regime shape's least n would be a 3.2 GB label matrix
    pairs = solve_closed_form(Shape(2, 3, 6), sigma).orbit_weights
    n = min_n_symmetric(pairs).n
    assert n == 525_268_800
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n={n} .* {DEFAULT_ORBIT_BUDGET} rows"):
            expand_symmetric(pairs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# the exact closed-form measures of a <= 3, b <= 4 whose least n is at
# most 400, with that n
EXPAND_LEAST_N = {(2, 2, 2): 2, (2, 2, 3): 6, (2, 2, 4): 24, (2, 2, 5): 120, (2, 2, 6): 360,
                  (2, 3, 2): 16, (2, 3, 3): 54, (2, 3, 4): 24, (2, 4, 2): 16, (2, 4, 3): 78,
                  (2, 4, 4): 192, (3, 3, 2): 142, (3, 3, 3): 18, (3, 3, 4): 312,
                  (3, 4, 2): 56, (3, 4, 3): 180}


def test_expand_symmetric_digest():
    # digest recorded before expand_symmetric took its feasibility from
    # min_n_symmetric
    digest = hashlib.sha256()
    for abt, least in EXPAND_LEAST_N.items():
        pairs = solve_closed_form(Shape(*abt)).orbit_weights
        assert min_n_symmetric(pairs).n == least
        for n in (least, 2 * least):
            d = expand_symmetric(pairs, n)
            assert d.n == n
            digest.update(repr((abt, n, [blk.colex for blk in d.blocks])).encode())
    assert digest.hexdigest() == \
        "b27bc9dd3b0ec420740d2b5eb659b2d527ed4d9fa66a201082ff2775b028da2f"


def test_expand_symmetric_lists_the_orbit_members_loop():
    # on every shape of at most 10 plots whose least symmetric n is at most
    # 100, the label matrix holds the blocks of a loop over orbit_members
    tested = 0
    for a, b in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3)):
        for t in range(2, a * b + 3):
            pairs = solve_closed_form(Shape(a, b, t)).orbit_weights
            least = min_n_symmetric(pairs).n
            if least > 100:
                continue
            tested += 1
            for n in (least, 2 * least):
                want = [member for o, w in pairs for member in orbit_members(o.representative)
                        for _ in range(int(w * n / o.size))]
                assert list(expand_symmetric(pairs, n).blocks) == want, (a, b, t, n)
    assert tested == 10


def test_construct_finds_exact_optimum():
    design, rep = construct_exact(Shape(2, 3, 2), 4, seed=7)
    assert design.n == 4
    assert np.allclose(rep.astuple(), 1.0, atol=1e-9)


def test_construct_deterministic():
    d1, _ = construct_exact(Shape(2, 3, 2), 4, seed=3)
    d2, _ = construct_exact(Shape(2, 3, 2), 4, seed=3)
    assert d1 == d2


@pytest.mark.parametrize("abt, n, steps", [((2, 2, 4), 24, 0), ((3, 3, 3), 3, 2)])
def test_restart_at_zero_drops_every_later_restart(monkeypatch, abt, n, steps):
    # the rounded start reaches residual 0 (at once on (2,2,4), so no slot
    # is ever scored), which drops the three random restarts: effort 4
    # returns effort 1's design after as many batched picks
    batches = []
    real = designs._slot_pick
    monkeypatch.setattr(designs, "_slot_pick",
                        lambda bases, *args: batches.append(len(bases)) or real(bases, *args))
    one, rep = construct_exact(Shape(*abt), n, effort=1)
    assert np.allclose(rep.astuple(), 1.0, atol=1e-12)
    assert batches == [1] * steps
    batches.clear()
    assert construct_exact(Shape(*abt), n, effort=4)[0] == one
    assert len(batches) == steps


@pytest.mark.parametrize("x", [Fraction(1, 10**8), Fraction(1, 10**100)])
def test_construct_under_type_h_searches_identity_units(x):
    # type-H scales identity's components and target by 1/x, and so the
    # rounding of the residuals against construct's absolute 1e-12 margins:
    # searched in those units, both weights swapped without end
    design, rep = construct_exact(Shape(2, 3, 3), 7, TypeH(x))
    assert design == construct_exact(Shape(2, 3, 3), 7)[0]
    assert rep.eff_A > 0.98
    assert rep.y_star == float(solve_closed_form(Shape(2, 3, 3), TypeH(x)).y_star)


@pytest.mark.parametrize("abt, n, rho", [((2, 3, 3), 6, 0.5), ((2, 3, 4), 10, 0.8)])
def test_construct_under_a_dense_sigma_is_the_same_at_every_power_of_two(abt, n, rho):
    # bind divides Sigma 2^k back to the unit Sigma exactly, so the search
    # and its absolute 1e-12 margins see the same numbers at every k: once
    # they saw Sigma itself, and these returned other blocks at some k
    shape = Shape(*abt)
    ar = rho ** np.abs(np.subtract.outer(range(shape.p), range(shape.p)))
    base, rep = construct_exact(shape, n, GeneralCov.from_matrix(ar), seed=0)
    for k in (40, 20, -20, -40):
        design, scaled = construct_exact(shape, n, GeneralCov.from_matrix(ar * 2.0 ** k), seed=0)
        assert design == base, k
        # y* and the eigenvalues take the factor exactly; eff_D's logarithms round
        assert scaled.y_star == rep.y_star * 2.0 ** -k, k
        assert scaled.eigenvalues == tuple(v * 2.0 ** -k for v in rep.eigenvalues), k
        assert np.allclose(scaled.astuple(), rep.astuple(), rtol=1e-12, atol=0), k


@functools.cache
def _design_233_7():
    return construct_exact(Shape(2, 3, 3), 7)[0]


@pytest.mark.parametrize("x", [1e-6, 1e-3, 1, 1e3, 1e13])
def test_efficiencies_do_not_depend_on_the_type_h_weight(x):
    # C and n y* both scale by 1/x, and so does the null-direction cut
    want = efficiencies(_design_233_7())
    got = efficiencies(_design_233_7(), TypeH(x))
    assert got.diagnostic is None and want.diagnostic is None
    assert np.allclose(got.astuple(), want.astuple(), rtol=1e-9, atol=0)


def test_construct_under_a_large_type_h_weight_keeps_its_scores():
    # its eigenvalues, about 1.4e-12, are not null directions
    design, rep = construct_exact(Shape(2, 3, 3), 7, TypeH(10**13))
    assert design == _design_233_7() and rep.diagnostic is None
    assert np.allclose(rep.astuple(), efficiencies(design).astuple(), rtol=1e-9, atol=0)
    assert round(rep.eff_A, 5) == 0.98984


def test_unestimable_design_is_flagged_under_a_dense_sigma():
    # constant blocks carry no information: C is 0 up to rounding, here with
    # a negative trace, which is no contrast estimable, not a missing 1_t
    g = np.random.default_rng(1).normal(size=(4, 4))
    sigma = GeneralCov.from_matrix(g @ g.T + 4 * np.eye(4))
    design = design_of(2, 2, 3, [[[1, 1], [1, 1]]])
    assert -1e-15 < np.trace(designs.info_matrix_exact(design, sigma)) < 0
    rep = efficiencies(design, sigma, y_star=1.0)
    assert rep.diagnostic and rep.astuple() == (0.0, 0.0, 0.0, 0.0)


def test_construct_rejects_bad_n():
    with pytest.raises(ValueError):
        construct_exact(Shape(2, 3, 2), 0)


def test_construct_type_h_matches_identity_design_quality():
    d, rep = construct_exact(Shape(2, 3, 2), 4, TypeH(Fraction(2)), seed=1)
    assert rep.eff_A > 1 - 1e-9  # same optimum, rescaled bound


def test_missing_null_direction_is_a_typed_error(monkeypatch, optimal_design_232):
    # a full-rank information matrix has no 1_t null direction
    monkeypatch.setattr(designs, "info_matrix_exact", lambda d, sigma: np.eye(d.shape.t))
    with pytest.raises(NullDirectionError, match="1_t direction"):
        efficiencies(optimal_design_232, y_star=1.0)


def _scalar_swap_residuals(base, stack, target):
    # the reference: one 2-D pseudo-inverse and one norm per candidate
    out = []
    for comp in stack:
        c00, c01, c11 = base + comp
        info = c00 - c01 @ symmetric_pinv(c11) @ c01.T
        out.append(float(np.linalg.norm(info - target)))
    return np.array(out)


@pytest.mark.parametrize("shape, sigma", [
    (Shape(2, 3, 3), IDENTITY),
    (Shape(2, 3, 4), TypeH(Fraction(3, 2))),
    (Shape(2, 3, 3), GeneralCov.from_matrix(0.5 ** np.abs(np.subtract.outer(range(6), range(6))))),
])
def test_batched_swap_scores_equal_scalar_loop(monkeypatch, shape, sigma):
    pool = full_pool(shape)
    stack = component_table(pool, sigma)
    t = shape.t
    target = centering_projector(t) * 2.5
    rng = np.random.default_rng(3)
    # n = 1: the slot's base is zero, so S11 is one block's C11, rank
    # deficient whenever the candidate leaves a treatment out
    c11 = stack[:, 2]
    w = np.linalg.eigvalsh(c11)
    assert (np.abs(w) <= EIG_CUTOFF * np.abs(w).max(axis=-1, keepdims=True)).any()
    monkeypatch.setattr(designs, "CHUNK_ROWS", 7)  # several chunks and a ragged tail
    for n in (1, 2, 5):
        idx = rng.integers(0, len(pool), size=n)
        total = sum(stack[idx])
        for old in idx[:2]:
            base = total - stack[old]
            got = designs._swap_residuals(base, stack, target)
            assert np.array_equal(got, _scalar_swap_residuals(base, stack, target))


def test_swap_scan_keeps_earlier_near_ties():
    vals = np.array([5.0, 4.0, 4.0 - 5e-13, 3.0 + 1e-13, 3.0, 9.0])
    # 4.0 - 5e-13 and 3.0 do not beat the pick before them by more than 1e-12
    assert designs._scan(vals, 5.0) == (3, 3.0 + 1e-13)
    assert designs._scan(vals, 3.0 + 5e-13) == (None, 3.0 + 5e-13)


def _random_spd(seed: int, p: int) -> np.ndarray:
    q = np.random.default_rng(seed).standard_normal((p, p))
    return q @ q.T + p * np.eye(p)


BOUND_SHAPE = Shape(2, 3, 3)
BOUND_SIGMAS = {
    "identity": IDENTITY,
    "type-h": TypeH(Fraction(3, 2)),
    "ar": GeneralCov.from_matrix(0.5 ** np.abs(np.subtract.outer(range(6), range(6)))),
    "spd": GeneralCov.from_matrix(_random_spd(11, 6)),
}


def _bound_case(sigma, n, seed, scale):
    stack = component_table(full_pool(BOUND_SHAPE), BOUND_SIGMAS[sigma])
    idx = np.random.default_rng(seed).integers(0, len(stack), size=n)
    total = sum(stack[idx])
    target = centering_projector(BOUND_SHAPE.t) * (scale * n)
    return stack, idx, total, target


def _full_scan_picks(stack, bases, target, currents, olds):
    # the reference: R independent pool-order scans of every candidate's
    # pseudo-inverse residual, the old candidate excluded
    picks = []
    for base, cur, old in zip(bases, currents, olds):
        vals = designs._swap_residuals(base, stack, target)
        vals[old] = np.inf
        picks.append(designs._scan(vals, cur))
    return picks


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BOUND_SIGMAS)),
       st.lists(st.sampled_from([1, 2, 5, 14]), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1), st.floats(0.25, 8.0), st.floats(0.0, 1.0))
def test_pruned_slot_picks_what_the_full_scan_picks(sigma, sizes, seed, scale, level):
    # one batch of bases from designs of these sizes; size 1 leaves a zero
    # base, whose B11 is singular
    stack = component_table(full_pool(BOUND_SHAPE), BOUND_SIGMAS[sigma])
    cands = designs._Candidates.of(stack)
    distinct = cands.first == np.arange(len(stack))
    assert (stack[cands.first] == stack).all()
    rng = np.random.default_rng(seed)
    target = centering_projector(BOUND_SHAPE.t) * (scale * max(sizes))
    idx = [rng.integers(0, len(stack), size=n) for n in sizes]
    totals = np.stack([sum(stack[i]) for i in idx])
    olds = [int(i[0]) for i in idx]
    bases = totals - stack[olds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "CHUNK_ROWS", 7)  # several chunks and a ragged tail
        # ragged chunks of bases and of candidates in every tier
        mp.setattr(designs, "BOUND_ENTRIES", 7 * (2 * BOUND_SHAPE.t) ** 2)
        found, _ = designs._base_factor(bases, cands, target)
        for r, base in enumerate(bases):
            w = np.linalg.eigvalsh(base[2])
            if w[0] <= EIG_CUTOFF * max(abs(w[-1]), 1.0):  # singular B11: score everything
                assert r not in found
        every = cands.distinct
        for r in found:
            exact = designs._swap_residuals(bases[r], stack, target)
            got = designs._swap_exact(bases, stack, target, np.full(len(every), r), every)
            assert (np.abs(got - exact[distinct])
                    <= 1e-12 * np.maximum(1.0, np.abs(exact[distinct]))).all()
        # any threshold, not just each design's own residual
        currents = designs._residuals(totals, target).tolist()
        quantiles = []
        for base, old in zip(bases, olds):
            vals = designs._swap_residuals(base, stack, target)
            vals[old] = np.inf
            quantiles.append(float(np.quantile(vals[np.isfinite(vals)], level)))
        for cur in (currents, quantiles):
            want = _full_scan_picks(stack, bases, target, cur, olds)
            assert designs._slot_pick(bases, cands, target, cur, olds) == want


def test_slot_pick_scores_every_distinct_table_when_b11_is_singular(monkeypatch):
    stack, idx, total, target = _bound_case("identity", 5, 5, 2.0)
    cands = designs._Candidates.of(stack)
    # a zero base (n = 1) between two well-conditioned ones
    bases = np.stack([total - stack[idx[0]], np.zeros_like(total), total - stack[idx[1]]])
    olds = [int(idx[0]), int(idx[2]), int(idx[1])]
    found, _ = designs._base_factor(bases, cands, target)
    assert found.tolist() == [0, 2]
    want = _full_scan_picks(stack, bases, target, [np.inf] * 3, olds)
    scored = []
    real = designs._swap_residuals
    monkeypatch.setattr(designs, "_swap_residuals",
                        lambda b, s, t: scored.append(len(s)) or real(b, s, t))
    assert designs._slot_pick(bases, cands, target, [np.inf] * 3, olds) == want
    # every distinct table for the zero base, then the other two winners
    assert scored == [len(cands.distinct), 2]


def _sigma_of(kind: str, p: int):
    if kind in ("identity", "type-h"):
        return BOUND_SIGMAS[kind]
    if kind == "ar":
        return GeneralCov.from_matrix(0.5 ** np.abs(np.subtract.outer(range(p), range(p))))
    return GeneralCov.from_matrix(_random_spd(11, p))


@functools.lru_cache(maxsize=None)
def _candidates(shape: Shape, kind: str):
    # every labelling, as construct's pool holds relabelings of each orbit
    labels = np.array(list(itertools.product(range(1, shape.t + 1), repeat=shape.p)))
    return designs._Candidates.of(component_table(LabelPool(shape, labels),
                                                  _sigma_of(kind, shape.p)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Shape(2, 3, 2), Shape(2, 3, 3), Shape(2, 4, 2), Shape(3, 3, 2)]),
       st.sampled_from(sorted(BOUND_SIGMAS)), st.integers(2, 14), st.integers(0, 2**32 - 1),
       st.floats(0.25, 8.0), st.floats(0.0, 1.0))
def test_eigenbasis_bound_is_a_bound_and_only_drops_scorings(shape, sigma, n, seed, scale,
                                                             level):
    cands = _candidates(shape, sigma)
    stack = cands.stack
    idx = np.random.default_rng(seed).integers(0, len(stack), size=n)
    total = sum(stack[idx])
    base = total - stack[idx[0]]
    target = centering_projector(shape.t) * (scale * n)
    found, factor = designs._base_factor(base[None], cands, target)
    if not len(found):  # the screen does not apply: every distinct table is scored
        return
    exact = designs._swap_residuals(base, stack[cands.distinct], target)
    assert (designs._eigen_bounds(factor, cands.weights)[:, 0] <= exact).all()
    current = float(designs._residuals(total[None], target)[0])
    for cur in (current, float(np.quantile(exact, level))):
        scored = []
        real = designs._swap_residuals
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(designs, "_swap_residuals",
                       lambda b, s, t: scored.extend(s) or real(b, s, t))
            [(pick, _)] = designs._slot_pick(base[None], cands, target, [cur], [int(idx[0])])
        # the pseudo-inverse scores the winner alone, once
        assert len(scored) == (pick is not None)
        if pick is not None:
            assert np.array_equal(scored[0], stack[pick])


def test_eigenbasis_bound_sends_few_candidates_on(monkeypatch):
    # the golden (4,2,8) n = 14 run: 66,325 (base, candidate) pairs reach the
    # eigenbasis bound over all slots of all restarts, 11,312 of them the
    # batched solve, and the pseudo-inverse scores one winner per swap
    pairs = {
        "_eigen_bounds": lambda factor, weights: len(factor[0]) * len(weights),
        "_swap_exact": lambda bases, stack, target, of, which: len(which),
        "_swap_residuals": lambda base, stack, target: len(stack),
    }
    seen = dict.fromkeys(pairs, 0)
    for name, count in pairs.items():
        def counted(*args, name=name, count=count, real=getattr(designs, name)):
            seen[name] += count(*args)
            return real(*args)
        monkeypatch.setattr(designs, name, counted)
    shape, _ = normalize_shape(4, 2, 8)
    design, _ = construct_exact(shape, 14, seed=7)
    assert design.to_json()["blocks"] == GOLDEN_428_N14_SEED7
    assert seen == {"_eigen_bounds": 66325, "_swap_exact": 11312, "_swap_residuals": 53}


@pytest.mark.parametrize("shape", [Shape(2, 3, 3), Shape(2, 4, 2), Shape(3, 3, 2)])
@pytest.mark.parametrize("sigma", sorted(BOUND_SIGMAS))
@settings(max_examples=8, deadline=None)
@given(st.integers(3, 14), st.integers(0, 2**32 - 1), st.floats(0.25, 8.0))
def test_congruence_scores_equal_scalar_loop_near_the_condition_limit(shape, sigma, n,
                                                                      seed, scale):
    cands = _candidates(shape, sigma)
    stack = cands.stack
    rng = np.random.default_rng(seed)
    base = sum(stack[rng.integers(0, len(stack), size=n)])
    # scale the base so that B11 with a candidate's C11 added sits just
    # inside BOUND_MAX_COND, the worst conditioning _base_factor accepts
    w = np.linalg.eigvalsh(base[2])
    if not w[0] * designs.BOUND_MAX_COND > w[-1]:  # no scaling reaches it
        return
    base = base * (1 + 1e-6) * cands.c11_trace / (w[0] * designs.BOUND_MAX_COND - w[-1])
    target = centering_projector(shape.t) * (scale * n)
    found, _ = designs._base_factor(base[None], cands, target)
    assert found.tolist() == [0]
    t = shape.t
    which = rng.permutation(cands.distinct)[:len(cands.distinct) // 2 + 3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "BOUND_ENTRIES", 7 * (2 * t) ** 2)  # chunks and a ragged tail
        got = designs._swap_exact(base[None], stack, target, np.zeros_like(which), which)
    want = _scalar_swap_residuals(base, stack[which], target)
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


# construct_exact's blocks for two seeds, recorded from the per-candidate
# scorer: a change to swap scoring must not move them
GOLDEN_428_N14_SEED7 = [
    [[5, 6, 8, 4], [5, 7, 3, 2]], [[7, 5, 1, 6], [7, 2, 8, 4]], [[4, 7, 6, 8], [5, 3, 1, 2]],
    [[5, 7, 2, 8], [6, 4, 3, 1]], [[5, 6, 8, 4], [5, 7, 3, 2]], [[8, 5, 4, 2], [7, 1, 3, 6]],
    [[3, 6, 4, 1], [8, 2, 5, 7]], [[6, 5, 3, 1], [6, 2, 8, 4]], [[1, 3, 6, 8], [2, 7, 4, 5]],
    [[7, 6, 3, 5], [7, 1, 4, 2]], [[1, 5, 3, 4], [1, 8, 7, 4]], [[4, 5, 6, 3], [1, 8, 2, 3]],
    [[1, 7, 8, 3], [1, 2, 6, 3]], [[2, 1, 4, 8], [2, 6, 7, 8]],
]
GOLDEN_334_N20_SEED0 = [
    [[1, 4, 4], [2, 1, 2], [3, 3, 3]], [[4, 4, 2], [3, 2, 1], [3, 1, 4]],
    [[4, 3, 3], [4, 1, 2], [4, 1, 2]], [[3, 1, 1], [3, 4, 2], [3, 4, 2]],
    [[1, 4, 4], [1, 3, 2], [1, 3, 2]], [[1, 4, 4], [1, 3, 2], [1, 3, 2]],
    [[3, 1, 1], [3, 2, 2], [4, 4, 3]], [[1, 1, 4], [3, 2, 2], [3, 4, 4]],
    [[4, 3, 2], [1, 4, 2], [1, 4, 3]], [[1, 2, 2], [1, 4, 2], [4, 3, 3]],
    [[2, 3, 3], [2, 4, 1], [2, 4, 1]], [[2, 4, 4], [2, 3, 1], [2, 3, 1]],
    [[4, 4, 1], [3, 1, 3], [2, 2, 3]], [[1, 1, 4], [2, 3, 3], [2, 4, 4]],
    [[1, 1, 3], [2, 4, 4], [3, 2, 3]], [[1, 2, 4], [3, 1, 2], [4, 3, 1]],
    [[1, 3, 2], [4, 1, 3], [2, 4, 1]], [[1, 3, 4], [1, 4, 2], [2, 1, 3]],
    [[2, 4, 3], [1, 2, 4], [3, 1, 2]], [[2, 3, 4], [1, 2, 3], [4, 1, 2]],
]


@pytest.mark.parametrize("abt, n, seed, blocks, effs", [
    ((4, 2, 8), 14, 7, GOLDEN_428_N14_SEED7, (0.983768, 0.98404, 0.949731, 0.984313)),
    ((3, 3, 4), 20, 0, GOLDEN_334_N20_SEED0, (0.99969, 0.99969, 0.999543, 0.99969)),
])
def test_construct_golden_blocks(abt, n, seed, blocks, effs):
    shape, _ = normalize_shape(*abt)
    design, rep = construct_exact(shape, n, seed=seed)
    assert design.to_json()["blocks"] == blocks
    doc = rep.to_json()
    assert (doc["eff_A"], doc["eff_D"], doc["eff_E"], doc["eff_T"]) == effs


# the remaining construct specs of the benchmark, blocks and full report,
# recorded from the exhaustive scorer: pruned scoring must not move them
GOLDEN_REPORTS = [
    ((2, 3, 5), 20, IDENTITY, [
        [[2, 1, 4], [2, 3, 4]], [[2, 1, 4], [2, 3, 4]], [[1, 3, 4], [2, 5, 4]],
        [[1, 4, 2], [1, 5, 3]], [[1, 3, 2], [4, 5, 2]], [[4, 2, 5], [4, 1, 5]],
        [[1, 4, 5], [3, 2, 5]], [[2, 4, 5], [3, 1, 5]], [[3, 5, 2], [3, 1, 4]],
        [[2, 1, 4], [5, 3, 4]], [[5, 3, 1], [5, 4, 2]], [[3, 2, 1], [3, 4, 5]],
        [[1, 5, 2], [1, 3, 4]], [[5, 3, 2], [5, 1, 2]], [[2, 4, 1], [5, 3, 1]],
        [[3, 4, 1], [3, 2, 5]], [[3, 4, 2], [3, 5, 1]], [[3, 1, 5], [3, 2, 5]],
        [[4, 1, 2], [4, 5, 3]], [[3, 5, 1], [4, 2, 1]],
    ], {"eff_A": 0.991547, "eff_D": 0.991624, "eff_E": 0.974951, "eff_T": 0.991702,
        "eigenvalues": [22.03182210617434, 22.323750944554995, 22.477599485626325,
                        22.80823951096728],
        "n": 20, "y_star": 4.519575369938438}),
    ((2, 3, 3), 6, IDENTITY, [
        [[1, 2, 3], [1, 2, 3]], [[1, 2, 3], [1, 3, 2]], [[2, 1, 3], [2, 1, 3]],
        [[2, 3, 1], [2, 3, 1]], [[3, 1, 2], [3, 1, 2]], [[1, 3, 3], [2, 2, 1]],
    ], {"eff_A": 0.99102, "eff_D": 0.991026, "eff_E": 0.9875, "eff_T": 0.991033,
        "eigenvalues": [11.85, 11.934782608695652], "n": 6, "y_star": 4.0}),
    # the AGL(1, 4) design of the closed form's one orbit, exactly optimal
    ((2, 3, 4), 12, TypeH(Fraction(3, 2)), [
        [[1, 2, 3], [1, 2, 4]], [[2, 1, 4], [2, 1, 3]], [[3, 4, 1], [3, 4, 2]],
        [[4, 3, 2], [4, 3, 1]], [[1, 3, 4], [1, 3, 2]], [[2, 4, 3], [2, 4, 1]],
        [[3, 1, 2], [3, 1, 4]], [[4, 2, 1], [4, 2, 3]], [[1, 4, 2], [1, 4, 3]],
        [[2, 3, 1], [2, 3, 4]], [[3, 2, 4], [3, 2, 1]], [[4, 1, 3], [4, 1, 2]],
    ], {"eff_A": 1.0, "eff_D": 1.0, "eff_E": 1.0, "eff_T": 1.0,
        "eigenvalues": [11.555555555555555, 11.555555555555555, 11.555555555555555],
        "n": 12, "y_star": 2.888888888888889}),
    ((2, 3, 3), 6, BOUND_SIGMAS["ar"], [
        [[3, 3, 3], [1, 1, 2]], [[1, 1, 1], [2, 2, 3]], [[1, 1, 3], [3, 2, 2]],
        [[3, 3, 1], [1, 2, 2]], [[2, 2, 2], [3, 3, 1]], [[3, 3, 2], [2, 1, 1]],
    ], {"eff_A": 0.991473, "eff_D": 0.991473, "eff_E": 0.991473, "eff_T": 0.991473,
        "eigenvalues": [24.874258160237382, 24.874258160237385], "n": 6,
        "y_star": 8.362726113437533}),
]


@pytest.mark.parametrize("abt, n, sigma, blocks, report", GOLDEN_REPORTS,
                         ids=["235-n20", "233-n6", "234-n12-type-h", "233-n6-ar"])
def test_construct_golden_reports(abt, n, sigma, blocks, report):
    shape, _ = normalize_shape(*abt)
    design, rep = construct_exact(shape, n, sigma, seed=0)
    assert design.to_json()["blocks"] == blocks
    assert rep.to_json() == report
    if not isinstance(sigma, GeneralCov):  # exactly optimal where the report reads 1
        res = solve_closed_form(shape, sigma)
        check = verify_measure(measure_of_design(design), sigma, res.x_star, res.y_star)
        assert check.optimal == (report["eff_A"] == 1)
        assert (check.info_residual == 0) == check.optimal


# ---------------------------------------------------------------------------
# 2-transitive groups and the group designs construct returns


def _prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


@pytest.mark.parametrize("t", range(2, 15))
def test_two_transitive_group_orders_and_pair_transitivity(t):
    group = designs.two_transitive(t)
    q = t - 1
    want = t * (t - 1) if _prime_power(t) else q * (q * q - 1) // math.gcd(2, q - 1)
    assert group.shape == (want, t) and not group.flags.writeable
    assert designs._group_order(t) == want
    assert group[0].tolist() == list(range(t))
    assert all(sorted(g) == list(range(t)) for g in group.tolist())
    assert len({tuple(g) for g in group.tolist()}) == want
    # the images of the pair (0, 1) are every ordered pair of distinct labels
    assert {(g[0], g[1]) for g in group.tolist()} == set(itertools.permutations(range(t), 2))


@pytest.mark.parametrize("t", range(2, 15))
def test_group_average_is_the_symmetric_group_average(t):
    # sum over g of the relabeled matrix R_g, R_g[g(i), g(j)] = M[i, j],
    # is |G| times the S_t average: trace / t on the diagonal and the
    # off-diagonal sum / (t (t - 1)) off it, compared in integers
    group = designs.two_transitive(t)
    for seed in range(3):
        m = np.random.default_rng(seed).integers(-50, 50, size=(t, t))
        total = np.zeros((t, t), dtype=np.int64)
        for g in group:
            total[np.ix_(g, g)] += m
        tr, off = int(np.trace(m)), int(m.sum() - np.trace(m))
        assert (t * np.diag(total) == len(group) * tr).all()
        assert (t * (t - 1) * total[~np.eye(t, dtype=bool)] == len(group) * off).all()


def test_two_transitive_is_none_past_the_prime_power_families():
    assert designs.two_transitive(15) is None
    assert designs.two_transitive(1) is None


def test_only_small_groups_are_kept(monkeypatch):
    assert designs.two_transitive(5) is designs.two_transitive(5)
    monkeypatch.setattr(designs, "_KEPT_GROUP_LABELS", 5 * 4 * 5 - 1)
    group = designs.two_transitive(5)
    assert group is not designs.two_transitive(5) and not group.flags.writeable
    assert np.array_equal(group, designs._kept_group(5))


@pytest.mark.parametrize("abt, n", [((2, 2, 24), 2), ((2, 2, 102), 1)])
def test_construct_at_a_large_t_searches_without_building_the_group(monkeypatch, abt, n):
    # n_G >= 6072 for t = 24 (PSL(2, 23)) and 515,100 for t = 102
    # (PSL(2, 101)), worked out from the order alone
    def refuse(t):
        raise AssertionError(f"built the group of t = {t}")
    monkeypatch.setattr(designs, "_build_group", refuse)
    monkeypatch.setattr(designs, "_kept_group", refuse)
    design, _ = construct_exact(Shape(*abt), n, effort=1)
    assert design.n == n


# n_G = |G| L: (2,3,4) has one orbit, weight 1, and AGL(1, 4) of order 12;
# (2,3,2) weights 7/8 and 1/8 over S_2, (2,3,3) 7/9 and 2/9 over S_3
@pytest.mark.parametrize("abt, n_g, sigma", [
    ((2, 3, 4), 12, IDENTITY), ((2, 3, 4), 12, TypeH(Fraction(3, 2))),
    ((2, 3, 2), 16, IDENTITY), ((2, 3, 3), 54, IDENTITY)],
    ids=["234", "234-type-h", "232", "233"])
def test_construct_returns_an_exactly_optimal_group_design(monkeypatch, abt, n_g, sigma):
    monkeypatch.setattr(designs, "_slot_pick", None)  # no search is run
    shape = Shape(*abt)
    design, rep = construct_exact(shape, n_g, sigma)
    assert design.n == n_g
    res = solve_closed_form(shape, sigma)
    check = verify_measure(measure_of_design(design), sigma, res.x_star, res.y_star)
    assert check.optimal
    assert all(v == 0 for v in (check.balance_residual, check.slope_residual,
                                check.support_mass, check.info_residual))
    assert np.allclose(rep.astuple(), 1.0, rtol=0, atol=1e-12)
    again = construct_exact(shape, 2 * n_g, sigma, seed=5, effort=1)[0]
    assert np.array_equal(again.blocks.labels, np.tile(design.blocks.labels, (2, 1)))


@pytest.mark.parametrize("abt, n", [((2, 3, 4), 12), ((2, 5, 5), 20)])
def test_construct_group_design_under_a_one_orbit_exchange_optimum(monkeypatch, abt, n):
    # AR(0.5) has a one-orbit optimum on these shapes: its AGL(1, t) design
    monkeypatch.setattr(designs, "_slot_pick", None)
    p = abt[0] * abt[1]
    ar = GeneralCov.from_matrix(0.5 ** np.abs(np.subtract.outer(range(p), range(p))))
    design, rep = construct_exact(Shape(*abt), n, ar)
    assert design.n == n
    assert all(abs(v - 1) <= 1e-12 for v in rep.astuple())


def test_construct_searches_where_the_group_design_does_not_fit(monkeypatch):
    # (2,3,2) has n_G = 16, so n = 4 is searched
    calls = []
    real = designs._slot_pick
    monkeypatch.setattr(designs, "_slot_pick", lambda *args: calls.append(1) or real(*args))
    construct_exact(Shape(2, 3, 2), 4, seed=1)
    assert calls


@pytest.mark.parametrize("abt, n", [((2, 2, 32), 4), ((2, 3, 7), 1), ((2, 2, 9), 2)])
def test_construct_returns_its_rounded_start_when_a_treatment_is_missing(monkeypatch, abt, n):
    # n p < t: some treatment is in no block, so every design scores 0
    def refuse(*args):
        raise AssertionError("a slot was picked")
    monkeypatch.setattr(designs, "_slot_pick", refuse)
    shape = Shape(*abt)
    design, rep = construct_exact(shape, n, seed=3)
    assert design.n == n and len({v for s in design.blocks for v in s.colex}) < shape.t
    assert rep.astuple() == (0.0, 0.0, 0.0, 0.0)
    assert rep.diagnostic.startswith("some treatment contrast is not estimable")
    assert construct_exact(shape, n, TypeH(Fraction(3, 2)), seed=3)[0] == design


def test_construct_searches_once_every_treatment_can_appear(monkeypatch):
    calls = []
    real = designs._slot_pick
    monkeypatch.setattr(designs, "_slot_pick", lambda *args: calls.append(1) or real(*args))
    construct_exact(Shape(2, 2, 8), 2, effort=1)  # n p = t
    assert calls


def test_every_public_entry_refuses_type_h_offsets_of_the_wrong_length(optimal_design_232):
    shape, bad = Shape(2, 3, 2), TypeH(1, y=(0.5,))
    res = solve_closed_form(shape)
    xi, pool = res.measure, full_pool(shape)
    calls = [
        lambda: solve_closed_form(shape, bad),
        lambda: solve_exchange(shape, bad),
        lambda: r_eval(Fraction(0), pool, bad),
        lambda: r_eval(0.0, pool, bad),
        lambda: verify_measure(xi, bad, res.x_star, res.y_star),
        lambda: verify_measure(xi, bad, float(res.x_star), float(res.y_star)),
        lambda: equivalence_gap(xi, pool, bad),
        lambda: measure_triple(xi, bad),
        lambda: q_star(xi, bad),
        lambda: triple_table(pool, bad),
        lambda: btilde(bad, shape.p),
        lambda: info_matrix_exact(optimal_design_232, bad),
        lambda: efficiencies(optimal_design_232, bad),
        lambda: efficiencies(optimal_design_232, bad, y_star=1.0),
        lambda: construct_exact(shape, 4, bad),
        lambda: construct_exact(shape, 16, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="type-H offset vector must have length 6"):
            call()


def _orbit_sample_one_draw_at_a_time(ranks, t, cap, rng):
    # the sampler as first written: one rng.permutation(t) per draw
    rho = int(ranks.max()) + 1
    if math.perm(t, rho) <= cap:
        return orbit_labels(ranks, t)
    seen = {tuple(range(1, rho + 1))}
    for _ in range(50 * cap):
        if len(seen) >= cap:
            break
        seen.add(tuple((rng.permutation(t)[:rho] + 1).tolist()))
    return orbit_labels(ranks, t, sorted(seen))


def test_orbit_sample_batches_draw_what_single_draws_draw():
    # the same rows, and the generator left where single draws leave it
    for t, cap, seed in itertools.product(range(2, 10), (2, 5, 64, 100), range(3)):
        for rho in range(1, t + 1):
            ranks = np.arange(rho)
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _orbit_sample_one_draw_at_a_time(ranks, t, cap, want_rng)
            assert np.array_equal(designs._orbit_sample(ranks, t, cap, got_rng), want)
            assert got_rng.random() == want_rng.random()
