"""Covariance kernels, coefficient paths, information matrices."""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np
import pytest

import fielddesign.model as model

from fielddesign.arrays import BlockArray, Shape, label_dtype, label_matrix
from fielddesign.model import (
    IDENTITY,
    GeneralCov,
    Identity,
    TypeH,
    bind,
    btilde,
    centering_projector,
    component_table,
    exact_value,
    info_matrix_exact,
    schur_complement,
    schur_numerators,
    sigma_from_json,
    symmetric_pinv,
    triple_table,
)
from fielddesign.optimality import (
    Measure,
    full_pool,
    measure_triple,
    r_eval,
    solve_closed_form,
    verify_measure,
)

from .conftest import (
    OPTIMAL_BLOCKS_232,
    SBS_ROWS_2X3,
    all_arrays,
    array_of,
    design_of,
    numerators_agree,
)
from .reference_model import (
    c11_base,
    c_coeffs_closed,
    incidence_matrices,
    info_matrix_measure,
    sigma_matrix,
)


def _ar_cov(p: int, rho: float = 0.3) -> GeneralCov:
    return GeneralCov.from_matrix(
        [[rho ** abs(i - j) for j in range(p)] for i in range(p)])


def test_btilde_identity_is_centering():
    p = 6
    expect = np.eye(p) - np.full((p, p), 1 / p)
    assert np.allclose(btilde(IDENTITY, p), expect)


def test_btilde_type_h_rescales():
    p = 6
    assert np.allclose(btilde(TypeH(Fraction(3, 2)), p),
                       btilde(IDENTITY, p) / 1.5)


def test_btilde_type_h_ignores_offset_vector():
    # the symmetric rank-two part cancels against the block mean
    p = 4
    full = TypeH(2, y=(0.3, -0.1, 0.25, 0.0))
    m = sigma_matrix(full, p)
    inv = np.linalg.inv(m)
    u = inv.sum(axis=1)
    direct = inv - np.outer(u, u) / u.sum()
    assert np.allclose(direct, btilde(IDENTITY, p) / 2, atol=1e-10)


def test_btilde_general_annihilates_constants():
    p = 6
    bt = btilde(_ar_cov(p), p)
    assert np.allclose(bt @ np.ones(p), 0, atol=1e-12)
    assert np.allclose(bt, bt.T)
    assert np.linalg.eigvalsh(bt)[0] > -1e-12


def test_general_cov_validation():
    with pytest.raises(ValueError):
        GeneralCov.from_matrix([[1.0, 0.5]])
    with pytest.raises(ValueError):
        GeneralCov.from_matrix([[1.0, 0.9], [0.2, 1.0]])
    with pytest.raises(ValueError):
        GeneralCov.from_matrix([[1.0, 2.0], [2.0, 1.0]])  # indefinite


def test_sigma_from_json_forms():
    assert sigma_from_json({"type": "identity"}) == IDENTITY
    th = sigma_from_json({"type": "type-h", "x": "3/2"})
    assert isinstance(th, TypeH) and th.x == Fraction(3, 2)
    th2 = sigma_from_json({"type": "type-h", "x": 2, "y": [0.1, 0.2]})
    assert th2.x == 2 and th2.y == (0.1, 0.2)
    g = sigma_from_json([[1.0, 0.2], [0.2, 1.0]])
    assert isinstance(g, GeneralCov)
    with pytest.raises(ValueError):
        sigma_from_json({"type": "wishful"})


# type-H descriptions that sigma_from_json refuses with ValueError
BAD_TYPE_H = {
    "zero-denominator": {"type": "type-h", "x": "1/0"},
    "overflow": {"type": "type-h", "x": 1e400},
    "huge-exact": {"type": "type-h", "x": "1e400"},
    "boolean": {"type": "type-h", "x": True},
    "missing-x": {"type": "type-h"},
    "zero": {"type": "type-h", "x": 0},
    "nan": {"type": "type-h", "x": float("nan")},
    "offsets-not-a-list": {"type": "type-h", "x": 1, "y": 5},
    "offsets-string": {"type": "type-h", "x": 1, "y": "0000"},
    "offsets-boolean": {"type": "type-h", "x": 1, "y": [0, True, 0, 0]},
}


@pytest.mark.parametrize("obj", BAD_TYPE_H.values(), ids=BAD_TYPE_H.keys())
def test_sigma_from_json_refuses_bad_type_h(obj):
    with pytest.raises(ValueError):
        sigma_from_json(obj)


@pytest.mark.parametrize("x", [0, -1, float("inf"), float("nan"), Fraction(10**400)])
def test_type_h_refuses_a_weight_not_positive_and_finite(x):
    with pytest.raises(ValueError, match="positive and finite"):
        TypeH(x)


@pytest.mark.parametrize("x", [1e-310, Fraction(1, 10**310)])
def test_type_h_refuses_a_weight_whose_inverse_overflows(x):
    with pytest.raises(ValueError, match="so must 1/x"):
        TypeH(x)


def test_dense_sigma_with_a_nan_eigenvalue_is_refused(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.full(len(m), np.nan))
    with pytest.raises(ValueError, match="positive definite"):
        GeneralCov.from_matrix(np.eye(3))


def test_dense_sigma_whose_kernel_overflows_is_refused():
    with pytest.raises(ValueError, match="not finite"):
        GeneralCov.from_matrix(1e-310 * np.eye(6))


@pytest.mark.parametrize("m", [
    [[True, False], [False, True]],
    [[1.0, 0.0], [0.0, True]],
    np.eye(2, dtype=bool),
    [[1.0, np.False_], [np.False_, 1.0]],
], ids=["python", "one-entry", "numpy-array", "numpy-scalars"])
def test_dense_sigma_refuses_booleans(m):
    # True and False are not 1 and 0 here, as for a type-H x
    with pytest.raises(ValueError, match="not booleans"):
        GeneralCov.from_matrix(m)
    with pytest.raises(ValueError, match="not booleans"):
        sigma_from_json({"matrix": m})


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
def test_dense_sigma_symmetry_check_is_scale_free(scale):
    # an absolute atol once let the skewed matrix through at 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        GeneralCov.from_matrix(np.array([[1.0, 50.0], [0.0, 1.0]]) * scale)
    idx = np.arange(6)
    ar = 0.5 ** np.abs(idx[:, None] - idx[None, :]) * scale
    assert np.array_equal(GeneralCov.from_matrix(ar).array(), ar)


# each spec is built inside the check: a type-H spec that is not positive
# definite is refused when it is made
@pytest.mark.parametrize("sigma, match", [
    (functools.partial(TypeH, 1, y=(0.5,)), "length 6"),
    (functools.partial(TypeH, 1, y=(-3, 0, 0, 0, 0, 0)), "positive definite"),
    (functools.partial(_ar_cov, 4), "need 6x6"),
])
def test_sigma_matrix_and_pair_kernel_refuse_a_bad_matrix(sigma, match):
    with pytest.raises(ValueError, match=match):
        sigma_matrix(sigma(), 6)
    with pytest.raises(ValueError, match=match):
        triple_table([array_of(2, 3, 2, OPTIMAL_BLOCKS_232[0])], sigma())


@pytest.mark.parametrize("x", [Fraction(1), 1.0], ids=["exact", "float"])
def test_type_h_offsets_are_refused_alike_on_exact_and_float_paths(x):
    # the exact paths never built the float matrix whose eigenvalues refused
    # these offsets: solve_closed_form, measure_triple and r_eval returned values
    shape = Shape(2, 3, 3)
    xi, pool = solve_closed_form(shape).measure, full_pool(shape)
    for call in (lambda s: solve_closed_form(shape, s), lambda s: measure_triple(xi, s),
                 lambda s: r_eval(Fraction(0), pool, s)):
        with pytest.raises(ValueError, match="positive definite"):
            call(TypeH(x, y=(-3, 0, 0, 0, 0, 0)))


def test_type_h_offset_test_is_exact_and_agrees_with_the_eigenvalues():
    # y = -x/(2p) 1 makes x + 2 p y_1, an eigenvalue, exactly 0; the float
    # matrix of the first offsets below overflows
    for x, y in ((1, (-0.25, -0.25)), (Fraction(3, 2), (Fraction(-3, 16),) * 4),
                 (1.0, (1e308, 0, 0, 0, 0, 0)), (1, (float("inf"), 0)), (1, (float("nan"), 0))):
        with pytest.raises(ValueError, match="positive definite|finite"):
            TypeH(x, y=y)
    TypeH(1, y=(-0.25, -0.2499999))
    TypeH(1, y=(1e308,) * 6)  # y = c 1 with c > 0 adds 2 p c to one eigenvalue
    rng = np.random.default_rng(12)
    for _ in range(2000):
        p, x = int(rng.integers(1, 10)), float(rng.exponential())
        y = rng.normal(size=p) * rng.exponential()
        least = np.linalg.eigvalsh(x * np.eye(p) + np.add.outer(y, y))[0]
        if abs(least) > 1e-9:
            try:
                TypeH(x, y=tuple(y))
            except ValueError:
                assert least < 0
            else:
                assert least > 0


def test_exact_value_is_the_one_exactness_rule():
    for v, want in ((3, Fraction(3)), (np.int64(-3), Fraction(-3)), (np.uint8(7), Fraction(7)),
                    (Fraction(5, 2), Fraction(5, 2)),
                    (Fraction(np.int64(2), np.int64(6)), Fraction(1, 3))):
        got = exact_value(v)
        assert got == want and type(got) is Fraction
        assert type(got.numerator) is int and type(got.denominator) is int
    for v in (0.5, 2.0, np.float64(2.0), "1/2", None):
        assert exact_value(v) is None
    assert bind(6, TypeH(np.int64(3))).scale == Fraction(1, 3)
    assert type(bind(6, TypeH(1.5)).scale) is float


def test_identity_is_type_h_with_unit_weight():
    assert isinstance(IDENTITY, TypeH) and repr(IDENTITY) == "Identity()"
    with pytest.raises(TypeError):
        Identity(x=2)
    for p in (4, 6, 9, 16):
        assert (btilde(IDENTITY, p) == btilde(TypeH(Fraction(1)), p)).all()
        assert (sigma_matrix(IDENTITY, p) == np.eye(p)).all()
    for abt in ((2, 3, 2), (2, 3, 5), (3, 3, 4)):
        shape = Shape(*abt)
        pool = full_pool(shape)
        got = [(triple_table(pool, sigma), component_table(pool, sigma),
                solve_closed_form(shape, sigma)) for sigma in (IDENTITY, TypeH(Fraction(1)))]
        (tab, comp, res), (tab1, comp1, res1) = got
        assert (tab == tab1).all() and (comp == comp1).all(), abt
        assert res.to_json() == res1.to_json(), abt
        reports = [verify_measure(res.measure, sigma, res.x_star, res.y_star).to_json()
                   for sigma in (IDENTITY, TypeH(Fraction(1)))]
        assert reports[0] == reports[1], abt


@pytest.mark.parametrize("float_first", [True, False])
def test_kept_type_h_bound_keeps_the_exactness_of_its_weight(float_first):
    # TypeH(1.5) == TypeH(Fraction(3, 2)) and both hash alike; bind keeps a
    # BoundCov per weight, keyed on its type too, so neither binds to the
    # other's scale, whichever comes first into an empty store
    model._bound_type_h.cache_clear()
    sigmas = [TypeH(1.5), TypeH(Fraction(3, 2))]
    for sigma in sigmas if float_first else sigmas[::-1]:
        cov = bind(Shape(2, 3, 2), sigma)
        assert bind(6, sigma) is cov  # kept, and read back
        assert type(cov.scale) is type(sigma.x) and cov.scale == 1 / sigma.x
    assert model._bound_type_h.cache_info().currsize == 2


def test_reference_array_coefficients():
    # (1,1;2,3;4,5): c00 = 14/3, c01 = -1, c11 = 101/15, eta = 206/15
    shape = Shape(2, 3, 5)
    assert c11_base(shape) == Fraction(206, 15)
    c = c_coeffs_closed(array_of(2, 3, 5, SBS_ROWS_2X3))
    assert c.astuple() == (Fraction(14, 3), Fraction(-1), Fraction(101, 15))


def test_coefficient_paths_agree_random():
    rng = np.random.default_rng(17)
    for shape in (Shape(2, 3, 5), Shape(3, 3, 4), Shape(3, 4, 7)):
        for _ in range(20):
            s = BlockArray.from_colex(
                shape, rng.integers(1, shape.t + 1, size=shape.p))
            assert numerators_agree(s), s


def test_triple_table_matches_per_array():
    shape = Shape(2, 3, 3)
    pool = [s for _, s in zip(range(40), all_arrays(shape))]
    table = triple_table(pool, IDENTITY)
    for k, s in enumerate(pool):
        c = c_coeffs_closed(s)
        assert np.allclose(table[k], [float(v) for v in c.astuple()])


def test_incidence_shapes_and_row_sums():
    s = array_of(2, 3, 5, SBS_ROWS_2X3)
    inc = incidence_matrices(s)
    assert inc.t0.shape == (6, 5)
    assert inc.t0.sum() == 6  # one treatment per plot
    # neighbor totals: interior plots of a 2x3 grid have 3 neighbors,
    # corners 2
    assert sorted(inc.f.sum(axis=1)) == [2, 2, 2, 2, 3, 3]


def test_info_matrix_zero_row_sums():
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    c = info_matrix_exact(d)
    assert np.allclose(c @ np.ones(2), 0, atol=1e-12)
    c_ar = info_matrix_exact(d, _ar_cov(6))
    assert np.allclose(c_ar @ np.ones(2), 0, atol=1e-12)


def test_optimal_design_info_matrix_value():
    # universally optimal 4-block design: C = n y* B_t / (t-1) = 12 B_2
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    c = info_matrix_exact(d)
    assert np.allclose(c, 12 * centering_projector(2), atol=1e-10)


def test_type_h_info_matrix_is_scaled_identity_info():
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    base = info_matrix_exact(d)
    scaled = info_matrix_exact(d, TypeH(Fraction(5, 2)))
    assert np.allclose(scaled, base / 2.5, atol=1e-10)


def test_info_matrix_measure_matches_design_average():
    d = design_of(2, 3, 2, OPTIMAL_BLOCKS_232)
    xi = Measure(d.shape, {
        array_of(2, 3, 2, OPTIMAL_BLOCKS_232[0]): Fraction(1, 2),
        array_of(2, 3, 2, OPTIMAL_BLOCKS_232[2]): Fraction(1, 4),
        array_of(2, 3, 2, OPTIMAL_BLOCKS_232[3]): Fraction(1, 4),
    })
    per_n = info_matrix_exact(d) / d.n
    assert np.allclose(info_matrix_measure(xi), per_n, atol=1e-10)


def test_exact_measure_info_is_rational():
    xi = Measure(Shape(2, 3, 2), {array_of(2, 3, 2, [[1, 2, 1], [2, 1, 2]]): Fraction(1)})
    c = info_matrix_measure(xi, exact=True)
    assert isinstance(c[0, 0], Fraction)
    assert c[0, 0] + c[0, 1] == 0


def test_exact_information_refuses_float_weights_and_dense_sigma():
    s = array_of(2, 3, 2, [[1, 2, 1], [2, 1, 2]])
    with pytest.raises(ValueError, match="exact weights"):
        info_matrix_measure(Measure(s.shape, {s: 1.0}), exact=True)
    with pytest.raises(ValueError, match="exact path"):
        info_matrix_measure(Measure.point(s), _ar_cov(6), exact=True)
    with pytest.raises(ValueError, match="exact path"):
        info_matrix_exact(design_of(2, 3, 2, OPTIMAL_BLOCKS_232), TypeH(1.5), exact=True)


def test_exact_schur_complement_agrees_with_float():
    rng = np.random.default_rng(3)
    t = 3
    for k in range(10):
        # joint [[C11, C10], [C01, C00]] = G'G is PSD; rank G < t makes C11 singular
        g = rng.integers(-3, 4, size=(1 + k % (t - 1), 2 * t))
        if k % 3 == 0:
            g[:, k % t] = 0  # a zero row and column in C11
        joint = g.T @ g  # int64, the integer numerators of joint / (1 + k)
        n11, n01, n00 = joint[:t, :t], joint[t:, :t], joint[t:, t:]
        assert np.linalg.matrix_rank(n11) < t
        num, pivot = schur_numerators(n00, n01, n11)
        assert all(type(v) is int for v in num.flat) and type(pivot) is int and pivot > 0
        got = num * Fraction(1, pivot * (1 + k))
        assert (got == got.T).all()
        want = schur_complement(*(c / (1 + k) for c in (n00, n01, n11)))
        assert np.allclose(np.array(got, dtype=float), want, atol=1e-9)


def test_stacked_symmetric_pinv_equals_per_matrix_calls():
    rng = np.random.default_rng(5)
    t = 5
    mats = []
    for rank in (5, 4, 2, 0):
        f = rng.normal(size=(t, rank))
        mats.append(f @ f.T)
    mats.append(np.diag([3.0, 1e-12, 2.0, 0.0, 5.0]))  # cutoff keeps 3 of 5
    mats.append(1e-12 * mats[0])  # below the others' cutoffs, not its own
    stack = np.array(mats)
    got = symmetric_pinv(stack)
    assert got.shape == stack.shape
    for g, m in zip(got, stack):
        assert np.array_equal(g, symmetric_pinv(m))
    # a (2, k, t, t) stack inverts each matrix on its own as well
    assert np.array_equal(symmetric_pinv(np.array([stack, stack[::-1]]))[1], got[::-1])


def test_label_matrix_is_colex_order():
    rng = np.random.default_rng(2)
    for a, b, t in ((2, 3, 4), (3, 4, 3), (2, 2, 3)):
        shape = Shape(a, b, t)
        pool = [BlockArray.from_colex(shape, rng.integers(1, t + 1, size=a * b).tolist())
                for _ in range(7)]
        lab = label_matrix(pool)
        assert lab.dtype == label_dtype(t)
        assert lab.tolist() == [list(s.colex) for s in pool]


def test_centering_projector_forms():
    b3 = centering_projector(3)
    assert np.allclose(b3, b3 @ b3)
    assert np.allclose(b3, [[2 / 3 if i == j else -1 / 3 for j in range(3)] for i in range(3)])
