import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dunkl.exact import ComplexRational
from dunkl.kernel import (
    certified_radius,
    convolution_check,
    derivative_relation_check,
    fourier_check,
    gaussian_image_check,
    gaussian_taylor,
    heat_image,
    hermite_piece,
    lk_eval,
    lk_grid,
    lk_mass,
    lk_polynomial,
    lk_series_value,
    make_evaluator,
    phi_x_apply,
    phi_x_norm,
    positivity_scan,
    symmetry_scan,
    tail_bound,
    _polys_match,
)
from dunkl.operators import (
    TruncationError,
    _recurrence_tail,
    _tail_term,
    _vk_monomial,
    dunkl_kernel,
    ek_tail_bound,
    evaluate_en,
    homogeneous_kernel,
    intertwine,
    make_context,
    monomial_basis,
)
from dunkl.poly import Polynomial, inverse_heat_half
from dunkl.quad import gauss_rule
from dunkl.reflection_groups import (
    build_root_system,
    generate_group,
    select_positive,
    validate_multiplicity,
)


def hermite_path(ev, x, y, n_trunc=None):
    """The Hermite path summed over degrees: sum_nu V(phi_nu)(x) H_nu(y)."""
    top = ev.n_trunc if n_trunc is None else n_trunc
    return sum(hermite_piece(ev, n, x, y) for n in range(top + 1))


def make_ev(family, k_values, n_trunc, **kw):
    system = build_root_system(family, **kw)
    pos = select_positive(system)
    group = generate_group(pos)
    k = validate_multiplicity(pos, k_values)
    ctx = make_context(group, pos, k)
    return make_evaluator(ctx, n_trunc)


@pytest.fixture(scope="module")
def ev_z21_zero():
    return make_ev("Z2^d", Fraction(0), 30, d=1)


@pytest.fixture(scope="module")
def ev_z21():
    return make_ev("Z2^d", Fraction(1, 2), 24, d=1)


@pytest.fixture(scope="module")
def ev_b2():
    return make_ev(
        "B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, 12, d=2
    )


@pytest.fixture(scope="module")
def rule1():
    return gauss_rule(1, 40)


@pytest.fixture(scope="module")
def rule2():
    return gauss_rule(2, 40)


def test_zero_weight_closed_form(ev_z21_zero):
    for x, y in ((0.7, 1.1), (-1.2, 0.4), (1.5, -1.5)):
        got = lk_series_value(ev_z21_zero, (x,), (y,))
        want = math.exp(x * y - x * x / 2)
        assert abs(complex(got) - want) < 1e-10


def test_kernel_at_x_zero_is_one(ev_b2):
    val = lk_series_value(ev_b2, (0.0, 0.0), (0.9, -1.3))
    assert complex(val) == 1.0


def test_two_path_exact_agreement(ev_b2):
    pts = [
        ((Fraction(1, 3), Fraction(-2, 5)), (Fraction(1, 2), Fraction(1, 7))),
        ((Fraction(-1, 2), Fraction(1, 4)), (Fraction(2, 3), Fraction(-1))),
    ]
    for x, y in pts:
        assert lk_series_value(ev_b2, x, y) == hermite_path(ev_b2, x, y)


def test_two_path_float_agreement(ev_b2):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = tuple(rng.uniform(-1.5, 1.5, 2))
        y = tuple(rng.uniform(-1.5, 1.5, 2))
        s = complex(lk_series_value(ev_b2, x, y))
        h = complex(hermite_path(ev_b2, x, y))
        assert abs(s - h) <= 1e-9


def test_hermite_path_at_truncation_zero(ev_b2):
    # only nu = 0 survives at x = 0
    assert hermite_path(ev_b2, (0.0, 0.0), (1.0, 2.0), n_trunc=0) == 1.0


def test_zero_weight_one_dim_degree_one():
    ev = make_ev("Z2^d", Fraction(0), 1, d=1)
    x, y = 0.4, -0.8
    got = complex(lk_series_value(ev, (x,), (y,)))
    assert abs(got - (1 + x * y)) < 1e-15


def test_lk_eval_rejects_outside_certified_radius(ev_z21):
    with pytest.raises(TruncationError):
        lk_eval(ev_z21, (8.0,), (1.0,), tol=1e-10)
    val = lk_eval(ev_z21, (0.4,), (0.6,), tol=1e-8)
    assert val.tail.value < 1e-8


def test_tail_bound_monotone_and_dominates(ev_b2):
    xn, yn = 0.4, 0.9
    # for k >= 0 the whole series sum_n |x|^n [t^n] e^{|y| t + t^2/2} is
    # e^{|x|^2/2 + |x| |y|}: no delta_hat, |G| or d
    envelope = math.exp(xn * xn / 2.0 + xn * yn)
    prev = math.inf
    for n in range(6, ev_b2.n_trunc + 1):
        tb = tail_bound(ev_b2, xn, yn, n)
        assert 0.0 <= tb.value <= prev + 1e-300
        assert tb.value <= envelope
        prev = tb.value
    # the discarded computed terms never exceed the bound
    x = (0.3, 0.2)
    y = (0.5, -0.7)
    n0 = 6
    removed = sum(
        abs(complex(heat_image(ev_b2, n, x).evaluate(y)))
        for n in range(n0 + 1, ev_b2.n_trunc + 1)
    )
    assert removed <= tail_bound(ev_b2, math.hypot(*x), math.hypot(*y), n0).value


def test_tail_bound_cache_keeps_nearby_norms_apart(ev_b2):
    # the bound at a slightly larger |x| is larger, never a cached smaller one
    near = tail_bound(ev_b2, 0.3, 1.0).value
    assert tail_bound(ev_b2, 0.3 + 4e-13, 1.0).value > near


def test_cached_records_are_immutable(ev_b2):
    # _tail_cache hands the same TailBound to every caller, so none may edit it
    tb = tail_bound(ev_b2, 0.3, 1.0)
    with pytest.raises(AttributeError):
        tb.value = 0.0
    assert tail_bound(ev_b2, 0.3, 1.0) is tb
    val = dunkl_kernel(ev_b2.ctx, (Fraction(1, 2), Fraction(1, 3)), (0, 0), tol=1e-12)
    with pytest.raises(AttributeError):
        val.value = 0


def test_certified_radius_monotone(ev_b2):
    r_loose = certified_radius(ev_b2, 1e-4, 1.0)
    r_tight = certified_radius(ev_b2, 1e-8, 1.0)
    assert 0 < r_tight < r_loose
    assert tail_bound(ev_b2, r_tight * 0.99, 1.0).value < 1e-8


def test_mass_identity(ev_b2, ev_z21):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x2 = tuple(rng.uniform(-1.5, 1.5, 2))
        assert abs(complex(lk_mass(ev_b2, x2)) - 1) < 1e-12
        x1 = (rng.uniform(-1.5, 1.5),)
        assert abs(complex(lk_mass(ev_z21, x1)) - 1) < 1e-12


def test_mass_zero_weight_closed_form(ev_z21_zero):
    # integral of e^{x y - x^2/2} dgamma(y) = 1 for every x
    assert abs(complex(lk_mass(ev_z21_zero, (1.2,))) - 1) < 1e-12


def test_phi_x_of_constant_is_one(ev_b2, rule2):
    [val] = phi_x_apply(ev_b2, (0.4, -0.2), [Polynomial.constant(2, 1.0)], rule2)
    assert abs(complex(val) - 1) < 1e-12


def test_phi_x_reconstructs_intertwine(ev_b2, rule2):
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = tuple(rng.uniform(-0.8, 0.8, 2))
        ps = [Polynomial.monomial(2, nu) for nu in ((0, 0), (1, 0), (2, 1), (3, 3), (0, 4))]
        for p, got in zip(ps, phi_x_apply(ev_b2, x, ps, rule2)):
            want = intertwine(ev_b2.ctx, inverse_heat_half(p)).evaluate(x)
            bound = tail_bound(ev_b2, math.hypot(*x), 0.0).value + 1e-10
            assert abs(complex(got) - complex(want)) <= max(bound, 1e-10)


def test_phi_x_positive_on_bump(ev_z21, rule1):
    def bump(z):
        return 1.0 / (1.0 + float(z[0]) ** 2)

    [val] = phi_x_apply(ev_z21, (0.5,), [bump], rule1)
    assert complex(val).real >= -1e-8


def test_phi_x_norm_at_origin(ev_b2):
    s, q = phi_x_norm(ev_b2, (0.0, 0.0))
    assert abs(s - 1.0) < 1e-14
    assert abs(q - 1.0) < 1e-13


def test_phi_x_norm_zero_weight_matches_exponential():
    ev = make_ev("Z2^d", Fraction(0), 12, d=1)
    s, q = phi_x_norm(ev, (1.0,))
    assert abs(s * s - math.e) < 1e-6
    assert abs(q * q - math.e) < 1e-6
    assert abs(s - q) / s < 1e-6


def test_phi_x_norm_route_agreement(ev_b2):
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = tuple(rng.uniform(-0.7, 0.7, 2))
        s, q = phi_x_norm(ev_b2, x)
        assert abs(s - q) / s < 1e-6


def test_convolution_zero_weight(ev_z21_zero):
    # both sides are e^{x y}
    from dunkl.operators import evaluate_en

    for x, y in ((0.6, 0.3), (-0.9, 0.5)):
        res = convolution_check(ev_z21_zero, (x,), (y,))
        assert res < 1e-10
        lhs = sum(
            complex(evaluate_en(ev_z21_zero.ctx, n, (x,), (y,)))
            for n in range(ev_z21_zero.n_trunc + 1)
        )
        assert abs(lhs - math.exp(x * y)) < 1e-10


def test_convolution_at_float_points_reads_the_evaluator_table():
    # the check reads the V table make_evaluator filled, at float and at
    # rational points alike, and a second evaluator adds no entry to it
    ev = make_ev("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, 12, d=2)
    before = len(ev.ctx.vk_cache)
    x, y = (0.05, -0.03), (0.4, 0.6)
    res = convolution_check(ev, x, y)
    exact_res = convolution_check(make_evaluator(ev.ctx, 12), _rational(x), _rational(y))
    assert len(ev.ctx.vk_cache) == before
    assert abs(res - exact_res) < 1e-12


def test_convolution_at_x_zero(ev_b2):
    assert convolution_check(ev_b2, (0.0, 0.0), (0.7, -0.4)) < 1e-13


def test_convolution_within_radius(ev_b2):
    radius = certified_radius(ev_b2, 1e-6, 1.0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = tuple(rng.uniform(-radius / 2, radius / 2, 2))
        y = tuple(rng.uniform(-0.7, 0.7, 2))
        assert convolution_check(ev_b2, x, y) <= 1e-6


def test_gaussian_image_conventions_zero_weight(ev_z21_zero):
    res = gaussian_image_check(ev_z21_zero, (Fraction(3, 5),), (Fraction(9, 10),), taylor_degree=40)
    assert res["minus"] <= 1e-10
    assert res["plus"] >= 0.1
    assert res["minus"] <= res["trunc_bound"] + 1e-12


def test_gaussian_image_agrees_at_x_zero(ev_z21):
    res = gaussian_image_check(ev_z21, (Fraction(0),), (Fraction(4, 5),))
    assert res["plus"] < 1e-9 and res["minus"] < 1e-9


def test_gaussian_image_nonnegative_weight(ev_z21):
    res = gaussian_image_check(ev_z21, (Fraction(1, 2),), (Fraction(3, 4),))
    assert res["minus"] <= 1e-8
    assert res["plus"] >= 1e-3


def test_fourier_conventions(ev_z21_zero, ev_z21):
    res = fourier_check(ev_z21_zero, (0.7,), (1.1,))
    assert res["plus"] <= 1e-10
    assert res["minus"] >= 0.1
    res = fourier_check(ev_z21, (0.5,), (0.8,))
    assert res["plus"] <= 1e-8


def test_fourier_at_x_zero(ev_z21):
    res = fourier_check(ev_z21, (0.0,), (0.9,))
    assert res["plus"] < 1e-12 and res["minus"] < 1e-12


def test_fourier_matches_convolution_at_y_zero(ev_z21):
    # at y = 0 both conventions integrate E(+-i x, z) dgamma(z) against 1
    res = fourier_check(ev_z21, (0.6,), (0.0,))
    assert res["plus"] < 1e-10 and res["minus"] < 1e-10


def test_derivative_relation_zero_weight(ev_z21_zero):
    res = derivative_relation_check(ev_z21_zero, (Fraction(1, 2),), (Fraction(3, 4),), 0)
    assert res["minus"] < 1e-10
    assert res["plus"] > 0.1
    # closed form of the validating side: d/dy e^{x y - x^2/2 - y^2/2}
    x, y = 0.5, 0.75
    ev = ev_z21_zero
    window = math.exp(-y * y / 2)
    lhs = complex(
        sum(
            heat_image(ev, n, (x,)).partial(0).evaluate((y,))
            - y * heat_image(ev, n, (x,)).evaluate((y,))
            for n in range(ev.n_trunc + 1)
        )
    ) * window
    want = (x - y) * math.exp(x * y - x * x / 2 - y * y / 2)
    assert abs(lhs - want) < 1e-12


def test_derivative_relation_at_x_zero(ev_z21):
    res = derivative_relation_check(ev_z21, (Fraction(0),), (Fraction(1, 2),), 0)
    assert res["minus"] < 1e-10


def test_derivative_relation_float_point_on_exact_evaluator(ev_b2):
    # float points put float coefficients into T_j on the exact context
    got = derivative_relation_check(ev_b2, (0.3, -0.2), (0.5, 0.4), 0)
    want = derivative_relation_check(
        ev_b2, (Fraction(3, 10), Fraction(-1, 5)), (Fraction(1, 2), Fraction(2, 5)), 0
    )
    assert want["minus"] < 1e-9
    for side in ("plus", "minus"):
        assert abs(got[side] - want[side]) <= 1e-9


def test_derivative_relation_b2(ev_b2):
    worst = 0.0
    x = (Fraction(1, 4), Fraction(-1, 5))
    y = (Fraction(2, 5), Fraction(1, 3))
    for j in (0, 1):
        worst = max(worst, derivative_relation_check(ev_b2, x, y, j)["minus"])
    assert worst <= 1e-7


def test_symmetry_scan_exact(ev_b2):
    rep = symmetry_scan(ev_b2, [(Fraction(1, 3), Fraction(-1, 2))])
    assert rep.failures == ()
    assert rep.checked == (ev_b2.n_trunc + 1) * (ev_b2.ctx.group.order + 1)


def test_symmetry_scan_float_points():
    # heat images at float points carry roundoff, so they are compared within
    # 1e-9; an exact difference, however small, is still a failure
    ev = make_ev("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, 8, d=2)
    rep = symmetry_scan(ev, [(0.31, -0.52), (0.7, 0.11)])
    assert rep.failures == ()
    assert rep.checked == 2 * (ev.n_trunc + 1) * (ev.ctx.group.order + 1)
    p = heat_image(ev, 4, (Fraction(1, 3), Fraction(-1, 2)))
    assert _polys_match(p, p)
    assert not _polys_match(p, p + Polynomial.monomial(2, (2, 2), Fraction(1, 10**12)))
    q = heat_image(ev, 4, (0.31, -0.52))
    assert _polys_match(q, q + Polynomial.monomial(2, (2, 2), 1e-12))
    assert not _polys_match(q, q + Polynomial.monomial(2, (2, 2), 1e-6))


def test_positivity_zero_weight(ev_z21_zero):
    xs = [(t,) for t in np.linspace(-1.0, 1.0, 9)]
    ys = [(t,) for t in np.linspace(-2.0, 2.0, 9)]
    rep = positivity_scan(ev_z21_zero, xs, ys)
    assert rep.min_value > 0  # e^{x y - x^2/2} is strictly positive
    assert rep.max_abs_imag <= 1e-12


def test_positivity_grid_matches_pointwise(ev_b2):
    xs = [(0.1, -0.05), (0.0, 0.2)]
    ys = [(0.5, 0.1), (-0.3, 0.4), (1.0, -1.0)]
    grid = lk_grid(ev_b2, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            direct = complex(lk_series_value(ev_b2, x, y))
            assert abs(grid[i, j] - direct) < 1e-10


@pytest.mark.parametrize(
    "family, k_values, n_trunc, kw",
    [
        ("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, 12, dict(d=2)),
        ("B", [ComplexRational(Fraction(1, 2), Fraction(1, 3)), Fraction(1)], 8, dict(d=2)),
        ("A", Fraction(1), 6, dict(d=3)),
        ("G2", [Fraction(1, 2), Fraction(1)], 5, {}),
        ("Z2^d", Fraction(1, 2), 10, dict(d=1)),
        ("Z2^d", Fraction(1, 2), 0, dict(d=1)),
    ],
)
def test_lk_grid_blocks_match_termwise_sum(family, k_values, n_trunc, kw):
    # reference: the term-by-term Hermite path, sum over nu of V(x^nu)(x) / nu!
    # times He_nu(y), that the per-degree block products replace
    ev = make_ev(family, k_values, n_trunc, **kw)
    d = ev.dimension
    rng = np.random.default_rng(4)
    xs = [tuple(rng.uniform(-0.3, 0.3, d)) for _ in range(3)]
    ys = [tuple(rng.uniform(-1.5, 1.5, d)) for _ in range(4)]
    grid = lk_grid(ev, xs, ys)
    assert grid.shape == (3, 4)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = sum(complex(hermite_piece(ev, n, x, y)) for n in range(n_trunc + 1))
            assert abs(grid[i, j] - want) <= 1e-13 * max(1.0, abs(want))


def test_float_tables_match_exact():
    # one V table: the values at float points agree with the exact values at
    # the same points taken as rationals; at a float point E_n(x, .) is read
    # from the rounded table and equals bit for bit the exact table there
    x = (0.35, -0.6)
    for k in ([Fraction(1, 2), Fraction(3, 2)], [ComplexRational(Fraction(1, 2), Fraction(1, 3)), 1]):
        ev = make_ev("B", k, 8, d=2)
        _assert_float_points_agree(ev, x, (0.8, 0.25), 1e-11)
        for n in range(ev.n_trunc + 1):
            got = homogeneous_kernel(ev.ctx, n, x).terms
            want = {}
            for nu in monomial_basis(2, n):
                val = _vk_monomial(ev.ctx, nu).evaluate(x)
                if val:
                    want[nu] = val * Fraction(1, math.prod(map(math.factorial, nu)))
            assert got == want
            assert all(isinstance(c, (float, complex)) for c in got.values())


def test_mixed_points_read_the_rounded_table():
    # at a point with one Fraction and one float coordinate E_n(x, .) is bit
    # for bit the rounded V(x^nu) evaluated there, as Polynomial.evaluate
    # forms it; the exact V(x^nu) is not the reference here, since a Fraction
    # coordinate's exact powers then multiply the exact coefficient before it
    # is rounded
    for k in ([Fraction(1, 2), Fraction(3, 2)], [ComplexRational(Fraction(1, 2), Fraction(1, 3)), 1]):
        ev = make_ev("B", k, 8, d=2)
        for x in ((Fraction(7, 20), -0.6), (0.35, Fraction(-3, 5))):
            for n in range(ev.n_trunc + 1):
                want = {}
                for nu in monomial_basis(2, n):
                    val = _vk_monomial(ev.ctx, nu, rounded=True).evaluate(x)
                    if val:
                        want[nu] = val * Fraction(1, math.prod(map(math.factorial, nu)))
                got = homogeneous_kernel(ev.ctx, n, x).terms
                assert got == want
                assert all(isinstance(c, (float, complex)) for c in got.values())


def test_float_tables_match_exact_through_fallback_degree():
    # k = -1 makes the group-algebra system singular at degree 2, so the
    # table passes through the dense inverse on P_2
    ev = make_ev("Z2^d", Fraction(-1), 6, d=1)
    assert ev.ctx.fallback_degrees == [2]
    x = (0.7,)
    for nu in (nu for n in range(ev.n_trunc + 1) for nu in monomial_basis(1, n)):
        a = _vk_monomial(ev.ctx, nu, rounded=True).evaluate(x)
        assert abs(a - _vk_monomial(ev.ctx, nu).evaluate(_rational(x))) <= 1e-12
    _assert_float_points_agree(ev, x, (-0.45,), 1e-12)


def _rational(point):
    """The float coordinates as the Fractions of their exact binary values."""
    return tuple(Fraction(t) for t in point)


def _assert_float_points_agree(ev, x, y, tol):
    """Both kernel paths, lk_grid, both functional-norm routes and the Fourier
    check give the same numbers at the float points x, y as at the same
    points taken as rationals, where they are exact up to the final float
    conversion.  Both sides run on the one evaluator, whose caches keep exact
    and float points apart."""
    xq, yq = _rational(x), _rational(y)
    for path in (lk_series_value, hermite_path):
        exact = path(ev, xq, yq)
        assert isinstance(exact, (Fraction, ComplexRational))
        value = path(ev, x, y)
        assert isinstance(value, (float, complex))
        assert abs(value - complex(exact)) < tol
    assert abs(lk_grid(ev, [x], [y])[0, 0] - complex(lk_series_value(ev, xq, yq))) < tol
    for a, b in zip(phi_x_norm(ev, x), phi_x_norm(ev, xq)):
        assert abs(a - b) < tol
    fa, fb = fourier_check(ev, x, y), fourier_check(ev, xq, yq)
    for side in ("plus", "minus"):
        assert abs(fa[side] - fb[side]) < tol


def test_exact_and_float_queries_at_one_point_keep_their_types(ev_b2):
    # Fraction(0.35) == 0.35 and the two hash alike; the caches must still
    # return exact coefficients at the rational point and floats at the float
    # one, in either order of the queries
    x = (0.35, -0.6)
    xq = _rational(x)
    for first, second in ((xq, x), (x, xq)):
        ev = make_evaluator(ev_b2.ctx, 6)
        for point in (first, second):
            want = (Fraction, ComplexRational) if point is xq else (float, complex)
            for p in [heat_image(ev, n, point) for n in range(7)] + [lk_polynomial(ev, point)]:
                assert p.terms and all(isinstance(c, want) for c in p.terms.values())


def test_lk_polynomial_is_truncated_kernel(ev_b2):
    x = (0.3, 0.1)
    p = lk_polynomial(ev_b2, x)
    y = (0.2, -0.6)
    assert abs(complex(p.evaluate(y)) - complex(lk_series_value(ev_b2, x, y))) < 1e-14


def _truncate_total_degree(p, deg):
    return Polynomial(p.dim, {nu: c for nu, c in p.terms.items() if sum(nu) <= deg})


def _gaussian_taylor_by_products(d, y, sign, deg):
    """Reference: the two truncated exponential series multiplied out, the
    routine that the Hermite product formula replaced."""
    pairing = Polynomial(
        d, {tuple(1 if l == j else 0 for l in range(d)): y[j] for j in range(d) if y[j]}
    )
    norm_sq = Polynomial.zero(d)
    for j in range(d):
        norm_sq = norm_sq + Polynomial.variable(d, j) ** 2
    series_pair = Polynomial.constant(d, Fraction(1))
    power = Polynomial.constant(d, Fraction(1))
    for j in range(1, deg + 1):
        power = _truncate_total_degree(power * pairing, deg)
        series_pair = series_pair + power * Fraction((-sign) ** j, math.factorial(j))
    series_gauss = Polynomial.constant(d, Fraction(1))
    power = Polynomial.constant(d, Fraction(1))
    for m in range(1, deg // 2 + 1):
        power = _truncate_total_degree(power * norm_sq, deg)
        series_gauss = series_gauss + power * Fraction((-1) ** m, 2**m * math.factorial(m))
    return _truncate_total_degree(series_pair * series_gauss, deg)


TAYLOR_POINTS = [
    (Fraction(-3, 4),),
    (Fraction(0),),
    (Fraction(9, 10), Fraction(-1, 3)),
    (Fraction(0), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(0), Fraction(-1, 4)),
]


def _negate_odd_degrees(p):
    """p(-u) for a polynomial p in u."""
    return Polynomial(p.dim, {nu: -c if sum(nu) & 1 else c for nu, c in p.terms.items()})


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("y", TAYLOR_POINTS, ids=str)
def test_gaussian_taylor_matches_series_product(y, sign):
    # gaussian_taylor gives the plus sign; the minus one is its value at -u
    d = len(y)
    degrees = (0, 1, 2, 20) + ((36,) if d == 2 else ())
    for deg in degrees:
        got = gaussian_taylor(d, y, deg)
        if sign == -1:
            got = _negate_odd_degrees(got)
        want = _gaussian_taylor_by_products(d, y, sign, deg)
        assert got.terms == want.terms
        assert all(type(got.terms[nu]) is type(c) for nu, c in want.terms.items())


@pytest.mark.parametrize(
    "family, k, kw, x, y",
    [
        (
            "B",
            {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)},
            {"d": 2},
            (Fraction(3, 5), Fraction(-1, 4)),
            (Fraction(9, 10), Fraction(1, 3)),
        ),
        (
            "A",
            Fraction(1),
            {"d": 3},
            (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5)),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        ),
    ],
    ids=["B2", "A3"],
)
def test_minus_taylor_image_is_plus_image_at_minus_x(family, k, kw, x, y):
    # the identity that lets gaussian_image_check intertwine one Taylor polynomial
    ctx = make_ev(family, k, 1, **kw).ctx
    minus_x = tuple(-t for t in x)
    for deg in range(13):
        plus = gaussian_taylor(len(x), y, deg)
        minus = _negate_odd_degrees(plus)
        assert intertwine(ctx, minus).evaluate(x) == intertwine(ctx, plus).evaluate(minus_x)


def _tail_term_per_call(u, v, d, n):
    """Reference: one tail term with its logs and lgammas computed inline."""
    if u == 0.0:
        return 0.0
    log_u_n = n * math.log(u)
    total = 0.0
    for m in range(n // 2 + 1):
        r = n - 2 * m
        if v == 0.0 and r > 0:
            continue
        lt = log_u_n + m * math.log(d) - m * math.log(2.0) - math.lgamma(m + 1)
        if r > 0:
            lt += r * math.log(v) - math.lgamma(r + 1)
        if lt > 690.0:
            return math.inf
        total += math.exp(lt)
    return total


def test_tail_terms_bit_identical_to_per_call_logs():
    rng = random.Random(5)
    cases = [(0.0, 1.0, 2, 3), (1.5, 0.0, 3, 0)]
    cases += [
        (rng.uniform(0.0, 40.0), rng.uniform(0.0, 5.0), rng.randint(1, 4), rng.randint(0, 40))
        for _ in range(200)
    ]
    for u, v, d, n0 in cases:
        for n in range(n0, n0 + 60):
            assert _tail_term(u, v, d, n) == _tail_term_per_call(u, v, d, n), (u, v, d, n)


def _exact_tail_terms(u, v, d, n_hi):
    """u^n [t^n] e^{v t + d t^2/2} for n <= n_hi, in Fractions, from
    n c_n = v c_{n-1} + d c_{n-2}."""
    c = [Fraction(1), v]
    for n in range(2, n_hi + 1):
        c.append((v * c[n - 1] + d * c[n - 2]) / n)
    return [u**n * c[n] for n in range(n_hi + 1)]


EIGHTHS = st.integers(0, 24).map(lambda a: Fraction(a, 8))


@settings(max_examples=80, deadline=None)
@given(
    u=EIGHTHS.filter(bool),
    v=EIGHTHS,
    d=st.integers(0, 4),
    n_trunc=st.integers(0, 30),
)
@example(u=Fraction(3), v=Fraction(0), d=4, n_trunc=13)
@example(u=Fraction(1, 8), v=Fraction(0), d=1, n_trunc=21)
def test_recurrence_tail_brackets_exact_sum(u, v, d, n_trunc):
    # u in (0, 3], v in [0, 3], at eighths: the 200 discarded degrees hold the whole
    # tail to far below 1e-12, so the routine must lie in [S, (1 + 1e-12) S]
    terms = _exact_tail_terms(u, v, d, n_trunc + 200)
    partial = sum(terms[n_trunc + 1 :])
    got = _recurrence_tail(float(u), float(v), d, n_trunc)
    assert partial <= Fraction(got) <= partial * (1 + Fraction(1, 10**12)), (got, float(partial))


@pytest.mark.parametrize("y_norm", [0.0, 1e-9, 0.5])
def test_tail_bounds_positive_and_monotone_at_every_parity(ev_b2, y_norm):
    # the first discarded degree alternates in parity; at |y| = 0 the odd
    # degrees vanish, and the tail must still count the even ones after them.
    # Consecutive tails then agree in exact arithmetic, and their outward
    # rounding factors differ by far less than 1e-12.
    tails = [tail_bound(ev_b2, 0.2, y_norm, n).value for n in range(10, 22)]
    assert all(a * (1 + 1e-12) >= b > 0.0 for a, b in zip(tails, tails[1:]))
    # the Gaussian-image check's Taylor remainder is the same bound at its degree
    taylor = [tail_bound(ev_b2, 0.1, y_norm, n).value for n in range(10, 26)]
    assert all(a * (1 + 1e-12) >= b > 0.0 for a, b in zip(taylor, taylor[1:]))
    if y_norm == 1e-9:
        assert all(
            tail_bound(ev_b2, 0.2, 0.0, n).value <= tb for n, tb in zip(range(10, 22), tails)
        )
        assert all(
            tail_bound(ev_b2, 0.1, 0.0, n).value <= tb for n, tb in zip(range(10, 26), taylor)
        )


@pytest.mark.parametrize(
    "family, k_values, kw",
    [
        ("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, {"d": 2}),
        ("A", Fraction(1), {"d": 3}),
        ("Z2^d", Fraction(1, 2), {"d": 1}),
    ],
    ids=["B2", "A-d3", "Z2^1"],
)
def test_certified_tail_dominates_the_next_ten_degrees(family, k_values, kw):
    # for k >= 0 the tails use |x| in place of delta_hat |G| |x|, and d = 1:
    # degrees N+1..N+10, computed explicitly, must stay under them
    n0 = 4
    ev = make_ev(family, k_values, n0 + 10, **kw)
    d = ev.dimension
    rng = random.Random(21)
    for _ in range(3):
        x = tuple(rng.uniform(-0.9, 0.9) / math.sqrt(d) for _ in range(d))
        y = tuple(rng.uniform(-1.5, 1.5) / math.sqrt(d) for _ in range(d))
        xn, yn = math.hypot(*x), math.hypot(*y)
        kernel_terms = sum(
            abs(complex(heat_image(ev, n, x).evaluate(y))) for n in range(n0 + 1, n0 + 11)
        )
        assert kernel_terms <= tail_bound(ev, xn, yn, n0).value
        en_terms = sum(
            abs(complex(evaluate_en(ev.ctx, n, x, y))) for n in range(n0 + 1, n0 + 11)
        )
        assert en_terms <= ek_tail_bound(ev.ctx, xn, yn, n0)


def test_gaussian_image_remainder_bound_dominates_taylor_remainder():
    # at weight zero V is the identity, so V(T)(x) is the Taylor polynomial T
    # of e^{-|u|^2/2 - <u, y>} at u = x, and its remainder past degree D must
    # stay under the bound the Gaussian-image check reports for it
    ev0 = make_ev("B", Fraction(0), 30, d=2)
    x = (Fraction(6, 5), Fraction(-3, 4))
    y = (Fraction(9, 10), Fraction(1, 3))
    xn, yn = math.hypot(*x), math.hypot(*y)
    exact = math.exp(-float(sum(t * t for t in x)) / 2 - float(sum(a * b for a, b in zip(x, y))))
    for deg in range(6, 21):
        taylor = float(gaussian_taylor(2, y, deg).evaluate(x))
        assert abs(taylor - exact) <= tail_bound(ev0, xn, yn, deg).value, deg
        # and through the check, where the kernel's tail at degree 30 is far smaller
        res = gaussian_image_check(ev0, x, y, deg)
        assert res["minus"] <= res["trunc_bound"], deg
