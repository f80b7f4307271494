import itertools
import math
import random
from functools import partial
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dunkl import kernel
from dunkl.config import load_context
from dunkl.exact import ComplexRational, _read_exact
from dunkl.kernel import (
    _grid_basis,
    _grid_layout,
    certified_radius,
    convolution_check,
    derivative_relation_check,
    gaussian_image_check,
    heat_image,
    hermite_piece,
    lk_eval,
    lk_grid,
    lk_series_value,
    lk_values,
    make_evaluator,
    phi_x_apply,
    phi_x_norm,
    positivity_scan,
    symmetry_scan,
    tail_bound,
)
from dunkl.operators import (
    TruncationError,
    _e_table,
    _kernel_sum,
    _norm,
    _recurrence_tail,
    _tail_term,
    _vk_table,
    dunkl_apply,
    dunkl_kernel,
    ek_tail_bound,
    evaluate_en,
    homogeneous_kernel,
    intertwine,
    make_context,
    monomial_basis,
)
from dunkl import poly
from dunkl.poly import (
    Polynomial,
    _heat_axes,
    _multi_factorial,
    _polynomial,
    heat_half,
    hermite_values,
    inverse_heat_half,
)
from dunkl.quad import fourier_quadrature, gauss_rule, gaussian_integral, gaussian_moment
from dunkl.reflection_groups import (
    build_root_system,
    generate_group,
    select_positive,
    validate_multiplicity,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def hermite_path(ev, x, y, n_trunc=None):
    """The Hermite path summed over degrees: sum_nu V(phi_nu)(x) H_nu(y)."""
    top = ev.n_trunc if n_trunc is None else n_trunc
    return sum(hermite_piece(ev, n, x, y) for n in range(top + 1))


def series_polynomial(ev, x):
    """L^(N)(x, .) as a polynomial in y along the series path: the heat
    images of every degree, summed."""
    images = (heat_image(ev, n, x) for n in range(ev.n_trunc + 1))
    return sum(images, Polynomial.zero(ev.dimension))


def unit_mass(ev, x):
    """integral L^(N)(x, .) dgamma, the extended functional on the constant 1
    (a Polynomial, so no rule node is read)."""
    [mass] = phi_x_apply(ev, x, [Polynomial.constant(ev.dimension, 1)], gauss_rule(ev.dimension, 1))
    return mass


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
        "B", [Fraction(1, 2), Fraction(3, 2)], 12, d=2
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
        assert abs(complex(unit_mass(ev_b2, x2)) - 1) < 1e-12
        x1 = (rng.uniform(-1.5, 1.5),)
        assert abs(complex(unit_mass(ev_z21, x1)) - 1) < 1e-12


def test_mass_zero_weight_closed_form(ev_z21_zero):
    # integral of e^{x y - x^2/2} dgamma(y) = 1 for every x
    assert abs(complex(unit_mass(ev_z21_zero, (1.2,))) - 1) < 1e-12


def test_phi_x_of_constant_is_one(ev_b2, rule2):
    [val] = phi_x_apply(ev_b2, (0.4, -0.2), [Polynomial.constant(2, 1.0)], rule2)
    assert val == 1.0 and type(val) is float


def test_phi_x_reconstructs_intertwine(ev_b2, rule2):
    # for deg p <= N both sides are the same rational at the binary value of
    # x, each rounded once
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = tuple(rng.uniform(-0.8, 0.8, 2))
        ps = [Polynomial.monomial(2, nu) for nu in ((0, 0), (1, 0), (2, 1), (3, 3), (0, 4))]
        for p, got in zip(ps, phi_x_apply(ev_b2, x, ps, rule2)):
            want = intertwine(ev_b2.ctx, inverse_heat_half(p)).evaluate(x)
            assert got == want and type(got) is type(want) is float


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
        assert s == q and type(s) is float


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
    ev = make_ev("B", [Fraction(1, 2), Fraction(3, 2)], 12, d=2)
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


CONVOLUTION_POINTS = {
    "b2": ((Fraction(1, 3), Fraction(-2, 5)), (Fraction(1, 2), Fraction(1, 7)), (0.1, 0.2), (1.0, 0.5)),
    "b2c": ((Fraction(1, 4), Fraction(1, 3)), (Fraction(-2, 3), Fraction(1)), (0.1, 0.2), (1.0, 0.5)),
    "z21neg": ((Fraction(3, 10),), (Fraction(-7, 10),), (0.3,), (-0.7,)),
    "g2": (
        (Fraction(1, 20), Fraction(-1, 50), Fraction(1, 100)),
        (Fraction(1, 10), Fraction(1, 5), Fraction(-1, 10)),
        (0.05, -0.02, 0.01),
        (0.1, 0.2, -0.1),
    ),
}


@pytest.mark.parametrize("name", sorted(CONVOLUTION_POINTS))
def test_convolution_is_exact_at_rational_and_float_points(name):
    # both sides are exact at the points' binary values, and the identity
    # holds at every truncation degree (z21neg through its fallback degree 2)
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    ev = make_evaluator(ctx, ctx.degree)
    xq, yq, x, y = CONVOLUTION_POINTS[name]
    assert convolution_check(ev, xq, yq) == 0.0
    assert convolution_check(ev, x, y) == 0.0
    assert type(convolution_check(ev, x, y)) is float


def test_convolution_sees_a_perturbed_heat_row(monkeypatch):
    # the shifted moments of _heat_axes share no code with _heat's rows, so
    # one wrong entry in the row of y^2 makes the two sides differ
    rows = poly._heat_row

    def perturbed(e, sign):
        row = rows(e, sign)
        return [(f, b + 1 if (e, f) == (2, 0) else b) for f, b in row]

    monkeypatch.setattr(poly, "_heat_row", perturbed)
    for name in ("b2", "z21neg"):
        ctx = load_context(str(CONFIGS / f"{name}.json"))
        ev = make_evaluator(ctx, ctx.degree)
        xq, yq, x, y = CONVOLUTION_POINTS[name]
        assert convolution_check(ev, xq, yq) > 1e-3
        assert convolution_check(ev, x, y) > 1e-3


PAIRING_ROWS = ("represents-intertwine-of-heatflow", "functional-norm-two-routes", "kernel-unit-mass")


# corruption -> the pairing rows it fails
PAIRING_CORRUPTIONS = {
    # the series table of L^(N)(x, .), which every pairing reads
    "heat-row-minus": set(PAIRING_ROWS),
    # e^{+Lap/2} p on the reconstruction row's right side; the norm and the
    # unit mass never heat upward, so they cannot see it
    "heat-row-plus": {"represents-intertwine-of-heatflow"},
    # the closed-form moments the pairings contract against
    "moment": set(PAIRING_ROWS),
}


@pytest.mark.parametrize("corruption", sorted(PAIRING_CORRUPTIONS))
def test_pairing_rows_see_a_corrupted_heat_row_or_moment(monkeypatch, corruption):
    # one wrong entry in the row of y^2 under e^{-Lap/2} or e^{+Lap/2}, or a
    # wrong m(2), fails exactly the rows of the quadrature suite whose sides
    # read it
    from dunkl import quad
    from dunkl.verify import suite_quadrature

    failing = PAIRING_CORRUPTIONS[corruption]
    rows, moment = poly._heat_row, quad.gaussian_moment
    if corruption == "moment":
        monkeypatch.setattr(quad, "gaussian_moment", lambda nu: moment(nu) + (tuple(nu) == (2,)))
    else:
        wrong = -1 if corruption == "heat-row-minus" else 1

        def perturbed(e, sign):
            return [(f, b + 1 if (e, f, sign) == (2, 0, wrong) else b) for f, b in rows(e, sign)]

        monkeypatch.setattr(poly, "_heat_row", perturbed)
    for name in ("b2", "z21neg"):
        report = {r.identity: r for r in suite_quadrature(load_context(str(CONFIGS / f"{name}.json")))}
        assert {i for i in PAIRING_ROWS if not report[i].passed} == failing, name
        assert all(report[i].max_residual == 0.0 for i in set(PAIRING_ROWS) - failing)


@pytest.mark.parametrize(
    "y",
    [
        (Fraction(0),),
        (Fraction(-3, 4), Fraction(5, 2)),
        (ComplexRational(Fraction(1, 3), Fraction(-2, 5)), Fraction(1, 6)),
        (ComplexRational(0, Fraction(3, 2)),),
    ],
    ids=str,
)
def test_heat_axes_plus_are_the_shifted_gaussian_moments(y):
    # e^{+Lap/2} y^e = integral (y + u)^e dgamma(u) = sum_m C(e, m) M(m) y^(e - m)
    axes, r = _heat_axes(y, 9, 1)
    for t, h in zip(y, axes):
        assert len(h) == 10
        for e, num in enumerate(h):
            want = sum(math.comb(e, m) * gaussian_moment((m,)) * t ** (e - m) for m in range(e + 1))
            assert num == want * r**e
            assert type(num) in (int, ComplexRational)


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


def fourier_sums(ev, x, y, taylor_degree=None):
    """The Fourier representation's residuals as the signs suite reads them:
    the Gaussian-image check's, plus and minus exchanged, since the
    closed-form transform turns E(+-ix, .) into the Gaussian image's sum."""
    res = gaussian_image_check(ev, x, y, taylor_degree)
    return {"plus": res["minus"], "minus": res["plus"]}


def test_fourier_conventions(ev_z21_zero, ev_z21):
    res = fourier_sums(ev_z21_zero, (0.7,), (1.1,))
    assert res["plus"] <= 1e-10
    assert res["minus"] >= 0.1
    res = fourier_sums(ev_z21, (0.5,), (0.8,))
    assert res["plus"] <= 1e-8


def test_fourier_at_x_zero(ev_z21):
    res = fourier_sums(ev_z21, (0.0,), (0.9,))
    assert res["plus"] < 1e-12 and res["minus"] < 1e-12


def test_fourier_matches_convolution_at_y_zero(ev_z21):
    # at y = 0 both conventions integrate E(+-i x, z) dgamma(z) against 1
    res = fourier_sums(ev_z21, (0.6,), (0.0,))
    assert res["plus"] < 1e-10 and res["minus"] < 1e-10


@pytest.mark.parametrize("name", ["b2", "b2c", "a2", "z21neg", "d4", "g2"])
def test_fourier_float_route_matches_the_gaussian_image_sums(name):
    # the reference is the float route: each E_n(x, .) transformed in closed
    # form (quad.fourier_quadrature) and summed with the weight c^n, c = +-i;
    # it must give the Gaussian-image sums at Taylor degree N with the labels
    # exchanged, at the signs suite's points
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    d = ctx.dimension
    ev = make_evaluator(ctx, ctx.degree)
    if d <= 2:
        x = (Fraction(3, 5),) + (Fraction(-1, 4),) * (d - 1)
        y = (Fraction(9, 10),) + (Fraction(1, 3),) * (d - 1)
    else:
        x = (Fraction(2, 5),) + (Fraction(1, 5),) * (d - 1)
        y = (Fraction(1, 2),) + (Fraction(1, 4),) * (d - 1)
    window = math.exp(-(_norm(y) ** 2) / 2.0)
    target = window * complex(lk_series_value(ev, x, y))
    pieces = [
        fourier_quadrature(homogeneous_kernel(ev.ctx, n, x), y) for n in range(ev.n_trunc + 1)
    ]
    got = fourier_sums(ev, x, y, ev.n_trunc)
    for label, c in (("plus", 1j), ("minus", -1j)):
        float_route = abs(sum(c**n * piece for n, piece in enumerate(pieces)) - target)
        assert abs(float_route - got[label]) <= 1e-15, (label, float_route, got[label])


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
    x, y = (0.3, -0.2), (0.5, 0.4)
    got = derivative_relation_check(ev_b2, x, y, 0)
    want = derivative_relation_check(
        ev_b2, (Fraction(3, 10), Fraction(-1, 5)), (Fraction(1, 2), Fraction(2, 5)), 0
    )
    assert want["minus"] < 1e-9
    for side in ("plus", "minus"):
        assert abs(got[side] - want[side]) <= 1e-9
    # the right side T_1^x [L(., y)](x) is exact at the binary values of x
    # and y and rounded once: by T_1 V = V d_1 it is the sum of He_nu(y)
    # nu_1 / nu! V(x^(nu - e_1))(x)
    ex, ey = _rational(x), _rational(y)
    he = [hermite_values(t, ev_b2.n_trunc) for t in ey]
    exact = sum(
        he[0][nu[0]] * he[1][nu[1]] * Fraction(nu[0], math.factorial(nu[0]) * math.factorial(nu[1]))
        * _polynomial(2, _vk_table(ev_b2.ctx, (nu[0] - 1, nu[1]))).evaluate(ex)
        for n in range(1, ev_b2.n_trunc + 1)
        for nu in monomial_basis(2, n)
        if nu[0]
    )
    window = math.exp(-(math.hypot(*y) ** 2) / 2.0)
    rhs = window * complex(exact)
    # the left side d/dy_1 L - y_1 L is the series path's exact sum at the
    # binary values of x and y, rounded once
    series = series_polynomial(ev_b2, ex)
    lhs = window * complex(series.partial(0).evaluate(ey) - ey[0] * series.evaluate(ey))
    assert got == {"plus": abs(lhs - rhs), "minus": abs(lhs + rhs)}


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
    # a float sample is read as its binary value, so the heat images the scan
    # compares are exact and every comparison is an exact equality
    ev = make_ev("B", [Fraction(1, 2), Fraction(3, 2)], 8, d=2)
    samples = [(0.31, -0.52), (0.7, 0.11)]
    rep = symmetry_scan(ev, samples)
    assert rep.failures == ()
    assert rep.checked == 2 * (ev.n_trunc + 1) * (ev.ctx.group.order + 1)
    for x in samples:
        xq = _rational(x)
        for n in range(ev.n_trunc + 1):
            image = heat_image(ev, n, xq)
            assert all(isinstance(c, Fraction) for c in image.terms.values())
            # the image of -x is exactly the parity flip of the image of x
            flipped = heat_image(ev, n, tuple(-t for t in xq))
            assert flipped == Polynomial(
                2, {nu: -c if sum(nu) & 1 else c for nu, c in image.terms.items()}
            )


def test_positivity_zero_weight(ev_z21_zero):
    xs = [(t,) for t in np.linspace(-1.0, 1.0, 9)]
    ys = [(t,) for t in np.linspace(-2.0, 2.0, 9)]
    rep = positivity_scan(ev_z21_zero, xs, ys)
    assert rep.min_value > 0  # e^{x y - x^2/2} is strictly positive
    assert rep.max_abs_imag <= 1e-12


def test_positivity_grid_matches_pointwise(ev_b2):
    # both paths give the exact sum at the points' binary values rounded once
    xs = [(0.1, -0.05), (0.0, 0.2)]
    ys = [(0.5, 0.1), (-0.3, 0.4), (1.0, -1.0)]
    grid = lk_values(ev_b2, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i][j] == lk_series_value(ev_b2, x, y)



@pytest.mark.parametrize("case", [0, 1], ids=["real-weight", "complex-weight"])
def test_positivity_scan_matches_a_pointwise_scan(case):
    # reference: the point-by-point scan, first minimum in row order
    family, k_values, n_trunc, kw = GRID_CASES[case]
    ev = make_ev(family, k_values, n_trunc, **kw)
    xs = [(t, -t / 2) for t in np.linspace(-0.2, 0.2, 5)]
    ys = [(t, 0.3) for t in np.linspace(-1.0, 1.0, 7)]
    values = lk_values(ev, xs, ys)
    min_value, min_point, max_imag, max_tail = math.inf, None, 0.0, 0.0
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            tb = tail_bound(ev, _norm(x), _norm(y)).value
            max_tail, max_imag = max(max_tail, tb), max(max_imag, abs(values[i][j].imag))
            if values[i][j].real - tb < min_value:
                min_value, min_point = values[i][j].real - tb, (x, y)
    assert positivity_scan(ev, xs, ys) == (min_value, min_point, max_imag, max_tail, 35)
    assert (max_imag > 0) == (case == 1)

GRID_CASES = [
    ("B", [Fraction(1, 2), Fraction(3, 2)], 12, dict(d=2)),
    ("B", [ComplexRational(Fraction(1, 2), Fraction(1, 3)), Fraction(1)], 8, dict(d=2)),
    ("A", Fraction(1), 6, dict(d=3)),
    ("G2", [Fraction(1, 2), Fraction(1)], 5, {}),
    ("Z2^d", Fraction(1, 2), 10, dict(d=1)),
    ("Z2^d", Fraction(1, 2), 0, dict(d=1)),
]


@pytest.mark.parametrize("family, k_values, n_trunc, kw", GRID_CASES)
def test_lk_grid_blocks_match_termwise_sum(family, k_values, n_trunc, kw):
    # reference: the term-by-term Hermite path, sum over nu of V(x^nu)(x) / nu!
    # times He_nu(y), that the grid sums contracted one axis at a time
    # replace; lk_grid, the benchmark's name for lk_values, returns rows
    # that come back from tolist() as they are
    ev = make_ev(family, k_values, n_trunc, **kw)
    d = ev.dimension
    rng = np.random.default_rng(4)
    xs = [tuple(rng.uniform(-0.3, 0.3, d)) for _ in range(3)]
    ys = [tuple(rng.uniform(-1.5, 1.5, d)) for _ in range(4)]
    grid = lk_grid(ev, xs, ys)
    assert [len(row) for row in grid] == [4, 4, 4] and grid.tolist() == list(grid)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = sum(complex(hermite_piece(ev, n, x, y)) for n in range(n_trunc + 1))
            assert abs(grid[i][j] - want) <= 1e-13 * max(1.0, abs(want))


def _numpy_block_grid(ev, xs, ys):
    """The float grid as numpy's block products formed it before the
    package became pure Python, kept as a reference: per degree n, the
    monomials x^mu from per-axis power tables, times the b_n x b_n block
    [x^mu] e_nu of E_n's table with each entry rounded once, times He_nu(y)
    from per-axis Hermite values of the y array."""
    from dunkl.exact import _rounded_value

    d, top = ev.dimension, ev.n_trunc
    xs_arr = np.asarray(xs, dtype=float).reshape(len(xs), d)
    ys_arr = np.asarray(ys, dtype=float).reshape(len(ys), d)
    x_pow = np.ones(xs_arr.shape + (top + 1,))  # x_pow[p, i, e] = x_i^e
    for e in range(1, top + 1):
        x_pow[:, :, e] = x_pow[:, :, e - 1] * xs_arr
    he = np.stack(hermite_values(ys_arr, top), axis=-1)  # he[p, j, e] = He_e(y_j)
    out = 0
    for n in range(top + 1):
        cols, den = _e_table(ev.ctx, n)
        index = {nu: i for i, nu in enumerate(cols)}
        block = [[0.0] * len(cols) for _ in cols]
        for k, nums in enumerate(cols.values()):
            for mu, c in nums.items():
                block[index[mu]][k] = _rounded_value(c, den)
        exps, block = np.array(list(index)), np.array(block)
        x_mono = np.prod([x_pow[:, i, exps[:, i]] for i in range(d)], axis=0)
        he_y = np.prod([he[:, j, exps[:, j]] for j in range(d)], axis=0)
        out = out + (x_mono @ block) @ he_y.T
    return out


@pytest.mark.parametrize("family, k_values, n_trunc, kw", GRID_CASES)
def test_lk_grid_matches_the_numpy_block_product(family, k_values, n_trunc, kw):
    # the reference rounds each table entry once and sums in floats in
    # another order, lk_values rounds the exact sum once: within 1e-14 of
    # the larger of 1 and the value, at random points and on a product grid
    # that the one-axis-at-a-time sums share work on
    ev = make_ev(family, k_values, n_trunc, **kw)
    d = ev.dimension
    rng = np.random.default_rng(7)
    axis = [-0.8, -0.1, 0.4]
    for xs, ys in (
        ([tuple(rng.uniform(-0.3, 0.3, d)) for _ in range(3)],
         [tuple(rng.uniform(-1.5, 1.5, d)) for _ in range(5)]),
        ([tuple(rng.uniform(-0.3, 0.3, d))], list(itertools.product(axis, repeat=d))),
    ):
        grid, reference = lk_values(ev, xs, ys), _numpy_block_grid(ev, xs, ys)
        for row, want_row in zip(grid, reference.tolist()):
            for v, want in zip(row, want_row):
                assert abs(v - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("family, k_values, n_trunc, kw", GRID_CASES)
def test_lk_grid_block_entries_are_rounded_once(family, k_values, n_trunc, kw):
    # the layout of the coefficients e_nu(x) that the grid sums contract:
    # every exponent of degree <= N once, in _grid_basis's order, with one
    # level of runs per axis; tests/test_golden.py's rounded_coefficients
    # checks each coefficient, rounded once, against V(x^nu)(x) / nu!
    ev = make_ev(family, k_values, n_trunc, **kw)
    d = ev.dimension
    basis, runs = _grid_layout(ev)
    assert basis == _grid_basis(d, n_trunc)
    assert sorted(basis) == sorted(nu for n in range(n_trunc + 1) for nu in monomial_basis(d, n))
    assert len(runs) == d and len(runs[-1]) == 1


@pytest.mark.parametrize(
    "family, k_values, n_trunc, kw", GRID_CASES + [("D", Fraction(1, 2), 4, dict(d=4))]
)
def test_lk_values_is_the_series_sum_exact_or_rounded_once(family, k_values, n_trunc, kw):
    # the integer Hermite path against the series path: equal at exact
    # points, and at float points the exact value at their binary values
    # rounded once; hermite_piece is the same sum for one degree.  The
    # product grid's axes mix denominators, 3, 7, a float's power of 2 and
    # the 1 of zero, so the coordinates of one point have different ones
    ev = make_ev(family, k_values, n_trunc, **kw)
    d = ev.dimension
    rng = np.random.default_rng(5)
    xs = [tuple(rng.uniform(-0.3, 0.3, d)) for _ in range(2)]
    ys = [tuple(rng.uniform(-1.5, 1.5, d)) for _ in range(3)]
    exact_xs, exact_ys = [_rational(x) for x in xs], [_rational(y) for y in ys]
    exact = lk_values(ev, exact_xs, exact_ys)
    rounded = lk_values(ev, xs, ys)
    for i, x in enumerate(exact_xs):
        for j, y in enumerate(exact_ys):
            want = lk_series_value(ev, x, y)
            assert exact[i][j] == want == sum(hermite_piece(ev, n, x, y) for n in range(n_trunc + 1))
            assert rounded[i][j] == _rounded(want)
            assert isinstance(rounded[i][j], (float, complex))
    assert hermite_piece(ev, n_trunc, xs[0], ys[0]) == _rounded(
        hermite_piece(ev, n_trunc, exact_xs[0], exact_ys[0])
    )
    grid = list(itertools.product([Fraction(1, 3), Fraction(2, 7), -0.45, 0], repeat=d))
    grid_xs = [exact_xs[0], xs[1]]
    for x, row in zip(grid_xs, lk_values(ev, grid_xs, grid)):
        for y, got in zip(grid, row):
            want = lk_series_value(ev, _read_exact(x)[0], _read_exact(y)[0])
            if all(isinstance(t, (int, Fraction)) for t in x + y):
                assert got == want and isinstance(got, (Fraction, ComplexRational))
            else:
                assert got == _rounded(want) and type(got) is type(_rounded(want))


def _correctly_rounded_kernel(ctx, n, x):
    """E_n(x, .)'s coefficients V(x^nu)(x) / nu! at the binary value of the
    point x, exact, each then rounded once."""
    want = {}
    for nu in monomial_basis(ctx.dimension, n):
        val = _polynomial(ctx.dimension, _vk_table(ctx, nu)).evaluate(_rational(x))
        if val:
            want[nu] = _rounded(val * Fraction(1, math.prod(map(math.factorial, nu))))
    return want


def _rounded(c):
    """An exact scalar rounded once: a float, or a complex part by part."""
    return complex(c) if isinstance(c, ComplexRational) else float(c)


def test_float_tables_match_exact():
    # one V table: the values at float points agree with the exact values at
    # the same points taken as rationals; at a float point each coefficient
    # of E_n(x, .) is the exact one at the point's binary value, rounded once
    x = (0.35, -0.6)
    for k in ([Fraction(1, 2), Fraction(3, 2)], [ComplexRational(Fraction(1, 2), Fraction(1, 3)), 1]):
        ev = make_ev("B", k, 8, d=2)
        _assert_float_points_agree(ev, x, (0.8, 0.25), 1e-11)
        for n in range(ev.n_trunc + 1):
            got = homogeneous_kernel(ev.ctx, n, x).terms
            assert got == _correctly_rounded_kernel(ev.ctx, n, x)
            assert all(isinstance(c, (float, complex)) for c in got.values())


def test_mixed_points_read_the_rounded_table():
    # at a point with one Fraction and one float coordinate the float is
    # read as its binary value too, and each coefficient of E_n(x, .) is the
    # exact value at that point, rounded once
    for k in ([Fraction(1, 2), Fraction(3, 2)], [ComplexRational(Fraction(1, 2), Fraction(1, 3)), 1]):
        ev = make_ev("B", k, 8, d=2)
        for x in ((Fraction(7, 20), -0.6), (0.35, Fraction(-3, 5))):
            for n in range(ev.n_trunc + 1):
                got = homogeneous_kernel(ev.ctx, n, x).terms
                assert got == _correctly_rounded_kernel(ev.ctx, n, x)
                assert all(isinstance(c, (float, complex)) for c in got.values())


# config -> float points x, y at which the ek-eval golden digests are taken
FLOAT_QUERIES = {
    "a2": ((0.1, 0.05, -0.02), (0.3, -0.2, 0.1)),
    "b2": ((0.1, 0.2), (1.0, 0.5)),
    "b2c": ((0.1, 0.2), (1.0, 0.5)),
    "g2": ((0.05, -0.02, 0.01), (0.1, 0.2, -0.1)),
    "z21neg": ((0.3,), (-0.7,)),
}


@pytest.mark.parametrize("name", sorted(FLOAT_QUERIES))
def test_float_queries_are_correctly_rounded(name, capsys):
    # dunkl_kernel at float points, each E_n(x, .) coefficient and a
    # combination of V tables with float and complex scalars each equal the
    # exact value at the floats' binary values, rounded once; ek-eval reads
    # the points as the decimals typed and prints the exact sum there, and
    # its last term, each rounded once
    from dunkl.cli import main

    ctx = load_context(str(CONFIGS / f"{name}.json"))
    x, y = FLOAT_QUERIES[name]
    xq, yq = _rational(x), _rational(y)
    for tol in (1e-6, 1e-12):
        val = dunkl_kernel(ctx, x, y, tol=tol)
        terms = [evaluate_en(ctx, n, xq, yq) for n in range(val.degree_used + 1)]
        assert isinstance(val.value, (float, complex))
        assert val.value == _rounded(sum(terms))
        assert val.last_term == abs(_rounded(terms[-1]))
    xd, yd = (tuple(Fraction(repr(t)) for t in p) for p in (x, y))
    val = dunkl_kernel(ctx, xd, yd, tol=1e-6)
    terms = [evaluate_en(ctx, n, xd, yd) for n in range(val.degree_used + 1)]
    assert isinstance(val.value, (Fraction, ComplexRational)) and val.value == sum(terms)
    argv = ["--x", ",".join(map(repr, x)), "--y", ",".join(map(repr, y)), "--tol", "1e-6"]
    assert main(["ek-eval", "--context", str(CONFIGS / f"{name}.json"), *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    v = complex(_rounded(val.value))
    assert lines[:2] == [f"E(x, y) = {v.real:.17g} + {v.imag:.17g} i", f"degree used = {val.degree_used}"]
    assert lines[3] == f"last term = {abs(_rounded(terms[-1])):.17g}"
    for n in range(val.degree_used + 1):
        assert homogeneous_kernel(ctx, n, x).terms == _correctly_rounded_kernel(ctx, n, x)
    d = ctx.dimension
    rng = random.Random(7)
    for scalars in ((0.1, -0.7, 1 / 3), (0.3 + 0.2j, -1.1, 2.5e-3j)):
        p = Polynomial(d, {nu: rng.choice(scalars) for nu in monomial_basis(d, 4)})
        want = intertwine(ctx, Polynomial(d, {nu: _exact(c) for nu, c in p.terms.items()}))
        got = intertwine(ctx, p)
        assert got.terms == {mu: _rounded(c) for mu, c in want.terms.items()}
        assert all(isinstance(c, (float, complex)) for c in got.terms.values())


@pytest.mark.parametrize("name", sorted(FLOAT_QUERIES))
def test_evaluate_en_is_the_homogeneous_kernel_at_y(name):
    # E_n(x, y) summed from the V tables over one denominator is
    # homogeneous_kernel(x).evaluate(y), with its type, at exact points (a
    # complex y too), and at float points it is that value at their binary
    # values rounded once
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    x, y = FLOAT_QUERIES[name]
    xq, yq = _rational(x), _rational(y)
    yc = tuple(ComplexRational(t, Fraction(1, 3)) for t in yq)
    for n in range(7):
        for point in (yq, yc):
            want = homogeneous_kernel(ctx, n, xq).evaluate(point)
            got = evaluate_en(ctx, n, xq, point)
            assert got == want and type(got) is type(want)
        want = _rounded(homogeneous_kernel(ctx, n, xq).evaluate(yq))
        for xs, ys in ((x, y), (xq, y), (x, yq)):
            got = evaluate_en(ctx, n, xs, ys)
            assert repr(got) == repr(want) and type(got) is type(want)


def _heated_kernels(ctx, x, n_trunc):
    """The series path's reference images: heat_half of the Fraction
    polynomial E_n(x, .) of each degree n <= n_trunc at an exact x."""
    return [heat_half(homogeneous_kernel(ctx, n, x)) for n in range(n_trunc + 1)]


@pytest.mark.parametrize("name", sorted(FLOAT_QUERIES))
def test_heat_tables_are_heat_half_of_the_homogeneous_kernel(name):
    # the series path heats E_n(x, .)'s integer table with the heat rows: per
    # degree and summed (the series table the Gaussian pairings read), that
    # is heat_half of homogeneous_kernel's Fraction polynomials at the
    # rational x, and those rounded once at the float x
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    x, _ = FLOAT_QUERIES[name]
    xq = _rational(x)
    ev = make_evaluator(ctx, 8)
    images = _heated_kernels(ctx, xq, ev.n_trunc)

    def series_table(point):
        exact, rounded = _read_exact(point)
        return _polynomial(ctx.dimension, kernel._series_table(ev, exact), rounded)

    cases = [(partial(heat_image, ev, n), image) for n, image in enumerate(images)]
    cases.append((series_table, sum(images, Polynomial.zero(ctx.dimension))))
    for image_at, want in cases:
        for point, terms in ((xq, want.terms), (x, {nu: _rounded(c) for nu, c in want.terms.items()})):
            got = image_at(point).terms
            assert got == terms and all(type(got[nu]) is type(c) for nu, c in terms.items())


@pytest.mark.parametrize("name", sorted(FLOAT_QUERIES))
def test_series_value_and_mass_at_float_points_are_rounded_once(name):
    # at float points the series path's value and mass are the exact values
    # at the points' binary values, rounded once; so is the extended
    # functional on every monomial p of degree <= N, which at the rational x
    # is V(e^{Lap/2} p)(x) exactly (z21neg passes its fallback degree 2), and
    # so are the functional norm's two routes, which agree as floats
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    d = ctx.dimension
    x, y = FLOAT_QUERIES[name]
    xq, yq = _rational(x), _rational(y)
    ev = make_evaluator(ctx, 8)
    series = sum(_heated_kernels(ctx, xq, ev.n_trunc), Polynomial.zero(d))
    for got, want in (
        (lk_series_value(ev, x, y), series.evaluate(yq)),
        (unit_mass(ev, x), gaussian_integral(series)),
    ):
        assert repr(got) == repr(_rounded(want))
    rule = gauss_rule(d, 1)
    ps = [Polynomial.monomial(d, nu) for n in range(ev.n_trunc + 1) for nu in monomial_basis(d, n)]
    for p, got, got_float in zip(ps, phi_x_apply(ev, xq, ps, rule), phi_x_apply(ev, x, ps, rule)):
        want = intertwine(ctx, inverse_heat_half(p))
        assert got == want.evaluate(xq) and isinstance(got, (Fraction, ComplexRational))
        assert repr(got_float) == repr(_rounded(got)) and got_float == want.evaluate(x)
    s, q = phi_x_norm(ev, x)
    assert s == q and type(s) is float and (s, q) == phi_x_norm(ev, xq)


@pytest.mark.parametrize("family, k_values, n_trunc, kw", GRID_CASES)
def test_mass_is_exactly_one_at_rational_points(family, k_values, n_trunc, kw):
    ev = make_ev(family, k_values, n_trunc, **kw)
    rng = random.Random(2)
    for _ in range(3):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ev.dimension))
        mass = unit_mass(ev, x)
        assert mass == 1 and isinstance(mass, (Fraction, ComplexRational))


def _exact(c):
    """The binary value of a float or complex scalar."""
    if isinstance(c, complex):
        return ComplexRational(Fraction(c.real), Fraction(c.imag))
    return Fraction(c)


@pytest.mark.parametrize(
    "family, k_values, kw",
    [
        ("B", [Fraction(1, 2), Fraction(3, 2)], dict(d=2)),
        ("B", [ComplexRational(Fraction(1, 2), Fraction(1, 3)), Fraction(1)], dict(d=2)),
        ("A", Fraction(1), dict(d=3)),
        ("G2", [Fraction(1, 2), Fraction(1)], {}),
    ],
)
def test_float_values_do_not_depend_on_table_term_order(family, k_values, kw):
    # reversing the terms of every V table leaves E_n(x, .) at a float point
    # and the generalized exponential bit for bit the same
    ev = make_ev(family, k_values, 12, **kw)
    ctx = ev.ctx
    d = ctx.dimension
    rng = random.Random(3)
    points = [
        (tuple(rng.uniform(-0.4, 0.4) for _ in range(d)), tuple(rng.uniform(-1, 1) for _ in range(d)))
        for _ in range(3)
    ]

    def values():
        out = []
        for x, y in points:
            out.append([homogeneous_kernel(ctx, n, x).terms for n in range(ev.n_trunc + 1)])
            val = dunkl_kernel(ctx, x, y, tol=1e-12)
            out.append((val.value, val.last_term))
        return out

    before = values()
    # every evaluation reads E_n's tables as they are kept, so reversing
    # each column in place reverses what it reads
    assert all(_e_table(ctx, n) is ctx.vk_cache[n] for n in range(ev.n_trunc + 1))
    for cols, _ in ctx.vk_cache.values():
        for nums in cols.values():
            items = list(nums.items())
            nums.clear()
            nums.update(reversed(items))
    assert values() == before


def test_float_tables_match_exact_through_fallback_degree():
    # k = -1 makes the group-algebra system singular at degree 2, so the
    # table passes through the dense inverse on P_2
    ev = make_ev("Z2^d", Fraction(-1), 6, d=1)
    assert ev.ctx.fallback_degrees == [2]
    x = (0.7,)
    for nu in (nu for n in range(ev.n_trunc + 1) for nu in monomial_basis(1, n)):
        a = _polynomial(1, _vk_table(ev.ctx, nu), rounded=True).evaluate(x)
        assert abs(a - _polynomial(1, _vk_table(ev.ctx, nu)).evaluate(_rational(x))) <= 1e-12
    _assert_float_points_agree(ev, x, (-0.45,), 1e-12)


def _rational(point):
    """The float coordinates as the Fractions of their exact binary values."""
    return tuple(Fraction(t) for t in point)


def _assert_float_points_agree(ev, x, y, tol):
    """Both kernel paths, lk_values, both functional-norm routes and the Fourier
    sums give the same numbers at the float points x, y as at the same
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
    assert abs(lk_values(ev, [x], [y])[0][0] - complex(lk_series_value(ev, xq, yq))) < tol
    for a, b in zip(phi_x_norm(ev, x), phi_x_norm(ev, xq)):
        assert abs(a - b) < tol
    fa, fb = fourier_sums(ev, x, y), fourier_sums(ev, xq, yq)
    for side in ("plus", "minus"):
        assert abs(fa[side] - fb[side]) < tol


def test_exact_and_float_queries_at_one_point_keep_their_types(ev_b2):
    # Fraction(0.35) == 0.35 and the two hash alike; the caches must still
    # return exact coefficients at the rational point and floats at the float
    # one, and the Gaussian pairings read from the cached series table exact
    # values at the rational point and floats at the float one, in either
    # order of the queries
    x = (0.35, -0.6)
    xq = _rational(x)
    ps = [Polynomial.monomial(2, nu) for n in range(7) for nu in monomial_basis(2, n)]
    for first, second in ((xq, x), (x, xq)):
        ev = make_evaluator(ev_b2.ctx, 6)
        for point in (first, second):
            want = (Fraction, ComplexRational) if point is xq else (float, complex)
            for p in [heat_image(ev, n, point) for n in range(7)]:
                assert p.terms and all(isinstance(c, want) for c in p.terms.values())
            assert all(isinstance(v, want) for v in phi_x_apply(ev, point, ps, gauss_rule(2, 1)))


def test_heat_images_sum_to_the_series_value(ev_b2):
    x = (0.3, 0.1)
    p = series_polynomial(ev_b2, x)
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
    # gaussian_image_check reads T's coefficient of u^nu as He_nu(-y) / nu!
    # from the Hermite numerators of -y; the minus sign's T is T(-u), whose
    # coefficients are He_nu(y) / nu!
    d = len(y)
    degrees = (0, 1, 2, 20) + ((36,) if d == 2 else ())
    for deg in degrees:
        axes, r = _heat_axes([-sign * t for t in y], deg, -1)
        got = Polynomial(d, {
            nu: Fraction(math.prod(h[e] for h, e in zip(axes, nu)), r**n * _multi_factorial(nu))
            for n in range(deg + 1)
            for nu in monomial_basis(d, n)
        })
        want = _gaussian_taylor_by_products(d, y, sign, deg)
        assert got.terms == want.terms
        assert all(type(got.terms[nu]) is type(c) for nu, c in want.terms.items())


TAYLOR_IMAGE_CASES = pytest.mark.parametrize(
    "family, k, kw, x, y",
    [
        (
            "B",
            [Fraction(1, 2), Fraction(3, 2)],
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


@TAYLOR_IMAGE_CASES
def test_minus_taylor_image_is_plus_image_at_minus_x(family, k, kw, x, y):
    # the identity that lets gaussian_image_check intertwine one Taylor polynomial
    ctx = make_ev(family, k, 1, **kw).ctx
    minus_x = tuple(-t for t in x)
    top = _gaussian_taylor_by_products(len(x), y, 1, 12)
    for deg in range(13):
        plus = _truncate_total_degree(top, deg)
        minus = _negate_odd_degrees(plus)
        assert intertwine(ctx, minus).evaluate(x) == intertwine(ctx, plus).evaluate(minus_x)


@TAYLOR_IMAGE_CASES
def test_gaussian_image_check_sums_are_the_intertwined_taylor_polynomial(
    family, k, kw, x, y, monkeypatch
):
    # the check sums E_n(x, .)'s tables against He_nu(-y), the even and the
    # odd degrees apart; even + odd and even - odd must be V(T)(x) and
    # V(T)(-x) exactly, T the Taylor polynomial of degree D
    ev = make_ev(family, k, 1, **kw)
    sums = []
    table_sum = kernel._table_sum

    def recorded(*args):
        sums.append(table_sum(*args))
        return sums[-1]

    monkeypatch.setattr(kernel, "_table_sum", recorded)
    top = _gaussian_taylor_by_products(len(x), y, 1, 12)
    for deg in range(13):
        sums.clear()
        gaussian_image_check(ev, x, y, deg)
        even, odd = sums
        image = intertwine(ev.ctx, _truncate_total_degree(top, deg))
        assert even + odd == image.evaluate(x)
        assert even - odd == image.evaluate(tuple(-t for t in x))


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
        ("B", [Fraction(1, 2), Fraction(3, 2)], {"d": 2}),
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
    top = _gaussian_taylor_by_products(2, y, 1, 20)
    for deg in range(6, 21):
        taylor = float(_truncate_total_degree(top, deg).evaluate(x))
        assert abs(taylor - exact) <= tail_bound(ev0, xn, yn, deg).value, deg
        # and through the check, where the kernel's tail at degree 30 is far smaller
        res = gaussian_image_check(ev0, x, y, deg)
        assert res["minus"] <= res["trunc_bound"], deg


# -- the derivative relation's x side and the joined kernel sum, pinned exactly -------

def _intertwined_hermite_sum(ev, y):
    """intertwine(ctx, sum_nu He_nu(y) x^nu / nu!) over |nu| <= N: L^(N)(., y)
    the way the derivative relation once formed it."""
    he = [hermite_values(t, ev.n_trunc) for t in y]
    weights = {
        nu: math.prod(h[e] for h, e in zip(he, nu)) * Fraction(1, _multi_factorial(nu))
        for n in range(ev.n_trunc + 1)
        for nu in monomial_basis(ev.dimension, n)
    }
    return intertwine(ev.ctx, Polynomial(ev.dimension, weights))


def _derivative_relation_by_intertwine(ev, x, y, j):
    """The derivative relation with its x side through intertwine and
    dunkl_apply on Polynomials: the reference for derivative_relation_check."""
    window = math.exp(-(_norm(y) ** 2) / 2.0)
    (x, _), (y, _) = _read_exact(x), _read_exact(y)
    lk = series_polynomial(ev, x)
    lhs = window * complex(lk.partial(j).evaluate(y) - y[j] * lk.evaluate(y))
    e_j = tuple(int(i == j) for i in range(ev.dimension))
    q = dunkl_apply(ev.ctx, e_j, _intertwined_hermite_sum(ev, y))
    rhs = window * complex(q.evaluate(x))
    return {"plus": abs(lhs - rhs), "minus": abs(lhs + rhs)}


# config -> truncation degree; z21neg (k = -1) has its fallback degree 2 below it
X_SIDE_DEGREES = {"b2": 8, "a2": 5, "b2c": 6, "z21neg": 5}


@pytest.mark.parametrize("name", sorted(X_SIDE_DEGREES))
def test_derivative_relation_x_table_is_the_intertwined_hermite_sum(name):
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    ev = make_evaluator(ctx, X_SIDE_DEGREES[name])
    if name == "z21neg":
        assert ctx.fallback_degrees == [2]
    d = ev.dimension
    rational = tuple(Fraction(t, 7) for t in (5, -3, 2)[:d])
    floats = tuple((0.31, -0.62, 0.17)[:d])
    for y in (rational, floats):
        y = tuple(_read_exact(y)[0])
        table = kernel._lk_x_table(ev, y)
        assert _polynomial(d, table) == _intertwined_hermite_sum(ev, y), y
        assert all(table[0].values())
    x = tuple(Fraction(t, 5) for t in (2, 1, -1)[:d])
    for point in (rational, floats):
        for j in range(d):
            assert derivative_relation_check(ev, x, point, j) == _derivative_relation_by_intertwine(
                ev, x, point, j
            )


@pytest.mark.parametrize("name", ["b2", "b2c", "z21neg", "a2"])
def test_kernel_sum_is_the_sum_of_evaluate_en_exactly(name):
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    d = ctx.dimension
    x = tuple(Fraction(t, 6) for t in (1, -2, 3)[:d])
    points = [tuple(Fraction(t, 5) for t in (3, 4, -1)[:d])]
    points.append(tuple(ComplexRational(Fraction(t, 3), Fraction(1, 4)) for t in (1, -1, 2)[:d]))
    for y in points:
        for n_trunc in (0, 1, 2, 7):
            terms = [evaluate_en(ctx, n, x, y) for n in range(n_trunc + 1)]
            total, last = _kernel_sum(ctx, x, y, n_trunc)
            assert total == sum(terms) and type(total) is type(sum(terms)), (y, n_trunc)
            assert last == abs(complex(terms[-1]))


def _tail_term_by_per_term_logs(u, v, d, n):
    """_tail_term as it was, with log 2 and log v taken inside the loop."""
    if u == 0.0:
        return 0.0
    log_u_n = n * math.log(u)
    log_d = math.log(d) if d else 0.0
    total = 0.0
    for m in range(n // 2 + 1 if d else 1):
        r = n - 2 * m
        if v == 0.0 and r > 0:
            continue
        lt = log_u_n + m * log_d - m * math.log(2.0) - math.lgamma(m + 1)
        if r > 0:
            lt += r * math.log(v) - math.lgamma(r + 1)
        if lt > 690.0:
            return math.inf
        total += math.exp(lt)
    return total


def test_tail_term_is_bit_identical_to_the_per_term_logs():
    rng = random.Random(36)
    for _ in range(2000):
        u = rng.choice([0.0, rng.uniform(1e-9, 1e-3), rng.uniform(0.0, 4.0), rng.uniform(4.0, 300.0)])
        v = rng.choice([0.0, rng.uniform(1e-9, 1e-3), rng.uniform(0.0, 3.0), rng.uniform(3.0, 80.0)])
        d, n = rng.choice([0, 1, 2, 3, 6]), rng.randint(0, 70)
        assert _tail_term(u, v, d, n).hex() == _tail_term_by_per_term_logs(u, v, d, n).hex(), (u, v, d, n)
