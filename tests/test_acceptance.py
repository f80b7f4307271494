"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dunkl.kernel import (
    certified_radius,
    convolution_check,
    gaussian_image_check,
    heat_image,
    hermite_piece,
    make_evaluator,
    phi_x_apply,
    phi_x_norm,
    positivity_scan,
    symmetry_scan,
    tail_bound,
)
from dunkl.operators import (
    dunkl_apply,
    dunkl_kernel,
    evaluate_en,
    intertwine,
    make_context,
    monomial_basis,
    solve_H,
)
from dunkl.poly import Polynomial, combination, fischer, heat_half, inverse_heat_half
from dunkl.quad import gauss_rule
from dunkl.reflection_groups import (
    act_on_polynomial,
    build_root_system,
    generate_group,
    select_positive,
    validate_multiplicity,
)


def make_ctx(family, k_values, **kw):
    system = build_root_system(family, **kw)
    pos = select_positive(system)
    group = generate_group(pos)
    k = validate_multiplicity(pos, k_values)
    return make_context(group, pos, k)


B2_WEIGHTS = [Fraction(1, 2), Fraction(3, 2)]


@pytest.fixture(scope="module")
def b2_ctx():
    return make_ctx("B", B2_WEIGHTS, d=2)


@pytest.fixture(scope="module")
def b2_ev(b2_ctx):
    return make_evaluator(b2_ctx, 14)


@pytest.fixture(scope="module")
def rule2():
    return gauss_rule(2, 40)


def report(num, label, detail):
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({detail})")


# -- 1 -----------------------------------------------------------------------------

def test_criterion_01_exact_intertwining():
    t0 = time.monotonic()
    singles = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    pairs = [
        [Fraction(0), Fraction(0)],
        [Fraction(1, 2), Fraction(3, 2)],
        [Fraction(1), Fraction(1, 2)],
        [Fraction(3, 2), Fraction(1)],
    ]
    cases = (
        ("Z2^d", {"d": 1}, singles),
        ("Z2^d", {"d": 2}, pairs),
        ("A", {"d": 3}, singles),
        ("B", {"d": 2}, pairs),
    )
    checks = 0
    for family, kw, weights in cases:
        for w in weights:
            ctx = make_ctx(family, w, **kw)
            d = ctx.dimension
            for n in range(0, 9):
                for nu in monomial_basis(d, n):
                    mono = Polynomial.monomial(d, nu)
                    vp = intertwine(ctx, mono)
                    for j in range(d):
                        e = tuple(1 if t == j else 0 for t in range(d))
                        assert dunkl_apply(ctx, e, vp) == intertwine(
                            ctx, mono.partial(j)
                        ), (family, w, nu, j)
                        checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, "exact-intertwining", f"{checks} exact identities in {elapsed:.1f}s")


# -- 2 -----------------------------------------------------------------------------

def test_criterion_02_degree_inverse_correctness(b2_ctx):
    contexts = [
        b2_ctx,
        make_ctx("A", Fraction(1), d=3),
        make_ctx("Z2^d", [Fraction(1, 2), Fraction(1)], d=2),
    ]
    checks = 0
    for ctx in contexts:
        d = ctx.dimension
        for n in range(1, 9):
            solve_H(ctx, n)  # builds and checks H_n, recording lam_n in h_cache
            h = ctx.h_cache[n]
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                hp = combination(
                    d, ((act_on_polynomial(ctx.group, g, mono), c) for g, c in enumerate(h) if c)
                )
                back = hp * (n + ctx.gamma) - _apply_a(ctx, hp)
                assert back == mono
                checks += 1
    for k0 in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        ctx = make_ctx("Z2^d", k0, d=1)
        ctx.prepare(1)
        lam = ctx.h_cache[1]
        assert lam == ((1 + k0) / (1 + 2 * k0), k0 / (1 + 2 * k0))
    report(2, "degree-inverse", f"{checks} basis identities + rank-1 tables exact")


def _apply_a(ctx, p):
    from dunkl.operators import operator_A

    return operator_A(ctx, p)


# -- 3 -----------------------------------------------------------------------------

def rank_one_triangular_oracle(k0, n_max):
    """Coefficients of V on x^n from the intertwining constraints alone.

    In one variable V(x^n) = c_n x^n; requiring T(V x^n) = V(n x^{n-1})
    with T(x^m) = (m + k0 (1 - (-1)^m)) x^{m-1} gives the triangular
    recurrence c_n = n c_{n-1} / (n + k0 (1 - (-1)^n)), c_0 = 1.
    """
    cs = [Fraction(1)]
    for n in range(1, n_max + 1):
        denom = n + k0 * (1 - (-1) ** n)
        cs.append(n * cs[-1] / denom)
    return cs


def test_criterion_03_rank_one_oracle():
    for k0 in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)):
        ctx = make_ctx("Z2^d", k0, d=1)
        cs = rank_one_triangular_oracle(k0, 10)
        assert cs[1] == 1 / (1 + 2 * k0)
        assert cs[2] == 1 / (1 + 2 * k0)
        for n in range(0, 11):
            got = intertwine(ctx, Polynomial.monomial(1, (n,)))
            assert got == Polynomial.monomial(1, (n,), cs[n])
    report(3, "rank-one-oracle", "independent triangular solve matches V up to degree 10")


# -- 4 -----------------------------------------------------------------------------

def test_criterion_04_zero_weight_degeneration():
    for family, kw in (("Z2^d", {"d": 2}), ("B", {"d": 2}), ("A", {"d": 3})):
        ctx = make_ctx(family, Fraction(0), **kw)
        d = ctx.dimension
        for n in range(0, 9):
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                assert intertwine(ctx, mono) == mono

    ctx = make_ctx("Z2^d", Fraction(0), d=1)
    ctx.prepare(1)
    # truncation degree picked by the tail bound at the corner of the box
    n_trunc = None
    probe = make_evaluator(ctx, 1)
    for n in range(1, 200):
        if tail_bound(probe, 1.5, 1.5, n).value < 1e-10:
            n_trunc = n
            break
    assert n_trunc is not None
    ev = make_evaluator(ctx, n_trunc)
    pts = [(-1.5, -1.5), (-0.9, 1.2), (0.0, 0.7), (0.6, -0.3), (1.5, 1.5), (1.5, -1.5)]
    worst_e = worst_l = 0.0
    for x, y in pts:
        ek = dunkl_kernel(ctx, (x,), (y,), tol=1e-10)
        worst_e = max(worst_e, abs(complex(ek.value) - math.exp(x * y)))
        lk = sum(
            complex(heat_image(ev, n, (x,)).evaluate((y,)))
            for n in range(ev.n_trunc + 1)
        )
        worst_l = max(worst_l, abs(lk - math.exp(x * y - x * x / 2)))
    assert worst_e <= 1e-10
    assert worst_l <= 1e-10
    report(
        4,
        "zero-weight-degeneration",
        f"V = id exact; kernels within {max(worst_e, worst_l):.2e} at N = {n_trunc}",
    )


# -- 5 -----------------------------------------------------------------------------

def test_criterion_05_gaussian_pairing_formula():
    worst = 0.0
    pairs = 0
    for d in (1, 2):
        rule = gauss_rule(d, 40)
        monos = []
        for n in range(0, 13):
            monos.extend(monomial_basis(d, n))
        heats = [heat_half(Polynomial.monomial(d, nu, 1.0)) for nu in monos]
        vals = np.array([h.evaluate_many(rule.nodes) for h in heats]).real
        gram = (vals * np.array(rule.weights)[None, :]) @ vals.T
        for i, nu in enumerate(monos):
            for j, mu in enumerate(monos):
                if sum(nu) + sum(mu) > 12:
                    continue
                exact = float(fischer(Polynomial.monomial(d, nu), Polynomial.monomial(d, mu)))
                worst = max(worst, abs(gram[i, j] - exact) / max(1.0, abs(exact)))
                pairs += 1
    assert worst <= 1e-10
    report(5, "gaussian-pairing", f"{pairs} monomial pairs, worst relative {worst:.2e}")


# -- 6 -----------------------------------------------------------------------------

def test_criterion_06_unit_mass(b2_ev, rule2):
    # the extended functional on the constant 1
    one2, one1 = [Polynomial.constant(2, 1)], [Polynomial.constant(1, 1)]
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(10):
        x = tuple(rng.uniform(-1.5, 1.5, 2))
        worst = max(worst, abs(complex(phi_x_apply(b2_ev, x, one2, rule2)[0]) - 1))
    ev1 = make_evaluator(make_ctx("Z2^d", Fraction(1, 2), d=1), 24)
    rule1 = gauss_rule(1, 40)
    for _ in range(10):
        x = (rng.uniform(-1.5, 1.5),)
        worst = max(worst, abs(complex(phi_x_apply(ev1, x, one1, rule1)[0]) - 1))
    assert worst <= 1e-12
    report(6, "unit-mass", f"20 random x, worst |mass - 1| = {worst:.2e}")


# -- 7 -----------------------------------------------------------------------------

def test_criterion_07_two_path_grid(b2_ev):
    t0 = time.monotonic()
    ts = np.linspace(-1.5, 1.5, 21)
    ux, uy = (0.8, 0.6), (-0.6, 0.8)
    worst = 0.0
    for t in ts:
        x = (t * ux[0], t * ux[1])
        # L^(N)(x, .) in y along the series path, its heat images summed
        images = (heat_image(b2_ev, n, x) for n in range(b2_ev.n_trunc + 1))
        lkp = sum(images, Polynomial.zero(2)).to_float()
        for s in ts:
            y = (s * uy[0], s * uy[1])
            series = complex(lkp.evaluate(y))
            herm = sum(hermite_piece(b2_ev, n, x, y) for n in range(b2_ev.n_trunc + 1))
            worst = max(worst, abs(series - complex(herm)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 120.0
    report(7, "two-path-grid", f"441 points, worst {worst:.2e}, {elapsed:.1f}s")


# -- 8 -----------------------------------------------------------------------------

def test_criterion_08_convolution_identity(b2_ev):
    radius = certified_radius(b2_ev, 1e-6, 1.0)
    assert radius > 0
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(25):
        scale = rng.uniform(0, radius)
        theta = rng.uniform(0, 2 * math.pi)
        x = (scale * math.cos(theta), scale * math.sin(theta))
        y = tuple(rng.uniform(-0.7, 0.7, 2))
        assert tail_bound(b2_ev, math.hypot(*x), math.hypot(*y)).value < 1e-6
        worst = max(worst, convolution_check(b2_ev, x, y))
    assert worst <= 1e-6
    report(
        8,
        "convolution-identity",
        f"25 pairs inside |x| <= {radius:.3g}, worst residual {worst:.2e}",
    )


# -- 9 -----------------------------------------------------------------------------

def test_criterion_09_reconstruction(b2_ev, rule2):
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(5):
        x = tuple(rng.uniform(-0.8, 0.8, 2))
        xn = math.hypot(*x)
        allowance = tail_bound(b2_ev, xn, 0.0).value + 1e-10
        for n in range(0, 9):
            ps = [Polynomial.monomial(2, nu) for nu in monomial_basis(2, n)]
            for p, got in zip(ps, phi_x_apply(b2_ev, x, ps, rule2)):
                want = intertwine(b2_ev.ctx, inverse_heat_half(p)).evaluate(x)
                diff = abs(complex(got) - complex(want))
                assert diff <= allowance, (x, p, diff, allowance)
                worst = max(worst, diff)
    report(9, "reconstruction", f"45 monomials x 5 points, worst {worst:.2e}")


# -- 10 ----------------------------------------------------------------------------

def test_criterion_10_functional_norm(b2_ev):
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(3):
        x = tuple(rng.uniform(-0.8, 0.8, 2))
        s_route, q_route = phi_x_norm(b2_ev, x)
        worst = max(worst, abs(s_route - q_route) / s_route)
    assert worst <= 1e-6
    ev0 = make_evaluator(make_ctx("Z2^d", Fraction(0), d=1), 12)
    s_route, q_route = phi_x_norm(ev0, (1.0,))
    err = abs(s_route**2 - math.e)
    assert err <= 1e-6
    assert abs(q_route**2 - math.e) <= 1e-6
    report(
        10,
        "functional-norm",
        f"routes within {worst:.2e}; squared norm at the unit point off e by {err:.2e}",
    )


# -- 11 ----------------------------------------------------------------------------

def test_criterion_11_positivity():
    ctx1 = make_ctx("Z2^d", Fraction(1, 2), d=1)
    ev1 = make_evaluator(ctx1, 110)
    grid = [(round(-2 + 0.1 * i, 10),) for i in range(41)]
    rep1 = positivity_scan(ev1, grid, grid)
    assert rep1.max_tail < 1e-8
    assert rep1.min_value >= -1e-8

    ctx2 = make_ctx("B", [Fraction(1, 2), Fraction(1)], d=2)
    ev2 = make_evaluator(ctx2, 48)
    radius = certified_radius(ev2, 5e-9, 1.5)
    span = radius * 0.95 / math.sqrt(2)
    xs = [(a, b) for a in np.linspace(-span, span, 5) for b in np.linspace(-span, span, 5)]
    ys = [(a, b) for a in np.linspace(-1.0, 1.0, 9) for b in np.linspace(-1.0, 1.0, 9)]
    rep2 = positivity_scan(ev2, xs, ys)
    assert rep2.min_value >= -1e-8
    assert rep2.max_abs_imag <= 1e-12 and rep1.max_abs_imag <= 1e-12
    report(
        11,
        "positivity",
        f"rank-1 grid min {rep1.min_value:.3g}; signed-permutation grid min "
        f"{rep2.min_value:.3g} within |x| <= {radius:.3g}",
    )


# -- 12 ----------------------------------------------------------------------------

def test_criterion_12_equivariance_and_parity(b2_ctx):
    ev = make_evaluator(b2_ctx, 10)
    samples = [
        (Fraction(1, 3), Fraction(-1, 2)),
        (Fraction(2, 5), Fraction(1, 7)),
    ]
    rep = symmetry_scan(ev, samples)
    assert rep.failures == ()

    val = dunkl_kernel(b2_ctx, (Fraction(1, 2), Fraction(1, 3)), (0, 0), tol=1e-12)
    assert val.value == 1

    lam = Fraction(5, 3)
    x = (Fraction(1, 4), Fraction(-1, 2))
    y = (Fraction(1, 3), Fraction(1))
    for n in range(0, 6):
        base = evaluate_en(b2_ctx, n, x, y)
        assert evaluate_en(b2_ctx, n, tuple(lam * t for t in x), y) == lam**n * base
        assert evaluate_en(b2_ctx, n, x, tuple(lam * t for t in y)) == lam**n * base
    report(12, "equivariance-parity", f"{rep.checked} exact per-term checks")


# -- 13 ----------------------------------------------------------------------------

def test_criterion_13_sign_conventions():
    x = (Fraction(3, 5),)
    y = (Fraction(9, 10),)
    ctx0 = make_ctx("Z2^d", Fraction(0), d=1)
    ev0 = make_evaluator(ctx0, 30)
    gauss0 = gaussian_image_check(ev0, x, y, taylor_degree=48)
    # the closed-form transform z^nu -> (-i)^|nu| He_nu(y) e^{-|y|^2/2} turns
    # E(+-ix, .) into the Gaussian image's sum at y, so the Fourier form reads
    # the same sums with plus and minus exchanged
    four0 = {"plus": gauss0["minus"], "minus": gauss0["plus"]}
    assert gauss0["minus"] <= 1e-8 and gauss0["plus"] >= 0.1
    assert four0["plus"] <= 1e-8 and four0["minus"] >= 0.1

    ctx = make_ctx("Z2^d", Fraction(1, 2), d=1)
    ev = make_evaluator(ctx, 30)
    gauss = gaussian_image_check(ev, x, y, taylor_degree=48)
    four = {"plus": gauss["minus"], "minus": gauss["plus"]}
    assert gauss["minus"] <= 1e-6 and gauss["minus"] < gauss["plus"]
    assert four["plus"] <= 1e-6 and four["plus"] < four["minus"]
    report(
        13,
        "sign-conventions",
        "Gaussian image validates with the difference shift "
        f"({gauss0['minus']:.1e} vs {gauss0['plus']:.2f}); the Fourier form "
        f"validates with the +i rotation ({four0['plus']:.1e} vs {four0['minus']:.2f}); "
        "same conventions hold at weight 1/2",
    )


# -- 14 ----------------------------------------------------------------------------

def test_criterion_14_term_bounds(b2_ev):
    ctx = b2_ev.ctx
    assert ctx.delta_hat is not None
    print("n * max |lambda_n(g)| table:")
    for n, row in ctx.delta_table:
        print(f"  {n:3d}  {row:.6f}")
        assert row <= ctx.delta_hat
    from dunkl.operators import homogeneous_kernel

    # for k >= 0 the representing measures give |Lap^m E_n(x, .)(y)| <=
    # |x|^n |y|^{n-2m} / (n-2m)!, with no delta_hat, |G| or d
    rng = np.random.default_rng(140)
    for _ in range(3):
        x = tuple(rng.uniform(-0.6, 0.6, 2))
        y = tuple(rng.uniform(-1.0, 1.0, 2))
        xn, yn = math.hypot(*x), math.hypot(*y)
        for n in range(0, 15):
            lap = homogeneous_kernel(ctx, n, x).to_float()
            for m in range(n // 2 + 1):
                got = abs(complex(lap.evaluate(y)))
                bound = xn**n * yn ** (n - 2 * m) / math.factorial(n - 2 * m)
                assert got <= bound * (1 + 1e-9) + 1e-300, (x, y, n, m)
                lap = lap.laplacian()
    report(14, "term-bounds", "all per-term Laplacian bounds hold on degrees 0..14")
