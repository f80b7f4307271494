import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dunkl.config import build_bundle, load_context, polynomial_to_literal, save_context
from fraction_solve import fraction_invert_matrix, fraction_solve_columns
from test_reflection_groups import _substituted

from dunkl.exact import ComplexRational, SingularMatrixError, _exact_table, _read_exact
from dunkl.exact import scalar_to_json
from dunkl.operators import (
    ExactDivisionError,
    NotInMStarError,
    divide_by_root_pairing,
    dunkl_apply,
    dunkl_kernel,
    en_expansion_oracle,
    estimate_delta,
    evaluate_en,
    homogeneous_kernel,
    homogeneous_kernel_bivariate,
    intertwine,
    intertwine_inverse,
    make_context,
    monomial_basis,
    operator_A,
    solve_H,
    _vk_table,
)
from dunkl.poly import Polynomial, _combination, _polynomial, combination, fischer
from dunkl.reflection_groups import (
    MultiplicityError,
    act_on_polynomial,
    build_root_system,
    generate_group,
    mat_vec,
    select_positive,
    validate_multiplicity,
)


def context(family, k_values, **kw):
    system = build_root_system(family, **kw)
    pos = select_positive(system)
    group = generate_group(pos)
    k = validate_multiplicity(pos, k_values)
    return make_context(group, pos, k)


@pytest.fixture(scope="module")
def z21():
    return context("Z2^d", Fraction(1, 2), d=1)


@pytest.fixture(scope="module")
def b2():
    return context("B", [Fraction(1, 2), Fraction(3, 2)], d=2)


@pytest.fixture(scope="module")
def a2():
    return context("A", Fraction(1), d=3)


def x_var(d=1, j=0):
    return Polynomial.variable(d, j)


# -- Dunkl operator ------------------------------------------------------------

def test_dunkl_reduces_to_derivative_at_zero_weight():
    ctx = context("B", Fraction(0), d=2)
    p = Polynomial(2, {(3, 1): Fraction(2), (0, 2): Fraction(-1, 3)})
    for j, e in ((0, (1, 0)), (1, (0, 1))):
        assert dunkl_apply(ctx, e, p) == p.partial(j)
    # d_xi = sum_j xi_j d_j on non-unit directions
    assert dunkl_apply(ctx, (Fraction(2), -1), p) == p.partial(0) * 2 - p.partial(1)


def test_dunkl_rank_one_examples(z21):
    x = x_var()
    assert dunkl_apply(z21, (1,), x) == Polynomial.constant(1, 2)  # 1 + 2 k0
    assert dunkl_apply(z21, (1,), x * x) == 2 * x


def test_dunkl_commutativity(b2):
    p = Polynomial(2, {(3, 2): Fraction(1, 2), (1, 1): Fraction(-2), (4, 0): Fraction(1, 7)})
    e1, e2 = (1, 0), (0, 1)
    assert dunkl_apply(b2, e1, dunkl_apply(b2, e2, p)) == dunkl_apply(
        b2, e2, dunkl_apply(b2, e1, p)
    )


def test_dunkl_apply_float_coefficients_on_exact_context(b2):
    terms = {
        (3, 0): Fraction(1, 10),
        (1, 2): Fraction(7, 10),
        (0, 3): Fraction(3, 10),
        (2, 1): Fraction(1, 3),
    }
    floats = {nu: float(c) for nu, c in terms.items()}
    # the exact image at the floats' binary values, each coefficient rounded once
    exact = dunkl_apply(b2, (1, 0), Polynomial(2, {nu: Fraction(c) for nu, c in floats.items()}))
    got = dunkl_apply(b2, (1, 0), Polynomial(2, floats))
    assert got.terms == {nu: float(c) for nu, c in exact.terms.items()}
    assert all(type(c) is float for c in got.terms.values())


def _table(p):
    """p's integer table, a float coefficient read as its binary value."""
    coeffs, _ = _read_exact(p.terms.values())
    return _exact_table(dict(zip(p.terms, coeffs)))


def test_root_pairing_remainder_tolerance_follows_coefficient_type():
    alpha = (1, -1)
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})  # x1 - x2
    assert divide_by_root_pairing(_table(p), alpha) == ({(0, 0): 1}, 1)
    # any nonzero remainder is fatal, exact or a float read as its binary value
    with pytest.raises(ExactDivisionError):
        divide_by_root_pairing(_table(p + Fraction(1, 10**12)), alpha)
    with pytest.raises(ExactDivisionError):
        divide_by_root_pairing(_table(p + 1e-12), alpha)
    with pytest.raises(ExactDivisionError):
        divide_by_root_pairing(_table(p + 1e-3), alpha)


@pytest.mark.parametrize(
    "family, d", [("A", 3), ("A", 5), ("B", 2), ("B", 4), ("D", 4), ("Z2^d", 1), ("Z2^d", 3), ("G2", 3)]
)
def test_every_root_has_a_unit_entry(family, d):
    # divide_by_root_pairing pivots on such an entry, so it never scales
    roots = build_root_system(family, d=d).roots
    assert all(any(abs(a) == 1 for a in alpha) for alpha in roots)


def test_root_pairing_division_is_exact_on_integer_data():
    # int numerators over G2's long root (2, -1, -1): the pivot is the -1 of
    # x2, not the 2 of x1, so the quotient keeps the input's denominator 1
    # and stays in integers
    alpha = (2, -1, -1)
    x1, x2, x3 = (Polynomial.variable(3, j) for j in range(3))
    q = x1 * x1 + x2 * x3 * 3 - x3
    quotient = divide_by_root_pairing(_table((x1 * 2 - x2 - x3) * q), alpha)
    assert quotient[1] == 1
    assert all(type(c) is int for c in quotient[0].values())
    assert _polynomial(3, quotient) == q
    g2 = context("G2", [Fraction(1, 2), Fraction(1)])
    p = Polynomial(3, {(2, 1, 0): 1, (0, 0, 3): -2, (1, 1, 1): 5})
    for xi in ((1, 0, 0), (0, 1, -1)):
        image = dunkl_apply(g2, xi, p)
        assert image and not any(isinstance(c, float) for c in image.terms.values())


def _fraction_division(p, alpha):
    """Reference: p / <alpha, x> by long division in Fraction polynomials,
    eliminating the terms of the pivot variable top level first."""
    pivot = next(i for i, a in enumerate(alpha) if a)
    form = Polynomial(p.dim, {tuple(int(l == j) for l in range(p.dim)): a
                              for j, a in enumerate(alpha) if a})
    quotient = Polynomial.zero(p.dim)
    while p:
        nu = max(p.terms, key=lambda mu: (mu[pivot], mu))
        assert nu[pivot], "remainder"
        term = Polynomial.monomial(p.dim, nu[:pivot] + (nu[pivot] - 1,) + nu[pivot + 1 :],
                                   Fraction(p.terms[nu]) / alpha[pivot])
        quotient, p = quotient + term, p - term * form
    return quotient


def _dunkl_reference(ctx, xi, p):
    """Reference: T_xi p = d_xi p + sum k(a) <a, xi> (p - p o s_a) / <a, x> in
    Fraction polynomials, p o s_a by substituting s_a's matrix."""
    out = Polynomial.zero(p.dim)
    for j, w in enumerate(xi):
        out = out + p.partial(j) * w
    for alpha, ka, sidx in ctx.reflections:
        diff = p - _substituted(ctx.group.elements[sidx], p)
        pairing = sum(a * w for a, w in zip(alpha, xi))
        out = out + _fraction_division(diff, alpha) * (ka * pairing)
    return out


@pytest.mark.parametrize("name", ["b2", "b2c", "z21neg", "g2", "d4"])
def test_dunkl_apply_matches_fraction_reference(name):
    # the integer T_xi against the Fraction formula, on unit and non-unit
    # rational directions: G2's long roots have pivot 2 and its images sit
    # over powers of 3, b2c's weight is complex
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    ctx = build_bundle(json.loads(config.read_text()))
    d = ctx.dimension
    rng = random.Random(7)
    directions = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    directions.append(tuple([Fraction(1, 3), -2, Fraction(5, 4), 1][:d]))
    for _ in range(3):
        p = Polynomial(d, {tuple(rng.randint(0, 3) for _ in range(d)):
                           Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)})
        for xi in directions:
            assert dunkl_apply(ctx, xi, p) == _dunkl_reference(ctx, xi, p), (name, xi, p)


def test_dunkl_commutativity_a2(a2):
    p = Polynomial(3, {(2, 2, 1): Fraction(1), (1, 0, 3): Fraction(-1, 2)})
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert dunkl_apply(a2, dirs[i], dunkl_apply(a2, dirs[j], p)) == dunkl_apply(
                a2, dirs[j], dunkl_apply(a2, dirs[i], p)
            )


# -- A and the Euler operator -----------------------------------------------------

def _apply_W(ctx, n, p):
    """W_n p = (n + gamma) p - A p."""
    return p * (n + ctx.gamma) - operator_A(ctx, p)


def test_operator_a_examples(z21):
    x = x_var()
    assert operator_A(z21, x) == -Fraction(1, 2) * x
    c = Polynomial.constant(1, Fraction(7))
    assert operator_A(z21, c) == z21.gamma * c
    ctx0 = context("Z2^d", Fraction(0), d=1)
    assert operator_A(ctx0, x) == Polynomial.zero(1)


def test_euler_w_examples(z21):
    ctx0 = context("Z2^d", Fraction(0), d=2)
    p = Polynomial.monomial(2, (2, 1))
    assert _apply_W(ctx0, 3, p) == 3 * p
    x = x_var()
    assert _apply_W(z21, 1, x) == 2 * x  # (1 + 2 k0) x
    # degree zero: (0 + gamma) - A kills constants
    c = Polynomial.constant(1, Fraction(5))
    assert _apply_W(z21, 0, c) == Polynomial.zero(1)


def test_euler_w_matches_dunkl_form(b2):
    # W_n = (n + gamma) - A is the Euler form sum_j x_j T_j on P_n
    for n in (1, 2, 3, 4):
        for nu in monomial_basis(2, n):
            p = Polynomial.monomial(2, nu)
            euler = Polynomial.zero(2)
            for j, ej in enumerate(((1, 0), (0, 1))):
                euler = euler + Polynomial.variable(2, j) * dunkl_apply(b2, ej, p)
            assert _apply_W(b2, n, p) == euler


# -- the degree inverses -----------------------------------------------------------

def _apply_lam(ctx, lam, p):
    """sum_g lam(g) p o g, in Polynomial arithmetic."""
    return combination(
        p.dim, ((act_on_polynomial(ctx.group, g, p), c) for g, c in enumerate(lam) if c)
    )


def _lam(ctx, n):
    """lam_n as solve_H records it in h_cache, once H_n is built and checked."""
    solve_H(ctx, n)
    return ctx.h_cache[n]


def _apply_H(table, p):
    """H_n p for p in P_n: p's coefficients times the columns of table, the
    checked table of H_n that solve_H returns."""
    cols, den = table
    return _combination(p.dim, (((cols[nu], den), c) for nu, c in p.terms.items()))


def count_builds(monkeypatch):
    """The degrees of the H_n tables built from here on, one entry per
    build: every build ends in operators._verify_H, which this wraps."""
    from dunkl import operators

    built = []
    check = operators._verify_H

    def counting(n, table, w):
        built.append(n)
        return check(n, table, w)

    monkeypatch.setattr(operators, "_verify_H", counting)
    return built


def test_lambda_rank_one_closed_form(z21):
    h = _lam(z21, 1)
    assert isinstance(h, tuple)
    assert h == (Fraction(3, 4), Fraction(1, 4))
    # general degree: lam = ((n+k)/(n(n+2k)), k/(n(n+2k)))
    k0 = Fraction(1, 2)
    for n in (2, 3, 7):
        h = _lam(z21, n)
        den = n * (n + 2 * k0)
        assert h == ((n + k0) / den, k0 / den)


def test_lambda_zero_weight():
    ctx = context("B", Fraction(0), d=2)
    for n in (1, 2, 5):
        h = _lam(ctx, n)
        want = tuple(
            Fraction(1, n) if i == ctx.group.identity_index else Fraction(0)
            for i in range(ctx.group.order)
        )
        assert h == want


def test_h_inverts_w(b2, a2):
    for ctx, d in ((b2, 2), (a2, 3)):
        for n in range(1, 9):
            h = _lam(ctx, n)
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                back = _apply_lam(ctx, h, mono) * (n + ctx.gamma) - operator_A(
                    ctx, _apply_lam(ctx, h, mono)
                )
                assert back == mono


def _group_algebra_solve(ctx, n):
    """Reference: lam_n from the |G| x |G| system with one row identity per
    element, the solve that the class-algebra one replaced."""
    group = ctx.group
    matrix = [[Fraction(0)] * group.order for _ in range(group.order)]
    for h in range(group.order):
        matrix[h][h] = matrix[h][h] + (n + ctx.gamma)
        for _, ka, sidx in ctx.reflections:
            g = group.multiply(h, sidx)
            matrix[h][g] = matrix[h][g] - ka
    rhs = [Fraction(0)] * group.order
    rhs[group.identity_index] = rhs[group.identity_index] + 1
    return tuple(fraction_solve_columns(matrix, [rhs])[0])


@pytest.mark.parametrize("name", ["b2", "a2", "b3", "g2"])
def test_class_solve_matches_group_algebra_solve(name, b2, a2):
    ctx = {
        "b2": lambda: b2,
        "a2": lambda: a2,
        "b3": lambda: context("B", [Fraction(1, 2), Fraction(1)], d=3),
        "g2": lambda: context("G2", [Fraction(1, 2), Fraction(1)]),
    }[name]()
    for n in range(1, 7):
        got = _lam(ctx, n)
        want = _group_algebra_solve(ctx, n)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]
        assert [scalar_to_json(c) for c in got] == [scalar_to_json(c) for c in want]


def test_float_weight_refused_where_its_exact_value_prepares():
    # the exact class solve compares exactly, so a float copy of the
    # admissible k = 1/2 would read as singular (B2 at degree 2, Z2^1 at 3)
    b2_floats = (0.5, complex(0.5, 1), [Fraction(1, 2), 0.5], [0.5, Fraction(1)])
    for family, kw, floats in (("B", dict(d=2), b2_floats), ("Z2^d", dict(d=1), (0.5,))):
        for values in floats:
            with pytest.raises(MultiplicityError, match="not exact"):
                context(family, values, **kw)
        ctx = context(family, Fraction(1, 2), **kw).prepare(4)
        assert ctx.fallback_degrees == []


def test_g2_short_roots_alone_give_the_a2_intertwiner():
    # with k = 0 on the long roots only the reflections in e_i - e_j carry
    # weight, and those are the A2 roots: V and gamma must be A2's exactly
    g2 = context("G2", [Fraction(1, 2), Fraction(0)])
    a2 = context("A", Fraction(1, 2), d=3)
    assert g2.group.order == 12 and a2.group.order == 6
    assert g2.gamma == a2.gamma == Fraction(3, 2)
    for n in range(6):
        for nu in monomial_basis(3, n):
            assert _polynomial(3, _vk_table(g2, nu)) == _polynomial(3, _vk_table(a2, nu))


def test_class_solve_falls_back_where_group_algebra_solve_is_singular():
    ctx = context("Z2^d", Fraction(-1), d=1)
    with pytest.raises(SingularMatrixError):
        _group_algebra_solve(ctx, 2)
    assert _lam(ctx, 2) is None
    assert ctx.fallback_degrees == [2]
    for n in (1, 3):
        assert _lam(ctx, n) == _group_algebra_solve(ctx, n)


def test_d4_class_solve_passes_verification(monkeypatch):
    ctx = context("D", Fraction(1, 2), d=4)
    assert ctx.group.order == 192
    assert len(ctx.group.class_representatives) == 13
    built = count_builds(monkeypatch)
    ctx.prepare(3)  # lam_n from the class system alone
    assert ctx.fallback_degrees == [] and built == []
    for n in (1, 2, 3):
        # builds H_n's columns from lam_n and checks W_n H_n = id on every
        # monomial of P_n; lam_n stays the one in h_cache
        lam = ctx.h_cache[n]
        cols, den = solve_H(ctx, n)
        assert ctx.h_cache[n] is lam and isinstance(lam, tuple)
        assert list(cols) == monomial_basis(4, n)
    assert built == [1, 2, 3]


def test_not_in_m_star_reports_degree():
    ctx = context("Z2^d", Fraction(-1, 2), d=1)
    with pytest.raises(NotInMStarError) as err:
        solve_H(ctx, 1)
    assert err.value.degree == 1
    # prepare finds it too, every time, and records no fallback degree
    for _ in range(2):
        with pytest.raises(NotInMStarError):
            ctx.prepare(2)
    assert ctx.fallback_degrees == [] and ctx.prepared_to == 0


def _dense_H(ctx, n, p):
    """Reference for H_n on P_n: W_n's matrix on the monomial basis, inverted
    by the Fraction reference and applied to p row by row."""
    d = ctx.dimension
    basis = monomial_basis(d, n)
    images = [_apply_W(ctx, n, Polynomial.monomial(d, nu)) for nu in basis]
    rows = fraction_invert_matrix([[w.terms.get(mu, 0) for w in images] for mu in basis])
    coeffs = [p.terms.get(nu, 0) for nu in basis]
    terms = {}
    for mu, row in zip(basis, rows):
        val = 0
        for r, c in zip(row, coeffs):
            if c:
                val = val + r * c
        terms[mu] = val
    return Polynomial(d, terms)


def test_group_algebra_singular_falls_back_when_w_invertible():
    # k = -1/2 kills degree 1 but degree 2 is fine: W_2 x^2 = (2 - 1/2) x^2 - (-1/2) x^2 = 2 x^2
    ctx = context("Z2^d", Fraction(-1, 2), d=1)
    mono = Polynomial.monomial(1, (2,))
    column = _apply_H(solve_H(ctx, 2), mono)
    assert column == _dense_H(ctx, 2, mono) == Polynomial.monomial(1, (2,), Fraction(1, 2))
    assert column * (2 + ctx.gamma) - operator_A(ctx, column) == mono
    # and through a fallback degree: k = -1 makes lam_2 singular, W_2 = 2 id
    ctx = context("Z2^d", Fraction(-1), d=1)
    assert _lam(ctx, 2) is None
    column, want = _apply_H(solve_H(ctx, 2), mono), _dense_H(ctx, 2, mono)
    assert column == want == Polynomial.monomial(1, (2,), Fraction(1, 2))
    assert polynomial_to_literal(column) == polynomial_to_literal(want)


APPLY_H_SYSTEMS = {
    "b2": ({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}}, 6),
    "a2": ({"family": "A", "d": 3, "k": "1"}, 5),
    "b3": ({"family": "B", "d": 3, "k": {"short": "1/2", "long": "1"}}, 4),
    "z21_fallback": ({"family": "Z2^d", "d": 1, "k": "-1"}, 6),
    "b2_fallback": ({"family": "B", "d": 2, "k": {"short": "-3/4", "long": "1/2"}}, 5),
    "b2_complex": (
        {"family": "B", "d": 2, "k": {"short": {"re": "1/2", "im": "1/3"}, "long": "3/2"}},
        5,
    ),
}


FALLBACK_DEGREES = {"z21_fallback": [2], "b2_fallback": [1, 3]}


def _random_homogeneous(rng, d, n, coeff):
    return Polynomial(
        d, {nu: coeff(rng) for nu in monomial_basis(d, n) if rng.random() < 0.7}
    )


@pytest.mark.parametrize("loaded", [False, True], ids=["prepared", "loaded"])
@pytest.mark.parametrize("name", sorted(APPLY_H_SYSTEMS))
def test_apply_h_columns_match_group_algebra_apply(name, loaded, tmp_path, monkeypatch):
    cfg, degree = APPLY_H_SYSTEMS[name]
    ctx = build_bundle({**cfg, "N": degree})
    ctx.prepare(degree)
    if loaded:
        path = tmp_path / f"{name}.ctx.json"
        save_context(ctx, path)
        built = count_builds(monkeypatch)
        ctx = load_context(path)
        # degrees read from the file build no table, fallback degrees neither
        assert built == []
    assert ctx.fallback_degrees == FALLBACK_DEGREES.get(name, [])
    rng = random.Random(11)
    z = ComplexRational(Fraction(2, 3), Fraction(-1, 5))
    d = ctx.dimension
    for n in range(1, degree + 1):
        h, table = ctx.h_cache[n], solve_H(ctx, n)
        samples = [Polynomial.monomial(d, nu) for nu in monomial_basis(d, n)]
        samples += [
            _random_homogeneous(rng, d, n, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7))),
            _random_homogeneous(rng, d, n, lambda r: z * r.randint(-3, 3)),
        ]
        for p in samples:
            got = _apply_H(table, p)
            want = _dense_H(ctx, n, p) if h is None else _apply_lam(ctx, h, p)
            assert got == want
            assert polynomial_to_literal(got) == polynomial_to_literal(want)


# -- the intertwining operator --------------------------------------------------------

def test_intertwine_unit(z21, b2):
    one = Polynomial.constant(1, Fraction(1))
    assert intertwine(z21, one) == one
    one2 = Polynomial.constant(2, Fraction(1))
    assert intertwine(b2, one2) == one2


def test_intertwine_rank_one_oracle(z21):
    x = x_var()
    assert intertwine(z21, x) == Fraction(1, 2) * x
    assert intertwine(z21, x * x) == Fraction(1, 2) * (x * x)


def test_intertwine_identity_at_zero_weight():
    ctx = context("A", Fraction(0), d=3)
    p = Polynomial(3, {(2, 1, 0): Fraction(3), (0, 0, 4): Fraction(-1, 5)})
    assert intertwine(ctx, p) == p


def test_intertwining_property_exact(b2, a2):
    for ctx, d in ((b2, 2), (a2, 3)):
        for n in range(0, 6):
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                vp = intertwine(ctx, mono)
                assert vp.degree == n or not vp
                for j in range(d):
                    e = tuple(1 if t == j else 0 for t in range(d))
                    assert dunkl_apply(ctx, e, vp) == intertwine(ctx, mono.partial(j))


def test_intertwine_real_for_real_weight(b2):
    p = Polynomial(2, {(3, 2): Fraction(1, 3), (1, 0): Fraction(-2)})
    vp = intertwine(b2, p)
    assert all(isinstance(c, (int, Fraction)) for c in vp.terms.values())


def test_intertwine_accepts_complex_weight():
    k = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    ctx = context("Z2^d", k, d=1)
    x = x_var()
    vx = intertwine(ctx, x)
    # V(x) = x / (1 + 2k)
    expected = 1 / (1 + 2 * k)
    assert vx.terms[(1,)] == expected
    e = (1,)
    assert dunkl_apply(ctx, e, vx) == intertwine(ctx, Polynomial.constant(1, 1))


def test_intertwine_inverse_roundtrip(b2):
    p = Polynomial(2, {(4, 1): Fraction(2, 7), (2, 2): Fraction(-1), (0, 0): Fraction(5)})
    assert intertwine_inverse(b2, intertwine(b2, p)) == p
    assert intertwine(b2, intertwine_inverse(b2, p)) == p


def test_intertwine_inverse_rank_one(z21):
    x = x_var()
    assert intertwine_inverse(z21, x) == 2 * x  # (1 + 2 k0) x
    one = Polynomial.constant(1, Fraction(1))
    assert intertwine_inverse(z21, one) == one


@pytest.mark.parametrize("loaded", [False, True], ids=["prepared", "loaded"])
@pytest.mark.parametrize("name", sorted(FALLBACK_DEGREES))
def test_intertwine_inverse_roundtrip_through_fallback_degree(name, loaded, tmp_path):
    cfg, degree = APPLY_H_SYSTEMS[name]
    ctx = build_bundle({**cfg, "N": degree})
    ctx.prepare(degree)
    if loaded:
        path = tmp_path / f"{name}.ctx.json"
        save_context(ctx, path)
        ctx = load_context(path)
    assert ctx.fallback_degrees == FALLBACK_DEGREES[name]
    d = ctx.dimension
    rng = random.Random(5)
    for n in range(1, degree + 1):
        p = _random_homogeneous(rng, d, n, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))
        p = p + Polynomial.monomial(d, (n,) + (0,) * (d - 1)) + Fraction(2, 3)
        assert intertwine_inverse(ctx, intertwine(ctx, p)) == p
        assert intertwine(ctx, intertwine_inverse(ctx, p)) == p


# -- homogeneous kernel pieces ----------------------------------------------------------

def test_homogeneous_kernel_examples(b2):
    x = (Fraction(1, 2), Fraction(-1, 3))
    assert homogeneous_kernel(b2, 0, x) == Polynomial.constant(2, Fraction(1))
    for n in (1, 2, 3):
        en = homogeneous_kernel(b2, n, x)
        assert en.evaluate((0, 0)) == 0
        assert {sum(nu) for nu in en.terms} == {n}


def test_homogeneous_kernel_zero_weight_closed_form():
    ctx = context("Z2^d", Fraction(0), d=2)
    x = (Fraction(2), Fraction(1, 3))
    for n in (1, 2, 3):
        en = homogeneous_kernel(ctx, n, x)
        form = x[0] * Polynomial.variable(2, 0) + x[1] * Polynomial.variable(2, 1)
        assert en == form**n * Fraction(1, math.factorial(n))


def test_en_equivariance_and_homogeneity(b2):
    x = (Fraction(1, 3), Fraction(2, 5))
    lam = Fraction(3, 2)
    for n in range(0, 5):
        base = homogeneous_kernel(b2, n, x)
        scaled = homogeneous_kernel(b2, n, tuple(lam * t for t in x))
        assert scaled == base * lam**n
        for gi in range(b2.group.order):
            g = b2.group.elements[gi]
            ginv = b2.group.elements[b2.group.inverse_index(gi)]
            lhs = homogeneous_kernel(b2, n, mat_vec(g, x))
            assert lhs == _substituted(ginv, base)


def test_en_bivariate_symmetric(b2):
    for n in range(0, 5):
        biv = homogeneous_kernel_bivariate(b2, n)
        swapped = Polynomial(4, {nu[2:] + nu[:2]: c for nu, c in biv.terms.items()})
        assert biv == swapped


def _en_product_loop(ctx, n, x):
    """E_n(x, .) by the sum over every tuple (g_1..g_n) of
    prod_i lam_i(g_i) prod_i <g_i ... g_n x, .>: |G|^n products."""
    d = ctx.dimension
    group = ctx.group
    tables = [ctx.h_cache[i] for i in range(1, n + 1)]
    out = Polynomial.constant(d, Fraction(1)) if n == 0 else Polynomial.zero(d)
    for combo in itertools.product(range(group.order), repeat=n) if n else ():
        coeff = 1
        for i, gi in enumerate(combo):
            coeff = coeff * tables[i][gi]
        if not coeff:
            continue
        prod = Polynomial.constant(d, 1)
        vec = tuple(x)
        for gi in reversed(combo):  # suffix products g_i ... g_n x, right to left
            vec = mat_vec(group.elements[gi], vec)
            prod = prod * Polynomial(
                d, {tuple(1 if l == j else 0 for l in range(d)): vec[j] for j in range(d)}
            )
        out = out + prod * coeff
    return out


def test_en_expansion_oracle_matches(b2, z21, a2):
    # the suffix recursion sums the same |G|^n products as the tuple loop,
    # on real weights and on the complex weight of configs/b2c.json
    config = Path(__file__).resolve().parents[1] / "configs" / "b2c.json"
    b2c = build_bundle(json.loads(config.read_text()))
    points = {1: (Fraction(1, 2),), 2: (Fraction(1, 2), Fraction(-2, 3)),
              3: (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))}
    for ctx in (z21, b2, a2, b2c):
        x = points[ctx.dimension]
        ctx.prepare(3)  # both read the lam tables from h_cache
        for n in range(0, 4):
            oracle = en_expansion_oracle(ctx, n, x)
            assert oracle == _en_product_loop(ctx, n, x), (ctx.group.order, n)
            assert oracle == homogeneous_kernel(ctx, n, x), (ctx.group.order, n)


def test_en_expansion_oracle_reads_lam_from_h_cache(b2, monkeypatch):
    # the oracle multiplies the lam tables that prepare recorded and builds
    # no H_n table: solve_H is not called
    from dunkl import operators

    b2.prepare(3)
    x = (Fraction(1, 2), Fraction(-2, 3))
    want = homogeneous_kernel(b2, 3, x)

    def refuse(ctx, n):
        raise AssertionError(f"solve_H({n}) called")

    monkeypatch.setattr(operators, "solve_H", refuse)
    assert en_expansion_oracle(b2, 3, x) == want


def test_vk_as_fischer_coefficient():
    # V(x^nu)(x) = [E_n(x, .), y^nu] for |nu| = n at an exact point, which
    # pins the scale of each row of E_n's block, on a complex weight, on G2
    # and through z21neg's fallback degree 2; at a float point each
    # coefficient V(x^nu)(x) / nu! is the exact one at the point's binary
    # value rounded once
    cases = {
        "b2": context("B", [Fraction(1, 2), Fraction(3, 2)], d=2),
        "a2": context("A", Fraction(1), d=3),
        "b2c": context("B", [ComplexRational(Fraction(1, 2), Fraction(1, 3)), Fraction(1)], d=2),
        "g2": context("G2", [Fraction(1, 2), Fraction(1)]),
        "z21neg": context("Z2^d", Fraction(-1), d=1),
    }
    for name, ctx in cases.items():
        d = ctx.dimension
        exact_x = (Fraction(1, 4), Fraction(-2, 3), Fraction(3, 5))[:d]
        float_x = (0.3, -0.45, 0.7)[:d]
        binary_x = tuple(map(Fraction, float_x))
        for n in range(5):
            en = homogeneous_kernel(ctx, n, exact_x)
            rounded = homogeneous_kernel(ctx, n, float_x)
            for nu in monomial_basis(d, n):
                v = _polynomial(d, _vk_table(ctx, nu))
                assert fischer(en, Polynomial.monomial(d, nu)) == v.evaluate(exact_x), (name, nu)
                want = v.evaluate(binary_x) * Fraction(1, math.prod(map(math.factorial, nu)))
                want = complex(want) if isinstance(want, ComplexRational) else float(want)
                assert rounded.terms.get(nu, 0) == want, (name, nu)
    assert cases["z21neg"].fallback_degrees == [2]


# -- generalized exponential --------------------------------------------------------------

def test_dunkl_kernel_at_zero(b2):
    estimate_delta(b2, 8)
    val = dunkl_kernel(b2, (0.3, 0.4), (0.0, 0.0), tol=1e-12)
    assert val.value == 1
    assert val.tail_bound == 0.0


def test_dunkl_kernel_zero_weight_is_exponential():
    ctx = context("Z2^d", Fraction(0), d=2)
    ctx.prepare(1)
    x, y = (0.3, -0.2), (0.5, 0.1)
    val = dunkl_kernel(ctx, x, y, tol=1e-12)
    want = math.exp(sum(a * b for a, b in zip(x, y)))
    assert abs(complex(val.value) - want) <= 1e-11


def test_dunkl_kernel_symmetry(b2):
    b2.prepare(8)
    x, y = (0.25, -0.1), (0.3, 0.2)
    a = dunkl_kernel(b2, x, y, tol=1e-9)
    b = dunkl_kernel(b2, y, x, tol=1e-9)
    assert abs(complex(a.value) - complex(b.value)) <= 2e-9


def test_dunkl_kernel_reports_unreachable_tolerance(z21):
    z21.prepare(4)
    from dunkl.operators import DEGREE_CAP, TruncationError

    solved = set(z21.h_cache)
    # the tail bound at degree N is sum_{n > N} 2500^n / n!, far above tol at the cap
    with pytest.raises(TruncationError, match=f"within the degree cap {DEGREE_CAP}$"):
        dunkl_kernel(z21, (50.0,), (50.0,), tol=1e-10)
    assert set(z21.h_cache) == solved  # refused before any E_n is evaluated


def test_en_per_degree_symmetry_numeric(b2):
    x, y = (Fraction(1, 2), Fraction(1, 5)), (Fraction(-1, 3), Fraction(1))
    for n in range(5):
        assert evaluate_en(b2, n, x, y) == evaluate_en(b2, n, y, x)


# -- growth table ---------------------------------------------------------------------------

def test_estimate_delta_zero_weight():
    ctx = context("B", Fraction(0), d=2)
    assert estimate_delta(ctx, 6) == ctx.delta_hat == 1.0
    assert [n for n, _ in ctx.delta_table] == list(range(1, 7))
    assert all(abs(row - 1.0) < 1e-15 for _, row in ctx.delta_table)


def test_estimate_delta_rank_one(z21):
    assert abs(estimate_delta(z21, 1) - 0.75) < 1e-15
    estimate_delta(z21, 20)
    rows = dict(z21.delta_table)
    assert abs(rows[1] - 0.75) < 1e-15
    # n * max |lam| = (n + k0)/(n + 2 k0), increasing toward 1
    for n in (2, 5, 20):
        want = float((n + Fraction(1, 2)) / (n + 1))
        assert abs(rows[n] - want) < 1e-15
    assert z21.delta_hat == max(rows.values())


def test_fallback_degrees_excluded_from_delta():
    # at k = -1 the rank-one group-algebra system is singular at degree 2
    # while W_2 = 2 id is invertible, so the matrix fallback must kick in
    ctx = context("Z2^d", Fraction(-1), d=1)
    assert _lam(ctx, 2) is None
    assert isinstance(_lam(ctx, 1), tuple)
    estimate_delta(ctx, 4)
    assert ctx.fallback_degrees == [2]
    assert [n for n, _ in ctx.delta_table] == [1, 3, 4]
    # the intertwining identity holds exactly through the fallback degree
    x = x_var()
    p = x * x * x
    assert dunkl_apply(ctx, (1,), intertwine(ctx, p)) == intertwine(ctx, 3 * x * x)


def test_intertwine_norm_bound(b2):
    # for k >= 0, V p (x) is the mean of p over a probability measure on the
    # convex hull of G x, so |V p (x)| <= |x|^n sup_{|z|=1} |p(z)|;
    # on the unit sphere c z^nu peaks at |c| prod_j (nu_j / n)^(nu_j / 2)
    x = (0.6, -0.3)
    xn = math.hypot(*x)
    for nu, scale in (((3, 1), Fraction(1)), ((2, 2), Fraction(1, 3)), ((5, 0), Fraction(2))):
        p = Polynomial.monomial(2, nu, scale)
        n = sum(nu)
        got = abs(complex(intertwine(b2, p).evaluate(x)))
        sup = float(scale) * math.prod((e / n) ** (e / 2) for e in nu)
        bound = xn**n * sup
        assert got <= bound * (1 + 1e-12)
