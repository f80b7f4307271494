import math
import random
from fractions import Fraction

import pytest

from dunkl.config import build_bundle, load_context, polynomial_to_literal, save_context
from dunkl.exact import (
    ComplexRational,
    SingularMatrixError,
    invert_matrix,
    scalar_to_json,
    solve_columns,
)
from dunkl.operators import (
    ExactDivisionError,
    GroupAlgebraElement,
    NotInMStarError,
    apply_H,
    divide_by_root_pairing,
    dunkl_apply,
    dunkl_kernel,
    en_expansion_oracle,
    _apply_W,
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
    _vk_monomial,
)
from dunkl.poly import Polynomial, fischer
from dunkl.reflection_groups import (
    MultiplicityError,
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
    return context("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, d=2)


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
    exact = dunkl_apply(b2, (1, 0), Polynomial(2, terms))
    got = dunkl_apply(b2, (1, 0), Polynomial(2, {nu: float(c) for nu, c in terms.items()}))
    assert max(abs(complex(c)) for c in (got - exact).terms.values()) <= 1e-12


def test_root_pairing_remainder_tolerance_follows_coefficient_type():
    alpha = (Fraction(1), Fraction(-1))
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})  # x1 - x2
    assert divide_by_root_pairing(p, alpha) == Polynomial.constant(2, 1)
    # a remainder of 1e-12: fatal when exact, roundoff when float
    with pytest.raises(ExactDivisionError):
        divide_by_root_pairing(p + Fraction(1, 10**12), alpha)
    assert divide_by_root_pairing(p + 1e-12, alpha) == Polynomial.constant(2, 1)
    with pytest.raises(ExactDivisionError):
        divide_by_root_pairing(p + 1e-3, alpha)


def test_dunkl_commutativity_a2(a2):
    p = Polynomial(3, {(2, 2, 1): Fraction(1), (1, 0, 3): Fraction(-1, 2)})
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert dunkl_apply(a2, dirs[i], dunkl_apply(a2, dirs[j], p)) == dunkl_apply(
                a2, dirs[j], dunkl_apply(a2, dirs[i], p)
            )


# -- A and the Euler operator -----------------------------------------------------

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

def test_lambda_rank_one_closed_form(z21):
    h = solve_H(z21, 1)
    assert isinstance(h, GroupAlgebraElement)
    assert h.coefficients == (Fraction(3, 4), Fraction(1, 4))
    # general degree: lam = ((n+k)/(n(n+2k)), k/(n(n+2k)))
    k0 = Fraction(1, 2)
    for n in (2, 3, 7):
        h = solve_H(z21, n)
        den = n * (n + 2 * k0)
        assert h.coefficients == ((n + k0) / den, k0 / den)


def test_lambda_zero_weight():
    ctx = context("B", Fraction(0), d=2)
    for n in (1, 2, 5):
        h = solve_H(ctx, n)
        want = tuple(
            Fraction(1, n) if i == ctx.group.identity_index else Fraction(0)
            for i in range(ctx.group.order)
        )
        assert h.coefficients == want


def test_h_inverts_w(b2, a2):
    for ctx, d in ((b2, 2), (a2, 3)):
        for n in range(1, 9):
            h = solve_H(ctx, n)
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                back = h.apply(ctx.group, mono) * (n + ctx.gamma) - operator_A(
                    ctx, h.apply(ctx.group, mono)
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
    return tuple(solve_columns(matrix, [rhs])[0])


@pytest.mark.parametrize("name", ["b2", "a2", "b3", "g2"])
def test_class_solve_matches_group_algebra_solve(name, b2, a2):
    ctx = {
        "b2": lambda: b2,
        "a2": lambda: a2,
        "b3": lambda: context("B", {(1, 0, 0): Fraction(1, 2), (1, 1, 0): Fraction(1)}, d=3),
        "g2": lambda: context("G2", [Fraction(1, 2), Fraction(1)]),
    }[name]()
    for n in range(1, 7):
        got = solve_H(ctx, n).coefficients
        want = _group_algebra_solve(ctx, n)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]
        assert [scalar_to_json(c) for c in got] == [scalar_to_json(c) for c in want]


def test_float_weight_refused_where_its_exact_value_prepares():
    # the exact class solve compares exactly, so a float copy of the
    # admissible k = 1/2 would read as singular (B2 at degree 2, Z2^1 at 3)
    b2_floats = (0.5, complex(0.5, 1), [Fraction(1, 2), 0.5],
                 {(1, 0): Fraction(1, 2), (0, 1): 0.5, (1, 1): Fraction(1)})
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
            assert _vk_monomial(g2, nu) == _vk_monomial(a2, nu)


def test_class_solve_falls_back_where_group_algebra_solve_is_singular():
    ctx = context("Z2^d", Fraction(-1), d=1)
    with pytest.raises(SingularMatrixError):
        _group_algebra_solve(ctx, 2)
    assert solve_H(ctx, 2) is None
    assert ctx.fallback_degrees == [2]
    for n in (1, 3):
        assert solve_H(ctx, n).coefficients == _group_algebra_solve(ctx, n)


def test_d4_class_solve_passes_verification():
    ctx = context("D", Fraction(1, 2), d=4)
    assert ctx.group.order == 192
    assert len(ctx.group.class_representatives) == 13
    ctx.prepare(3)  # solve_H checks W_n H_n = id on every monomial of P_n
    assert ctx.fallback_degrees == []
    assert all(isinstance(ctx.h_cache[n], GroupAlgebraElement) for n in (1, 2, 3))


def test_not_in_m_star_reports_degree():
    ctx = context("Z2^d", Fraction(-1, 2), d=1)
    with pytest.raises(NotInMStarError) as err:
        solve_H(ctx, 1)
    assert err.value.degree == 1


def _dense_H(ctx, n, p):
    """Reference for H_n on P_n: W_n's matrix on the monomial basis, inverted
    by invert_matrix and applied to p row by row."""
    d = ctx.dimension
    basis = monomial_basis(d, n)
    images = [_apply_W(ctx, n, Polynomial.monomial(d, nu)) for nu in basis]
    rows = invert_matrix([[w.terms.get(mu, 0) for w in images] for mu in basis])
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
    solve_H(ctx, 2)
    mono = Polynomial.monomial(1, (2,))
    column = apply_H(ctx, 2, mono)
    assert column == _dense_H(ctx, 2, mono) == Polynomial.monomial(1, (2,), Fraction(1, 2))
    assert column * (2 + ctx.gamma) - operator_A(ctx, column) == mono
    # and through a fallback degree: k = -1 makes lam_2 singular, W_2 = 2 id
    ctx = context("Z2^d", Fraction(-1), d=1)
    assert solve_H(ctx, 2) is None
    column, want = apply_H(ctx, 2, mono), _dense_H(ctx, 2, mono)
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
def test_apply_h_columns_match_group_algebra_apply(name, loaded, tmp_path):
    cfg, degree = APPLY_H_SYSTEMS[name]
    bundle = build_bundle({**cfg, "N": degree})
    bundle.ctx.prepare(degree)
    if loaded:
        path = tmp_path / f"{name}.ctx.json"
        save_context(bundle, path)
        bundle = load_context(path)
        # lam_n tables read from the file come without columns
        assert set(bundle.ctx.h_columns) == set(bundle.ctx.fallback_degrees)
    ctx = bundle.ctx
    assert ctx.fallback_degrees == FALLBACK_DEGREES.get(name, [])
    rng = random.Random(11)
    z = ComplexRational(Fraction(2, 3), Fraction(-1, 5))
    d = ctx.dimension
    for n in range(1, degree + 1):
        h = solve_H(ctx, n)
        samples = [Polynomial.monomial(d, nu) for nu in monomial_basis(d, n)]
        samples += [
            _random_homogeneous(rng, d, n, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7))),
            _random_homogeneous(rng, d, n, lambda r: z * r.randint(-3, 3)),
        ]
        for p in samples:
            got = apply_H(ctx, n, p)
            want = _dense_H(ctx, n, p) if h is None else h.apply(ctx.group, p)
            assert got == want
            assert polynomial_to_literal(got) == polynomial_to_literal(want)


def test_float_shadow_has_complex_columns_of_its_own():
    ctx = context("Z2^d", Fraction(-1), d=1)
    b2_ctx = context("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, d=2)
    for exact in (ctx, b2_ctx):
        shadow = exact.float_shadow(6)
        assert shadow.h_columns is not exact.h_columns
        for n in range(1, 7):
            # each degree is one table (numerators, denominator); the shadow's
            # numerators are the exact columns rounded once, over 1
            columns, one = shadow.h_columns[n]
            exact_columns, den = exact.h_columns[n]
            assert one == 1 and columns.keys() == exact_columns.keys()
            for nu, column in columns.items():
                exact_column = exact_columns[nu]
                assert column is not exact_column
                assert column.keys() == exact_column.keys()
                for mu, c in column.items():
                    assert type(c) is complex
                    assert c == complex(Fraction(exact_column[mu], den))
    assert ctx.fallback_degrees == [2]


def test_float_shadow_solves_past_its_degree_in_floats():
    # Z2^1 with k = -1 falls back at degree 2; B2 takes its degree 2 from lam_2,
    # and its degree 3 from the lam_3 that the exact context already holds
    z21 = context("Z2^d", Fraction(-1), d=1)
    b2_ctx = context("B", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 2)}, d=2)
    b2_ctx.prepare(3)
    for exact, nus in ((z21, [(2,)]), (b2_ctx, [(2, 0), (1, 2)])):
        shadow = exact.float_shadow(1)
        for nu in nus:
            exact_v = _vk_monomial(exact, nu)
            v = _vk_monomial(shadow, nu)
            assert v.terms.keys() == exact_v.terms.keys()
            for mu, c in v.terms.items():
                assert type(c) is complex
                assert abs(c - complex(exact_v.terms[mu])) < 1e-12
            columns, one = shadow.h_columns[sum(nu)]
            assert one == 1
            for column in columns.values():
                assert all(type(c) is complex for c in column.values())


def test_float_shadow_past_its_degree_leaves_exact_context_whole():
    # the shadow solves the fallback degree 2 on its own; the exact context must
    # still realize it through its own columns afterwards
    ctx = context("Z2^d", Fraction(-1), d=1)
    shadow = ctx.float_shadow(1)
    assert _vk_monomial(shadow, (2,)) == Polynomial.monomial(1, (2,), -1.0)
    assert 2 not in ctx.h_cache and ctx.fallback_degrees == []
    assert intertwine(ctx, Polynomial.monomial(1, (2,))) == Polynomial.monomial(1, (2,), -1)
    assert ctx.fallback_degrees == [2]


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
    bundle = build_bundle({**cfg, "N": degree})
    bundle.ctx.prepare(degree)
    if loaded:
        path = tmp_path / f"{name}.ctx.json"
        save_context(bundle, path)
        bundle = load_context(path)
    ctx = bundle.ctx
    assert ctx.fallback_degrees == FALLBACK_DEGREES[name]
    d = ctx.dimension
    rng = random.Random(5)
    for n in range(1, degree + 1):
        p = _random_homogeneous(rng, d, n, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))
        p = p + Polynomial.monomial(d, (n,) + (0,) * (d - 1)) + Fraction(2, 3)
        assert intertwine_inverse(ctx, intertwine(ctx, p)) == p
        assert intertwine(ctx, intertwine_inverse(ctx, p)) == p
    assert set(ctx.inverse_cache) == set(range(1, degree + 1))


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
            assert lhs == base.substitute_linear(ginv)


def test_en_bivariate_symmetric(b2):
    for n in range(0, 5):
        biv = homogeneous_kernel_bivariate(b2, n)
        swapped = Polynomial(4, {nu[2:] + nu[:2]: c for nu, c in biv.terms.items()})
        assert biv == swapped


def test_en_expansion_oracle_matches(b2, z21):
    for ctx, d in ((z21, 1), (b2, 2)):
        x = tuple(Fraction(1, 2) for _ in range(d))
        for n in range(0, 4):
            assert en_expansion_oracle(ctx, n, x) == homogeneous_kernel(ctx, n, x)


def test_vk_as_fischer_coefficient(b2):
    # V(x^nu)(x) = [E_n(x, .), y^nu] for |nu| = n
    x = (Fraction(1, 4), Fraction(-2, 3))
    for n in (1, 2, 3):
        en = homogeneous_kernel(b2, n, x)
        for nu in monomial_basis(2, n):
            assert fischer(en, Polynomial.monomial(2, nu)) == _vk_monomial(b2, nu).evaluate(x)


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
    from dunkl.operators import TruncationError

    with pytest.raises(TruncationError):
        dunkl_kernel(z21, (50.0,), (50.0,), tol=1e-10, degree_cap=10)


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
    assert solve_H(ctx, 2) is None
    assert isinstance(solve_H(ctx, 1), GroupAlgebraElement)
    estimate_delta(ctx, 4)
    assert ctx.fallback_degrees == [2]
    assert [n for n, _ in ctx.delta_table] == [1, 3, 4]
    # the intertwining identity holds exactly through the fallback degree
    x = x_var()
    p = x * x * x
    assert dunkl_apply(ctx, (1,), intertwine(ctx, p)) == intertwine(ctx, 3 * x * x)


def test_intertwine_norm_bound(b2):
    # |V p (x)| <= (delta |G| |x|)^n / n! * sup_{|z|=1} |p(z)|, with 5% slack;
    # on the unit sphere c z^nu peaks at |c| prod_j (nu_j / n)^(nu_j / 2)
    estimate_delta(b2, 8)
    x = (0.6, -0.3)
    xn = math.hypot(*x)
    for nu, scale in (((3, 1), Fraction(1)), ((2, 2), Fraction(1, 3)), ((5, 0), Fraction(2))):
        p = Polynomial.monomial(2, nu, scale)
        n = sum(nu)
        got = abs(complex(intertwine(b2, p).evaluate(x)))
        sup = float(scale) * math.prod((e / n) ** (e / 2) for e in nu)
        bound = (b2.delta_hat * b2.group.order * xn) ** n / math.factorial(n) * sup
        assert got <= bound * 1.05 + 1e-12
