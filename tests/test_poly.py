import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dunkl.poly import (
    Polynomial,
    _polynomial,
    fischer,
    fischer_via_gaussian,
    heat_half,
    hermite,
    hermite_values,
    inverse_heat_half,
)
from dunkl.exact import ComplexRational
from dunkl.operators import dunkl_apply, make_context, monomial_basis
from dunkl.quad import gauss_rule
from dunkl.reflection_groups import (
    build_root_system,
    generate_group,
    select_positive,
    validate_multiplicity,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def poly_strategy(dim, max_degree):
    exponents = st.tuples(*([st.integers(0, max_degree)] * dim)).filter(
        lambda nu: sum(nu) <= max_degree
    )
    return st.dictionaries(exponents, rationals, max_size=5).map(
        lambda terms: Polynomial(dim, terms)
    )


def var(d, j):
    return Polynomial.variable(d, j)


def test_basic_arithmetic():
    x, y = var(2, 0), var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p) == Polynomial.zero(2)
    assert p.degree == 2
    assert (x * y + 1).degree == 2
    assert Polynomial.zero(2).degree == -1


@settings(max_examples=40)
@given(poly_strategy(2, 4), poly_strategy(2, 4))
def test_ring_commutes(p, q):
    assert p * q == q * p
    assert p + q == q + p


def test_directional_derivative_examples():
    # d_xi is the Dunkl operator T_xi at multiplicity zero
    pos = select_positive(build_root_system("B", d=2))
    ctx = make_context(generate_group(pos), pos, validate_multiplicity(pos, Fraction(0)))
    x1, x2 = var(2, 0), var(2, 1)
    p = x1 * x1 * x2
    assert dunkl_apply(ctx, (1, 0), p) == 2 * x1 * x2
    assert dunkl_apply(ctx, (Fraction(2), Fraction(-1)), Polynomial.constant(2, 5)) == Polynomial.zero(2)
    assert dunkl_apply(ctx, (1, 1), x1 * x2) == x1 + x2


def test_laplacian_examples():
    x1, x2 = var(2, 0), var(2, 1)
    assert (x1 * x1 + x2 * x2).laplacian() == Polynomial.constant(2, 4)
    assert (x1 + 3 * x2).laplacian() == Polynomial.zero(2)
    # <xi, x>^2 has Laplacian 2 |xi|^2
    xi = (Fraction(2), Fraction(-3))
    form = xi[0] * x1 + xi[1] * x2
    assert (form * form).laplacian() == Polynomial.constant(2, 2 * (4 + 9))


def _heat_by_laplacians(p, sign):
    """e^{sign Laplacian/2} p = sum_m sign^m Laplacian^m p / (2^m m!), with
    the Laplacian applied again for each m: the reference for heat_half and
    inverse_heat_half."""
    out = p
    power = p
    m = 0
    while power:
        m += 1
        power = power.laplacian()
        if not power:
            break
        coeff = Fraction(sign**m, 2**m * math.factorial(m))
        out = out + power * coeff
    return out


def _random_terms(rng, d, draw, max_degree, size):
    """Up to size terms of mixed total degree <= max_degree."""
    terms = {}
    for _ in range(size):
        nu = [0] * d
        for _ in range(rng.randint(0, max_degree)):
            nu[rng.randrange(d)] += 1
        terms[tuple(nu)] = draw()
    return terms


def _draws(rng):
    return {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        "complex-rational": lambda: ComplexRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        ),
        "float": lambda: rng.uniform(-9.0, 9.0),
        "complex": lambda: complex(rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0)),
    }


def test_heat_matches_repeated_laplacians():
    # the closed-form flow against the Laplacian loop: exactly and exact on
    # exact coefficients; float ones stay float, within 1e-13 of the sum of
    # |c b| that forms each coefficient (the flow of |p| with sign +1)
    rng = random.Random(7)
    for kind, draw in _draws(rng).items():
        exact = kind in ("int", "fraction", "complex-rational")
        for trial in range(8):
            d = 1 + trial % 3
            p = Polynomial(d, _random_terms(rng, d, draw, 10, 6))
            if trial < 2:
                p = Polynomial.zero(d) if trial == 0 else Polynomial.constant(d, draw())
            for flow, sign in ((heat_half, -1), (inverse_heat_half, 1)):
                got, want = flow(p), _heat_by_laplacians(p, sign)
                if exact:
                    assert got == want, (kind, p)
                    exact_types = (Fraction, ComplexRational)
                    assert all(isinstance(c, exact_types) for c in got.terms.values())
                    continue
                size = _heat_by_laplacians(p.map_coefficients(abs), 1).terms
                for mu in set(got.terms) | set(want.terms):
                    assert abs(got.terms.get(mu, 0) - want.terms.get(mu, 0)) <= 1e-13 * size[mu]
                scalar = float if kind == "float" else complex
                assert all(type(c) is scalar for c in got.terms.values()), kind


def test_heat_examples():
    x = var(1, 0)
    assert heat_half(x * x) == x * x - 1
    assert heat_half(x) == x
    assert inverse_heat_half(x * x) == x * x + 1


@settings(max_examples=30)
@given(poly_strategy(2, 8))
def test_heat_roundtrip(p):
    assert inverse_heat_half(heat_half(p)) == p


def test_heat_roundtrip_degree_ten():
    p = Polynomial(
        2, {(10, 0): Fraction(1, 3), (4, 6): Fraction(-2, 7), (1, 1): Fraction(5)}
    )
    assert heat_half(inverse_heat_half(p)) == p


def test_fischer_examples():
    d = 2
    x1, x2 = var(d, 0), var(d, 1)
    p = 3 * x1 * x1 + x2 + Fraction(7)
    one = Polynomial.constant(d, 1)
    assert fischer(one, p) == p.evaluate((0, 0))
    assert fischer(x1 * x2, x1 * x2) == 1
    assert fischer(Polynomial.monomial(d, (3, 1)), Polynomial.monomial(d, (3, 1))) == 6
    assert fischer(x1, x2) == 0


def test_fischer_pairing_with_power_of_linear_form():
    # [<x0, .>^n, y^nu] = n! x0^nu for |nu| = n
    d = 2
    x0 = (Fraction(2), Fraction(-1, 2))
    n = 3
    form = x0[0] * var(d, 0) + x0[1] * var(d, 1)
    power = form**n
    for nu in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        lhs = fischer(power, Polynomial.monomial(d, nu))
        want = math.factorial(n) * x0[0] ** nu[0] * x0[1] ** nu[1]
        assert lhs == want


@settings(max_examples=30)
@given(poly_strategy(2, 5), poly_strategy(2, 5))
def test_fischer_symmetric_and_adjoint(p, q):
    assert fischer(p, q) == fischer(q, p)
    for i in range(2):
        assert fischer(var(2, i) * p, q) == fischer(p, q.partial(i))


@settings(max_examples=20)
@given(poly_strategy(2, 4), poly_strategy(2, 4))
def test_fischer_graded_orthogonality(p, q):
    def components(r):
        comps = {}
        for nu, c in r.terms.items():
            comps.setdefault(sum(nu), {})[nu] = c
        return {n: Polynomial(r.dim, t) for n, t in comps.items()}

    comps_p = components(p)
    comps_q = components(q)
    for n, pn in comps_p.items():
        for m, qm in comps_q.items():
            if n != m:
                assert fischer(pn, qm) == 0


def test_fischer_via_gaussian_examples():
    one = Polynomial.constant(2, 1)
    assert fischer_via_gaussian(one, one) == 1
    x1 = var(2, 0)
    assert fischer_via_gaussian(x1, x1) == 1
    p = Polynomial.monomial(2, (2, 0))
    q = Polynomial.monomial(2, (0, 2))
    assert fischer_via_gaussian(p, q) == 0
    assert fischer_via_gaussian(p, p) == 2


@given(poly_strategy(3, 5), poly_strategy(3, 5))
@settings(max_examples=40, deadline=None)
def test_fischer_via_gaussian_is_exact(p, q):
    assert fischer_via_gaussian(p, q) == fischer(p, q)


def test_hermite_examples():
    assert hermite((0,)) == Polynomial.constant(1, 1.0)
    assert hermite((1,)) == Polynomial.monomial(1, (1,), 1.0)
    # H_2(z) = (z^2 - 1)/sqrt(2)
    h2 = hermite((2,))
    assert h2.terms == {(2,): math.sqrt(0.5), (0,): -math.sqrt(0.5)}
    assert abs(h2.evaluate((2.0,)) - 3 / math.sqrt(2)) < 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermite_product_is_heat_half_of_monomial(d):
    # prod_j He_{nu_j}(y_j) from hermite_values is e^{-Laplacian/2} x^nu at y,
    # exactly at a rational y, for every degree to 30 (up to a dozen monomials
    # of each); float, complex and array inputs agree within roundoff of the
    # term sizes
    import numpy as np

    y = (Fraction(5, 2), Fraction(-7, 3), Fraction(0), Fraction(1))[:d]
    he = [hermite_values(t, 30) for t in y]
    assert hermite_values(y[0], 0) == [1] and isinstance(he[0][0], Fraction)
    assert all(len(h) == 31 and h[1] == t for h, t in zip(he, y))
    for n in range(31):
        basis = monomial_basis(d, n)
        for nu in basis[:: max(1, len(basis) // 12)]:
            want = heat_half(Polynomial.monomial(d, nu)).evaluate(y)
            assert math.prod(h[e] for h, e in zip(he, nu)) == want, nu
    heat = [heat_half(Polynomial.monomial(1, (n,))) for n in range(31)]
    # the coefficient identity He_n = e^{-Laplacian/2} x^n, every n <= 30
    x = Polynomial.monomial(1, (1,))
    assert hermite_values(x, 30) == heat
    arr = hermite_values(np.array([[float(t) for t in y]]), 30)
    assert arr[0].shape == (1, d) and (arr[0] == 1.0).all()
    for j, t in enumerate(y):
        w = complex(float(t), 0.5)  # |w| >= |t|, so the tolerance covers both
        floats, complexes, at_w = (hermite_values(z, 30) for z in (float(t), complex(t), w))
        for n, h in enumerate(heat):
            size = sum(abs(c) * abs(w) ** mu[0] for mu, c in h.terms.items())
            tol = 1e-13 * max(1.0, float(size))
            want = float(he[j][n])
            assert abs(floats[n] - want) <= tol and abs(complexes[n] - want) <= tol, (t, n)
            assert abs(arr[n][0, j] - want) <= tol, (t, n)
            assert abs(at_w[n] - h.to_float().evaluate((w,))) <= tol, (t, n)


def test_hermite_gram_identity_to_degree_five():
    import numpy as np

    rule = gauss_rule(2, 12)
    hs = []
    for n in range(6):
        for a in range(n + 1):
            hs.append(hermite((a, n - a)))
    vals = np.stack([h.evaluate_many(rule.nodes) for h in hs])
    gram = (vals * rule.weights[None, :]) @ vals.T
    assert float(np.max(np.abs(gram - np.eye(len(hs))))) < 1e-10


def _horner(terms, point):
    """sum c x^nu by Horner's rule in the first coordinate, recursively, in
    plain Fraction and ComplexRational arithmetic: the reference for exact
    evaluation."""
    if not point:
        return sum(terms.values(), Fraction(0))
    by_exponent = {}
    for nu, c in terms.items():
        by_exponent.setdefault(nu[0], {})[nu[1:]] = c
    total = Fraction(0)
    for e in range(max(by_exponent, default=0), -1, -1):
        total = total * point[0] + _horner(by_exponent.get(e, {}), point[1:])
    return total


def test_evaluate_examples():
    x1, x2 = var(2, 0), var(2, 1)
    assert (x1 * x2).evaluate((2, 3)) == 6
    p = x1 * x1 + 5
    assert p.evaluate((0, 0)) == 5
    assert var(1, 0).__pow__(2).evaluate((1j,)) == -1  # bilinear, no conjugation
    got = (x1 * x2 + x2).evaluate((ComplexRational(1, 2), Fraction(1, 3)))
    assert type(got) is ComplexRational and got == ComplexRational(Fraction(2, 3), Fraction(2, 3))
    # exact coefficients at exact points, summed in integers, against the
    # Horner reference: value and type (ComplexRational when a coefficient
    # is, else Fraction, also for int coefficients at an int point)
    rng = random.Random(5)
    points = {
        1: [(0,), (-3,), (Fraction(-7, 4),)],
        2: [(3, -2), (Fraction(-1, 3), Fraction(5, 4)), (Fraction(7, 6), -1)],
        3: [
            (2, 0, -1),
            (Fraction(-2, 9), 3, Fraction(5, 6)),
            (Fraction(1, 8), Fraction(-3, 10), Fraction(4, 7)),
        ],
    }
    for kind, draw in _draws(rng).items():
        if kind in ("float", "complex"):
            continue
        for trial in range(12):
            d = 1 + trial % 3
            p = Polynomial(d, _random_terms(rng, d, draw, 9, 7))
            if trial < 3:
                p = Polynomial.zero(d) if trial == 0 else Polynomial.constant(d, draw())
            complex_coeff = any(isinstance(c, ComplexRational) for c in p.terms.values())
            for x in points[d]:
                got = p.evaluate(x)
                assert got == _horner(p.terms, x), (p, x)
                assert type(got) is (ComplexRational if complex_coeff else Fraction), (p, x)


def test_normalized_monomial_orthonormal():
    from dunkl.poly import _multi_factorial

    phi = Polynomial.monomial(2, (2, 1))
    psi = Polynomial.monomial(2, (1, 2))
    # [x^nu / sqrt(nu!), x^mu / sqrt(mu!)] = delta via the exact squared scale 1/nu!
    self_pair = fischer(phi, phi) * Fraction(1, _multi_factorial((2, 1)))
    cross_pair = fischer(phi, psi)
    assert self_pair == 1
    assert cross_pair == 0


def test_polynomial_from_a_table_drops_zero_coefficients():
    table = ({(2, 0): 3, (1, 1): 0, (0, 2): -6, (0, 0): ComplexRational(0, 0), (1, 0): 2}, 4)
    exact = _polynomial(2, table)
    assert exact.terms == {(2, 0): Fraction(3, 4), (0, 2): Fraction(-3, 2), (1, 0): Fraction(1, 2)}
    assert exact == Polynomial(2, {mu: Fraction(c, 4) for mu, c in table[0].items() if c})
    rounded = _polynomial(2, table, rounded=True)
    assert rounded.terms == {(2, 0): 0.75, (0, 2): -1.5, (1, 0): 0.5}
    assert all(type(c) is float for c in rounded.terms.values())
    # a nonzero numerator whose rounded value underflows to 0.0 is dropped too
    tiny = _polynomial(1, ({(2,): 1, (1,): 0, (0,): 1 << 100}, 1 << 1100), rounded=True)
    assert tiny.terms == {(0,): 2.0**-1000}
    assert _polynomial(1, ({(1,): 1}, 1 << 1100)).terms == {(1,): Fraction(1, 1 << 1100)}
    gaussian = _polynomial(1, ({(1,): ComplexRational(0, 2), (0,): ComplexRational(0, 0)}, 4), True)
    assert gaussian.terms == {(1,): 0.5j}
