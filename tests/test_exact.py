import math
from fractions import Fraction

import pytest
from fraction_solve import fraction_invert_matrix, fraction_solve_columns
from hypothesis import given, settings, strategies as st

from dunkl.exact import (
    ComplexRational,
    SingularMatrixError,
    _exact_value,
    format_rational,
    invert_matrix,
    parse_rational,
    parse_scalar,
    solve_columns,
)
from dunkl.poly import Polynomial

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(rationals, rationals, rationals, rationals)
def test_complex_rational_ring(a, b, c, d):
    z = ComplexRational(a, b)
    w = ComplexRational(c, d)
    assert (z + w) - w == z
    assert z * w == w * z
    assert z * (w + 1) == z * w + z
    if w:
        assert (z / w) * w == z


def test_complex_rational_pow_and_conj():
    z = ComplexRational(Fraction(1, 2), Fraction(-1, 3))
    assert z**0 == 1
    assert z**3 == z * z * z
    assert z.conjugate().imag == Fraction(1, 3)
    assert z * z.conjugate() == Fraction(1, 4) + Fraction(1, 9)


# each kind of scalar built from its parts (a, b): the number protocol must
# give back a and b, the conjugate a - ib and, on the exact kinds, the least
# common denominator of the parts
SCALARS = {
    "int": lambda a, b: a.numerator,
    "fraction": lambda a, b: a,
    "gaussian": lambda a, b: ComplexRational(a.numerator, b.numerator),
    "complex-rational": lambda a, b: ComplexRational(a, b),
    "float": lambda a, b: float(a),
    "complex": lambda a, b: complex(float(a), float(b)),
}


@pytest.mark.parametrize("kind", sorted(SCALARS))
@given(rationals, rationals)
def test_every_scalar_speaks_the_number_protocol(kind, a, b):
    if kind in ("int", "gaussian"):
        a, b = Fraction(a.numerator), Fraction(b.numerator)
    if kind in ("int", "fraction", "float"):
        b = Fraction(0)
    c = SCALARS[kind](a, b)
    real, imag = (float(a), float(b)) if kind in ("float", "complex") else (a, b)
    assert c.real == real and c.imag == imag
    assert c.conjugate() == SCALARS[kind](a, -b)
    assert (c * c.conjugate()).real == real * real + imag * imag  # |c|^2
    assert (c.imag == 0) == (b == 0)
    if kind in ("int", "fraction", "gaussian", "complex-rational"):
        assert c.denominator == math.lcm(a.denominator, b.denominator)
        assert c * c.denominator == ComplexRational(a * c.denominator, b * c.denominator)
    if kind in ("int", "gaussian"):
        assert c.denominator == 1


gaussians = st.builds(ComplexRational, st.integers(-9, 9), st.integers(-9, 9))


@given(gaussians, gaussians, st.integers(-9, 9))
def test_floor_division_is_exact_on_gaussian_integers(z, w, m):
    for q, k in ((z, w), (z, m), (m, w)):
        if k:
            quotient = (q * k) // k
            assert quotient == q
            assert type(quotient) is ComplexRational
            assert type(quotient.real) is int and type(quotient.imag) is int


def test_real_complex_rational_matches_fraction():
    z = ComplexRational(Fraction(3, 4))
    assert z == Fraction(3, 4)
    assert hash(z) == hash(Fraction(3, 4))
    assert ComplexRational(0, 1) != Fraction(0)


def test_float_boundary():
    # a ComplexRational does no arithmetic with a float or complex, either
    # side, and compares with one by its exact value, as Fraction does
    z = ComplexRational(1, 2)
    for f in (0.5, 0.5 + 1j):
        for op in (
            lambda: z + f, lambda: f + z, lambda: z - f, lambda: f - z,
            lambda: z * f, lambda: f * z, lambda: z / f, lambda: f / z,
        ):
            with pytest.raises(TypeError):
                op()
    assert z == 1 + 2j and ComplexRational(Fraction(1, 2)) == 0.5
    assert ComplexRational(Fraction(1, 10)) != 0.1 and Fraction(1, 10) != 0.1
    assert ComplexRational(Fraction(0.1)) == 0.1 - 0j


def test_floor_division_takes_ints_and_gaussian_integers_only():
    # // divides a Gaussian integer exactly by an int or a Gaussian integer,
    # and an int by a Gaussian integer; any other number, on either side,
    # is a TypeError
    z = ComplexRational(4, 6)
    assert z // 2 == ComplexRational(2, 3) and z // ComplexRational(1, 1) == ComplexRational(5, 1)
    assert 10 // ComplexRational(1, 2) == ComplexRational(2, -4)
    for other in (0.5, Fraction(1, 2), 1 + 0j):
        with pytest.raises(TypeError):
            z // other
        with pytest.raises(TypeError):
            other // z


def test_evaluate_rounds_the_exact_value_once():
    # Polynomial.evaluate reads float coordinates and coefficients as their
    # binary values and rounds the exact sum once, for real and
    # ComplexRational coefficients
    def rounded(v):
        return complex(v) if isinstance(v, ComplexRational) else float(v)

    for c in (Fraction(1, 3), ComplexRational(Fraction(1, 3), Fraction(-2, 7))):
        terms = {(3, 0): c, (1, 1): 1, (0, 0): Fraction(-5, 11)}
        binary = (Fraction(0.1), Fraction(0.7))
        exact = Polynomial(2, terms).evaluate(binary)
        assert type(exact) is type(c)
        for x in ((0.1, 0.7), (Fraction(0.1), 0.7), (0.1 + 0j, 0.7)):
            got = Polynomial(2, terms).evaluate(x)
            want = complex(exact) if isinstance(x[0], complex) else rounded(exact)
            assert type(got) is type(want) and got == want
        cf = rounded(c)
        cb = Fraction(cf) if isinstance(cf, float) else ComplexRational(cf.real, cf.imag)
        exact = Polynomial(2, {**terms, (3, 0): cb}).evaluate(binary)
        got = Polynomial(2, {**terms, (3, 0): cf}).evaluate(binary)
        assert type(got) is type(cf) and got == rounded(exact)


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_scalar({"re": "1/2", "im": "1/3"}) == ComplexRational(
        Fraction(1, 2), Fraction(1, 3)
    )
    assert parse_scalar({"re": "1/2", "im": 0}) == Fraction(1, 2)
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4)) == "4"


def test_solve_columns_exact():
    a = [[2, 1], [1, 3]]
    (x,), den = solve_columns(a, [[5, 10]])
    x = [Fraction(c, den) for c in x]
    assert x == [1, 3] == fraction_solve_columns(_fractions(a), [_fractions([5, 10])])[0]


def test_invert_matrix_roundtrip():
    a = [[1, 2, 0], [0, 1, 4], [1, 0, 1]]
    cols, den = invert_matrix(a)
    inv = [[Fraction(cols[j][i], den) for j in range(3)] for i in range(3)]
    n = 3
    prod = [
        [sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert inv == fraction_invert_matrix(_fractions(a))


def test_singular_matrix_raises():
    a = [[1, 2], [2, 4]]
    with pytest.raises(SingularMatrixError):
        solve_columns(a, [[1, 0]])
    with pytest.raises(SingularMatrixError):
        fraction_solve_columns(_fractions(a), [_fractions([1, 0])])


def test_complex_rational_linear_solve():
    i = ComplexRational(0, 1)
    a = [[i, 1], [1, i]]
    (x,), den = solve_columns(a, [[1, 0]])
    assert isinstance(den, int) and den > 0
    x = [_exact_value(c, den) for c in x]
    # verify by substitution
    j = ComplexRational(0, 1)
    assert j * x[0] + x[1] == 1
    assert x[0] + j * x[1] == 0


def _fractions(entries):
    """Integer or Gaussian integer entries (nested lists) as Fractions or
    ComplexRationals."""
    if isinstance(entries, list):
        return [_fractions(e) for e in entries]
    return _exact_value(entries, 1)


def _integers(draw, gaussian, size):
    entries = st.integers(-4, 4)
    if gaussian:
        entries = st.one_of(entries, st.builds(ComplexRational, entries, entries))
    return draw(st.lists(entries, min_size=size, max_size=size))


@st.composite
def _systems(draw):
    """A square integer or Gaussian-integer system with up to three right-hand
    sides; in a third of those of order > 1 the last row is made a
    combination of the first two (a multiple of the first at order 2)."""
    gaussian = draw(st.booleans())
    n = draw(st.integers(1, 5))
    matrix = [_integers(draw, gaussian, n) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        f = draw(st.integers(-2, 2))
        second = matrix[1] if n > 2 else [0] * n
        matrix[-1] = [a * f + b for a, b in zip(matrix[0], second)]
    rhs = [_integers(draw, gaussian, n) for _ in range(draw(st.integers(1, 3)))]
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_fraction_free_solve_matches_fraction_reference(system):
    matrix, rhs = system
    try:
        want = fraction_solve_columns(_fractions(matrix), _fractions(rhs))
    except SingularMatrixError:
        want = None
    try:
        cols, den = solve_columns(matrix, rhs)
    except SingularMatrixError:
        assert want is None
        return
    assert want is not None
    # den is a positive integer, also for a negative or complex determinant
    assert isinstance(den, int) and den > 0
    assert [[_exact_value(c, den) for c in col] for col in cols] == want
    inv_cols, inv_den = invert_matrix(matrix)
    assert isinstance(inv_den, int) and inv_den > 0
    n = len(matrix)
    inverse = [[_exact_value(inv_cols[j][i], inv_den) for j in range(n)] for i in range(n)]
    assert inverse == fraction_invert_matrix(_fractions(matrix))


def test_negative_and_complex_determinants_give_a_positive_denominator():
    i, minus_i = ComplexRational(0, 1), ComplexRational(0, -1)
    negative = ([[0, 1], [1, 0]], [[-3]], [[minus_i, 2], [1, i]])  # det -1, -3, -1
    complex_ = (
        [[i]], [[ComplexRational(-2, 1)]], [[ComplexRational(1, 1), 0], [0, 2]], [[i, 1], [1, 2]]
    )
    for matrix in negative + complex_:
        cols, den = invert_matrix(matrix)
        assert isinstance(den, int) and den > 0
        n = len(matrix)
        inverse = [[_exact_value(cols[j][i], den) for j in range(n)] for i in range(n)]
        assert inverse == fraction_invert_matrix(_fractions(matrix))
    with pytest.raises(SingularMatrixError):
        invert_matrix([[i, 1], [1, minus_i]])  # det = -i^2 - 1 = 0
    with pytest.raises(SingularMatrixError):
        fraction_invert_matrix(_fractions([[i, 1], [1, minus_i]]))
