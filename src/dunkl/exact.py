"""Exact scalar layer: complex rationals, integer numerators, and
fraction-free linear solves on them.

Every quantity in the exact layer is an int, a Fraction or a
``ComplexRational``, the one exact complex type.  All of them, like float
and complex, speak Python's number protocol: ``.real``, ``.imag`` and
``.conjugate()``, and the exact ones ``.denominator``.  Floats enter by one
rule (_read_exact): a float is the dyadic rational it stores, a complex the
ComplexRational of its parts, and a value computed from them is exact until
it is rounded once (_rounded_value).  A ComplexRational does no arithmetic
with a float or complex (TypeError) and compares with one by value, as
Fraction does.  Long exact sums run on integer numerators over one
denominator; the numerator of a complex value is a ComplexRational with int
parts, a Gaussian integer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

_RATIONAL = (int, Fraction)


class ComplexRational:
    """Complex number real + i imag with exact rational parts.

    A part is an int or a Fraction and is kept as given (any other number
    is read as a Fraction), so a ComplexRational with int parts is a
    Gaussian integer, which // divides exactly.  Arithmetic with
    int/Fraction stays exact, and with a float or complex raises TypeError.
    A ComplexRational with zero imaginary part compares and hashes equal to
    the corresponding Fraction, and with a float or complex by value.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        _set_real(self, real if isinstance(real, _RATIONAL) else Fraction(real))
        _set_imag(self, imag if isinstance(imag, _RATIONAL) else Fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @property
    def denominator(self):
        """The least positive integer that makes both parts integral."""
        return math.lcm(self.real.denominator, self.imag.denominator)

    def conjugate(self):
        return _make(self.real, -self.imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    # -- ring operations: results are built from their parts -----------------
    def __add__(self, other):
        if type(other) is ComplexRational:
            return _make(self.real + other.real, self.imag + other.imag)
        if isinstance(other, _RATIONAL):
            return _make(self.real + other, self.imag)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.real, -self.imag)

    def __sub__(self, other):
        if type(other) is ComplexRational:
            return _make(self.real - other.real, self.imag - other.imag)
        if isinstance(other, _RATIONAL):
            return _make(self.real - other, self.imag)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is ComplexRational:
            a, b, c, d = self.real, self.imag, other.real, other.imag
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, _RATIONAL):
            return _make(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            other = _make(other, 0)
        elif type(other) is not ComplexRational:
            return NotImplemented
        a, b, c, d = self.real, self.imag, other.real, other.imag
        norm = c * c + d * d
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return _make(Fraction(a * c + b * d, norm), Fraction(b * c - a * d, norm))

    def __rtruediv__(self, other):
        if isinstance(other, _RATIONAL):
            return _make(other, 0) / self
        return NotImplemented

    def __floordiv__(self, other):
        """self / other for an int or Gaussian integer other that divides the
        Gaussian integer self exactly; NotImplemented for any other divisor."""
        if type(other) is ComplexRational:
            a, b, c, d = self.real, self.imag, other.real, other.imag
            norm = c * c + d * d
            return _make((a * c + b * d) // norm, (b * c - a * d) // norm)
        if not isinstance(other, int):
            return NotImplemented
        return _make(self.real // other, self.imag // other)

    def __rfloordiv__(self, other):
        return _make(other, 0) // self if isinstance(other, int) else NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _make(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons and views ----------------------------------------------
    def __eq__(self, other):
        if type(other) is ComplexRational:
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, _RATIONAL):
            return self.imag == 0 and self.real == other
        if isinstance(other, (float, complex)):
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self):
        if self.imag == 0:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __bool__(self):
        return bool(self.real or self.imag)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        return f"ComplexRational({self.real!r}, {self.imag!r})"


_set_real = ComplexRational.real.__set__
_set_imag = ComplexRational.imag.__set__


def _make(real, imag):
    """The ComplexRational with the given int or Fraction parts, built
    without __init__'s checks."""
    z = object.__new__(ComplexRational)
    _set_real(z, real)
    _set_imag(z, imag)
    return z


_EXACT = (int, Fraction, ComplexRational)


def _read_exact(values):
    """(exact values, rounded): the one rule for float inputs.  A float is
    read as the dyadic rational it stores and a complex as the
    ComplexRational of its parts; rounded says whether any value was, and
    then the caller rounds its exact result once (_rounded_value)."""
    values = list(values)
    return [
        c if isinstance(c, _EXACT)
        else ComplexRational(c.real, c.imag) if isinstance(c, complex) else Fraction(c)
        for c in values
    ], not all(isinstance(c, _EXACT) for c in values)


# -- integer numerators --------------------------------------------------------------


def _numerator(c, den):
    """c * den for an exact scalar c whose denominator divides den: an int,
    or a ComplexRational with int parts for a ComplexRational c."""
    if isinstance(c, ComplexRational):
        re, im = c.real, c.imag
        return _make(re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
    return c.numerator * (den // c.denominator)


def _exact_table(terms):
    """Exact coefficients {mu: c} as (numerators, den) over their least
    common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {mu: _numerator(c, den) for mu, c in terms.items()}, den


def _exact_value(num, den):
    """num / den as a Fraction or ComplexRational."""
    if isinstance(num, ComplexRational):
        return _make(Fraction(num.real, den), Fraction(num.imag, den))
    return Fraction(num, den)


def _rounded_value(num, den):
    """num / den rounded once: a float, or a complex for a Gaussian integer."""
    if isinstance(num, ComplexRational):
        return complex(num.real / den, num.imag / den)
    return num / den


def _powers(point, n):
    """[t^0, ..., t^n] for each coordinate t of point, each power the one
    before times t: the products every evaluation multiplies by."""
    return [list(accumulate([t] * n, mul, initial=1)) for t in point]


def _table_sum(table, axes, q, rounded=False):
    """sum_nu nums[nu] / den prod_i axes[i][nu_i] / q^|nu| for table =
    (nums, den): the one integer sum every evaluation runs, axes[i][e] / q^e
    being the value of a per-axis factor of degree e (the powers a_i^e of a
    point a / q, or Hermite numerators).  The degrees are joined by Horner's
    rule in q over den q^D, D the top degree of nums, and divided once:
    exact, or rounded once if rounded."""
    nums, den = table
    sums = {}
    for nu, c in nums.items():
        for i, e in enumerate(nu):
            if e:
                c = c * axes[i][e]
        m = sum(nu)
        sums[m] = sums[m] + c if m in sums else c
    top = max(sums, default=0)
    total = 0
    for m in range(top + 1):
        total = total * q + sums.get(m, 0)
    return (_rounded_value if rounded else _exact_value)(total, den * q**top)


def _table_value(table, point, rounded=False):
    """sum_nu nums[nu] / den point^nu for table = (nums, den) at an exact
    point a / q, over one q: _table_sum over the powers of a.  A
    ComplexRational if anything complex enters; rounded once if rounded."""
    q = math.lcm(*(t.denominator for t in point))
    powers = _powers([_numerator(t, q) for t in point], max(map(sum, table[0]), default=0))
    return _table_sum(table, powers, q, rounded)


# -- parsing / formatting ----------------------------------------------------

def parse_rational(value) -> Fraction:
    """Read an exact rational from 'p/q' or 'p' strings, ints, or floats.

    Floats are read through their decimal repr so '0.5' means 1/2, not the
    nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot parse rational from {value!r}")


def parse_scalar(value):
    """Read a Fraction or ComplexRational from config-style scalars.

    Accepts 'p/q' strings, numbers, or {'re': ..., 'im': ...} mappings.
    """
    if isinstance(value, dict):
        re = parse_rational(value.get("re", 0))
        im = parse_rational(value.get("im", 0))
        if im == 0:
            return re
        return ComplexRational(re, im)
    return parse_rational(value)


def format_rational(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def scalar_to_json(c):
    if isinstance(c, ComplexRational):
        return {"re": format_rational(c.real), "im": format_rational(c.imag)}
    return format_rational(Fraction(c))


# -- exact linear algebra -----------------------------------------------------

class SingularMatrixError(ValueError):
    pass


def solve_columns(matrix, rhs_columns):
    """Solve A x = b for several right-hand sides by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on int or
    Gaussian integer (ComplexRational with int parts) entries, mixed as they
    come: each step sets every entry a off the pivot row to (p a - f b) / p',
    p the pivot, f and b the entries of a's row and column in the pivot
    column and row, p' the pivot before; the division is exact.
    ``matrix`` is a list of rows, ``rhs_columns`` a list of columns.
    Returns (columns, den): the solutions as integer numerators over one
    positive den, the last pivot (+-det A; a Gaussian one is cleared by its
    conjugate), not necessarily in lowest terms.  Raises SingularMatrixError
    when A is singular.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if aug[r][k]), None)
        if p is None:
            raise SingularMatrixError(f"singular at column {k}")
        aug[k], aug[p] = aug[p], aug[k]
        pivot_row = aug[k]
        piv = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                # columns before k are settled: zero off the diagonal, and
                # each diagonal entry is the latest pivot
                row[k + 1 :] = [(piv * a - f * b) // prev for a, b in zip(row[k + 1 :], tail)]
        prev = piv
    if isinstance(prev, ComplexRational):
        scale, den = prev.conjugate(), prev.real * prev.real + prev.imag * prev.imag
    else:
        scale, den = (-1 if prev < 0 else 1), abs(prev)
    return [[aug[i][n + j] * scale for i in range(n)] for j in range(len(rhs_columns))], den


def invert_matrix(matrix):
    """The exact inverse of an integer (or Gaussian integer) matrix, given
    as its list of rows: (columns, den), the columns of den A^{-1}."""
    n = len(matrix)
    return solve_columns(matrix, [[int(i == j) for i in range(n)] for j in range(n)])
