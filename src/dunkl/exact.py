"""Exact scalar layer: complex rationals, integer numerators, and
fraction-free linear solves on them.

Every quantity in the exact layer is a ``Fraction`` or a ``ComplexRational``
(a pair of Fractions).  Mixing with floats or python complex numbers is the
one-way door to the floating layer: the result is a plain float/complex.
Long exact sums run on integer numerators over one denominator instead.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul


class ComplexRational:
    """Complex number with exact rational real and imaginary parts.

    Arithmetic with int/Fraction stays exact; arithmetic with float/complex
    degrades to python complex.  A ComplexRational with zero imaginary part
    compares and hashes equal to the corresponding Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- coercion helpers -------------------------------------------------
    @staticmethod
    def _lift(other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ComplexRational(other)
        return None

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ComplexRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons and views ----------------------------------------------
    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) == other
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return abs(complex(self))

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


_EXACT = (int, Fraction, ComplexRational)


def _all_exact(values):
    """Whether every value is an exact scalar (int, Fraction or ComplexRational)."""
    return all(isinstance(c, _EXACT) for c in values)


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
    ], not _all_exact(values)


# -- integer numerators --------------------------------------------------------


class _Gaussian:
    """An exact complex integer re + i im: a numerator for a complex value."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        if isinstance(other, _Gaussian):
            return _Gaussian(self.re + other.re, self.im + other.im)
        return _Gaussian(self.re + other, self.im)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Gaussian):
            return _Gaussian(
                self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
            )
        return _Gaussian(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return _Gaussian(self.re - other.re, self.im - other.im)

    def __floordiv__(self, k):
        """self / k for an int or _Gaussian k that divides self exactly."""
        if isinstance(k, _Gaussian):
            norm = k.re * k.re + k.im * k.im
            return _Gaussian(
                (self.re * k.re + self.im * k.im) // norm, (self.im * k.re - self.re * k.im) // norm
            )
        return _Gaussian(self.re // k, self.im // k)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, _Gaussian):
            return self.re == other.re and self.im == other.im
        return self.im == 0 and self.re == other


def _denominator(c):
    """The least positive integer that makes the exact scalar c integral."""
    if isinstance(c, ComplexRational):
        return math.lcm(c.re.denominator, c.im.denominator)
    return c.denominator


def _numerator(c, den):
    """c * den for an exact scalar c that den makes integral: an int, or a
    _Gaussian for a ComplexRational."""
    if isinstance(c, ComplexRational):
        return _Gaussian(
            c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)
        )
    return c.numerator * (den // c.denominator)


def _exact_table(terms):
    """Exact coefficients {mu: c} as (numerators, den) over their least
    common denominator."""
    den = math.lcm(*(_denominator(c) for c in terms.values()))
    return {mu: _numerator(c, den) for mu, c in terms.items()}, den


def _exact_value(num, den):
    """num / den as a Fraction or ComplexRational."""
    if isinstance(num, _Gaussian):
        return ComplexRational(Fraction(num.re, den), Fraction(num.im, den))
    return Fraction(num, den)


def _rounded_value(num, den):
    """num / den rounded once: a float, or a complex for a _Gaussian."""
    if isinstance(num, _Gaussian):
        return complex(num.re / den, num.im / den)
    return num / den


def _powers(point, n):
    """[t^0, ..., t^n] for each coordinate t of point, each power the one
    before times t: the products every evaluation multiplies by."""
    return [list(accumulate([t] * n, mul, initial=1)) for t in point]


def _table_value(table, point):
    """sum_nu nums[nu] / den point^nu for table = (nums, den) at an exact
    point, in integers: with point = a / q over one q and D the top degree,
    sum_nu nums[nu] a^nu q^(D - |nu|) over den q^D, the degrees joined by
    Horner's rule in q.  A ComplexRational if anything complex enters."""
    nums, den = table
    q = math.lcm(*(_denominator(t) for t in point))
    powers = _powers([_numerator(t, q) for t in point], max(map(sum, nums), default=0))
    sums = {}
    for nu, c in nums.items():
        for i, e in enumerate(nu):
            if e:
                c = c * powers[i][e]
        m = sum(nu)
        sums[m] = sums[m] + c if m in sums else c
    top = max(sums, default=0)
    total = 0
    for m in range(top + 1):
        total = total * q + sums.get(m, 0)
    return _exact_value(total, den * q**top)


def abs_squared(c):
    """|c|^2, exact (Fraction) for exact inputs."""
    if isinstance(c, ComplexRational):
        return c.re * c.re + c.im * c.im
    if isinstance(c, complex):
        return c.real * c.real + c.imag * c.imag
    return c * c


def is_real_scalar(c):
    if isinstance(c, ComplexRational):
        return c.im == 0
    if isinstance(c, complex):
        return c.imag == 0.0
    return True


def real_part(c):
    if isinstance(c, ComplexRational):
        return c.re
    if isinstance(c, complex):
        return c.real
    return c


def imag_part(c):
    if isinstance(c, ComplexRational):
        return c.im
    if isinstance(c, complex):
        return c.imag
    return Fraction(0) if isinstance(c, (int, Fraction)) else 0.0


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
        return {"re": format_rational(c.re), "im": format_rational(c.im)}
    return format_rational(Fraction(c))


# -- exact linear algebra -----------------------------------------------------

class SingularMatrixError(ValueError):
    pass


def solve_columns(matrix, rhs_columns):
    """Solve A x = b for several right-hand sides by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on int or
    _Gaussian entries: each step sets every entry a off the pivot row to
    (p a - f b) / p', p the pivot, f and b the entries of a's row and column
    in the pivot column and row, p' the pivot before; the division is exact.
    ``matrix`` is a list of rows, ``rhs_columns`` a list of columns.
    Returns (columns, den): the solutions as integer numerators over one
    positive den, the last pivot (+-det A; a Gaussian one is cleared by its
    conjugate), not necessarily in lowest terms.  Raises SingularMatrixError
    when A is singular.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    if any(isinstance(c, _Gaussian) for row in aug for c in row):
        aug = [[c if isinstance(c, _Gaussian) else _Gaussian(c, 0) for c in row] for row in aug]
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
    if isinstance(prev, _Gaussian):
        scale, den = _Gaussian(prev.re, -prev.im), prev.re * prev.re + prev.im * prev.im
    else:
        scale, den = (-1 if prev < 0 else 1), abs(prev)
    return [[aug[i][n + j] * scale for i in range(n)] for j in range(len(rhs_columns))], den


def invert_matrix(matrix):
    """The exact inverse of an integer (or Gaussian integer) matrix, given
    as its list of rows: (columns, den), the columns of den A^{-1}."""
    n = len(matrix)
    return solve_columns(matrix, [[int(i == j) for i in range(n)] for j in range(n)])
