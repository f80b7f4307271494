"""Exact scalar layer: complex rationals and dense linear solves over them.

Every quantity in the exact layer is a ``Fraction`` or a ``ComplexRational``
(a pair of Fractions).  Mixing with floats or python complex numbers is the
one-way door to the floating layer: the result is a plain float/complex.
"""
from __future__ import annotations

from fractions import Fraction


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
    """Solve A x = b for several right-hand sides by Gaussian elimination.

    ``matrix`` is a list of rows, ``rhs_columns`` a list of columns; entries
    may be Fraction, ComplexRational, float or complex.  Pivots are chosen by
    largest absolute value, which is exact-safe and float-stable at the sizes
    used here: the class solve of operators.solve_H is #classes square (13 on
    D4, 64 on Z2^6), and the dense inverses of W_n and V are dim P_n square.
    """
    n = len(matrix)
    m = len(rhs_columns)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if not _nonzero(aug[pivot_row][col]):
            raise SingularMatrixError(f"singular at column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if _nonzero(factor):
                ratio = factor / piv
                row_r = aug[r]
                row_c = aug[col]
                for c in range(col, n + m):
                    row_r[c] = row_r[c] - ratio * row_c[c]
    solutions = []
    for j in range(m):
        solutions.append([aug[i][n + j] / aug[i][i] for i in range(n)])
    return solutions


def invert_matrix(matrix):
    """Exact inverse, returned as a list of rows."""
    n = len(matrix)
    zero, one = 0, 1
    eye = [[one if i == j else zero for i in range(n)] for j in range(n)]
    cols = solve_columns(matrix, eye)
    # solve_columns returns solution columns of A X = I, i.e. columns of A^-1
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _nonzero(c):
    if isinstance(c, (float, complex)):
        return abs(c) > 1e-300
    return bool(c)
