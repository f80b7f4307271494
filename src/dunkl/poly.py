"""Sparse multivariate polynomial algebra over exact scalars.

Polynomials are stored as a map from exponent multi-indices to coefficients
(Fraction / ComplexRational in the exact layer, float / complex in the
floating layer); zero coefficients are never stored.  Exact coefficients
at an exact point are evaluated in integers over one denominator.  On top of
the ring operations this module provides the half-heat operators

    e^{-L/2} p = sum_m (-1)^m L^m p / (2^m m!)        (L = Laplacian),

taken in closed form on integer tables, one coordinate at a time (the flow
factors over the coordinates with integer coefficients on each), the
Fischer pairing

    [p, q] = p(d/dx) q |_{x=0},    [x^a, x^b] = delta_ab * a!,

its Gaussian-integral realization, the associated Hermite polynomials
H_nu = e^{-L/2} x^nu / sqrt(nu!), and the one three-term recurrence for the
values of the one-variable probabilists' Hermite polynomials He_n, from
which every product prod_j He_{nu_j}(y_j) in the package is taken; at
variance -1 the same recurrence gives the shifted Gaussian moments, so
either heat flow is summed at a point without forming its image (_heat_axes).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exact import ComplexRational, _all_exact, _exact_table, _exact_value, _numerator, _powers
from .exact import _read_exact, _rounded_value, _table_value


def _multi_factorial(nu):
    out = 1
    for e in nu:
        out *= math.factorial(e)
    return out


class Polynomial:
    """Immutable sparse polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        clean = {}
        if terms:
            for nu, c in terms.items():
                if len(nu) != dim:
                    raise ValueError(f"exponent {nu} has wrong length for dim {dim}")
                if c:
                    clean[nu if type(nu) is tuple else tuple(nu)] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, c):
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, dim, nu, coeff=1):
        return cls(dim, {tuple(nu): coeff})

    @classmethod
    def variable(cls, dim, j):
        nu = [0] * dim
        nu[j] = 1
        return cls(dim, {tuple(nu): 1})

    # -- ring structure -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        terms = dict(self.terms)
        for nu, c in other.terms.items():
            cur = terms.get(nu)
            if cur is None:
                terms[nu] = c
            else:
                s = cur + c
                if not s:
                    del terms[nu]
                else:
                    terms[nu] = s
        return _from_terms(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not other:
                return Polynomial.zero(self.dim)
            return self.map_coefficients(lambda c: c * other)
        terms = {}
        for nu, c in self.terms.items():
            for mu, d in other.terms.items():
                key = tuple(a + b for a, b in zip(nu, mu))
                prod = c * d
                cur = terms.get(key)
                if cur is None:
                    terms[key] = prod
                else:
                    terms[key] = cur + prod
        return Polynomial(self.dim, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, float, complex)) or other == 0:
                return self == Polynomial.constant(self.dim, other)
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for nu in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = " ".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(nu)
                if e
            )
            parts.append(f"{self.terms[nu]}*{mono}" if mono else f"{self.terms[nu]}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- structure -------------------------------------------------------------
    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(nu) for nu in self.terms)

    def map_coefficients(self, fn):
        return Polynomial(self.dim, {nu: fn(c) for nu, c in self.terms.items()})

    def to_float(self):
        """Coefficients coerced to float/complex (the floating layer)."""
        return self.map_coefficients(_to_float_scalar)

    # -- calculus ---------------------------------------------------------------
    def partial(self, j):
        terms = {}
        for nu, c in self.terms.items():
            e = nu[j]
            if e == 0:
                continue
            key = nu[:j] + (e - 1,) + nu[j + 1 :]
            add = c * e
            cur = terms.get(key)
            terms[key] = add if cur is None else cur + add
        return Polynomial(self.dim, terms)

    def laplacian(self):
        out = Polynomial.zero(self.dim)
        for j in range(self.dim):
            out = out + self.partial(j).partial(j)
        return out

    # -- evaluation ------------------------------------------------------------------
    def evaluate(self, point):
        """Plain substitution; bilinear in complex arguments (no conjugation).
        Exact coefficients at an exact point are summed in integers over one
        denominator (exact._table_value), to a Fraction or ComplexRational;
        any float coefficient or coordinate makes it a float sum."""
        if len(point) != self.dim:
            raise ValueError("point has wrong dimension")
        if _all_exact(point) and _all_exact(self.terms.values()):
            return _table_value(_exact_table(self.terms), point)
        powers = _powers(point, self.degree)
        total = 0
        for nu, c in self.terms.items():
            v = c
            for i, e in enumerate(nu):
                if e:
                    v = v * powers[i][e]
            total = total + v
        return total

    def evaluate_many(self, points):
        """Float evaluation at each point of a sequence: a list of values,
        real when the points and every coefficient are, complex otherwise."""
        coeffs = [_to_float_scalar(c) for c in self.terms.values()]
        out = []
        for point in points:
            powers = _powers([_to_float_scalar(t) for t in point], max(self.degree, 0))
            out.append(sum(
                c * math.prod(row[e] for row, e in zip(powers, nu)) for nu, c in zip(self.terms, coeffs)
            ))
        return out


def _from_terms(dim, terms):
    """The Polynomial whose terms are the dict terms as it is: tuple keys of
    length dim and no zero coefficient, which the caller guarantees."""
    out = Polynomial.__new__(Polynomial)
    object.__setattr__(out, "dim", dim)
    object.__setattr__(out, "terms", terms)
    return out


def _to_float_scalar(c):
    return complex(c) if isinstance(c, (complex, ComplexRational)) else float(c)


def combination(dim, pairs):
    """The sum of q * c over the (polynomial q, scalar c) pairs, gathered in
    one dict."""
    terms = {}
    for q, c in pairs:
        for mu, a in q.terms.items():
            prev = terms.get(mu)
            terms[mu] = a * c if prev is None else prev + a * c
    return Polynomial(dim, terms)


# -- integer tables --------------------------------------------------------------
#
# A table (numerators, den) is a dict from exponents to integers (Gaussian
# integers, ComplexRationals with int parts, for a complex weight) over one
# positive denominator, standing for sum numerators[mu] / den x^mu; it
# becomes a Polynomial only in _polynomial.


def _polynomial(dim, table, rounded=False):
    """The table as a Polynomial with exact coefficients, or with each
    coefficient rounded to a float once; a coefficient that is 0, exact or
    rounded, is dropped.  The table's keys are exponent tuples of length
    dim, so no other check runs."""
    nums, den = table
    value = _rounded_value if rounded else _exact_value
    return _from_terms(dim, {mu: v for mu, c in nums.items() if (v := value(c, den))})


def _combine(pairs):
    """sum of w * numerators / den over the (w, (numerators, den)) pairs, as a
    table over the lcm of the denominators, summed in one dict, zeros
    dropped."""
    pairs = list(pairs)
    den = math.lcm(*(table[1] for _, table in pairs))
    out = {}
    for w, (nums, d) in pairs:
        s = w if d == den else w * (den // d)
        for mu, a in nums.items():
            prev = out.get(mu)
            out[mu] = a * s if prev is None else prev + a * s
    return {mu: c for mu, c in out.items() if c}, den


def _weighted(pairs):
    """sum of c * table over the (table, exact scalar c) pairs as one table,
    in integers over one denominator (_combine)."""
    return _combine(
        (_numerator(c, c.denominator), (nums, den * c.denominator)) for (nums, den), c in pairs
    )


def _combination(dim, pairs, rounded=False):
    """sum of c * table over the (table, scalar c) pairs, as a Polynomial
    (_weighted); a float or complex c is read as its binary value
    (exact._read_exact), and then, as when rounded is set, each coefficient
    is rounded once."""
    pairs = list(pairs)
    scalars, floats = _read_exact(c for _, c in pairs)
    table = _weighted(zip((t for t, _ in pairs), scalars))
    return _polynomial(dim, table, rounded or floats)


# -- calculus and pairings on polynomials ------------------------------------------

_HEAT_ROWS = {-1: [[(0, 1)], [(1, 1)]], 1: [[(0, 1)], [(1, 1)]]}


def _heat_row(e, sign):
    """x^e's image under e^{sign Laplacian/2}, formed once: the integer pairs
    (e - 2k, sign^k e! / (k! (e-2k)! 2^k)) for k <= e/2."""
    rows = _HEAT_ROWS[sign]
    for m in range(len(rows), e + 1):
        rows.append([(m, 1)] + [(m - 2 * k, sign * b * m * (m - 1) // (2 * k))
                                for k, (_, b) in enumerate(rows[m - 2], 1)])
    return rows[e]


def _heat(table, sign):
    """e^{sign Laplacian/2} of the table (nums, den), over the same den, one
    coordinate i at a time: x^nu goes to sum b x^mu over the pairs (f, b) of
    nu_i's row (_heat_row), mu being nu with nu_i replaced by f."""
    nums, den = table
    for i in range(len(next(iter(nums), ()))):
        out = {}
        for nu, c in nums.items():
            head, tail = nu[:i], nu[i + 1 :]
            for f, b in _heat_row(nu[i], sign):
                mu = head + (f,) + tail
                prev = out.get(mu)
                out[mu] = c * b if prev is None else prev + c * b
        nums = out
    return nums, den


def _heat_polynomial(p: Polynomial, sign) -> Polynomial:
    """_heat on p's coefficients over one denominator, a float read as its
    binary value (exact._read_exact) and then the image rounded once."""
    coeffs, rounded = _read_exact(p.terms.values())
    return _polynomial(p.dim, _heat(_exact_table(dict(zip(p.terms, coeffs))), sign), rounded)


def heat_half(p: Polynomial) -> Polynomial:
    """e^{-Laplacian/2} p; maps x^nu to sqrt(nu!) H_nu."""
    return _heat_polynomial(p, -1)


def inverse_heat_half(p: Polynomial) -> Polynomial:
    """e^{+Laplacian/2} p; exact inverse of heat_half on polynomials."""
    return _heat_polynomial(p, +1)


def fischer(p: Polynomial, q: Polynomial):
    """[p, q] = p(d)q(0) = sum_nu nu! p_nu q_nu (bilinear, not Hermitian)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    total = 0
    small, large = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    for nu, c in small.items():
        d = large.get(nu)
        if d is not None:
            total = total + c * d * _multi_factorial(nu)
    return total


def fischer_via_gaussian(p: Polynomial, q: Polynomial):
    """[p, q] as the Gaussian integral of the two half-heat images, taken in
    closed form from the moments of dgamma; exact on exact coefficients."""
    from .quad import gaussian_integral

    return gaussian_integral(heat_half(p) * heat_half(q))


def hermite(nu) -> Polynomial:
    """H_nu = e^{-Laplacian/2}(x^nu / sqrt(nu!)) as a float polynomial: the
    integer coefficients of e^{-Laplacian/2} x^nu times the one square root
    of 1/nu!."""
    nu = tuple(nu)
    scale = math.sqrt(float(Fraction(1, _multi_factorial(nu))))
    return heat_half(Polynomial.monomial(len(nu), nu)).to_float() * scale


def hermite_values(z, n, t=1):
    """[h_0, ..., h_n], h_e = t^{e/2} He_e(z / sqrt(t)) the probabilists'
    Hermite polynomials of variance t (He_e(z) at t = 1), from h_{e+1} =
    z h_e - e t h_{e-1}.  z may be an exact, float or complex scalar; h_0 =
    z**0 takes its type.  Since the half-heat flow
    factors over the coordinates and sends z^e to He_e(z), e^{-Laplacian/2}
    x^nu at y is prod_j He_{nu_j}(y_j)."""
    he = [z**0, z][: n + 1]
    for e in range(1, n):
        he.append(z * he[e] - e * t * he[e - 1])
    return he


def _heat_axes(y, n, sign):
    """(axes, r) at an exact point y = b / r: per axis the integer numerators
    r^e h_e(b_j / r) of hermite_values of variance -sign r^2, to degree n,
    so that exact._table_sum(table, *axes) is (e^{sign Laplacian/2} p)(y),
    the point-value twin of _heat.  For sign -1, h_e is He_e; for sign +1
    it is the shifted moment integral (b_j / r + u)^e dgamma(u), from
    h_{e+1} = z h_e + e h_{e-1}, which shares no code with _heat's rows."""
    r = math.lcm(*(t.denominator for t in y))
    return [hermite_values(_numerator(t, r), n, -sign * r * r) for t in y], r
