"""Sparse multivariate polynomial algebra over exact scalars.

Polynomials are stored as a map from exponent multi-indices to coefficients
(Fraction / ComplexRational in the exact layer, float / complex in the
floating layer); zero coefficients are never stored.  On top of the ring
operations this module provides the half-heat operators

    e^{-L/2} p = sum_m (-1)^m L^m p / (2^m m!)        (L = Laplacian)

which terminate because L^m p = 0 once 2m exceeds deg p, the Fischer pairing

    [p, q] = p(d/dx) q |_{x=0},    [x^a, x^b] = delta_ab * a!,

its Gaussian-integral realization, the associated Hermite polynomials
H_nu = e^{-L/2} x^nu / sqrt(nu!), and the one three-term recurrence for the
values of the one-variable probabilists' Hermite polynomials He_n, from
which every product prod_j He_{nu_j}(y_j) in the package is taken.
"""
from __future__ import annotations

import math
from fractions import Fraction


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
                if _is_zero(c):
                    continue
                clean[tuple(nu)] = c
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
                if _is_zero(s):
                    del terms[nu]
                else:
                    terms[nu] = s
        out = Polynomial.__new__(Polynomial)
        object.__setattr__(out, "dim", self.dim)
        object.__setattr__(out, "terms", terms)
        return out

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
            if _is_zero(other):
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

    # -- substitution and evaluation ----------------------------------------------
    def substitute_linear(self, matrix):
        """p(M x): replace each variable x_i by the linear form sum_j M[i][j] x_j."""
        forms = [
            Polynomial(
                self.dim,
                {
                    tuple(1 if l == j else 0 for l in range(self.dim)): matrix[i][j]
                    for j in range(self.dim)
                    if not _is_zero(matrix[i][j])
                },
            )
            for i in range(self.dim)
        ]
        power_cache = [{} for _ in range(self.dim)]
        out = Polynomial.zero(self.dim)
        for nu, c in self.terms.items():
            piece = Polynomial.constant(self.dim, c)
            for i, e in enumerate(nu):
                if e == 0:
                    continue
                cached = power_cache[i].get(e)
                if cached is None:
                    cached = forms[i] ** e
                    power_cache[i][e] = cached
                piece = piece * cached
            out = out + piece
        return out

    def evaluate(self, point):
        """Plain substitution; bilinear in complex arguments (no conjugation)."""
        if len(point) != self.dim:
            raise ValueError("point has wrong dimension")
        max_exp = [0] * self.dim
        for nu in self.terms:
            for i, e in enumerate(nu):
                if e > max_exp[i]:
                    max_exp[i] = e
        powers = []
        for i in range(self.dim):
            ps = [1]
            for _ in range(max_exp[i]):
                ps.append(ps[-1] * point[i])
            powers.append(ps)
        total = 0
        for nu, c in self.terms.items():
            v = c
            for i, e in enumerate(nu):
                if e:
                    v = v * powers[i][e]
            total = total + v
        return total

    def evaluate_many(self, points):
        """Vectorized float evaluation on an (n, dim) array; the values are
        real when the points and every coefficient are, complex otherwise."""
        import numpy as np

        coeffs = [_to_float_scalar(c) for c in self.terms.values()]
        pts = np.asarray(points)
        real = pts.dtype.kind in "biuf" and not any(isinstance(c, complex) for c in coeffs)
        dtype = float if real else complex
        pts = np.asarray(pts, dtype=dtype)
        if pts.ndim == 1:
            pts = pts[None, :]
        vals = np.zeros(pts.shape[0], dtype=dtype)
        powers = {}
        for nu, c in zip(self.terms, coeffs):
            term = np.full(pts.shape[0], c, dtype=dtype)
            for i, e in enumerate(nu):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = _int_power(pts[:, i], e)
                    term *= powers[i, e]
            vals += term
        return vals


def _int_power(x, e):
    """x**e for e >= 1 by repeated squaring, the products numpy's power
    forms for a complex x, so a real evaluation is bit for bit the real part
    of the complex one."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if not e:
            return out
        x = x * x


def _is_zero(c):
    if isinstance(c, (float, complex)):
        return c == 0
    return not bool(c)


def _to_float_scalar(c):
    if isinstance(c, Fraction):
        return float(c)
    if isinstance(c, (int, float)):
        return float(c)
    return complex(c)


def combination(dim, pairs):
    """The sum of q * c over the (polynomial q, scalar c) pairs, gathered in
    one dict."""
    terms = {}
    for q, c in pairs:
        for mu, a in q.terms.items():
            prev = terms.get(mu)
            terms[mu] = a * c if prev is None else prev + a * c
    return Polynomial(dim, terms)


# -- calculus and pairings on polynomials ------------------------------------------

def directional_derivative(xi, p: Polynomial) -> Polynomial:
    """sum_j xi_j d/dx_j p."""
    out = Polynomial.zero(p.dim)
    for j, w in enumerate(xi):
        if _is_zero(w):
            continue
        out = out + p.partial(j) * w
    return out


def _heat(p: Polynomial, sign: int) -> Polynomial:
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


def heat_half(p: Polynomial) -> Polynomial:
    """e^{-Laplacian/2} p; maps x^nu to sqrt(nu!) H_nu."""
    return _heat(p, -1)


def inverse_heat_half(p: Polynomial) -> Polynomial:
    """e^{+Laplacian/2} p; exact inverse of heat_half on polynomials."""
    return _heat(p, +1)


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


def hermite_values(z, n):
    """[He_0(z), ..., He_n(z)], the probabilists' Hermite polynomials at z,
    from He_{e+1} = z He_e - e He_{e-1}.  z may be an exact or float scalar
    or a numpy array; He_0 = z**0 takes its type and shape.  Since the
    half-heat flow factors over the coordinates and sends z^e to He_e(z),
    e^{-Laplacian/2} x^nu at y is prod_j He_{nu_j}(y_j)."""
    he = [z**0, z][: n + 1]
    for e in range(1, n):
        he.append(z * he[e] - e * he[e - 1])
    return he
