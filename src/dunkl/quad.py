"""Integration against the standard Gaussian probability measure.

Everything targets dgamma = (2 pi)^{-d/2} e^{-|z|^2/2} dz, which has unit
mass and unit variance per axis.  Polynomials are integrated in closed form,
from the moments and, for Fourier integrals, from the shifted moments of
poly.hermite_values at an imaginary point.  Tensor Gauss-Hermite rules
remain for other integrands, for export, for the checks of the rule itself,
and for the functional kernel.phi_x_apply extends to any integrand.  The
rule is the probabilists' Gauss-Hermite rule (weight e^{-t^2/2}), built in
pure Python from the three-term recurrence of the orthonormal Hermite
polynomials p_k = He_k / sqrt(k!), whose Jacobi matrix has the nodes as its
eigenvalues (Golub-Welsch, Math. Comp. 23, 1969): each zero of p_q is
isolated by Sturm counts on that matrix and refined by Newton's method, and
its weight is the Christoffel number 1 / (q p_{q-1}(z)^2).  A tensor rule
keeps that axis rule, and its nodes and weights are the products of
itertools.product.  It integrates every monomial with per-axis degree
<= 2q - 1 exactly, hence every monomial of total degree <= 2q - 1.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .poly import Polynomial, _to_float_scalar, hermite_values


_NODE_CAP = 4_000_000
# the smallest weight kept: below it a float holds fewer than 50 significant bits
_WEIGHT_FLOOR = math.ldexp(1.0, -1024)


class QuadratureRule(namedtuple("QuadratureRule", "dimension axis_nodes axis_weights exact_degree")):
    """A tensor rule: the one-axis nodes (ascending, symmetric under
    negation) and weights (positive, summing to 1), shared by every axis.
    nodes and weights list the tensor rule itself, in itertools.product's
    order (the last axis fastest), as tuples."""

    __slots__ = ()

    @property
    def nodes(self):
        return tuple(itertools.product(self.axis_nodes, repeat=self.dimension))

    @property
    def weights(self):
        return tuple(map(math.prod, itertools.product(self.axis_weights, repeat=self.dimension)))


@functools.lru_cache(maxsize=16)
def gauss_rule(d: int, q: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule with q nodes per axis, exact to degree 2q-1.

    Built once per (d, q) and kept (the 16 latest), so every caller shares
    one rule, whose nodes and weights are tuples.  A q or d at which a
    tensor weight falls below 2^-1024, where it would keep fewer than 50
    significant bits, raises ValueError: in d = 1 from q = 371 on, and in
    d = 2 from about q = 190.  The axis rule is built from its largest
    node down, so such a q is refused after that node alone.
    """
    if q < 1:
        raise ValueError("need at least one point per axis")
    if q**d > _NODE_CAP:
        raise ValueError(f"{q}^{d} nodes exceed the cap of {_NODE_CAP}")
    zeros, weights = [], []
    for z in _positive_zeros(q):
        w = _christoffel(q, z)
        if not math.prod([w] * d) >= _WEIGHT_FLOOR:  # the largest node has the smallest weight
            raise ValueError(
                f"{q} points per axis in d = {d} give weights that are not finite and positive "
                "with at least 50 significant bits"
            )
        zeros.append(z)
        weights.append(w)
    middle = [0.0] if q & 1 else []
    nodes = [-z for z in zeros] + middle + zeros[::-1]
    weights = weights + [_christoffel(q, 0.0) for _ in middle] + weights[::-1]
    total = math.fsum(weights)
    return QuadratureRule(d, tuple(nodes), tuple(w / total for w in weights), 2 * q - 1)


def _positive_zeros(q):
    """The positive zeros of p_q, largest first.  Each is isolated by
    bisection on _count_below, which needs no starting value, and then
    refined by Newton steps kept inside its bracket (_refine_zero), started
    from the spacing of the two zeros above it where that lands inside the
    bracket.  All zeros lie below sqrt(4q + 2)."""
    # (lo, zeros below lo, hi, zeros below hi), the zero at 0 of an odd q counted below 0.0
    stack = [(0.0, q - q // 2, math.sqrt(4 * q + 2), q)]
    above = []
    while stack:
        lo, below_lo, hi, below_hi = stack.pop()
        if below_hi - below_lo == 1:
            guess = 2 * above[-1] - above[-2] if len(above) > 1 else lo
            start = guess if lo < guess < hi else (lo + hi) / 2
            # p_q, of positive leading coefficient, changes sign at each zero above
            above.append(_refine_zero(q, lo, hi, start, len(above) % 2 == 0))
            yield above[-1]
        elif below_hi > below_lo:
            mid = (lo + hi) / 2
            below_mid = _count_below(q, mid)
            stack += [(lo, below_lo, mid, below_mid), (mid, below_mid, hi, below_hi)]


def _count_below(q, t):
    """The number of zeros of p_q below t: the negative pivots of the LDL^T
    factorization of J - t, J the Jacobi matrix with zero diagonal and
    off-diagonal sqrt(1), ..., sqrt(q - 1) (Sylvester's law of inertia)."""
    pivot = -t
    count = pivot < 0
    for k in range(1, q):
        pivot = -t - k / (pivot or 1e-300)
        count += pivot < 0
    return count


def _refine_zero(q, lo, hi, z, rising):
    """The one zero of p_q in [lo, hi], where p_q rises if rising: Newton
    steps z - p_q / p_q', p_q' = sqrt(q) p_{q-1}, from z, each bisecting
    instead where it would leave the bracket that the sign of p_q keeps,
    until a step is below an ulp of z."""
    for _ in range(200):
        prev, cur, _ = _orthonormal(q, z)
        if cur == 0:
            return z
        if (cur > 0) == rising:
            hi = z
        else:
            lo = z
        step = cur / (math.sqrt(q) * prev) if prev else math.inf  # inf: bisect
        if abs(step) <= 2.0**-52 * z:
            return z - step
        z = z - step if lo < z - step < hi else (lo + hi) / 2
    return z


def _orthonormal(q, z):
    """(p_{q-1}(z), p_q(z), e): the orthonormal Hermite polynomials at z,
    both times 2^-e, from sqrt(k + 1) p_{k+1} = z p_k - sqrt(k) p_{k-1}.
    The scale is checked every 32 steps, in which |p_k| grows at most by
    (|z| + 1)^32."""
    roots = _sqrt_pairs(q)
    prev, cur, e = 0.0, 1.0, 0
    for start in range(0, q, 32):
        for a, b in roots[start : start + 32]:
            prev, cur = cur, (z * cur - a * prev) / b
        if abs(cur) > 2.0**480:
            prev, cur, e = math.ldexp(prev, -480), math.ldexp(cur, -480), e + 480
    return prev, cur, e


@functools.lru_cache(maxsize=4)
def _sqrt_pairs(q):
    return tuple((math.sqrt(k), math.sqrt(k + 1)) for k in range(q))


def _christoffel(q, z):
    """The weight 1 / (q p_{q-1}(z)^2) of the node z, of unit total mass,
    scaled back from _orthonormal's 2^-e."""
    prev, _, e = _orthonormal(q, z)
    return math.ldexp(1.0 / (q * prev * prev), -2 * e)


def integrate(f, rule: QuadratureRule):
    """The rule's weighted sum of f, correctly rounded (math.fsum); exact
    for polynomials within rule.exact_degree.  A Polynomial is summed from
    the rule's per-axis moments, sum_nu c_nu prod_j m(nu_j) with m(e) =
    sum_i w_i z_i^e; any other f is called once per node, a tuple."""
    if isinstance(f, Polynomial):
        moments = _axis_moments(rule, max(f.degree, 0))[0]
        terms = [
            _to_float_scalar(c) * math.prod(map(moments.__getitem__, nu)) for nu, c in f.terms.items()
        ]
    else:
        terms = [w * f(z) for z, w in zip(rule.nodes, rule.weights)]
    return _fsum(terms)


def _fsum(terms):
    """The correctly rounded sum of real or complex terms: a float when its
    imaginary part is 0.0, else a complex."""
    re = math.fsum(t.real for t in terms)
    im = math.fsum(t.imag for t in terms)
    return re if im == 0.0 else complex(re, im)


@functools.lru_cache(maxsize=16)
def _axis_moments(rule: QuadratureRule, top, n=0):
    """rows[e][m] = sum_i w_i He_e(z_i) z_i^m over the axis rule, for e <= n
    and m <= top, each correctly rounded: the one-axis factors of the
    tensor rule's sum of He_nu(z) z^mu.  rows[0] are the moments m(e).
    Kept per (rule, top, n), as tuples."""
    he = [hermite_values(z, n) for z in rule.axis_nodes]
    rows = [[] for _ in range(n + 1)]
    for m in range(top + 1):
        weighted = [w * z**m for z, w in zip(rule.axis_nodes, rule.axis_weights)]
        for e, row in enumerate(rows):
            row.append(math.fsum(v * h[e] for v, h in zip(weighted, he)))
    return tuple(map(tuple, rows))


def gaussian_integral(p):
    """integral of the polynomial p against dgamma: sum_nu c_nu gaussian_moment(nu),
    exact on exact coefficients."""
    return sum(c * gaussian_moment(nu) for nu, c in p.terms.items())


def fourier_quadrature(p, y):
    """integral of p(z) e^{-i<y,z>} dgamma(z) for a polynomial p, in closed form.

    Completing the square, it is e^{-|y|^2/2} times the integral of
    p(u - iy) dgamma(u), the Gaussian integral of p shifted to -iy: z^nu
    contributes prod_j h_{nu_j}(-i y_j), the shifted moments of
    poly.hermite_values at variance -1, which are (-i)^e He_e(y_j).
    Evaluated in complex floats.
    """
    y = [float(t) for t in y]
    moments = [hermite_values(-1j * t, max(p.degree, 0), -1) for t in y]
    total = sum(
        complex(c) * math.prod(row[e] for row, e in zip(moments, nu)) for nu, c in p.terms.items()
    )
    return total * math.exp(-sum(t * t for t in y) / 2.0)


def gaussian_moment(nu) -> int:
    """Closed-form dgamma moment of z^nu: product of (e-1)!! over even e, else 0."""
    if any(e % 2 for e in nu):
        return 0
    return math.prod(math.prod(range(e - 1, 0, -2)) for e in nu)


def export_rule_csv(rule: QuadratureRule) -> str:
    header = ",".join(f"z{i + 1}" for i in range(rule.dimension)) + ",weight"
    lines = [header]
    for node, w in zip(rule.nodes, rule.weights):
        coords = ",".join(f"{float(c):.17g}" for c in node)
        lines.append(f"{coords},{float(w):.17g}")
    return "\n".join(lines) + "\n"
