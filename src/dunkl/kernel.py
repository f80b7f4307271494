"""The Gaussian kernel of the intertwining operator, with certified truncation.

For fixed x the kernel is the series of half-heat images of the homogeneous
pieces E_n(x, .),

    L(x, y) = sum_n (e^{-Lap/2} E_n(x, .))(y)
            = sum_nu V(phi_nu)(x) H_nu(y),          phi_nu = x^nu / sqrt(nu!),

two rearrangements of one double sum that differ only in the heat step.
The series path heats E_n(x, .), whose coefficients homogeneous_kernel reads
from the V table, with poly.heat_half.  The Hermite path contracts them with
e^{-Lap/2} y^nu = prod_j He_{nu_j}(y_j), from poly.hermite_values, the one
Hermite recurrence; at many points (lk_grid) it is one block product per
degree of the V table, rounded once.  Against dgamma = (2 pi)^{-d/2}
e^{-|y|^2/2} dy, L represents the composition of the intertwining operator
with the inverse half-heat flow:

    integral L(x, y) (e^{-Lap/2} p)(y) dgamma(y) = V(p)(x),

an exact identity per truncation degree, which the checks in this module
exercise, with L^(N) read at the quadrature nodes from lk_grid, together
with the convolution identity for the generalized exponential, the Fourier
representation, the mixed derivative relation, the group equivariance, and
nonnegativity for nonnegative weights.

Truncation error is controlled by the per-term estimate

    |Lap^m E_n(x, .)(y)| <= c^m / (n-2m)! * u^n |y|^{n-2m},

summed over m and over the discarded degrees n, with (u, c) from
operators.growth_envelope: u = |x| and c = 1 for a real weight k >= 0,
certified for every degree by Roesler's representing measures for V, and
the empirical u = delta_hat |G| |x|, c = d for every other weight
(operators.tail_kind).  The degree-n sum is u^n [t^n] e^{|y| t + c t^2/2};
operators._recurrence_tail seeds the first two discarded terms in logs, runs
their positive three-term recurrence forward, stops with a rigorous
geometric remainder, and rounds the result outward by one relative factor,
so the bound is never below the exact sum of the discarded terms.  The same
bound covers the Taylor remainder of the Gaussian-image check, whose
degree-n part V(T_n)(x) is +-(e^{-Lap/2} E_n(x, .))(y), and the generalized
exponential's tail is its m = 0 case.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .exact import _all_exact, _exact_table, _table_value, abs_squared
from .operators import (
    DunklContext,
    TruncationError,
    _norm,
    _recurrence_tail,
    _vk_monomial,
    _vk_table,
    dunkl_apply,
    evaluate_en,
    growth_envelope,
    homogeneous_kernel,
    intertwine,
    monomial_basis,
)
from .poly import Polynomial, _combine, _multi_factorial, heat_half, hermite_values
from .quad import (
    QuadratureRule,
    _node_values,
    fourier_quadrature,
    gauss_rule,
    gaussian_integral,
    gaussian_moment,
    integrate,
)
from .reflection_groups import act_on_polynomial, mat_vec


# remainder bound for the kernel series truncated after degree n_trunc
TailBound = namedtuple("TailBound", "n_trunc x_norm y_norm value")


class KernelEvaluator:
    """Per-degree tables for one context and truncation degree, from which
    the truncated kernel L^(N)(x, .) is built as a polynomial in y."""

    def __init__(self, ctx: DunklContext, n_trunc):
        self.ctx = ctx
        self.n_trunc = n_trunc
        self._heat_images = {}  # (x, exact, n) -> polynomial in y
        self._tail_cache = {}
        self._blocks = None  # per-degree exponent arrays and V blocks, for lk_grid

    @property
    def dimension(self):
        return self.ctx.dimension


def make_evaluator(ctx: DunklContext, n_trunc, exact_tables=None) -> KernelEvaluator:
    """Fill the context's own exact V table up to the truncation degree.

    Whether a value is exact or a float follows from the point: rational
    points give exact values, float points floats, and lk_grid rounds each
    table entry once.  The heat step needs no table: e^{-Lap/2} y^nu at y is
    prod_j He_{nu_j}(y_j), from per-axis poly.hermite_values.
    exact_tables is ignored; the benchmark harness in bench/ still passes it.
    """
    ctx.prepare(n_trunc)
    for n in range(n_trunc + 1):
        for nu in monomial_basis(ctx.dimension, n):
            _vk_table(ctx, nu)
    return KernelEvaluator(ctx, n_trunc)


def _point_key(x):
    """A cache key for the point x that tells an exact point from a float one
    (Fraction(0.35) == 0.35 and the two hash alike), by the test with which
    homogeneous_kernel picks the exact or the rounded table."""
    return tuple(x), _all_exact(x)


# -- the two evaluation paths ---------------------------------------------------

def heat_image(ev: KernelEvaluator, n, x) -> Polynomial:
    """Series path, degree n: e^{-Lap/2} E_n(x, .) as a polynomial in y."""
    key = (*_point_key(x), n)
    cached = ev._heat_images.get(key)
    if cached is None:
        cached = heat_half(homogeneous_kernel(ev.ctx, n, x))
        ev._heat_images[key] = cached
    return cached


def lk_polynomial(ev: KernelEvaluator, x) -> Polynomial:
    """The truncated kernel L^(N)(x, .) as a polynomial in y (series path)."""
    total = Polynomial.zero(ev.dimension)
    for n in range(ev.n_trunc + 1):
        total = total + heat_image(ev, n, x)
    return total


def lk_series_value(ev: KernelEvaluator, x, y):
    total = 0
    for n in range(ev.n_trunc + 1):
        total = total + heat_image(ev, n, x).evaluate(y)
    return total


def hermite_piece(ev: KernelEvaluator, n, x, y):
    """Hermite path, degree n: the coefficients V(x^nu)(x) / nu! of E_n(x, .)
    contracted with e^{-Lap/2} y^nu = prod_j He_{nu_j}(y_j), so no square
    roots enter."""
    he = [hermite_values(t, n) for t in y]
    total = 0
    for nu, c in homogeneous_kernel(ev.ctx, n, x).terms.items():
        total = total + c * math.prod(h[e] for h, e in zip(he, nu))
    return total


LkValue = namedtuple("LkValue", "value tail")


def lk_eval(ev: KernelEvaluator, x, y, tol=None) -> LkValue:
    """Kernel value along the series path, with its tail bound; rejects
    points whose bound cannot meet tol at this truncation degree."""
    tb = tail_bound(ev, _norm(x), _norm(y))
    if tol is not None and not tb.value < tol:
        raise TruncationError(
            f"tail bound {tb.value:.3g} at |x|={tb.x_norm:.3g} exceeds tol={tol:.3g}; "
            f"certified radius for this tol is {certified_radius(ev, tol, tb.y_norm):.4g}"
        )
    return LkValue(lk_series_value(ev, x, y), tb)


# -- truncation control -----------------------------------------------------------

def tail_bound(ev: KernelEvaluator, x_norm, y_norm, n_trunc=None) -> TailBound:
    if n_trunc is None:
        n_trunc = ev.n_trunc
    key = (n_trunc, x_norm, y_norm, ev.ctx.delta_hat)
    cached = ev._tail_cache.get(key)
    if cached is not None:
        return cached
    u, c = growth_envelope(ev.ctx, x_norm)
    tb = TailBound(n_trunc, x_norm, y_norm, _recurrence_tail(u, y_norm, c, n_trunc))
    ev._tail_cache[key] = tb
    return tb


RADIUS_CAP = 16.0  # certified_radius searches |x| in [0, RADIUS_CAP]


def certified_radius(ev: KernelEvaluator, tol, y_norm) -> float:
    """Largest |x| whose tail bound stays below tol at this truncation."""
    if tail_bound(ev, RADIUS_CAP, y_norm).value < tol:
        return RADIUS_CAP
    lo, hi = 0.0, RADIUS_CAP
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if tail_bound(ev, mid, y_norm).value < tol:
            lo = mid
        else:
            hi = mid
    return lo


# -- integrals against dgamma ---------------------------------------------------------

def lk_mass(ev: KernelEvaluator, x):
    """integral of L^(N)(x, .) dgamma, the series-path polynomial integrated
    from the Gaussian moments; the integral of e^{-Lap/2} E_n(x, .) is
    E_n(x, 0), so the value is 1 up to roundoff, and exactly 1 on exact data."""
    return gaussian_integral(lk_polynomial(ev, x))


def phi_x_apply(ev: KernelEvaluator, x, fs, rule: QuadratureRule) -> list:
    """The extended functional on each f in fs: integral of
    L^(N)(x, y) f(y) dgamma(y) on the rule, for any f, polynomial or not (see
    quad._node_values), with L^(N)(x, .) read at the rule's nodes from
    lk_grid once for all of fs."""
    lk = lk_grid(ev, [x], rule.nodes)[0]
    return [integrate(lambda nodes: lk * _node_values(f, nodes), rule) for f in fs]


def phi_x_norm(ev: KernelEvaluator, x):
    """Norm of the represented functional on L^2(dgamma), by two routes.

    Route 1 sums |c_nu|^2 nu! = |V(phi_nu)(x)|^2 over the coefficients c_nu
    of each E_n(x, .); route 2 integrates L^(N)(x, .) times its conjugate
    from the Gaussian moments, pairing only monomials whose exponents agree
    in parity in every coordinate (the other moments vanish).  At matching
    truncation the routes agree up to roundoff.
    """
    coeff_sq = 0.0
    for n in range(ev.n_trunc + 1):
        for nu, c in homogeneous_kernel(ev.ctx, n, x).terms.items():
            coeff_sq += float(abs_squared(c) * _multi_factorial(nu))
    series_route = math.sqrt(coeff_sq)
    lk = lk_polynomial(ev, x)
    moments = np.array([float(gaussian_moment((e,))) for e in range(2 * lk.degree + 1)])
    classes = {}
    for nu, c in lk.terms.items():
        classes.setdefault(tuple(e & 1 for e in nu), []).append((nu, complex(c)))
    sq = 0.0
    for members in classes.values():
        exps = np.array([nu for nu, _ in members])
        coeffs = np.array([c for _, c in members])
        gram = np.prod(moments[exps[:, None, :] + exps[None, :, :]], axis=2)
        sq += float((coeffs.conj() @ gram @ coeffs).real)
    return series_route, math.sqrt(sq)


# -- identity checks ----------------------------------------------------------------

def convolution_check(ev: KernelEvaluator, x, y):
    """Residual of E(x, y) = integral of L(x, y + u) dgamma(u).

    The right side is integrated on a Gauss-Hermite rule exact to degree N,
    with L^(N)(x, .) read at the shifted nodes from lk_grid, not in closed
    form, which would be heat_half undoing the heat step that built L; the
    residual is truncation tail plus roundoff.
    """
    rule = gauss_rule(ev.dimension, (ev.n_trunc + 2) // 2)
    lhs = 0
    for n in range(ev.n_trunc + 1):
        lhs = lhs + evaluate_en(ev.ctx, n, x, y)
    pts = rule.nodes + np.asarray([float(t) for t in y])[None, :]
    rhs = complex(np.dot(rule.weights, lk_grid(ev, [x], pts)[0]))
    return abs(complex(lhs) - rhs)


def gaussian_taylor(d, y, deg) -> Polynomial:
    """Degree-``deg`` Taylor polynomial T of u -> e^{|y|^2/2} e^{-|u + y|^2/2}.

    The function is e^{-|u|^2/2 - <u, y>}, a product over the coordinates
    of the Hermite generating function e^{z t - t^2/2} =
    sum_n He_n(z) t^n / n!, so the coefficient of u^nu is

        prod_j He_{nu_j}(-y_j) / nu_j!,

    with the probabilists' Hermite values of poly.hermite_values, exact at
    an exact y; as He_n(-z) = (-1)^n He_n(z), T(-u) is the expansion of
    e^{-|u - y|^2/2}.
    The constant Gaussian factor e^{-|y|^2/2} is left out so the coefficients
    stay rational for rational y; callers multiply it back in float.
    """
    factors = [  # factors[j][e] = He_e(-y_j) / e!
        [h * Fraction(1, math.factorial(e)) for e, h in enumerate(hermite_values(-y[j], deg))]
        for j in range(d)
    ]
    terms = {}
    for n in range(deg + 1):
        for nu in monomial_basis(d, n):
            c = factors[0][nu[0]]
            for j in range(1, d):
                c = c * factors[j][nu[j]]
            terms[nu] = c
    return Polynomial(d, terms)


def gaussian_image_check(ev: KernelEvaluator, x, y, taylor_degree=None):
    """Both sign conventions of the Gaussian-image identity.

    Compares V(e^{-|u +- y|^2/2})(x), with the Gaussian expanded as an exact
    Taylor polynomial T and V(T) summed from the V tables as one integer
    table, against e^{-|y|^2/2} L(x, y); V preserves degree, so the minus side
    V(T(-.))(x) is V(T)(-x) and one table serves both, evaluated in integers
    at +-x (x and y rational).  Returns the two residuals and trunc_bound,
    a bound on both truncations: the kernel's tail and the Taylor remainder
    past taylor_degree, which is the same tail_bound (module docstring).  The
    k = 0 closed form arbitrates which convention validates.
    """
    if taylor_degree is None:
        taylor_degree = 2 * ev.n_trunc
    ev.ctx.prepare(max(taylor_degree, ev.n_trunc))
    y_norm = _norm(y)
    window = math.exp(-(y_norm**2) / 2.0)
    rhs = window * complex(lk_series_value(ev, x, y))
    tnums, tden = _exact_table(gaussian_taylor(ev.dimension, y, taylor_degree).terms)
    nums, den = _combine((c, _vk_table(ev.ctx, nu)) for nu, c in tnums.items())
    out = {}
    for label, point in (("plus", x), ("minus", tuple(-t for t in x))):
        out[label] = abs(window * complex(_table_value((nums, den * tden), point)) - rhs)
    x_norm = _norm(x)
    taylor_tail = tail_bound(ev, x_norm, y_norm, taylor_degree).value
    out["trunc_bound"] = window * (taylor_tail + tail_bound(ev, x_norm, y_norm).value)
    return out


def fourier_check(ev: KernelEvaluator, x, y):
    """Both sign conventions of the Fourier representation.

    Compares the transform of e^{-|z|^2/2} E(+-i x, z), the truncated series
    transformed term by term in closed form (quad.fourier_quadrature),
    against e^{-|y|^2/2} L(x, y)."""
    y_norm = _norm(y)
    window = math.exp(-(y_norm**2) / 2.0)
    target = window * complex(lk_series_value(ev, x, y))
    pieces = [
        fourier_quadrature(homogeneous_kernel(ev.ctx, n, x), y) for n in range(ev.n_trunc + 1)
    ]
    out = {}
    for label, c in (("plus", 1j), ("minus", -1j)):
        out[label] = abs(sum(c**n * piece for n, piece in enumerate(pieces)) - target)
    return out


def derivative_relation_check(ev: KernelEvaluator, x, y, j):
    """Both orientations of the mixed derivative relation

        d/dy_j [L(x, y) e^{-|y|^2/2}] = +- T_j^x [L(., y)](x) e^{-|y|^2/2},

    with the y-side differentiated symbolically per term and the x-side
    L(., y) = V(sum_nu He_nu(y) x^nu / nu!) hit with the Dunkl operator
    exactly.
    The orientation follows the same convention fork as the Fourier and
    Gaussian-image identities; the k = 0 closed form singles one out."""
    window = math.exp(-(_norm(y) ** 2) / 2.0)
    deriv = 0
    value = 0
    for n in range(ev.n_trunc + 1):
        g_n = heat_image(ev, n, x)
        deriv = deriv + g_n.partial(j).evaluate(y)
        value = value + g_n.evaluate(y)
    lhs = window * (complex(deriv) - complex(y[j]) * complex(value))
    he = [hermite_values(t, ev.n_trunc) for t in y]
    weights = {
        nu: math.prod(h[e] for h, e in zip(he, nu)) * Fraction(1, _multi_factorial(nu))
        for n in range(ev.n_trunc + 1)
        for nu in monomial_basis(ev.dimension, n)
    }
    q = intertwine(ev.ctx, Polynomial(ev.dimension, weights))
    e_j = tuple(1 if i == j else 0 for i in range(ev.dimension))
    rhs = window * complex(dunkl_apply(ev.ctx, e_j, q).evaluate(x))
    return {"plus": abs(lhs - rhs), "minus": abs(lhs + rhs)}


SymmetryReport = namedtuple("SymmetryReport", "checked failures")


def symmetry_scan(ev: KernelEvaluator, sample_points) -> SymmetryReport:
    """Per-term equivariance and parity of the truncated kernel: exact at
    rational sample points, within 1e-9 at float ones (_polys_match).

    For each sample x, group element g and degree n the heat images satisfy
    (e^{-Lap/2} E_n)(g x, y) = (e^{-Lap/2} E_n)(x, g^{-1} y) as polynomials
    in y, and likewise with (x, y) -> (-x, -y); the half-heat flow commutes
    with orthogonal substitutions so the E_n equivariance passes through.
    """
    group = ev.ctx.group
    failures = []
    checked = 0
    for x in sample_points:
        for n in range(ev.n_trunc + 1):
            base = heat_image(ev, n, x)
            for gi in range(group.order):
                lhs = heat_image(ev, n, mat_vec(group.elements[gi], x))
                rhs = act_on_polynomial(group, group.inverse_index(gi), base)
                checked += 1
                if not _polys_match(lhs, rhs):
                    failures.append(("equivariance", tuple(x), gi, n))
            # p(-x): -I need not be a group element
            lhs = heat_image(ev, n, tuple(-t for t in x))
            rhs = Polynomial(
                ev.dimension, {nu: -c if sum(nu) & 1 else c for nu, c in base.terms.items()}
            )
            checked += 1
            if not _polys_match(lhs, rhs):
                failures.append(("parity", tuple(x), None, n))
    return SymmetryReport(checked, tuple(failures))


def _polys_match(a, b):
    """a == b when every coefficient of both is exact, else within 1e-9 per
    coefficient of a - b: heat images at float points carry roundoff."""
    if _all_exact(a.terms.values()) and _all_exact(b.terms.values()):
        return a.terms == b.terms
    return all(abs(complex(c)) <= 1e-9 for c in (a - b).terms.values())


PositivityReport = namedtuple("PositivityReport", "min_value min_point max_abs_imag max_tail points")


def positivity_scan(ev: KernelEvaluator, xs, ys) -> PositivityReport:
    """Minimum of Re L^(N) - tail over a product grid, plus the largest
    imaginary part (which must vanish for real weights)."""
    values = lk_grid(ev, xs, ys)
    min_value = math.inf
    min_point = None
    max_imag = 0.0
    max_tail = 0.0
    for i, x in enumerate(xs):
        xn = _norm(x)
        for jj, y in enumerate(ys):
            tb = tail_bound(ev, xn, _norm(y))
            val = values[i, jj]
            adjusted = val.real - tb.value
            max_tail = max(max_tail, tb.value)
            max_imag = max(max_imag, abs(val.imag))
            if adjusted < min_value:
                min_value = adjusted
                min_point = (tuple(x), tuple(y))
    return PositivityReport(min_value, min_point, max_imag, max_tail, len(xs) * len(ys))


def _degree_blocks(ev: KernelEvaluator):
    """Per degree n <= N: the exponents of P_n's basis as a (b_n, d) array and
    the b_n x b_n block [x^mu] V(x^nu) / nu! of the V table, rounded once
    (complex where any entry is)."""
    if ev._blocks is None:
        d = ev.dimension
        ev._blocks = []
        for n in range(ev.n_trunc + 1):
            basis = monomial_basis(d, n)
            row = {mu: i for i, mu in enumerate(basis)}
            block = [[0.0] * len(basis) for _ in basis]
            for k, nu in enumerate(basis):
                scale = 1.0 / _multi_factorial(nu)
                for mu, c in _vk_monomial(ev.ctx, nu, rounded=True).terms.items():
                    block[row[mu]][k] = c * scale
            ev._blocks.append((np.array(basis), np.array(block)))
    return ev._blocks


def lk_grid(ev: KernelEvaluator, xs, ys) -> np.ndarray:
    """Hermite-path kernel values on a product grid, one block product per
    degree: the monomials x^mu from per-axis power tables, times the block of
    the V table, times the He_nu(y) = prod_j He_{nu_j}(y_j) from per-axis
    Hermite values (poly.hermite_values)."""
    d = ev.dimension
    xs_arr = np.asarray(xs, dtype=float).reshape(len(xs), d)
    ys_arr = np.asarray(ys, dtype=float).reshape(len(ys), d)
    n_max = ev.n_trunc
    x_pow = np.ones(xs_arr.shape + (n_max + 1,))  # x_pow[p, i, e] = x_i^e
    if n_max:
        x_pow[:, :, 1] = xs_arr
    for e in range(2, n_max + 1):
        x_pow[:, :, e] = x_pow[:, :, e - 1] * xs_arr
    he = np.stack(hermite_values(ys_arr, n_max), axis=-1)  # he[p, j, e] = He_e(y_j)
    out = 0
    axes = range(d)
    for exps, block in _degree_blocks(ev):
        x_mono = np.prod([x_pow[:, i, exps[:, i]] for i in axes], axis=0)  # (nx, b_n)
        he_y = np.prod([he[:, j, exps[:, j]] for j in axes], axis=0)  # (ny, b_n)
        out = out + (x_mono @ block) @ he_y.T
    return out
