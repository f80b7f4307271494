"""The Gaussian kernel of the intertwining operator, with certified truncation.

For fixed x the kernel is the series of half-heat images of the homogeneous
pieces E_n(x, .),

    L(x, y) = sum_n (e^{-Lap/2} E_n(x, .))(y)
            = sum_nu V(phi_nu)(x) H_nu(y),          phi_nu = x^nu / sqrt(nu!),

two rearrangements of one double sum that differ only in the heat step.
Both read E_n's coefficients V(x^nu) / nu!, one integer table per degree
(operators._e_table).  The series path maps E_n(x, .)'s table
(operators._en_table) by the integer heat rows of poly._heat, per degree
and, for L^(N)(x, .), once on every degree's table over one denominator
(_series_table, cached on the exact x).  The Hermite path contracts the
same coefficients with e^{-Lap/2} y^nu = prod_j He_{nu_j}(y_j).  In
integers (hermite_piece, and lk_values, which kernel-grid prints) it is
evaluate_en's sum with the Hermite numerators of y in place of its powers,
exact at the binary values of the points and rounded once; in floats at
many points (lk_grid, which the reconstruction and positivity checks
read) it is E_n's columns e_nu(x) with each table entry rounded once,
contracted against He(y) one axis at a time (sum factorization; Orszag,
J. Comput. Phys. 37, 1980).  The derivative relation's x side L^(N)(., y) = sum_nu
He_nu(y) e_nu is E_n's columns against y's Hermite numerators, one table in
x that T_j reads.  Against dgamma = (2 pi)^{-d/2} e^{-|y|^2/2} dy, L
represents the composition of the intertwining operator with the inverse
half-heat flow:

    integral L(x, y) (e^{-Lap/2} p)(y) dgamma(y) = V(p)(x),

an exact identity per truncation degree, which the checks in this module
exercise, with L^(N) read at the quadrature nodes from lk_grid, together
with the convolution identity for the generalized exponential, the Gaussian
image, the mixed derivative relation, the group equivariance, and
nonnegativity for nonnegative weights.  Each Gaussian integral of
L^(N)(x, .) at a point (the unit mass, and the convolution's right side
integral L^(N)(x, y + u) dgamma(u)) is the flow e^{+Lap/2} summed at that
point from the shifted moments of poly._heat_axes: exact, with no rule.
The Gaussian image of
e^{-|u -+ y|^2/2} is the Hermite sum L^(D)(x, -+y) = sum_{|nu| <= D}
e_nu(x) He_nu(-+y), and the closed-form transform z^nu -> (-i)^{|nu|}
He_nu(y) e^{-|y|^2/2} (quad.fourier_quadrature) turns E(+-ix, .) into the
same sum at +-y: the Fourier representation is the Gaussian image with the
labels exchanged, and has no check of its own.

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

import cmath
import math
from collections import namedtuple
from itertools import accumulate, repeat
from operator import itemgetter, mul

from .exact import _read_exact, _rounded_value
from .exact import _table_sum, _table_value
from .operators import (
    DunklContext,
    TruncationError,
    _dunkl_table,
    _e_table,
    _en_table,
    _norm,
    _recurrence_tail,
    growth_envelope,
)
from .poly import Polynomial, _combine, _heat, _heat_axes, _multi_factorial, _polynomial
from .poly import _to_float_scalar, hermite_values
from .reflection_groups import act_on_polynomial, mat_vec


# remainder bound for the kernel series truncated after degree n_trunc
TailBound = namedtuple("TailBound", "n_trunc x_norm y_norm value")


class KernelEvaluator:
    """One context and truncation degree N, with the caches of the kernel
    paths: the series table of L^(N)(x, .) per exact x, the tail bounds, and
    the float layout of E_n's columns that lk_grid reads."""

    def __init__(self, ctx: DunklContext, n_trunc):
        self.ctx = ctx
        self.n_trunc = n_trunc
        self._series_tables = {}  # exact x -> the table of L^(N)(x, .) in y
        self._tail_cache = {}
        self._layout = None  # E_n's columns rounded once, and their runs (_float_layout)

    @property
    def dimension(self):
        return self.ctx.dimension


def make_evaluator(ctx: DunklContext, n_trunc, exact_tables=None) -> KernelEvaluator:
    """Fill E_n's tables (operators._e_table) up to the truncation degree.

    Whether a value is exact or a float follows from the point: rational
    points give exact values, float points their exact values rounded once;
    lk_grid alone rounds each table entry once and sums in floats.
    exact_tables is ignored: it is kept for bench/worker.py, which passes
    it, until the benchmark's next revision (ROADMAP item 9).
    """
    ctx.prepare(n_trunc)
    _e_table(ctx, n_trunc)
    return KernelEvaluator(ctx, n_trunc)


# -- the two evaluation paths ---------------------------------------------------

def heat_image(ev: KernelEvaluator, n, x) -> Polynomial:
    """Series path, degree n: e^{-Lap/2} E_n(x, .) as a polynomial in y, E_n's
    table heated (poly._heat), exact at the binary value of x and rounded
    once if a coordinate is a float."""
    x, rounded = _read_exact(x)
    return _polynomial(ev.dimension, _heat(_en_table(ev.ctx, n, x), -1), rounded)


def heat_piece(ev: KernelEvaluator, n, x, y):
    """Series path, degree n: (e^{-Lap/2} E_n(x, .))(y), heat_image's table
    summed at y, exact at the points' binary values or rounded once."""
    (x, rx), (y, ry) = _read_exact(x), _read_exact(y)
    return _table_value(_heat(_en_table(ev.ctx, n, x), -1), y, rx or ry)


def _en_tables(ev: KernelEvaluator, x, top=None):
    """E_n(x, .)'s tables of every degree n <= top (default N) at an exact
    point x, over one denominator: the coefficients V(x^nu)(x) / nu!."""
    top = ev.n_trunc if top is None else top
    return _combine((1, _en_table(ev.ctx, n, x)) for n in range(top + 1))


def _series_table(ev: KernelEvaluator, x, joined=None):
    """L^(N)(x, .) at an exact point x as one table in y: _en_tables, or
    joined where the caller has built it, heated once, cached on the point."""
    key = tuple(x)
    if key not in ev._series_tables:
        ev._series_tables[key] = _heat(_en_tables(ev, x) if joined is None else joined, -1)
    return ev._series_tables[key]


def lk_polynomial(ev: KernelEvaluator, x, joined=None) -> Polynomial:
    """The truncated kernel L^(N)(x, .) as a polynomial in y (series path),
    exact at the binary value of x or each coefficient rounded once; joined,
    if the caller has it, is _en_tables at x."""
    x, rounded = _read_exact(x)
    return _polynomial(ev.dimension, _series_table(ev, x, joined), rounded)


def lk_series_value(ev: KernelEvaluator, x, y):
    """L^(N)(x, y) along the series path, its table summed at y in integers,
    exact at the points' binary values or rounded once."""
    (x, rx), (y, ry) = _read_exact(x), _read_exact(y)
    return _table_value(_series_table(ev, x), y, rx or ry)


def hermite_piece(ev: KernelEvaluator, n, x, y):
    """Hermite path, degree n: the coefficients V(x^nu)(x) / nu! of E_n(x, .)
    contracted with e^{-Lap/2} y^nu = prod_j He_{nu_j}(y_j), so no square
    roots enter.  evaluate_en's integer sum with Hermite numerators for the
    powers of y: exact at the points' binary values (exact._read_exact), and
    rounded once if a coordinate is a float."""
    (x, rx), (y, ry) = _read_exact(x), _read_exact(y)
    return _table_sum(_en_table(ev.ctx, n, x), *_heat_axes(y, n, -1), rx or ry)


def lk_values(ev: KernelEvaluator, xs, ys) -> list:
    """Hermite-path kernel values L^(N)(x, y) on a product grid, values[i][j]
    at (xs[i], ys[j]), each exact at the points' binary values and rounded
    once if a coordinate is a float.  Per x, the coefficients V(x^nu)(x) /
    nu! of every degree (_en_table) are put over one denominator once, per
    y the Hermite numerators are formed once, and each pair is then one
    integer sum."""
    sides = [(_heat_axes(y, ev.n_trunc, -1), ry) for y, ry in map(_read_exact, ys)]
    out = []
    for x, rx in map(_read_exact, xs):
        table = _en_tables(ev, x)
        out.append([_table_sum(table, *axes, rx or ry) for axes, ry in sides])
    return out


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
    """integral of L^(N)(x, .) dgamma = (e^{Lap/2} L^(N)(x, .))(0): the series
    table summed against the Gaussian moments (poly._heat_axes at 0) in
    integers.  As the integral of e^{-Lap/2} E_n(x, .) is E_n(x, 0), the
    value is 1, rounded at a float x."""
    x, rounded = _read_exact(x)
    return _table_sum(_series_table(ev, x), *_heat_axes((0,) * len(x), ev.n_trunc, 1), rounded)


def phi_x_apply(ev: KernelEvaluator, x, fs, rule) -> list:
    """The extended functional on each f in fs: the rule's sum of
    L^(N)(x, z) f(z) over its nodes z, for any f, from the coefficients
    e_nu(x) of L^(N)(x, .) = sum_nu e_nu(x) He_nu (_x_coefficients).  For a
    Polynomial f = sum_mu c_mu z^mu the tensor rule's sum factors over the
    axes: c_mu times e_nu(x) prod_j A[nu_j][mu_j], A[e][m] = sum_i w_i
    He_e(z_i) z_i^m over the axis rule (quad._axis_moments), contracted
    like a grid point with the rows of A in place of He(y).  Any other f
    is called once per node against L^(N)(x, .) at the nodes
    (quad.integrate)."""
    from .quad import _axis_moments, _fsum, integrate

    coeffs = _x_coefficients(ev, x)
    runs = _float_layout(ev)[1]
    top = max((max(mu, default=0) for f in fs if isinstance(f, Polynomial) for mu in f.terms), default=0)
    moments = _axis_moments(rule, top, ev.n_trunc)
    rows = {m: [row[m] for row in moments] for m in range(top + 1)}
    lk = None
    out = []
    for f in fs:
        if isinstance(f, Polynomial):
            sums = _contract(coeffs, runs, list(f.terms), rows)
            out.append(_fsum([_to_float_scalar(c) * s for c, s in zip(f.terms.values(), sums)]))
        else:
            if lk is None:
                nodes = rule.nodes
                lk = dict(zip(nodes, _contract(coeffs, runs, nodes, _hermite_rows(ev, nodes))))
            out.append(integrate(lambda z: lk[z] * f(z), rule))
    return out


def phi_x_norm(ev: KernelEvaluator, x):
    """Norm of the represented functional on L^2(dgamma), by two routes.

    Route 1 sums |c_nu|^2 nu! = |V(phi_nu)(x)|^2 over the coefficients c_nu
    of each E_n(x, .), in integers at the binary value of x, and rounds the
    sum once; route 2 integrates L^(N)(x, .) times its conjugate
    from the Gaussian moments, pairing only monomials whose exponents agree
    in parity in every coordinate (the other moments vanish), one row of
    their Gram matrix at a time.  At matching truncation the routes agree
    up to roundoff.
    """
    from .quad import gaussian_moment

    joined = nums, den = _en_tables(ev, _read_exact(x)[0])
    coeff_sq = sum((c * c.conjugate()).real * _multi_factorial(nu) for nu, c in nums.items())
    series_route = math.sqrt(coeff_sq / den**2)
    lk = lk_polynomial(ev, x, joined)
    moments = [float(gaussian_moment((e,))) for e in range(2 * lk.degree + 1)]
    classes = {}
    for nu, c in lk.terms.items():
        classes.setdefault(tuple(e & 1 for e in nu), []).append((nu, complex(c)))
    terms = []
    for members in classes.values():
        coeffs = [c for _, c in members]
        # per axis j and exponent e: m(e + mu_j) over the members mu
        axes = [
            {e: [moments[e + b] for b in column] for e in set(column)}
            for column in zip(*(nu for nu, _ in members))
        ]
        for nu, a in members:
            factors = [axis[e] for axis, e in zip(axes, nu)]
            gram_row = factors[0]  # prod_j m(nu_j + mu_j) over the members mu
            for factor in factors[1:]:
                gram_row = list(map(mul, gram_row, factor))
            terms.append((a.conjugate() * sum(map(mul, gram_row, coeffs))).real)
    return series_route, math.sqrt(math.fsum(terms))


# -- identity checks ----------------------------------------------------------------

def convolution_check(ev: KernelEvaluator, x, y):
    """Residual of E(x, y) = integral of L(x, y + u) dgamma(u), both sides
    exact at the points' binary values (exact._read_exact), from E_n(x, .)'s
    tables joined once (_en_tables).  The left side is sum_nu e_nu(x) y^nu;
    the right side is (e^{Lap/2} L^(N)(x, .))(y), the series table summed
    against the shifted moments of poly._heat_axes, whose recurrence shares
    no code with the heat rows that built the table.  The identity holds
    exactly at each truncation degree, so the residual is 0.0."""
    (x, _), (y, _) = _read_exact(x), _read_exact(y)
    joined = _en_tables(ev, x)
    lhs = _table_value(joined, y)
    rhs = _table_sum(_series_table(ev, x, joined), *_heat_axes(y, ev.n_trunc, 1))
    return abs(complex(lhs - rhs))


def gaussian_image_check(ev: KernelEvaluator, x, y, taylor_degree=None):
    """Both sign conventions of the Gaussian-image identity.

    Compares V(e^{-|u +- y|^2/2})(x) against e^{-|y|^2/2} L(x, y), the
    Gaussian expanded as its Taylor polynomial T of degree D = taylor_degree.
    As e^{-|u|^2/2 - <u, y>} is a product of Hermite generating functions
    e^{z t - t^2/2} = sum_n He_n(z) t^n / n!, T's coefficient of u^nu is
    He_nu(-y) / nu!, so V(T)(+-x) = sum_{n <= D} (+-1)^n sum_nu e_nu(x)
    He_nu(-y), e_nu = V(x^nu) / nu!; the minus side V(T(-.))(x) is V(T)(-x),
    as V preserves degree.  At x and y read as exact values, E_n(x, .)'s
    tables up to degree max(D, N) are joined once: the even and odd degrees
    up to D against the Hermite numerators of -y (exact._table_sum) give
    both sides, and the degrees up to N are L^(N)(x, .)'s series table,
    which L(x, y) is read from.  At k = 0, where V is the identity, L(x, y)
    is read from its closed form e^{<x, y> - |x|^2/2} instead, so the sums
    are not compared with a truncation of themselves.  Returns the two
    residuals and trunc_bound, a bound on both truncations: the kernel's
    tail and the Taylor remainder past taylor_degree, which is the same
    tail_bound (module docstring).  The k = 0 closed form arbitrates which
    convention validates.
    """
    n_trunc = ev.n_trunc
    if taylor_degree is None:
        taylor_degree = 2 * n_trunc
    top = max(taylor_degree, n_trunc)
    ev.ctx.prepare(top)
    x_norm, y_norm = _norm(x), _norm(y)
    window = math.exp(-(y_norm**2) / 2.0)
    (x, _), (y, _) = _read_exact(x), _read_exact(y)
    nums, den = _en_tables(ev, x, top)
    series = nums if top == n_trunc else {nu: c for nu, c in nums.items() if sum(nu) <= n_trunc}
    table = _series_table(ev, x, (series, den))  # derivative_relation_check reads it too
    if ev.ctx.k.is_zero:
        lk = cmath.exp(complex(sum(a * b for a, b in zip(x, y)) - sum(a * a for a in x) / 2))
    else:
        lk = complex(_table_value(table, y))
    rhs = window * lk
    parity = {}, {}
    for nu, c in nums.items():
        if (n := sum(nu)) <= taylor_degree:
            parity[n & 1][nu] = c
    axes = _heat_axes([-t for t in y], taylor_degree, -1)
    even, odd = (_table_sum((part, den), *axes) for part in parity)
    out = {}
    for label, value in (("plus", even + odd), ("minus", even - odd)):
        out[label] = abs(window * complex(value) - rhs)
    taylor_tail = tail_bound(ev, x_norm, y_norm, taylor_degree).value
    out["trunc_bound"] = window * (taylor_tail + tail_bound(ev, x_norm, y_norm).value)
    return out


def _lk_x_table(ev: KernelEvaluator, y):
    """L^(N)(., y) = sum_nu He_nu(y) e_nu at an exact point y = b / r as one
    table in x: E_n's columns e_nu = V(x^nu) / nu! (operators._e_table)
    weighted by y's Hermite numerators (poly._heat_axes), He_nu(y) =
    prod_j h_{nu_j} r^{N-|nu|} / r^N, over den_n r^N and joined by
    poly._combine.  It is V(sum_nu He_nu(y) x^nu / nu!), with no nu! put on
    a column and taken off again."""
    n_trunc = ev.n_trunc
    axes, r = _heat_axes(y, n_trunc, -1)
    r_top = r**n_trunc
    pairs = []
    for n in range(n_trunc + 1):
        cols, den = _e_table(ev.ctx, n)
        scale = r ** (n_trunc - n)
        for nu, nums in cols.items():
            w = math.prod(map(list.__getitem__, axes, nu))
            if w:
                pairs.append((w * scale, (nums, den * r_top)))
    return _combine(pairs)


def derivative_relation_check(ev: KernelEvaluator, x, y, j):
    """Both orientations of the mixed derivative relation

        d/dy_j [L(x, y) e^{-|y|^2/2}] = +- T_j^x [L(., y)](x) e^{-|y|^2/2},

    x and y read once as exact values (exact._read_exact), a float
    coordinate as its binary value.  The y side differentiates the series
    table of L^(N)(x, .) on its numerators.  The x side is E_n's columns
    against y's Hermite numerators (_lk_x_table), the table of L^(N)(., y),
    hit by the Dunkl operator on that table (operators._dunkl_table) and
    summed at x; each side is exact until it is rounded once.
    The orientation follows the same convention fork as the Fourier and
    Gaussian-image identities; the k = 0 closed form singles one out."""
    window = math.exp(-(_norm(y) ** 2) / 2.0)
    (x, _), (y, _) = _read_exact(x), _read_exact(y)
    nums, den = _series_table(ev, x)
    deriv = {nu[:j] + (nu[j] - 1,) + nu[j + 1 :]: c * nu[j] for nu, c in nums.items() if nu[j]}
    lhs = window * complex(_table_value((deriv, den), y) - y[j] * _table_value((nums, den), y))
    e_j = tuple(1 if i == j else 0 for i in range(ev.dimension))
    rhs = window * complex(_table_value(_dunkl_table(ev.ctx, e_j, _lk_x_table(ev, y)), x))
    return {"plus": abs(lhs - rhs), "minus": abs(lhs + rhs)}


SymmetryReport = namedtuple("SymmetryReport", "checked failures")


def symmetry_scan(ev: KernelEvaluator, sample_points) -> SymmetryReport:
    """Per-term equivariance and parity of the truncated kernel, compared
    exactly: a float sample is read as its binary value (exact._read_exact).

    For each sample x, group element g and degree n the heat images satisfy
    (e^{-Lap/2} E_n)(g x, y) = (e^{-Lap/2} E_n)(x, g^{-1} y) as polynomials
    in y, and likewise with (x, y) -> (-x, -y); the half-heat flow commutes
    with orthogonal substitutions so the E_n equivariance passes through.
    The heat image at each distinct point is formed once per degree.
    """
    group = ev.ctx.group
    failures = []
    checked = 0
    for sample in sample_points:
        x = tuple(_read_exact(sample)[0])
        moved = [mat_vec(g, x) for g in group.elements]
        minus = tuple(-t for t in x)  # p(-x): -I need not be a group element
        for n in range(ev.n_trunc + 1):
            images = {p: heat_image(ev, n, p) for p in dict.fromkeys((x, *moved, minus))}
            base = images[x]
            for gi, point in enumerate(moved):
                rhs = act_on_polynomial(group, group.inverse_index(gi), base)
                checked += 1
                if images[point] != rhs:
                    failures.append(("equivariance", tuple(sample), gi, n))
            lhs = images[minus]
            rhs = Polynomial(
                ev.dimension, {nu: -c if sum(nu) & 1 else c for nu, c in base.terms.items()}
            )
            checked += 1
            if lhs != rhs:
                failures.append(("parity", tuple(sample), None, n))
    return SymmetryReport(checked, tuple(failures))


PositivityReport = namedtuple("PositivityReport", "min_value min_point max_abs_imag max_tail points")


def positivity_scan(ev: KernelEvaluator, xs, ys) -> PositivityReport:
    """Minimum of Re L^(N) - tail over a product grid, at the first pair in
    row order that reaches it, plus the largest imaginary part (which must
    vanish for real weights); a NaN grid value makes the minimum, or the
    largest imaginary part, NaN, and the minimum stays at the first NaN."""
    values = lk_grid(ev, xs, ys)
    y_norms = [_norm(y) for y in ys]
    tails = {}
    min_value, min_point, max_imag, max_tail = math.inf, None, 0.0, 0.0
    for x, row in zip(xs, values):
        xn = _norm(x)
        if xn not in tails:
            tails[xn] = [tail_bound(ev, xn, yn).value for yn in y_norms]
        for y, v, tail in zip(ys, row, tails[xn]):
            adjusted = v.real - tail
            if min_value == min_value and (adjusted < min_value or adjusted != adjusted):
                min_value, min_point = adjusted, (tuple(x), tuple(y))
            imag = abs(v.imag)
            if imag > max_imag or imag != imag:  # imag != imag: NaN, which sticks
                max_imag = imag
        max_tail = max(max_tail, max(tails[xn]))
    return PositivityReport(min_value, min_point, max_imag, max_tail, len(xs) * len(ys))


# -- the float layer: E_n's columns rounded once, summed one axis at a time ------

class _Rows(list):
    """lk_grid's rows, with the tolist() of the numpy array they replace:
    bench/worker.py reads the result that way until the benchmark's next
    revision (ROADMAP item 9)."""

    def tolist(self):
        return list(self)


def lk_grid(ev: KernelEvaluator, xs, ys):
    """Hermite-path kernel values L^(N)(x, y) in floats, rows[i][j] at
    (xs[i], ys[j]): per x, E_n's columns e_nu(x) from table entries each
    rounded once (_x_coefficients), contracted against He_e(y_j)
    (poly.hermite_values) one axis at a time (_contract), which shares the
    work of the y points that agree in their first coordinates.  lk_values
    gives the exact sums, rounded once."""
    ys = [tuple(map(float, y)) for y in ys]
    rows = _hermite_rows(ev, ys)
    runs = _float_layout(ev)[1]
    return _Rows(_contract(_x_coefficients(ev, x), runs, ys, rows) for x in xs)


def _grid_basis(d, n):
    """Every exponent nu in d variables with |nu| <= n, ordered by (nu_d,
    ..., nu_1), so that for each rest = (nu_2, ..., nu_d) the run nu_1 =
    0, ..., n - |rest| is contiguous: the layout _contract reads."""
    basis = [()]
    for _ in range(d):
        basis = [(e,) + rest for rest in basis for e in range(n - sum(rest) + 1)]
    return basis


def _float_layout(ev: KernelEvaluator):
    """(columns, runs, order), built once per evaluator.  order lists the
    positions in _grid_basis of the monomials x^mu, degree by degree in the
    order of E_n's table, and columns, in _grid_basis's order of nu, holds
    for E_n's column e_nu = V(x^nu) / nu! (operators._e_table) a getter of
    its monomials from that list and its entries c / den, each rounded
    once (exact._rounded_value).  A column that meets every monomial of its
    degree, as on A and G2, reads them as one slice.  runs[j] slices the
    runs of nu_{j+1} once axes 1..j are summed out."""
    if ev._layout is None:
        d, top = ev.dimension, ev.n_trunc
        basis = _grid_basis(d, top)
        where = {nu: i for i, nu in enumerate(basis)}
        tables = [_e_table(ev.ctx, n) for n in range(top + 1)]
        order = [where[mu] for cols, _ in tables for mu in cols]
        at = {basis[i]: k for k, i in enumerate(order)}
        columns = [None] * len(basis)
        start = 0
        for cols, den in tables:
            keys = list(cols)
            degree = itemgetter(slice(start, start + len(keys)))
            for nu, nums in cols.items():
                if len(nums) == len(keys):  # every monomial of the degree, in keys' order
                    take, entries = degree, map(nums.__getitem__, keys)
                else:
                    spots = list(map(at.__getitem__, nums))
                    take = itemgetter(*spots) if len(spots) > 1 else itemgetter(slice(spots[0], spots[0] + 1))
                    entries = nums.values()
                columns[where[nu]] = take, list(map(_rounded_value, entries, repeat(den)))
            start += len(keys)
        runs = []
        for k in range(d - 1, -1, -1):
            ends = list(accumulate(top - sum(rest) + 1 for rest in _grid_basis(k, top)))
            runs.append([slice(a, b) for a, b in zip([0] + ends, ends)])
        ev._layout = columns, runs, order
    return ev._layout


def _x_coefficients(ev: KernelEvaluator, x):
    """e_nu(x) = sum_mu [x^mu] e_nu x^mu in floats for every nu of
    _grid_basis, in its order: per column, its rounded entries against its
    monomials of x in one C-level sum(map(mul, ...)).  The monomials are
    formed a coordinate at a time from the last, each run of powers of x_j
    scaled by a monomial of the later coordinates, and then put in the
    layout's order."""
    top = ev.n_trunc
    columns, _, order = _float_layout(ev)
    mono, degrees = [1.0], [0]
    for t in reversed(x):
        powers = list(accumulate([float(t)] * top, mul, initial=1.0))
        mono = [v * p for v, deg in zip(mono, degrees) for p in powers[: top - deg + 1]]
        degrees = [deg + e for deg in degrees for e in range(top - deg + 1)]
    mono = list(map(mono.__getitem__, order))
    return [sum(map(mul, vals, take(mono))) for take, vals in columns]


def _hermite_rows(ev: KernelEvaluator, points):
    """He_0(t), ..., He_N(t) for every coordinate t of the points."""
    return {t: hermite_values(t, ev.n_trunc) for t in {t for p in points for t in p}}


def _contract(coeffs, runs, points, rows):
    """sum_nu coeffs[nu] prod_j rows[t_j][nu_j] at each point t, one axis at
    a time: the runs of nu_1 against the row of t_1, once per distinct t_1,
    then those sums' runs of nu_2 against the row of t_2, once per distinct
    (t_1, t_2), and so on, so a product grid of m^d points costs about m
    sums per monomial (sum factorization)."""
    partial = {(): coeffs}
    for j, level in enumerate(runs):
        summed = {}
        for t in points:
            key = t[: j + 1]
            if key not in summed:
                vec, row = partial[t[:j]], rows[t[j]]
                summed[key] = [sum(map(mul, vec[s], row)) for s in level]
        partial = summed
    return [partial[tuple(t)][0] for t in points]
