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
same coefficients with e^{-Lap/2} y^nu = prod_j He_{nu_j}(y_j).  At one
point (hermite_piece) it is evaluate_en's sum with the Hermite numerators
of y in place of its powers.  On a grid it is one sum: E_n(x, .)'s
coefficients at the binary value of x, contracted against He(y) one axis
at a time (_contract; sum factorization, Orszag, J. Comput. Phys. 37,
1980) in integers against per-axis Hermite numerators (_grid_sums), each
sum divided once: exact at exact points, rounded once otherwise
(lk_values, which kernel-grid prints), and rounded once by the positivity
scan.  The derivative relation's x side L^(N)(., y) = sum_nu
He_nu(y) e_nu is E_n's columns against y's Hermite numerators, one table in
x that T_j reads.  Against dgamma = (2 pi)^{-d/2} e^{-|y|^2/2} dy, L
represents the composition of the intertwining operator with the inverse
half-heat flow:

    integral L(x, y) (e^{-Lap/2} p)(y) dgamma(y) = V(p)(x),

an exact identity per truncation degree N for deg p <= N.  Its Gaussian
pairings integral L^(N)(x, y) y^mu dgamma(y) are L^(N)(x, .)'s series
table contracted against the integer moments of quad.gaussian_moment
(_gaussian_pairings), so the reconstruction V(e^{Lap/2} p)(x), the unit
mass and the squared norm integral |L^(N)(x, .)|^2 dgamma are exact, with
no rule; phi_x_apply keeps a Gauss-Hermite rule only for integrands that
are not polynomials, the functional's bounded extension.  The checks in
this module also exercise the convolution identity for the generalized
exponential, whose right side integral L^(N)(x, y + u) dgamma(u) is the
flow e^{+Lap/2} summed at y from the shifted moments of poly._heat_axes,
the Gaussian image, the mixed derivative relation, the group equivariance,
and nonnegativity for nonnegative weights.  The Gaussian image of
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
from itertools import accumulate
from operator import mul

from .exact import _EXACT, _exact_table, _exact_value, _read_exact, _rounded_value
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
from .reflection_groups import act_on_polynomial, mat_vec


# remainder bound for the kernel series truncated after degree n_trunc
TailBound = namedtuple("TailBound", "n_trunc x_norm y_norm value")


class KernelEvaluator:
    """One context and truncation degree N, with the caches of the kernel
    paths: the series table of L^(N)(x, .) per exact x, the tail bounds, and
    the layout of the grid sums (_grid_layout)."""

    def __init__(self, ctx: DunklContext, n_trunc):
        self.ctx = ctx
        self.n_trunc = n_trunc
        self._series_tables = {}  # exact x -> the table of L^(N)(x, .) in y
        self._tail_cache = {}
        self._layout = None  # the exponents and runs that _contract reads (_grid_layout)

    @property
    def dimension(self):
        return self.ctx.dimension


def make_evaluator(ctx: DunklContext, n_trunc, exact_tables=None) -> KernelEvaluator:
    """Fill E_n's tables (operators._e_table) up to the truncation degree.

    Whether a value is exact or a float follows from the point: rational
    points give exact values, float points their exact values rounded once.
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
    at (xs[i], ys[j]): _grid_sums' sums, each exact at the points' binary
    values and rounded once if a coordinate is a float."""
    return [[(_rounded_value if r else _exact_value)(s, q) for s, q, r in row]
            for row in _grid_sums(ev, xs, ys)]


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

def _gaussian_pairings(ev: KernelEvaluator, x, mus):
    """(sums, den) with sums[i] / den = integral L^(N)(x, y) y^mu dgamma(y)
    for mu = mus[i], at an exact point x: L^(N)(x, .)'s series table
    (_series_table), in _grid_basis's order, contracted (_contract) against
    the integer rows m(e + mu_j), m(e) = quad.gaussian_moment((e,)), as at
    a grid point mu.  The closed-form moments share no code with the heat
    rows that built the table, so each pairing is exact and an independent
    side of the identities it enters."""
    from .quad import gaussian_moment

    nums, den = _series_table(ev, x)
    basis, runs = _grid_layout(ev)
    top = ev.n_trunc
    exponents = {m for mu in mus for m in mu}
    moments = [gaussian_moment((e,)) for e in range(top + max(exponents, default=0) + 1)]
    rows = {m: moments[m : m + top + 1] for m in exponents}
    return _contract([nums.get(nu, 0) for nu in basis], runs, mus, rows), den


def phi_x_apply(ev: KernelEvaluator, x, fs, rule) -> list:
    """The extended functional integral L^(N)(x, z) f(z) dgamma(z) on each f
    in fs.  A Polynomial f = sum_mu c_mu z^mu is paired exactly:
    sum_mu c_mu s_mu / den over the Gaussian pairings of L^(N)(x, .)
    (_gaussian_pairings), one contraction for the mu of every f in fs, x
    and the coefficients read as exact values (exact._read_exact) and the
    value rounded once if any was a float.  Any other f is the rule's sum
    of L^(N)(x, z) f(z) over its nodes z (quad.integrate), L^(N)(x, .) at
    the nodes the exact grid sums rounded once (lk_values): the bounded
    extension to functions that are not polynomials."""
    from .quad import integrate

    x, rx = _read_exact(x)
    mus = list(dict.fromkeys(mu for f in fs if isinstance(f, Polynomial) for mu in f.terms))
    sums, den = _gaussian_pairings(ev, x, mus) if mus else ([], 1)
    pairing = dict(zip(mus, sums))
    lk = None
    out = []
    for f in fs:
        if isinstance(f, Polynomial):
            coeffs, rc = _read_exact(f.terms.values())
            nums, c_den = _exact_table(dict(zip(f.terms, coeffs)))
            total = sum(c * pairing[mu] for mu, c in nums.items())
            out.append((_rounded_value if rx or rc else _exact_value)(total, den * c_den))
        else:
            if lk is None:
                lk = dict(zip(rule.nodes, lk_values(ev, [x], rule.nodes)[0]))
            out.append(integrate(lambda z: lk[z] * f(z), rule))
    return out


def phi_x_norm(ev: KernelEvaluator, x):
    """Norm of the represented functional on L^2(dgamma), by two routes:
    each the square root of an exact squared norm at the binary value of x,
    rounded once.

    Route 1 sums |c_nu|^2 nu! = |V(phi_nu)(x)|^2 over the coefficients c_nu
    of each E_n(x, .); route 2 is integral |L^(N)(x, .)|^2 dgamma, the
    conjugated coefficients l_mu of L^(N)(x, .)'s series table paired with
    its Gaussian pairings (_gaussian_pairings).  Both read E_n(x, .)'s
    tables joined once (_en_tables), which the series table is heated from;
    the routes are equal rationals at each truncation degree, so they
    return equal floats.
    """
    x = _read_exact(x)[0]
    joined = nums, den = _en_tables(ev, x)
    coeff_sq = sum((c * c.conjugate()).real * _multi_factorial(nu) for nu, c in nums.items())
    series = _series_table(ev, x, joined)[0]
    sums, _ = _gaussian_pairings(ev, x, list(series))
    pair_sq = sum((c.conjugate() * s).real for c, s in zip(series.values(), sums))
    return math.sqrt(coeff_sq / den**2), math.sqrt(pair_sq / den**2)


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
    vanish for real weights).  Each value L^(N)(x, y) is _grid_sums' exact
    sum rounded once, so its rounding error is at most half an ulp.  A NaN
    grid value makes the minimum, or the largest imaginary part, NaN, and
    the minimum stays at the first NaN."""
    y_norms = [_norm(y) for y in ys]
    tails = {}
    min_value, min_point, max_imag, max_tail = math.inf, None, 0.0, 0.0
    for x, row in zip(xs, _grid_sums(ev, xs, ys)):
        xn = _norm(x)
        if xn not in tails:
            tails[xn] = [tail_bound(ev, xn, yn).value for yn in y_norms]
        for y, (s, q, _), tail in zip(ys, row, tails[xn]):
            v = _rounded_value(s, q)
            adjusted = v.real - tail
            if min_value == min_value and (adjusted < min_value or adjusted != adjusted):
                min_value, min_point = adjusted, (tuple(x), tuple(y))
            imag = abs(v.imag)
            if imag > max_imag or imag != imag:  # imag != imag: NaN, which sticks
                max_imag = imag
        max_tail = max(max_tail, max(tails[xn]))
    return PositivityReport(min_value, min_point, max_imag, max_tail, len(xs) * len(ys))


# -- the grid sum: E_n(x, .)'s coefficients, contracted one axis at a time -------

class _Rows(list):
    """lk_grid's rows, with the tolist() of the numpy array they replace."""

    def tolist(self):
        return list(self)


def lk_grid(ev: KernelEvaluator, xs, ys):
    """lk_values' rows as a _Rows.  Nothing in the package calls it: it, _Rows
    and lk_eval are kept for bench/worker.py and bench/tracing.py, which
    read them by name, until the benchmark's next revision (ROADMAP item
    9)."""
    return _Rows(lk_values(ev, xs, ys))


def _grid_sums(ev: KernelEvaluator, xs, ys):
    """Per x in xs, in order, the row [(num, den, rounded)] over ys: num /
    den is L^(N)(x, y) exact at the points' binary values, and rounded
    says whether a coordinate of x or y is a float (exact._read_exact).
    The one grid sum of every kernel value on a grid.  Per x,
    _grid_coefficients contracted (_contract) against integer rows,
    h_e r^{N-e} for a coordinate t = b / r with h_e = r^e He_e(t)
    (poly._heat_axes), each sum over den prod_j r_j^N.  The sums key each distinct coordinate by its
    index, as an int hashes faster than a Fraction.  A generator, so a scan
    holds one row at a time."""
    top = ev.n_trunc
    index = {}  # each distinct coordinate -> its row
    keys = [tuple(index.setdefault(t, len(index)) for t in y) for y in ys]
    rows, scale = [], []
    for t in index:
        (h,), r = _heat_axes(_read_exact((t,))[0], top, -1)
        powers = list(accumulate([r] * top, mul, initial=1))  # r^0, ..., r^N
        rows.append(list(map(mul, h, reversed(powers))))
        scale.append(powers[-1])
    dens = [(math.prod(map(scale.__getitem__, key)), not all(isinstance(t, _EXACT) for t in y))
            for key, y in zip(keys, ys)]
    runs = _grid_layout(ev)[1]
    for x, rx in map(_read_exact, xs):
        coeffs, den = _grid_coefficients(ev, x)
        sums = _contract(coeffs, runs, keys, rows)
        yield [(s, den * q, rx or ry) for s, (q, ry) in zip(sums, dens)]


def _grid_basis(d, n):
    """Every exponent nu in d variables with |nu| <= n, ordered by (nu_d,
    ..., nu_1), so that for each rest = (nu_2, ..., nu_d) the run nu_1 =
    0, ..., n - |rest| is contiguous: the layout _contract reads."""
    basis = [()]
    for _ in range(d):
        basis = [(e,) + rest for rest in basis for e in range(n - sum(rest) + 1)]
    return basis


def _grid_layout(ev: KernelEvaluator):
    """(basis, runs), built once per evaluator: basis is _grid_basis(d, N),
    the order of the coefficients _contract reads, and runs[j] slices the
    runs of nu_{j+1} once axes 1..j are summed out."""
    if ev._layout is None:
        d, top = ev.dimension, ev.n_trunc
        runs = []
        for k in range(d - 1, -1, -1):
            ends = list(accumulate(top - sum(rest) + 1 for rest in _grid_basis(k, top)))
            runs.append([slice(a, b) for a, b in zip([0] + ends, ends)])
        ev._layout = _grid_basis(d, top), runs
    return ev._layout


def _grid_coefficients(ev: KernelEvaluator, x):
    """(numerators, den) of e_nu(x) = V(x^nu)(x) / nu!, |nu| <= N, at an
    exact point x (_en_tables), in _grid_basis's order, 0 where it vanishes."""
    nums, den = _en_tables(ev, x)
    return [nums.get(nu, 0) for nu in _grid_layout(ev)[0]], den


def _contract(coeffs, runs, points, rows):
    """sum_nu coeffs[nu] prod_j rows[t_j][nu_j] at each point t, one axis at
    a time: the runs of nu_1 against the row of t_1, once per distinct t_1,
    then those sums' runs of nu_2 against the row of t_2, once per distinct
    (t_1, t_2), and so on, so a product grid of m^d points costs about m
    sums per monomial (sum factorization), on integer rows and integer or
    Gaussian-integer coefficients.  A run of zeros, as most are on Z2^d at
    a point with zero coordinates, is summed without its products, which
    gives the same zero."""
    partial = {(): coeffs}
    for j, level in enumerate(runs):
        summed = {}
        for t in points:
            key = t[: j + 1]
            if key not in summed:
                vec, row = partial[t[:j]], rows[t[j]]
                summed[key] = [sum(map(mul, run, row)) if any(run) else sum(run)
                               for run in map(vec.__getitem__, level)]
        partial = summed
    return [partial[tuple(t)][0] for t in points]
