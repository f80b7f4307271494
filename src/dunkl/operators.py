"""Dunkl operators and the intertwining operator on polynomials.

For a reflection group G with positive roots R+ and a G-invariant weight k,
the Dunkl operator in direction xi is

    T_xi p = d_xi p + sum_{a in R+} k(a) <a, xi> (p - p o s_a) / <a, x>,

where the difference quotient divides exactly because p - p o s_a vanishes
on the hyperplane <a, x> = 0.  The weighted reflection sum

    A p = sum_{a in R+} k(a) p o s_a

preserves each homogeneous space P_n, and W_n = (n + gamma) - A (with gamma
the sum of the weights over R+) coincides with sum_j x_j T_j on P_n.  When
every W_n is invertible the intertwining operator V is computed degree by
degree from V(1) = 1 and

    V p = H_n( sum_j x_j V(d_j p) ),     H_n = W_n^{-1},  p in P_n,

which makes T_xi V = V d_xi an exact identity of rational polynomials.  H_n
is realized in the group algebra (coefficients lam_n(g) with
H_n = sum_g lam_n(g) L_g; lam_n is a class function, found by one linear
solve with a row per conjugacy class) whenever that system is nonsingular,
with a dense inverse on the monomial basis of P_n as fallback; either way
the composition W_n H_n is verified to be the identity on a basis.  Only
lam_n is kept (h_cache); the verified columns H_n x^nu are built by solve_H
for E_n's degree step alone, and V^{-1} on P_n, the dense inverse of E_n's
columns, is formed per call.

W_n, the columns of H_n and V^{-1}, and E_n's coefficients are tables of
integer numerators (Gaussian integers, ComplexRationals with int parts, for
a complex weight) over one denominator, and T_xi and A read their argument
as one such table, so every sum, difference quotient and check is in
integers; Fraction and ComplexRational coefficients are made only when a
Polynomial leaves this module.

The homogeneous kernel pieces

    E_n(x, y) = (1/n!) V(<., y>^n)(x) = sum_{|nu|=n} e_nu(x) y^nu,   e_nu = V(x^nu) / nu!,

sum to the generalized exponential E(x, y) = V(e^{<., y>})(x); truncation is
controlled by the growth envelope (growth_envelope): u = |x| for a real
weight k >= 0, certified by Roesler's representing measures for V, and the
empirical u = delta_hat |G| |x| for every other weight.  E_n's coefficients
are the one store of V (_e_table): one table per degree, built by
e_nu = H_n(sum_j x_j e_{nu - e_j}), the recursion for V divided by nu!, and
read as it is by _en_table (E_n(x, .) at a point, which every kernel path
starts from), homogeneous_kernel_bivariate, and intertwine and
intertwine_inverse (V(x^nu) = nu! e_nu).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import ComplexRational, SingularMatrixError, _exact_table, _exact_value, solve_columns
from .exact import _numerator, _powers, _read_exact, _table_value, invert_matrix
from .poly import Polynomial, _combination, _combine, _multi_factorial, _polynomial, _weighted
from .poly import _to_float_scalar, combination
from .reflection_groups import act_on_polynomial, dot, mat_vec, monomial_image, reflection_matrix

DEGREE_CAP = 160  # the highest degree a config, option or literal may ask for


class NotInMStarError(ValueError):
    """The weight makes W_n singular on P_n at some degree."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"weight is not admissible: W_n is singular at degree {degree}")


class ExactDivisionError(ArithmeticError):
    """Division by a root pairing left a remainder; signals an internal bug."""


class TruncationError(RuntimeError):
    pass


class DunklContext:
    """One group, positive system and weight, with the tables solved so far.
    name, config and degree are what its config or cache declares
    (config.build_bundle): the cache's file name, the config, and N or the
    cache's degree; prepared_to, the degree solved so far, may pass it."""

    def __init__(self, group, positives, k, reflections, name=None, config=None, degree=0):
        self.group = group
        self.positives = positives
        self.k = k
        self.reflections = reflections  # (alpha, k(alpha), group index)
        self.name = name
        self.config = config
        self.degree = degree
        self.h_cache = {}  # n -> lam_n (one scalar per element), or None
        self.vk_cache = {}  # n -> E_n's coefficients V(x^nu) / nu! as one table (_e_table)
        self.delta_hat = None
        self.delta_table = []
        self.prepared_to = 0

    @property
    def ctx(self):
        """The context itself: bench/worker.py, bench/make_oracle.py and
        bench/tracing.py read .ctx on it until ROADMAP item 9 revises them."""
        return self

    @property
    def dimension(self):
        return self.group.dimension

    @property
    def gamma(self):
        return self.k.gamma

    @property
    def fallback_degrees(self):
        """The solved degrees whose H_n is a dense inverse, not a lam_n table."""
        return sorted(n for n, h in self.h_cache.items() if h is None)

    def prepare(self, n_max):
        """Solve lam_n for every degree up to n_max not yet in h_cache and fill
        the growth table (estimate_delta).  Only at a fallback degree is H_n's
        table built here, to check W_n's admissibility, and it is not kept;
        every reader of lam_n reads h_cache after this."""
        if self.prepared_to >= n_max:
            return self
        estimate_delta(self, n_max)
        self.prepared_to = n_max
        return self


def make_context(group, positives, k, name=None, config=None, degree=0) -> DunklContext:
    refl = []
    for alpha in positives.positives:
        idx = group.element_index(reflection_matrix(alpha))
        refl.append((alpha, k.value(alpha), idx))
    return DunklContext(group, positives, k, tuple(refl), name, config, degree)


# -- the operators -------------------------------------------------------------

def _reflected(group, sidx, table):
    """The table of p o s for s = group.elements[sidx] from p's table: the
    monomial images x^nu o s (monomial_image) weighted by p's numerators."""
    nums, den = table
    image, image_den = _combine((c, monomial_image(group, sidx, nu)) for nu, c in nums.items())
    return image, image_den * den


def divide_by_root_pairing(table, alpha):
    """The table of p / <alpha, x> for the table of p, in integers: terms are
    eliminated level by level in the exponent of a pivot variable whose
    entry of alpha is +-1 (every root of every family has one), so every
    division by the pivot is exact; whatever survives at level zero is the
    remainder, which must be 0."""
    nums, den = table
    pivot = next(i for i, a in enumerate(alpha) if abs(a) == 1)
    apiv = alpha[pivot]
    others = [(j, a) for j, a in enumerate(alpha) if j != pivot and a]
    top = max((nu[pivot] for nu in nums), default=0)
    levels = {}
    for nu, c in nums.items():
        levels.setdefault(nu[pivot], {})[nu] = c
    quotient = {}
    for m in range(top, 0, -1):
        lower = levels.setdefault(m - 1, {})
        for nu, c in levels.get(m, {}).items():
            qnu = nu[:pivot] + (m - 1,) + nu[pivot + 1 :]
            qc = quotient[qnu] = c * apiv  # c / apiv, as apiv is +-1
            for j, aj in others:
                key = qnu[:j] + (qnu[j] + 1,) + qnu[j + 1 :]
                lower[key] = lower.get(key, 0) - qc * aj
    if any(levels.get(0, {}).values()):
        raise ExactDivisionError("difference term not divisible by the root pairing (internal bug)")
    return quotient, den


def _dunkl_table(ctx: DunklContext, xi, table):
    """T_xi on an integer table at an exact xi: d_j p and (p - p o s_a) /
    <a, x> (divide_by_root_pairing) weighted by xi_j and k(a) <a, xi>,
    summed over one denominator (poly._weighted)."""
    nums, den = table
    parts = [
        (({nu[:j] + (nu[j] - 1,) + nu[j + 1 :]: c * nu[j] for nu, c in nums.items() if nu[j]}, den), w)
        for j, w in enumerate(xi)
        if w
    ]
    for alpha, ka, sidx in ctx.reflections:
        pairing = dot(alpha, xi)
        if ka and pairing:
            diff = _combine(((1, table), (-1, _reflected(ctx.group, sidx, table))))
            parts.append((divide_by_root_pairing(diff, alpha), ka * pairing))
    return _weighted(parts)


def dunkl_apply(ctx: DunklContext, xi, p: Polynomial) -> Polynomial:
    """T_xi p, exact, on p's integer table (_dunkl_table).  A float or
    complex coefficient of p or xi is read as its binary value
    (exact._read_exact), and then each coefficient of the exact result is
    rounded once."""
    (xi, rx), (coeffs, rp) = _read_exact(xi), _read_exact(p.terms.values())
    table = _exact_table(dict(zip(p.terms, coeffs)))
    return _polynomial(p.dim, _dunkl_table(ctx, xi, table), rx or rp)


def operator_A(ctx: DunklContext, p: Polynomial) -> Polynomial:
    """A p = sum over positive roots of k(a) * (p o s_a); degree preserving,
    on p's integer table and read like dunkl_apply's."""
    coeffs, rounded = _read_exact(p.terms.values())
    table = _exact_table(dict(zip(p.terms, coeffs)))
    pairs = [(_reflected(ctx.group, sidx, table), ka) for _, ka, sidx in ctx.reflections if ka]
    return _combination(p.dim, pairs, rounded)


def monomial_basis(d, n):
    """Exponent multi-indices of total degree n, lexicographic."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in monomial_basis(d - 1, n - first):
            out.append((first,) + rest)
    return out


def solve_H(ctx: DunklContext, n):
    """Realize H_n = ((n + gamma) - A)^{-1} on P_n and return its table.

    Primary path: solve ((n+gamma) e - a) h = e in the group algebra, where
    a = sum k(a) s_a.  Since a is central, h is a class function, and the
    row identity of each element h,

        (n + gamma) lam(h) - sum_{a in R+} k(a) lam(h s_a) = [h = e],

    depends only on the conjugacy class of h: one row per class gives a
    (#classes) x (#classes) system, solved in integers after scaling by the
    lcm of the denominators of n + gamma and k, whose solution, spread over
    the elements, is lam_n (a tuple of Fractions, or of ComplexRationals
    for a complex weight).  A central element is invertible in the group
    algebra iff it is invertible on the centre, so that system is singular
    exactly when the group-algebra route fails; then W_n is inverted on the
    monomial basis instead, and lam_n is None.  If W_n itself is singular
    the weight is inadmissible at this degree.

    This is the one builder of H_n's table, and it keeps none.  lam_n is
    read from h_cache, where prepare (estimate_delta) or a cache load put it
    from the class system alone, or solved here and recorded there.  The
    columns H_n x^nu, sum_g lam_n(g) x^nu o g or the dense inverse, are
    verified to invert W_n on the monomial basis (_verify_H) and returned
    as one integer table, which E_n's degree step (_e_table) reads.
    """
    if n < 1:
        raise ValueError("H_n is defined for degrees n >= 1")
    w = _w_table(ctx, n)
    lam = ctx.h_cache[n] if n in ctx.h_cache else _class_solve(ctx, n)
    if lam is None:
        try:
            table = _inverse_table(w)
        except SingularMatrixError:
            raise NotInMStarError(n) from None
    else:
        table = _group_columns(ctx, n, lam)
    _verify_H(n, table, w)
    ctx.h_cache[n] = lam
    return table


def _class_solve(ctx, n):
    """lam_n from the class system of solve_H, or None when it is singular."""
    group = ctx.group
    reps = group.class_representatives
    scale = math.lcm(*(c.denominator for _, c in _w_row(ctx, n, group.identity_index)))
    matrix = [[0] * len(reps) for _ in reps]
    for row, h in zip(matrix, reps):
        for g, coeff in _w_row(ctx, n, h):
            row[group.class_of[g]] += _numerator(coeff, scale)
    rhs = [0] * len(reps)
    rhs[group.class_of[group.identity_index]] = scale
    try:
        (sol,), den = solve_columns(matrix, [rhs])
    except SingularMatrixError:
        return None
    values = [_exact_value(c, den) for c in sol]
    return tuple(values[c] for c in group.class_of)


def _w_row(ctx, n, h):
    """The pairs (g, coefficient of lam(g)) in the row identity of element h."""
    yield h, n + ctx.gamma
    for _, ka, sidx in ctx.reflections:
        yield ctx.group.multiply(h, sidx), -ka


# -- integer tables ---------------------------------------------------------------
#
# The columns of a linear map on P_n (W_n, H_n, V^{-1}) are one table (poly's
# integer tables) per degree, ({nu: numerators of M x^nu}, den), and so are
# E_n's coefficients (_e_table).


def _reduced(cols, den):
    """The columns cols over den, both divided by the gcd of den and every
    numerator: a table in lowest terms."""
    if den == 1:
        return cols, den
    parts = [den]
    for nums in cols.values():
        for c in nums.values():
            parts.extend((c.real, c.imag) if isinstance(c, ComplexRational) else (c,))
    g = math.gcd(*parts)
    if g == 1:
        return cols, den
    return {nu: {mu: c // g for mu, c in nums.items()} for nu, nums in cols.items()}, den // g


def _over_one_denominator(basis, tables):
    """The tables, one per basis monomial, as the columns of one table over
    the lcm of their denominators."""
    den = math.lcm(*(d for _, d in tables))
    return {
        nu: nums if d == den else {mu: c * (den // d) for mu, c in nums.items()}
        for nu, (nums, d) in zip(basis, tables)
    }, den


def _group_columns(ctx, n, lam):
    """The columns H_n x^nu = sum_g lam_n(g) x^nu o g on P_n as one table:
    integer sums of the monomial images over the elements with lam_n(g) != 0,
    weighted by lam_n's numerators over their common denominator."""
    group = ctx.group
    lam_den = math.lcm(*(c.denominator for c in lam))
    active = [(g, _numerator(c, lam_den)) for g, c in enumerate(lam) if c]
    nus = monomial_basis(ctx.dimension, n)
    raw = [_combine((w, monomial_image(group, g, nu)) for g, w in active) for nu in nus]
    cols, den = _over_one_denominator(nus, raw)
    return _reduced(cols, den * lam_den)


def _w_table(ctx, n):
    """The columns W_n x^mu = (n + gamma) x^mu - sum_a k(a) x^mu o s_a on P_n
    as one table, from act_on_polynomial's reflection images.  Those are
    H_n's monomial images too (monomial_image, or signed_image, which it
    reads), so _verify_H checks lam_n (or the inverted table) against W_n,
    not two group actions."""
    d = ctx.dimension
    weights = [(n + ctx.gamma, None)] + [(-ka, sidx) for _, ka, sidx in ctx.reflections if ka]
    scale = math.lcm(*(w.denominator for w, _ in weights))
    basis = monomial_basis(d, n)
    images = []
    for mu in basis:
        mono = Polynomial.monomial(d, mu)
        nums, den = _combine(
            (_numerator(w, scale), ({mu: 1}, 1) if sidx is None
             else _exact_table(act_on_polynomial(ctx.group, sidx, mono).terms))
            for w, sidx in weights
        )
        images.append((nums, den * scale))
    return _over_one_denominator(basis, images)


def _inverse_table(images):
    """The table, in lowest terms, of the inverse of the map on P_n whose
    columns are the table images: den times the inverse of the numerator
    matrix (rows index the output monomial).  Raises SingularMatrixError
    when the map is singular."""
    cols, den = images
    basis = list(cols)
    inverse, det = invert_matrix([[cols[nu].get(mu, 0) for nu in basis] for mu in basis])
    scaled = {nu: {mu: c * den for mu, c in zip(basis, col) if c} for nu, col in zip(basis, inverse)}
    return _reduced(scaled, det)


def _verify_H(n, table, w):
    """Check W_n H_n x^nu = x^nu on the basis in integers: with w =
    (wcols, wden) W_n's table, each column c over den must give
    sum_mu c[mu] wcols[mu] = den wden x^nu."""
    cols, den = table
    wcols, wden = w
    for nu in wcols:
        out, _ = _combine((c, (wcols[mu], 1)) for mu, c in cols[nu].items())
        if out != {nu: den * wden}:
            raise NotInMStarError(n)


# -- the intertwining operator -----------------------------------------------------

def _e_table(ctx: DunklContext, n):
    """E_n's coefficients as one table in lowest terms, ({nu: numerators of
    e_nu}, den) with e_nu = V(x^nu) / nu!, kept in ctx.vk_cache; degree m
    from degree m - 1's as e_nu = H_m(sum_j x_j e_{nu - e_j}), the sum
    gathered over the lower den and mapped by the columns of H_m, which
    solve_H builds and checks for this step alone."""
    tables = ctx.vk_cache
    if not tables:
        zero = (0,) * ctx.dimension
        tables[0] = {zero: {zero: 1}}, 1
    for m in range(len(tables), n + 1):
        lower, low_den = tables[m - 1]
        hcols, hden = solve_H(ctx, m)
        cols = {}
        for nu in monomial_basis(ctx.dimension, m):
            acc = {}
            for j, e in enumerate(nu):
                if e:
                    for mu, a in lower[nu[:j] + (e - 1,) + nu[j + 1 :]].items():
                        raised = mu[:j] + (mu[j] + 1,) + mu[j + 1 :]
                        prev = acc.get(raised)
                        acc[raised] = a if prev is None else prev + a
            cols[nu], _ = _combine((c, (hcols[mu], 1)) for mu, c in acc.items() if c)
        tables[m] = _reduced(cols, low_den * hden)
    return tables[n]


def _vk_table(ctx: DunklContext, nu):
    """V(x^nu) = nu! e_nu as a table, from its column of E_n's table."""
    cols, den = _e_table(ctx, sum(nu))
    scale = _multi_factorial(nu)
    return {mu: c * scale for mu, c in cols[nu].items()}, den


def intertwine(ctx: DunklContext, p: Polynomial) -> Polynomial:
    """V p, computed degree by degree; exact and degree preserving."""
    return _combination(p.dim, ((_vk_table(ctx, nu), c) for nu, c in p.terms.items()))


def intertwine_inverse(ctx: DunklContext, q: Polynomial) -> Polynomial:
    """V^{-1} q, one degree n at a time: V's columns nu! e_nu on P_n (E_n's
    table scaled by nu!) against q's degree-n coefficients, one fraction-free
    solve (exact.solve_columns) with a single right side, no inverse formed;
    a float coefficient is read as its binary value and the result rounded
    once.  intertwine o intertwine_inverse = id."""
    coeffs, rounded = _read_exact(q.terms.values())
    parts = {}
    for nu, c in zip(q.terms, coeffs):
        parts.setdefault(sum(nu), {})[nu] = c
    tables = []
    for n, terms in parts.items():
        cols, den = _e_table(ctx, n)
        vk = [_vk_table(ctx, nu)[0] for nu in cols]
        rhs, q_den = _exact_table(terms)
        (sol,), det = solve_columns(
            [[col.get(mu, 0) for col in vk] for mu in cols], [[rhs.get(mu, 0) for mu in cols]]
        )
        tables.append((1, ({nu: c * den for nu, c in zip(cols, sol) if c}, det * q_den)))
    return _polynomial(q.dim, _combine(tables), rounded)


# -- growth estimate -----------------------------------------------------------------

def estimate_delta(ctx: DunklContext, n_max) -> float:
    """delta_hat = max over computed degrees of n * max_g |lam_n(g)|.

    An empirical lower envelope for the growth constant in |lam_n(g)| <=
    delta/n; by construction |lam_n(g)| <= delta_hat/n holds for every
    computed degree, so truncation bounds built from delta_hat are valid on
    the computed range.  Fallback degrees carry no lam table and are
    excluded (ctx.fallback_degrees lists them).  Reads lam_n from h_cache,
    taking each missing degree from the class system alone (_class_solve);
    only where that is singular does solve_H build and check H_n's dense
    inverse here, which is not kept, so an inadmissible weight raises
    NotInMStarError.  Fills ctx.delta_hat and ctx.delta_table and returns
    delta_hat.
    """
    table = []
    for n in range(1, n_max + 1):
        if n not in ctx.h_cache:
            ctx.h_cache[n] = _class_solve(ctx, n)
            if ctx.h_cache[n] is None:
                try:
                    solve_H(ctx, n)
                except NotInMStarError:
                    del ctx.h_cache[n]  # a singular W_n makes no fallback degree
                    raise
        lam = ctx.h_cache[n]
        if lam is not None:
            table.append((n, n * max(abs(complex(c)) for c in lam)))
    ctx.delta_hat = max((row for _, row in table), default=1.0)
    ctx.delta_table = table
    return ctx.delta_hat


# -- homogeneous kernel pieces and the generalized exponential -------------------------

def homogeneous_kernel(ctx: DunklContext, n, x) -> Polynomial:
    """E_n(x, .) as a polynomial in y for fixed numeric x: _en_table's
    coefficients V(x^nu)(x) / nu!, a float coordinate read as its binary
    value (exact._read_exact) and then each coefficient rounded once."""
    x, rounded = _read_exact(x)
    return _polynomial(ctx.dimension, _en_table(ctx, n, x), rounded)


def homogeneous_kernel_bivariate(ctx: DunklContext, n) -> Polynomial:
    """E_n as an exact polynomial in the 2d variables (x_1..x_d, y_1..y_d),
    its coefficients [x^mu] e_nu read from E_n's table."""
    cols, den = _e_table(ctx, n)
    terms = {mu + nu: _exact_value(c, den) for nu, nums in cols.items() for mu, c in nums.items()}
    return Polynomial(2 * ctx.dimension, terms)


def en_expansion_oracle(ctx: DunklContext, n, x) -> Polynomial:
    """E_n(x, .) from the lam tables alone, by the product expansion.

    Unrolling the degree recursion gives

        E_n(x, y) = sum over (g_1..g_n) of
                    prod_i lam_i(g_i) * prod_i <g_i g_{i+1} ... g_n x, y>,

    where the factor at position i carries the degree-i coefficient table
    (the innermost inverse applied is H_n, whose element right-multiplies
    onto x and so appears in every pairing).  The coefficient product obeys
    |prod lam_i(g_i)| <= delta^n / n!.  The tuples are summed by the suffix
    recursion E_m(v, .) = sum_g lam_m(g) <g v, .> E_{m-1}(g v, .), E_0 = 1,
    memoised on (m, v) with v in the orbit of x: O(n |G|^2) polynomial
    products, not |G|^n.  It reads no V table and no column of H_n, only the
    lam tables of degrees 1..n in h_cache, which prepare(n) fills.
    """
    d = ctx.dimension
    group = ctx.group
    tables = [ctx.h_cache[i] for i in range(1, n + 1)]
    if None in tables:
        raise ValueError("expansion oracle needs the group-algebra realization")
    units = monomial_basis(d, 1)
    memo = {}

    def expansion(m, v):
        if m == 0:
            return Polynomial.constant(d, Fraction(1))
        if (m, v) not in memo:
            pairs = []
            for g, lam in enumerate(tables[m - 1]):
                if lam:
                    gv = mat_vec(group.elements[g], v)
                    linear = Polynomial(d, dict(zip(units, gv)))  # <g v, .>
                    pairs.append((linear * expansion(m - 1, gv), lam))
            memo[m, v] = combination(d, pairs)
        return memo[m, v]

    return expansion(n, tuple(x))


KernelValue = namedtuple("KernelValue", "value tail_bound degree_used last_term")


def _norm(v):
    """Euclidean norm of a point with real, complex or exact coordinates,
    without overflow."""
    return math.hypot(*(abs(complex(t)) for t in v))


def _tail_term(u, v, d, n):
    """u^n [t^n] e^{v t + d t^2/2}, in logs.

    The coefficient is sum_m d^m / (2^m m!) v^{n-2m} / (n-2m)!.
    """
    if u == 0.0:
        return 0.0
    log_u_n = n * math.log(u)
    log_d = math.log(d) if d else 0.0
    log_v = math.log(v) if v else 0.0
    log_2 = math.log(2.0)
    total = 0.0
    for m in range(n // 2 + 1 if d else 1):
        r = n - 2 * m
        if v == 0.0 and r > 0:
            continue
        lt = log_u_n + m * log_d - m * log_2 - math.lgamma(m + 1)
        if r > 0:
            lt += r * log_v - math.lgamma(r + 1)
        if lt > 690.0:
            return math.inf
        total += math.exp(lt)
    return total


_TAIL_STEPS = 2000  # recurrence steps before a tail that has not settled reads inf
_EPS = 2.0**-53  # unit roundoff


def _recurrence_tail(u, v, d, n_trunc):
    """sum_{n > n_trunc} a_n, a_n = u^n [t^n] e^{v t + d t^2/2}, for u, v >= 0
    and an integer d >= 0; never below the exact sum.  Every caller passes
    v = |y| and u, with d = c or 0, from growth_envelope(ctx, |x|).

    Since g = e^{v t + d t^2/2} has g' = (v + d t) g, the terms obey the
    positive three-term recurrence a_n = alpha_n a_{n-1} + beta_n a_{n-2}
    with alpha_n = u v / n and beta_n = u^2 d / n, coefficients that
    decrease in n.  The first two discarded terms are seeded in logs
    (_tail_term), so a small u does not underflow, and the recurrence runs
    forward from them: O(n_trunc) for the seeds plus one step per summed
    term.  Once rho = alpha_{n+1} + beta_{n+1} < 1, every later
    term is at most rho times the larger of its two predecessors, so
    consecutive pairs shrink by rho and

        sum_{k > n} a_k <= 2 max(a_n, a_{n-1}) rho / (1 - rho);

    summation stops when that remainder is below 1e-17 of the total, and the
    remainder is added.  A term that is not finite, or a remainder that does
    not settle within _TAIL_STEPS steps, gives inf.

    Rounding is folded in by one relative factor 1 + eps (16 S + n + 9 s + 64),
    eps = 2^-53, with n the second seed's degree, s the number of recurrence
    steps and S >= n (|log u| + |log v| + |log d| + 1) + 2 lgamma(n + 1) a
    bound on the sum of the magnitudes of the parts of a seed's logarithm.
    A seed's logarithm is a sum of at most seven parts, each a correctly
    rounded log times an integer or an lgamma, so its absolute error is below
    16 eps S; summing its n/2 + 1 exponentials adds n/2 eps; a recurrence step
    adds under 8 eps to its term's relative error and its addition to the
    total one more eps; the last 64 eps cover the remainder, which is at most
    1e-17 of the total, and the final product.  So the result is never below
    the tail in exact arithmetic (down to the float underflow threshold).
    """
    if u == 0.0:
        return 0.0
    seed = n = n_trunc + 2
    prev, last = _tail_term(u, v, d, n - 1), _tail_term(u, v, d, n)
    total = prev + last
    if not math.isfinite(total):
        return math.inf
    uv, uud = u * v, u * u * d
    for steps in range(_TAIL_STEPS):
        k = n + 1
        rho = (uv + uud) / k
        if rho < 1.0:
            rest = 2.0 * max(prev, last) * rho / (1.0 - rho)
            if rest <= total * 1e-17:
                break
        prev, last = last, (uv * last + uud * prev) / k
        total += last
        if total == math.inf:
            return math.inf
        n = k
    else:
        return math.inf
    logs = abs(math.log(u)) + (abs(math.log(v)) if v else 0.0) + (math.log(d) if d else 0.0)
    spread = seed * (logs + 1.0) + 2.0 * math.lgamma(seed + 1)
    return (total + rest) * (1.0 + _EPS * (16.0 * spread + seed + 9.0 * steps + 64.0))


def tail_kind(ctx: DunklContext) -> str:
    """"certified" for a real weight k >= 0, where V has probability
    representing measures (Roesler, Duke Math. J. 98, 1999), so every
    discarded degree is bounded; "empirical" otherwise, where the envelope
    extrapolates delta_hat past the computed degrees."""
    return "certified" if ctx.k.is_nonnegative else "empirical"


def growth_envelope(ctx: DunklContext, x_norm):
    """(u, c) with |Lap_y^m E_n(x, .)(y)| <= c^m u^n |y|^{n-2m} / (n-2m)! for
    every n and m, the estimate every truncation bound rests on.

    Certified (tail_kind): V f(x) = integral of f dmu_x with mu_x a
    probability measure on the convex hull of G x, so E_n(x, y) = integral of
    <xi, y>^n / n! dmu_x(xi), and Lap_y^m <xi, y>^n / n! = |xi|^{2m}
    <xi, y>^{n-2m} / (n-2m)! with |xi| <= |x|: u = |x| and c = 1, for complex
    y too.  Empirical: u = delta_hat |G| |x| and c = d, from delta_hat >=
    n max_g |lam_n(g)| on the computed degrees only.
    """
    if tail_kind(ctx) == "certified":
        return x_norm, 1
    if ctx.delta_hat is None:
        raise ValueError("estimate_delta must run before truncation bounds")
    return ctx.delta_hat * ctx.group.order * x_norm, ctx.dimension


def ek_tail_bound(ctx: DunklContext, x_norm, y_norm, n_trunc) -> float:
    """Bound sum_{n > N} u^n |y|^n / n! with u from growth_envelope(ctx, |x|):
    the m = 0 case of its estimate, sum_{n > N} u^n [t^n] e^{|y| t}."""
    return _recurrence_tail(growth_envelope(ctx, x_norm)[0], y_norm, 0, n_trunc)


def dunkl_kernel(ctx: DunklContext, x, y, tol) -> KernelValue:
    """Truncated generalized exponential sum_{n<=N} E_n(x, y) with a certified
    tail bound below tol; N is the smallest degree achieving the bound.  The
    sum is exact at the points' values, a float coordinate read as its binary
    value (exact._read_exact), and rounded once if any coordinate is a float."""
    (x, rx), (y, ry) = _read_exact(x), _read_exact(y)
    x_norm = _norm(x)
    y_norm = _norm(y)
    for n_trunc in range(DEGREE_CAP + 1):
        bound = ek_tail_bound(ctx, x_norm, y_norm, n_trunc)
        if bound < tol:
            break
    else:
        raise TruncationError(
            f"tail bound does not reach {tol} within the degree cap {DEGREE_CAP}"
        )
    total, last = _kernel_sum(ctx, x, y, n_trunc)
    return KernelValue(_to_float_scalar(total) if rx or ry else total, bound, n_trunc, last)


def _kernel_sum(ctx: DunklContext, x, y, n_trunc):
    """(sum_{n <= n_trunc} E_n(x, y), |E_{n_trunc}(x, y)|) at exact points x
    and y: the sum exact, the last term's magnitude a float.  E_n(x, .)'s
    tables for n < n_trunc are joined over one denominator and summed once
    at y; the last term, evaluate_en's value, is added to that sum."""
    head = _combine((1, _en_table(ctx, n, x)) for n in range(n_trunc))
    last = evaluate_en(ctx, n_trunc, x, y)
    return _table_value(head, y) + last, abs(complex(last))


def _en_table(ctx: DunklContext, n, x):
    """E_n(x, .)'s table (nums, den), e_nu(x) = nums[nu] / den, at an exact
    point x = a / q: each monomial a^mu formed once, each column of
    _e_table summed over them, zeros dropped."""
    cols, den = _e_table(ctx, n)
    q = math.lcm(*(t.denominator for t in x))
    powers = _powers([_numerator(t, q) for t in x], n)
    monos = {nu: math.prod(map(list.__getitem__, powers, nu)) for nu in cols}
    out = {}
    for nu, nums in cols.items():
        total = 0
        for mu, c in nums.items():
            total = total + c * monos[mu]
        if total:
            out[nu] = total
    return out, den * q**n


def evaluate_en(ctx: DunklContext, n, x, y):
    """E_n(x, y) = sum_nu V(x^nu)(x) y^nu / nu! at numeric points: E_n(x, .)'s
    table (_en_table) summed at y in integers (exact._table_value), a float
    coordinate read as its binary value and then the sum rounded once."""
    (x, rx), (y, ry) = _read_exact(x), _read_exact(y)
    return _table_value(_en_table(ctx, n, x), y, rx or ry)
