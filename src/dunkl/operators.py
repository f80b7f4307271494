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
the composition W_n H_n is verified to be the identity on a basis.  The
verified columns H_n x^nu are kept on the context, and H_n is applied to a
polynomial through them; V^{-1} on P_n, a dense inverse too, likewise.

W_n, the columns of H_n and V^{-1} and each V(x^nu) are tables of integer
numerators (pairs of integers for a complex weight) over one denominator,
so every sum and check on them is in integers; Fraction and ComplexRational
coefficients are made only when a Polynomial leaves this module.

The homogeneous kernel pieces

    E_n(x, y) = (1/n!) V(<., y>^n)(x) = sum_{|nu|=n} V(x^nu)(x) y^nu / nu!

sum to the generalized exponential E(x, y) = V(e^{<., y>})(x); truncation is
controlled by the growth envelope (growth_envelope): u = |x| for a real
weight k >= 0, certified by Roesler's representing measures for V, and the
empirical u = delta_hat |G| |x| for every other weight.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import SingularMatrixError, _all_exact, _denominator, _exact_table, _exact_value
from .exact import _Gaussian, _numerator, _powers, invert_matrix, solve_columns
from .poly import Polynomial, _combination, _combine, _multi_factorial, _polynomial, _rounded_value
from .poly import combination, directional_derivative
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
    def __init__(self, group, positives, k, reflections):
        self.group = group
        self.positives = positives
        self.k = k
        self.reflections = reflections  # (alpha, k(alpha), group index)
        self.h_cache = {}  # n -> lam_n (one scalar per element), or None
        self.vk_cache = {}  # nu -> V(x^nu) as a table
        self.inverse_cache = {}  # n -> table of the columns V^{-1} x^nu
        self.h_columns = {}  # n -> table of the columns H_n x^nu
        self.delta_hat = None
        self.delta_table = []
        self.prepared_to = 0

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
        """Fill the degree caches and the growth table up to n_max
        (estimate_delta solves every degree not yet in h_cache)."""
        if self.prepared_to >= n_max:
            return self
        estimate_delta(self, n_max)
        self.prepared_to = n_max
        return self


def make_context(group, positives, k) -> DunklContext:
    refl = []
    for alpha in positives.positives:
        idx = group.element_index(reflection_matrix(alpha))
        refl.append((alpha, k.value(alpha), idx))
    return DunklContext(group, positives, k, tuple(refl))


# -- the operators -------------------------------------------------------------

def divide_by_root_pairing(p: Polynomial, alpha):
    """Exact division of p by the linear form <alpha, x>.

    Terms are eliminated level by level in the exponent of a pivot variable;
    whatever survives at level zero is the remainder.  An exact remainder
    coefficient must be 0; a float or complex one may be up to 1e-10 times
    the largest coefficient of p (at least 1), so float data divide too.
    """
    d = p.dim
    pivot = next(i for i, a in enumerate(alpha) if a != 0)
    apiv = alpha[pivot]
    levels = {}
    for nu, c in p.terms.items():
        levels.setdefault(nu[pivot], {})[nu] = c
    if not levels:
        return Polynomial.zero(d)
    quotient = {}
    for m in range(max(levels), 0, -1):
        for nu, c in list(levels.get(m, {}).items()):
            if not c:
                continue
            qc = c / apiv
            qnu = nu[:pivot] + (m - 1,) + nu[pivot + 1 :]
            quotient[qnu] = quotient.get(qnu, 0) + qc
            lower = levels.setdefault(m - 1, {})
            for j, aj in enumerate(alpha):
                if j == pivot or aj == 0:
                    continue
                key = qnu[:j] + (qnu[j] + 1,) + qnu[j + 1 :]
                lower[key] = lower.get(key, 0) - qc * aj
    residue = [c for c in levels.get(0, {}).values() if c]
    if residue:
        tol = 1e-10 * max([1.0] + [abs(complex(c)) for c in p.terms.values()])
        if any(not isinstance(c, (float, complex)) or abs(c) > tol for c in residue):
            raise ExactDivisionError(
                "difference term not divisible by the root pairing (internal bug)"
            )
    return Polynomial(d, quotient)


def dunkl_apply(ctx: DunklContext, xi, p: Polynomial) -> Polynomial:
    """T_xi p."""
    out = directional_derivative(xi, p)
    for alpha, ka, sidx in ctx.reflections:
        if ka == 0:
            continue
        pairing = dot(alpha, xi)
        if pairing == 0:
            continue
        diff = p - act_on_polynomial(ctx.group, sidx, p)
        if not diff:
            continue
        out = out + divide_by_root_pairing(diff, alpha) * (ka * pairing)
    return out


def operator_A(ctx: DunklContext, p: Polynomial) -> Polynomial:
    """A p = sum over positive roots of k(a) * (p o s_a); degree preserving."""
    return combination(
        p.dim, ((act_on_polynomial(ctx.group, sidx, p), ka) for _, ka, sidx in ctx.reflections if ka)
    )


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
    """Realize H_n = ((n + gamma) - A)^{-1} on P_n and return lam_n.

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

    This is the one builder of H_n's table, on first use, whether lam_n is
    solved here or was solved when a cache was loaded.  Either way the
    columns H_n x^nu are verified to invert W_n on the monomial basis and
    kept in h_columns as one integer table.
    """
    if n < 1:
        raise ValueError("H_n is defined for degrees n >= 1")
    if n in ctx.h_columns:
        return ctx.h_cache[n]
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
    ctx.h_columns[n] = table
    ctx.h_cache[n] = lam
    return lam


def _class_solve(ctx, n):
    """lam_n from the class system of solve_H, or None when it is singular."""
    group = ctx.group
    reps = group.class_representatives
    scale = math.lcm(*(_denominator(c) for _, c in _w_row(ctx, n, group.identity_index)))
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
# integer tables) per degree, ({nu: numerators of M x^nu}, den), and each
# V(x^nu) is a table of its own.


def _reduced(cols, den):
    """The columns cols over den, both divided by the gcd of den and every
    numerator: a table in lowest terms."""
    if den == 1:
        return cols, den
    parts = [den]
    for nums in cols.values():
        for c in nums.values():
            parts.extend((c.re, c.im) if isinstance(c, _Gaussian) else (c,))
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
    weighted by lam_n's numerators over their common denominator.  Summing
    in element order keeps each column's terms in the order that a
    Polynomial combination over the elements gives them, and with it the
    order, and so the float rounding, of every sum that evaluates V."""
    group = ctx.group
    lam_den = math.lcm(*(_denominator(c) for c in lam))
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
    scale = math.lcm(*(_denominator(w) for w, _ in weights))
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


def apply_H(ctx: DunklContext, n, p: Polynomial) -> Polynomial:
    """H_n p for p in P_n, as the sum of p's coefficients times the columns."""
    solve_H(ctx, n)
    cols, den = ctx.h_columns[n]
    return _combination(p.dim, (((cols[nu], den), c) for nu, c in p.terms.items()))


# -- the intertwining operator -----------------------------------------------------

def _vk_table(ctx: DunklContext, nu):
    """V(x^nu) as a table, from sum_j x_j V(d_j x^nu) = sum_j nu_j x_j
    V(x^(nu - e_j)) gathered over the lcm of the lower denominators and
    mapped by the columns of H_n."""
    cached = ctx.vk_cache.get(nu)
    if cached is not None:
        return cached
    n = sum(nu)
    if n == 0:
        result = {nu: 1}, 1
    else:
        lower = []
        for j, e in enumerate(nu):
            if e:
                lower.append((j, e, _vk_table(ctx, nu[:j] + (e - 1,) + nu[j + 1 :])))
        den = math.lcm(*(table[1] for _, _, table in lower))
        acc = {}
        for j, e, (nums, low) in lower:
            s = e if low == den else e * (den // low)
            for mu, a in nums.items():
                raised = mu[:j] + (mu[j] + 1,) + mu[j + 1 :]
                prev = acc.get(raised)
                acc[raised] = a * s if prev is None else prev + a * s
        solve_H(ctx, n)
        cols, cden = ctx.h_columns[n]
        nums, _ = _combine((c, (cols[mu], cden)) for mu, c in acc.items() if c)
        reduced, den = _reduced({nu: nums}, den * cden)
        result = reduced[nu], den
    ctx.vk_cache[nu] = result
    return result


def _vk_monomial(ctx: DunklContext, nu, rounded=False):
    """V(x^nu) as a Polynomial: exact, or with each coefficient rounded once."""
    return _polynomial(ctx.dimension, _vk_table(ctx, nu), rounded)


def intertwine(ctx: DunklContext, p: Polynomial) -> Polynomial:
    """V p, computed degree by degree; exact and degree preserving."""
    return _combination(p.dim, ((_vk_table(ctx, nu), c) for nu, c in p.terms.items()))


def intertwine_inverse(ctx: DunklContext, q: Polynomial) -> Polynomial:
    """V^{-1} q, through the table of V^{-1}'s columns on each P_n (V is the
    identity on P_0); intertwine o intertwine_inverse = id."""
    pairs = []
    for nu, c in q.terms.items():
        n = sum(nu)
        table = ({nu: {nu: 1}}, 1) if n == 0 else ctx.inverse_cache.get(n)
        if table is None:
            basis = monomial_basis(q.dim, n)
            images = _over_one_denominator(basis, [_vk_table(ctx, mu) for mu in basis])
            table = ctx.inverse_cache[n] = _inverse_table(images)
        cols, den = table
        pairs.append(((cols[nu], den), c))
    return _combination(q.dim, pairs)


# -- growth estimate -----------------------------------------------------------------

def estimate_delta(ctx: DunklContext, n_max) -> float:
    """delta_hat = max over computed degrees of n * max_g |lam_n(g)|.

    An empirical lower envelope for the growth constant in |lam_n(g)| <=
    delta/n; by construction |lam_n(g)| <= delta_hat/n holds for every
    computed degree, so truncation bounds built from delta_hat are valid on
    the computed range.  Fallback degrees carry no lam table and are
    excluded (ctx.fallback_degrees lists them).  Reads lam_n from h_cache,
    solving only the degrees that have none yet.  Fills ctx.delta_hat and
    ctx.delta_table and returns delta_hat.
    """
    table = []
    for n in range(1, n_max + 1):
        lam = ctx.h_cache[n] if n in ctx.h_cache else solve_H(ctx, n)
        if lam is not None:
            table.append((n, n * max(abs(complex(c)) for c in lam)))
    ctx.delta_hat = max((row for _, row in table), default=1.0)
    ctx.delta_table = table
    return ctx.delta_hat


# -- homogeneous kernel pieces and the generalized exponential -------------------------

def homogeneous_kernel(ctx: DunklContext, n, x) -> Polynomial:
    """E_n(x, .) as a polynomial in y for fixed numeric x: each V(x^nu)(x) / nu!
    summed from its table over the per-axis powers of x, formed once; in
    integers over den q^n nu! at an exact x = a / q, else on entries rounded
    once and multiplied in the order of Polynomial.evaluate's float loop, so
    bit for bit the rounded table's value."""
    exact = _all_exact(x)
    if exact:
        q = math.lcm(*(_denominator(t) for t in x))
        x = [_numerator(t, q) for t in x]
    powers = _powers(x, n)
    basis = monomial_basis(ctx.dimension, n)
    factors = {mu: [powers[i][e] for i, e in enumerate(mu) if e] for mu in basis}
    terms = {}
    for nu in basis:
        nums, den = _vk_table(ctx, nu)
        total = 0
        for mu, c in nums.items():
            v = c if exact else _rounded_value(c, den)
            for p in factors[mu]:
                v = v * p
            total = total + v
        if total:
            scale = _multi_factorial(nu)
            terms[nu] = _exact_value(total, den * q**n * scale) if exact else total * Fraction(1, scale)
    return Polynomial(ctx.dimension, terms)


def homogeneous_kernel_bivariate(ctx: DunklContext, n) -> Polynomial:
    """E_n as an exact polynomial in the 2d variables (x_1..x_d, y_1..y_d)."""
    d = ctx.dimension
    out = Polynomial.zero(2 * d)
    for nu in monomial_basis(d, n):
        vk = _vk_monomial(ctx, nu)
        lifted = {}
        for mu, c in vk.terms.items():
            lifted[mu + nu] = c * Fraction(1, _multi_factorial(nu))
        out = out + Polynomial(2 * d, lifted)
    return out


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
    products, not |G|^n.  It reads no V table and no column of H_n.
    """
    d = ctx.dimension
    group = ctx.group
    tables = []
    for i in range(1, n + 1):
        lam = solve_H(ctx, i)
        if lam is None:
            raise ValueError("expansion oracle needs the group-algebra realization")
        tables.append(lam)
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
    total = 0.0
    for m in range(n // 2 + 1 if d else 1):
        r = n - 2 * m
        if v == 0.0 and r > 0:
            continue
        lt = log_u_n + m * log_d - m * math.log(2.0) - math.lgamma(m + 1)
        if r > 0:
            lt += r * math.log(v) - math.lgamma(r + 1)
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
    tail bound below tol; N is the smallest degree achieving the bound."""
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
    total = 0
    last = 0.0
    for n in range(n_trunc + 1):
        term = evaluate_en(ctx, n, x, y)
        total = total + term
        last = abs(complex(term))
    return KernelValue(total, bound, n_trunc, last)


def evaluate_en(ctx: DunklContext, n, x, y):
    """E_n(x, y) for numeric (exact or floating) points."""
    return homogeneous_kernel(ctx, n, x).evaluate(y)
