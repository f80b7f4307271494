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
controlled by the growth envelope u = delta_hat |G| |x| (growth_envelope).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ComplexRational, SingularMatrixError, invert_matrix, solve_columns
from .poly import Polynomial, _multi_factorial, combination, directional_derivative
from .reflection_groups import (
    MultiplicityFunction,
    PositiveSystem,
    ReflectionGroup,
    act_on_polynomial,
    dot,
    reflection_matrix,
    signed_image,
    substitution_image,
)

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


@dataclass(frozen=True)
class GroupAlgebraElement:
    """A finite combination sum_g coefficients[g] L_g acting on polynomials."""

    coefficients: tuple  # scalar per group element index

    def apply(self, group: ReflectionGroup, p: Polynomial) -> Polynomial:
        return combination(
            p.dim,
            ((act_on_polynomial(group, idx, p), c) for idx, c in enumerate(self.coefficients) if c),
        )


@dataclass(eq=False)
class DunklContext:
    group: ReflectionGroup
    positives: PositiveSystem
    k: MultiplicityFunction
    reflections: tuple = field(default=())  # (alpha, k(alpha), group index)
    h_cache: dict = field(default_factory=dict)  # n -> lam_n, or None at a fallback degree
    vk_cache: dict = field(default_factory=dict)  # nu -> V(x^nu) as a table
    inverse_cache: dict = field(default_factory=dict)  # n -> table of the columns V^{-1} x^nu
    h_columns: dict = field(default_factory=dict)  # n -> table of the columns H_n x^nu
    delta_hat: float | None = None
    delta_table: list = field(default_factory=list)
    prepared_to: int = 0

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
        """Fill the degree caches and the growth table up to n_max."""
        if self.prepared_to >= n_max:
            return self
        for n in range(1, n_max + 1):
            solve_H(self, n)
        estimate_delta(self, n_max)
        self.prepared_to = n_max
        return self


def make_context(group, positives, k) -> DunklContext:
    refl = []
    for alpha in positives.positives:
        idx = group.element_index(reflection_matrix(alpha))
        refl.append((alpha, k.value(alpha), idx))
    return DunklContext(group=group, positives=positives, k=k, reflections=tuple(refl))


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
    """Realize H_n = ((n + gamma) - A)^{-1} on P_n.

    Primary path: solve ((n+gamma) e - a) h = e in the group algebra, where
    a = sum k(a) s_a.  Since a is central, h is a class function, and the
    row identity of each element h,

        (n + gamma) lam(h) - sum_{a in R+} k(a) lam(h s_a) = [h = e],

    depends only on the conjugacy class of h: one row per class gives a
    (#classes) x (#classes) system whose solution, spread over the elements,
    is lam_n.  A central element is invertible in the group algebra iff it
    is invertible on the centre, so that system is singular exactly when
    the group-algebra route fails; then W_n is inverted on the monomial
    basis instead, and the result is None.  If W_n itself is singular the
    weight is inadmissible at this degree.  Either way the columns H_n x^nu
    are verified to invert W_n on the monomial basis and kept in h_columns
    as one integer table.
    """
    if n < 1:
        raise ValueError("H_n is defined for degrees n >= 1")
    if n in ctx.h_cache:
        return ctx.h_cache[n]
    group = ctx.group
    reps = group.class_representatives
    matrix = [[Fraction(0)] * len(reps) for _ in reps]
    for row, h in zip(matrix, reps):
        for g, coeff in _w_row(ctx, n, h):
            row[group.class_of[g]] += coeff
    rhs = [Fraction(0)] * len(reps)
    rhs[group.class_of[group.identity_index]] += 1
    w = _w_table(ctx, n)
    try:
        sol = solve_columns(matrix, [rhs])[0]
    except SingularMatrixError:
        try:
            table = _inverse_table(w)
        except SingularMatrixError:
            raise NotInMStarError(n) from None
        result = None
    else:
        result = GroupAlgebraElement(tuple(sol[c] for c in group.class_of))
        table = _group_columns(ctx, n, result)
    _verify_H(n, table, w)
    ctx.h_columns[n] = table
    ctx.h_cache[n] = result
    return result


def _w_row(ctx, n, h):
    """The pairs (g, coefficient of lam(g)) in the row identity of element h."""
    yield h, n + ctx.gamma
    for _, ka, sidx in ctx.reflections:
        yield ctx.group.multiply(h, sidx), -ka


def solves_row_identity(ctx: DunklContext, n, coefficients) -> bool:
    """Whether lam = coefficients is a class function that satisfies the row
    identity of solve_H exactly.  For a class function lam the row of h is a
    class function of h too (conjugating h by g permutes the reflections and
    keeps k), so one row per class covers every element."""
    group = ctx.group
    reps = group.class_representatives
    if any(coefficients[g] != coefficients[reps[c]] for g, c in enumerate(group.class_of)):
        return False
    return all(
        sum(coeff * coefficients[g] for g, coeff in _w_row(ctx, n, h))
        == (1 if h == group.identity_index else 0)
        for h in reps
    )


# -- integer tables ---------------------------------------------------------------
#
# A table is a pair (numerators, den): a dict from exponents to integers (to
# Gaussian integers for a complex weight) over one positive integer
# denominator, standing for the polynomial sum numerators[mu] / den x^mu.
# The columns of a linear map on P_n (W_n, H_n, V^{-1}) are one table per
# degree, ({nu: numerators of M x^nu}, den), and each V(x^nu) is a table of
# its own.  Polynomials are made only at the boundary (_polynomial), with
# Fraction or ComplexRational coefficients.


class _Gaussian:
    """An exact complex integer re + i im: a numerator for a complex weight."""

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

    def __floordiv__(self, k):
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


def _numerators(terms, den):
    return {mu: _numerator(c, den) for mu, c in terms.items()}


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


def _polynomial(dim, table, rounded=False):
    """The table as a Polynomial with exact coefficients, or with each
    coefficient rounded to a float once."""
    nums, den = table
    value = _rounded_value if rounded else _exact_value
    return Polynomial(dim, {mu: value(c, den) for mu, c in nums.items()})


def _combine(pairs):
    """sum of w * numerators / den over the (w, (numerators, den)) pairs, as a
    table over the lcm of the denominators, summed in one dict in order of
    first appearance, zeros dropped.  Over equal denominators each product
    is a * w, as a Polynomial combination forms it."""
    pairs = list(pairs)
    den = math.lcm(*(table[1] for _, table in pairs))
    out = {}
    for w, (nums, d) in pairs:
        s = w if d == den else w * (den // d)
        for mu, a in nums.items():
            prev = out.get(mu)
            out[mu] = a * s if prev is None else prev + a * s
    return {mu: c for mu, c in out.items() if c}, den


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


def _exact_table(p: Polynomial):
    """The exact polynomial p as a table over the least common denominator."""
    den = math.lcm(*(_denominator(c) for c in p.terms.values()))
    return _numerators(p.terms, den), den


def _monomial_image(group, g, nu):
    """x^nu o g as a table: one +-1 monomial for a signed permutation, the
    cached substitution image scaled to integers for G2."""
    if group.signed_permutations is None:
        return _exact_table(substitution_image(group, g, nu))
    mu, negative = signed_image(group, g, nu)
    return {mu: -1 if negative else 1}, 1


def _group_columns(ctx, n, h):
    """The columns H_n x^nu = sum_g lam_n(g) x^nu o g on P_n as one table:
    integer sums of the monomial images over the elements with lam_n(g) != 0,
    weighted by lam_n's numerators over their common denominator.  Summing
    in element order keeps each column's terms in the order that
    GroupAlgebraElement.apply gives them, and with it the order, and so the
    float rounding, of every sum that evaluates V."""
    group = ctx.group
    lam_den = math.lcm(*(_denominator(c) for c in h.coefficients))
    active = [(g, _numerator(c, lam_den)) for g, c in enumerate(h.coefficients) if c]
    nus = monomial_basis(ctx.dimension, n)
    raw = [_combine((w, _monomial_image(group, g, nu)) for g, w in active) for nu in nus]
    cols, den = _over_one_denominator(nus, raw)
    return _reduced(cols, den * lam_den)


def _w_table(ctx, n):
    """The columns W_n x^mu = (n + gamma) x^mu - sum_a k(a) x^mu o s_a on P_n
    as one table, from act_on_polynomial's reflection images.  They share
    signed_image and substitution_image with H_n's columns, so _verify_H
    checks lam_n (or the inverted table) against W_n, not two group actions."""
    d = ctx.dimension
    weights = [(n + ctx.gamma, None)] + [(-ka, sidx) for _, ka, sidx in ctx.reflections if ka]
    scale = math.lcm(*(_denominator(w) for w, _ in weights))
    basis = monomial_basis(d, n)
    images = []
    for mu in basis:
        mono = Polynomial.monomial(d, mu)
        nums, den = _combine(
            (_numerator(w, scale), ({mu: 1}, 1) if sidx is None
             else _exact_table(act_on_polynomial(ctx.group, sidx, mono)))
            for w, sidx in weights
        )
        images.append((nums, den * scale))
    return _over_one_denominator(basis, images)


def _inverse_table(images):
    """The table, in lowest terms, of the inverse of the map on P_n whose
    columns are the table images: den times the exact inverse of the
    numerator matrix (rows index the output monomial).  Raises
    SingularMatrixError when the map is singular."""
    cols, den = images
    basis = list(cols)
    rows = invert_matrix([[_exact_value(cols[nu].get(mu, 0), 1) for nu in basis] for mu in basis])
    inverse = [{mu: row[j] * den for mu, row in zip(basis, rows) if row[j]} for j in range(len(basis))]
    common = math.lcm(*(_denominator(c) for col in inverse for c in col.values()))
    return {nu: _numerators(col, common) for nu, col in zip(basis, inverse)}, common


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


def _columns(ctx: DunklContext, n):
    """The table of H_n's columns on P_n: the one verified by solve_H, or,
    for a lam_n loaded from a cache, built and verified the same way on
    first use (a fallback degree always has its table, since no lam_n
    exists to rebuild it from)."""
    table = ctx.h_columns.get(n)
    if table is None:
        h = solve_H(ctx, n)  # keeps the table it verifies
        table = ctx.h_columns.get(n)
        if table is None:
            table = _group_columns(ctx, n, h)
            _verify_H(n, table, _w_table(ctx, n))
            ctx.h_columns[n] = table
    return table


_EXACT = (int, Fraction, ComplexRational)


def _is_exact_point(x):
    """Whether x reads the exact table (every coordinate exact) or the rounded one."""
    return all(isinstance(t, _EXACT) for t in x)


def _combination(dim, pairs):
    """sum of c * table over the (table, scalar c) pairs, as a Polynomial:
    in integers over one denominator when every c is exact, else term by
    term on the rounded coefficients, which is what the exact coefficients
    times a float give."""
    pairs = list(pairs)
    if not all(isinstance(c, _EXACT) for _, c in pairs):
        return combination(dim, ((_polynomial(dim, t, rounded=True), c) for t, c in pairs))
    weighted = []
    for (nums, den), c in pairs:
        s = _denominator(c)
        weighted.append((_numerator(c, s), (nums, den * s)))
    return _polynomial(dim, _combine(weighted))


def apply_H(ctx: DunklContext, n, p: Polynomial) -> Polynomial:
    """H_n p for p in P_n, as the sum of p's coefficients times the columns."""
    cols, den = _columns(ctx, n)
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
        cols, cden = _columns(ctx, n)
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
    excluded (ctx.fallback_degrees lists them).  Fills ctx.delta_hat and
    ctx.delta_table and returns delta_hat.
    """
    table = []
    for n in range(1, n_max + 1):
        h = solve_H(ctx, n)
        if h is not None:
            table.append((n, n * max(abs(complex(c)) for c in h.coefficients)))
    ctx.delta_hat = max((row for _, row in table), default=1.0)
    ctx.delta_table = table
    return ctx.delta_hat


# -- homogeneous kernel pieces and the generalized exponential -------------------------

def homogeneous_kernel(ctx: DunklContext, n, x) -> Polynomial:
    """E_n(x, .) as a polynomial in y for fixed numeric x: exact at an exact
    x, and read from the rounded table at an x with a float coordinate (a
    Fraction times a float is the rounded Fraction times that float, so no
    Fraction need be built)."""
    d = ctx.dimension
    rounded = not _is_exact_point(x)
    terms = {}
    for nu in monomial_basis(d, n):
        val = _vk_monomial(ctx, nu, rounded).evaluate(x)
        if val:
            terms[nu] = val * Fraction(1, _multi_factorial(nu))
    return Polynomial(d, terms)


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
    """Brute-force E_n(x, .) from the |G|^n product expansion.

    Unrolling the degree recursion gives

        E_n(x, y) = sum over (g_1..g_n) of
                    prod_i lam_i(g_i) * prod_i <g_i g_{i+1} ... g_n x, y>,

    where the factor at position i carries the degree-i coefficient table
    (the innermost inverse applied is H_n, whose element right-multiplies
    onto x and so appears in every pairing).  The coefficient product obeys
    |prod lam_i(g_i)| <= delta^n / n!.  Exponential in n; intended as a
    cross-check for n <= 3 on small groups.
    """
    d = ctx.dimension
    group = ctx.group
    if n == 0:
        return Polynomial.constant(d, Fraction(1))
    tables = []
    for i in range(1, n + 1):
        h = solve_H(ctx, i)
        if h is None:
            raise ValueError("expansion oracle needs the group-algebra realization")
        tables.append(h.coefficients)
    out = Polynomial.zero(d)
    from .reflection_groups import mat_vec

    for combo in itertools.product(range(group.order), repeat=n):
        coeff = 1
        for i, gi in enumerate(combo):
            coeff = coeff * tables[i][gi]
        if not coeff:
            continue
        prod = Polynomial.constant(d, 1)
        vec = tuple(x)
        # suffix products g_i ... g_n applied to x, built right to left
        for gi in reversed(combo):
            vec = mat_vec(group.elements[gi], vec)
            linear = Polynomial(
                d,
                {
                    tuple(1 if l == j else 0 for l in range(d)): vec[j]
                    for j in range(d)
                    if vec[j]
                },
            )
            prod = prod * linear
        out = out + prod * coeff
    return out


@dataclass(frozen=True)
class KernelValue:
    value: complex
    tail_bound: float
    degree_used: int
    last_term: float


def _norm(v):
    """Euclidean norm of a point with real, complex or exact coordinates,
    without overflow."""
    return math.hypot(*(abs(complex(t)) for t in v))


def _tail_term(u, v, d, n, factorial=False):
    """u^n [t^n] e^{v t + d t^2/2}, divided by n! when factorial, in logs.

    The coefficient is sum_m d^m / (2^m m!) v^{n-2m} / (n-2m)!.
    """
    if u == 0.0:
        return 0.0
    log_u_n = n * math.log(u)
    if factorial:
        log_u_n -= math.lgamma(n + 1)
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


def _recurrence_tail(u, v, d, n_trunc, factorial=False):
    """sum_{n > n_trunc} a_n, a_n = u^n [t^n] e^{v t + d t^2/2} (over n! when
    factorial), for u, v >= 0 and an integer d >= 0; never below the exact sum.
    Every caller passes u = growth_envelope(ctx, |x|) and v = |y|.

    Since g = e^{v t + d t^2/2} has g' = (v + d t) g, the terms obey the
    positive three-term recurrence a_n = alpha_n a_{n-1} + beta_n a_{n-2} with

        alpha_n = u v / n,     beta_n = u^2 d / n                (plain),
        alpha_n = u v / n^2,   beta_n = u^2 d / (n^2 (n - 1))    (factorial),

    coefficients that decrease in n.  The first two discarded terms are
    seeded in logs (_tail_term), so a small u does not underflow, and the
    recurrence runs forward from them: O(n_trunc) for the seeds plus one step
    per summed term.  Once rho = alpha_{n+1} + beta_{n+1} < 1, every later
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
    prev, last = _tail_term(u, v, d, n - 1, factorial), _tail_term(u, v, d, n, factorial)
    total = prev + last
    if not math.isfinite(total):
        return math.inf
    uv, uud = u * v, u * u * d
    for steps in range(_TAIL_STEPS):
        k = n + 1
        beta = uud / (k - 1) if factorial else uud
        scale = k * k if factorial else k
        rho = (uv + beta) / scale
        if rho < 1.0:
            rest = 2.0 * max(prev, last) * rho / (1.0 - rho)
            if rest <= total * 1e-17:
                break
        prev, last = last, (uv * last + beta * prev) / scale
        total += last
        if total == math.inf:
            return math.inf
        n = k
    else:
        return math.inf
    logs = abs(math.log(u)) + (abs(math.log(v)) if v else 0.0) + (math.log(d) if d else 0.0)
    spread = seed * (logs + 1.0) + 2.0 * math.lgamma(seed + 1)
    return (total + rest) * (1.0 + _EPS * (16.0 * spread + seed + 9.0 * steps + 64.0))


def growth_envelope(ctx: DunklContext, x_norm) -> float:
    """u = delta_hat |G| |x|, from delta_hat >= n max_g |lam_n(g)|; every
    truncation bound rests on |Lap^m E_n(x, .)(y)| <= d^m u^n |y|^{n-2m} / (n-2m)!."""
    if ctx.delta_hat is None:
        raise ValueError("estimate_delta must run before truncation bounds")
    return ctx.delta_hat * ctx.group.order * x_norm


def ek_tail_bound(ctx: DunklContext, x_norm, y_norm, n_trunc) -> float:
    """Bound sum_{n > N} u^n |y|^n / n! with u = growth_envelope(ctx, |x|):
    the d = 0 case of the kernel tail, sum_{n > N} u^n [t^n] e^{|y| t}."""
    return _recurrence_tail(growth_envelope(ctx, x_norm), y_norm, 0, n_trunc)


def dunkl_kernel(ctx: DunklContext, x, y, tol, degree_cap=DEGREE_CAP) -> KernelValue:
    """Truncated generalized exponential sum_{n<=N} E_n(x, y) with a certified
    tail bound below tol; N is the smallest degree achieving the bound."""
    x_norm = _norm(x)
    y_norm = _norm(y)
    for n_trunc in range(degree_cap + 1):
        bound = ek_tail_bound(ctx, x_norm, y_norm, n_trunc)
        if bound < tol:
            break
    else:
        raise TruncationError(
            f"tail bound does not reach {tol} within the degree cap {degree_cap}"
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
