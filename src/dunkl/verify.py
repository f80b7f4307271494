"""Verification suites: exact identities, series control, quadrature identities,
sign conventions, and positivity.

Each check produces one result row, and three constructors own the verdict
of almost every row:
- an exact row (`_exact_row`) tallies boolean comparisons: its residual is
  the number that fail, its tolerance 0, and its note counts the
  comparisons;
- a residual row (`_residual_row`) folds its residuals, in draw order, into
  the largest, starting from 0.0; a NaN sticks once seen, and the row
  passes iff the result is at most its tolerance, so a NaN fails;
- a skipped row (`_skipped_row`) passes and keeps its reason as the note.
Only `ek-at-zero` (the value must equal 1 exactly) and the signs suite's
convention rows decide by a rule of their own.  The signs suite runs the
convention-forked identities (Gaussian image, Fourier representation,
derivative relation) under both signs, uses the weight-zero closed forms as
arbiter, and reports which convention validates rather than silently
picking one.  The Fourier rows read the Gaussian-image check's sums, formed
once per evaluator, with plus and minus exchanged (kernel module docstring).
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

from .config import SUITES
from .kernel import (
    KernelEvaluator,
    certified_radius,
    convolution_check,
    derivative_relation_check,
    gaussian_image_check,
    heat_piece,
    hermite_piece,
    lk_grid,
    lk_series_value,
    make_evaluator,
    phi_x_apply,
    phi_x_norm,
    positivity_scan,
    symmetry_scan,
    tail_bound,
)
from .operators import (
    DEGREE_CAP,
    DunklContext,
    _norm,
    dunkl_apply,
    dunkl_kernel,
    en_expansion_oracle,
    growth_envelope,
    homogeneous_kernel,
    homogeneous_kernel_bivariate,
    intertwine,
    intertwine_inverse,
    make_context,
    monomial_basis,
    operator_A,
    solve_H,
    tail_kind,
)
from .poly import (
    Polynomial,
    _polynomial,
    combination,
    fischer,
    fischer_via_gaussian,
    heat_half,
    hermite,
    inverse_heat_half,
)
from .quad import (
    _axis_moments,
    fourier_quadrature,
    gauss_rule,
    gaussian_moment,
    integrate,
)
from .reflection_groups import (
    act_on_polynomial,
    dot,
    mat_vec,
    reflect,
    validate_multiplicity,
)


CheckResult = namedtuple(
    "CheckResult", "identity max_residual tolerance passed convention note", defaults=(None, "")
)


class SuiteReport:
    def __init__(self, suite, name, group_order):
        self.suite = suite
        self.name = name
        self.group_order = group_order
        self.results = []

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        """The report as strict JSON data: a residual or tolerance that is not
        finite is the string "nan", "inf" or "-inf"."""
        rows = []
        for r in self.results:
            row = r._asdict()
            row["max_residual"] = _json_float(row["max_residual"])
            row["tolerance"] = _json_float(row["tolerance"])
            row["passed"] = bool(row["passed"])
            rows.append(row)
        return {
            "suite": self.suite,
            "context": self.name,
            "group_order": self.group_order,
            "passed": bool(self.passed),
            "results": rows,
        }


def _json_float(v):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _rand_fraction(rng, span=3, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_point(rng, d, span=3, den=4):
    return tuple(_rand_fraction(rng, span, den) for _ in range(d))


def _rand_poly(rng, d, max_degree, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        nu = tuple(rng.randint(0, max_degree) for _ in range(d))
        if sum(nu) > max_degree:
            continue
        terms[nu] = _rand_fraction(rng)
    return Polynomial(d, terms)


def _box(rng, d, half):
    """A point drawn uniformly from the cube [-half, half]^d."""
    return tuple(rng.uniform(-half, half) for _ in range(d))


def _exact_row(identity, comparisons, checked=None, note=""):
    """The row of a tally of comparisons, each True where the identity holds:
    its residual is the number that fail and its tolerance 0.  The note
    counts the comparisons (checked, where the count comes from elsewhere)
    and goes on with note."""
    tally = Counter(map(bool, comparisons))
    failures = tally[False]
    if checked is None:
        checked = tally[True] + failures
    return CheckResult(
        identity, float(failures), 0.0, failures == 0, note=f"{checked} exact comparisons{note}"
    )


def _residual_row(identity, residuals, tolerance, note=""):
    """The row of the largest of residuals, folded in draw order from 0.0; a
    NaN sticks once seen, and the row passes iff the result is at most
    tolerance, so a NaN fails."""
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:  # r != r: r is NaN
            worst = r
    return CheckResult(identity, worst, tolerance, bool(worst <= tolerance), note=note)


def _skipped_row(identity, tolerance, reason):
    """The row of a check that did not run: it passes, and its note gives
    the reason."""
    return CheckResult(identity, 0.0, tolerance, True, note=f"skipped: {reason}")


# -- exact suite -------------------------------------------------------------------

def suite_exact(ctx: DunklContext, seed=0):
    rng = random.Random(seed)
    group = ctx.group
    d = group.dimension
    order = group.order
    multiply = group.multiply
    units = [tuple(int(t == j) for t in range(d)) for j in range(d)]
    results = []

    results.append(_exact_row("reflection-involution", (
        reflect(alpha, reflect(alpha, x)) == x
        for alpha in ctx.positives.positives
        for x in [_rand_point(rng, d) for _ in range(3)]
    )))

    triples = itertools.product(range(order), repeat=3) if order <= 48 else ()
    inverses = [group.inverse_index(i) for i in range(order)]
    results.append(_exact_row("group-axioms", itertools.chain(
        (multiply(multiply(a, b), c) == multiply(a, multiply(b, c)) for a, b, c in triples),
        (inverses.count(i) == 1 for i in inverses),
    )))

    p = _rand_poly(rng, d, 3)
    results.append(_exact_row("action-composition", (
        act_on_polynomial(group, a, act_on_polynomial(group, b, p))
        == act_on_polynomial(group, multiply(b, a), p)
        for a in range(order)
        for b in range(order)
    )))

    gamma = sum(ctx.k.value(alpha) for alpha in ctx.positives.positives)
    results.append(_exact_row("gamma-is-positive-sum", [gamma == ctx.gamma]))

    results.append(_exact_row("dunkl-commutativity", (
        dunkl_apply(ctx, ei, dunkl_apply(ctx, ej, q)) == dunkl_apply(ctx, ej, dunkl_apply(ctx, ei, q))
        for q in [_rand_poly(rng, d, 5) for _ in range(3)]
        for i, ei in enumerate(units)
        for ej in units[i + 1 :]
    )))

    results.append(_exact_row("euler-operator-identity", (
        mono * (n + ctx.gamma) - operator_A(ctx, mono)
        == sum((Polynomial.variable(d, j) * dunkl_apply(ctx, ej, mono) for j, ej in enumerate(units)),
               Polynomial.zero(d))
        for n in range(1, 6)
        for mono in [Polynomial.monomial(d, nu) for nu in monomial_basis(d, n)[: 2 * d]]
    )))

    def h_inverts_w():
        top = min(ctx.degree, 8)
        ctx.prepare(top)
        for n in range(1, top + 1):
            lam = ctx.h_cache[n]
            if lam is None:  # a fallback degree: H_n's dense inverse, built once for the degree
                cols, den = solve_H(ctx, n)
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                if lam is None:
                    column = _polynomial(d, (cols[nu], den))
                else:
                    images = ((act_on_polynomial(group, g, mono), c) for g, c in enumerate(lam) if c)
                    column = combination(d, images)
                yield column * (n + ctx.gamma) - operator_A(ctx, column) == mono
    results.append(_exact_row("h-inverts-w", h_inverts_w()))

    def intertwining():
        for n in range(0, 7):
            for nu in monomial_basis(d, n):
                mono = Polynomial.monomial(d, nu)
                vp = intertwine(ctx, mono)
                for j, ej in enumerate(units):
                    yield dunkl_apply(ctx, ej, vp) == intertwine(ctx, mono.partial(j))
    results.append(_exact_row("intertwining-identity", intertwining()))

    one = Polynomial.constant(d, Fraction(1))
    keeps_one = intertwine(ctx, one) == one
    p = _rand_poly(rng, d, 5)
    vp = intertwine(ctx, p)
    # four checks; each non-real coefficient of V p counts as one failure
    real = (c.imag == 0 for c in vp.terms.values()) if ctx.k.is_real else ()
    results.append(_exact_row("intertwine-unit-degree-inverse-real", itertools.chain(
        [keeps_one, vp.degree == p.degree, intertwine_inverse(ctx, vp) == p], real
    ), checked=4))

    results.append(_exact_row("en-symmetry", (
        biv == Polynomial(2 * d, {nu[d:] + nu[:d]: c for nu, c in biv.terms.items()})
        for biv in (homogeneous_kernel_bivariate(ctx, n) for n in range(0, 5))
    )))

    x = _rand_point(rng, d)
    lam = Fraction(3, 2)
    kernels = [homogeneous_kernel(ctx, n, x) for n in range(0, 5)]  # E_n(x, .), read by two rows

    def equivariance_homogeneity():
        for n, base in enumerate(kernels):
            for gi in range(order):
                gx = mat_vec(group.elements[gi], x)
                moved = base if gx == x else homogeneous_kernel(ctx, n, gx)
                yield moved == act_on_polynomial(group, group.inverse_index(gi), base)
            yield homogeneous_kernel(ctx, n, tuple(lam * t for t in x)) == base * lam**n
            # E_n(x, lam y): each term c y^nu scaled by lam^|nu|
            yield Polynomial(d, {nu: c * lam ** sum(nu) for nu, c in base.terms.items()}) == base * lam**n
    results.append(_exact_row("en-equivariance-homogeneity", equivariance_homogeneity()))

    # the oracle's O(n |G|^2) products: 0.6 s on B3, 18 s on D4 (|G| = 192)
    degrees = range(0, 4) if order <= 48 else ()
    # the oracle multiplies the lam tables of every degree up to n, which
    # h_cache holds once E_n's tables are built (kernels above)
    skipped = [n for n in degrees if None in (ctx.h_cache[i] for i in range(1, n + 1))]
    note = f"; skipped at |G| = {order} > 48" if order > 48 else ""
    if skipped:
        note = (
            f"; degrees {skipped} skipped: the expansion multiplies lam_i for every "
            f"i <= n, and degree {skipped[0]} is a fallback degree with no lam table"
        )
    results.append(_exact_row("en-product-expansion-oracle", (
        en_expansion_oracle(ctx, n, x) == kernels[n]
        for n in degrees
        if n not in skipped
    ), note=note))

    def heat_fischer():
        for _ in range(4):
            q = _rand_poly(rng, d, 8)
            yield inverse_heat_half(heat_half(q)) == q
            r = _rand_poly(rng, d, 6)
            yield fischer(q, r) == fischer(r, q)
            for i in range(d):
                yield fischer(Polynomial.variable(d, i) * q, r) == fischer(q, r.partial(i))
    results.append(_exact_row("heat-roundtrip-fischer", heat_fischer()))

    xq = _rand_point(rng, d, span=2, den=3)
    yq = _rand_point(rng, d, span=2, den=3)
    ev = make_evaluator(ctx, min(ctx.degree, 8))
    results.append(_exact_row("kernel-two-path-per-degree", (
        heat_piece(ev, n, xq, yq) == hermite_piece(ev, n, xq, yq)
        for n in range(ev.n_trunc + 1)
    )))

    rep = symmetry_scan(ev, [xq])
    results.append(
        _exact_row("kernel-equivariance-parity", [False] * len(rep.failures), checked=rep.checked)
    )
    return results


# -- series suite -------------------------------------------------------------------

SERIES_TOL = 1e-8  # truncation tolerance of the ek-symmetry row
POSITIVITY_TOL = 1e-8  # how far below 0 the kernel minus its tail may read


def suite_series(ctx: DunklContext, seed=0):
    rng = random.Random(seed)
    d = ctx.dimension
    n_trunc = ctx.degree
    ev = make_evaluator(ctx, n_trunc)
    results = []

    val = dunkl_kernel(ctx, tuple(Fraction(1, 2) for _ in range(d)), (0,) * d, tol=1e-12)
    results.append(
        CheckResult("ek-at-zero", abs(complex(val.value) - 1.0), 0.0, val.value == 1)
    )

    pairs = [(_box(rng, d, 0.4), _box(rng, d, 0.9)) for _ in range(3)]
    results.append(_residual_row("ek-symmetry", (
        abs(complex(dunkl_kernel(ctx, x, y, tol=SERIES_TOL).value)
            - complex(dunkl_kernel(ctx, y, x, tol=SERIES_TOL).value))
        for x, y in pairs
    ), 2 * SERIES_TOL))

    if ctx.k.is_zero:
        pairs = [(_box(rng, d, 1.0), _box(rng, d, 1.0)) for _ in range(4)]
        results.append(_residual_row("ek-weight-zero-exponential", (
            abs(complex(dunkl_kernel(ctx, x, y, tol=1e-12).value) - math.exp(dot(x, y)))
            for x, y in pairs
        ), 1e-10))
        # x within the radius where L^(N)'s tail is below 1e-10 for |y| <= sqrt(d)
        side = certified_radius(ev, 1e-10, math.sqrt(d)) / math.sqrt(d)
        pairs = [(_box(rng, d, side), _box(rng, d, 1.0)) for _ in range(4)]
        results.append(_residual_row("lk-weight-zero-closed-form", (
            abs(complex(lk_series_value(ev, x, y)) - math.exp(dot(x, y) - sum(a * a for a in x) / 2))
            for x, y in pairs
        ), 1e-8))

    results.append(_residual_row(
        "delta-table-bounded", (row - ctx.delta_hat for _, row in ctx.delta_table), 0.0
    ))

    def laplacian_excess():
        for _ in range(2):
            x, y = _box(rng, d, 0.5), _box(rng, d, 1.0)
            yn = _norm(y)
            u, c = growth_envelope(ctx, _norm(x))
            for n in range(n_trunc + 1):
                lap = homogeneous_kernel(ctx, n, x).to_float()
                for m in range(n // 2 + 1):
                    bound = c**m / math.factorial(n - 2 * m) * u**n * yn ** (n - 2 * m)
                    yield abs(lap.evaluate_many([y])[0]) - bound * (1 + 1e-9) - 1e-300
                    lap = lap.laplacian()
    results.append(_residual_row("per-term-laplacian-bounds", laplacian_excess(), 0.0))

    def tail_not_monotone():  # True where a tail bound is negative, NaN or grows with the degree
        for _ in range(3):
            xn = rng.uniform(0.0, 0.5)
            yn = rng.uniform(0.0, 1.5)
            prev = math.inf
            for n in range(max(0, n_trunc - 4), n_trunc + 1):
                tb = tail_bound(ev, xn, yn, n).value
                yield not 0 <= tb <= prev * (1 + 1e-12)
                prev = tb
    results.append(_residual_row("tail-monotone-nonnegative", [sum(tail_not_monotone())], 0.0))

    def tail_shortfall():  # the computed terms n0 < n <= N less the tail bound from n0
        for _ in range(3):
            x, y = _box(rng, d, 0.3), _box(rng, d, 0.8)
            n0 = max(0, n_trunc - 5)
            computed = 0.0
            for n in range(n0 + 1, n_trunc + 1):
                computed += abs(complex(heat_piece(ev, n, x, y)))
            yield computed - tail_bound(ev, _norm(x), _norm(y), n0).value
    results.append(_residual_row("tail-dominates-computed-terms", tail_shortfall(), 0.0))

    # the series path against lk_grid, the float Hermite path that the
    # quadrature and positivity rows read
    pairs = [(_box(rng, d, 1.0), _box(rng, d, 1.0)) for _ in range(6)]
    grid = lk_grid(ev, [x for x, _ in pairs], [y for _, y in pairs])
    results.append(_residual_row("kernel-two-path-float", (
        abs(complex(lk_series_value(ev, x, y)) - complex(grid[i][i]))
        for i, (x, y) in enumerate(pairs)
    ), 1e-9))
    return results


# -- quadrature suite ------------------------------------------------------------------

def suite_quadrature(ctx: DunklContext, seed=0):
    rng = random.Random(seed)
    d = ctx.dimension
    n_trunc = ctx.degree
    ev = make_evaluator(ctx, n_trunc)
    # the rule that the rule's own rows test; phi_x_apply reads none of its
    # nodes for a polynomial.  q integrates L^(N) p exactly for
    # deg p <= min(6, N), and is kept so that the rule rows keep their
    # residuals
    rule = gauss_rule(d, max(5, (n_trunc + min(6, n_trunc) + 2) // 2))
    results = []

    results.append(_residual_row("rule-moment-exactness", (
        abs(integrate(Polynomial.monomial(d, nu, 1.0), rule) - want) / max(1.0, abs(want))
        for n in range(0, min(rule.exact_degree, 12) + 1)
        for nu in monomial_basis(d, n)[: 3 * d]
        for want in [gaussian_moment(nu)]
    ), 1e-12))

    # round() is odd-symmetric, so the keys of -z are the negated keys of z
    keys = {tuple(round(t, 10) for t in z) for z in rule.nodes}
    missing = sum(1 for z in keys if tuple(-t for t in z) not in keys)
    results.append(_residual_row("rule-negation-symmetry", [missing], 0.0))

    one = [Polynomial.constant(d, 1)]
    results.append(_residual_row("kernel-unit-mass", (
        abs(complex(phi_x_apply(ev, _box(rng, d, 1.5), one, rule)[0]) - 1.0) for _ in range(10)
    ), 1e-12))

    monomials = [[Polynomial.monomial(d, nu) for nu in monomial_basis(d, n)] for n in range(0, 5)]
    pairs = [(p, q) for n in range(0, 5) for p in monomials[n] for qs in monomials[: 5 - n] for q in qs]
    results.append(_residual_row("fischer-gaussian-agreement", (
        float(abs(fischer_via_gaussian(p, q) - want) / max(1, abs(want)))
        for p, q in pairs
        for want in [fischer(p, q)]
    ), 1e-10, note=f"{len(pairs)} monomial pairs"))

    # the Gram matrix of the H_nu on the rule, each entry summed over the
    # pairs of their terms from the rule's per-axis moments
    moments = _axis_moments(rule, 8)
    hs = [list(hermite(nu).terms.items()) for n in range(0, 5) for nu in monomial_basis(d, n)]
    results.append(_residual_row("hermite-orthonormality", (
        abs(math.fsum(
            a * b * math.prod(moments[i + j] for i, j in zip(mu, nu)) for mu, a in hs[r] for nu, b in h
        ) - (r == c))
        for r in range(len(hs))
        for c, h in enumerate(hs[r:], r)
    ), 1e-10))

    ps = [
        Polynomial.monomial(d, nu)
        for n in range(min(6, n_trunc) + 1)
        for nu in monomial_basis(d, n)[:3]
    ]
    results.append(_residual_row("represents-intertwine-of-heatflow", (
        abs(complex(got) - complex(intertwine(ctx, inverse_heat_half(p)).evaluate(x)))
        for x in [_box(rng, d, 0.8) for _ in range(3)]
        for p, got in zip(ps, phi_x_apply(ev, x, ps, rule))
    ), 1e-9))

    results.append(_residual_row("functional-norm-two-routes", (
        abs(s_route - q_route) / max(s_route, 1e-30)
        for s_route, q_route in (phi_x_norm(ev, _box(rng, d, 0.8)) for _ in range(3))
    ), 1e-6))

    radius = certified_radius(ev, 1e-6, 1.0) * 0.9
    results.append(_residual_row("exponential-convolution", (
        convolution_check(ev, _box(rng, d, radius / math.sqrt(d)), _box(rng, d, 0.7))
        for _ in range(5)
    ), 1e-6, note=f"{tail_kind(ctx)} |x| radius {radius:.4g}"))

    # the closed-form transform the signs suite's Fourier rows rest on,
    # against a 40-point rule on z^n e^{-iyz}, which is not a polynomial
    line = gauss_rule(1, 40)
    results.append(_residual_row("gaussian-self-transform", (
        abs(fourier_quadrature(Polynomial.monomial(d, (n,) + (0,) * (d - 1)), (yv,) + (0.0,) * (d - 1))
            - integrate(lambda z: z[0] ** n * cmath.exp(-1j * yv * z[0]), line))
        for yv in (0.0, 0.7, 1.9)
        for n in range(6)
    ), 1e-10))
    return results


# -- signs suite ------------------------------------------------------------------------

def suite_signs(ctx: DunklContext):
    d = ctx.dimension
    results = []
    zero_k = validate_multiplicity(ctx.positives, Fraction(0), ctx.k.orbits)
    zero_ctx = make_context(ctx.group, ctx.positives, zero_k)
    if d <= 2:
        x = tuple([Fraction(3, 5)] + [Fraction(-1, 4)] * (d - 1))
        y = tuple([Fraction(9, 10)] + [Fraction(1, 3)] * (d - 1))
    else:
        x = tuple([Fraction(2, 5)] + [Fraction(1, 5)] * (d - 1))
        y = tuple([Fraction(1, 2)] + [Fraction(1, 4)] * (d - 1))
    winner_tol = 1e-8 if d <= 2 else 1e-6
    # one truncation degree for both evaluators, from the certified weight-zero bound
    n_trunc = _tail_degree(KernelEvaluator(zero_ctx, 0), x, y, winner_tol, DEGREE_CAP)
    # the context weight's Taylor degree; in d >= 3 below winner_tol, so that D > N
    taylor_tol = 1e-6 if d <= 2 else winner_tol * 1e-3
    ev0 = make_evaluator(zero_ctx, n_trunc)

    re_ok = all(v.real >= 0 for v in ctx.k.by_root.values())
    ev_k = make_evaluator(ctx, n_trunc) if re_ok else None

    @functools.cache  # one Gaussian-image check per evaluator, which the Fourier rows read too
    def image(e, tol):
        return gaussian_image_check(e, x, y, _tail_degree(e, x, y, tol, 2 * n_trunc))

    def fourier(e, tol):  # E(+-ix, .)'s transform is the Gaussian image's sum under -+
        res = image(e, tol)
        return {"plus": res["minus"], "minus": res["plus"]}

    for name, runner in (
        ("gaussian-image", image),
        ("fourier-representation", fourier),
        ("derivative-relation", lambda e, tol: derivative_relation_check(e, x, y, 0)),
    ):
        res0 = runner(ev0, winner_tol)
        winner = "plus" if res0["plus"] < res0["minus"] else "minus"
        loser = "minus" if winner == "plus" else "plus"
        decisive = res0[winner] <= winner_tol and res0[loser] >= 0.05
        row = CheckResult(
            identity=f"{name}-convention-at-weight-zero",
            max_residual=res0[winner],
            tolerance=winner_tol,
            passed=decisive,
            convention=winner,
            note=f"losing convention residual {res0[loser]:.3g}",
        )
        results.append(row)
        if ev_k is not None:
            resk = runner(ev_k, taylor_tol)
            results.append(
                CheckResult(
                    identity=f"{name}-convention-at-context-weight",
                    max_residual=resk[winner],
                    tolerance=1e-6,
                    passed=resk[winner] <= 1e-6 and resk[winner] < resk[loser],
                    convention=winner,
                )
            )
        else:
            results.append(_skipped_row(
                f"{name}-convention-at-context-weight", 0.0,
                "weight has entries with negative or complex real part",
            ))
    return results


def _tail_degree(ev, x, y, tol, cap):
    """The smallest D <= cap whose remainder e^{-|y|^2/2} tail_bound(ev, |x|,
    |y|, D) is at most 1e-3 tol when that bound is certified; cap otherwise.
    The signs suite takes from it both its truncation degree and the
    Gaussian-image check's Taylor degree, whose remainder is the same bound."""
    if tail_kind(ev.ctx) != "certified":
        return cap
    xn, yn = _norm(x), _norm(y)
    window = math.exp(-(yn**2) / 2.0)
    return next(
        (n for n in range(cap) if window * tail_bound(ev, xn, yn, n).value <= 1e-3 * tol), cap
    )


# -- positivity suite ---------------------------------------------------------------------

def suite_positivity(ctx: DunklContext):
    d = ctx.dimension
    if not ctx.k.is_nonnegative:
        return [_skipped_row(
            "kernel-nonnegative-on-grid", POSITIVITY_TOL,
            "nonnegativity is only claimed for nonnegative real weights",
        )]
    # the degree the signs suite's bound picks in d = 2, so there the two share E_n's tables
    n_trunc = max(ctx.degree, 18)
    x_axis, y_axis = (5, 7) if d <= 2 else (3, 5)
    ev = make_evaluator(ctx, n_trunc)
    radius = certified_radius(ev, POSITIVITY_TOL / 2, 1.5)
    span = min(radius * 0.95 / math.sqrt(d), 2.0)
    xs = _grid_points(d, span, x_axis)
    ys = _grid_points(d, min(1.5 / math.sqrt(d), 2.0), y_axis)
    rep = positivity_scan(ev, _orbit_representatives(xs, ctx.group), ys)
    note = (
        f"min {rep.min_value:.3g} over {len(xs) * len(ys)} points, "
        f"|x| <= {span * math.sqrt(d):.3g} (certified radius {radius:.3g})"
    )
    row = _residual_row("kernel-nonnegative-on-grid", [-rep.min_value], POSITIVITY_TOL, note=note)
    if not row.passed:
        x, y = (", ".join(f"{float(t):.6g}" for t in point) for point in rep.min_point)
        row = row._replace(note=f"{note}; minimum at x = ({x}), y = ({y})")
    return [row, _residual_row("kernel-real-for-real-weight", [rep.max_abs_imag], 1e-12)]


def _grid_points(d, span, per_axis):
    """The product grid axis^d in itertools.product's order, axis = span
    m / (per_axis - 1) for m = 1 - per_axis, 3 - per_axis, ..., per_axis -
    1: per_axis equally spaced points on [-span, span], symmetric under
    negation in floats too."""
    if span == 0:
        return [(0.0,) * d]
    axis = [span * (m / (per_axis - 1)) for m in range(1 - per_axis, per_axis, 2)]
    return list(itertools.product(axis, repeat=d))


def _orbit_representatives(points, group):
    """The first point, in the order of points, of each orbit of G_grid:
    the elements of the group that are signed permutations, which map
    every product grid with a negation-symmetric axis (_grid_points) onto
    itself, exactly in floats.  As E_n(gx, gy) = E_n(x, y) and the half-heat
    flow commutes with orthogonal maps, L^(N)(gx, gy) = L^(N)(x, y) at
    every truncation, and the tail bound reads only |x| and |y|; so the
    minimum of L^(N) - tail over the grid in x times a product grid in y is
    its minimum over these representatives times the whole y grid."""
    signed = [sp for sp in group.signed_permutations if sp is not None]
    seen, reps = set(), []
    for x in points:
        if x not in seen:
            reps.append(x)
            seen.update(tuple(s * x[p] for p, s in zip(perm, signs)) for perm, signs in signed)
    return reps


# -- driver ----------------------------------------------------------------------------------

def run_suite(ctx: DunklContext, suite: str, seed=0) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    report = SuiteReport(suite, ctx.name, ctx.group.order)
    if suite in ("exact", "all"):
        report.results.extend(suite_exact(ctx, seed))
    if suite in ("series", "all"):
        report.results.extend(suite_series(ctx, seed))
    if suite in ("quadrature", "all"):
        report.results.extend(suite_quadrature(ctx, seed))
    if suite in ("signs", "all"):
        report.results.extend(suite_signs(ctx))
    if suite in ("positivity", "all"):
        report.results.extend(suite_positivity(ctx))
    return report
