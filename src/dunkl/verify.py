"""Verification suites: exact identities, series control, quadrature identities,
sign conventions, and positivity.

Each check produces one result row with the worst residual seen and the
tolerance it was held to; exact checks carry tolerance 0 and a residual that
counts failures.  The signs suite runs the convention-forked identities
(Gaussian image, Fourier representation, derivative relation) under both
signs, uses the weight-zero closed forms as arbiter, and reports which
convention validates rather than silently picking one.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .config import SUITES, ContextBundle
from .exact import real_part
from .kernel import (
    KernelEvaluator,
    certified_radius,
    convolution_check,
    derivative_relation_check,
    fourier_check,
    gaussian_image_check,
    heat_image,
    hermite_piece,
    lk_grid,
    lk_mass,
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
    _norm,
    apply_H,
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
    combination,
    fischer,
    fischer_via_gaussian,
    heat_half,
    hermite,
    inverse_heat_half,
)
from .quad import (
    fourier_quadrature,
    gauss_rule,
    gaussian_moment,
    integrate,
)
from .reflection_groups import (
    act_on_polynomial,
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
        rows = []
        for r in self.results:
            row = r._asdict()
            row["max_residual"] = float(row["max_residual"])
            row["tolerance"] = float(row["tolerance"])
            row["passed"] = bool(row["passed"])
            rows.append(row)
        return {
            "suite": self.suite,
            "context": self.name,
            "group_order": self.group_order,
            "passed": bool(self.passed),
            "results": rows,
        }


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


def _exact_row(name, failures, checked, note=""):
    return CheckResult(
        identity=name,
        max_residual=float(failures),
        tolerance=0.0,
        passed=failures == 0,
        note=note or f"{checked} exact comparisons",
    )


# -- exact suite -------------------------------------------------------------------

def suite_exact(bundle: ContextBundle, seed=0):
    rng = random.Random(seed)
    ctx = bundle.ctx
    group = bundle.group
    d = group.dimension
    results = []

    fails = checked = 0
    for alpha in bundle.positives.positives:
        for _ in range(3):
            x = _rand_point(rng, d)
            checked += 1
            if reflect(alpha, reflect(alpha, x)) != x:
                fails += 1
    results.append(_exact_row("reflection-involution", fails, checked))

    fails = checked = 0
    order = group.order
    if order <= 48:
        for a in range(order):
            for b in range(order):
                for c in range(order):
                    checked += 1
                    if group.multiply(group.multiply(a, b), c) != group.multiply(
                        a, group.multiply(b, c)
                    ):
                        fails += 1
    inverses = [group.inverse_index(i) for i in range(order)]
    checked += order
    fails += sum(1 for i in inverses if inverses.count(i) != 1)
    results.append(_exact_row("group-axioms", fails, checked))

    fails = checked = 0
    p = _rand_poly(rng, d, 3)
    for a in range(order):
        for b in range(order):
            checked += 1
            lhs = act_on_polynomial(group, a, act_on_polynomial(group, b, p))
            rhs = act_on_polynomial(group, group.multiply(b, a), p)
            if lhs != rhs:
                fails += 1
    results.append(_exact_row("action-composition", fails, checked))

    gamma = 0
    for alpha in bundle.positives.positives:
        gamma = gamma + bundle.k.value(alpha)
    results.append(_exact_row("gamma-is-positive-sum", int(gamma != ctx.gamma), 1))

    fails = checked = 0
    for _ in range(3):
        q = _rand_poly(rng, d, 5)
        for i in range(d):
            for j in range(i + 1, d):
                ei = tuple(1 if t == i else 0 for t in range(d))
                ej = tuple(1 if t == j else 0 for t in range(d))
                checked += 1
                if dunkl_apply(ctx, ei, dunkl_apply(ctx, ej, q)) != dunkl_apply(
                    ctx, ej, dunkl_apply(ctx, ei, q)
                ):
                    fails += 1
    results.append(_exact_row("dunkl-commutativity", fails, checked))

    fails = checked = 0
    for n in range(1, 6):
        for nu in monomial_basis(d, n)[: 2 * d]:
            mono = Polynomial.monomial(d, nu)
            w1 = mono * (n + ctx.gamma) - operator_A(ctx, mono)
            w2 = Polynomial.zero(d)
            for j in range(d):
                ej = tuple(1 if t == j else 0 for t in range(d))
                w2 = w2 + Polynomial.variable(d, j) * dunkl_apply(ctx, ej, mono)
            checked += 1
            if w1 != w2:
                fails += 1
    results.append(_exact_row("euler-operator-identity", fails, checked))

    fails = checked = 0
    for n in range(1, min(bundle.degree, 8) + 1):
        lam = solve_H(ctx, n)  # None at a fallback degree: read its stored column
        for nu in monomial_basis(d, n):
            mono = Polynomial.monomial(d, nu)
            images = ((act_on_polynomial(group, g, mono), c) for g, c in enumerate(lam or ()) if c)
            column = apply_H(ctx, n, mono) if lam is None else combination(d, images)
            back = column * (n + ctx.gamma) - operator_A(ctx, column)
            checked += 1
            if back != mono:
                fails += 1
    results.append(_exact_row("h-inverts-w", fails, checked))

    fails = checked = 0
    for n in range(0, 7):
        for nu in monomial_basis(d, n):
            mono = Polynomial.monomial(d, nu)
            vp = intertwine(ctx, mono)
            for j in range(d):
                ej = tuple(1 if t == j else 0 for t in range(d))
                checked += 1
                if dunkl_apply(ctx, ej, vp) != intertwine(ctx, mono.partial(j)):
                    fails += 1
    results.append(_exact_row("intertwining-identity", fails, checked))

    one = Polynomial.constant(d, Fraction(1))
    fails = int(intertwine(ctx, one) != one)
    p = _rand_poly(rng, d, 5)
    vp = intertwine(ctx, p)
    fails += int(vp.degree != p.degree)
    fails += int(intertwine_inverse(ctx, vp) != p)
    if bundle.k.is_real:
        fails += sum(
            1
            for c in vp.terms.values()
            if not isinstance(c, (int, Fraction)) and c.im != 0
        )
    results.append(_exact_row("intertwine-unit-degree-inverse-real", fails, 4))

    fails = checked = 0
    for n in range(0, 5):
        biv = homogeneous_kernel_bivariate(ctx, n)
        swapped = Polynomial(
            2 * d, {nu[d:] + nu[:d]: c for nu, c in biv.terms.items()}
        )
        checked += 1
        if biv != swapped:
            fails += 1
    results.append(_exact_row("en-symmetry", fails, checked))

    fails = checked = 0
    x = _rand_point(rng, d)
    for n in range(0, 5):
        base = homogeneous_kernel(ctx, n, x)
        for gi in range(order):
            checked += 1
            moved = homogeneous_kernel(ctx, n, mat_vec(group.elements[gi], x))
            if moved != act_on_polynomial(group, group.inverse_index(gi), base):
                fails += 1
        lam = Fraction(3, 2)
        checked += 1
        scaled = homogeneous_kernel(ctx, n, tuple(lam * t for t in x))
        if scaled != base * lam**n:
            fails += 1
        checked += 1
        # E_n(x, lam y): each term c y^nu scaled by lam^|nu|
        if Polynomial(d, {nu: c * lam ** sum(nu) for nu, c in base.terms.items()}) != base * lam**n:
            fails += 1
    results.append(_exact_row("en-equivariance-homogeneity", fails, checked))

    fails = checked = 0
    skipped = []
    if order <= 48:  # the oracle's O(n |G|^2) products: 0.6 s on B3, 18 s on D4 (|G| = 192)
        for n in range(0, 4):
            # the oracle multiplies the lam tables of every degree up to n
            if any(solve_H(ctx, i) is None for i in range(1, n + 1)):
                skipped.append(n)
                continue
            checked += 1
            if en_expansion_oracle(ctx, n, x) != homogeneous_kernel(ctx, n, x):
                fails += 1
    note = ""
    if order > 48:
        note = f"0 exact comparisons; skipped at |G| = {order} > 48"
    elif skipped:
        note = (
            f"{checked} exact comparisons; degrees {skipped} skipped: the expansion "
            f"multiplies lam_i for every i <= n, and degree {skipped[0]} is a "
            f"fallback degree with no lam table"
        )
    results.append(_exact_row("en-product-expansion-oracle", fails, checked, note))

    fails = checked = 0
    for _ in range(4):
        q = _rand_poly(rng, d, 8)
        checked += 1
        if inverse_heat_half(heat_half(q)) != q:
            fails += 1
        r = _rand_poly(rng, d, 6)
        checked += 1
        if fischer(q, r) != fischer(r, q):
            fails += 1
        for i in range(d):
            checked += 1
            if fischer(Polynomial.variable(d, i) * q, r) != fischer(q, r.partial(i)):
                fails += 1
    results.append(_exact_row("heat-roundtrip-fischer", fails, checked))

    fails = checked = 0
    xq = _rand_point(rng, d, span=2, den=3)
    yq = _rand_point(rng, d, span=2, den=3)
    ev = make_evaluator(ctx, min(bundle.degree, 8))
    for n in range(ev.n_trunc + 1):
        checked += 1
        if heat_image(ev, n, xq).evaluate(yq) != hermite_piece(ev, n, xq, yq):
            fails += 1
    results.append(_exact_row("kernel-two-path-per-degree", fails, checked))

    rep = symmetry_scan(ev, [xq])
    results.append(_exact_row("kernel-equivariance-parity", len(rep.failures), rep.checked))
    return results


# -- series suite -------------------------------------------------------------------

SERIES_TOL = 1e-8  # truncation tolerance of the ek-symmetry row
POSITIVITY_TOL = 1e-8  # how far below 0 the kernel minus its tail may read


def suite_series(bundle: ContextBundle, seed=0):
    rng = random.Random(seed)
    ctx = bundle.ctx
    d = ctx.dimension
    n_trunc = bundle.degree
    ev = make_evaluator(ctx, n_trunc)
    results = []

    val = dunkl_kernel(ctx, tuple(Fraction(1, 2) for _ in range(d)), (0,) * d, tol=1e-12)
    results.append(
        CheckResult("ek-at-zero", abs(complex(val.value) - 1.0), 0.0, val.value == 1)
    )

    worst = 0.0
    for _ in range(3):
        xf = tuple(rng.uniform(-0.4, 0.4) for _ in range(d))
        yf = tuple(rng.uniform(-0.9, 0.9) for _ in range(d))
        a = dunkl_kernel(ctx, xf, yf, tol=SERIES_TOL)
        b = dunkl_kernel(ctx, yf, xf, tol=SERIES_TOL)
        worst = max(worst, abs(complex(a.value) - complex(b.value)))
    results.append(CheckResult("ek-symmetry", worst, 2 * SERIES_TOL, worst <= 2 * SERIES_TOL))

    if bundle.k.is_zero:
        worst = 0.0
        for _ in range(4):
            xf = tuple(rng.uniform(-1.0, 1.0) for _ in range(d))
            yf = tuple(rng.uniform(-1.0, 1.0) for _ in range(d))
            got = dunkl_kernel(ctx, xf, yf, tol=1e-12).value
            want = math.exp(sum(a * b for a, b in zip(xf, yf)))
            worst = max(worst, abs(complex(got) - want))
        results.append(CheckResult("ek-weight-zero-exponential", worst, 1e-10, worst <= 1e-10))
        # x within the radius where L^(N)'s tail is below 1e-10 for |y| <= sqrt(d)
        worst = 0.0
        side = certified_radius(ev, 1e-10, math.sqrt(d)) / math.sqrt(d)
        for _ in range(4):
            xf = tuple(rng.uniform(-side, side) for _ in range(d))
            yf = tuple(rng.uniform(-1.0, 1.0) for _ in range(d))
            got = lk_series_value(ev, xf, yf)
            want = math.exp(
                sum(a * b for a, b in zip(xf, yf)) - sum(a * a for a in xf) / 2
            )
            worst = max(worst, abs(complex(got) - want))
        results.append(
            CheckResult("lk-weight-zero-closed-form", worst, 1e-8, worst <= 1e-8)
        )

    over = 0.0
    for n, row in ctx.delta_table:
        over = max(over, row - ctx.delta_hat)
    results.append(CheckResult("delta-table-bounded", over, 0.0, over <= 0.0))

    worst = 0.0
    for _ in range(2):
        xf = tuple(rng.uniform(-0.5, 0.5) for _ in range(d))
        yf = tuple(rng.uniform(-1.0, 1.0) for _ in range(d))
        xn = math.sqrt(sum(t * t for t in xf))
        yn = math.sqrt(sum(t * t for t in yf))
        u, c = growth_envelope(ctx, xn)
        for n in range(n_trunc + 1):
            lap = homogeneous_kernel(ctx, n, xf).to_float()
            for m in range(n // 2 + 1):
                got = abs(lap.evaluate(yf))
                bound = c**m / math.factorial(n - 2 * m) * u**n * yn ** (n - 2 * m)
                worst = max(worst, got - bound * (1 + 1e-9) - 1e-300)
                lap = lap.laplacian()
    results.append(
        CheckResult("per-term-laplacian-bounds", max(worst, 0.0), 0.0, worst <= 0.0)
    )

    bad = 0.0
    for _ in range(3):
        xn = rng.uniform(0.0, 0.5)
        yn = rng.uniform(0.0, 1.5)
        prev = math.inf
        for n in range(max(0, n_trunc - 4), n_trunc + 1):
            tb = tail_bound(ev, xn, yn, n).value
            if tb < 0 or tb > prev * (1 + 1e-12):
                bad += 1
            prev = tb
    results.append(CheckResult("tail-monotone-nonnegative", bad, 0.0, bad == 0))

    worst = 0.0
    for _ in range(3):
        xf = tuple(rng.uniform(-0.3, 0.3) for _ in range(d))
        yf = tuple(rng.uniform(-0.8, 0.8) for _ in range(d))
        xn = math.sqrt(sum(t * t for t in xf))
        yn = math.sqrt(sum(t * t for t in yf))
        n0 = max(0, n_trunc - 5)
        computed = 0.0
        for n in range(n0 + 1, n_trunc + 1):
            computed += abs(complex(heat_image(ev, n, xf).evaluate(yf)))
        slack = tail_bound(ev, xn, yn, n0).value - computed
        worst = min(worst, slack)
    results.append(
        CheckResult(
            "tail-dominates-computed-terms", float(max(-worst, 0.0) + 0.0), 0.0, worst >= 0.0
        )
    )

    # the series path against lk_grid, the Hermite path kernel-grid prints
    xs, ys = [], []
    for _ in range(6):
        xs.append(tuple(rng.uniform(-1.0, 1.0) for _ in range(d)))
        ys.append(tuple(rng.uniform(-1.0, 1.0) for _ in range(d)))
    grid = lk_grid(ev, xs, ys)
    worst = max(
        abs(complex(lk_series_value(ev, x, y)) - complex(grid[i, i]))
        for i, (x, y) in enumerate(zip(xs, ys))
    )
    results.append(CheckResult("kernel-two-path-float", worst, 1e-9, worst <= 1e-9))
    return results


# -- quadrature suite ------------------------------------------------------------------

def suite_quadrature(bundle: ContextBundle, seed=0):
    rng = random.Random(seed)
    ctx = bundle.ctx
    d = ctx.dimension
    n_trunc = bundle.degree
    ev = make_evaluator(ctx, n_trunc)
    # one rule for the rows that test the rule itself and for phi_x_apply,
    # whose integrand L^(N) p has degree up to N + min(6, N)
    rule = gauss_rule(d, max(5, (n_trunc + min(6, n_trunc) + 2) // 2))
    results = []

    worst = 0.0
    for n in range(0, min(rule.exact_degree, 12) + 1):
        for nu in monomial_basis(d, n)[: 3 * d]:
            got = integrate(Polynomial.monomial(d, nu, 1.0), rule)
            want = gaussian_moment(nu)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    results.append(CheckResult("rule-moment-exactness", worst, 1e-12, worst <= 1e-12))

    # rounding to even is odd-symmetric, so the negated keys are the keys of -z
    keys = np.round(rule.nodes, 10)
    node_set = set(map(tuple, keys.tolist()))
    missing = sum(1 for z in (-keys).tolist() if tuple(z) not in node_set)
    results.append(CheckResult("rule-negation-symmetry", missing, 0.0, missing == 0))

    worst = 0.0
    for _ in range(10):
        xf = tuple(rng.uniform(-1.5, 1.5) for _ in range(d))
        worst = max(worst, abs(complex(lk_mass(ev, xf)) - 1.0))
    results.append(CheckResult("kernel-unit-mass", worst, 1e-12, worst <= 1e-12))

    worst = 0.0
    pairs = 0
    for n in range(0, 5):
        for nu in monomial_basis(d, n):
            for mm in range(0, 5 - n):
                for mu in monomial_basis(d, mm):
                    p = Polynomial.monomial(d, nu)
                    qq = Polynomial.monomial(d, mu)
                    want = fischer(p, qq)
                    diff = fischer_via_gaussian(p, qq) - want
                    worst = max(worst, float(abs(diff) / max(1, abs(want))))
                    pairs += 1
    results.append(
        CheckResult(
            "fischer-gaussian-agreement", worst, 1e-10, worst <= 1e-10,
            note=f"{pairs} monomial pairs",
        )
    )

    worst = 0.0
    hs = [hermite(nu) for n in range(0, 5) for nu in monomial_basis(d, n)]
    vals = np.stack([h.evaluate_many(rule.nodes) for h in hs])
    gram = (vals * rule.weights[None, :]) @ vals.T
    worst = float(np.max(np.abs(gram - np.eye(len(hs)))))
    results.append(CheckResult("hermite-orthonormality", worst, 1e-10, worst <= 1e-10))

    worst = 0.0
    ps = [
        Polynomial.monomial(d, nu)
        for n in range(min(6, n_trunc) + 1)
        for nu in monomial_basis(d, n)[:3]
    ]
    for _ in range(3):
        xf = tuple(rng.uniform(-0.8, 0.8) for _ in range(d))
        for p, got in zip(ps, phi_x_apply(ev, xf, ps, rule)):
            want = complex(intertwine(ctx, inverse_heat_half(p)).evaluate(xf))
            worst = max(worst, abs(complex(got) - want))
    results.append(
        CheckResult("represents-intertwine-of-heatflow", worst, 1e-9, worst <= 1e-9)
    )

    worst = 0.0
    for _ in range(3):
        xf = tuple(rng.uniform(-0.8, 0.8) for _ in range(d))
        s_route, q_route = phi_x_norm(ev, xf)
        worst = max(worst, abs(s_route - q_route) / max(s_route, 1e-30))
    results.append(CheckResult("functional-norm-two-routes", worst, 1e-6, worst <= 1e-6))

    worst = 0.0
    radius = certified_radius(ev, 1e-6, 1.0) * 0.9
    for _ in range(5):
        xf = tuple(rng.uniform(-radius / math.sqrt(d), radius / math.sqrt(d)) for _ in range(d))
        yf = tuple(rng.uniform(-0.7, 0.7) for _ in range(d))
        worst = max(worst, convolution_check(ev, xf, yf))
    results.append(
        CheckResult(
            "exponential-convolution", worst, 1e-6, worst <= 1e-6,
            note=f"{tail_kind(ctx)} |x| radius {radius:.4g}",
        )
    )

    # the closed-form transform the signs suite's Fourier rows rest on,
    # against a 40-point rule on z^n e^{-iyz}, which is not a polynomial
    worst = 0.0
    line = gauss_rule(1, 40)
    for yv in (0.0, 0.7, 1.9):
        y = (yv,) + (0.0,) * (d - 1)
        for n in range(6):
            got = fourier_quadrature(Polynomial.monomial(d, (n,) + (0,) * (d - 1)), y)
            want = integrate(lambda z: z[:, 0] ** n * np.exp(-1j * yv * z[:, 0]), line)
            worst = max(worst, abs(got - want))
    results.append(CheckResult("gaussian-self-transform", worst, 1e-10, worst <= 1e-10))
    return results


# -- signs suite ------------------------------------------------------------------------

def suite_signs(bundle: ContextBundle):
    ctx = bundle.ctx
    d = ctx.dimension
    results = []
    zero_k = validate_multiplicity(bundle.positives, Fraction(0), bundle.k.orbits)
    zero_ctx = make_context(bundle.group, bundle.positives, zero_k)
    if d <= 2:
        x = tuple([Fraction(3, 5)] + [Fraction(-1, 4)] * (d - 1))
        y = tuple([Fraction(9, 10)] + [Fraction(1, 3)] * (d - 1))
    else:
        x = tuple([Fraction(2, 5)] + [Fraction(1, 5)] * (d - 1))
        y = tuple([Fraction(1, 2)] + [Fraction(1, 4)] * (d - 1))
    winner_tol = 1e-8 if d <= 2 else 1e-6
    # one truncation degree for both evaluators, from the certified weight-zero bound
    n_trunc = _tail_degree(KernelEvaluator(zero_ctx, 0), x, y, winner_tol, DEGREE_CAP)
    ev0 = make_evaluator(zero_ctx, n_trunc)

    re_ok = all(real_part(v) >= 0 for v in bundle.k.by_root.values())
    ev_k = make_evaluator(ctx, n_trunc) if re_ok else None

    for name, runner in (
        (
            "gaussian-image",
            lambda e, tol: gaussian_image_check(e, x, y, _tail_degree(e, x, y, tol, 2 * n_trunc)),
        ),
        ("fourier-representation", lambda e, tol: fourier_check(e, x, y)),
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
            resk = runner(ev_k, 1e-6)
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
            results.append(
                CheckResult(
                    identity=f"{name}-convention-at-context-weight",
                    max_residual=0.0,
                    tolerance=0.0,
                    passed=True,
                    note="skipped: weight has entries with negative or complex real part",
                )
            )
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

def suite_positivity(bundle: ContextBundle):
    ctx = bundle.ctx
    d = ctx.dimension
    results = []
    if not bundle.k.is_nonnegative:
        results.append(
            CheckResult(
                identity="kernel-nonnegative-on-grid",
                max_residual=0.0,
                tolerance=POSITIVITY_TOL,
                passed=True,
                note="skipped: nonnegativity is only claimed for nonnegative real weights",
            )
        )
        return results
    # the degree the signs suite's bound picks in d = 2, so there the two share V tables
    n_trunc = max(bundle.degree, 18)
    x_axis, y_axis = (5, 7) if d <= 2 else (3, 5)
    ev = make_evaluator(ctx, n_trunc)
    radius = certified_radius(ev, POSITIVITY_TOL / 2, 1.5)
    span = min(radius * 0.95 / math.sqrt(d), 2.0)
    xs = _grid_points(d, span, x_axis)
    ys = _grid_points(d, min(1.5 / math.sqrt(d), 2.0), y_axis)
    rep = positivity_scan(ev, xs, ys)
    results.append(
        CheckResult(
            identity="kernel-nonnegative-on-grid",
            max_residual=max(0.0, -rep.min_value),
            tolerance=POSITIVITY_TOL,
            passed=rep.min_value >= -POSITIVITY_TOL,
            note=(
                f"min {rep.min_value:.3g} over {rep.points} points, "
                f"|x| <= {span * math.sqrt(d):.3g} (certified radius {radius:.3g})"
            ),
        )
    )
    results.append(
        CheckResult(
            identity="kernel-real-for-real-weight",
            max_residual=rep.max_abs_imag,
            tolerance=1e-12,
            passed=rep.max_abs_imag <= 1e-12,
        )
    )
    return results


def _grid_points(d, span, per_axis):
    if span == 0:
        return [(0.0,) * d]
    axis = [(-span + 2 * span * i / (per_axis - 1)) for i in range(per_axis)]
    return list(itertools.product(axis, repeat=d))


# -- driver ----------------------------------------------------------------------------------

def run_suite(bundle: ContextBundle, suite: str, seed=0) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    report = SuiteReport(suite, bundle.name, bundle.group.order)
    if suite in ("exact", "all"):
        report.results.extend(suite_exact(bundle, seed))
    if suite in ("series", "all"):
        report.results.extend(suite_series(bundle, seed))
    if suite in ("quadrature", "all"):
        report.results.extend(suite_quadrature(bundle, seed))
    if suite in ("signs", "all"):
        report.results.extend(suite_signs(bundle))
    if suite in ("positivity", "all"):
        report.results.extend(suite_positivity(bundle))
    return report
