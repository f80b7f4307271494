"""The integer tables of operators against a plain Fraction reference.

The reference keeps every coefficient a Fraction or ComplexRational: H_n x^nu
is sum_g lam_n(g) x^nu o g through act_on_polynomial (or the dense inverse of
W_n at a fallback degree), and V is the degree recursion in Polynomial
arithmetic.  The package stores both as integer numerators over one
denominator; every value it hands out must equal the reference exactly, with
the same coefficient types.
"""
import json
import math
import random
import zlib
from fractions import Fraction

import pytest

from dunkl.cli import main
from dunkl.config import build_bundle, load_context, polynomial_to_literal, save_context
from dunkl.exact import ComplexRational, invert_matrix
from dunkl.operators import (
    _apply_W,
    _vk_monomial,
    apply_H,
    homogeneous_kernel,
    intertwine,
    make_context,
    monomial_basis,
    solve_H,
    solves_row_identity,
)
from dunkl.poly import Polynomial, combination
from dunkl.reflection_groups import (
    act_on_polynomial,
    build_root_system,
    generate_group,
    root_orbits,
    select_positive,
    validate_multiplicity,
)

# name -> (family, keyword arguments, degree reached)
SYSTEMS = {
    "B2": ("B", dict(d=2), 6),
    "A3": ("A", dict(d=4), 4),
    "B3": ("B", dict(d=3), 4),
    "D4": ("D", dict(d=4), 3),
    "Z2^3": ("Z2^d", dict(d=3), 4),
    "I2(4)": ("I2", dict(m=4), 6),
    "G2": ("G2", {}, 4),
}
# negative weights, one per orbit, whose class system is singular at the
# listed degrees while W_n stays invertible (A3 has no such small weight)
NEGATIVE = {
    "A3": ((Fraction(-1, 5),), []),
    "B2": ((Fraction(-1, 4), Fraction(-1, 3)), [1]),
    "B3": ((Fraction(-1, 4), Fraction(-1, 2)), [3]),
    "D4": ((Fraction(-1, 3),), [2]),
    "Z2^3": ((Fraction(-1, 4),) * 3, [1]),
    "I2(4)": ((Fraction(-1, 4), Fraction(-1, 3)), [1]),
    "G2": ((Fraction(-1, 4), Fraction(-1, 4)), [3]),
}


def _weights(name, kind, orbits, rng):
    if kind == "real":
        return [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in orbits]
    if kind == "negative":
        return list(NEGATIVE[name][0])
    return [
        ComplexRational(Fraction(rng.randint(1, 5), 4), Fraction(rng.randint(-3, 3), 5))
        for _ in orbits
    ]


def _context(name, kind):
    family, kw, _ = SYSTEMS[name]
    seed = zlib.crc32(f"{name}:{kind}".encode())
    pos = select_positive(build_root_system(family, **kw))
    orbits = root_orbits(pos.base)
    k = validate_multiplicity(pos, _weights(name, kind, orbits, random.Random(seed)), orbits)
    return make_context(generate_group(pos), pos, k)


def _reference_columns(ctx, n):
    """{nu: H_n x^nu} in Fractions, for a degree the package has solved."""
    d = ctx.dimension
    h = ctx.h_cache[n]
    basis = monomial_basis(d, n)
    if h is None:
        images = [_apply_W(ctx, n, Polynomial.monomial(d, nu)) for nu in basis]
        rows = invert_matrix([[w.terms.get(mu, 0) for w in images] for mu in basis])
        return {
            nu: Polynomial(d, {mu: row[j] for mu, row in zip(basis, rows)})
            for j, nu in enumerate(basis)
        }
    columns = {}
    for nu in basis:
        mono = Polynomial.monomial(d, nu)
        column = Polynomial.zero(d)
        for g, c in enumerate(h.coefficients):
            if c:
                column = column + act_on_polynomial(ctx.group, g, mono) * c
        columns[nu] = column
    return columns


def _reference_v(ctx, degree):
    """{nu: V(x^nu)} for |nu| <= degree, by the recursion in Fractions."""
    d = ctx.dimension
    v = {(0,) * d: Polynomial.constant(d, Fraction(1))}
    for n in range(1, degree + 1):
        columns = _reference_columns(ctx, n)
        for nu in monomial_basis(d, n):
            acc = Polynomial.zero(d)
            for j in range(d):
                if nu[j]:
                    lower = nu[:j] + (nu[j] - 1,) + nu[j + 1 :]
                    acc = acc + Polynomial.variable(d, j) * v[lower] * nu[j]
            v[nu] = combination(d, ((columns[mu], c) for mu, c in acc.terms.items()))
    return v


def _same(a, b):
    """Equal values with the same coefficient types, as a literal shows them."""
    return a == b and polynomial_to_literal(a) == polynomial_to_literal(b)


@pytest.mark.parametrize("kind", ["real", "negative", "complex"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_integer_tables_match_fraction_reference(name, kind):
    ctx = _context(name, kind)
    top = SYSTEMS[name][2]
    ctx.prepare(top)
    d = ctx.dimension
    rng = random.Random(5)
    reference = _reference_v(ctx, top)
    for n in range(1, top + 1):
        columns = _reference_columns(ctx, n)
        for nu, column in columns.items():
            assert _same(apply_H(ctx, n, Polynomial.monomial(d, nu)), column)
    for nu, v in reference.items():
        assert _same(_vk_monomial(ctx, nu), v)
    z = ComplexRational(Fraction(2, 3), Fraction(-1, 5))
    for coeff in (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)), lambda: z * rng.randint(1, 3)):
        p = Polynomial(d, {nu: coeff() for nu in reference if rng.random() < 0.5})
        want = combination(d, ((reference[nu], c) for nu, c in p.terms.items()))
        assert _same(intertwine(ctx, p), want)
    x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
    for n in range(top + 1):
        for nu, c in homogeneous_kernel(ctx, n, x).terms.items():
            assert c == reference[nu].evaluate(x) / math.prod(map(math.factorial, nu))
    # the float shadow runs the same recursion on the rounded columns; a
    # coefficient that cancels exactly may leave roundoff there
    shadow = ctx.float_shadow(top)
    for nu, v in reference.items():
        got = _vk_monomial(shadow, nu).terms
        scale = max(abs(complex(c)) for c in v.terms.values())
        for mu in set(got) | set(v.terms):
            assert abs(got.get(mu, 0) - complex(v.terms.get(mu, 0))) <= 1e-9 * scale


def test_reference_cases_cover_fallback_degrees():
    for name, (_, fallbacks) in NEGATIVE.items():
        assert _context(name, "negative").prepare(SYSTEMS[name][2]).fallback_degrees == fallbacks


def _all_rows_hold(ctx, n, lam):
    """Reference: the row identity of solve_H at every element."""
    group = ctx.group
    for h in range(group.order):
        total = (n + ctx.gamma) * lam[h]
        for _, ka, sidx in ctx.reflections:
            total = total - ka * lam[group.multiply(h, sidx)]
        if total != (1 if h == group.identity_index else 0):
            return False
    return True


@pytest.mark.parametrize("name", ["B2", "B3", "G2"])
def test_row_check_per_class_agrees_with_every_row(name):
    ctx = _context(name, "real")
    group = ctx.group
    for n in (1, 2, 3):
        lam = list(solve_H(ctx, n).coefficients)
        assert solves_row_identity(ctx, n, lam) and _all_rows_hold(ctx, n, lam)
        for c in range(len(group.class_representatives)):
            # a class function off by 1/7 on one class
            moved = [v + Fraction(1, 7) if group.class_of[g] == c else v for g, v in enumerate(lam)]
            assert not solves_row_identity(ctx, n, moved) and not _all_rows_hold(ctx, n, moved)
        for g in range(group.order):
            if sum(1 for c in group.class_of if c == group.class_of[g]) > 1:
                # one element off: no longer a class function
                moved = lam[:g] + [lam[g] + 1] + lam[g + 1 :]
                assert not solves_row_identity(ctx, n, moved)
                assert not _all_rows_hold(ctx, n, moved)


def test_cache_with_lambda_that_differs_inside_a_class_exits_2(tmp_path, capsys):
    bundle = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 4})
    bundle.ctx.prepare(4)
    path = tmp_path / "b2.ctx.json"
    save_context(bundle, path)
    assert load_context(path).ctx.h_cache[2] == bundle.ctx.h_cache[2]
    group = bundle.group
    # the last element of a class with more than one member
    g = max(g for g, c in enumerate(group.class_of) if group.class_of.count(c) > 1)
    cache = json.loads(path.read_text())
    cache["lambdas"]["2"][g] = "1/3"
    path.write_text(json.dumps(cache))
    capsys.readouterr()
    assert main(["intertwine", "--context", str(path), "--poly", "x1^2"]) == 2
    err = capsys.readouterr().err
    assert "lambda_2" in err and "Traceback" not in err


def test_columns_rebuilt_from_a_cache_are_checked(tmp_path, monkeypatch):
    """A context loaded from a cache rebuilds H_n's columns from lam_n on
    first use, and checks W_n H_n = id on them as solve_H does."""
    from dunkl import operators

    bundle = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 3})
    bundle.ctx.prepare(3)
    path = tmp_path / "b2.ctx.json"
    save_context(bundle, path)
    x1sq = Polynomial.monomial(2, (2, 0))
    assert apply_H(load_context(path).ctx, 2, x1sq) == apply_H(bundle.ctx, 2, x1sq)

    build = operators._group_columns

    def off_by_one(ctx, n, h):
        cols, den = build(ctx, n, h)
        nu = min(cols)
        mu = min(cols[nu])
        return {**cols, nu: {**cols[nu], mu: cols[nu][mu] + 1}}, den

    monkeypatch.setattr(operators, "_group_columns", off_by_one)
    with pytest.raises(operators.NotInMStarError):
        apply_H(load_context(path).ctx, 2, x1sq)
