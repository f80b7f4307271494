"""The integer tables of operators against a plain Fraction reference.

The reference keeps every coefficient a Fraction or ComplexRational: H_n x^nu
is sum_g lam_n(g) x^nu o g through act_on_polynomial (or the dense inverse of
W_n at a fallback degree), V is the degree recursion in Polynomial
arithmetic, and V^{-1} on P_n is the dense inverse of that V.  The package
stores each as integer numerators over one denominator; every value it
hands out must equal the reference exactly, with the same coefficient types.
"""
import json
import math
import random
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from fraction_solve import fraction_invert_matrix
from test_operators import _apply_H, count_builds

from dunkl.cli import main
from dunkl.config import (
    ConfigError,
    build_bundle,
    load_context,
    polynomial_to_literal,
    save_context,
)
from dunkl.exact import ComplexRational, scalar_to_json
from dunkl.operators import (
    NotInMStarError,
    _e_table,
    _vk_table,
    homogeneous_kernel,
    intertwine,
    intertwine_inverse,
    make_context,
    monomial_basis,
    operator_A,
    _class_solve,
    solve_H,
)
from dunkl.poly import Polynomial, _polynomial, combination
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


def _apply_W(ctx, n, p):
    """W_n p = (n + gamma) p - A p."""
    return p * (n + ctx.gamma) - operator_A(ctx, p)


def _dense_inverse(d, n, image):
    """{nu: M^{-1} x^nu} in Fractions for the map M: x^nu -> image[nu] on P_n,
    read off the rows of its inverted matrix on the monomial basis."""
    basis = monomial_basis(d, n)
    rows = fraction_invert_matrix([[image[nu].terms.get(mu, 0) for nu in basis] for mu in basis])
    return {
        nu: Polynomial(d, {mu: row[j] for mu, row in zip(basis, rows)})
        for j, nu in enumerate(basis)
    }


def _reference_columns(ctx, n):
    """{nu: H_n x^nu} in Fractions, for a degree the package has solved."""
    d = ctx.dimension
    h = ctx.h_cache[n]
    basis = monomial_basis(d, n)
    if h is None:
        return _dense_inverse(d, n, {nu: _apply_W(ctx, n, Polynomial.monomial(d, nu)) for nu in basis})
    columns = {}
    for nu in basis:
        mono = Polynomial.monomial(d, nu)
        column = Polynomial.zero(d)
        for g, c in enumerate(h):
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


def _correctly_rounded(c):
    """The nearest float to a Fraction, or the complex of the nearest floats
    to a ComplexRational's parts: int / int true division rounds correctly."""
    if isinstance(c, ComplexRational):
        return complex(_correctly_rounded(c.real), _correctly_rounded(c.imag))
    return c.numerator / c.denominator


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
    h_tables = [solve_H(ctx, n) for n in range(1, top + 1)]
    for n, table in enumerate(h_tables, 1):
        columns = _reference_columns(ctx, n)
        for nu, column in columns.items():
            assert _same(_apply_H(table, Polynomial.monomial(d, nu)), column)
    for nu, v in reference.items():
        assert _same(_polynomial(ctx.dimension, _vk_table(ctx, nu)), v)
    z = ComplexRational(Fraction(2, 3), Fraction(-1, 5))
    for coeff in (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)), lambda: z * rng.randint(1, 3)):
        p = Polynomial(d, {nu: coeff() for nu in reference if rng.random() < 0.5})
        want = combination(d, ((reference[nu], c) for nu, c in p.terms.items()))
        assert _same(intertwine(ctx, p), want)
        assert intertwine_inverse(ctx, want) == p
        assert intertwine(ctx, intertwine_inverse(ctx, p)) == p
    # V^{-1} on each P_n against the dense Fraction inverse of the reference V:
    # one call per degree, on a polynomial that meets every monomial of P_n
    # with distinct coefficients
    for n in range(1, top + 1):
        inverse = _dense_inverse(d, n, reference)
        p = Polynomial(d, {nu: Fraction(2 * i + 1, i + 2) for i, nu in enumerate(inverse)})
        want = combination(d, ((inverse[nu], c) for nu, c in p.terms.items()))
        assert _same(intertwine_inverse(ctx, p), want)
    # every table of H_n is in lowest terms
    for cols, den in h_tables:
        parts = [den]
        for col in cols.values():
            for c in col.values():
                parts.extend((c.real, c.imag))
        assert math.gcd(*parts) == 1
    x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
    for n in range(top + 1):
        for nu, c in homogeneous_kernel(ctx, n, x).terms.items():
            assert c == reference[nu].evaluate(x) / math.prod(map(math.factorial, nu))
    # the rounded table is the exact one with each coefficient correctly
    # rounded once (a float, or a complex of two floats)
    for nu, v in reference.items():
        want = {mu: _correctly_rounded(c) for mu, c in v.terms.items()}
        got = _polynomial(d, _vk_table(ctx, nu), rounded=True).terms
        assert got == want
        assert all(type(got[mu]) is type(c) for mu, c in want.items())


@pytest.mark.parametrize("kind", ["real", "negative", "complex"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_e_tables_are_v_over_nu_factorial_in_lowest_terms(name, kind):
    # the one store of V: per degree, E_n's columns e_nu = V(x^nu) / nu! over
    # one denominator in lowest terms, every numerator an int or a Gaussian
    # integer, each column times nu! the reference V(x^nu)
    ctx = _context(name, kind)
    top = SYSTEMS[name][2]
    ctx.prepare(top)
    d = ctx.dimension
    reference = _reference_v(ctx, top)
    _e_table(ctx, top)
    assert sorted(ctx.vk_cache) == list(range(top + 1))
    for n, (cols, den) in ctx.vk_cache.items():
        assert list(cols) == monomial_basis(d, n)
        numerators = [c for col in cols.values() for c in col.values()]
        assert all(
            type(c) is int or (type(c) is ComplexRational and type(c.real) is type(c.imag) is int)
            for c in numerators
        )
        parts = [den]
        for c in numerators:
            parts.extend((c.real, c.imag))
        assert den > 0 and math.gcd(*parts) == 1
        for nu, col in cols.items():
            scale = Fraction(math.prod(map(math.factorial, nu)), den)
            assert Polynomial(d, {mu: c * scale for mu, c in col.items()}) == reference[nu]


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
def test_row_check_per_class_agrees_with_every_row(name, tmp_path):
    """The class solve, one row per conjugacy class, satisfies the row of
    every element; a table moved on one class or on one element satisfies
    some row no longer, and a cache that holds it is refused on load."""
    family, kw, _ = SYSTEMS[name]
    ctx = build_bundle({"family": family, **kw, "k": ["1/3", "5/2"], "N": 3})
    group = ctx.group
    ctx.prepare(3)
    path = tmp_path / "c.ctx.json"
    cache = save_context(ctx, path)
    assert load_context(path).h_cache == ctx.h_cache
    for n in (1, 2, 3):
        lam = list(_class_solve(ctx, n))
        assert _all_rows_hold(ctx, n, lam) and tuple(lam) == ctx.h_cache[n]
        to_load = []
        for c in range(len(group.class_representatives)):
            # a class function off by 1/7 on one class
            moved = [v + Fraction(1, 7) if group.class_of[g] == c else v for g, v in enumerate(lam)]
            assert not _all_rows_hold(ctx, n, moved)
            to_load.append(moved)
        for g in range(group.order):
            if group.class_of.count(group.class_of[g]) > 1:
                # one element off: no longer a class function
                moved = lam[:g] + [lam[g] + 1] + lam[g + 1 :]
                assert not _all_rows_hold(ctx, n, moved)
                if g == group.class_of.index(group.class_of[g]):
                    to_load.append(moved)  # the first element of each class
        for moved in to_load:
            lambdas = {**cache["lambdas"], str(n): [scalar_to_json(c) for c in moved]}
            path.write_text(json.dumps({**cache, "lambdas": lambdas}))
            with pytest.raises(ConfigError, match=f"lambda_{n} differs"):
                load_context(path)


def test_cache_with_lambda_that_differs_inside_a_class_exits_2(tmp_path, capsys):
    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 4})
    ctx.prepare(4)
    path = tmp_path / "b2.ctx.json"
    save_context(ctx, path)
    assert load_context(path).h_cache[2] == ctx.h_cache[2]
    group = ctx.group
    # the last element of a class with more than one member
    g = max(g for g, c in enumerate(group.class_of) if group.class_of.count(c) > 1)
    cache = json.loads(path.read_text())
    cache["lambdas"]["2"][g] = "1/3"
    path.write_text(json.dumps(cache))
    capsys.readouterr()
    assert main(["intertwine", "--context", str(path), "--poly", "x1^2"]) == 2
    err = capsys.readouterr().err
    assert "lambda_2" in err and "Traceback" not in err


def test_cache_whose_weight_was_edited_exits_2(tmp_path, capsys):
    # the lambda tables of k = (1/2, 3/2) kept under a config with another weight
    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 4})
    ctx.prepare(4)
    path = tmp_path / "b2.ctx.json"
    cache = save_context(ctx, path)
    config = {**cache["config"], "k": {"short": "1/2", "long": "5/2"}}
    path.write_text(json.dumps({**cache, "config": config}))
    capsys.readouterr()
    assert main(["lambda-table", "--context", str(path)]) == 2
    captured = capsys.readouterr()
    assert "cached lambda_1 differs" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_columns_rebuilt_from_a_cache_are_checked(tmp_path, monkeypatch):
    """A context loaded from a cache builds H_n's columns from the lam_n it
    read in solve_H, which checks W_n H_n = id on them as it does for a
    fresh solve."""
    from dunkl import operators

    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 3})
    ctx.prepare(3)
    path = tmp_path / "b2.ctx.json"
    save_context(ctx, path)
    x1sq = Polynomial.monomial(2, (2, 0))
    loaded = load_context(path)
    assert _apply_H(solve_H(loaded, 2), x1sq) == _apply_H(solve_H(ctx, 2), x1sq)

    build = operators._group_columns

    def off_by_one(ctx, n, h):
        cols, den = build(ctx, n, h)
        nu = min(cols)
        mu = min(cols[nu])
        return {**cols, nu: {**cols[nu], mu: cols[nu][mu] + 1}}, den

    monkeypatch.setattr(operators, "_group_columns", off_by_one)
    with pytest.raises(operators.NotInMStarError):
        solve_H(load_context(path), 2)


# configs -> the fallback degrees of degrees 1..N
PREPARED = {
    "b2": ({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 6}, []),
    "b2_fallback": ({"family": "B", "d": 2, "k": {"short": "-3/4", "long": "1/2"}, "N": 5}, [1, 3]),
    "d4": ({"family": "D", "d": 4, "k": "1/2", "N": 3}, []),
    "g2": ({"family": "G2", "k": {"short": "1/2", "long": "1"}, "N": 4}, []),
    "z21_fallback": ({"family": "Z2^d", "d": 1, "k": "-1", "N": 4}, [2]),
}


@pytest.mark.parametrize("name", sorted(PREPARED))
def test_prepare_builds_tables_only_at_fallback_degrees(name, tmp_path, monkeypatch):
    """prepare solves lam_n from the class system alone; the one H_n table it
    builds is a fallback degree's dense inverse, which is how a singular W_n
    is caught there, and it keeps none.  A raw config passed as a context is
    prepared alike."""
    cfg, fallbacks = PREPARED[name]
    built = count_builds(monkeypatch)
    ctx = build_bundle(cfg).prepare(cfg["N"])
    assert sorted(ctx.h_cache) == list(range(1, cfg["N"] + 1))
    assert ctx.fallback_degrees == fallbacks
    assert built == fallbacks
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    built.clear()
    loaded = load_context(path)
    assert loaded.h_cache == ctx.h_cache and built == fallbacks
    # E_n's degree steps build every degree once more, checked, fallback degrees too
    built.clear()
    intertwine(ctx, Polynomial.monomial(ctx.dimension, (cfg["N"],) + (0,) * (ctx.dimension - 1)))
    assert built == list(range(1, cfg["N"] + 1))
    intertwine(ctx, Polynomial.monomial(ctx.dimension, (cfg["N"],) + (0,) * (ctx.dimension - 1)))
    assert built == list(range(1, cfg["N"] + 1))


def test_columns_of_a_prepared_config_are_checked_on_first_use(monkeypatch):
    """prepare leaves H_n's columns to solve_H, which checks W_n H_n = id on
    them before the first intertwine reads them, as it does for a cache."""
    from dunkl import operators

    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 3})
    built = count_builds(monkeypatch)
    ctx.prepare(3)
    assert built == []
    build = operators._group_columns

    def off_by_one(ctx, n, h):
        cols, den = build(ctx, n, h)
        nu = min(cols)
        mu = min(cols[nu])
        return {**cols, nu: {**cols[nu], mu: cols[nu][mu] + 1}}, den

    monkeypatch.setattr(operators, "_group_columns", off_by_one)
    with pytest.raises(operators.NotInMStarError):
        intertwine(ctx, Polynomial.monomial(2, (2, 0)))


@pytest.mark.parametrize("name", ["b2", "z21_fallback"])
def test_corrupted_lam_in_h_cache_is_refused_before_e_n_uses_it(name):
    """solve_H builds H_n from the lam_n in h_cache each time E_n's degree
    step needs it, so a wrong lam_n (or a made-up one at a fallback degree)
    raises NotInMStarError there, and E_n's table of that degree is never
    made."""
    cfg, _ = PREPARED[name]
    ctx = build_bundle(cfg).prepare(cfg["N"])
    d = ctx.dimension
    lam = ctx.h_cache[2]
    # one coefficient of the identity moved: H_n + id / 7, or id at k = -1 where H_2 = id / 2
    ctx.h_cache[2] = (Fraction(1), Fraction(0)) if lam is None else (lam[0] + Fraction(1, 7), *lam[1:])
    with pytest.raises(NotInMStarError) as err:
        intertwine(ctx, Polynomial.monomial(d, (2,) + (0,) * (d - 1)))
    assert err.value.degree == 2
    assert sorted(ctx.vk_cache) == [0, 1]


def test_complex_numerators_are_gaussian_integers():
    """On b2c (B2, short-root weight 1/2 + i/3) every table numerator of a
    complex value is a ComplexRational with int parts."""
    config = Path(__file__).resolve().parent.parent / "configs" / "b2c.json"
    ctx = load_context(config)
    _e_table(ctx, ctx.prepared_to)
    h_tables = [solve_H(ctx, n) for n in range(1, ctx.prepared_to + 1)]
    tables = [col for cols, _ in ctx.vk_cache.values() for col in cols.values()]
    tables += [col for cols, _ in h_tables for col in cols.values()]
    numerators = [c for nums in tables for c in nums.values()]
    complex_ = [c for c in numerators if isinstance(c, ComplexRational)]
    assert any(c.imag for c in complex_)
    assert all(type(c.real) is int and type(c.imag) is int for c in complex_)
    assert all(type(c) is int for c in numerators if not isinstance(c, ComplexRational))
