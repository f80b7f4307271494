import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dunkl import reflection_groups
from dunkl.config import build_bundle, load_config
from dunkl.exact import ComplexRational, _exact_table
from dunkl.operators import monomial_basis
from dunkl.poly import Polynomial, fischer
from dunkl.reflection_groups import (
    GroupClosureError,
    MultiplicityError,
    UnsupportedFamilyError,
    _root_permutation,
    act_on_polynomial,
    build_root_system,
    generate_group,
    mat_identity,
    mat_mul,
    mat_vec,
    monomial_image,
    reflect,
    reflection_matrix,
    root_orbits,
    select_positive,
    validate_multiplicity,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def make(family, **kw):
    system = build_root_system(family, **kw)
    pos = select_positive(system)
    group = generate_group(pos)
    return system, pos, group


def test_root_system_and_group_are_immutable():
    system, _, group = make("B", d=2)
    with pytest.raises(AttributeError):
        system.roots = ()
    with pytest.raises(AttributeError):
        group.elements = ()
    with pytest.raises(AttributeError):
        group.cache = {}  # no instance dict to hang a new field on


def test_rank_one_system():
    system = build_root_system("Z2^d", d=1)
    assert set(system.roots) == {(Fraction(1),), (Fraction(-1),)}


def test_family_counts():
    assert len(build_root_system("B", d=2).roots) == 8
    assert len(build_root_system("A", d=3).roots) == 6
    assert len(build_root_system("Z2^d", d=3).roots) == 6
    assert len(build_root_system("D", d=3).roots) == 12
    assert len(build_root_system("G2").roots) == 12


def test_a_family_roots_are_differences():
    system = build_root_system("A", d=3)
    for root in system.roots:
        assert sorted(root) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_unsupported_family():
    with pytest.raises(UnsupportedFamilyError):
        build_root_system("E", d=8)
    with pytest.raises(UnsupportedFamilyError):
        build_root_system("Z2^d", d=0)
    with pytest.raises(UnsupportedFamilyError):
        build_root_system("G2", d=2)
    for m in (1, 5):
        with pytest.raises(UnsupportedFamilyError, match="only for m in"):
            build_root_system("I2", m=m)
    # every I2(m) with rational roots is refused with the family that realizes it
    for m, hint in (
        (2, '"family": "Z2^d", "d": 2'),
        (3, '"family": "A", "d": 3'),
        (4, '"family": "B", "d": 2'),
        (6, '"family": "G2"'),
    ):
        with pytest.raises(UnsupportedFamilyError) as refused:
            build_root_system("I2", m=m)
        assert str(refused.value).startswith(f"I2({m}) is ") and hint in str(refused.value)


def test_g2_roots_and_orbits():
    system = build_root_system("G2")
    assert system.dimension == 3
    assert all(sum(root) == 0 for root in system.roots)
    short, long = root_orbits(system)
    assert sorted(sorted(system.roots[i]) for i in short) == [[-1, 0, 1]] * 6
    assert sorted(sorted(system.roots[i]) for i in long) == [[-2, 1, 1]] * 3 + [[-1, -1, 2]] * 3


def test_bad_root_lists_are_refused():
    one, zero = Fraction(1), Fraction(0)
    cases = {
        "zero vector among the roots": [(zero, zero), (one, zero), (-one, zero)],
        "not closed under negation at": [(one, zero), (zero, one), (zero, -one)],
        "not stable under the reflection in": [(one, zero), (-one, zero), (one, one), (-one, -one)],
    }
    for message, roots in cases.items():
        with pytest.raises(UnsupportedFamilyError, match=message):
            reflection_groups._reflection_table(tuple(roots))


@pytest.mark.parametrize(
    "family, kw",
    [("B", dict(d=2)), ("A", dict(d=3)), ("D", dict(d=4)), ("Z2^d", dict(d=3)), ("G2", dict())],
)
def test_reflection_table_matches_each_root_reflection(family, kw):
    system = build_root_system(family, **kw)
    assert system.reflections == tuple(_root_permutation(a, system.roots) for a in system.roots)


def test_reflect_examples():
    assert reflect((Fraction(1), Fraction(0)), (Fraction(3), Fraction(5))) == (
        Fraction(-3),
        Fraction(5),
    )
    # fixed hyperplane
    assert reflect((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))) == (
        Fraction(1),
        Fraction(-1),
    )
    assert reflect((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))) == (
        Fraction(0),
        Fraction(-1),
    )
    with pytest.raises(ValueError):
        reflect((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))


@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
def test_reflect_involution(alpha, x):
    if all(a == 0 for a in alpha):
        return
    assert reflect(alpha, reflect(alpha, x)) == x


def test_select_positive_counts():
    for family, kw, half in (
        ("Z2^d", {"d": 1}, 1),
        ("B", {"d": 2}, 4),
        ("A", {"d": 3}, 3),
    ):
        system = build_root_system(family, **kw)
        pos = select_positive(system)
        assert len(pos.positives) == half
        assert 2 * len(pos.positives) == len(system.roots)


def test_group_orders():
    assert make("Z2^d", d=1)[2].order == 2
    assert make("B", d=2)[2].order == 8
    assert make("A", d=3)[2].order == 6
    assert make("Z2^d", d=2)[2].order == 4
    assert make("G2")[2].order == 12


def test_group_cap(monkeypatch):
    system = build_root_system("B", d=2)
    pos = select_positive(system)
    monkeypatch.setattr(reflection_groups, "ELEMENT_CAP", 4)
    with pytest.raises(GroupClosureError, match="exceeded 4 elements"):
        generate_group(pos)


def test_cayley_is_group():
    _, _, group = make("B", d=2)
    n = group.order
    for i in range(n):
        assert sorted(group.cayley[i]) == list(range(n))
        j = group.inverse_index(i)
        assert group.multiply(i, j) == group.identity_index
    # associativity on all triples
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert group.multiply(group.multiply(a, b), c) == group.multiply(
                    a, group.multiply(b, c)
                )


def _matrix_closure(pos):
    """Reference: breadth-first closure and Cayley table by exact matrix
    products, the algorithm that root permutations replaced."""
    generators = [reflection_matrix(a) for a in pos.positives]
    elements = [mat_identity(pos.base.dimension)]
    index = {elements[0]: 0}
    frontier = list(elements)
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                prod = mat_mul(g, s)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    cayley = tuple(tuple(index[mat_mul(a, b)] for b in elements) for a in elements)
    return tuple(elements), cayley


@pytest.mark.parametrize(
    "family, kw",
    [("B", dict(d=2)), ("A", dict(d=3)), ("B", dict(d=3)), ("Z2^d", dict(d=2)), ("G2", dict())],
)
def test_permutation_closure_matches_matrix_closure(family, kw):
    _, pos, group = make(family, **kw)
    elements, cayley = _matrix_closure(pos)
    assert group.elements == elements  # same matrices in the same order
    assert group.cayley == cayley


FAMILIES = [("B", dict(d=2)), ("A", dict(d=3)), ("B", dict(d=3)), ("D", dict(d=4)), ("G2", dict()),
            ("Z2^d", dict(d=3))]
FAMILY_IDS = ["b2", "a3", "b3", "d4", "g2", "z2_3"]


@pytest.mark.parametrize("family, kw", FAMILIES, ids=FAMILY_IDS)
def test_cayley_table_is_the_composition_of_root_permutations(family, kw):
    # the table generate_group fills from the closure's products g s equals
    # the one composing the root permutation of every pair of elements
    system, _, group = make(family, **kw)
    find = {r: j for j, r in enumerate(system.roots)}
    perms = [tuple(find[mat_vec(g, r)] for r in system.roots) for g in group.elements]
    index = {perm: i for i, perm in enumerate(perms)}
    assert len(index) == group.order
    assert group.cayley == tuple(
        tuple(index[tuple(pi[r] for r in pj)] for pj in perms) for pi in perms
    )


@pytest.mark.parametrize(
    "family, kw",
    FAMILIES + [("A", dict(d=2)), ("D", dict(d=3)), ("Z2^d", dict(d=1)), ("B", dict(d=4))],
)
def test_roots_and_elements_are_exact(family, kw):
    # integer roots, and no float anywhere a root enters a division
    system, pos, group = make(family, **kw)
    assert all(type(e) is int for root in system.roots for e in root)
    assert all(type(e) is Fraction for e in pos.beta)
    point = tuple(range(1, system.dimension + 1))
    for a in system.roots:
        assert all(type(e) in (int, Fraction) for row in reflection_matrix(a) for e in row)
        assert all(type(e) in (int, Fraction) for e in reflect(a, point))
    for g in group.elements:
        assert all(type(e) in (int, Fraction) for row in g for e in row)


def test_g2_long_root_reflections_hold_thirds():
    system = build_root_system("G2")
    for a in system.roots:
        entries = [e for row in reflection_matrix(a) for e in row]
        if sum(e * e for e in a) == 6:
            assert {Fraction(e).denominator for e in entries} == {3}
        else:
            assert all(type(e) is int for e in entries)
    long = (2, -1, -1)
    assert reflect(long, (1, 0, 0)) == (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3))
    assert reflect(long, (1, 1, 1)) == (1, 1, 1)
    _, _, group = make("G2")
    thirds = [g for g in group.elements if any(type(e) is Fraction for row in g for e in row)]
    assert thirds and all(3 * e == int(3 * e) for g in thirds for row in g for e in row)


def _conjugacy_classes(group):
    classes = []
    for x in range(group.order):
        cls = frozenset(
            group.multiply(group.multiply(g, x), group.inverse_index(g))
            for g in range(group.order)
        )
        if cls not in classes:
            classes.append(cls)
    return classes


@pytest.mark.parametrize(
    "family, kw, count",
    [("B", dict(d=2), 5), ("A", dict(d=3), 3), ("B", dict(d=3), 10), ("Z2^d", dict(d=2), 4),
     ("G2", dict(), 6)],
)
def test_class_index_is_conjugacy_class(family, kw, count):
    _, _, group = make(family, **kw)
    classes = _conjugacy_classes(group)
    assert len(classes) == count == len(group.class_representatives)
    assert group.class_of[group.identity_index] == 0
    for cls in classes:
        assert len({group.class_of[g] for g in cls}) == 1
    for c, rep in enumerate(group.class_representatives):
        assert group.class_of[rep] == c


def test_act_on_polynomial_examples():
    _, _, group = make("B", d=2)
    p = Polynomial.variable(2, 0) * Polynomial.variable(2, 1)
    assert act_on_polynomial(group, group.identity_index, p) == p
    flip = tuple(
        tuple(Fraction(-1) if i == j == 0 else Fraction(1) if i == j else Fraction(0) for j in range(2))
        for i in range(2)
    )
    assert act_on_polynomial(group, group.element_index(flip), p) == -p


def _substituted(g, p):
    """Reference: p(g x) by multiplying out the powers of the linear forms
    (g x)_i in exact arithmetic, the matrix substitution that the signed
    permutations and G2's integer images replaced."""
    d = p.dim
    out = Polynomial.zero(d)
    for nu, c in p.terms.items():
        image = Polynomial.constant(d, 1)
        for i, e in enumerate(nu):
            form = Polynomial(
                d, {tuple(int(l == j) for l in range(d)): g[i][j] for j in range(d) if g[i][j]}
            )
            if e:
                image = image * form**e
        out = out + image * c
    return out


def _substituted_table(g, nu):
    return _exact_table(_substituted(g, Polynomial.monomial(len(nu), nu)).terms)


def _random_polynomial(rng, d, coefficient):
    terms = {}
    for _ in range(6):
        nu = tuple(rng.randint(0, 3) for _ in range(d))
        terms[nu] = coefficient(rng)
    return Polynomial(d, terms)


COEFFICIENTS = {
    "int": lambda r: r.choice([-3, -1, 2, 5]),
    "fraction": lambda r: Fraction(r.randint(-9, 9) or 1, r.randint(1, 7)),
    "complex-rational": lambda r: ComplexRational(
        Fraction(r.randint(-5, 5), r.randint(1, 4)), Fraction(r.randint(1, 5), r.randint(1, 4))
    ),
}


@pytest.mark.parametrize(
    "family, kw",
    [("B", dict(d=2)), ("A", dict(d=3)), ("B", dict(d=3)), ("D", dict(d=4)),
     ("Z2^d", dict(d=3))],
    ids=["b2", "a3", "b3", "d4", "z2_3"],
)
def test_signed_permutation_action_matches_substitution(family, kw):
    _, _, group = make(family, **kw)
    assert None not in group.signed_permutations
    rng = random.Random(7)
    polys = [
        _random_polynomial(rng, group.dimension, coefficient)
        for coefficient in COEFFICIENTS.values()
    ]
    cached = len(reflection_groups._MONO_IMAGE_CACHE)
    for i, g in enumerate(group.elements):
        perm, signs = group.signed_permutations[i]
        for j, row in enumerate(g):
            assert row[perm[j]] == signs[j] and sum(e != 0 for e in row) == 1
        for p in polys:
            got = act_on_polynomial(group, i, p)
            want = _substituted(g, p)
            assert got == want
            assert {mu: type(c) for mu, c in got.terms.items()} == {
                mu: type(c) for mu, c in want.terms.items()
            }
        for n in range(4):
            for nu in monomial_basis(group.dimension, n):
                nums, den = monomial_image(group, i, nu)
                assert den == 1 and len(nums) == 1 and set(nums.values()) <= {1, -1}
                assert (nums, den) == _substituted_table(g, nu)
    assert len(reflection_groups._MONO_IMAGE_CACHE) == cached


def test_g2_monomial_image_matches_substitution():
    # every element, every nu of degree <= 6: the integer table equals the
    # multiplied-out substitution in lowest terms
    _, _, group = make("G2")
    for i, g in enumerate(group.elements):
        for n in range(7):
            for nu in monomial_basis(3, n):
                nums, den = monomial_image(group, i, nu)
                want = _substituted_table(g, nu)
                assert (nums, den) == want
                assert math.gcd(den, *nums.values()) == 1


def test_g2_acts_by_exact_substitution():
    _, _, group = make("G2")
    # the six permutations of the coordinates have a signed permutation;
    # the other six elements, with entries -1/3 and 2/3, have None
    permutations = [all(set(row) <= {0, 1} for row in g) for g in group.elements]
    assert [sp is not None for sp in group.signed_permutations] == permutations
    assert permutations.count(True) == 6
    rng = random.Random(3)
    point = (Fraction(3, 10), Fraction(-11, 10), Fraction(2))
    for coefficient in COEFFICIENTS.values():
        p = _random_polynomial(rng, 3, coefficient)
        for i, g in enumerate(group.elements):
            got = act_on_polynomial(group, i, p)
            assert got == _substituted(g, p)
            assert got.evaluate(point) == p.evaluate(mat_vec(g, point))


def test_rotation_preserves_fischer_norm():
    # substituting an orthogonal matrix preserves the Fischer pairing of
    # homogeneous polynomials with themselves
    _, _, group = make("B", d=2)
    p = Polynomial.monomial(2, (2, 0))
    for i, g in enumerate(group.elements):
        q = act_on_polynomial(group, i, p)
        assert fischer(q, q) == fischer(p, p)
        # direct substitution oracle on a sample point
        pt = (Fraction(2), Fraction(-3))
        assert q.evaluate(pt) == p.evaluate(mat_vec(g, pt))


def test_action_composition_matches_cayley():
    _, _, group = make("A", d=3)
    p = Polynomial(
        3, {(2, 1, 0): Fraction(1, 2), (0, 1, 1): Fraction(-2), (1, 0, 0): Fraction(3)}
    )
    for a in range(group.order):
        for b in range(group.order):
            lhs = act_on_polynomial(group, a, act_on_polynomial(group, b, p))
            rhs = act_on_polynomial(group, group.multiply(b, a), p)
            assert lhs == rhs


def test_orbits():
    system, pos, group = make("B", d=2)
    orbits = root_orbits(system)
    assert len(orbits) == 2
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [4, 4]
    system, pos, group = make("A", d=3)
    assert len(root_orbits(system)) == 1
    system, pos, group = make("Z2^d", d=2)
    assert len(root_orbits(system)) == 2


def _orbits_under_group(group, system):
    """Reference: orbits from the image of each root under every element,
    the routine that closing under the root reflections replaced."""
    key_to_idx = {r: i for i, r in enumerate(system.roots)}
    seen = set()
    orbits = []
    for i in range(len(system.roots)):
        if i in seen:
            continue
        orbit = {key_to_idx[mat_vec(g, system.roots[i])] for g in group.elements}
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


@pytest.mark.parametrize(
    "family, kw",
    [("B", {"d": 2}), ("B", {"d": 3}), ("A", {"d": 3}), ("D", {"d": 4}), ("G2", {}),
     ("Z2^d", {"d": 2})],
    ids=["b2", "b3", "a3", "d4", "g2", "z2_2"],
)
def test_reflection_closed_orbits_match_group_orbits(family, kw):
    system, pos, group = make(family, **kw)
    assert sorted(root_orbits(system)) == _orbits_under_group(group, system)


def test_multiplicity_gamma_examples():
    system, pos, group = make("Z2^d", d=3)
    k = validate_multiplicity(pos, Fraction(2, 3))
    assert k.gamma == 3 * Fraction(2, 3)

    system, pos, group = make("B", d=2)
    k = validate_multiplicity(pos, [Fraction(1, 2), Fraction(3, 2)])  # short, then long
    assert k.gamma == 2 * Fraction(1, 2) + 2 * Fraction(3, 2)
    assert k.value((0, 1)) == Fraction(1, 2)
    assert k.value((-1, 1)) == Fraction(3, 2)


def test_multiplicity_list_of_wrong_length_rejected():
    system, pos, group = make("B", d=2)
    for values in ([Fraction(1)], [Fraction(1)] * 3, []):
        with pytest.raises(MultiplicityError, match=f"^{len(values)} values supplied for 2 orbits$"):
            validate_multiplicity(pos, values)


def test_multiplicity_flags():
    system, pos, group = make("Z2^d", d=1)
    assert validate_multiplicity(pos, Fraction(1, 2)).is_nonnegative
    assert not validate_multiplicity(pos, Fraction(-1, 2)).is_nonnegative
    assert validate_multiplicity(pos, Fraction(0)).is_zero


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_weight_flags_set_at_construction_match_their_definitions(path):
    k = build_bundle(load_config(str(path))).k
    values = list(k.by_root.values())
    is_real = all(v.imag == 0 for v in values)
    assert k.is_real is is_real
    assert k.is_nonnegative is (is_real and all(v >= 0 for v in values))
    assert "is_real" in vars(k) and "is_nonnegative" in vars(k)
