"""Root systems, reflections, and the finite groups they generate.

Every family has integer roots: the crystallographic families A, B, D and
G2 (in the plane x1 + x2 + x3 = 0 of R^3) and the coordinate-sign system
Z2^d.  The dihedral groups with rational roots are among them: I2(2) is
Z2^2, I2(3) A2, I2(4) B2 and I2(6) G2.  Reflections act by

    s_a(x) = x - 2 <x, a> a / |a|^2,

exactly (G2's long roots, |a|^2 = 6, give matrices with thirds), and the
group is the closure of {s_a : a positive} under composition.  The action
on functions is (L_g f)(x) = f(g x), so composing actions reverses the
matrix product: L_g L_h = L_{hg}.  Where g is a signed permutation, as
every element is but six of G2's, L_g sends a monomial to plus or minus one
monomial, and acting on a polynomial relabels its exponents.  G2's long-root
reflections are not signed permutations: there the image of x^nu is an
integer table, multiplied out from the integer rows of the element, one
power at a time (monomial_image).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .poly import Polynomial, _combination


class UnsupportedFamilyError(ValueError):
    pass


class GroupClosureError(RuntimeError):
    pass


class MultiplicityError(ValueError):
    pass


# -- small tuple-based matrix helpers -----------------------------------------

def mat_identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_mul(a, b):
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def mat_vec(m, x):
    return tuple(sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m)))


def mat_transpose(m):
    d = len(m)
    return tuple(tuple(m[j][i] for j in range(d)) for i in range(d))


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _quotient(a, b):
    """a / b, exact for exact a and b: an int where the int b divides the int
    a, a Fraction for other ints (int / int would be a float)."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


# -- domain types ---------------------------------------------------------------

# reflections[i][r] = j with s_{roots[i]}(roots[r]) = roots[j]
RootSystem = namedtuple("RootSystem", "dimension roots family_tag reflections")

PositiveSystem = namedtuple("PositiveSystem", "base beta positives")


class ReflectionGroup(namedtuple(
    "ReflectionGroup", "dimension elements identity_index cayley class_of signed_permutations"
)):
    # class_of: the conjugacy class index of each element, identity's is 0.
    # signed_permutations: per element (perm, signs) with row j of its matrix
    # signs[j] e_{perm[j]}, or None for an element that is not a signed
    # permutation (six of G2's twelve)
    __slots__ = ()

    @property
    def order(self):
        return len(self.elements)

    @property
    def class_representatives(self):
        """The first element of each conjugacy class, in class order."""
        reps = {}
        for i, c in enumerate(self.class_of):
            reps.setdefault(c, i)
        return tuple(reps[c] for c in range(len(reps)))

    def multiply(self, i, j):
        return self.cayley[i][j]

    def inverse_index(self, i):
        try:
            return self.cayley[i].index(self.identity_index)
        except ValueError:
            raise GroupClosureError(f"element {i} has no inverse in the table") from None

    def element_index(self, matrix):
        try:
            return self.elements.index(matrix)
        except ValueError:
            raise KeyError("matrix is not a group element") from None


class MultiplicityFunction:
    def __init__(self, by_root, orbits, gamma):
        self.by_root = by_root
        self.orbits = orbits  # tuple of tuples of root indices into the system's roots
        self.gamma = gamma
        # read by every tail bound (operators.tail_kind), so set once
        self.is_real = all(v.imag == 0 for v in by_root.values())
        self.is_nonnegative = self.is_real and all(v >= 0 for v in by_root.values())

    def value(self, root):
        return self.by_root[tuple(root)]

    @property
    def is_zero(self):
        return all(v == 0 for v in self.by_root.values())


# -- root system construction -----------------------------------------------------

def build_root_system(family_tag, d=None, m=None) -> RootSystem:
    """Standard root list for a family (_FAMILIES).

    A is realized as A_{d-1} inside R^d ({e_i - e_j}); B_d and D_d use the
    usual signed lists; Z2^d is {+-e_i}.  G2 lies in the plane
    x1 + x2 + x3 = 0 of R^3: its short roots are e_i - e_j, its long roots
    +-(2 e_i - e_j - e_k).  The dihedral I2(m) is not a family here: it
    raises UnsupportedFamilyError, naming for m in {2, 3, 4, 6} the family
    that realizes it with rational roots (Z2^2, A2, B2 up to root lengths,
    G2).
    """
    tag = family_tag.upper()
    tag = "Z2^d" if tag in ("Z2^D", "Z2") else tag
    if tag in ("I2", "I2(M)", "I"):
        hint = _EXACT_DIHEDRAL.get(m)
        raise UnsupportedFamilyError(
            f"I2({m}) is {hint}"
            if hint
            else f"I2(m) has rational roots only for m in {{2, 3, 4, 6}}, not m = {m!r}"
        )
    if tag not in _FAMILIES:
        raise UnsupportedFamilyError(f"unknown family {family_tag!r}")
    least, most, refusal, root_list = _FAMILIES[tag]
    if d is None and least == most:
        d = least  # a family realized in one dimension may leave d out
    if d is None or not least <= d <= most:
        raise UnsupportedFamilyError(refusal)
    roots = tuple(root_list(d))
    return RootSystem(len(roots[0]), roots, tag, _reflection_table(roots))


def _signed_axes(d):
    return [tuple(s * (j == i) for j in range(d)) for i in range(d) for s in (1, -1)]


def _differences(d):
    return [
        tuple((l == i) - (l == j) for l in range(d)) for i in range(d) for j in range(d) if i != j
    ]


def _signed_pairs(d):
    return [
        tuple(si * (l == i) + sj * (l == j) for l in range(d))
        for i in range(d) for j in range(i + 1, d) for si in (1, -1) for sj in (1, -1)
    ]


def _g2_roots(d):
    longs = [tuple(3 * (j == i) - 1 for j in range(d)) for i in range(d)]
    return _differences(d) + [r for a in longs for r in (a, tuple(-e for e in a))]


# family -> (least d, greatest d, the refusal of any other d, its roots in R^d)
_FAMILIES = {
    "Z2^d": (1, math.inf, "Z2^d needs d >= 1", _signed_axes),
    "A": (2, math.inf, "A needs ambient dimension d >= 2", _differences),
    "B": (2, math.inf, "B needs d >= 2", lambda d: _signed_axes(d) + _signed_pairs(d)),
    "D": (2, math.inf, "D needs d >= 2", _signed_pairs),
    "G2": (3, 3, "G2 is realized in R^3 (d = 3)", _g2_roots),
}

# the dihedral groups I2(m) with rational roots, and the families that realize them
_EXACT_DIHEDRAL = {
    2: 'Z2^2: use {"family": "Z2^d", "d": 2}',
    3: 'A2: use {"family": "A", "d": 3}',
    4: 'B2: use {"family": "B", "d": 2}',
    6: 'G2: use {"family": "G2"}',
}


def _reflection_table(roots):
    """Each root's reflection as a root permutation, checking on the way
    that the list is closed under negation and under every reflection.

    s_{-a} = s_a, so the permutation is computed once per pair +-a: that
    is |R|^2 / 2 reflections in all.
    """
    for a in roots:
        if all(e == 0 for e in a):
            raise UnsupportedFamilyError("zero vector among the roots")
    find = {r: j for j, r in enumerate(roots)}.get  # a vector's root index, or None
    table = [None] * len(roots)
    for i, a in enumerate(roots):
        neg = find(tuple(-e for e in a))
        if neg is None:
            raise UnsupportedFamilyError(f"root list not closed under negation at {a}")
        if table[neg] is not None:
            table[i] = table[neg]
            continue
        try:
            table[i] = _root_permutation(a, roots, find)
        except GroupClosureError:
            raise UnsupportedFamilyError(
                f"root list not stable under the reflection in {a}"
            ) from None
    return tuple(table)


# -- reflections -------------------------------------------------------------------

def reflect(alpha, x):
    """s_alpha(x) = x - 2 <x, alpha> alpha / |alpha|^2; exact on exact data
    (_quotient), so an integer point and root give an integer image."""
    nrm2 = dot(alpha, alpha)
    if nrm2 == 0:
        raise ValueError("cannot reflect in the zero vector")
    factor = _quotient(2 * dot(x, alpha), nrm2)
    return tuple(xi - factor * ai for xi, ai in zip(x, alpha))


def reflection_matrix(alpha):
    """The matrix of s_alpha, exact: ints for every integer root but G2's
    long ones, whose entries are thirds."""
    d = len(alpha)
    nrm2 = dot(alpha, alpha)
    if nrm2 == 0:
        raise ValueError("cannot reflect in the zero vector")
    eye = mat_identity(d)
    return tuple(
        tuple(_quotient(eye[i][j] * nrm2 - 2 * alpha[i] * alpha[j], nrm2) for j in range(d))
        for i in range(d)
    )


# -- positive system ------------------------------------------------------------------

def select_positive(system: RootSystem) -> PositiveSystem:
    """Split R into halves by a generic direction beta = (1, eps, eps^2, ...).

    eps starts at 1/127 and is halved whenever some root is orthogonal to
    beta; only finitely many eps values can collide with a finite root list.
    """
    d = system.dimension
    eps = Fraction(1, 127)
    for _ in range(128):
        beta = tuple(eps**i for i in range(d))
        pairings = [dot(a, beta) for a in system.roots]
        if all(p != 0 for p in pairings):
            positives = tuple(a for a, p in zip(system.roots, pairings) if p > 0)
            return PositiveSystem(system, beta, positives)
        eps = eps / 2
    raise UnsupportedFamilyError("could not separate the roots from a hyperplane")


# -- group generation -------------------------------------------------------------------

ELEMENT_CAP = 4096  # generate_group refuses a closure with more elements


def generate_group(positive: PositiveSystem) -> ReflectionGroup:
    """Close the generating reflections under composition and build the table.

    An element of a reflection group is fixed by how it permutes the roots,
    so the closure runs on root-index permutations.  The elements are found
    breadth first as products g s with a generator s, and each new element's
    matrix is that one product, formed on integers (numerators over one
    denominator; Fraction entries only where that is not 1, G2's thirds).
    The closure keeps the index of every product g s it forms, and the
    Cayley table is filled from those alone: with p s the product that found
    j, h j = (h p) s, so column j is column p mapped by right-multiplication
    by s.  The group records each element's signed permutation, read off
    its matrix, or None where a row has more than one nonzero entry (G2's
    six elements outside its permutations of the coordinates).
    """
    system = positive.base
    d = system.dimension
    generators = [
        (_integer_matrix(reflection_matrix(a)), system.reflections[system.roots.index(a)])
        for a in positive.positives
    ]

    start = tuple(range(len(system.roots)))
    elements = [(mat_identity(d), 1)]
    perms = [start]
    index = {start: 0}
    parent = [None]  # (parent element, generator) of each element but the identity
    right = []  # right[g][s]: the index of g s
    while len(right) < len(elements):  # breadth first: elements in order of discovery
        gi = len(right)
        g, pg = elements[gi], perms[gi]
        row = []
        for si, (s, ps) in enumerate(generators):
            prod = tuple(map(pg.__getitem__, ps))  # (g s)(root_r) = g(s(root_r))
            j = index.get(prod)
            if j is None:
                if len(elements) >= ELEMENT_CAP:
                    raise GroupClosureError(
                        "not a finite reflection group "
                        f"(closure exceeded {ELEMENT_CAP} elements)"
                    )
                j = index[prod] = len(elements)
                elements.append(_integer_product(g, s))
                perms.append(prod)
                parent.append((gi, si))
            row.append(j)
        right.append(row)

    by_generator = [[row[si] for row in right] for si in range(len(generators))]
    columns = [list(range(len(elements)))]  # column j holds h j for every h
    for p, si in parent[1:]:
        columns.append(list(map(by_generator[si].__getitem__, columns[p])))
    cayley = tuple(zip(*columns))
    class_of = _conjugacy_classes(cayley, [index[ps] for _, ps in generators])
    matrices = tuple(
        rows if den == 1 else tuple(tuple(Fraction(e, den) for e in row) for row in rows)
        for rows, den in elements
    )
    signed = tuple(map(_signed_permutation, matrices))
    group = ReflectionGroup(d, matrices, 0, cayley, class_of, signed)
    _validate_group(group, elements)
    return group


def _integer_matrix(m):
    """(integer rows, den) with m = rows / den, den the least such."""
    den = math.lcm(*(e.denominator for row in m for e in row))
    return tuple(tuple(e.numerator * (den // e.denominator) for e in row) for row in m), den


def _integer_product(a, b):
    """The product of two integer matrices (rows, den), reduced."""
    rows, den = mat_mul(a[0], b[0]), a[1] * b[1]
    g = math.gcd(den, *(e for row in rows for e in row))
    return tuple(tuple(e // g for e in row) for row in rows), den // g


def _root_permutation(alpha, roots, find):
    """The j with s_alpha(roots[i]) = roots[j], for each i; find(v) is the
    index of the root v."""
    found = tuple(find(reflect(alpha, r)) for r in roots)
    if None in found:
        raise GroupClosureError(f"the reflection in {alpha} does not permute the roots")
    return found


def _signed_permutation(g):
    """(perm, signs) with row j of g equal to signs[j] e_{perm[j]}, or None."""
    perm, signs = [], []
    for row in g:
        support = [j for j, e in enumerate(row) if e != 0]
        if len(support) != 1 or abs(row[support[0]]) != 1:
            return None
        perm.append(support[0])
        signs.append(1 if row[support[0]] > 0 else -1)
    return tuple(perm), tuple(signs)


def _conjugacy_classes(cayley, generators):
    """Class index of each element: its orbit under conjugation by the
    generating reflections (each its own inverse)."""
    # conjugation by s as an index map: s y s = cayley[s y][s]
    return tuple(_orbit_labels([[cayley[sy][s] for sy in cayley[s]] for s in generators]))


def _orbit_labels(maps):
    """The orbit index of each of 0..n-1 under the maps (maps[m][i] the image
    of i), orbits numbered in the order of their least members."""
    label = [None] * len(maps[0])
    count = 0
    for i in range(len(label)):
        if label[i] is not None:
            continue
        label[i] = count
        stack = [i]
        while stack:
            y = stack.pop()
            for m in maps:
                z = m[y]
                if label[z] is None:
                    label[z] = count
                    stack.append(z)
        count += 1
    return label


def _validate_group(group: ReflectionGroup, integer_elements):
    """Check that each Cayley row is a permutation with an inverse, and that
    each element m = rows / den is orthogonal: rows^T rows = den^2 I."""
    n = group.order
    for i in range(n):
        if len(set(group.cayley[i])) != n:  # n distinct element indices
            raise GroupClosureError("Cayley row is not a permutation")
        group.inverse_index(i)  # raises if missing
    eye = mat_identity(group.dimension)
    for rows, den in integer_elements:
        if mat_mul(mat_transpose(rows), rows) != tuple(
            tuple(e * den * den for e in row) for row in eye
        ):
            raise GroupClosureError("element is not orthogonal")


_MONO_IMAGE_CACHE = {}  # (matrix, nu) -> the table of x^nu o g, for g not a signed permutation


def signed_image(group: ReflectionGroup, i, nu):
    """(mu, negative) with x^nu o g = -x^mu if negative else x^mu, for the
    signed permutation g = group.elements[i]: row j of g is s_j e_{pi(j)}, so
    mu_{pi(j)} = nu_j and the sign is prod_j s_j^{nu_j}."""
    perm, signs = group.signed_permutations[i]
    mu = [0] * len(nu)
    odd = 0
    for e, j, s in zip(nu, perm, signs):
        mu[j] = e
        if s < 0:
            odd ^= e & 1
    return tuple(mu), bool(odd)


def monomial_image(group: ReflectionGroup, i, nu):
    """x^nu o g for g = group.elements[i] as a table (numerators, den) in
    lowest terms: the one +-1 monomial of signed_image for a signed
    permutation, else (six of G2's elements) an integer table cached in
    _MONO_IMAGE_CACHE:
    with j the last nonzero exponent, x^nu o g is x^(nu - e_j) o g times
    the integer row j of g, the linear form (g x)_j."""
    if group.signed_permutations[i] is not None:
        mu, negative = signed_image(group, i, nu)
        return {mu: -1 if negative else 1}, 1
    if not any(nu):
        return {nu: 1}, 1
    g = group.elements[i]
    image = _MONO_IMAGE_CACHE.get((g, nu))
    if image is not None:
        return image
    j = max(l for l, e in enumerate(nu) if e)
    rows, den = _integer_matrix(g)
    lower, low_den = monomial_image(group, i, nu[:j] + (nu[j] - 1,) + nu[j + 1 :])
    out = {}
    for mu, a in lower.items():
        for l, r in enumerate(rows[j]):
            if r:
                key = mu[:l] + (mu[l] + 1,) + mu[l + 1 :]
                out[key] = out.get(key, 0) + a * r
    den *= low_den
    common = math.gcd(den, *out.values())
    image = {mu: c // common for mu, c in out.items() if c}, den // common
    _MONO_IMAGE_CACHE[g, nu] = image
    return image


def act_on_polynomial(group: ReflectionGroup, i, p):
    """(L_g p)(x) = p(g x) for g = group.elements[i]; degree preserving.

    For a signed permutation x^nu goes to the single monomial +-x^mu of
    signed_image, and a term c x^nu to +-c x^mu.  For any other element
    (six of G2's) p's coefficients weight the monomial_image tables, summed
    in integers over one denominator.
    """
    if group.signed_permutations[i] is None:
        return _combination(
            p.dim, ((monomial_image(group, i, nu), c) for nu, c in p.terms.items())
        )
    terms = {}
    for nu, c in p.terms.items():
        mu, negative = signed_image(group, i, nu)
        terms[mu] = -c if negative else c
    return Polynomial(p.dim, terms)


# -- multiplicity functions -----------------------------------------------------------------

def root_orbits(system: RootSystem):
    """Orbits of the root list under the group, as tuples of root indices,
    ordered by norm, then by least member.

    The group is generated by the root reflections, so the orbit of a root
    is its closure under the root permutations of the reflections.
    """
    roots = system.roots
    label = _orbit_labels(system.reflections)
    orbits = [tuple(i for i, c in enumerate(label) if c == o) for o in range(max(label) + 1)]
    orbits.sort(key=lambda orb: dot(roots[orb[0]], roots[orb[0]]))
    return tuple(orbits)


def validate_multiplicity(positive: PositiveSystem, values, orbits=None) -> MultiplicityFunction:
    """Build a G-invariant weight from per-orbit or scalar data.

    ``values`` may be a single scalar (every orbit) or a list with one
    scalar per orbit (canonical orbit order).  Each scalar is exact: an
    int, Fraction or ComplexRational.  A float or complex value, or a list
    of the wrong length, raise MultiplicityError.  ``orbits`` are the root
    orbits of the system if the caller has them already.
    """
    system = positive.base
    if orbits is None:
        orbits = root_orbits(system)
    if isinstance(values, (list, tuple)):
        if len(values) != len(orbits):
            raise MultiplicityError(
                f"{len(values)} values supplied for {len(orbits)} orbits"
            )
        per_orbit = [_exact_weight(v) for v in values]
    else:
        per_orbit = [_exact_weight(values)] * len(orbits)

    by_root = {}
    for oi, orb in enumerate(orbits):
        for ri in orb:
            by_root[tuple(system.roots[ri])] = per_orbit[oi]
    gamma = 0
    for a in positive.positives:
        gamma = gamma + by_root[tuple(a)]
    return MultiplicityFunction(by_root, orbits, gamma)


def _exact_weight(v):
    if isinstance(v, (float, complex)):
        raise MultiplicityError(
            f"weight {v!r} is not exact; give it as an int, Fraction or ComplexRational"
        )
    return v
