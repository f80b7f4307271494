"""Root systems, reflections, and the finite groups they generate.

The standard crystallographic families A, B, D and the coordinate-sign
system Z2^d are realized with exact rational entries; dihedral systems
I2(m) fall back to floats except for m in {1, 2, 4} where a rational
realization exists.  Reflections act by

    s_a(x) = x - 2 <x, a> a / |a|^2,

and the group is the closure of {s_a : a positive} under composition.  The
action on functions is (L_g f)(x) = f(g x), so composing actions reverses
the matrix product: L_g L_h = L_{hg}.  Every exact group is a
signed-permutation group, so L_g sends a monomial to plus or minus one
monomial, and acting on a polynomial relabels its exponents; only floating
I2(m) substitutes the matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math

from .exact import is_real_scalar
from .poly import Polynomial, combination


class UnsupportedFamilyError(ValueError):
    pass


class GroupClosureError(RuntimeError):
    pass


class MultiplicityError(ValueError):
    pass


FLOAT_MATCH_TOL = 1e-12
DEDUP_TOL = 1e-10


# -- small tuple-based matrix helpers -----------------------------------------

def mat_identity(d, exact=True):
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def mat_mul(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def mat_vec(m, x):
    return tuple(sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m)))


def mat_transpose(m):
    d = len(m)
    return tuple(tuple(m[j][i] for j in range(d)) for i in range(d))


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _dedup_key(m, exact):
    if exact:
        return m
    return tuple(tuple(int(round(float(e) / DEDUP_TOL)) for e in row) for row in m)


# -- domain types ---------------------------------------------------------------

@dataclass(frozen=True)
class RootSystem:
    dimension: int
    roots: tuple
    family_tag: str
    # reflections[i][r] = j with s_{roots[i]}(roots[r]) = roots[j]
    reflections: tuple = field(compare=False, repr=False)

    @property
    def is_exact(self):
        return _is_exact(self.roots)


@dataclass(frozen=True)
class PositiveSystem:
    base: RootSystem
    beta: tuple
    positives: tuple


@dataclass(frozen=True, eq=False)
class ReflectionGroup:
    dimension: int
    elements: tuple
    identity_index: int
    cayley: tuple
    arithmetic_mode: str  # "exact" | "floating"
    class_of: tuple  # conjugacy class index of each element, identity's is 0
    # per element (perm, signs) with row j of its matrix signs[j] e_{perm[j]};
    # None unless every element is a signed permutation (floating I2(m))
    signed_permutations: tuple | None = None

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
        row = self.cayley[i]
        for j, prod in enumerate(row):
            if prod == self.identity_index:
                return j
        raise GroupClosureError(f"element {i} has no inverse in the table")

    def element_index(self, matrix):
        exact = self.arithmetic_mode == "exact"
        key = _dedup_key(matrix, exact)
        for i, g in enumerate(self.elements):
            if _dedup_key(g, exact) == key:
                return i
        raise KeyError("matrix is not a group element")


@dataclass(eq=False)
class MultiplicityFunction:
    by_root: dict
    orbits: tuple  # tuple of tuples of root indices into the system's roots
    gamma: object = field(default=None)

    def value(self, root):
        return self.by_root[tuple(root)]

    @property
    def is_real(self):
        return all(is_real_scalar(v) for v in self.by_root.values())

    @property
    def is_nonnegative(self):
        if not self.is_real:
            return False
        return all(v >= 0 for v in self.by_root.values())

    @property
    def is_zero(self):
        return all(v == 0 for v in self.by_root.values())


# -- root system construction -----------------------------------------------------

def build_root_system(family_tag, d=None, m=None) -> RootSystem:
    """Standard root list for a family.

    A is realized as A_{d-1} inside R^d ({e_i - e_j}); B_d and D_d use the
    usual signed lists; Z2^d is {+-e_i}; I2(m) gives 2m planar roots at
    angles j*pi/m (rational only for m in {1, 2, 4}).
    """
    tag = family_tag.upper() if family_tag.lower() != "z2^d" else "Z2^d"
    if tag in ("Z2^D", "Z2"):
        tag = "Z2^d"
    roots = []
    if tag == "Z2^d":
        if d is None or d < 1:
            raise UnsupportedFamilyError("Z2^d needs d >= 1")
        for i in range(d):
            roots.append(_axis(d, i, 1))
            roots.append(_axis(d, i, -1))
    elif tag == "A":
        if d is None or d < 2:
            raise UnsupportedFamilyError("A needs ambient dimension d >= 2")
        for i in range(d):
            for j in range(d):
                if i != j:
                    v = [Fraction(0)] * d
                    v[i] = Fraction(1)
                    v[j] = Fraction(-1)
                    roots.append(tuple(v))
    elif tag == "B":
        if d is None or d < 2:
            raise UnsupportedFamilyError("B needs d >= 2")
        for i in range(d):
            roots.append(_axis(d, i, 1))
            roots.append(_axis(d, i, -1))
        roots.extend(_pair_roots(d))
    elif tag == "D":
        if d is None or d < 2:
            raise UnsupportedFamilyError("D needs d >= 2")
        roots.extend(_pair_roots(d))
    elif tag in ("I2", "I2(M)", "I"):
        if m is None or m < 2:
            raise UnsupportedFamilyError("I2(m) needs m >= 2")
        roots = _dihedral_roots(m)
        tag = "I2(m)"
    else:
        raise UnsupportedFamilyError(f"unknown family {family_tag!r}")
    roots = tuple(roots)
    table = _reflection_table(roots, _is_exact(roots))
    return RootSystem(d if d is not None else 2, roots, tag, table)


def _is_exact(roots):
    return all(isinstance(e, (int, Fraction)) for root in roots for e in root)


def _axis(d, i, sign):
    v = [Fraction(0)] * d
    v[i] = Fraction(sign)
    return tuple(v)


def _pair_roots(d):
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * d
                    v[i] = Fraction(si)
                    v[j] = Fraction(sj)
                    out.append(tuple(v))
    return out


def _dihedral_roots(m):
    if m == 1:
        return [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
    if m == 2:
        return [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        ]
    if m == 4:
        # rational realization: the B_2 list, angles j*pi/4 up to root lengths
        return _pair_roots(2) + [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        ]
    return [
        (math.cos(j * math.pi / m), math.sin(j * math.pi / m)) for j in range(2 * m)
    ]


def _reflection_table(roots, exact):
    """Each root's reflection as a root permutation, checking on the way
    that the list is closed under negation and under every reflection.

    s_{-a} = s_a, so the permutation is computed once per pair +-a: that
    is |R|^2 / 2 reflections in all.
    """
    for a in roots:
        if all(e == 0 for e in a):
            raise UnsupportedFamilyError("zero vector among the roots")
    find = _root_finder(roots, exact)
    table = [None] * len(roots)
    for i, a in enumerate(roots):
        neg = find(tuple(-e for e in a))
        if neg is None:
            raise UnsupportedFamilyError(f"root list not closed under negation at {a}")
        if table[neg] is not None:
            table[i] = table[neg]
            continue
        try:
            table[i] = _root_permutation(a, roots, exact)
        except GroupClosureError:
            raise UnsupportedFamilyError(
                f"root list not stable under the reflection in {a}"
            ) from None
    return tuple(table)


# -- reflections -------------------------------------------------------------------

def reflect(alpha, x):
    """s_alpha(x) = x - 2 <x, alpha> alpha / |alpha|^2."""
    nrm2 = dot(alpha, alpha)
    if nrm2 == 0:
        raise ValueError("cannot reflect in the zero vector")
    factor = 2 * dot(x, alpha) / nrm2
    return tuple(xi - factor * ai for xi, ai in zip(x, alpha))


def reflection_matrix(alpha):
    d = len(alpha)
    nrm2 = dot(alpha, alpha)
    if nrm2 == 0:
        raise ValueError("cannot reflect in the zero vector")
    exact = all(isinstance(e, (int, Fraction)) for e in alpha)
    eye = mat_identity(d, exact=exact)
    return tuple(
        tuple(eye[i][j] - 2 * alpha[i] * alpha[j] / nrm2 for j in range(d))
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
    exact = system.is_exact
    for _ in range(128):
        beta = tuple(eps**i for i in range(d))
        if exact:
            pairings = [dot(a, beta) for a in system.roots]
            if all(p != 0 for p in pairings):
                positives = tuple(
                    a for a, p in zip(system.roots, pairings) if p > 0
                )
                return PositiveSystem(system, beta, positives)
        else:
            betaf = tuple(float(b) for b in beta)
            pairings = [float(dot(a, betaf)) for a in system.roots]
            if all(abs(p) > FLOAT_MATCH_TOL for p in pairings):
                positives = tuple(
                    a for a, p in zip(system.roots, pairings) if p > 0
                )
                return PositiveSystem(system, betaf, positives)
        eps = eps / 2
    raise UnsupportedFamilyError("could not separate the roots from a hyperplane")


# -- group generation -------------------------------------------------------------------

def generate_group(positive: PositiveSystem, element_cap=4096) -> ReflectionGroup:
    """Close the generating reflections under composition and build the table.

    An element of a reflection group is fixed by how it permutes the roots,
    so closure and the Cayley table compose root-index permutations.  The
    elements are found breadth first as products g s with a generator s, and
    each new element's matrix is that one product.  Every exact group here
    (A, B, D, Z2^d, I2(m) for m in {1, 2, 4}) is a signed-permutation
    group, and each element's signed permutation is read off its matrix.
    """
    system = positive.base
    d = system.dimension
    exact = system.is_exact
    mode = "exact" if exact else "floating"
    generators = [
        (reflection_matrix(a), system.reflections[system.roots.index(a)])
        for a in positive.positives
    ]

    start = tuple(range(len(system.roots)))
    elements = [mat_identity(d, exact=exact)]
    perms = [start]
    index = {start: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for gi in frontier:
            g, pg = elements[gi], perms[gi]
            for s, ps in generators:
                prod = tuple(pg[r] for r in ps)  # (g s)(root_r) = g(s(root_r))
                if prod not in index:
                    if len(elements) >= element_cap:
                        raise GroupClosureError(
                            "not a finite reflection group at this tolerance "
                            f"(closure exceeded {element_cap} elements)"
                        )
                    index[prod] = len(elements)
                    nxt.append(len(elements))
                    elements.append(mat_mul(g, s))
                    perms.append(prod)
        frontier = nxt

    cayley = tuple(
        tuple(index[tuple(pi[r] for r in pj)] for pj in perms) for pi in perms
    )
    class_of = _conjugacy_classes(cayley, [index[ps] for _, ps in generators])
    signed = [_signed_permutation(g) for g in elements] if exact else [None]
    group = ReflectionGroup(
        d, tuple(elements), 0, cayley, mode, class_of,
        None if None in signed else tuple(signed),
    )
    _validate_group(group)
    return group


def _root_permutation(alpha, roots, exact):
    """The j with s_alpha(roots[i]) = roots[j], for each i."""
    find = _root_finder(roots, exact)
    found = tuple(find(reflect(alpha, r)) for r in roots)
    if None in found:
        raise GroupClosureError(f"the reflection in {alpha} does not permute the roots")
    return found


def _root_finder(roots, exact):
    """A map from a vector to the index of the root equal to it, or None;
    a float vector is matched to the nearest root within DEDUP_TOL."""
    if exact:
        return {r: j for j, r in enumerate(roots)}.get

    def nearest(v):
        gap, j = min(
            (max(abs(float(a) - float(b)) for a, b in zip(v, r)), j)
            for j, r in enumerate(roots)
        )
        return j if gap <= DEDUP_TOL else None

    return nearest


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
    """Class index of each element: orbits under conjugation by the
    generating reflections (each its own inverse), numbered by first member."""
    class_of = [None] * len(cayley)
    count = 0
    for x in range(len(cayley)):
        if class_of[x] is not None:
            continue
        class_of[x] = count
        stack = [x]
        while stack:
            y = stack.pop()
            for s in generators:
                z = cayley[cayley[s][y]][s]
                if class_of[z] is None:
                    class_of[z] = count
                    stack.append(z)
        count += 1
    return tuple(class_of)


def _validate_group(group: ReflectionGroup):
    n = group.order
    for i in range(n):
        if sorted(group.cayley[i]) != list(range(n)):
            raise GroupClosureError("Cayley row is not a permutation")
        group.inverse_index(i)  # raises if missing
    exact = group.arithmetic_mode == "exact"
    for g in group.elements:
        gtg = mat_mul(mat_transpose(g), g)
        eye = mat_identity(group.dimension, exact=exact)
        for i in range(group.dimension):
            for j in range(group.dimension):
                diff = gtg[i][j] - eye[i][j]
                ok = diff == 0 if exact else abs(float(diff)) <= FLOAT_MATCH_TOL
                if not ok:
                    raise GroupClosureError("element is not orthogonal")


_MONO_IMAGE_CACHE = {}  # (matrix, nu) -> x^nu o g, for groups without signed permutations


def act_on_polynomial(group: ReflectionGroup, i, p):
    """(L_g p)(x) = p(g x) for g = group.elements[i]; degree preserving.

    On a signed-permutation group row j of g is s_j e_{pi(j)}, so x^nu goes
    to the single monomial prod_j s_j^{nu_j} x^mu with mu_{pi(j)} = nu_j, and
    a term c x^nu to +-c x^mu.
    Floating I2(m) has no signed permutations: there the matrix is
    substituted, with the monomial images cached in _MONO_IMAGE_CACHE.
    """
    if group.signed_permutations is None:
        g = group.elements[i]
        for nu in p.terms:
            if (g, nu) not in _MONO_IMAGE_CACHE:
                _MONO_IMAGE_CACHE[g, nu] = Polynomial.monomial(p.dim, nu).substitute_linear(g)
        return combination(p.dim, ((_MONO_IMAGE_CACHE[g, nu], c) for nu, c in p.terms.items()))
    perm, signs = group.signed_permutations[i]
    terms = {}
    for nu, c in p.terms.items():
        mu = [0] * p.dim
        odd = 0
        for e, j, s in zip(nu, perm, signs):
            mu[j] = e
            if s < 0:
                odd ^= e & 1
        if isinstance(c, int) and any(nu):
            c = Fraction(c)  # an exact unit times c, as substituting g gives
        terms[tuple(mu)] = -c if odd else c
    return Polynomial(p.dim, terms)


# -- multiplicity functions -----------------------------------------------------------------

def root_orbits(system: RootSystem):
    """Orbits of the root list under the group, as tuples of root indices.

    The group is generated by the root reflections, so the orbit of a root
    is its closure under the root permutations of the reflections.
    """
    roots = system.roots
    perms = system.reflections
    seen = set()
    orbits = []
    for i in range(len(roots)):
        if i in seen:
            continue
        orbit = {i}
        stack = [i]
        while stack:
            r = stack.pop()
            for perm in perms:
                if perm[r] not in orbit:
                    orbit.add(perm[r])
                    stack.append(perm[r])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda orb: (float(dot(roots[orb[0]], roots[orb[0]])), orb))
    return tuple(orbits)


def validate_multiplicity(positive: PositiveSystem, values, orbits=None) -> MultiplicityFunction:
    """Build a G-invariant weight from per-root, per-orbit, or scalar data.

    ``values`` may be a single scalar (every orbit), a list with one scalar
    per orbit (canonical orbit order), or a mapping from root tuples to
    scalars covering at least one root per orbit.  Conflicting values inside
    an orbit raise MultiplicityError.  ``orbits`` are the root orbits of the
    system if the caller has them already.
    """
    system = positive.base
    if orbits is None:
        orbits = root_orbits(system)
    per_orbit = [None] * len(orbits)

    if isinstance(values, (list, tuple)):
        if len(values) != len(orbits):
            raise MultiplicityError(
                f"{len(values)} values supplied for {len(orbits)} orbits"
            )
        per_orbit = list(values)
    elif isinstance(values, dict):
        root_index = {tuple(r): i for i, r in enumerate(system.roots)}
        orbit_of = {}
        for oi, orb in enumerate(orbits):
            for ri in orb:
                orbit_of[ri] = oi
        for root, val in values.items():
            ri = root_index.get(tuple(root))
            if ri is None:
                raise MultiplicityError(f"{root} is not a root of the system")
            oi = orbit_of[ri]
            if per_orbit[oi] is None:
                per_orbit[oi] = val
            elif not _scalars_agree(per_orbit[oi], val):
                raise MultiplicityError(
                    f"conflicting values on one orbit: {per_orbit[oi]} vs {val}"
                )
        if any(v is None for v in per_orbit):
            raise MultiplicityError("some root orbit received no value")
    else:
        per_orbit = [values] * len(orbits)

    by_root = {}
    for oi, orb in enumerate(orbits):
        for ri in orb:
            by_root[tuple(system.roots[ri])] = per_orbit[oi]
    gamma = 0
    for a in positive.positives:
        gamma = gamma + by_root[tuple(a)]
    return MultiplicityFunction(by_root=by_root, orbits=orbits, gamma=gamma)


def _scalars_agree(a, b):
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        return abs(complex(a) - complex(b)) <= FLOAT_MATCH_TOL
    return a == b
