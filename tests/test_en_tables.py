"""E_n's tables pinned past the context degrees, before the V path changes.

operators._e_table(ctx, n) is E_n's coefficients e_nu = V(x^nu) / nu! as
one table ({nu: {mu: numerator}}, den) in lowest terms, so it has one
canonical text: each degree's denominator, then every column in sorted nu,
each entry in sorted mu, integers in decimal.  The digest of a system to a
degree is the sha256 of that text for every degree 0..degree.  Tier 1
checks degree 12 on B3, B4, D4 and G2 (about 0.1, 2.3, 0.9 and 1.3 s) and
degree 6 on D5 (about 2.5 s); CI checks degree 18 on D4 and G2 (about 5
and 13 s) and degree 8 on D5 (about 6 s) with

    PYTHONPATH=src python tests/test_en_tables.py 18 d4 g2
    PYTHONPATH=src python tests/test_en_tables.py 8 d5

which prints each digest and exits 1 if one differs from its pin.  The
digests were recorded from the implementation that built E_n's tables from
the class solve's H_n columns on every element of the group.

The tables also relabel under the group's coordinate permutations (V(p o g)
= V(p) o g), the invariant that building one column per orbit of exponents
rests on; tier 1 checks it on A (d = 3), B3 and G2 to degree 8 and on D4
and B4 to degree 6, about 0.75 s in all.
"""
import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "a": "configs/a2.json",
    "b3": "bench/ladder/b3.json",
    "b4": "configs/b4.json",
    "d4": "configs/d4.json",
    "d5": "configs/d5.json",
    "g2": "configs/g2.json",
}

# (system, degree) -> the sha256 of E_n's tables for n = 0..degree
EN_GOLDEN = {
    ("b3", 12): "5061a016effa7248bf827f5a131c3f9aaad2f04afc5a42277c7454551daf00d0",
    ("d4", 12): "cb705d19a3b36edf62e49ce352abc337436a367e9e5166839400d4c3b862c613",
    ("g2", 12): "fffe1660abd6182004aa9e39d23a4b5c383e65f5b0eaa7a796cc67545e99c103",
    ("b4", 12): "2dcb7fac870e71600f74e4182cdbd6696644b34edf354c5f7dab4f6e36c2ce66",
    ("d5", 6): "1817a0d77c90afb18f62a1a30ef15e07f2f51bc3c292aecb7abaeb9438a95d35",
    ("d5", 8): "782c8350a05310aad966d55e71e54f4f668cb2bafc534736634f52acd90c45eb",
    ("d4", 18): "3b4fad0115f62131a34fd7af518809bd0b01bd6f59b8e5f4c5a7fa7bb8726059",
    ("g2", 18): "08abcb2872b2f1cfdea05a2696d1ff1983e8a1d2d4bdba5a1b156267e94e4ed3",
}


def table_digest(ctx, top):
    """The sha256 of the canonical text of E_n's tables, n = 0..top."""
    from dunkl.operators import _e_table

    ctx.prepare(top)
    h = hashlib.sha256()
    for n in range(top + 1):
        cols, den = _e_table(ctx, n)
        h.update(f"degree {n} / {den}\n".encode())
        for nu in sorted(cols):
            col = cols[nu]
            entries = " ".join(f"{','.join(map(str, mu))}:{col[mu]}" for mu in sorted(col))
            h.update(f"{','.join(map(str, nu))} {entries}\n".encode())
    return h.hexdigest()


def digest(name, top):
    from dunkl.config import load_context

    return table_digest(load_context(str(ROOT / CONFIGS[name])), top)


@pytest.mark.parametrize("name", ["b3", "b4", "d4", "g2"])
def test_en_tables_to_degree_12_match_their_digests(name):
    assert digest(name, 12) == EN_GOLDEN[name, 12]


def test_d5_en_tables_to_degree_6_match_their_digest():
    assert digest("d5", 6) == EN_GOLDEN["d5", 6]


@pytest.mark.parametrize(
    "name, top, checks", [("a", 8, 990), ("b3", 8, 990), ("g2", 8, 990), ("d4", 6, 5040), ("b4", 6, 5040)]
)
def test_en_tables_relabel_under_the_groups_coordinate_permutations(name, top, checks):
    """V(p o g) = V(p) o g (Dunkl, Canad. J. Math. 43, 1991), so for g a
    permutation pi of the coordinates, e_{pi nu} = e_nu o g: column pi nu of
    E_n's table is column nu with each mu relabelled pi mu, over the same den.
    Every permutation of the group (G2's six in R^3 too) and every nu to the
    degree: 990 checks on A, B3 and G2, 5 040 on D4 and B4 (0.04-0.27 s
    each, building the tables included)."""
    from dunkl.config import load_context
    from dunkl.operators import _e_table
    from dunkl.reflection_groups import signed_image

    ctx = load_context(str(ROOT / CONFIGS[name]))
    ctx.prepare(top)
    group = ctx.group
    perms = [i for i, sp in enumerate(group.signed_permutations) if sp and all(s > 0 for s in sp[1])]
    checked = 0
    for n in range(top + 1):
        cols, den = _e_table(ctx, n)
        for i in perms:
            for nu, col in cols.items():
                image = {signed_image(group, i, mu)[0]: c for mu, c in col.items()}
                assert cols[signed_image(group, i, nu)[0]] == image, (name, i, nu)
                checked += 1
    assert checked == checks


def main(argv):
    """DEGREE NAME...: print each system's digest to DEGREE; exit 1 if a
    pinned one differs."""
    top, names = int(argv[0]), argv[1:]
    failed = False
    for name in names:
        got = digest(name, top)
        want = EN_GOLDEN.get((name, top))
        print(f"{name} {top} {got} {'pinned' if got == want else 'unpinned' if want is None else 'DIFFERS'}")
        failed |= want is not None and got != want
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
