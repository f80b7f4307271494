import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from dunkl.poly import Polynomial, hermite, hermite_values
from dunkl.quad import (
    QuadratureRule,
    fourier_quadrature,
    gauss_rule,
    gaussian_integral,
    gaussian_moment,
    integrate,
)


def test_single_point_rule():
    rule = gauss_rule(1, 1)
    assert len(rule.nodes) == 1 and len(rule.nodes[0]) == 1
    assert abs(rule.nodes[0][0]) < 1e-15
    assert abs(rule.weights[0] - 1.0) < 1e-15


def test_rule_with_weights_out_of_float_range_is_refused(capsys):
    from dunkl.cli import main

    assert all(w > 0 for w in gauss_rule(1, 370).weights)
    # the smallest weight is 1.3e-308 at q = 370 and 1.9e-309, below
    # 2^-1024, at q = 371; in d = 2 the products of q = 200's smallest
    # weights underflow to 0
    for d, q in ((1, 371), (1, 400), (2, 200)):
        with pytest.raises(ValueError, match="not finite and positive"):
            gauss_rule(d, q)
    assert main(["export-quadrature", "--dim", "1", "--points-per-axis", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "configuration error" in captured.err
    assert "Traceback" not in captured.err


def test_two_point_rule_matches_moments():
    rule = gauss_rule(1, 2)
    assert sorted(round(z[0], 12) for z in rule.nodes) == [-1.0, 1.0]
    assert np.allclose(rule.weights, [0.5, 0.5])


def test_tensor_rule_2d():
    rule = gauss_rule(2, 3)
    assert len(rule.nodes) == 9
    p = Polynomial.monomial(2, (2, 2), 1.0)
    assert abs(integrate(p, rule) - 1.0) < 1e-13


def test_integrate_sums_many_nodes_to_full_precision():
    # the x1^11 moment vanishes; a plain dot product over the 20^4 nodes left 7.5e-12
    rule = gauss_rule(4, 20)
    assert abs(integrate(Polynomial.monomial(4, (11, 0, 0, 0), 1.0), rule)) < 1e-12


def test_integrate_examples():
    rule = gauss_rule(1, 6)
    assert abs(integrate(Polynomial.constant(1, 1.0), rule) - 1.0) < 1e-14
    assert abs(integrate(Polynomial.monomial(1, (4,), 1.0), rule) - 3.0) < 1e-12


def test_hermite_pairs_delta():
    rule = gauss_rule(1, 8)
    h2, h3 = hermite((2,)), hermite((3,))
    p22 = integrate(lambda z: h2.evaluate(z) ** 2, rule)
    p23 = integrate(lambda z: h2.evaluate(z) * h3.evaluate(z), rule)
    assert abs(p22 - 1.0) < 1e-12
    assert abs(p23) < 1e-12


def test_moment_sweep_and_symmetry():
    for d, q in ((1, 7), (2, 5)):
        rule = gauss_rule(d, q)
        assert abs(sum(rule.weights) - 1.0) < 1e-14
        # nodes closed under negation with equal weights
        key = {tuple(round(t, 10) for t in z): w for z, w in zip(rule.nodes, rule.weights)}
        for z, w in key.items():
            nz = tuple(round(-t, 10) for t in z)
            assert nz in key and abs(key[nz] - w) < 1e-15
        # all monomials within the exact degree match the closed-form moments
        for total in range(rule.exact_degree + 1):
            for first in range(total + 1):
                nu = (first, total - first)[:d] if d == 2 else (total,)
                if sum(nu) != total:
                    continue
                got = integrate(Polynomial.monomial(d, nu, 1.0), rule)
                want = gaussian_moment(nu)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _transform_on_rule(n, y):
    """integral of z^n e^{-iyz} dgamma(z) on a 40-point rule, a route that
    does not use the Hermite closed form."""
    return integrate(lambda z: z[0] ** n * cmath.exp(-1j * y * z[0]), gauss_rule(1, 40))


def test_fourier_gaussian_self_transform():
    one = Polynomial.constant(1, 1.0)
    for y in (0.0, 0.8, 2.5, 4.0):
        val = fourier_quadrature(one, (y,))
        assert abs(val - math.exp(-y * y / 2)) < 1e-15
        assert abs(val - _transform_on_rule(0, y)) < 1e-13


def test_fourier_first_moment():
    # z^n for n <= 5 in one variable, against the rule
    for y in (0.8, 2.5, 4.0):
        for n in range(6):
            val = fourier_quadrature(Polynomial.monomial(1, (n,)), (y,))
            assert abs(val - _transform_on_rule(n, y)) < 1e-13, (n, y)
        want = -1j * y * math.exp(-y * y / 2)
        assert abs(fourier_quadrature(Polynomial.monomial(1, (1,)), (y,)) - want) < 1e-15


def test_fourier_in_three_dimensions():
    # with y on the first axis, the other coordinates contribute their moments
    p = Polynomial(3, {(3, 2, 0): 1, (1, 0, 4): Fraction(-2, 3), (2, 1, 1): 5, (0, 2, 2): 0.5})
    for yv in (0.8, 2.5, 4.0):
        want = sum(
            complex(c) * _transform_on_rule(nu[0], yv) * gaussian_moment(nu[1:])
            for nu, c in p.terms.items()
        )
        assert abs(fourier_quadrature(p, (yv, 0.0, 0.0)) - want) < 1e-13, yv
    # a general y against the product of three one-variable rules
    y = (0.3, -1.1, 0.7)
    want = sum(
        complex(c) * math.prod(_transform_on_rule(e, t) for e, t in zip(nu, y))
        for nu, c in p.terms.items()
    )
    assert abs(fourier_quadrature(p, y) - want) < 1e-13


def test_fourier_at_zero_is_plain_integral():
    p = Polynomial(2, {(2, 0): 1, (2, 2): Fraction(1, 3), (1, 3): 7, (0, 0): -2})
    assert abs(fourier_quadrature(p, (0.0, 0.0)) - complex(gaussian_integral(p))) < 1e-15
    assert gaussian_integral(p) == 1 + Fraction(1, 3) - 2


def _phase_table_transform(p, y):
    """The transform from the phase table (-i)^e He_e(y_j), each Hermite
    value times its phase."""
    phased = [[(-1j) ** e * h for e, h in enumerate(hermite_values(t, max(p.degree, 0)))] for t in y]
    total = sum(complex(c) * math.prod(row[e] for row, e in zip(phased, nu)) for nu, c in p.terms.items())
    return total * math.exp(-sum(t * t for t in y) / 2.0)


def test_shifted_moments_match_the_phase_table():
    # the cases above: the Gaussian integral of p shifted to -iy against the
    # phase table it replaces
    p3 = Polynomial(3, {(3, 2, 0): 1, (1, 0, 4): Fraction(-2, 3), (2, 1, 1): 5, (0, 2, 2): 0.5})
    p2 = Polynomial(2, {(2, 0): 1, (2, 2): Fraction(1, 3), (1, 3): 7, (0, 0): -2})
    cases = [(Polynomial.monomial(1, (n,)), (y,)) for n in range(6) for y in (0.0, 0.8, 2.5, 4.0)]
    cases += [(p3, (yv, 0.0, 0.0)) for yv in (0.8, 2.5, 4.0)]
    cases += [(p3, (0.3, -1.1, 0.7)), (p2, (0.0, 0.0))]
    for p, y in cases:
        assert abs(fourier_quadrature(p, y) - _phase_table_transform(p, y)) < 1e-15, (p, y)


def test_gaussian_integral_matches_rule():
    p = Polynomial(2, {(4, 2): Fraction(3, 7), (3, 1): 2, (0, 6): Fraction(-1, 5), (0, 0): 1})
    assert gaussian_integral(p) == Fraction(3, 7) * 3 + Fraction(-1, 5) * 15 + 1
    assert abs(integrate(p.to_float(), gauss_rule(2, 4)) - float(gaussian_integral(p))) < 1e-13


def test_rule_is_frozen_dataclass():
    rule = gauss_rule(1, 3)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(AttributeError):
        rule.exact_degree = 5


def test_rule_is_built_once_and_its_arrays_are_read_only():
    # the arrays are tuples: nodes, weights and the axis rule
    rule = gauss_rule(2, 7)
    assert gauss_rule(2, 7) is rule
    for values in (rule.nodes, rule.weights, rule.nodes[0], rule.axis_nodes, rule.axis_weights):
        with pytest.raises(TypeError):
            values[0] = 0.0
    # what callers derive from the shared tuples is theirs to change
    shifted = [[t + 1.0 for t in z] for z in rule.nodes]
    shifted[0][0] = 5.0
    assert rule.nodes[0][0] != 5.0
    assert gauss_rule(2, 3) is not rule
    assert len(gauss_rule(2, 3).nodes) == 9 and {len(z) for z in gauss_rule(2, 3).nodes} == {2}


def test_tensor_rule_is_the_product_of_its_axis_rule():
    rule = gauss_rule(3, 4)
    assert rule.nodes == tuple((a, b, c) for a in rule.axis_nodes for b in rule.axis_nodes
                               for c in rule.axis_nodes)
    assert rule.weights == tuple(a * b * c for a in rule.axis_weights for b in rule.axis_weights
                                 for c in rule.axis_weights)
    assert rule.axis_nodes == tuple(sorted(rule.axis_nodes))
    assert rule.axis_nodes == tuple(-z for z in reversed(rule.axis_nodes))
    assert rule.axis_weights == tuple(reversed(rule.axis_weights))


def test_rule_matches_numpy_hermegauss_for_every_q_to_370():
    # the reference is numpy's eigenvalue rule, normalized to unit mass.
    # Nodes agree to 1 ulp of max(1, |z|) (7.1e-15 at most, measured),
    # weights of normal size to 5.6e-13 relative (numpy's own weights are
    # off by up to 2.8e-13 from the Christoffel numbers at its nodes,
    # measured in 60-digit arithmetic), and every even moment of degree
    # <= min(2q - 2, 58) to 4.1e-15 relative of (2k - 1)!!
    for q in range(1, 371):
        rule = gauss_rule(1, q)
        nodes, weights = hermegauss(q)
        weights = weights / weights.sum()
        assert len(rule.axis_nodes) == q
        for z, want in zip(rule.axis_nodes, nodes):
            assert abs(z - want) <= 4.5e-16 * max(1.0, abs(want)), (q, z, want)
        for w, want in zip(rule.axis_weights, weights):
            if want >= 2.0**-1022:
                assert abs(w - want) <= 1e-12 * want, (q, w, want)
        for k in range(min(q, 30)):
            want = math.prod(range(2 * k - 1, 0, -2))
            got = math.fsum(w * z ** (2 * k) for z, w in zip(rule.axis_nodes, rule.axis_weights))
            assert abs(got - want) <= 1e-14 * want, (q, k)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 13, 40, 60])
def test_rule_nodes_are_within_an_ulp_of_the_zeros(q):
    # He_q, evaluated exactly at the binary values of the floats next to each
    # node, changes sign across it (or vanishes at the node itself): every
    # node is within one ulp of a zero of He_q, and there are q of them
    nodes = gauss_rule(1, q).axis_nodes
    assert len(set(nodes)) == q
    for z in nodes:
        at = [hermite_values(Fraction(t), q)[q] for t in (math.nextafter(z, -math.inf), z,
                                                           math.nextafter(z, math.inf))]
        assert at[1] == 0 or at[0] * at[2] < 0, (q, z)
