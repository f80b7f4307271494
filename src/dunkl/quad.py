"""Integration against the standard Gaussian probability measure.

Everything targets dgamma = (2 pi)^{-d/2} e^{-|z|^2/2} dz, which has unit
mass and unit variance per axis.  Polynomials are integrated in closed form,
from the moments and, for Fourier integrals, from the Hermite values of
poly.hermite_values.  Tensor Gauss-Hermite rules remain for other
integrands, for export, and as a second route in the checks.  Nodes and
weights come from the probabilists' Gauss-Hermite rule (weight e^{-t^2/2});
the single conversion from the classical e^{-t^2} convention happens inside
numpy's hermegauss and nowhere else.  A tensor rule with q points per axis
integrates every monomial with per-axis degree <= 2q - 1 exactly, hence
every monomial of total degree <= 2q - 1.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .poly import hermite_values


_NODE_CAP = 4_000_000


# nodes (n, d); weights (n,), positive, sum to 1
QuadratureRule = namedtuple("QuadratureRule", "dimension nodes weights exact_degree")


def gauss_rule(d: int, q: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule with q nodes per axis, exact to degree 2q-1.

    A q or d at which a weight is not finite and positive in floats raises
    ValueError (numpy's weights are 0 at q = 371 and NaN from q = 372).
    """
    if q < 1:
        raise ValueError("need at least one point per axis")
    if q**d > _NODE_CAP:
        raise ValueError(f"{q}^{d} nodes exceed the cap of {_NODE_CAP}")
    with np.errstate(all="ignore"):  # overflow past q = 370 is refused below
        x, w = hermegauss(q)
        w = w / w.sum()
    grids = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(q**d)
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    for g in wgrids:
        weights = weights * g.ravel()
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise ValueError(
            f"{q} points per axis in d = {d} give weights that are not finite and positive"
        )
    return QuadratureRule(d, nodes, weights, 2 * q - 1)


def _node_values(f, nodes):
    """f on an (n, d) array of nodes.  ``f`` may be a Polynomial-like object
    (anything with evaluate_many), a vectorized callable on the array, or a
    pointwise callable, which is called once per node when the array call
    fails or does not give one value per node."""
    if hasattr(f, "evaluate_many"):
        return np.asarray(f.evaluate_many(nodes))
    if not callable(f):
        raise TypeError("integrand must be a polynomial or a callable")
    try:
        vals = np.asarray(f(nodes))
    except (TypeError, ValueError, IndexError):
        vals = None
    if vals is None or vals.shape != (len(nodes),):
        vals = np.array([f(z) for z in nodes])
    return vals


def integrate(f, rule: QuadratureRule):
    """Weighted node sum of f (see _node_values); exact for polynomials
    within rule.exact_degree."""
    vals = _node_values(f, rule.nodes)
    # a correctly rounded sum: np.dot over 20^4 nodes is off by ~1e-11
    terms = rule.weights * vals
    re = math.fsum(terms.real.tolist())
    im = math.fsum(terms.imag.tolist()) if np.iscomplexobj(terms) and terms.imag.any() else 0.0
    return re if im == 0.0 else complex(re, im)


def gaussian_integral(p):
    """integral of the polynomial p against dgamma: sum_nu c_nu gaussian_moment(nu),
    exact on exact coefficients."""
    return sum(c * gaussian_moment(nu) for nu, c in p.terms.items())


def fourier_quadrature(p, y):
    """integral of p(z) e^{-i<y,z>} dgamma(z) for a polynomial p, in closed form.

    z^nu contributes (-i)^{|nu|} prod_j He_{nu_j}(y_j) times e^{-|y|^2/2}, since
    z^n e^{-iyz} = (i d/dy)^n e^{-iyz} and (d/dy)^n e^{-y^2/2} =
    (-1)^n He_n(y) e^{-y^2/2}.  Evaluated in complex floats, with He_e(y_j)
    from poly.hermite_values.
    """
    y = [float(t) for t in y]
    # phased[j][e] = (-i)^e He_e(y_j)
    phased = [
        [(-1j) ** e * h for e, h in enumerate(hermite_values(t, max(p.degree, 0)))] for t in y
    ]
    total = sum(
        complex(c) * math.prod(row[e] for row, e in zip(phased, nu)) for nu, c in p.terms.items()
    )
    return total * math.exp(-sum(t * t for t in y) / 2.0)


def gaussian_moment(nu) -> int:
    """Closed-form dgamma moment of z^nu: product of (e-1)!! over even e, else 0."""
    if any(e % 2 for e in nu):
        return 0
    return math.prod(math.prod(range(e - 1, 0, -2)) for e in nu)


def export_rule_csv(rule: QuadratureRule) -> str:
    header = ",".join(f"z{i + 1}" for i in range(rule.dimension)) + ",weight"
    lines = [header]
    for node, w in zip(rule.nodes, rule.weights):
        coords = ",".join(f"{float(c):.17g}" for c in node)
        lines.append(f"{coords},{float(w):.17g}")
    return "\n".join(lines) + "\n"
