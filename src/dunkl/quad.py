"""Integration against the standard Gaussian probability measure.

All rules target dgamma = (2 pi)^{-d/2} e^{-|z|^2/2} dz, which has unit mass
and unit variance per axis.  Nodes and weights come from the probabilists'
Gauss-Hermite rule (weight e^{-t^2/2}); the single conversion from the
classical e^{-t^2} convention happens inside numpy's hermegauss and nowhere
else.  A tensor rule with q points per axis integrates every monomial with
per-axis degree <= 2q - 1 exactly, hence every monomial of total degree
<= 2q - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss


class QuadratureDegreeError(ValueError):
    pass


class UncertifiedDecayError(ValueError):
    pass


_NODE_CAP = 4_000_000


@dataclass(frozen=True)
class QuadratureRule:
    dimension: int
    nodes: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,), positive, sums to 1
    exact_degree: int


def gauss_rule(d: int, q: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule with q nodes per axis, exact to degree 2q-1."""
    if q < 1:
        raise ValueError("need at least one point per axis")
    if q**d > _NODE_CAP:
        raise MemoryError(f"{q}^{d} nodes exceed the cap of {_NODE_CAP}")
    x, w = hermegauss(q)
    w = w / w.sum()
    grids = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(q**d)
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    for g in wgrids:
        weights = weights * g.ravel()
    return QuadratureRule(d, nodes, weights, 2 * q - 1)


def integrate(f, rule: QuadratureRule):
    """Weighted node sum; exact for polynomials within rule.exact_degree.

    ``f`` may be a Polynomial-like object (anything with evaluate_many), a
    vectorized callable on an (n, d) array, or a pointwise callable.
    """
    if hasattr(f, "evaluate_many"):
        vals = np.asarray(f.evaluate_many(rule.nodes))
    elif callable(f):
        vals = f(rule.nodes)
        vals = np.asarray(vals)
        if vals.shape != (len(rule.nodes),):
            vals = np.array([f(z) for z in rule.nodes])
    else:
        raise TypeError("integrand must be a polynomial or a callable")
    out = complex(np.dot(rule.weights, vals))
    return out.real if out.imag == 0.0 else out


@dataclass(frozen=True)
class MonteCarloResult:
    value: float
    standard_error: float
    n_samples: int
    seed: int


def monte_carlo(f, d: int, n_samples: int, seed: int) -> MonteCarloResult:
    """Plain Monte Carlo under the standard normal, Philox counter-based RNG.

    The counter-based generator makes the stream splittable, so a parallel
    driver stays deterministic under the same seed.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = np.random.Generator(np.random.Philox(seed))
    samples = rng.standard_normal((n_samples, d))
    if hasattr(f, "evaluate_many"):
        vals = np.real(np.asarray(f.evaluate_many(samples)))
    else:
        vals = f(samples)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (n_samples,):
            vals = np.array([float(f(z)) for z in samples])
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return MonteCarloResult(mean, se, n_samples, seed)


@dataclass(frozen=True)
class GaussianWeighted:
    """Marks an integrand of the form e^{-|z|^2/2} * factor(z).

    The explicit Gaussian factor certifies decay, letting Fourier-type
    integrals be rewritten as dgamma-integrals of the bare factor.
    """

    factor: object  # Polynomial-like or callable


@dataclass(frozen=True)
class BoxGrid:
    lows: tuple
    highs: tuple
    points_per_axis: int


def fourier_quadrature(f, y, rule_or_grid):
    """(2 pi)^{-d/2} * integral of f(z) e^{-i<y,z>} dz.

    With a GaussianWeighted integrand and a QuadratureRule the Gaussian is
    absorbed into dgamma and the oscillatory factor is evaluated on the rule;
    the returned bound is then zero (the rule's polynomial-exactness applies).
    A bare callable needs a BoxGrid; trapezoid integration is used and the
    reported bound is a heuristic boundary-mass indicator, not a certificate.

    Returns (value, truncation_bound).
    """
    y = np.asarray(y, dtype=float)
    if isinstance(f, GaussianWeighted) and isinstance(rule_or_grid, QuadratureRule):
        rule = rule_or_grid
        phases = np.exp(-1j * rule.nodes @ y)
        factor = f.factor
        if hasattr(factor, "evaluate_many"):
            vals = np.asarray(factor.evaluate_many(rule.nodes))
        else:
            vals = np.asarray(factor(rule.nodes))
            if vals.shape != (len(rule.nodes),):
                vals = np.array([factor(z) for z in rule.nodes])
        return complex(np.dot(rule.weights, vals * phases)), 0.0
    if isinstance(rule_or_grid, BoxGrid):
        fn = f.factor if isinstance(f, GaussianWeighted) else f
        gaussian_weighted = isinstance(f, GaussianWeighted)
        grid = rule_or_grid
        d = len(grid.lows)
        axes = [
            np.linspace(grid.lows[i], grid.highs[i], grid.points_per_axis)
            for i in range(d)
        ]
        steps = [ax[1] - ax[0] for ax in axes]
        mesh = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        if hasattr(fn, "evaluate_many"):
            vals = np.asarray(fn.evaluate_many(mesh))
        else:
            vals = np.array([fn(z) for z in mesh])
        if gaussian_weighted:
            vals = vals * np.exp(-0.5 * np.sum(mesh**2, axis=1))
        # trapezoid end-weights per axis
        wts = np.ones(len(mesh))
        shape = (grid.points_per_axis,) * d
        for i in range(d):
            idx = np.unravel_index(np.arange(len(mesh)), shape)[i]
            edge = (idx == 0) | (idx == shape[i] - 1)
            wts[edge] *= 0.5
        cell = float(np.prod(steps))
        c0 = (2.0 * math.pi) ** (d / 2.0)
        phases = np.exp(-1j * mesh @ y)
        value = complex(np.sum(wts * vals * phases)) * cell / c0
        boundary = np.zeros(len(mesh), dtype=bool)
        idxs = np.unravel_index(np.arange(len(mesh)), shape)
        for i in range(d):
            boundary |= (idxs[i] == 0) | (idxs[i] == shape[i] - 1)
        bound = float(np.sum(np.abs(vals[boundary])) * cell / c0)
        return value, bound
    raise UncertifiedDecayError(
        "integrand without certified decay: wrap it in GaussianWeighted or "
        "supply a BoxGrid"
    )


def gaussian_moment(nu) -> int:
    """Closed-form dgamma moment of z^nu: product of (e-1)!! over even e, else 0."""
    out = 1
    for e in nu:
        if e % 2 == 1:
            return 0
        out *= _double_factorial(e - 1)
    return out


def _double_factorial(n):
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


def export_rule_csv(rule: QuadratureRule, path):
    header = ",".join(f"z{i + 1}" for i in range(rule.dimension)) + ",weight"
    lines = [header]
    for node, w in zip(rule.nodes, rule.weights):
        coords = ",".join(f"{float(c):.17g}" for c in node)
        lines.append(f"{coords},{float(w):.17g}")
    text = "\n".join(lines) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text
