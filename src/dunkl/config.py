"""Config files, polynomial literals, and exact context caches.

Root-system configs are JSON like

    {"family": "B", "d": 2, "k": {"long": "3/2", "short": "1/2"}, "N": 8}

with scalars as exact rational strings "p/q" (floats are read through their
decimal repr), complex scalars as {"re": ..., "im": ...}, and k either a
single scalar, a list with one entry per canonical root orbit, or a mapping
from orbit labels.  Context caches persist the group-algebra coefficient
tables as rational strings so a reload is exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    ComplexRational,
    format_rational,
    parse_scalar,
    scalar_to_json,
)
from .operators import (
    DEGREE_CAP,
    DunklContext,
    _class_solve,
    estimate_delta,
    make_context,
    solves_row_identity,
)
from .poly import Polynomial
from .reflection_groups import (
    MultiplicityFunction,
    build_root_system,
    dot,
    generate_group,
    root_orbits,
    select_positive,
    validate_multiplicity,
)


class ConfigError(ValueError):
    pass


# the verify suites, here so the CLI parser names them without importing verify
SUITES = ("exact", "series", "quadrature", "signs", "positivity", "all")


@dataclass(eq=False)
class ContextBundle:
    name: str
    config: dict
    positives: object
    group: object
    k: MultiplicityFunction
    ctx: DunklContext
    degree: int


def orbit_labels(system, orbits):
    """Canonical names for the root orbits.

    One orbit is "all"; exactly two with distinct lengths are "short" and
    "long"; anything else is orbit0, orbit1, ... in canonical order.
    """
    if len(orbits) == 1:
        return ("all",)
    norms = [dot(system.roots[orb[0]], system.roots[orb[0]]) for orb in orbits]
    if len(orbits) == 2 and norms[0] != norms[1]:
        return ("short", "long") if norms[0] < norms[1] else ("long", "short")
    return tuple(f"orbit{i}" for i in range(len(orbits)))


def _resolve_k(k_field, system, positives):
    orbits = root_orbits(system)
    if isinstance(k_field, dict) and not ("re" in k_field or "im" in k_field):
        labels = orbit_labels(system, orbits)
        values = []
        for i, label in enumerate(labels):
            if label in k_field:
                values.append(parse_scalar(k_field[label]))
            elif f"orbit{i}" in k_field:
                values.append(parse_scalar(k_field[f"orbit{i}"]))
            else:
                raise ConfigError(f"no weight supplied for orbit {label!r}")
        extras = set(k_field) - set(labels) - {f"orbit{i}" for i in range(len(labels))}
        if extras:
            raise ConfigError(f"unknown orbit labels in k: {sorted(extras)}")
        return validate_multiplicity(positives, values, orbits)
    if isinstance(k_field, list):
        return validate_multiplicity(positives, [parse_scalar(v) for v in k_field], orbits)
    return validate_multiplicity(positives, parse_scalar(k_field), orbits)


def _int_field(cfg, key, default):
    try:
        return int(cfg.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"config field {key!r} must be an integer, got {cfg[key]!r}") from None


def build_bundle(cfg: dict) -> ContextBundle:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    family = cfg.get("family")
    if family is None:
        raise ConfigError("config needs a 'family'")
    d = cfg.get("d")
    m = cfg.get("m")
    try:
        system = build_root_system(family, d=d, m=m)
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    positives = select_positive(system)
    group = generate_group(positives)
    if "k" not in cfg:
        raise ConfigError("config needs a weight 'k'")
    try:
        k = _resolve_k(cfg["k"], system, positives)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    ctx = make_context(group, positives, k)
    degree = _int_field(cfg, "N", 8)
    if not 1 <= degree <= DEGREE_CAP:
        raise ConfigError(f"config field 'N' must be in 1..{DEGREE_CAP}, got {degree}")
    name = cfg.get("name") or f"{system.family_tag}{system.dimension}"
    return ContextBundle(name, cfg, positives, group, k, ctx, degree)


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


# -- context cache ---------------------------------------------------------------

def save_context(bundle: ContextBundle, path):
    ctx = bundle.ctx
    lambdas = {}
    for n, lam in sorted(ctx.h_cache.items()):
        if lam is not None:
            lambdas[str(n)] = [scalar_to_json(c) for c in lam]
    payload = {
        "config": bundle.config,
        "degree": ctx.prepared_to,
        "group_order": bundle.group.order,
        "gamma": scalar_to_json(ctx.gamma),
        "lambdas": lambdas,
        "fallback_degrees": ctx.fallback_degrees,
        "delta_hat": ctx.delta_hat,
        "delta_table": [[n, v] for n, v in ctx.delta_table],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload


def load_context(path) -> ContextBundle:
    """Load either a raw config or a cached context (detected by 'lambdas').

    A cache must carry its config, group order, degree and lambda tables,
    every degree, lambda key and fallback degree in 1..DEGREE_CAP, each
    degree in 1..degree a lambda key or a fallback degree and none both,
    each lam_n with one entry per group element, constant on conjugacy
    classes, that satisfies the row identity of solve_H exactly at one
    element per class, and a singular class system at each fallback degree;
    anything else raises ConfigError.  No H_n table is built here: solve_H
    builds each on first use.
    """
    data = load_config(path)
    if not isinstance(data, dict) or "lambdas" not in data:
        bundle = build_bundle(data)
        bundle.ctx.prepare(bundle.degree)
        return bundle
    missing = [key for key in ("config", "group_order", "degree") if key not in data]
    if missing:
        raise ConfigError(f"cached context {path} lacks {', '.join(missing)}")
    bundle = build_bundle(data["config"])
    ctx = bundle.ctx
    if bundle.group.order != data["group_order"]:
        raise ConfigError("cached context does not match the rebuilt group")
    try:
        degree = int(data["degree"])
        tables = {
            int(n): [parse_scalar(c) for c in coeffs]
            for n, coeffs in dict(data["lambdas"]).items()
        }
        fallback = [int(n) for n in data.get("fallback_degrees", [])]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed cached context {path}: {exc}") from None
    if not 1 <= degree <= DEGREE_CAP:
        raise ConfigError(f"cached context {path} has degree {degree}, not in 1..{DEGREE_CAP}")
    for n, coeffs in sorted(tables.items()):
        if not 1 <= n <= DEGREE_CAP:
            raise ConfigError(f"cached lambda_{n} has a degree outside 1..{DEGREE_CAP}")
        if len(coeffs) != bundle.group.order:
            raise ConfigError(
                f"cached lambda_{n} is not a table of |G| = {bundle.group.order} entries"
            )
        if not solves_row_identity(ctx, n, coeffs):
            raise ConfigError(
                f"cached lambda_{n} is not a class function inverting (n + gamma) e - a"
            )
        ctx.h_cache[n] = tuple(coeffs)
    if any(not 1 <= n <= DEGREE_CAP for n in fallback):
        raise ConfigError(f"cached fallback degrees {fallback} are not all in 1..{DEGREE_CAP}")
    for n in sorted(set(range(1, degree + 1)) | set(fallback)):
        if (n in tables) == (n in fallback) or n in fallback and _class_solve(ctx, n) is not None:
            raise ConfigError(
                f"cached degree {n} needs lambda_{n} or, where there is none, a fallback listing"
            )
    ctx.h_cache.update(dict.fromkeys(fallback))
    estimate_delta(ctx, degree)
    ctx.prepared_to = degree
    bundle.degree = degree
    return bundle


# -- polynomial literals ------------------------------------------------------------

def polynomial_to_literal(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for nu in sorted(p.terms, key=lambda t: (sum(t), t), reverse=True):
        c = p.terms[nu]
        mono = " ".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(nu) if e
        )
        if isinstance(c, ComplexRational):
            coeff = f"({format_rational(c.re)}, {format_rational(c.im)})"
            sign = "+"
        elif isinstance(c, complex):
            coeff = f"({c.real!r}, {c.imag!r})"
            sign = "+"
        else:
            fr = Fraction(c) if not isinstance(c, float) else None
            if fr is not None:
                sign = "-" if fr < 0 else "+"
                coeff = format_rational(abs(fr))
            else:
                sign = "-" if c < 0 else "+"
                coeff = repr(abs(c))
        body = f"{coeff} * {mono}" if mono else coeff
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def literal_to_polynomial(text: str, dim: int) -> Polynomial:
    """Read a literal as polynomial_to_literal writes it; a malformed one,
    or a term of degree above DEGREE_CAP, raises ConfigError."""
    terms = {}
    for sign, chunk in _split_terms(text):
        try:
            coeff, nu = _parse_term(chunk, dim)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse term {chunk!r} of {text!r}: {exc}") from None
        if sum(nu) > DEGREE_CAP:
            raise ConfigError(f"term {chunk!r} has degree {sum(nu)}, above the cap {DEGREE_CAP}")
        if sign < 0:
            coeff = -coeff
        terms[nu] = terms.get(nu, 0) + coeff
    return Polynomial(dim, terms)


def _split_terms(text):
    text = text.strip()
    if not text:
        raise ConfigError("empty polynomial literal")
    if text[-1] in "+-":
        raise ConfigError(f"polynomial literal {text!r} ends in a sign with no term after it")
    out = []
    depth = 0
    sign = 1
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and "".join(cur).strip():
            out.append((sign, "".join(cur).strip()))
            sign = 1 if ch == "+" else -1
            cur = []
        elif depth == 0 and ch == "-" and not "".join(cur).strip():
            sign = -sign
        elif depth == 0 and ch == "+" and not "".join(cur).strip():
            pass
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        out.append((sign, last))
    if not out:
        raise ConfigError(f"cannot parse polynomial literal {text!r}")
    return out


def _parse_term(chunk, dim):
    chunk = chunk.strip()
    coeff_part = None
    mono_part = chunk
    if "*" in chunk:
        coeff_part, mono_part = chunk.split("*", 1)
    elif chunk.startswith("("):
        close = chunk.index(")")
        coeff_part, mono_part = chunk[: close + 1], chunk[close + 1 :]
    elif not chunk.lstrip().startswith("x"):
        coeff_part, mono_part = chunk, ""
    coeff = 1 if coeff_part is None else _parse_coeff(coeff_part.strip())
    nu = [0] * dim
    mono_part = mono_part.strip()
    if mono_part:
        for factor in mono_part.split():
            if not factor.startswith("x"):
                raise ConfigError(f"bad monomial factor {factor!r}")
            if "^" in factor:
                var, exp = factor[1:].split("^")
                e = int(exp)
            else:
                var, e = factor[1:], 1
            idx = int(var) - 1
            if not 0 <= idx < dim:
                raise ConfigError(f"variable x{var} out of range for dimension {dim}")
            nu[idx] += e
    return coeff, tuple(nu)


def _parse_coeff(text):
    if text.startswith("("):
        inner = text.strip("() ")
        re_str, im_str = inner.split(",")
        return parse_scalar({"re": re_str.strip(), "im": im_str.strip()})
    return parse_scalar(text)
