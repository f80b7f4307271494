"""Config files, polynomial literals, and exact context caches.

Root-system configs are JSON like

    {"family": "B", "d": 2, "k": {"long": "3/2", "short": "1/2"}, "N": 8}

with scalars as exact rational strings "p/q" (floats are read through their
decimal repr), complex scalars as {"re": ..., "im": ...}, and k either a
single scalar, a list with one entry per canonical root orbit, or a mapping
from orbit labels.  A context cache holds the config, the group order, the
degree, and the lambda tables (rational strings) with the fallback degrees
of degrees 1..degree, as _cache_tables writes them.  A load solves each
class system again and accepts the cache only if its two entries equal
that solve's, so the class solve is the one source of lambda_n.
"""
from __future__ import annotations

import json

from .exact import ComplexRational, format_rational, parse_scalar, scalar_to_json
from .operators import DEGREE_CAP, DunklContext, _class_solve, make_context
from .poly import Polynomial
from .reflection_groups import (
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


def _degree(value, low, what):
    """value as a degree in low..DEGREE_CAP: an int, an integral float or a
    decimal string; anything else, a boolean or 2.7 say, raises ConfigError.
    The one check of a config's N, a cache's degree and every --degree."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            if low <= int(value) <= DEGREE_CAP:
                return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what} must be in {low}..{DEGREE_CAP}, got {value!r}")


def build_bundle(cfg: dict) -> DunklContext:
    """The context cfg describes, with its name and N; nothing is solved yet."""
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
    degree = _degree(cfg.get("N", 8), 1, "config field 'N'")
    name = cfg.get("name", f"{system.family_tag}{system.dimension}")
    # build writes <name>.ctx.json: a plain file name, never a path
    if not isinstance(name, str) or not name.strip(".") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"config field 'name' must be a plain file name, got {name!r}")
    return make_context(group, positives, k, name, cfg, degree)


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


# -- context cache ---------------------------------------------------------------

def _cache_tables(ctx: DunklContext, degree):
    """The lambda tables and fallback degrees of degrees 1..degree, read
    from ctx.h_cache, in the JSON form a cache stores."""
    lams = {n: ctx.h_cache[n] for n in range(1, degree + 1)}
    return {
        "lambdas": {
            str(n): [scalar_to_json(c) for c in lam] for n, lam in lams.items() if lam is not None
        },
        "fallback_degrees": [n for n, lam in lams.items() if lam is None],
    }


def save_context(ctx: DunklContext, path):
    payload = {
        "config": ctx.config,
        "degree": ctx.prepared_to,
        "group_order": ctx.group.order,
        **_cache_tables(ctx, ctx.prepared_to),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload


def load_context(path) -> DunklContext:
    """Load either a raw config or a cached context (detected by 'lambdas'),
    prepared to its degree: the config's N, or the cache's degree.

    A cache must carry its config, group order and a degree in
    1..DEGREE_CAP.  Each lambda_n is then solved again from the config
    (_class_solve), and the cache's lambda tables and fallback degrees must
    equal _cache_tables of that solve (a cache that needs no fallback degree
    may leave the key out); anything else raises ConfigError, naming the
    first degree that differs.  No H_n table is built here, for a cache or
    a config, except at a config's fallback degrees (prepare), where it is
    checked and not kept: solve_H builds each for E_n's degree step.
    """
    data = load_config(path)
    if not isinstance(data, dict) or "lambdas" not in data:
        ctx = build_bundle(data)
    else:
        missing = [key for key in ("config", "group_order", "degree") if key not in data]
        if missing:
            raise ConfigError(f"cached context {path} lacks {', '.join(missing)}")
        ctx = build_bundle(data["config"])
        if ctx.group.order != data["group_order"]:
            raise ConfigError("cached context does not match the rebuilt group")
        ctx.degree = _degree(data["degree"], 1, f"the degree of cached context {path}")
        for n in range(1, ctx.degree + 1):
            ctx.h_cache[n] = _class_solve(ctx, n)
        want = _cache_tables(ctx, ctx.degree)
        lambdas, fallback = data["lambdas"], data.get("fallback_degrees", [])
        if (lambdas, fallback) != (want["lambdas"], want["fallback_degrees"]):
            raise ConfigError(
                f"cached context {path} is not the class solve of its config: "
                + _first_difference(lambdas, fallback, want, ctx.degree)
            )
    return ctx.prepare(ctx.degree)


def _first_difference(lambdas, fallback, want, degree):
    """Where a cache's lambda tables or fallback degrees first differ from want."""
    if not isinstance(lambdas, dict) or not isinstance(fallback, list):
        return "its lambdas are not a mapping or its fallback degrees not a list"
    for n in range(1, degree + 1):
        if lambdas.get(str(n)) != want["lambdas"].get(str(n)):
            return f"cached lambda_{n} differs"
        if (n in fallback) != (n in want["fallback_degrees"]):
            return f"cached fallback listing of degree {n} differs"
    return f"it lists a degree outside 1..{degree}, or one twice or out of order"


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
            coeff = f"({format_rational(c.real)}, {format_rational(c.imag)})"
            sign = "+"
        else:
            sign = "-" if c < 0 else "+"
            coeff = format_rational(abs(c))
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
        if not mono_part.strip():
            raise ConfigError(f"term {chunk!r} has no monomial after '*'")
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
