"""Regenerate oracle.json: the input pools of every workload and the package's
reference output for each entry.

    PYTHONPATH=src python3 bench/make_oracle.py

Run it only when the pools themselves change: the point of the oracle is
that later versions of the package are checked against the output recorded
here.  Exact outputs (lambda tables, V literals, verify rows) must match
bit for bit; a kernel value must lie within the sum of its own tail bound
and the recorded one (plus 1e-12) of the recorded value.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CLI_TOL,
    LADDER,
    LK_TOL,
    ORACLE_PATH,
    RADIUS_METRIC,
    SYSTEMS,
    VERIFY_PLAN,
    VERIFY_SEED,
    WORK_DIR,
    ladder_config,
    lambdas_digest,
    parse_grid_csv,
    text_digest,
)

POOL_SEED = 1605_02280
EK_POOL = 96
POLY_POOL = 64
LK_POOL = {"b2": 24, "a2": 24, "b3": 24}  # per truncation
GRID_POOL = 20  # lk_grid entries per b2 truncation
CLI_GRID_POOL = 16
LIMIT_DIRECTIONS = 4  # seeded (x, y) directions per certified-radius query
LIMIT_EXTRA = 6  # the reference evaluator's truncation above the query's
POLY_DEGREE = {"b2": 6, "a2": 4, "b3": 4}


def _direction(rng, d):
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    n = math.sqrt(sum(t * t for t in v))
    return [t / n for t in v]


def _point(rng, d, norm):
    return [round(norm * t, 6) for t in _direction(rng, d)]


def _norm(v):
    return math.sqrt(sum(t * t for t in v))


def _poly_literal(rng, d, max_degree):
    from dunkl.config import literal_to_polynomial, polynomial_to_literal

    terms = []
    for k in range(rng.randint(1, 4)):
        nu = [0] * d
        # the first term has the full degree, so every literal fills V to it
        for _ in range(max_degree if k == 0 else rng.randint(1, max_degree)):
            nu[rng.randrange(d)] += 1
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        mono = " ".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(nu) if e)
        terms.append(f"{coeff.numerator}/{coeff.denominator} * {mono}")
    # canonical form, so the literal round-trips through the parser unchanged
    return polynomial_to_literal(literal_to_polynomial(" + ".join(terms), d))


def _run_cli(argv):
    from dunkl.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"dunkl {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def build_contexts(tmp):
    from dunkl.config import build_bundle, load_config, save_context

    out = {}
    for name in LADDER:
        bundle = build_bundle(load_config(ladder_config(name)))
        bundle.ctx.prepare(bundle.degree)
        path = Path(tmp) / f"{name}.ctx.json"
        cache = save_context(bundle, path)
        table = _run_cli(["lambda-table", "--context", str(path)])
        out[name] = {
            "group_order": bundle.group.order,
            "N": bundle.degree,
            "lambdas_sha256": lambdas_digest(cache),
            "lambda_table_sha256": text_digest(table),
        }
    return out


def ek_pool(rng, bundles):
    from dunkl.operators import dunkl_kernel

    pool = {}
    for name in LADDER:
        spec = SYSTEMS[name]
        ctx = bundles[name].ctx
        entries = []
        while len(entries) < EK_POOL:
            y_norm = rng.uniform(0.5, 1.5)
            # near the largest |x| |y|, so one point needs about the same degree
            # as any other and a one-point command does a seed-independent amount
            # of work
            x_norm = spec["xy_max"] * rng.uniform(0.85, 1.0) / y_norm
            x = _point(rng, spec["d"], x_norm)
            y = _point(rng, spec["d"], y_norm)
            kv = dunkl_kernel(ctx, x, y, tol=spec["ek_tol"])
            if kv.degree_used > bundles[name].degree:
                continue
            v = complex(kv.value)
            entries.append({"x": x, "y": y, "value": [v.real, v.imag],
                            "tail_bound": kv.tail_bound, "degree_used": kv.degree_used})
        pool[name] = entries
    return pool


def intertwine_pool(rng, bundles):
    from dunkl.config import literal_to_polynomial, polynomial_to_literal
    from dunkl.operators import intertwine

    pool = {}
    for name in LADDER:
        d = SYSTEMS[name]["d"]
        entries = []
        seen = set()
        while len(entries) < POLY_POOL:
            lit = _poly_literal(rng, d, POLY_DEGREE[name])
            if lit in seen:
                continue
            seen.add(lit)
            out = intertwine(bundles[name].ctx, literal_to_polynomial(lit, d))
            entries.append({"poly": lit, "image": polynomial_to_literal(out)})
        pool[name] = entries
    return pool


def lk_pools(rng, bundles):
    from dunkl.kernel import certified_radius, lk_eval, lk_grid, make_evaluator, tail_bound

    lk, grids, certs = {}, {"b2": []}, []
    for name in LADDER:
        spec = SYSTEMS[name]
        d = spec["d"]
        lk[name] = []
        for trunc in spec["lk_truncs"]:
            ev = make_evaluator(bundles[name].ctx, trunc, exact_tables=False)
            radius = certified_radius(ev, LK_TOL, 1.0)
            for _ in range(LK_POOL[name]):
                x = _point(rng, d, radius * rng.uniform(0.2, 0.9))
                y = _point(rng, d, rng.uniform(0.3, 1.0))
                val = lk_eval(ev, x, y)
                v = complex(val.value)
                lk[name].append({"trunc": trunc, "x": x, "y": y, "value": [v.real, v.imag],
                                 "tail_bound": val.tail.value})
            if name == "b2":
                for _ in range(GRID_POOL):
                    xs = [_point(rng, d, radius * rng.uniform(0.2, 0.9)) for _ in range(3)]
                    ys = [_point(rng, d, rng.uniform(0.3, 1.0)) for _ in range(3)]
                    vals = lk_grid(ev, xs, ys)
                    grids["b2"].append({
                        "trunc": trunc, "xs": xs, "ys": ys,
                        "values": [[[complex(vals[i, j]).real, complex(vals[i, j]).imag]
                                    for j in range(len(ys))] for i in range(len(xs))],
                        "tail_bounds": [[tail_bound(ev, _norm(x), _norm(y)).value for y in ys] for x in xs],
                    })
            if (name, trunc) in RADIUS_METRIC:
                certs.append({"sys": name, "trunc": trunc, "tol": LK_TOL, "y_norm": 1.0})
    return lk, grids, certs


def cert_limits(rng, tmp, certs):
    """Record in each certified-radius query the smallest |x| at which the
    evaluator's actual truncation error reaches tol, along a few seeded
    directions with |y| = 1.  The error is measured against an evaluator
    LIMIT_EXTRA degrees higher.  A certified radius is correct only below
    this limit, whatever tail bound produced it."""
    from dunkl.config import load_context
    from dunkl.kernel import certified_radius, lk_eval, make_evaluator

    for cert in certs:
        ctx = load_context(str(Path(tmp) / f"{cert['sys']}.ctx.json")).ctx
        d, trunc, tol = ctx.dimension, cert["trunc"], cert["tol"]
        ev = make_evaluator(ctx, trunc, exact_tables=False)
        ref = make_evaluator(ctx, trunc + LIMIT_EXTRA, exact_tables=False)
        below = make_evaluator(ctx, trunc + LIMIT_EXTRA - 1, exact_tables=False)
        start = certified_radius(ev, tol, cert["y_norm"])

        def error(rho, xdir, y):
            x = [rho * t for t in xdir]
            return abs(complex(lk_eval(ref, x, y).value) - complex(lk_eval(ev, x, y).value))

        limit = math.inf
        for _ in range(LIMIT_DIRECTIONS):
            xdir = _direction(rng, d)
            y = [cert["y_norm"] * t for t in _direction(rng, d)]
            # the first crossing: step up geometrically, then bisect
            lo = start
            while error(lo * 1.05, xdir, y) < tol:
                lo *= 1.05
            hi = lo * 1.05
            for _ in range(40):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if error(mid, xdir, y) < tol else (lo, mid)
            x = [hi * t for t in xdir]
            # the reference must have converged far below tol where the error crosses it
            drift = abs(complex(lk_eval(ref, x, y).value) - complex(lk_eval(below, x, y).value))
            if not drift < tol / 10.0:
                raise RuntimeError(f"{cert['sys']}: reference not converged at |x| = {hi:.4g}")
            limit = min(limit, hi)
        cert["limit"] = limit


def cli_grid_pool(rng, tmp):
    """kernel-grid specs inside the certified radius at the default degree,
    with the command's own output as reference."""
    from dunkl.config import load_context
    from dunkl.kernel import certified_radius, make_evaluator

    pool = {}
    for name in LADDER:
        spec = SYSTEMS[name]
        d = spec["d"]
        path = str(Path(tmp) / f"{name}.ctx.json")
        ev = make_evaluator(load_context(path).ctx, spec["grid_degree"], exact_tables=False)
        radius = certified_radius(ev, CLI_TOL, 1.0)
        entries = []
        for _ in range(CLI_GRID_POOL):
            c = radius * rng.uniform(0.2, 0.55) / math.sqrt(d)
            b = rng.uniform(0.2, 0.55)
            chunks = [f"x1:{-c:.6g}:{c:.6g}:{c:.6g}"]
            chunks += [f"x{i + 1}:{radius * rng.uniform(-0.3, 0.3) / math.sqrt(d):.6g}" for i in range(1, d)]
            chunks += [f"y1:{-b:.6g}:{b:.6g}:{b:.6g}"]
            chunks += [f"y{i + 1}:{rng.uniform(-0.5, 0.5):.6g}" for i in range(1, d)]
            grid = ",".join(chunks)
            text = _run_cli(["kernel-grid", "--context", path, "--grid", grid, "--tol", repr(CLI_TOL)])
            entries.append({"spec": grid, "rows": parse_grid_csv(text)})
        pool[name] = entries
    return pool


def verify_rows(tmp):
    from dunkl.config import load_context
    from dunkl.verify import run_suite

    out = {}
    for name, suites in VERIFY_PLAN.items():
        bundle = load_context(str(Path(tmp) / f"{name}.ctx.json"))
        out[name] = {}
        for suite in suites:
            report = run_suite(bundle, suite, seed=VERIFY_SEED)
            out[name][suite] = [[r.identity, float(r.tolerance), bool(r.passed)] for r in report.results]
    return out


def main():
    from dunkl.config import load_context

    rng = random.Random(POOL_SEED)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        contexts = build_contexts(tmp)
        bundles = {name: load_context(str(Path(tmp) / f"{name}.ctx.json")) for name in LADDER}
        oracle = {"contexts": contexts, "ek": ek_pool(rng, bundles),
                  "intertwine": intertwine_pool(rng, bundles)}
        oracle["lk_eval"], oracle["lk_grid"], oracle["cert"] = lk_pools(rng, bundles)
        oracle["cli_grid"] = cli_grid_pool(rng, tmp)
        oracle["verify"] = verify_rows(tmp)
        cert_limits(rng, tmp, oracle["cert"])
    with open(ORACLE_PATH, "w") as fh:
        json.dump(oracle, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
