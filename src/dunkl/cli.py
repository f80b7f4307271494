"""Batch command-line front end.

Subcommands: build, intertwine, lambda-table, kernel-grid, ek-eval, verify,
export-quadrature.  Output is plot-ready CSV or JSON on stdout (or --out);
floats are printed with 17 significant digits so they round-trip.  ek-eval
prints the correctly rounded truncated sum at the binary values of the
floats it reads for --x and --y, and kernel-grid the correctly rounded
truncated kernel L^(N)(x, y) at the binary values of its grid points.  Exit
codes: 0 success, 1 verification failure, 2 configuration error, 3 out of
memory: the commands raise, and main alone prints the one "configuration
error: ..." line and returns 2, or the one "out of memory: ..." line and
returns 3.  The context cache directory defaults to DUNKL_CACHE_DIR (or the working
directory).  The package is pure Python: no command loads numpy or any
other third-party module.  The package's records are collections.namedtuple
classes or plain classes, so importing this module loads neither inspect
nor typing.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .config import (
    SUITES,
    ConfigError,
    _degree,
    build_bundle,
    literal_to_polynomial,
    load_config,
    load_context,
    polynomial_to_literal,
    save_context,
)
from .exact import format_rational, parse_rational
from .operators import (
    NotInMStarError,
    TruncationError,
    dunkl_kernel,
    intertwine,
    tail_kind,
)
from .reflection_groups import GroupClosureError, MultiplicityError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_MEMORY = 3


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _at_least(value, low, option):
    if value < low:
        raise ConfigError(f"{option} must be at least {low}, got {value}")
    return value


def _tolerance(value):
    if value is not None and not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"--tol must be positive and finite, got {value}")
    return value


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    bundle = build_bundle(cfg)
    degree = _degree(args.degree if args.degree is not None else bundle.degree, 1, "--degree")
    bundle.ctx.prepare(degree)
    out = args.out or os.path.join(_cache_dir(), f"{bundle.name}.ctx.json")
    save_context(bundle, out)
    ctx = bundle.ctx
    print(f"context {bundle.name}: |G| = {bundle.group.order}")
    gamma = ctx.gamma
    if gamma.imag:
        print(f"gamma = {format_rational(gamma.real)} + {format_rational(gamma.imag)} i")
    else:
        print(f"gamma = {format_rational(gamma.real)}")
    for n in range(1, degree + 1):
        path = "matrix-fallback" if ctx.h_cache[n] is None else "group-algebra"
        print(f"  degree {n}: invertible ({path})")
    print(f"delta_hat = {_fmt(ctx.delta_hat)} (from degrees 1..{degree})")
    print("n * max |lambda_n(g)| table:")
    for n, row in ctx.delta_table:
        print(f"  {n:3d}  {_fmt(row)}")
    print(f"cached exact context to {out}")
    return EXIT_OK


def _cache_dir():
    return os.environ.get("DUNKL_CACHE_DIR", ".")


def cmd_intertwine(args) -> int:
    bundle = load_context(args.context)
    p = literal_to_polynomial(args.poly, bundle.group.dimension)
    print(polynomial_to_literal(intertwine(bundle.ctx, p)))
    return EXIT_OK


def cmd_lambda_table(args) -> int:
    bundle = load_context(args.context)
    degree = _degree(args.degree if args.degree is not None else bundle.degree, 0, "--degree")
    bundle.ctx.prepare(degree)
    lines = ["n,element,re,im"]
    for n in range(1, degree + 1):
        lam = bundle.ctx.h_cache[n]
        if lam is None:
            continue
        for idx, c in enumerate(lam):
            lines.append(f"{n},{idx},{_fmt(float(c.real))},{_fmt(float(c.imag))}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _floats(texts, where):
    try:
        values = [float(t) for t in texts]
    except ValueError:
        raise ConfigError(f"bad number in {where!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"non-finite number in {where!r}")
    return values


GRID_POINT_CAP = 1_000_000  # (x, y) pairs in one --grid
# kernel-grid's pairs times C(N + d, d) monomials: 2e7 take 9-16 s on B2
GRID_TERM_CAP = 20_000_000


def parse_grid(spec: str, d: int):
    """Grid spec "x1:lo:hi:step,y1:lo:hi:step,x2:0.3"; each coordinate at most
    once, unlisted coordinates 0.  A range's points lo + i step are formed
    in exact decimals (exact.parse_rational) and each rounded once."""
    axes = {}
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        name = parts[0].strip()
        if name[:1] not in ("x", "y") or not name[1:].isdecimal():
            raise ConfigError(f"bad grid coordinate {name!r}")
        # int() refuses 4300+ digits; any index that long is out of range
        idx = int(name[1:]) - 1 if len(name) < 20 else d
        if not 0 <= idx < d:
            raise ConfigError(f"coordinate {name} out of range for dimension {d}")
        if len(parts) == 2:
            values = _floats(parts[1:], chunk)
        elif len(parts) == 4:
            lo, hi, step = map(parse_rational, _floats(parts[1:], chunk))
            if step <= 0 or hi < lo:
                raise ConfigError(f"bad range in {chunk!r}")
            span = (hi - lo) // step
            if not span < GRID_POINT_CAP:
                raise ConfigError(f"range {chunk!r} has more than {GRID_POINT_CAP} points")
            values = [float(lo + i * step) for i in range(span + 1)]
        else:
            raise ConfigError(f"bad grid chunk {chunk!r}")
        if (name[0], idx) in axes:
            raise ConfigError(f"grid coordinate {name[0]}{idx + 1} is given twice")
        axes[(name[0], idx)] = values
    x_axes = [axes.get(("x", i), [0.0]) for i in range(d)]
    y_axes = [axes.get(("y", i), [0.0]) for i in range(d)]
    pairs = math.prod(len(v) for v in x_axes + y_axes)
    if pairs > GRID_POINT_CAP:
        raise ConfigError(f"grid of {pairs} (x, y) pairs exceeds {GRID_POINT_CAP}")
    return list(itertools.product(*x_axes)), list(itertools.product(*y_axes))


def _truncation_degree(option, d):
    """--degree if given, else the default truncation degree of kernel-grid
    (and of scripts/kernel_slice.py): 14 in d <= 2, 10 above."""
    return _degree((14 if d <= 2 else 10) if option is None else option, 0, "--degree")


def cmd_kernel_grid(args) -> int:
    from .kernel import certified_radius, lk_values, make_evaluator, tail_bound

    bundle = load_context(args.context)
    d = bundle.group.dimension
    degree = _truncation_degree(args.degree, d)
    xs, ys = parse_grid(args.grid, d)
    tol = _tolerance(args.tol)
    terms = len(xs) * len(ys) * math.comb(degree + d, d)
    if terms > GRID_TERM_CAP:
        raise ConfigError(f"refusing grid: {len(xs) * len(ys)} (x, y) pairs at degree {degree} are "
                          f"an estimated {terms:.3g} terms, above the cap of {GRID_TERM_CAP:.3g}")
    ev = make_evaluator(bundle.ctx, degree)
    y_norms = [math.hypot(*y) for y in ys]
    tails = [[tail_bound(ev, xn, yn) for yn in y_norms] for xn in (math.hypot(*x) for x in xs)]
    worst = max((tb for row in tails for tb in row), key=lambda tb: tb.value)
    if not worst.value < (math.inf if tol is None else tol):
        reason = "is not finite"
        if tol is not None:
            radius = certified_radius(ev, tol, max(y_norms))
            reason = (
                f"exceeds tol = {tol:.3g}; certified |x| radius at this truncation is "
                f"{radius:.4g}"
            )
        raise ConfigError(
            f"refusing grid: tail bound {worst.value:.3g} at |x| = {worst.x_norm:.3g} {reason}"
        )
    values = lk_values(ev, xs, ys)
    header = (
        ",".join(f"x{i + 1}" for i in range(d))
        + ","
        + ",".join(f"y{i + 1}" for i in range(d))
        + ",re(L),im(L),tail_bound"
    )
    lines = [header]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = values[i][j]
            coords = ",".join(_fmt(t) for t in x) + "," + ",".join(_fmt(t) for t in y)
            lines.append(f"{coords},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(tails[i][j].value)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ek_eval(args) -> int:
    bundle = load_context(args.context)
    d = bundle.group.dimension
    x = tuple(_floats(args.x.split(","), args.x))
    y = tuple(_floats(args.y.split(","), args.y))
    tol = _tolerance(args.tol)
    if len(x) != d or len(y) != d:
        raise ConfigError(f"points must have dimension {d}")
    val = dunkl_kernel(bundle.ctx, x, y, tol=tol)
    v = complex(val.value)
    print(f"E(x, y) = {_fmt(v.real)} + {_fmt(v.imag)} i")
    print(f"degree used = {val.degree_used}")
    print(f"tail bound = {_fmt(val.tail_bound)}")
    print(f"last term = {_fmt(val.last_term)}")
    print(f"tail bound kind = {tail_kind(bundle.ctx)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    bundle = load_context(args.context)
    report = run_suite(bundle, args.suite, seed=args.seed)
    text = json.dumps(report.to_json(), indent=1, sort_keys=True, allow_nan=False) + "\n"
    _write(args.out, text)
    if args.out:
        status = "PASS" if report.passed else "FAIL"
        print(f"{args.suite}: {status} ({len(report.results)} checks)")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_export_quadrature(args) -> int:
    from .quad import export_rule_csv, gauss_rule

    d = _at_least(args.dim, 1, "--dim")
    q = _at_least(args.points_per_axis, 1, "--points-per-axis")
    try:
        rule = gauss_rule(d, q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write(args.out, export_rule_csv(rule))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Intertwining-operator computations and identity verification "
        "for finite reflection groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and cache an exact context from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("intertwine", help="apply the intertwining operator to a literal")
    p.add_argument("--context", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_intertwine)

    p = sub.add_parser("lambda-table", help="CSV of the group-algebra coefficients")
    p.add_argument("--context", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lambda_table)

    p = sub.add_parser("kernel-grid", help="kernel values with tail bounds on a grid")
    p.add_argument("--context", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kernel_grid)

    p = sub.add_parser("ek-eval", help="evaluate the generalized exponential")
    p.add_argument("--context", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_ek_eval)

    p = sub.add_parser("verify", help="run a verification suite, emit a JSON report")
    p.add_argument("--context", required=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-quadrature", help="CSV of nodes and weights")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points-per-axis", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_quadrature)
    return parser


def main(argv=None, parser=None) -> int:
    """Run the command argv names under parser (default dunkl's); config errors
    exit 2, and running out of memory exits 3."""
    args = (parser or make_parser()).parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, MultiplicityError, GroupClosureError, NotInMStarError, TruncationError, OSError
    ) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'the request needs more memory than the process can get'}",
              file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
