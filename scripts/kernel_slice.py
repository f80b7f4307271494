#!/usr/bin/env python3
"""Trace the kernel along a ray and compare against the weight-zero profile.

For y = t * u with a fixed direction u, prints t, L(x, y), the tail bound,
and the weight-zero closed form e^{<x,y> - |x|^2/2} evaluated at the same
points, which makes the deformation produced by the weight easy to plot.
The context is a config or a cache that dunkl build wrote, loaded as the
CLI loads it, so the tail bound is the one kernel-grid prints on the same
context, and --x and --direction are the decimals typed, as kernel-grid
reads its grid.  Bad arguments exit 2, as the dunkl CLI does.

    python3 scripts/kernel_slice.py configs/b2.json --x 0.1,0.05 --steps 25
"""
import argparse
import math
import sys

from dunkl.cli import _at_least, _decimals, _truncation_degree, main as run_guarded
from dunkl.config import ConfigError, load_context
from dunkl.kernel import lk_series_value, make_evaluator, tail_bound


def kernel_slice(args):
    ctx = load_context(args.config)
    d = ctx.dimension
    x = tuple(_decimals(args.x.split(","), args.x))
    if args.direction:
        u = tuple(_decimals(args.direction.split(","), args.direction))
    else:
        u = (1,) + (0,) * (d - 1)
    if len(x) != d or len(u) != d:
        raise ConfigError(f"base point and direction must have dimension {d}")
    norm = math.hypot(*u)
    if norm == 0.0:
        raise ConfigError(f"direction {args.direction!r} is zero")
    u = tuple(t / norm for t in u)
    if not math.isfinite(args.radius):
        raise ConfigError(f"--radius must be finite, got {args.radius}")
    steps = _at_least(args.steps, 2, "--steps")
    degree = _truncation_degree(args.degree, d)
    ev = make_evaluator(ctx, degree)
    xn = math.hypot(*x)

    print("t,kernel,tail_bound,weight_zero_profile")
    for i in range(steps):
        t = -args.radius + 2 * args.radius * i / (steps - 1)
        y = tuple(t * c for c in u)
        val = complex(lk_series_value(ev, x, y))
        tb = tail_bound(ev, xn, abs(t))
        flat = math.exp(sum(a * b for a, b in zip(x, y)) - xn * xn / 2)
        print(f"{t:.17g},{val.real:.17g},{tb.value:.17g},{flat:.17g}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", help="a config, or a cache dunkl build wrote")
    parser.add_argument("--x", required=True, help="comma-separated base point")
    parser.add_argument("--direction", default=None, help="ray direction, default e1")
    parser.add_argument("--radius", type=float, default=1.5)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--degree", type=int, default=None)
    parser.set_defaults(func=kernel_slice)
    return run_guarded(argv, parser)


if __name__ == "__main__":
    sys.exit(main())
