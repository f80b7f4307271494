#!/usr/bin/env python3
"""Trace the kernel along a ray and compare against the weight-zero profile.

For y = t * u with a fixed direction u, prints t, L(x, y), the tail bound,
and the weight-zero closed form e^{<x,y> - |x|^2/2} evaluated at the same
points, which makes the deformation produced by the weight easy to plot.

    python3 scripts/kernel_slice.py configs/b2.json --x 0.1,0.05 --steps 25
"""
import argparse
import math
import sys

from dunkl.config import build_bundle, load_config
from dunkl.kernel import lk_series_value, make_evaluator, tail_bound


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config")
    parser.add_argument("--x", required=True, help="comma-separated base point")
    parser.add_argument("--direction", default=None, help="ray direction, default e1")
    parser.add_argument("--radius", type=float, default=1.5)
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--degree", type=int, default=None)
    args = parser.parse_args()

    bundle = build_bundle(load_config(args.config))
    d = bundle.group.dimension
    x = tuple(float(t) for t in args.x.split(","))
    if len(x) != d:
        print(f"base point must have dimension {d}", file=sys.stderr)
        return 2
    if args.direction:
        u = tuple(float(t) for t in args.direction.split(","))
    else:
        u = (1.0,) + (0.0,) * (d - 1)
    norm = math.sqrt(sum(t * t for t in u))
    u = tuple(t / norm for t in u)
    degree = args.degree if args.degree is not None else (14 if d <= 2 else 10)
    ev = make_evaluator(bundle.ctx, degree)
    xn = math.sqrt(sum(t * t for t in x))

    print("t,kernel,tail_bound,weight_zero_profile")
    for i in range(args.steps):
        t = -args.radius + 2 * args.radius * i / (args.steps - 1)
        y = tuple(t * c for c in u)
        val = complex(lk_series_value(ev, x, y))
        tb = tail_bound(ev, xn, abs(t))
        flat = math.exp(sum(a * b for a, b in zip(x, y)) - xn * xn / 2)
        print(f"{t:.17g},{val.real:.17g},{tb.value:.17g},{flat:.17g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
