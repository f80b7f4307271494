#!/usr/bin/env python3
"""Emit the coefficient-growth table n * max_g |lambda_n(g)| for a config,
or for a cache that dunkl build wrote, over exactly the degrees 1..--degree.

The table is the empirical envelope behind every truncation bound in the
package; watching it flatten toward its supremum is the quickest sanity
check that a weight is comfortably inside the admissible set.  Bad
arguments and inadmissible weights exit 2, as the dunkl CLI does.

    python3 scripts/growth_table.py configs/b2.json --degree 40 --out growth.csv
"""
import argparse
import sys

from dunkl.cli import main as run_guarded
from dunkl.config import _degree, load_context
from dunkl.operators import estimate_delta


def growth_table(args):
    degree = _degree(args.degree, 1, "--degree")
    ctx = load_context(args.config)
    # the rows of degrees 1..degree, whatever degree the context came prepared to
    delta_hat = estimate_delta(ctx, degree)
    lines = ["n,growth"]
    for n, row in ctx.delta_table:
        lines.append(f"{n},{row:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"# delta_hat = {delta_hat:.17g} over degrees 1..{degree} (|G| = {ctx.group.order})",
        file=sys.stderr,
    )
    fallback = [n for n in ctx.fallback_degrees if n <= degree]
    if fallback:
        print(
            f"# degrees realized by the matrix fallback (no coefficient table): {fallback}",
            file=sys.stderr,
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config")
    parser.add_argument("--degree", type=int, default=30)
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=growth_table)
    return run_guarded(argv, parser)


if __name__ == "__main__":
    sys.exit(main())
