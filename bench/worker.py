"""One fresh process of a benchmark round.

    worker.py setup  --contexts DIR --systems b2,a2,b3 --out FILE
    worker.py query  --contexts DIR --systems b2,a2,b3 --requests FILE --out FILE [--trace FILE]
    worker.py verify --contexts DIR --systems b2,a2 --plan FILE --out FILE [--trace FILE]
    worker.py cli    --trace FILE -- <dunkl command line>

setup/query/verify load the cached contexts, record when they are ready
(``perf_counter`` is the system-wide monotonic clock, so the parent can
subtract its spawn time), then serve the requests one at a time and write
each output with its latency.  ``cli`` runs one command through
``dunkl.cli.main`` with the spans installed.  With --trace the spans are
written to FILE when the process ends.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import VERIFY_SEED, ctx_path  # noqa: E402


class Server:
    def __init__(self, contexts, systems):
        # every module a request calls is imported here, so set-up counts it
        from dunkl import config, kernel, operators, verify  # noqa: F401

        self.bundles = {name: config.load_context(str(ctx_path(contexts, name))) for name in systems}
        self.evaluators = {}

    def evaluator(self, name, trunc):
        from dunkl import kernel

        key = (name, trunc)
        if key not in self.evaluators:
            self.evaluators[key] = kernel.make_evaluator(self.bundles[name].ctx, trunc, exact_tables=False)
        return self.evaluators[key]

    def query(self, req):
        from dunkl import config, kernel, operators

        op, name, a = req["op"], req["sys"], req["args"]
        ctx = self.bundles[name].ctx
        if op == "ek":
            kv = operators.dunkl_kernel(ctx, a["x"], a["y"], tol=a["tol"])
            v = complex(kv.value)
            return [v.real, v.imag, kv.tail_bound, kv.degree_used]
        if op == "intertwine":
            p = config.literal_to_polynomial(a["poly"], ctx.dimension)
            return config.polynomial_to_literal(operators.intertwine(ctx, p))
        ev = self.evaluator(name, a["trunc"])
        if op == "lk_eval":
            val = kernel.lk_eval(ev, a["x"], a["y"], tol=a["tol"])
            v = complex(val.value)
            return [v.real, v.imag, val.tail.value]
        if op == "lk_grid":
            vals = kernel.lk_grid(ev, a["xs"], a["ys"])
            return [[[complex(c).real, complex(c).imag] for c in row] for row in vals.tolist()]
        if op == "cert":
            return kernel.certified_radius(ev, a["tol"], a["y_norm"])
        raise ValueError(f"unknown request {op!r}")

    def verify(self, item):
        from dunkl import verify

        name, suite = item
        report = verify.run_suite(self.bundles[name], suite, seed=VERIFY_SEED)
        return [[r.identity, float(r.tolerance), bool(r.passed)] for r in report.results]


def serve(handler, items, tracer):
    out = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            result, err = handler(item), None
        except Exception:  # a failed request is counted, the loop goes on
            result, err = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        out.append({"start": start, "end": end, "out": result, "err": err})
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = []
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "query", "verify", "cli"))
    ap.add_argument("--contexts")
    ap.add_argument("--systems", default="")
    ap.add_argument("--requests")
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    if args.mode == "cli":
        from dunkl import cli

        try:
            code = cli.main(command)
        finally:
            tracer.dump(args.trace)
        return code

    items = []
    if args.mode in ("query", "verify"):
        with open(args.requests or args.plan) as fh:
            items = json.load(fh)
    server = Server(args.contexts, [s for s in args.systems.split(",") if s])
    ready = time.perf_counter()
    handler = server.query if args.mode == "query" else server.verify
    results = serve(handler, items, tracer)
    with open(args.out, "w") as fh:
        json.dump({"ready": ready, "results": results}, fh)
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
