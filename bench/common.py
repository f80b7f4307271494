"""Shared definitions for the dunkl benchmark: the system ladder, file
locations, and the seeded request schedules.

Every input a workload sends to the package is drawn, by the workload seed,
from the pools stored in ``oracle.json`` next to this file; the oracle holds
the reference output of each pool entry, so any seed can be checked.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
LADDER_DIR = BENCH_DIR / "ladder"
ORACLE_PATH = BENCH_DIR / "oracle.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_DIR = BENCH_DIR / ".work"

# name -> dimension, kernel tolerance of the query-batch dunkl_kernel requests,
# largest |x| |y| of a kernel point (keeps the truncation degree at or below
# the cached N, so solve_H never runs on a query), float-evaluator truncations
# (capped at the cached N for the same reason), and the degree kernel-grid
# uses by default (14 for d <= 2, 10 otherwise).
SYSTEMS = {
    "b2": {"d": 2, "ek_tol": 1e-10, "xy_max": 0.1, "lk_truncs": (10, 11, 12), "grid_degree": 14},
    "a2": {"d": 3, "ek_tol": 1e-10, "xy_max": 0.05, "lk_truncs": (8,), "grid_degree": 10},
    "b3": {"d": 3, "ek_tol": 1e-8, "xy_max": 0.02, "lk_truncs": (8,), "grid_degree": 10},
}
LADDER = ("b2", "a2", "b3")
CLI_TOL = 1e-8  # ek-eval and kernel-grid tolerance on the command line
LK_TOL = 1e-8  # lk_eval tolerance and the certified-radius metric's tolerance
VERIFY_SEED = 0  # the seed `dunkl verify` uses by default
# (system, suite) pairs whose rows the oracle holds
VERIFY_PLAN = {
    "b2": ("exact", "series", "quadrature", "signs", "positivity"),
    "a2": ("exact", "series", "quadrature"),
}
# the calls of a verify-suites round, which loads only B2's cache: every
# B2 suite (8 s in all). A's
# exact, series and quadrature suites would add 11 s, leaving room for half
# as many rounds in a run.
VERIFY_ROUND = tuple(("b2", suite) for suite in VERIFY_PLAN["b2"])
# the commands of a cli-cold round that read each rung's cache, after its
# build. ek-eval and kernel-grid on B3 (6 s) and kernel-grid on A (1.4 s)
# would nearly double the round; query-batch, run by hand, times B3's
# kernel path, and kernel-grid on B2 already solves new degrees inside a
# read command.
CLI_READS = {
    "b2": ("intertwine", "lambda-table", "ek-eval", "kernel-grid"),
    "a2": ("intertwine", "lambda-table", "ek-eval"),
    "b3": ("intertwine", "lambda-table"),
}
# the certified-radius queries of every query-batch round, one evaluator per
# system at |y| = 1; their geometric mean is the certified_radius figure.
# The set is fixed because one query costs 0.4-1.8 s, which would make the
# round's work depend on the seed.
RADIUS_METRIC = (("b2", 12), ("a2", 8), ("b3", 8))


def ladder_config(name) -> Path:
    return LADDER_DIR / f"{name}.json"


def metric_units(kind) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json lists, in its order."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_oracle() -> dict:
    with open(ORACLE_PATH) as fh:
        return json.load(fh)


def require_source():
    """Exit with status 2 unless the package source sits next to the benchmark."""
    if not (SRC_DIR / "dunkl" / "__init__.py").is_file():
        print(f"no dunkl package under {SRC_DIR}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    # fixed string hashing, so set and dict orders, and with them the work,
    # repeat from one process to the next
    env["PYTHONHASHSEED"] = "0"
    return env


def seeded_rng(seed, workload) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def ctx_path(work, name) -> Path:
    return Path(work) / f"{name}.ctx.json"


def source_key() -> str:
    """sha256 of the package sources and the ladder configs, which are all
    that a built context depends on."""
    files = [p for p in SRC_DIR.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    h = hashlib.sha256()
    for path in sorted(files + list(LADDER_DIR.glob("*.json"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- seeded request schedules ---------------------------------------------------

# requests per round of query-batch: (op, system) -> count
QUERY_MIX = {
    ("ek", "b2"): 60, ("ek", "a2"): 60, ("ek", "b3"): 60,
    ("intertwine", "b2"): 30, ("intertwine", "a2"): 30, ("intertwine", "b3"): 30,
    ("lk_eval", "b2"): 45, ("lk_eval", "a2"): 15, ("lk_eval", "b3"): 15,
    ("lk_grid", "b2"): 45,
}
SMOKE_QUERY_MIX = {("ek", "b2"): 3, ("intertwine", "b2"): 3, ("lk_eval", "b2"): 2, ("lk_grid", "b2"): 2}


def query_schedule(oracle, seed, smoke=False):
    """The query-batch requests of a round, each tagged with its pool entry."""
    rng = seeded_rng(seed, "query-batch")
    mix = SMOKE_QUERY_MIX if smoke else QUERY_MIX
    reqs = []
    for (op, name), count in sorted(mix.items()):
        pool = oracle[op][name]
        for idx in rng.sample(range(len(pool)), count):
            reqs.append({"op": op, "sys": name, "ref": idx})
    certs = oracle["cert"]
    reqs.extend({"op": "cert", "sys": c["sys"], "ref": i} for i, c in enumerate(certs)
                if not smoke or c["sys"] == "b2")
    rng.shuffle(reqs)
    for r in reqs:
        r["args"] = request_args(oracle, r)
    return reqs


def request_args(oracle, req):
    """The inputs the package sees for one request (no reference values)."""
    entry = oracle[req["op"]][req["sys"]][req["ref"]] if req["op"] != "cert" else oracle["cert"][req["ref"]]
    op = req["op"]
    if op == "ek":
        return {"x": entry["x"], "y": entry["y"], "tol": SYSTEMS[req["sys"]]["ek_tol"]}
    if op == "intertwine":
        return {"poly": entry["poly"]}
    if op == "lk_eval":
        return {"trunc": entry["trunc"], "x": entry["x"], "y": entry["y"], "tol": LK_TOL}
    if op == "lk_grid":
        return {"trunc": entry["trunc"], "xs": entry["xs"], "ys": entry["ys"]}
    return {"trunc": entry["trunc"], "tol": entry["tol"], "y_norm": entry["y_norm"]}


def verify_schedule(smoke=False):
    """(system, suite) calls of a verify-suites round, B2's suites first, in
    the order of `--suite all`.

    The order takes no seed: the order alone moves the round's peak RSS
    between 55 and 61 MB, which would swamp the metric's bound.
    """
    if smoke:
        return [("b2", "exact"), ("b2", "series")]
    return list(VERIFY_ROUND)


def cli_schedule(oracle, work, seed, smoke=False):
    """The commands of one cli-cold round: (kind, system, argv, pool index).

    Values are attached with "=", since they may start with a minus sign."""
    rng = seeded_rng(seed, "cli-cold")
    out = []
    for name in (("b2",) if smoke else LADDER):
        ctx = str(ctx_path(work, name))
        poly = rng.randrange(len(oracle["intertwine"][name]))
        point = rng.randrange(len(oracle["ek"][name]))
        grid = rng.randrange(len(oracle["cli_grid"][name]))
        ek = oracle["ek"][name][point]
        reads = {
            "intertwine": (["intertwine", "--context", ctx, "--poly=" + oracle["intertwine"][name][poly]["poly"]], poly),
            "lambda-table": (["lambda-table", "--context", ctx], None),
            "ek-eval": (["ek-eval", "--context", ctx, "--x=" + fmt_point(ek["x"]), "--y=" + fmt_point(ek["y"]), "--tol", repr(CLI_TOL)], point),
            "kernel-grid": (["kernel-grid", "--context", ctx, "--grid", oracle["cli_grid"][name][grid]["spec"], "--tol", repr(CLI_TOL)], grid),
        }
        out.append(("build", name, ["build", "--config", str(ladder_config(name)), "--out", ctx], None))
        out += [(kind, name, *reads[kind]) for kind in CLI_READS[name]]
    return out


def fmt_point(v):
    return ",".join(repr(t) for t in v)


# -- output checks ----------------------------------------------------------------

def lambdas_digest(cache: dict) -> str:
    """sha256 of a cached context's exact lambda strings and fallback degrees."""
    blob = json.dumps(
        {"lambdas": cache["lambdas"], "fallback_degrees": cache["fallback_degrees"]},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_grid_csv(text):
    """(re, im, tail_bound) of each kernel-grid CSV row."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        cells = [float(c) for c in line.split(",")]
        rows.append([cells[-3], cells[-2], cells[-1]])
    return rows


def within(value, tail, ref, ref_tail):
    """A truncated value agrees with the reference when the two differ by no
    more than the sum of both certified tail bounds (plus roundoff)."""
    return abs(complex(*value) - complex(*ref)) <= tail + ref_tail + 1e-12


def percentile(values, p):
    """Linearly interpolated percentile (the "inclusive" method), which
    moves continuously with the samples."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0
