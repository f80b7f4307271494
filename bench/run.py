"""The dunkl benchmark.

    python3 bench/run.py --workload {cli-cold,query-batch,verify-suites,all}
                         --seed N --seconds S --trace {0,1} [--smoke]

Runs one workload from the root of a checkout (the package is taken from
src/), checks every output against oracle.json, prints a table of the
metrics with their units and an environment record, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 one untraced and one traced
round with the same inputs give the per-layer metrics and the tracing
overhead.  --workload all runs each workload in a fresh process and prints
all of their end-to-end metrics.  --smoke shrinks every workload to B2 and
a few requests.  See README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402
from common import (  # noqa: E402
    LADDER,
    ROOT,
    WORK_DIR,
    child_env,
    cli_schedule,
    ctx_path,
    ladder_config,
    lambdas_digest,
    median,
    parse_grid_csv,
    percentile,
    query_schedule,
    source_key,
    text_digest,
    verify_schedule,
    within,
)

WORKLOADS = ("cli-cold", "query-batch", "verify-suites")
CHILD_TIMEOUT = 150.0
# A run makes seconds / ROUND_S rounds (at least MIN_ROUNDS): about one
# round and the set-up probes after it, in seconds, on the reference
# machine.  The count does not depend on the machine's speed, since the
# fastest of more repeats reads lower; only past MIN_ROUNDS, a round that
# would end past SLOW_RUN * seconds is not started, so that a run on a
# machine in a very slow spell still ends in time.
ROUND_S = 8.0
MIN_ROUNDS = 3
SLOW_RUN = 1.5
ROUNDS_CAP = 120.0  # no round starts that would end past this, so a run ends within 180 s
WORKER = str(Path(__file__).resolve().parent / "worker.py")
PY = sys.executable


class Child(NamedTuple):
    """A finished child process."""

    code: int
    start: float  # perf_counter at spawn
    seconds: float  # spawn to exit
    rss_mb: float
    stdout: str


def _kill(pid):
    def handler(signum, frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    return handler


def _kill_and_exit(pid):
    """A SIGTERM to the benchmark also ends, and reaps, the running child."""
    def handler(signum, frame):
        _kill(pid)(signum, frame)
        os.waitpid(pid, 0)
        sys.exit(128 + signum)

    return handler


def spawn(argv, work, tag="child") -> Child:
    """Run argv to completion; its own peak RSS comes from os.wait4, not
    RUSAGE_CHILDREN, which keeps the maximum over every child reaped."""
    out_path = Path(work) / f"{tag}.out"
    err_path = Path(work) / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        old = signal.signal(signal.SIGALRM, _kill(proc.pid))
        old_term = signal.signal(signal.SIGTERM, _kill_and_exit(proc.pid))
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            signal.signal(signal.SIGTERM, old_term)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end - start, usage.ru_maxrss / 1024.0, out_path.read_text())


def cli_argv(argv):
    return [PY, "-m", "dunkl.cli", *argv]


def worker_argv(mode, *rest):
    return [PY, WORKER, mode, *rest]


# -- output checks --------------------------------------------------------------------

def check_build(oracle, name, work):
    try:
        with open(ctx_path(work, name)) as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        return False
    return lambdas_digest(cache) == oracle["contexts"][name]["lambdas_sha256"]


def check_cli(oracle, kind, name, ref, child, work, degrees):
    if child.code != 0:
        return False
    try:
        return _check_cli(oracle, kind, name, ref, child.stdout, work, degrees)
    except (ValueError, KeyError, IndexError):
        return False


def _check_cli(oracle, kind, name, ref, text, work, degrees):
    if kind == "build":
        return check_build(oracle, name, work)
    if kind == "intertwine":
        return text.strip() == oracle["intertwine"][name][ref]["image"]
    if kind == "lambda-table":
        return text_digest(text) == oracle["contexts"][name]["lambda_table_sha256"]
    if kind == "ek-eval":
        lines = dict(line.split(" = ", 1) for line in text.strip().splitlines())
        re_s, im_s = lines["E(x, y)"].removesuffix(" i").split(" + ")
        degrees.append(int(lines["degree used"]))
        want = oracle["ek"][name][ref]
        return within((float(re_s), float(im_s)), float(lines["tail bound"]), want["value"], want["tail_bound"])
    if kind == "kernel-grid":
        got = parse_grid_csv(text)
        want = oracle["cli_grid"][name][ref]["rows"]
        return len(got) == len(want) and all(
            within(g[:2], g[2], w[:2], w[2]) for g, w in zip(got, want)
        )
    return False


def check_query(oracle, req, out):
    op, name, ref = req["op"], req["sys"], req["ref"]
    if op == "cert":
        # above the limit the evaluator's actual truncation error exceeds tol
        return isinstance(out, float) and 0.0 < out <= oracle["cert"][ref]["limit"]
    want = oracle[op][name][ref]
    if op == "ek":
        return within(out[:2], out[2], want["value"], want["tail_bound"])
    if op == "intertwine":
        return out == want["image"]
    if op == "lk_eval":
        return within(out[:2], out[2], want["value"], want["tail_bound"])
    # lk_grid returns no bounds; its tail bound at the request's truncation is
    # the recorded one, because the truncated series is the same
    return len(out) == len(want["values"]) and all(
        within(g, tb, w, tb)
        for grow, wrow, trow in zip(out, want["values"], want["tail_bounds"])
        for g, w, tb in zip(grow, wrow, trow)
    )


# -- workloads -------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def shared_contexts(oracle, work, names, tally):
    """The directory of cached contexts that query-batch and verify-suites load.

    `dunkl build` makes each one in a fresh process, untimed, once per
    source tree; later runs on the same sources reuse it after checking it
    against the oracle again.  cli-cold times its own builds.
    """
    home = WORK_DIR / "contexts" / source_key()
    home.mkdir(parents=True, exist_ok=True)
    for name in names:
        if not ctx_path(home, name).exists():
            child = spawn(cli_argv(["build", "--config", str(ladder_config(name)),
                                    "--out", str(ctx_path(work, name))]), work, f"prep-build-{name}")
            if child.code == 0 and check_build(oracle, name, work):
                os.replace(ctx_path(work, name), ctx_path(home, name))
        tally.add(check_build(oracle, name, home), f"build {name}")
    return home


def cache_bytes(work, names):
    return sum(os.path.getsize(ctx_path(work, n)) for n in names if ctx_path(work, n).exists())


def rounds(count, seconds, run_round, probe):
    """`count` fresh rounds, all with the same inputs.  A set-up probe runs
    before the first round, between rounds and after the last, so the
    set-up samples are spread over the run."""
    out = []
    start = time.perf_counter()
    probe()
    longest = 0.0
    while len(out) < count:
        t0 = time.perf_counter()
        out.append(run_round(len(out)))
        probe()
        longest = max(longest, time.perf_counter() - t0)
        ends = time.perf_counter() - start + longest
        if ends > ROUNDS_CAP or (len(out) >= MIN_ROUNDS and ends > SLOW_RUN * seconds):
            break
    return out


def round_count(seconds, smoke):
    return 1 if smoke else max(MIN_ROUNDS, round(seconds / ROUND_S))


def cli_cold(oracle, work, seed, seconds, trace, smoke, tally):
    degrees = []
    setups = []

    def probe():
        setups.append(spawn([PY, "-c", "import dunkl.cli"], work, f"probe{len(setups)}").seconds)

    def run_round(rnd, traced=False):
        lat, rss, builds = [], [], 0.0
        traces = []
        schedule = cli_schedule(oracle, work, seed, smoke)
        for i, (kind, name, argv, ref) in enumerate(schedule):
            if traced:
                tpath = Path(work) / f"trace-{rnd}-{i}.json"
                child = spawn(worker_argv("cli", "--trace", str(tpath), "--", *argv), work, f"r{rnd}-{i}")
                if tpath.exists():
                    traces.append(tracing.load(tpath))
            else:
                child = spawn(cli_argv(argv), work, f"r{rnd}-{i}")
            tally.add(check_cli(oracle, kind, name, ref, child, work, degrees), f"{kind} {name} round {rnd}")
            lat.append(child.seconds)
            rss.append(child.rss_mb)
            if kind == "build":
                builds += child.seconds
        return {"lat": lat, "wall": sum(lat), "rss": max(rss), "build": builds, "traces": traces}

    if trace:
        plain = run_round(0)
        traced = run_round(0, traced=True)
        extra = {"cli_query_s": plain["wall"] - plain["build"], "build_s": plain["build"],
                 "cache_bytes": cache_bytes(work, ("b2",) if smoke else LADDER),
                 "ek_degree_mean": mean(degrees)}
        return layer_metrics(plain, traced, extra)
    return e2e(setups, rounds(round_count(seconds, smoke), seconds, run_round, probe))


def worker_workload(oracle, work, seed, seconds, trace, smoke, tally, kind):
    systems = LADDER if kind == "query" and not smoke else ("b2",)
    sys_arg = ",".join(systems)
    contexts = shared_contexts(oracle, work, systems, tally)
    setups = []
    degrees, radii = [], {}

    def probe():
        path = Path(work) / f"probe{len(setups)}.json"
        child = spawn(worker_argv("setup", "--contexts", str(contexts), "--systems", sys_arg, "--out", str(path)),
                      work, f"probe{len(setups)}")
        tally.add(child.code == 0, "setup probe")
        if child.code == 0:
            setups.append(json.loads(path.read_text())["ready"] - child.start)

    def run_round(rnd, traced=False):
        if kind == "query":
            items = query_schedule(oracle, seed, smoke)
        else:
            items = verify_schedule(smoke)
        spec = Path(work) / f"items-{rnd}.json"
        spec.write_text(json.dumps(items))
        out = Path(work) / f"result-{rnd}-{int(traced)}.json"
        argv = ["--contexts", str(contexts), "--systems", sys_arg, "--out", str(out)]
        argv += ["--requests" if kind == "query" else "--plan", str(spec)]
        tpath = Path(work) / f"trace-{rnd}.json"
        if traced:
            argv += ["--trace", str(tpath)]
        child = spawn(worker_argv(kind, *argv), work, f"round{rnd}-{int(traced)}")
        if child.code != 0 or not out.exists():
            for _ in items:
                tally.add(False, f"{kind} round {rnd}: worker exited with {child.code}")
            return None
        res = json.loads(out.read_text())
        if not traced:
            # the round's own set-up is one more set-up sample
            setups.append(res["ready"] - child.start)
        for item, r in zip(items, res["results"]):
            if kind == "query":
                ok = r["err"] is None and check_query(oracle, item, r["out"])
                if ok and item["op"] == "ek" and not traced:
                    degrees.append(r["out"][3])
                if ok and item["op"] == "cert":
                    radii[item["sys"]] = r["out"]
                what = f"{item['op']} {item['sys']}#{item['ref']}"
            else:
                name, suite = item
                ok = r["err"] is None and r["out"] == oracle["verify"][name][suite]
                what = f"verify {name} {suite}"
            tally.add(ok, what + ("" if r["err"] is None else ": " + r["err"].strip().splitlines()[-1]))
        results = res["results"]
        traces = [tracing.load(tpath)] if traced and tpath.exists() else []
        return {"lat": [r["end"] - r["start"] for r in results],
                "wall": results[-1]["end"] - results[0]["start"] if results else 0.0,
                "rss": child.rss_mb, "traces": traces, "results": results}

    if trace:
        plain = run_round(0)
        traced = run_round(0, traced=True)
        if plain is None or traced is None:
            return {}
        extra = {"cache_bytes": cache_bytes(contexts, systems)}
        if kind == "query":
            extra["ek_degree_mean"] = mean(degrees)
            extra["certified_radius"] = geomean(radii.values())
        else:
            rows = [row for r in plain["results"] if r["out"] for row in r["out"]]
            extra["rows"] = len(rows)
            extra["rows_failed"] = sum(1 for row in rows if not row[2])
        return layer_metrics(plain, traced, extra)
    done = [r for r in rounds(round_count(seconds, smoke), seconds, run_round, probe) if r is not None]
    return e2e(setups, done) if done else {}


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geomean(values):
    values = list(values)
    return math.prod(values) ** (1.0 / len(values)) if values else 0.0


def e2e(setups, done):
    """End-to-end metrics: the median of the set-up samples, and per round.

    Every round sends the same requests, so each request has one latency
    per round, and its fastest is kept.  The reference host runs the same
    command up to twice as slowly from one minute to the next, with nothing
    else running; a request's fastest repeat is the one least slowed by the
    host, and it spread less from run to run than the mean or the median
    (README.md, "Noise").
    """
    lat = [min(times) for times in zip(*(r["lat"] for r in done))]
    return {
        "setup_s": median(setups),
        "wall_s": sum(lat),
        "peak_rss_mb": median([r["rss"] for r in done]),
        "_samples": {"setup": len(setups), "rounds": len(done), "ops": len(lat)},
    }


def layer_metrics(plain, traced, extra):
    """Per-layer metrics from the traced round; the latency percentiles and
    `extra` come from the plain round with the same inputs."""
    out = {name: 0.0 for name in common.metric_units("per_layer")}
    out.update(tracing.summarize(traced["traces"]))
    out.update(extra)
    out["op_p50_ms"] = 1000.0 * percentile(plain["lat"], 50)
    out["op_p90_ms"] = 1000.0 * percentile(plain["lat"], 90)
    out["trace_overhead_s"] = traced["wall"] - plain["wall"]
    return out


# -- environment and output -------------------------------------------------------------

def _loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment():
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "loadavg_1m_start": _loadavg()}


def units(trace):
    return common.metric_units("per_layer" if trace else "end_to_end")


def print_table(workload, metrics, tally, trace):
    """Every metric with its unit, then the share of failed requests."""
    unit = units(trace)
    samples = metrics.pop("_samples", None)
    print(f"== {workload}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit.get(name, '')}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':28s} {ratio:>16.6g} 1")
    print(f"  checked against the oracle: {tally.failed} of {tally.attempted} requests failed")
    if samples:
        print(f"  samples: {samples['setup']} set-ups, {samples['rounds']} rounds, {samples['ops']} requests")
    for note in tally.notes[:20]:
        print(f"  FAILED: {note}")


def run_one(args):
    oracle = common.load_oracle()
    env = environment()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        # compile the package's bytecode once, so no measured process pays for it
        spawn([PY, "-c", "import dunkl.cli, dunkl.verify"], work, "warmup")
        if args.workload == "cli-cold":
            metrics = cli_cold(oracle, work, args.seed, args.seconds, args.trace, args.smoke, tally)
        else:
            kind = "query" if args.workload == "query-batch" else "verify"
            metrics = worker_workload(oracle, work, args.seed, args.seconds, args.trace, args.smoke,
                                               tally, kind)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = _loadavg()
    if not metrics:
        tally.add(False, "no round completed")
    print_table(args.workload, metrics, tally, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units(args.trace).items()},
    }
    record = WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one table of all of them."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        argv = [PY, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stderr)
            ok = False
            continue
        summary[workload] = json.loads(lines[-1])
        ok = ok and summary[workload]["correct"]
    print(json.dumps({"correct": ok, "workloads": summary}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="The dunkl benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    common.require_source()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
