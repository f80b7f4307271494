import cmath
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dunkl import kernel, operators, poly, verify
from dunkl.cli import EXIT_VERIFY_FAIL, main
from dunkl.config import build_bundle, load_context, save_context
from dunkl.kernel import make_evaluator
from dunkl.operators import DEGREE_CAP, make_context
from dunkl.reflection_groups import validate_multiplicity
from dunkl.verify import run_suite, suite_exact, suite_positivity, suite_quadrature, suite_signs


@pytest.fixture(scope="module")
def z21_ctx():
    ctx = build_bundle({"family": "Z2^d", "d": 1, "k": "1/2", "N": 8})
    ctx.prepare(8)
    return ctx


def test_unknown_suite_rejected(z21_ctx):
    with pytest.raises(ValueError):
        run_suite(z21_ctx, "bogus")


def test_signs_suite_reports_conventions(z21_ctx):
    results = suite_signs(z21_ctx)
    by_name = {r.identity: r for r in results}
    assert by_name["gaussian-image-convention-at-weight-zero"].convention == "minus"
    assert by_name["fourier-representation-convention-at-weight-zero"].convention == "plus"
    assert by_name["derivative-relation-convention-at-weight-zero"].convention == "minus"
    assert all(r.passed for r in results)
    # the same convention validates at the context weight
    assert by_name["gaussian-image-convention-at-context-weight"].convention == "minus"


def test_signs_suite_builds_each_point_table_once(monkeypatch):
    # the Gaussian-image check joins E_n(x, .)'s tables once per evaluator;
    # the Fourier rows read its sums and the derivative relation its series
    # table, so no (context, degree, point) table is built twice
    ctx = load_context(str(Path(__file__).resolve().parent.parent / "configs" / "b2.json"))
    built = Counter()
    original = operators._en_table

    def counted(ctx, n, x):
        built[id(ctx), n, tuple(x)] += 1
        return original(ctx, n, x)

    monkeypatch.setattr(operators, "_en_table", counted)
    monkeypatch.setattr(kernel, "_en_table", counted)
    results = suite_signs(ctx)
    assert len(results) == 6 and all(r.passed for r in results)
    assert built and max(built.values()) == 1, [key for key, c in built.items() if c > 1]


@pytest.mark.parametrize("name, degrees", [("a2", (13, 16)), ("b2", (18, 16))])
def test_context_weight_signs_rows_do_not_read_the_truncation_against_itself(
    name, degrees, monkeypatch
):
    # in d >= 3 the weight-zero tolerance is the rows' own 1e-6, so the
    # context weight's Taylor degree comes from 1e-9: D > N, and the rows
    # compare L^(N)(x, y) with a longer Taylor sum, where D = N read 0.0;
    # d <= 2 keeps its degrees
    ctx = load_context(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"))
    seen = []
    original = verify.gaussian_image_check

    def recorded(ev, x, y, taylor_degree=None):
        if ev.ctx is ctx:
            seen.append((ev.n_trunc, taylor_degree))
        return original(ev, x, y, taylor_degree)

    monkeypatch.setattr(verify, "gaussian_image_check", recorded)
    rows = {r.identity: r for r in suite_signs(ctx)}
    assert seen == [degrees]
    for label in ("gaussian-image", "fourier-representation"):
        row = rows[f"{label}-convention-at-context-weight"]
        assert row.passed and 0 < row.max_residual <= row.tolerance == 1e-6


def test_signs_suite_passes_on_z2_5():
    # the truncation degree comes from the certified bound at the suite's
    # points (14 here); a fixed degree 10 left the weight-zero derivative
    # relation at 1.2e-6 against its 1e-6 tolerance
    ctx = build_bundle({"family": "Z2^d", "d": 5, "k": "1/2", "N": 2})
    report = run_suite(ctx, "signs")
    assert len(report.results) == 6
    assert all(r.passed for r in report.results), [r for r in report.results if not r.passed]


@pytest.mark.parametrize(
    "config",
    [
        {"family": "B", "d": 2, "k": "0", "N": 8},
        {"family": "Z2^d", "d": 1, "k": "0", "N": 6},
        {"family": "A", "d": 3, "k": "0", "N": 6},
    ],
    ids=["B2", "Z2^1", "A3"],
)
def test_series_suite_passes_at_weight_zero(config):
    # lk-weight-zero-closed-form draws x within the certified radius of
    # L^(N): over the unit cube the truncation error alone reaches 5.9e-3
    # (B2), 1.7e-3 (Z2^1) and 2.0e-2 (A), against its 1e-8 tolerance
    ctx = build_bundle(config)
    ctx.prepare(ctx.degree)
    report = run_suite(ctx, "series")
    rows = {r.identity: r for r in report.results}
    assert rows["lk-weight-zero-closed-form"].max_residual <= 1e-10
    assert "ek-weight-zero-exponential" in rows
    assert all(r.passed for r in report.results), [r for r in report.results if not r.passed]


def test_positivity_skipped_for_complex_weight():
    ctx = build_bundle(
        {"family": "Z2^d", "d": 1, "k": {"re": "1/2", "im": "1/3"}, "N": 4}
    )
    ctx.prepare(4)
    results = suite_positivity(ctx)
    assert len(results) == 1
    assert results[0].passed
    assert "skipped" in results[0].note


def test_positivity_skipped_for_negative_weight():
    ctx = build_bundle({"family": "Z2^d", "d": 1, "k": "-1/4", "N": 4})
    ctx.prepare(4)
    results = suite_positivity(ctx)
    assert "skipped" in results[0].note


def test_signs_suite_skips_context_rows_for_negative_weight():
    ctx = build_bundle({"family": "Z2^d", "d": 1, "k": "-1/4", "N": 6})
    ctx.prepare(6)
    results = suite_signs(ctx)
    ctx_rows = [r for r in results if r.identity.endswith("context-weight")]
    assert all("skipped" in r.note for r in ctx_rows)
    zero_rows = [r for r in results if r.identity.endswith("weight-zero")]
    assert all(r.passed for r in zero_rows)


def test_positivity_alone_matches_positivity_inside_all():
    # the certified envelope does not depend on the degrees other suites
    # prepared; the empirical delta_hat did (radius 0.165 alone, 0.162 in all)
    config = str(Path(__file__).resolve().parent.parent / "configs" / "b2.json")
    alone = run_suite(load_context(config), "positivity").to_json()["results"]
    inside = run_suite(load_context(config), "all").to_json()["results"]
    assert alone == [row for row in inside if row["identity"] in {r["identity"] for r in alone}]


def test_convolution_note_names_the_tail_kind():
    for k, kind in (("1/2", "certified"), ("-1/4", "empirical")):
        ctx = build_bundle({"family": "Z2^d", "d": 1, "k": k, "N": 6})
        rows = {r.identity: r for r in run_suite(ctx, "quadrature").results}
        assert rows["exponential-convolution"].note.startswith(f"{kind} |x| radius")


def test_report_json_shape(z21_ctx):
    report = run_suite(z21_ctx, "positivity")
    data = report.to_json()
    assert set(data) == {"suite", "context", "group_order", "passed", "results"}
    for row in data["results"]:
        assert set(row) == {
            "identity",
            "max_residual",
            "tolerance",
            "passed",
            "convention",
            "note",
        }
        assert isinstance(row["passed"], bool)
        assert isinstance(row["max_residual"], float)


def test_all_suites_pass_through_fallback_degree():
    # k = -1 on Z2^1: lam_2 is singular, so degree 2 is realized by the matrix fallback
    ctx = build_bundle({"family": "Z2^d", "d": 1, "k": "-1", "N": 6})
    ctx.prepare(6)
    assert ctx.fallback_degrees == [2]
    report = run_suite(ctx, "all")
    assert report.passed, [r.identity for r in report.results if not r.passed]
    by_name = {r.identity: r for r in report.results}
    # the product-expansion oracle needs lam_i for every i <= n: only n = 0, 1 qualify
    assert by_name["en-product-expansion-oracle"].note == (
        "2 exact comparisons; degrees [2, 3] skipped: the expansion multiplies lam_i "
        "for every i <= n, and degree 2 is a fallback degree with no lam table"
    )
    assert by_name["h-inverts-w"].note == "6 exact comparisons"


def test_product_expansion_oracle_names_skipped_degrees():
    # B2 with k short -3/4, long 1/2 falls back at degrees 1 and 3, so the
    # oracle compares degree 0 only and has to say so
    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "-3/4", "long": "1/2"}, "N": 5})
    ctx.prepare(5)
    assert ctx.fallback_degrees == [1, 3]
    row = next(r for r in suite_exact(ctx) if r.identity == "en-product-expansion-oracle")
    assert (row.passed, row.tolerance, row.max_residual) == (True, 0.0, 0.0)
    assert row.note == (
        "1 exact comparisons; degrees [1, 2, 3] skipped: the expansion multiplies lam_i "
        "for every i <= n, and degree 1 is a fallback degree with no lam table"
    )


def test_positivity_fills_and_reuses_the_context_table():
    # the positivity suite reads the context's own E_n tables to degree
    # max(N, 18), so a later evaluator at that degree (the signs suite's for
    # d <= 2) finds every degree already there and builds none again
    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 12})
    assert all(r.passed for r in suite_positivity(ctx))
    assert set(range(19)) <= set(ctx.vk_cache)
    before = dict(ctx.vk_cache)
    make_evaluator(ctx, 18)
    assert ctx.vk_cache.keys() == before.keys()
    assert all(ctx.vk_cache[n] is table for n, table in before.items())


def test_failing_comparisons_count_in_the_residual(monkeypatch):
    # B2 has 4 positive roots and draws 3 points for each: corrupting the
    # outer reflection of the first and the third comparison fails exactly
    # those two, and nothing else in the suite moves
    ctx = build_bundle({"family": "B", "d": 2, "k": "1/2", "N": 4})
    clean = suite_exact(ctx)
    calls = itertools.count()
    exact_reflect = verify.reflect

    def reflect(alpha, x):
        image = exact_reflect(alpha, x)
        return tuple(t + 1 for t in image) if next(calls) in (1, 5) else image

    monkeypatch.setattr(verify, "reflect", reflect)
    corrupted = suite_exact(ctx)
    assert corrupted[0].identity == "reflection-involution"
    assert (corrupted[0].passed, corrupted[0].max_residual) == (False, 2.0)
    assert corrupted[0].note == clean[0].note == "12 exact comparisons"
    assert corrupted[1:] == clean[1:]


def test_verify_exits_1_when_a_row_fails(monkeypatch, tmp_path):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "z21.json")
    monkeypatch.setattr(verify, "reflect", lambda alpha, x: tuple(t + 1 for t in x))
    out = tmp_path / "report.json"
    assert main(["verify", "--context", config, "--suite", "exact", "--out", str(out)]) == EXIT_VERIFY_FAIL
    report = json.loads(out.read_text())
    assert not report["passed"]
    assert [r["identity"] for r in report["results"] if not r["passed"]] == ["reflection-involution"]


def test_nan_convolution_residual_fails_its_row(z21_ctx, monkeypatch):
    # the second of five draws reads NaN; a max fold starting from 0.0 drops it
    calls = itertools.count()
    check = verify.convolution_check
    monkeypatch.setattr(
        verify, "convolution_check",
        lambda *args: math.nan if next(calls) == 1 else check(*args),
    )
    row = next(r for r in suite_quadrature(z21_ctx) if r.identity == "exponential-convolution")
    assert not row.passed
    assert math.isnan(row.max_residual)
    assert row.note.startswith("certified |x| radius")


def test_verify_out_writes_strict_json_for_a_nan_residual(monkeypatch, tmp_path, capsys):
    # the same NaN draw, through `dunkl verify --out`: the residual is the
    # string "nan", which strict JSON parsers read; bare NaN is not JSON
    calls = itertools.count()
    check = verify.convolution_check
    monkeypatch.setattr(
        verify, "convolution_check",
        lambda *args: math.nan if next(calls) == 1 else check(*args),
    )
    config = Path(__file__).resolve().parent.parent / "configs" / "z21.json"
    out = tmp_path / "report.json"
    argv = ["verify", "--context", str(config), "--suite", "quadrature", "--out", str(out)]
    assert main(argv) == EXIT_VERIFY_FAIL

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    report = json.loads(out.read_text(), parse_constant=refuse)
    rows = {row["identity"]: row for row in report["results"]}
    assert rows["exponential-convolution"]["max_residual"] == "nan"
    assert not rows["exponential-convolution"]["passed"] and not report["passed"]
    assert [row["passed"] for row in rows.values()].count(False) == 1
    assert "quadrature: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad, failing",
    [(math.nan, "kernel-nonnegative-on-grid"), (complex(0.5, math.nan), "kernel-real-for-real-weight")],
    ids=["real-part", "imaginary-part"],
)
def test_nan_grid_value_fails_positivity(z21_ctx, monkeypatch, bad, failing):
    grid = kernel.lk_grid

    def lk_grid(ev, xs, ys):
        values = grid(ev, xs, ys)
        values[1][2] = bad
        return values

    monkeypatch.setattr(kernel, "lk_grid", lk_grid)
    rows = {r.identity: r for r in suite_positivity(z21_ctx)}
    assert not rows[failing].passed
    assert math.isnan(rows[failing].max_residual)
    assert [r.passed for r in rows.values()].count(False) == 1


def test_negative_grid_value_names_its_point(z21_ctx, monkeypatch):
    # one grid value stubbed negative fails the row, and its note says where;
    # a passing note does not.  The scan reads the three orbit
    # representatives of the five x points, and the note counts all 35
    passing = suite_positivity(z21_ctx)[0]
    assert passing.passed and "minimum at" not in passing.note
    grid = kernel.lk_grid
    seen = {}

    def lk_grid(ev, xs, ys):
        values = grid(ev, xs, ys)
        assert len(values) == 3
        values[2][1] = -1.0
        seen["point"] = xs[2], ys[1]
        return values

    monkeypatch.setattr(kernel, "lk_grid", lk_grid)
    row = suite_positivity(z21_ctx)[0]
    assert row.identity == "kernel-nonnegative-on-grid" and not row.passed
    x, y = ("(" + ", ".join(f"{t:.6g}" for t in point) + ")" for point in seen["point"])
    assert row.note.startswith("min -1 over 35 points")
    assert row.note.endswith(f" (certified radius 0.801); minimum at x = {x}, y = {y}")


def test_a_perturbed_heat_row_fails_the_two_path_row(monkeypatch):
    # the series path heats with poly._heat_row's integer rows and the
    # Hermite path runs the Hermite recurrence, so one wrong row entry shows
    # as a failing kernel-two-path-per-degree row
    ctx = build_bundle({"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 8})

    def two_path_row():
        return next(r for r in suite_exact(ctx) if r.identity == "kernel-two-path-per-degree")

    assert two_path_row().passed
    rows = [list(row) for row in poly._HEAT_ROWS[-1]]
    while len(rows) <= 8:
        rows.append(list(poly._heat_row(len(rows), -1)))
    f, b = rows[4][1]  # x^4 -> ... - 6 x^2 ...
    rows[4][1] = (f, b + 1)
    monkeypatch.setitem(poly._HEAT_ROWS, -1, rows)
    row = two_path_row()
    assert not row.passed and row.max_residual > 0


def test_b2_verify_round_builds_each_h_table_once(tmp_path, monkeypatch):
    # one round of the five suites on B2's cache: H_n is built only for E_n's
    # degree steps, once per (context, degree) over the context and the
    # signs suite's weight-zero one, and every reader of lam_n reads h_cache
    ctx = load_context(str(Path(__file__).resolve().parent.parent / "configs" / "b2.json"))
    path = tmp_path / "b2.ctx.json"
    save_context(ctx, path)
    ctx = load_context(path)
    calls, callers = Counter(), Counter()
    solve = operators.solve_H

    def counting(ctx, n):
        calls[id(ctx), n] += 1
        callers[sys._getframe(1).f_code.co_name] += 1
        return solve(ctx, n)

    monkeypatch.setattr(operators, "solve_H", counting)
    monkeypatch.setattr(verify, "solve_H", counting)
    for suite in ("exact", "series", "quadrature", "signs", "positivity"):
        assert run_suite(ctx, suite).passed
    assert sum(calls.values()) == len(calls) == 36
    assert callers == {"_e_table": 36}


@pytest.mark.parametrize("name", ["b2", "b2zero", "z21"])
def test_weight_zero_signs_rows_read_the_closed_form(name):
    # at k = 0, V is the identity: the Gaussian-image sums at x are
    # sum_{|nu| <= D} (+-1)^|nu| x^nu He_nu(-y) / nu!, and L(x, y) is
    # e^{<x, y> - |x|^2/2}; each weight-zero row reads the smaller distance
    # between the two, the Fourier row under the other label
    ctx = load_context(str(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"))
    rows = {r.identity: r for r in suite_signs(ctx)}
    d = ctx.dimension
    x = tuple([Fraction(3, 5)] + [Fraction(-1, 4)] * (d - 1))
    y = tuple([Fraction(9, 10)] + [Fraction(1, 3)] * (d - 1))
    zero_k = validate_multiplicity(ctx.positives, Fraction(0), ctx.k.orbits)
    zero_ctx = make_context(ctx.group, ctx.positives, zero_k)
    n_trunc = verify._tail_degree(kernel.KernelEvaluator(zero_ctx, 0), x, y, 1e-8, DEGREE_CAP)
    taylor = verify._tail_degree(make_evaluator(zero_ctx, n_trunc), x, y, 1e-8, 2 * n_trunc)
    he = [poly.hermite_values(-t, taylor) for t in y]
    sums = {"plus": Fraction(0), "minus": Fraction(0)}
    for nu in itertools.product(range(taylor + 1), repeat=d):
        if sum(nu) <= taylor:
            term = math.prod(t**e * h[e] / math.factorial(e) for t, h, e in zip(x, he, nu))
            sums["plus"] += term
            sums["minus"] += (-1) ** sum(nu) * term
    window = math.exp(-(operators._norm(y) ** 2) / 2.0)
    closed = window * cmath.exp(complex(sum(a * b for a, b in zip(x, y)) - sum(a * a for a in x) / 2))
    res = {label: abs(window * complex(s) - closed) for label, s in sums.items()}
    winner = min(res, key=res.get)
    image = rows["gaussian-image-convention-at-weight-zero"]
    fourier = rows["fourier-representation-convention-at-weight-zero"]
    assert image.convention == winner and image.max_residual == res[winner] > 0
    assert fourier.convention != winner and fourier.max_residual == res[winner]
    assert image.passed and fourier.passed


# -- positivity on orbit representatives ---------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _grid_symmetries(group):
    """G_grid: the group's elements that are signed permutations, as (perm,
    signs), and the map they give on a point."""
    from dunkl.reflection_groups import _signed_permutation

    signed = [sp for sp in map(_signed_permutation, group.elements) if sp is not None]
    return [
        lambda t, perm=perm, signs=signs: tuple(s * t[p] for p, s in zip(perm, signs))
        for perm, signs in signed
    ]


def _positivity_grids(d):
    # the suite's grids, with the x span that the certified radius gives at
    # degree 18 replaced by a fixed one: G_grid acts the same on every span
    x_axis, y_axis = (5, 7) if d <= 2 else (3, 5)
    return (verify._grid_points(d, 0.3, x_axis),
            verify._grid_points(d, min(1.5 / math.sqrt(d), 2.0), y_axis))


@pytest.mark.parametrize("name, order, reps", [("b2", 8, 6), ("a2", 6, 10), ("d4", 192, 6), ("g2", 6, 10)])
def test_kernel_is_invariant_under_the_grid_symmetries(name, order, reps):
    # every g in G_grid maps both positivity grids onto themselves, exactly
    # in floats, and L^(N)(gx, gy) == L^(N)(x, y) exactly (lk_values: the
    # exact truncated sums at the points' binary values, rounded once), at
    # the first, a middle and the last x and y of the grids.  On G2, G_grid
    # is the six coordinate permutations
    ctx = load_context(str(CONFIGS / f"{name}.json"))
    d = ctx.dimension
    xs, ys = _positivity_grids(d)
    symmetries = _grid_symmetries(ctx.group)
    assert len(symmetries) == order
    assert len(verify._orbit_representatives(xs, ctx.group)) == reps
    for g in symmetries:
        assert sorted(map(g, xs)) == sorted(xs) and sorted(map(g, ys)) == sorted(ys)
    ev = make_evaluator(ctx, ctx.degree)
    x_pick = [xs[0], xs[len(xs) // 2 - 1], xs[-1]]
    y_pick = [ys[0], ys[len(ys) // 2 + 1], ys[-1]]
    base = kernel.lk_values(ev, x_pick, y_pick)
    for g in symmetries:
        assert kernel.lk_values(ev, list(map(g, x_pick)), list(map(g, y_pick))) == base


@pytest.mark.parametrize("config, reps", [
    (CONFIGS / "z26.json", 64), (CONFIGS.parent / "bench" / "ladder" / "b3.json", 4),
])
def test_orbit_representative_counts(config, reps):
    # Z2^6's 729 x points fall into 64 sign orbits, B3's 27 into 4
    ctx = load_context(str(config))
    d = ctx.dimension
    assert len(verify._orbit_representatives(_positivity_grids(d)[0], ctx.group)) == reps


@pytest.mark.parametrize("config, degree", [("b2", 18), ("a2", 10), ("d4", 6), ("g2", 8)])
def test_orbit_scan_finds_the_full_grid_minimum(config, degree):
    # the scan over one x per G_grid orbit against the scan over the whole
    # grid, at the suite's grids: the same minimum within roundoff of the
    # float sums, and the representatives are the first orbit members in
    # grid order
    ctx = load_context(str(CONFIGS / f"{config}.json"))
    d = ctx.dimension
    ev = make_evaluator(ctx, degree)
    radius = kernel.certified_radius(ev, verify.POSITIVITY_TOL / 2, 1.5)
    x_axis, y_axis = (5, 7) if d <= 2 else (3, 5)
    xs = verify._grid_points(d, min(radius * 0.95 / math.sqrt(d), 2.0), x_axis)
    ys = verify._grid_points(d, min(1.5 / math.sqrt(d), 2.0), y_axis)
    reps = verify._orbit_representatives(xs, ctx.group)
    assert reps == [x for i, x in enumerate(xs) if x in reps and x not in xs[:i]]
    full = kernel.positivity_scan(ev, xs, ys)
    orbit = kernel.positivity_scan(ev, reps, ys)
    assert abs(orbit.min_value - full.min_value) <= 1e-14 * max(1.0, abs(full.min_value))
    assert orbit.max_tail == full.max_tail and orbit.max_abs_imag == full.max_abs_imag == 0.0
    assert (orbit.points, full.points) == (len(reps) * len(ys), len(xs) * len(ys))


# -- a row that can fail -------------------------------------------------------------

def test_kernel_equivariance_parity_fails_on_a_corrupted_table():
    # one numerator of one e_nu at degree 3 of B2 moved by about 0.1 (den //
    # 10), the degrees above dropped so that they rebuild from it: the scan
    # reports failures from that degree on and none below, and the row fails
    ctx = load_context(str(CONFIGS / "b2.json"))
    n = 3
    cols, den = operators._e_table(ctx, n)
    nu = next(iter(cols))
    mu = next(iter(cols[nu]))
    assert den // 10
    ctx.vk_cache[n] = {**cols, nu: {**cols[nu], mu: cols[nu][mu] + den // 10}}, den
    for m in [m for m in ctx.vk_cache if m > n]:
        del ctx.vk_cache[m]
    rep = kernel.symmetry_scan(make_evaluator(ctx, 8), [(Fraction(1, 3), Fraction(-1, 2))])
    assert rep.failures and min(f[3] for f in rep.failures) == n
    assert {kind for kind, *_ in rep.failures} == {"equivariance"}  # E_n(-x, y) = (-1)^n E_n(x, y) holds for any table
    row = {r.identity: r for r in suite_exact(ctx)}["kernel-equivariance-parity"]
    assert not row.passed and row.max_residual > 0
