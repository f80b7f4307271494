import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dunkl import cli
from dunkl.cli import main, parse_grid
from dunkl.config import (
    ConfigError,
    build_bundle,
    literal_to_polynomial,
    load_context,
    polynomial_to_literal,
    save_context,
)
from dunkl.exact import ComplexRational, scalar_to_json
from dunkl.operators import DEGREE_CAP, _class_solve
from dunkl.poly import Polynomial
from test_operators import count_builds


# -- polynomial literals ----------------------------------------------------------

def test_literal_round_trip():
    p = Polynomial(
        2,
        {
            (2, 1): Fraction(3, 2),
            (0, 3): Fraction(-1, 3),
            (1, 0): Fraction(2),
            (0, 0): Fraction(-5, 7),
        },
    )
    text = polynomial_to_literal(p)
    assert literal_to_polynomial(text, 2) == p


def test_literal_complex_coefficients():
    p = Polynomial(1, {(1,): ComplexRational(0, Fraction(1, 2)), (0,): Fraction(1)})
    text = polynomial_to_literal(p)
    assert "(0, 1/2)" in text
    assert literal_to_polynomial(text, 1) == p


def test_literal_parsing_examples():
    p = literal_to_polynomial("3/2 * x1^2 x2 + -1 * x2 + 4", 2)
    assert p.terms == {(2, 1): Fraction(3, 2), (0, 1): Fraction(-1), (0, 0): Fraction(4)}
    q = literal_to_polynomial("x1 - 1/2 * x1^3", 1)
    assert q.terms == {(1,): Fraction(1), (3,): Fraction(-1, 2)}
    r = literal_to_polynomial("-x1 + (1/2, -1/3) * x1^2", 1)
    assert r.terms == {
        (1,): Fraction(-1),
        (2,): ComplexRational(Fraction(1, 2), Fraction(-1, 3)),
    }


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
exact_scalars = rationals | st.builds(ComplexRational, rationals, rationals)


@st.composite
def exact_polynomials(draw):
    d = draw(st.integers(1, 3))
    nus = st.tuples(*[st.integers(0, 5)] * d)
    return Polynomial(d, draw(st.dictionaries(nus, exact_scalars, max_size=6)))


@given(exact_polynomials())
def test_literal_round_trip_property(p):
    assert literal_to_polynomial(polynomial_to_literal(p), p.dim) == p


@settings(max_examples=300)
@given(
    st.text(max_size=40) | st.text("x123^*/+-() ,.", max_size=30),
    st.integers(1, 3),
)
@example("(1", 1)
@example("x1^2^3", 1)
@example("x\u00b2", 2)
def test_literal_parser_raises_only_config_error(text, d):
    try:
        p = literal_to_polynomial(text, d)
    except ConfigError:
        return
    assert isinstance(p, Polynomial) and p.dim == d


@settings(max_examples=300)
@given(
    st.text(max_size=40) | st.text("xy12:.,-0", max_size=30),
    st.integers(1, 3),
)
@example("x1:0:inf:1", 1)
@example("x1:nan:1:1", 1)
@example("y1:-1e308:1e308:1e-300", 1)
@example("x1:0:99999999:0.000001", 1)
@example("x1:0:40:1,y1:0:40:1", 1)
@example("x\u00b2:0", 2)
@example("x" + "1" * 5000 + ":0", 1)
def test_grid_parser_raises_only_config_error(text, d):
    # a small cap keeps the grids that do parse small
    try:
        with mock.patch.object(cli, "GRID_POINT_CAP", 1000):
            xs, ys = parse_grid(text, d)
    except ConfigError:
        return
    assert all(len(x) == d for x in xs) and all(len(y) == d for y in ys)


def test_literal_rejects_garbage():
    with pytest.raises(ConfigError):
        literal_to_polynomial("", 1)
    with pytest.raises(ConfigError):
        literal_to_polynomial("1 * z9", 1)
    with pytest.raises(ConfigError):
        literal_to_polynomial("1 * x5", 2)


def test_literal_rejects_a_star_with_no_monomial_after_it():
    # a "*" needs a monomial after it: "2 *" is not 2, nor "x1 + 2 *" x1 + 2
    for text in ("2 *", "x1 + 2 *", "(1/2, 1) *  - x2", "x1 - 3/4 *"):
        with pytest.raises(ConfigError, match="no monomial after"):
            literal_to_polynomial(text, 2)


# -- configs ------------------------------------------------------------------------

def test_build_bundle_b2():
    bundle = build_bundle(
        {"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 6}
    )
    assert bundle.group.order == 8
    assert bundle.ctx.gamma == 4
    assert bundle.degree == 6


def test_build_bundle_scalar_and_orbit_keys():
    bundle = build_bundle({"family": "Z2^d", "d": 2, "k": "1/2"})
    assert bundle.ctx.gamma == 1
    bundle = build_bundle(
        {"family": "Z2^d", "d": 2, "k": {"orbit0": "1/2", "orbit1": "1"}}
    )
    assert bundle.ctx.gamma == Fraction(3, 2)


def test_build_bundle_complex_weight():
    bundle = build_bundle(
        {"family": "Z2^d", "d": 1, "k": {"re": "1/2", "im": "1/3"}}
    )
    assert bundle.ctx.gamma == ComplexRational(Fraction(1, 2), Fraction(1, 3))


def test_build_bundle_errors():
    with pytest.raises(ConfigError):
        build_bundle({"d": 2, "k": "1"})
    with pytest.raises(ConfigError):
        build_bundle({"family": "B", "d": 2, "k": {"short": "1"}})
    with pytest.raises(ConfigError):
        build_bundle({"family": "Q", "d": 2, "k": "1"})
    with pytest.raises(ConfigError):
        build_bundle({"family": "B", "d": 2})


def test_context_cache_round_trip(tmp_path):
    bundle = build_bundle(
        {"family": "B", "d": 2, "k": {"short": "1/2", "long": "3/2"}, "N": 5}
    )
    bundle.ctx.prepare(5)
    path = tmp_path / "b2.ctx.json"
    save_context(bundle, path)
    reloaded = load_context(path)
    assert reloaded.group.order == 8
    for n in range(1, 6):
        a = bundle.ctx.h_cache[n]
        b = reloaded.ctx.h_cache[n]
        assert isinstance(b, tuple)
        assert a == b  # exact equality after the reload
    assert reloaded.ctx.delta_hat == bundle.ctx.delta_hat


def test_cache_file_has_no_float_lambdas(tmp_path):
    bundle = build_bundle({"family": "Z2^d", "d": 1, "k": "1/2", "N": 4})
    bundle.ctx.prepare(4)
    path = tmp_path / "z.ctx.json"
    save_context(bundle, path)
    data = json.loads(path.read_text())
    for coeffs in data["lambdas"].values():
        for c in coeffs:
            assert isinstance(c, str)  # rational strings, never floats


def test_loading_a_cache_builds_no_h_table(tmp_path, capsys, monkeypatch):
    path = tmp_path / "b2.ctx.json"
    config = Path(__file__).resolve().parent.parent / "configs" / "b2.json"
    assert main(["build", "--config", str(config), "--out", str(path)]) == 0
    capsys.readouterr()
    built = count_builds(monkeypatch)
    ctx = load_context(path).ctx
    assert sorted(ctx.h_cache) == list(range(1, 13))
    # solve_H builds each column table for E_n's degree step, not the load
    assert built == [] and ctx.vk_cache == {}


def test_incomplete_cache_exits_2(tmp_path, capsys):
    # k = -1 on Z2^1: degree 2 is a fallback degree, every other one has lam_n
    cfg = tmp_path / "z21neg.json"
    cfg.write_text(json.dumps({"family": "Z2^d", "d": 1, "k": "-1", "N": 6}))
    path = tmp_path / "z21neg.ctx.json"
    assert main(["build", "--config", str(cfg), "--out", str(path)]) == 0
    cache = json.loads(path.read_text())
    assert cache["fallback_degrees"] == [2] and sorted(cache["lambdas"], key=int) == [
        "1", "3", "4", "5", "6"
    ]
    lambdas = cache["lambdas"]
    broken = {
        "no_lambdas": {**cache, "lambdas": {}},
        "no_lambda_4": {**cache, "lambdas": {n: t for n, t in lambdas.items() if n != "4"}},
        "no_fallback": {**cache, "fallback_degrees": []},
        "no_fallback_key": {key: v for key, v in cache.items() if key != "fallback_degrees"},
        "lambda_and_fallback": {**cache, "fallback_degrees": [2, 3]},
        # lam_3 exists, so degree 3 is no fallback degree
        "false_fallback": {
            **cache,
            "lambdas": {n: t for n, t in lambdas.items() if n != "3"},
            "fallback_degrees": [2, 3],
        },
    }
    # a cache that needs no fallback degree may leave the key out
    cfg.write_text(json.dumps({"family": "Z2^d", "d": 1, "k": "1/2", "N": 6}))
    assert main(["build", "--config", str(cfg), "--out", str(path)]) == 0
    good = json.loads(path.read_text())
    assert good.pop("fallback_degrees") == []
    path.write_text(json.dumps(good))
    assert load_context(path).ctx.h_cache == load_context(cfg).ctx.h_cache
    capsys.readouterr()
    for name, data in broken.items():
        bad = tmp_path / f"{name}.ctx.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_context(bad)
        assert main(["lambda-table", "--context", str(bad)]) == 2, name
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


# -- grid specs -----------------------------------------------------------------------

def test_parse_grid():
    xs, ys = parse_grid("x1:-1:1:1,y1:0:1:0.5", 1)
    assert xs == [(-1.0,), (0.0,), (1.0,)]
    assert ys == [(0.0,), (0.5,), (1.0,)]
    xs, ys = parse_grid("x1:-1:1:1,x2:0.25,y2:1:2:1", 2)
    assert xs == [(-1.0, 0.25), (0.0, 0.25), (1.0, 0.25)]
    assert ys == [(0.0, 1.0), (0.0, 2.0)]
    with pytest.raises(ConfigError):
        parse_grid("q1:0:1:1", 1)
    with pytest.raises(ConfigError):
        parse_grid("x3:0:1:1", 2)
    with pytest.raises(ConfigError, match="pairs exceeds"):
        parse_grid("x1:0:999:1,y1:0:1000:1", 1)  # 1000 * 1001 pairs
    with pytest.raises(ConfigError, match="non-finite"):
        parse_grid("x1:0:inf:1", 1)


# -- CLI ----------------------------------------------------------------------------------

def write_config(tmp_path, name="z21.json"):
    cfg = tmp_path / name
    cfg.write_text(
        json.dumps({"family": "Z2^d", "d": 1, "k": "1/2", "N": 8, "name": "z21"})
    )
    return cfg


def test_cli_build_and_intertwine(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    assert main(["build", "--config", str(cfg), "--out", str(ctx_path)]) == 0
    out = capsys.readouterr().out
    assert "|G| = 2" in out
    assert "gamma = 1/2" in out
    assert "delta_hat" in out
    assert main(
        ["intertwine", "--context", str(ctx_path), "--poly", "x1^2 + 2 * x1"]
    ) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/2 * x1^2 + 1 * x1"


def test_cli_build_rejects_bad_weight(tmp_path, capsys):
    # k = -1/2 on Z2^1: the class system and W_1 are both singular, which
    # prepare finds by inverting W_1 at that fallback degree, before any
    # cache is written
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "Z2^d", "d": 1, "k": "-1/2", "N": 3}))
    out = tmp_path / "bad.ctx.json"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "W_n is singular at degree 1" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_lambda_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    capsys.readouterr()
    out_path = tmp_path / "lam.csv"
    assert main(
        ["lambda-table", "--context", str(ctx_path), "--out", str(out_path)]
    ) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,element,re,im"
    assert lines[1] == "1,0,0.75,0"
    assert lines[2] == "1,1,0.25,0"
    assert len(lines) == 1 + 2 * 8


def test_cli_kernel_grid_and_refusal(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    capsys.readouterr()
    grid_path = tmp_path / "grid.csv"
    rc = main(
        [
            "kernel-grid",
            "--context", str(ctx_path),
            "--grid", "x1:-0.4:0.4:0.4,y1:-1:1:0.5",
            "--tol", "1e-8",
            "--degree", "20",
            "--out", str(grid_path),
        ]
    )
    assert rc == 0
    lines = grid_path.read_text().strip().splitlines()
    assert lines[0] == "x1,y1,re(L),im(L),tail_bound"
    assert len(lines) == 1 + 3 * 5
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) < 1e-8  # tail bound column under tol
        x1 = float(fields[0])
        if x1 == 0.0:
            assert abs(float(fields[2]) - 1.0) < 1e-12  # x = 0 column is 1
    # far outside the certified radius the command must refuse
    rc = main(
        [
            "kernel-grid",
            "--context", str(ctx_path),
            "--grid", "x1:-9:9:9,y1:0:1:1",
            "--tol", "1e-8",
            "--degree", "20",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "certified" in err


def test_grid_range_points_are_the_decimals_rounded_once(tmp_path):
    # lo + i step is formed in exact decimals: -0.3 + 3 * 0.1 is 0, not
    # 5.55e-17, and -0.3 + 6 * 0.1 is the float 0.3, not 0.30000000000000004
    xs, _ = parse_grid("x1:-0.3:0.3:0.1,y1:0.1", 1)
    assert xs == [(float(Fraction(i - 3, 10)),) for i in range(7)]
    xs, _ = parse_grid("x1:-0.1:0.1:0.05,x2:0.05", 2)
    assert [x[0] for x in xs] == [-0.1, -0.05, 0.0, 0.05, 0.1]
    assert parse_grid("x1:0:1:0.1", 1)[0][-1] == (1.0,)  # an exact count: 11 points
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    grid_path = tmp_path / "grid.csv"
    argv = ["kernel-grid", "--context", str(ctx_path), "--grid", "x1:-0.3:0.3:0.1,y1:0.1"]
    assert main(argv + ["--out", str(grid_path)]) == 0
    column = [line.split(",")[0] for line in grid_path.read_text().splitlines()[1:]]
    assert column[3] == "0" and float(column[6]) == 0.3


def test_cli_ek_eval(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    capsys.readouterr()
    assert main(
        ["ek-eval", "--context", str(ctx_path), "--x", "0.5", "--y", "0.25", "--tol", "1e-10"]
    ) == 0
    out = capsys.readouterr().out
    assert "E(x, y)" in out and "tail bound" in out
    assert out.splitlines()[-1] == "tail bound kind = certified"
    assert main(
        ["ek-eval", "--context", str(ctx_path), "--x", "0.5,1", "--y", "0.25", "--tol", "1e-10"]
    ) == 2
    neg = tmp_path / "z21neg.json"
    neg.write_text(json.dumps({"family": "Z2^d", "d": 1, "k": "-1/4", "N": 6}))
    capsys.readouterr()
    assert main(["ek-eval", "--context", str(neg), "--x", "0.5", "--y", "0.25"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tail bound kind = empirical"


def test_cli_parse_errors_exit_2_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    capsys.readouterr()
    cache = json.loads(ctx_path.read_text())
    lam3 = cache["lambdas"]["3"]

    def with_lambda(n, table):
        return {**cache, "lambdas": {**cache["lambdas"], n: table}}

    # a true lam_n above the cap, so above the cache's degree too
    above = DEGREE_CAP + 1
    lam_above = _class_solve(load_context(ctx_path).ctx, above)

    broken = {
        "tampered": with_lambda("3", ["1/7"] + lam3[1:]),  # a wrong entry
        "truncated": with_lambda("3", lam3[:-1]),  # fewer than |G| entries
        "bad_degree_key": with_lambda("x", lam3),
        "bare": {"lambdas": {}},
        "no_degree": {key: v for key, v in cache.items() if key != "degree"},
        "zero_degree": {**cache, "degree": 0},
        # int() used to read these as degrees 2 and 1
        "fractional_degree": {**cache, "degree": 2.7},
        "boolean_degree": {**cache, "degree": True},
        "lambda_above_cap": with_lambda(str(above), [scalar_to_json(c) for c in lam_above]),
        "fallback_above_cap": {**cache, "fallback_degrees": [above]},
    }
    for name, data in broken.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    good = json.loads(cfg.read_text())
    bad_configs = {
        "bad_n": {**good, "N": "x"},
        "zero_n": {**good, "N": 0},
        "fractional_n": {**good, "N": 2.7},
        "boolean_n": {**good, "N": True},
        # W_1 is singular at k = -1/2: refused by build's solve, not by a check
        "inadmissible_k": {**good, "k": "-1/2"},
    }
    # I2(m) is no family: refused before any group is built, naming for m in
    # {2, 3, 4, 6} the family that realizes it
    dihedral = {f"i2_{m}": {"family": "I2", "m": m, "k": "1/2", "N": 4} for m in (2, 3, 4, 5, 6)}
    bad_configs.update(dihedral)
    for name, data in bad_configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    ctx = str(ctx_path)
    for argv in (
        ["ek-eval", "--context", ctx, "--x", "a,b", "--y", "0.25"],
        ["ek-eval", "--context", ctx, "--x", "0.5", "--y", "1e"],
        ["ek-eval", "--context", ctx, "--x", "nan", "--y", "0.25"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:zz"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0:1:q,y1:0"],
        ["kernel-grid", "--context", ctx, "--grid", ":1"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0:1:0.5", "--degree", "-1"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0:1:0.5", "--tol", "nan"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0.01,x1:0.02,y1:0.3"],
        ["ek-eval", "--context", ctx, "--x", "0.5", "--y", "0.25", "--tol", "0"],
        ["ek-eval", "--context", ctx, "--x", "0.5", "--y", "0.25", "--tol=-1e-8"],
        ["ek-eval", "--context", ctx, "--x", "0.5", "--y", "0.25", "--tol", "nan"],
        ["lambda-table", "--context", ctx, "--degree", "-1"],
        ["build", "--config", str(cfg), "--out", str(tmp_path / "x.json"), "--degree", "-1"],
        ["export-quadrature", "--dim", "2", "--points-per-axis", "0"],
        ["export-quadrature", "--dim", "0", "--points-per-axis", "3"],
        ["export-quadrature", "--dim", "5", "--points-per-axis", "30"],
        ["export-quadrature", "--dim", "2000", "--points-per-axis", "2"],
        ["verify", "--context", str(tmp_path / "zero_degree.json"), "--suite", "series"],
        ["verify", "--context", str(tmp_path / "zero_n.json"), "--suite", "series"],
        # a directory where a file is expected
        ["intertwine", "--context", str(tmp_path), "--poly", "x1"],
        ["build", "--config", str(tmp_path)],
        ["build", "--config", str(cfg), "--out", str(tmp_path)],
        ["verify", "--context", ctx, "--suite", "exact", "--out", str(tmp_path)],
        # refused by the command after the parse, as main reports every failure
        ["ek-eval", "--context", ctx, "--x", "0.5,0.5", "--y", "0.25"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0:1:0.5,y1:0:1:0.5", "--tol", "1e-8"],
        # points whose tail bound is not finite are refused, not printed
        ["ek-eval", "--context", ctx, "--x", "1e200", "--y", "0.25"],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0:1e200:1e200"],
    ) + tuple(
        ["build", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / "y.json")]
        for name in bad_configs
    ) + tuple(
        ["verify", "--context", str(tmp_path / f"{name}.json"), "--suite", "exact"]
        for name in dihedral
    ) + tuple(
        ["intertwine", "--context", str(tmp_path / f"{name}.json"), "--poly", "x1^3"]
        for name in broken
    ) + tuple(
        ["intertwine", "--context", ctx, "--poly", literal]
        for literal in (
            "2 x1^2", "x1^a", "x1^", "(1,2", "3/0 * x1", "(1/2) x1", "*x1", "x1 * x2",
            "x1^2 +", "x1 -", "2 *", "x1 + 2 *",
        )
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
    for m, family in ((2, "Z2^d"), (3, "A"), (4, "B"), (6, "G2")):
        assert main(["build", "--config", str(tmp_path / f"i2_{m}.json")]) == 2
        err = capsys.readouterr().err
        assert f'I2({m}) is ' in err and f'"family": "{family}"' in err


def test_degrees_above_the_cap_exit_2(tmp_path, capsys):
    # every degree that outside input asks for is capped at DEGREE_CAP; the
    # literal used to run until killed, solving P_n degree after degree
    from dunkl.operators import DEGREE_CAP

    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    assert main(["build", "--config", str(cfg), "--out", str(ctx_path)]) == 0
    capsys.readouterr()
    above = str(DEGREE_CAP + 1)
    good = json.loads(cfg.read_text())
    (tmp_path / "big_n.json").write_text(json.dumps({**good, "N": DEGREE_CAP + 1}))
    cache = json.loads(ctx_path.read_text())
    (tmp_path / "big_cache.json").write_text(json.dumps({**cache, "degree": DEGREE_CAP + 1}))
    ctx = str(ctx_path)
    for argv in (
        ["intertwine", "--context", ctx, "--poly", "x1^999999999999"],
        ["intertwine", "--context", ctx, "--poly", f"x1 + x1^{DEGREE_CAP - 1} x1^2"],
        ["build", "--config", str(cfg), "--out", str(tmp_path / "x.json"), "--degree", above],
        ["build", "--config", str(tmp_path / "big_n.json"), "--out", str(tmp_path / "y.json")],
        ["lambda-table", "--context", ctx, "--degree", above],
        ["kernel-grid", "--context", ctx, "--grid", "x1:0.1,y1:0.2", "--degree", above],
        ["intertwine", "--context", str(tmp_path / "big_cache.json"), "--poly", "x1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert str(DEGREE_CAP) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    capsys.readouterr()
    rc = main(["verify", "--context", str(ctx_path), "--suite", "exact"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(r["passed"] for r in report["results"])
    with pytest.raises(SystemExit):
        main(["verify", "--context", str(ctx_path), "--suite", "nonsense"])


def test_cli_export_quadrature(tmp_path):
    out_path = tmp_path / "rule.csv"
    assert main(
        ["export-quadrature", "--dim", "1", "--points-per-axis", "3", "--out", str(out_path)]
    ) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "z1,weight"
    assert len(lines) == 4
    weights = [float(l.split(",")[1]) for l in lines[1:]]
    assert abs(sum(weights) - 1.0) < 1e-14


def test_cli_deterministic_output(tmp_path):
    cfg = write_config(tmp_path)
    ctx_path = tmp_path / "z21.ctx.json"
    main(["build", "--config", str(cfg), "--out", str(ctx_path)])
    outs = []
    for run in range(2):
        path = tmp_path / f"grid{run}.csv"
        main(
            [
                "kernel-grid",
                "--context", str(ctx_path),
                "--grid", "x1:-0.2:0.2:0.2,y1:-0.4:0.4:0.4",
                "--degree", "16",
                "--out", str(path),
            ]
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_missing_config_is_config_error(capsys):
    assert main(["build", "--config", "/nonexistent/cfg.json"]) == 2


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError, "the request needs more memory than the process can get"),
        (MemoryError("Unable to allocate 1.5 TiB"), "Unable to allocate 1.5 TiB"),
    ],
)
def test_cli_memory_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys, error, line):
    def cmd_build(args):
        raise error

    monkeypatch.setattr(cli, "cmd_build", cmd_build)
    assert main(["build", "--config", str(write_config(tmp_path))]) == cli.EXIT_MEMORY == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"out of memory: {line}\n")


def test_cli_cache_dir_env_var(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("DUNKL_CACHE_DIR", str(cache))
    cfg = write_config(tmp_path)
    assert main(["build", "--config", str(cfg)]) == 0
    assert (cache / "z21.ctx.json").exists()


@pytest.mark.parametrize("name", ["../../x", "sub/x", "x\\y", "", ".", "..", 5, None])
def test_build_refuses_a_name_that_is_not_a_plain_file_name(tmp_path, monkeypatch, capsys, name):
    # build writes <name>.ctx.json in the cache directory, so a path would
    # leave it ("../../x" is tmp_path/x.ctx.json here)
    cache = tmp_path / "a" / "b"
    cache.mkdir(parents=True)
    monkeypatch.setenv("DUNKL_CACHE_DIR", str(cache))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "B", "d": 2, "k": "1/2", "N": 4, "name": name}))
    assert main(["build", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "configuration error: config field 'name'" in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]


def test_cli_entrypoint_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl.cli", "build", "--config", str(cfg), "--out", str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "|G| = 2" in proc.stdout


# -- the exact commands without numpy --------------------------------------------------

B2_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "b2.json"
NO_NUMPY = "import sys; sys.modules['numpy'] = None; "


def _python(code, *args, cwd=None, flags=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, cwd=cwd,
        env=env,
    )


def test_importing_the_cli_does_not_import_numpy():
    proc = _python("import sys, dunkl.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_set_has_no_numpy_dataclasses_inspect_or_typing():
    """Importing the CLI, or the verify suites with the whole float layer,
    loads none of numpy, dataclasses, inspect or typing.  It runs under -S,
    so that no site .pth file preloads typing and hides a new import."""
    probe = "import sys, {}; print(sorted(m for m in {!r} if m in sys.modules))"
    for module in ("dunkl.cli", "dunkl.verify"):
        proc = _python(probe.format(module, ("numpy", "dataclasses", "inspect", "typing")),
                       flags=("-S",))
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), (module, proc.stderr)


@pytest.mark.parametrize("argv", [
    ["verify", "--context", str(B2_CONFIG), "--suite", "all"],
    ["export-quadrature", "--dim", "2", "--points-per-axis", "3"],
], ids=["verify", "export-quadrature"])
def test_float_layer_commands_run_without_numpy(argv, tmp_path):
    """verify and export-quadrature need no numpy: with numpy blocked each
    exits 0 and prints byte for byte what a normal run prints, and loads
    no numpy in a normal run either."""
    run = ("from dunkl.cli import main; code = main(sys.argv[1:]); "
           "print(code, sys.modules.get('numpy') is not None)")
    blocked = _python(NO_NUMPY + run, *argv, cwd=tmp_path)
    normal = _python("import sys; " + run, *argv, cwd=tmp_path)
    assert (blocked.returncode, blocked.stderr) == (0, ""), blocked.stderr
    assert (normal.returncode, normal.stderr) == (0, ""), normal.stderr
    assert blocked.stdout == normal.stdout and normal.stdout.endswith("\n0 False\n")
    assert len(normal.stdout.splitlines()) > 9


def test_exact_commands_run_without_numpy(tmp_path):
    """build, intertwine, lambda-table, ek-eval and kernel-grid exit 0 with
    numpy blocked, and print and cache byte for byte what a normal run does;
    a refused grid exits 2 with one line and no traceback."""
    commands = (
        ["build", "--config", str(B2_CONFIG), "--out", "b2.ctx.json"],
        ["intertwine", "--context", "b2.ctx.json", "--poly", "x1^3 x2 - 2/3 * x2^4 + x1"],
        ["lambda-table", "--context", "b2.ctx.json"],
        ["ek-eval", "--context", "b2.ctx.json", "--x", "0.1,0.2", "--y", "1,0.5"],
        ["kernel-grid", "--context", "b2.ctx.json", "--grid", "x1:0:0.04:0.02,x2:-0.01,y1:-1:1:1",
         "--tol", "1e-8"],
    )
    run = "from dunkl.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = {}
    for label, prefix in (("blocked", NO_NUMPY), ("normal", "import sys; ")):
        cwd = tmp_path / label
        cwd.mkdir()
        outs = []
        for argv in commands:
            proc = _python(prefix + run, *argv, cwd=cwd)
            assert proc.returncode == 0, (label, argv, proc.stderr)
            outs.append(proc.stdout)
        runs[label] = outs, (cwd / "b2.ctx.json").read_bytes()
    assert runs["blocked"] == runs["normal"]
    refused = ["kernel-grid", "--context", "b2.ctx.json", "--grid", "x1:0:1:0.5,y1:0:1:0.5",
               "--tol", "1e-8"]
    proc = _python(NO_NUMPY + run, *refused, cwd=tmp_path / "blocked")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("configuration error: refusing grid")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_kernel_grid_loads_no_numpy():
    probe = (
        "import sys, contextlib, io; from dunkl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    proc = _python(probe, "kernel-grid", "--context", str(B2_CONFIG), "--grid", "x1:0.02,y1:-1:1:1")
    assert (proc.returncode, proc.stdout.strip()) == (0, "0 False"), proc.stderr


def test_quadrature_suite_runs_in_six_dimensions():
    """verify --suite quadrature on Z2^6 exits 0: the suite's one rule has
    5^6 nodes, and every polynomial integral is taken in closed form."""
    config = Path(__file__).resolve().parents[1] / "configs" / "z26.json"
    proc = _python("import sys; from dunkl.cli import main; sys.exit(main(sys.argv[1:]))",
                   "verify", "--context", str(config), "--suite", "quadrature")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] and len(report["results"]) == 9


def test_kernel_grid_refuses_work_above_the_term_cap(monkeypatch, capsys):
    # pairs times C(N + d, d) monomials above GRID_TERM_CAP exit 2 with one
    # line that states the estimate, before any evaluator is made; the CI and
    # benchmark grids stay far below the cap
    from dunkl import kernel

    def refuse(*args):
        raise AssertionError("make_evaluator called")

    monkeypatch.setattr(kernel, "make_evaluator", refuse)
    argv = ["kernel-grid", "--context", str(B2_CONFIG), "--grid", "x1:-1:1:0.001,y1:-1:1:0.01",
            "--degree", "14"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "configuration error: refusing grid: 402201 (x, y) pairs at degree 14 are an estimated "
        "4.83e+07 terms, above the cap of 2e+07\n"
    )
    # CI's 3 x 5 grid on B2 and its one pair on Z2^6, both at degree 14
    assert 15 * math.comb(16, 2) < cli.GRID_TERM_CAP and math.comb(20, 6) < cli.GRID_TERM_CAP
