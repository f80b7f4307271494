"""The scripts in scripts/: bad arguments exit 2 with a message, as the CLI
does, a degree below the script's range is refused, not evaluated, and
both scripts read a cache as they read a config."""
import importlib.util
from pathlib import Path

import pytest

from dunkl.cli import main as dunkl

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def kernel_slice():
    return _script("kernel_slice")


@pytest.fixture(scope="module")
def growth_table():
    return _script("growth_table")


def _refused(capsys, main, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


B2 = str(ROOT / "configs" / "b2.json")
Z21NEG = str(ROOT / "configs" / "z21neg.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--x", "0.1,0.05", "--steps", "1"], "--steps must be at least 2"),
        (["--x", "0.1,0.05", "--direction", "0,0"], "is zero"),
        (["--x", "a,b"], "bad number"),
        (["--x", "0.1,0.05", "--direction", "1,0,0"], "dimension 2"),
        (["--x", "0.1,0.05", "--radius", "nan"], "--radius must be finite"),
        (["--x", "0.1,0.05", "--degree", "-2"], "--degree must be in 0.."),
    ],
    ids=[
        "one-step",
        "zero-direction",
        "bad-number",
        "direction-dimension",
        "nan-radius",
        "negative-degree",
    ],
)
def test_kernel_slice_refuses_bad_arguments(capsys, kernel_slice, argv, message):
    _refused(capsys, kernel_slice.main, [B2, *argv], message)


def test_kernel_slice_degree_zero_on_an_empirical_weight(capsys, kernel_slice):
    # k = -1 has an empirical tail, which needs delta_hat even at degree 0
    assert kernel_slice.main([Z21NEG, "--x", "0.1", "--degree", "0", "--steps", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,kernel,tail_bound,weight_zero_profile"
    assert len(rows) == 4
    for row in rows[1:]:
        t, kernel, tail, _ = map(float, row.split(","))
        assert kernel == 1.0 and 0.0 < tail < float("inf")


def test_kernel_slice_reads_a_built_cache(tmp_path, capsys, kernel_slice):
    cache = str(tmp_path / "b2.ctx.json")
    assert dunkl(["build", "--config", B2, "--out", cache]) == 0
    capsys.readouterr()
    argv = ["--x", "0.1,0.05", "--steps", "3"]
    assert kernel_slice.main([B2, *argv]) == 0
    from_config = capsys.readouterr().out
    assert kernel_slice.main([cache, *argv]) == 0
    assert capsys.readouterr().out == from_config
    assert len(from_config.splitlines()) == 4


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_growth_table_refuses_degree_below_one(capsys, growth_table, degree):
    _refused(capsys, growth_table.main, [B2, "--degree", degree], "--degree must be in 1..")


def test_growth_table_lists_every_computed_degree(capsys, growth_table):
    assert growth_table.main([Z21NEG, "--degree", "6"]) == 0
    captured = capsys.readouterr()
    assert [row.split(",")[0] for row in captured.out.splitlines()] == list("n13456")
    assert "over degrees 1..6" in captured.err and "fallback" in captured.err


def test_growth_table_reads_a_built_cache_to_the_asked_degree(tmp_path, capsys, growth_table):
    # the cache and its config are prepared to degree 12; --degree 4 prints 1..4
    cache = str(tmp_path / "b2.ctx.json")
    assert dunkl(["build", "--config", B2, "--out", cache]) == 0
    capsys.readouterr()
    assert growth_table.main([B2, "--degree", "4"]) == 0
    from_config = capsys.readouterr()
    assert [row.split(",")[0] for row in from_config.out.splitlines()] == list("n1234")
    assert "over degrees 1..4" in from_config.err
    assert growth_table.main([cache, "--degree", "4"]) == 0
    assert capsys.readouterr() == from_config
