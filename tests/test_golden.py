"""Golden outputs: the sha256 of every exact command's output, byte for byte.

For each system below the test builds a context with `dunkl build`, then
hashes the cache file and the stdout of `build`, `lambda-table`,
`intertwine`, `ek-eval` and `verify --suite exact`; it also hashes, as
"rounded-table", the float coefficients e_nu(x) of E_n(x, .) at the
system's degree and its ek-eval point x, each the exact coefficient at the
binary value of x rounded once (rounded_coefficients, from
kernel._grid_coefficients, the exact coefficients that every grid sum
contracts).  The rounded-table digests were recorded again
when they moved to dense per-degree blocks of E_n's table entries from V's
tables with each coefficient rounded once, which no output read any more
(the blocks were the same at the change); they stayed the same when the
numpy blocks gave way to the float columns; and they were recorded again
when lk_grid stopped reading table entries rounded once and began to
round E_n(x, .)'s exact coefficients once, so that no rounded copy of
E_n's tables is kept.  They stayed the same when the float contraction
went and the helper began to round _grid_coefficients itself.  The
digests other than the rounded table's were
recorded from the implementation that stored every table as Fractions, so
they pin the exact layer's values across changes of storage; the g2 and b3
`verify --suite exact` digests were recorded again when the
`en-product-expansion-oracle` row was extended from |G| <= 8 to |G| <= 48,
which changed only that row's note.  The ek-eval digests, the three
kernel-grid digests and the verify-row digests were recorded again when the
tails of real weights k >= 0 became the certified |x| envelope: ek-eval
picks a lower degree and prints a last line "tail bound kind = ...", the
CSVs differ only in their tail_bound column, and the verify rows only in
the radius notes of exponential-convolution and kernel-nonnegative-on-grid
(and "certified" -> "empirical" in the first for z21neg and b2c, whose
tails did not change).  The seven cache digests were recorded again when
the cache stopped storing gamma, delta_hat and delta_table, which no load
read; every other line of each cache file stayed the same.  The ek-eval
digests of a2, b2, b2c, g2 and z21neg and the b2-degree-30 grid were
recorded again when float inputs began to be read as their binary values:
ek-eval prints the exact truncated sum there rounded once, and its last
term likewise, which moved the value (a2, z21neg) or the last term (a2, b2,
b2c, g2) by an ulp (tests/test_kernel.py checks both against the exact
sums), and a --grid range is formed in exact decimals, which moved one x1
of b2-degree-30 from 0.05000000000000002 to 0.05.  The three kernel-grid
digests were recorded again when kernel-grid stopped printing lk_grid's
float block products and began to print the exact truncated L^(N)(x, y) at
the binary values of the grid points, rounded once: values moved by a few
ulps, and test_kernel_grid_prints_the_exact_truncation_rounded_once checks
every printed value against the exact series-path sum.  The ek-eval
digests of b2, b2c, z21, z21neg, g2 and b3 were recorded again when ek-eval
began to read --x and --y as the decimals typed ("0.1" is 1/10): it prints
the exact truncated sum at the decimal point rounded once, which moved each
last term by an ulp or two (z21 1.0635679687499995e-06 -> 1.06356796875e-06)
and the imaginary part of b2c's value by two ulps; degrees and tail bounds
stayed the same (tests/test_kernel.py checks the printed lines against the
exact sums).  The a2 and b2 verify-row digests were recorded again when
the positivity scan moved to exact grids with 3-digit decimal spans and
each value became the exact truncated sum rounded once: only the
kernel-nonnegative-on-grid notes moved, a2 "|x| <= 0.761" -> "0.76" (the
span rounded down) and b2 "min 0.815" -> "0.816"
(tests/test_verify.py checks each scanned value and the minimum against
the exact series sums).  The d4 digests were recorded from the
build_root_system that had one branch per family; d4's ek-eval point lies
far enough out that ek-eval uses degree 6.  It also hashes the
CSV that `kernel-grid` prints for each grid in GRIDS, which pins the
Hermite path's values and the tail bounds, and the rows of `verify --suite
all` on each system in VERIFY_SYSTEMS without their residuals (identity,
tolerance, pass flag, convention and note), which pins every verdict the
suites reach.

Print the digests of the current code with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# name -> (config, intertwine literal, ek-eval x, ek-eval y)
SYSTEMS = {
    "a2": ("configs/a2.json", "x1^3 x2 - 2/3 * x2^2 x3^2 + x3", "0.1,0.05,-0.02", "0.3,-0.2,0.1"),
    "b2": ("configs/b2.json", "x1^3 x2 - 2/3 * x2^4 + x1", "0.1,0.2", "1,0.5"),
    "b2c": ("configs/b2c.json", "x1^3 x2 - 2/3 * x2^4 + x1", "0.1,0.2", "1,0.5"),
    "z21": ("configs/z21.json", "x1^5 + 1/2 * x1^2", "0.3", "-0.7"),
    "z21neg": ("configs/z21neg.json", "x1^5 + x1^2", "0.3", "-0.7"),
    "g2": ("configs/g2.json", "x1^2 x2 + x3^3", "0.05,-0.02,0.01", "0.1,0.2,-0.1"),
    "b3": ("bench/ladder/b3.json", "x1^2 x2 x3 + x3^4", "0.02,0.01,-0.01", "0.1,0.2,0.3"),
    "d4": ("configs/d4.json", "x1^2 x2 + x4^3", "0.3,-0.2,0.1,0.2", "0.5,0.25,-0.5,0.1"),
}

# name -> kernel-grid argv after the context
GRIDS = {
    "b2-degree-14": (
        "configs/b2.json", "--grid", "x1:0:0.04:0.02,x2:-0.01,y1:-1:1:0.5,y2:0.3", "--tol", "1e-8"
    ),
    "b2-degree-30": (
        "configs/b2.json", "--grid", "x1:-0.1:0.1:0.05,x2:0.05,y1:-1:1:0.5,y2:0.7",
        "--degree", "30", "--tol", "1e-8",
    ),
    "a2-degree-10": (
        "configs/a2.json", "--grid", "x1:-0.02:0.02:0.02,x2:0.01,y1:-0.5:0.5:0.5,y3:0.3",
        "--tol", "1e-8",
    ),
}

# kernel-grid argv whose printed values are checked against the exact sum:
# GRIDS, a complex weight and rank one
ROUNDING_GRIDS = {
    **GRIDS,
    "b2c-degree-14": (
        "configs/b2c.json", "--grid", "x1:-0.04:0.04:0.04,x2:0.02,y1:-1:1:1,y2:0.5", "--tol", "1e-8"
    ),
    "z21-degree-14": ("configs/z21.json", "--grid", "x1:-0.3:0.3:0.3,y1:-1:1:0.5", "--tol", "1e-8"),
}

# the systems whose `verify --suite all` rows are pinned in VERIFY_GOLDEN
VERIFY_SYSTEMS = ("a2", "b2", "b2c", "z21", "z21neg")

VERIFY_GOLDEN = {
    "a2": "5efb3ac6d9cce2a415154adb372b2b5052d0586caf685f5d7c242a4f4a749ba6",
    "b2": "07805c6d2203ff03bab22f6293d0f79ff466b355628f092e90f4d9550b76dee8",
    "b2c": "f7a6c5cf0028020670ad3199c004ce62434439d708ae7cf2f58d727bb9ec1ac6",
    "z21": "81c24e29be2a1ef43e548544c25196a5345a441675e44aa76c67fa565db9d774",
    "z21neg": "df35436e391874f284f1a96ec63c494ee30bbd57e6d62f84929b8662ead6fcbc",
}

GRID_GOLDEN = {
    "b2-degree-14": "048752f0a11c78af07b2e1de9982ff2417a609d9b0ec3fdefe4e0e83834f7d6b",
    "b2-degree-30": "e6d436dcab78d483cdbf861a067781fb4c5427062eb36479028a69ab58050eba",
    "a2-degree-10": "f263231d48f819424edcf49e66cd7567608acc836d0250df2479ce8a3f9f8ed4",
}

GOLDEN = {
    "a2": {
        "ctx": "54805e0e825e8a5f5163b0fd971bab1ce5464d0542c63afa25f855c1894d566e",
        "build": "71d9d932f2a728d30df47523361f6f94dbb5a39ecd7f83991a400428ae96b590",
        "lambda-table": "f574f19b6e85d58ae4e5939e92deb1545dafba8453ef88ba24a0c90cea402b16",
        "intertwine": "0a00a0050d74160a0860da4ebbab1f87c5a533a5ee51b960bea4bcb9afa86544",
        "ek-eval": "6189f292c599b79a211f70ecc0050b758da52668f2fd076d045e7926f2e8a6c9",
        "verify-exact": "9d10c9adf8f617021693c8020d9b56b0a3c80b84c462ac3672b05bfc25e05928",
        "rounded-table": "73232e39806b9bb1e05916efe17636ffba8551e2a394851ad2143e7fdea00240",
    },
    "b2": {
        "ctx": "dd50de5a1edeedefbbadefe782ee9f2a0fbfc8c8b0f6e1feb2e3839c8ddd7778",
        "build": "8505387856bf1df0f6459b1aef167f4b5ffb52288b91a0b07a2c7a669dbead36",
        "lambda-table": "99629a8a04e63fba81dcff1a0154950409d89675f60ded868e316be5a51fdfd3",
        "intertwine": "02d7afec05f966c05ac739c4da044e14974cfbdd2ea66ce777ad1feaa831c634",
        "ek-eval": "df884b2e39b7abb7e93114f8eafb74591bc7d2337b5ebc5590f4c26815ecc72e",
        "verify-exact": "25ab4137e7c5d36f50ae5eec31aa6fac17961fe7681376392543673fa53f5146",
        "rounded-table": "2b8605632b259d0c958135aa89d33d6d77cb8d26c43c902834ae8dbbd9a0cad2",
    },
    "b2c": {
        "ctx": "7fcfdff69f8e1e9766eb73cd38b50e75f8856e8a43973ff86ddf52ed12f1a325",
        "build": "de1cf8ac29db4aded18f4d5c1cc76927a4666646f91782796896af6e28c15e6b",
        "lambda-table": "ad0139fb15b197512f7be0cec3436cce0940c7a7712c1917e65ef970eb1c98ff",
        "intertwine": "9436678e0d0e6eb2265394166d3bca07e33709086dac96819f5cc8e6267ae01d",
        "ek-eval": "74df1dcff3547018efe9304bfb2d74d802b970077a277aa2139d6670e5c70738",
        "verify-exact": "b2e03ee639640073f16171b6b110545a3169c648693f92ca2d092f69498063ac",
        "rounded-table": "1280f687acdb4ee72e879bcbaa6d034677ed687a6dabc8e9dbbf53883e5cfc30",
    },
    "z21": {
        "ctx": "b302c1f54b1ffaa563f820e3fa336723dbbf7058150789edc81df668fb285f27",
        "build": "50f700eef7fbb6a56c2e4aac4b426bc115a699afe3a58aa78a91fc706aea6f8d",
        "lambda-table": "b95fd69b2d6ddea4b67e559109a0dcdba1bfbb6f98ba97404b4616d7c9d1144b",
        "intertwine": "7b4eb9f135a481157c3a5f39c0533cadcc4e20423110612a05a27c39e0537607",
        "ek-eval": "1194ba7bd4444c50245e4bd3447302fb0169659bd804c80d34b2e6251f4a10e0",
        "verify-exact": "0ed9dcb140bb534b316ea50f7e6c0164937171b12144b3ddc0b968a4907939bc",
        "rounded-table": "05439bd222a9bc7532ab347cbc115738a4dda00b03aefec603d512c6c6e8a98a",
    },
    "z21neg": {
        "ctx": "43c1d08b439e4e43f1caf145f90626fedaa206295be65199615c7a4f29cf7d5a",
        "build": "9fca40902132303954fc68d1478492d645ee17df9254a8f4a6bdeab1cac86c1b",
        "lambda-table": "d630697f18e940ad3dfd1d913f23eb87360988fec5f680ce6825919c058a8639",
        "intertwine": "e5d8b193e4b029e96c9ef7c96d7642d2e1439e2844813e3e12c00e58fef082e5",
        "ek-eval": "1e1af2d009ce98ba2b433b13745f21d28d10aeb41e268746ab7c13e79dce7fad",
        "verify-exact": "f6166c3ec7bf6518ff659ab6bdb9e25e356481af8a810b992018253acccba19d",
        "rounded-table": "2674d29abe05c68f3599f38ee01e3a292b120afa7c86afbaf795337e6d29f185",
    },
    "g2": {
        "ctx": "7a4c6bf13d2bf1bc95ea6ec717365010913abbd278a8890752128ebbf54e197e",
        "build": "fd32892513a1dfee25964b5318da5a5c99bf8f664d0387360da82abab2a299cd",
        "lambda-table": "2a09749305c0e5231c8a7146a6012a1dda84d9e188ac005fc5a571fe72ef0de8",
        "intertwine": "e6741230890eec2d4c4436520bf1b2220ccdda326b8ebbb7d1f4677cdd76d564",
        "ek-eval": "ba897d3c07481ee7ec102559908160b79ca1d9da6d0949b7d93ac5150d89035d",
        "verify-exact": "edbdd1552f862cfc51debc1853f9a9c03a6476ea335aaab6eff1155aa5a3ef1b",
        "rounded-table": "9b80d5a79965a049db723866b799b5696db8b29b2fa44ddd96409e7afb972ca7",
    },
    "b3": {
        "ctx": "101820b936d178cc90db42193887b26cb441b838cda493a9d56ecc6e5cfcbab7",
        "build": "803a454b863d5c92eb6ca9877d21e84b2c0e89fb1c3e2d2acf91bfcea7eb858f",
        "lambda-table": "31543d0c399d038298adb92cbb8dc877a3026967b149a8e85cc1411f89f55ef5",
        "intertwine": "bd7a1fc89b60b90981ccd12690b2b4483cf3ef8dbc256fcf22f46337c51a6bca",
        "ek-eval": "ff348a709e9599a8e19e46603c7a109ab6f4282859da9c092a80417511e3b6c1",
        "verify-exact": "aa8f72834c5724e5f1d0db1e41b41d281accca1290e2d8dbd0925234edf8a515",
        "rounded-table": "8ce94b6b548e683c4a63e8aa1ce4ae750902d1f383bad23b02223f65e4f3a051",
    },
    "d4": {
        "ctx": "8978c34c663cd8d79e8fff4a943b4724e7cb9fc1b5a0e0d1a19adca552632b4e",
        "build": "bf4420a2b4c42f45a6c7deb757907a311d7e3f9f1d63512cec54571ea5b5a916",
        "lambda-table": "ba5b6e731e214a51b97a9ef2607f98a45d05148c7de1525167d63260d7dff964",
        "intertwine": "1348745fe2f72761ee69fb38472aa50e35b235e3ca365b3916776350d7f5083c",
        "ek-eval": "56ed1dce9e005faa7defae541aa0acea5cc8a48007533252da6205d878e2960b",
        "verify-exact": "82cde95ac5c9ed4e3d83021dd70a9e051ddec99fd918a3af134d3c6e5bf12129",
        "rounded-table": "752f0c2b01e83b81de6c33ef1bcde4c77c9904b1e10aa4e0a2199ee80c7a1120",
    },
}


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _run(*argv):
    from dunkl.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def digests(name, workdir):
    """name's digests, with the context cache written into workdir."""
    from dunkl.config import load_context
    from dunkl.kernel import make_evaluator

    config, poly, x, y = SYSTEMS[name]
    old = os.getcwd()
    os.chdir(workdir)
    try:
        ctx_file = f"{name}.ctx.json"
        runs = {
            "build": _run("build", "--config", str(ROOT / config), "--out", ctx_file),
            "lambda-table": _run("lambda-table", "--context", ctx_file),
            "intertwine": _run("intertwine", "--context", ctx_file, "--poly", poly),
            "ek-eval": _run("ek-eval", "--context", ctx_file, "--x=" + x, "--y=" + y, "--tol", "1e-6"),
            "verify-exact": _run("verify", "--context", ctx_file, "--suite", "exact"),
        }
        out = {"ctx": _sha(Path(ctx_file).read_bytes())}
        for key, (code, text) in runs.items():
            assert code == 0, (name, key, code)
            out[key] = _sha(text)
        ctx = load_context(ctx_file)
    finally:
        os.chdir(old)
    ev = make_evaluator(ctx, ctx.degree)
    out["rounded-table"] = _sha(repr(rounded_coefficients(ev, tuple(map(float, x.split(","))))))
    return out


def rounded_coefficients(ev, x):
    """The exponents nu of kernel._grid_basis, each with the coefficient
    e_nu(x) = V(x^nu)(x) / nu! at the binary value of the float point x,
    rounded once: a float, a complex where the exact value is a
    ComplexRational, and 0.0 where it vanishes.  Each is checked against
    V's table of x^nu evaluated at that value."""
    from dunkl.exact import ComplexRational, _read_exact, _rounded_value
    from dunkl.kernel import _grid_coefficients, _grid_layout
    from dunkl.operators import _vk_table
    from dunkl.poly import _multi_factorial, _polynomial

    xq = _read_exact(x)[0]
    coeffs, den = _grid_coefficients(ev, xq)
    out = list(zip(_grid_layout(ev)[0], (_rounded_value(c, den) for c in coeffs)))
    for nu, v in out:
        exact = _polynomial(ev.dimension, _vk_table(ev.ctx, nu)).evaluate(xq) / _multi_factorial(nu)
        want = (complex if isinstance(exact, ComplexRational) else float)(exact) if exact else 0.0
        assert v == want and type(v) is type(want), (x, nu)
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


def grid_digest(name):
    config, *argv = GRIDS[name]
    code, text = _run("kernel-grid", "--context", str(ROOT / config), *argv)
    assert code == 0, (name, code)
    return _sha(text)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_kernel_grid_matches_golden_digest(name):
    assert grid_digest(name) == GRID_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ROUNDING_GRIDS))
def test_kernel_grid_prints_the_exact_truncation_rounded_once(name):
    """Each value kernel-grid prints is the exact truncated L^(N)(x, y) at the
    binary values of the printed point (17 digits round-trip), each part
    rounded once.  The reference is the series path: the heat images
    heat_image(ev, n, x) at the exact x summed over n <= N, a polynomial in
    y, evaluated at the exact y."""
    from dunkl.cli import _truncation_degree
    from dunkl.config import load_context
    from dunkl.kernel import heat_image, make_evaluator
    from dunkl.poly import Polynomial

    config, *argv = ROUNDING_GRIDS[name]
    code, text = _run("kernel-grid", "--context", str(ROOT / config), *argv)
    assert code == 0, (name, code)
    ctx = load_context(str(ROOT / config))
    d = ctx.dimension
    degree = int(argv[argv.index("--degree") + 1]) if "--degree" in argv else None
    ev = make_evaluator(ctx, _truncation_degree(degree, d))
    series = {}
    rows = text.splitlines()[1:]
    for line in rows:
        fields = [float(t) for t in line.split(",")]
        x, y = (tuple(map(Fraction, fields[i : i + d])) for i in (0, d))
        if x not in series:
            images = (heat_image(ev, n, x) for n in range(ev.n_trunc + 1))
            series[x] = sum(images, Polynomial.zero(d))
        exact = series[x].evaluate(y)
        assert fields[2 * d : 2 * d + 2] == [float(exact.real), float(exact.imag)], (name, line)
    assert len(rows) >= 9


def verify_rows_digest(name):
    """The digest of name's `verify --suite all` rows with max_residual left
    out: residuals may move by roundoff, verdicts and notes may not."""
    code, text = _run("verify", "--context", str(ROOT / SYSTEMS[name][0]), "--suite", "all")
    assert code == 0, (name, code)
    rows = [{k: v for k, v in row.items() if k != "max_residual"} for row in json.loads(text)["results"]]
    return _sha(json.dumps(rows, sort_keys=True))


@pytest.mark.parametrize("name", VERIFY_SYSTEMS)
def test_verify_rows_match_golden_digest(name):
    assert verify_rows_digest(name) == VERIFY_GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: digests(name, tmp) for name in SYSTEMS}, indent=1))
    print(json.dumps({name: grid_digest(name) for name in GRIDS}, indent=1))
    print(json.dumps({name: verify_rows_digest(name) for name in VERIFY_SYSTEMS}, indent=1))
    sys.exit(0)
