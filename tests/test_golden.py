"""Golden outputs: the sha256 of every exact command's output, byte for byte.

For each system below the test builds a context with `dunkl build`, then
hashes the cache file and the stdout of `build`, `lambda-table`,
`intertwine`, `ek-eval` and `verify --suite exact`; it also hashes the V
table with each coefficient rounded once (the repr of its sorted terms), the
values lk_grid reads.  The digests other than the rounded table's were
recorded from the implementation that stored every table as Fractions, so
they pin the exact layer's values across changes of storage; the g2 and b3
`verify --suite exact` digests were recorded again when the
`en-product-expansion-oracle` row was extended from |G| <= 8 to |G| <= 48,
which changed only that row's note.  It also hashes the CSV that
`kernel-grid` prints for each grid in GRIDS, which pins lk_grid's float
operations, and the rows of `verify --suite all` on each system in
VERIFY_SYSTEMS without their residuals (identity, tolerance, pass flag,
convention and note), which pins every verdict the suites reach.

Print the digests of the current code with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
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

# the systems whose `verify --suite all` rows are pinned in VERIFY_GOLDEN
VERIFY_SYSTEMS = ("a2", "b2", "b2c", "z21", "z21neg")

VERIFY_GOLDEN = {
    "a2": "98495e14fff234548f95cd2f441bd02f4127f5b369ce167aec340d5c3b4f22c9",
    "b2": "417fdb042d00f3f7d0c70ff283fb789b4570554a22db32bc3666041fd56a3b25",
    "b2c": "a7f4d4267ff1163733c604fffb0192e6c95cb18801ad1fb44fbc4592e65b0376",
    "z21": "58180ac094bce80c8f797207c1ee0a66095a83dc7c2c83cbfede3afa319e87ce",
    "z21neg": "5bb9dd7c4e0198ae37a1503219b42eb0c1b9a2fa631b996facd7c410200df992",
}

GRID_GOLDEN = {
    "b2-degree-14": "db6bdce366b08c66ab4e0e7725dda705fa07c3c3f68c87ca8d9c3e256c1a3b06",
    "b2-degree-30": "f84e24078d83e0732b92ba9f37b83156144a7eb99c1f2807ff1b5e584fb0453b",
    "a2-degree-10": "d34f81ad45dd7811171e5ecfbaaed5f2f701759770649d200a192d578110749c",
}

GOLDEN = {
    "a2": {
        "ctx": "417feba30fd59ec3e751257a4ad481569a8b55bf9c4287bf4c42c6803c605867",
        "build": "71d9d932f2a728d30df47523361f6f94dbb5a39ecd7f83991a400428ae96b590",
        "lambda-table": "f574f19b6e85d58ae4e5939e92deb1545dafba8453ef88ba24a0c90cea402b16",
        "intertwine": "0a00a0050d74160a0860da4ebbab1f87c5a533a5ee51b960bea4bcb9afa86544",
        "ek-eval": "7d86f1d68162cb8b5dcb117d9d9a20a720dc1727d8def239e228f86577159cb5",
        "verify-exact": "9d10c9adf8f617021693c8020d9b56b0a3c80b84c462ac3672b05bfc25e05928",
        "rounded-table": "71f50b8abe28c36ac816eddce5df35fedb39a9c56a89e0c19e7a456786a16c2d",
    },
    "b2": {
        "ctx": "281d079b0917c6ad4bf85ac1ca7a3097d78b3adb4f58cd76bbda08111ab38ac7",
        "build": "8505387856bf1df0f6459b1aef167f4b5ffb52288b91a0b07a2c7a669dbead36",
        "lambda-table": "99629a8a04e63fba81dcff1a0154950409d89675f60ded868e316be5a51fdfd3",
        "intertwine": "02d7afec05f966c05ac739c4da044e14974cfbdd2ea66ce777ad1feaa831c634",
        "ek-eval": "a6ccb20726acc5caeab9a43aabf9ebf770831b8450cce6dcbb10020820ff81b3",
        "verify-exact": "25ab4137e7c5d36f50ae5eec31aa6fac17961fe7681376392543673fa53f5146",
        "rounded-table": "299dd3dd5486accf08cda3166e4e18e2f345052e29b0b78e4a913a52786744d8",
    },
    "b2c": {
        "ctx": "6a0808c781d01c0d62542f6a4556883c4c2934085496187d1171a9adda5b77d3",
        "build": "de1cf8ac29db4aded18f4d5c1cc76927a4666646f91782796896af6e28c15e6b",
        "lambda-table": "ad0139fb15b197512f7be0cec3436cce0940c7a7712c1917e65ef970eb1c98ff",
        "intertwine": "9436678e0d0e6eb2265394166d3bca07e33709086dac96819f5cc8e6267ae01d",
        "ek-eval": "3fe77095e315c190a6913296f639112fa158168b1357dc89d42253df6016b767",
        "verify-exact": "b2e03ee639640073f16171b6b110545a3169c648693f92ca2d092f69498063ac",
        "rounded-table": "bbbc7c1f1aee84118b2cd9bc733293f4ab61304a3991e85475b4ee74f35cdaf8",
    },
    "z21": {
        "ctx": "09b8e1a40f911b19b03169f2fd179f0b057437904358eb6df9aa80a727988c1b",
        "build": "50f700eef7fbb6a56c2e4aac4b426bc115a699afe3a58aa78a91fc706aea6f8d",
        "lambda-table": "b95fd69b2d6ddea4b67e559109a0dcdba1bfbb6f98ba97404b4616d7c9d1144b",
        "intertwine": "7b4eb9f135a481157c3a5f39c0533cadcc4e20423110612a05a27c39e0537607",
        "ek-eval": "d8bf71553d9fcf00ce0e7bfea3cf721edbca2720fdd6c6001db7fb02f5f3f8b1",
        "verify-exact": "0ed9dcb140bb534b316ea50f7e6c0164937171b12144b3ddc0b968a4907939bc",
        "rounded-table": "61f45166d6f35f117b69769011a92b8d031620930008d3a00e012a2b68a0428d",
    },
    "z21neg": {
        "ctx": "86e98c65ef67f24c4f23aef4bf38752b7fd052fd4f4bd637b8908f67c5825438",
        "build": "9fca40902132303954fc68d1478492d645ee17df9254a8f4a6bdeab1cac86c1b",
        "lambda-table": "d630697f18e940ad3dfd1d913f23eb87360988fec5f680ce6825919c058a8639",
        "intertwine": "e5d8b193e4b029e96c9ef7c96d7642d2e1439e2844813e3e12c00e58fef082e5",
        "ek-eval": "d890a6cb9a8c0b1ab9989272bb40d450c9670df38a41b911d80374d86e33c833",
        "verify-exact": "f6166c3ec7bf6518ff659ab6bdb9e25e356481af8a810b992018253acccba19d",
        "rounded-table": "1619402e95959d476d4f73c334732bbfdf1a12356474cc9c12bea8224f98b7b7",
    },
    "g2": {
        "ctx": "5e86dc3e6e8f8f50e1ff88c38d68fc28e468f8ba4d9eeca773977ae3da48b2d0",
        "build": "fd32892513a1dfee25964b5318da5a5c99bf8f664d0387360da82abab2a299cd",
        "lambda-table": "2a09749305c0e5231c8a7146a6012a1dda84d9e188ac005fc5a571fe72ef0de8",
        "intertwine": "e6741230890eec2d4c4436520bf1b2220ccdda326b8ebbb7d1f4677cdd76d564",
        "ek-eval": "a0626ae9eab26cbb827d81f94dcae11809e82a0c02a04b463d36f02d45edc21c",
        "verify-exact": "edbdd1552f862cfc51debc1853f9a9c03a6476ea335aaab6eff1155aa5a3ef1b",
        "rounded-table": "0973124056643ae8bf57737f15a8982ad0374069a2e94bbdcffee3cb75060a4d",
    },
    "b3": {
        "ctx": "aef9286781c42f1fb5fcfa2b82e2d40dba207cf219ef6d592e4169709e11caeb",
        "build": "803a454b863d5c92eb6ca9877d21e84b2c0e89fb1c3e2d2acf91bfcea7eb858f",
        "lambda-table": "31543d0c399d038298adb92cbb8dc877a3026967b149a8e85cc1411f89f55ef5",
        "intertwine": "bd7a1fc89b60b90981ccd12690b2b4483cf3ef8dbc256fcf22f46337c51a6bca",
        "ek-eval": "76c2dd4572d8104ec84d738f22760272adfe8390976e3d6d1ba17ab07eb07b68",
        "verify-exact": "aa8f72834c5724e5f1d0db1e41b41d281accca1290e2d8dbd0925234edf8a515",
        "rounded-table": "0e40a6146f80e392bf7e0e1e33b5e237d52198c8dec48a63a8d5b872c35a261b",
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
    from dunkl.operators import _vk_monomial, monomial_basis

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
        bundle = load_context(ctx_file)
    finally:
        os.chdir(old)
    d = bundle.ctx.dimension
    table = [
        (nu, sorted(_vk_monomial(bundle.ctx, nu, rounded=True).terms.items()))
        for n in range(bundle.degree + 1)
        for nu in monomial_basis(d, n)
    ]
    out["rounded-table"] = _sha(repr(table))
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
