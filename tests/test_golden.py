"""Byte-for-byte comparison of CLI tables against stored golden files.

The files under tests/data/golden were written by the same cli.main calls
and pin every float the gamma and jko tables and the const documents
print: a refactor of the functionals or the constants pipeline must
reproduce them bit for bit.  To regenerate after an intended numerical
change, run this module as a script.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qflow import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

# h down to 1e-12, where the defining expressions of the rescalings have
# lost every digit and only the conditioned computation paths hold
_H_GRID = ["--h-grid", "1e-1:1e-12:23"]
_GAMMA_LO = ["--sigma0", "0.7", "--mu0", "-0.2", "--mu", "0.4", "--sigma", "1.1"]
_GAMMA_HI = ["--sigma0", "1.3", "--mu0", "0.1", "--mu", "-0.5", "--sigma", "0.9"]


def _gamma(statement, q, rest):
    return ["gamma", "--statement", str(statement), "--q", q] + rest + _H_GRID


def _jko(q):
    return ["jko", "--q", q, "--sigma0", "1.0", "--mu0", "0.5", "--h", "0.01", "--steps", "300"]


_TABLES = {
    "gamma-s1-q0.35": _gamma(1, "0.35", _GAMMA_LO),
    "gamma-s1-q1.45": _gamma(1, "1.45", _GAMMA_HI),
    "gamma-s2-q0.35": _gamma(2, "0.35", _GAMMA_LO),
    "gamma-s2-q1.45": _gamma(2, "1.45", _GAMMA_HI),
    "gamma-s3-q0.35": _gamma(3, "0.35", _GAMMA_LO),
    "gamma-s3-q0.8": _gamma(3, "0.8", _GAMMA_HI),
}
CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in _TABLES.items()
    for fmt in ("csv", "json")
}
CASES.update({f"jko-q{q}.csv": _jko(q) for q in ("0.3", "0.8", "1.2", "1.6")})
CASES["jko-q1.2.json"] = _jko("1.2") + ["--format", "json"]
# const has no --out; its document is captured from stdout
CONST_CASES = {
    f"const-q{q}-d{d}.json": ["const", "--q", q, "--d", d]
    for q, d in [("0.35", "1"), ("0.8", "1"), ("1.2", "1"), ("1.45", "1"), ("1.5", "1"),
                 ("0.5", "2"), ("1.2", "2"), ("1.3333333333333333", "2")]
}


def _const_bytes(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("ascii")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CONST_CASES))
def test_const_output_matches_golden(name):
    assert _const_bytes(CONST_CASES[name]) == (0, (GOLDEN_DIR / name).read_bytes())


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        if cli.main(argv + ["--out", str(GOLDEN_DIR / name)]) != 0:
            sys.exit(f"{name}: cli.main failed")
    for name, argv in CONST_CASES.items():
        code, text = _const_bytes(argv)
        if code != 0:
            sys.exit(f"{name}: cli.main failed")
        (GOLDEN_DIR / name).write_bytes(text)
