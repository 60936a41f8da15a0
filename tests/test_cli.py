import contextlib
import dataclasses
import io
import json
import math
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import checks, cli, functionals, oracle, pme_flow
from qflow.functionals import entropy_diff, wasserstein2_sq
from qflow.pme_flow import evolve_sigma
from qflow.qgaussian import QGaussian1D
from qflow.qmath import DomainError, make_params

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


GAMMA_ARGS = [
    "gamma", "--statement", "1", "--q", "0.8", "--sigma0", "1.0",
    "--mu0", "0.0", "--mu", "0.3", "--sigma", "1.4", "--h-grid", "1e-1:1e-4:4",
]


def test_gamma_csv_layout(capsys):
    assert cli.main(GAMMA_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# schema=qflow.gamma.v1"
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "h,value,limit,abs_error"
    rows = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(rows) == 4
    hs = [float(r[0]) for r in rows]
    assert hs == sorted(hs, reverse=True)
    assert hs[0] == 0.1
    # repr round-trip: re-parsing and re-repr-ing reproduces the text
    for r in rows:
        for cell in r:
            assert repr(float(cell)) == cell
    for r in rows:
        assert float(r[3]) == abs(float(r[1]) - float(r[2]))
    assert f"# input_sha256=" in out


def test_gamma_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(GAMMA_ARGS + ["--out", str(a)]) == 0
    assert cli.main(GAMMA_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gamma_json_validates(tmp_path):
    out = tmp_path / "t.json"
    args = list(GAMMA_ARGS)
    args[2] = "3"
    args[4] = "0.8"
    assert cli.main(args + ["--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("gamma.v1.schema.json"))
    assert doc["columns"] == ["h", "value", "limit", "abs_error", "bound_gap"]
    for row in doc["rows"]:
        assert row[4] >= 0.0


def test_gamma_limits_match_library():
    cfg = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4)
    p = make_params(0.8, 1)
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
    g = QGaussian1D(mu=0.3, sigma=1.4, params=p)
    t1 = cli.cmd_gamma(1, cfg)
    t2 = cli.cmd_gamma(2, cfg)
    assert t1.rows[0][2] == wasserstein2_sq(g, g0)
    assert t2.rows[0][2] == entropy_diff(g, g0)
    assert len(t1.rows) == 11


def test_gamma_trivial_target_is_initial_datum():
    cfg = cli.RunConfig(q=1.2, sigma0=1.0, mu0=0.2, mu=0.2, sigma=1.0, h_stop=1e-6)
    table = cli.cmd_gamma(1, cfg)
    assert all(row[2] == 0.0 for row in table.rows)
    # the value converges to the limit 0 at second order rather than
    # vanishing identically at positive h
    assert abs(table.rows[-1][1]) < 1e-9
    assert abs(table.rows[-1][1]) < abs(table.rows[0][1])


def test_gamma_statement3_rejects_heavy_tails(capsys):
    args = list(GAMMA_ARGS)
    args[2] = "3"
    args[4] = "1.2"
    assert cli.main(args) == 2
    assert "statement 3" in capsys.readouterr().err


def test_bad_grids_and_flags_exit_2():
    for grid in ["1e-6:1e-1:11", "0:1e-6:11", "1e-1:1e-6:1", "abc"]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["gamma", "--statement", "1", "--q", "0.8", "--sigma0", "1",
                      "--mu0", "0", "--mu", "0.3", "--sigma", "1.4", "--h-grid", grid])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamma", "--statement", "4", "--q", "0.8", "--sigma0", "1",
                  "--mu0", "0", "--mu", "0.3", "--sigma", "1.4"])
    assert exc.value.code == 2


def test_gamma_out_of_domain_q_exits_2(capsys):
    args = list(GAMMA_ARGS)
    args[4] = "1.7"
    assert cli.main(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--sigma0", "inf"), ("--mu0", "nan")])
def test_gamma_non_finite_member_exits_2(flag, value, capsys):
    args = ["gamma", "--statement", "2", "--q", "0.8", "--sigma0", "1.0",
            "--mu0", "0.0", "--mu", "0.3", "--sigma", "1.4", "--h-grid", "1e-1:1e-4:4"]
    args[args.index(flag) + 1] = value
    assert cli.main(args) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        # sigma0^(3-q) overflows, then underflows to 0
        ["gamma", "--statement", "2", "--q", "0.8", "--sigma0", "1e300", "--mu0", "0",
         "--mu", "0.3", "--sigma", "1.4", "--h-grid", "1e-1:1e-4:3"],
        ["gamma", "--statement", "2", "--q", "0.8", "--sigma0", "1e-300", "--mu0", "0",
         "--mu", "0.3", "--sigma", "1.4", "--h-grid", "1e-1:1e-4:3"],
        ["jko", "--q", "0.8", "--sigma0", "1e300", "--mu0", "0", "--h", "0.1", "--steps", "3"],
        # eta_h is below double resolution (the root rounds to delta = 1)
        ["gamma", "--statement", "2", "--q", "0.8", "--sigma0", "1.0", "--mu0", "0",
         "--mu", "0.3", "--sigma", "1e-300", "--h-grid", "1e-1:1e-4:3"],
        # jko_step rejects the scales that evolve_sigma rejects
        ["jko", "--q", "0.8", "--sigma0", "1e-300", "--mu0", "0", "--h", "0.1", "--steps", "2"],
        ["jko", "--q", "1.2", "--sigma0", "1e-300", "--mu0", "0", "--h", "0.1", "--steps", "2"],
        ["jko", "--q", "1.2", "--sigma0", "1e300", "--mu0", "0", "--h", "0.1", "--steps", "2"],
        ["jko", "--q", "1.6", "--sigma0", "1e300", "--mu0", "0", "--h", "0.1", "--steps", "2"],
        # (sigma - sigma0)^2 overflows in W2^2
        ["gamma", "--statement", "1", "--q", "1.0878824971138987", "--sigma0", "4.058076962445592e-65",
         "--mu0", "1167831400647.7031", "--mu", "1e-16", "--sigma", "1.0064392324088238e+287",
         "--h-grid", "2.7420359758233935e-104:1.0848316970594007e-115:5"],
        # the right-hand side of the coupling equation overflows
        ["gamma", "--statement", "3", "--q", "0.9999999999999999", "--sigma0", "1e+16",
         "--mu0", "3.6707169444052744e+155", "--mu", "1.2392305211829324e-157",
         "--sigma", "2.6525231134091333e+300",
         "--h-grid", "6.646959661914827e-50:7.790860813864592e-66:3"],
        # 2 h D underflows to 0 in the third rescaling
        ["gamma", "--statement", "3", "--q", "0.9999999999999999", "--sigma0", "2.0", "--mu0", "0.0",
         "--mu", "6.857263727928515e+301", "--sigma", "439005277093006.75",
         "--h-grid", "8.324108752819563e-280:2.6550457588522826e-291:2"],
        # the variance gap overflows in expm1
        ["gamma", "--statement", "2", "--q", "1.6543315976418111", "--sigma0", "2.1492358407748533e-232",
         "--mu0", "5.5270832042003905e+205", "--mu", "3.9815607996271274e-107",
         "--sigma", "4.8441542084402344e-210",
         "--h-grid", "4.319173739008966e-99:1.7620555818752094e-108:2"],
        # the third rescaling overflows
        ["gamma", "--statement", "3", "--q", "0.3212572260215228", "--sigma0", "1.9516205546973847e-95",
         "--mu0", "0", "--mu", "0.3117896046709327", "--sigma", "1.1525989043119636e+107",
         "--h-grid", "4.830490341381342e-122:4.8e-122:2"],
    ],
    ids=["gamma-sigma0-1e300", "gamma-sigma0-1e-300", "jko-sigma0-1e300", "gamma-sigma-1e-300",
         "jko-q0.8-sigma0-1e-300", "jko-q1.2-sigma0-1e-300", "jko-q1.2-sigma0-1e300",
         "jko-q1.6-sigma0-1e300", "gamma-w2-overflow", "gamma-eta-rhs-overflow",
         "gamma-third-den-underflow", "gamma-gap-overflow", "gamma-third-overflow"],
)
def test_extreme_finite_scales_exit_2(args, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_gamma_where_a_power_of_the_coupling_equation_overflows_exits_0(capsys):
    # sigma^(2-q) = 1e450 overflows; the right-hand side 1.35e300 does not
    args = ["gamma", "--statement", "2", "--q", "0.5", "--sigma0", "1e100", "--mu0", "0",
            "--mu", "0", "--sigma", "1e300", "--h-grid", "1e250:1e249:2"]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""


def test_statement3_row_evaluates_fh_and_b_once(monkeypatch):
    # a table is one kernel call over its h-grid; statements 2 and 3 form b
    # once, statement 1 forms none
    calls = {"_step_terms": 0, "_entropy_b": 0}
    for name in calls:
        orig = getattr(functionals, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        for module in (functionals, cli):
            monkeypatch.setattr(module, name, counted)
    cfg = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_points=4)
    for statement, table_b in ((1, 0), (2, 1), (3, 1)):
        calls.update(dict.fromkeys(calls, 0))
        assert len(cli.cmd_gamma(statement, cfg).rows) == 4
        # entropy_diff's limit reads b once more
        assert calls == {"_step_terms": 1, "_entropy_b": 2 * table_b}


def _step_pair_table(statement, cfg):
    """cmd_gamma's rows read one StepPair(g, g0, h) at a time, or the error of
    the first failing row and its index (-1 for the limit)."""
    p = make_params(cfg.q, 1)
    g0 = QGaussian1D(mu=cfg.mu0, sigma=cfg.sigma0, params=p)
    g = QGaussian1D(mu=cfg.mu, sigma=cfg.sigma, params=p)
    try:
        limit = wasserstein2_sq(g, g0) if statement == 1 else entropy_diff(g, g0)
    except DomainError as exc:
        return [], exc, -1
    rows = []
    for k, h in enumerate(cfg.h_grid()):
        try:
            step = functionals.StepPair(g, g0, h)
            value = (step.first, step.second, step.third)[statement - 1]()
        except DomainError as exc:
            return rows, exc, k
        row = (h, value, limit, abs(value - limit))
        if statement == 3:
            row = row + (value - step.second(),)
        rows.append(row)
    return rows, None, None


def _gamma_draws(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        statement = rng.choice((1, 2, 3))
        low = statement == 3 or rng.random() < 0.5
        q = rng.uniform(0.01, 0.99) if low else rng.uniform(1.01, 1.66)
        sigma0 = 10.0 ** rng.uniform(-150, 150)
        if rng.random() < 0.3:
            sigma = 10.0 ** rng.uniform(-150, 150)
        else:
            sigma = sigma0 * 10.0 ** rng.uniform(-1.0, 1.0)
        # a mean of 1e200 puts W2^2 past the doubles
        mu = 1e200 if rng.random() < 0.1 else rng.uniform(-1.0, 1.0)
        # h over the doubles, or within twelve decades below sigma0^(3-q)
        exps = [rng.uniform(-300, 250), rng.uniform(-300, 250)]
        if rng.random() < 0.5:
            top = min(max((3.0 - q) * math.log10(sigma0), -288.0), 250.0)
            exps = [top - rng.uniform(0.0, 12.0) for _ in exps]
        h_start, h_stop = sorted((10.0**e for e in exps), reverse=True)
        cfg = cli.RunConfig(q=q, sigma0=sigma0, mu0=rng.uniform(-1.0, 1.0), mu=mu, sigma=sigma,
                            h_start=h_start, h_stop=h_stop, h_points=rng.randint(2, 12))
        yield statement, cfg


def test_gamma_rows_are_step_pair_rows_bit_for_bit():
    # the whole-grid kernel reads each row as StepPair(g, g0, h) does, and a
    # table that cannot be formed raises its first failing row's error
    failing_rows = []
    for statement, cfg in _gamma_draws(600, 20261019):
        rows, exc, failing = _step_pair_table(statement, cfg)
        if exc is None:
            table = cli.cmd_gamma(statement, cfg)
            assert [list(map(repr, r)) for r in table.rows] == [list(map(repr, r)) for r in rows]
        else:
            with pytest.raises(DomainError) as got:
                cli.cmd_gamma(statement, cfg)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            failing_rows.append(failing)
    # the draw forms tables and raises at the limit, at the first row and at later rows
    assert 250 < len(failing_rows) < 400
    assert {-1, 0} <= set(failing_rows) and max(failing_rows) >= 3


def test_table_commands_do_not_import_scipy(tmp_path):
    # nor the oracle, its two rules or the check table
    code = textwrap.dedent("""
        import sys
        import qflow, qflow.cli
        unloaded = ["scipy", "qflow.oracle", "qflow._kronrod", "qflow.checks"]
        assert not set(unloaded) & sys.modules.keys()
        out = sys.argv[1]
        assert qflow.cli.main(["gamma", "--statement", "3", "--q", "0.8", "--sigma0", "1",
                               "--mu0", "0", "--mu", "0.3", "--sigma", "1.4", "--out", out]) == 0
        assert qflow.cli.main(["jko", "--q", "1.2", "--sigma0", "1", "--mu0", "0",
                               "--h", "0.01", "--steps", "3", "--out", out]) == 0
        assert qflow.cli.main(["const", "--q", "0.8", "--d", "1"]) == 0
        assert not set(unloaded) & sys.modules.keys()
    """)
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "table")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_verify_does_not_import_scipy():
    # the oracles integrate and minimize with the library's own rules
    code = textwrap.dedent("""
        import contextlib, io, sys
        import qflow.checks
        assert "scipy" not in sys.modules
        from qflow import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--scope", "all"]) == 0
        assert "scipy" not in sys.modules
    """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_verify_scopes_match_check_table():
    assert cli.VERIFY_SCOPES == ("all", *checks.CHECKS)


def test_check_table_does_not_import_cli():
    code = "import sys, qflow.checks; assert 'qflow.cli' not in sys.modules"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "argv",
    [GAMMA_ARGS, ["jko", "--q", "0.8", "--sigma0", "1", "--mu0", "0", "--h", "0.1", "--steps", "2"],
     ["verify", "--scope", "qmath"]],
    ids=["gamma", "jko", "verify"],
)
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "missing" / "t")]) == 2
    assert capsys.readouterr().err.startswith("error:")


_DBL_MAX = 1.7976931348623157e308

# q at the edges of Q_1 (1 +- 1 ulp, 5/3 - 1 ulp) and far outside it
_Q = st.one_of(
    st.sampled_from([5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                     math.nextafter(5.0 / 3.0, 0.0), math.nan]),
    st.floats(min_value=5e-324, max_value=2.0),
)
_MAGNITUDE = st.one_of(
    st.sampled_from([5e-324, _DBL_MAX, math.inf, math.nan]),
    st.floats(min_value=5e-324, max_value=_DBL_MAX),
)
_SIGNED = st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda x: -x), st.just(0.0))
_H = st.floats(min_value=1e-320, max_value=_DBL_MAX)


def _opt(name, value):
    # --name=value keeps a negative number from reading as an option
    return f"--{name}={value!r}"


@st.composite
def _h_grids(draw):
    stop, start = sorted([draw(_H), draw(_H)])
    return f"{start!r}:{stop!r}:{draw(st.integers(min_value=2, max_value=5))}"


_GAMMA_ARGV = st.builds(
    lambda statement, q, sigma0, mu0, mu, sigma, grid: [
        "gamma", _opt("statement", statement), _opt("q", q), _opt("sigma0", sigma0),
        _opt("mu0", mu0), _opt("mu", mu), _opt("sigma", sigma), f"--h-grid={grid}",
    ],
    st.integers(min_value=1, max_value=3), _Q, _SIGNED, _SIGNED, _SIGNED, _SIGNED, _h_grids(),
)
_JKO_ARGV = st.builds(
    lambda q, sigma0, mu0, h, steps: [
        "jko", _opt("q", q), _opt("sigma0", sigma0), _opt("mu0", mu0), _opt("h", h),
        _opt("steps", steps),
    ],
    _Q, _SIGNED, _SIGNED, _H, st.integers(min_value=0, max_value=4),
)
_CONST_ARGV = st.builds(
    lambda q, d: ["const", _opt("q", q), _opt("d", d)], _Q, st.integers(min_value=0, max_value=3)
)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(argv=st.one_of(_GAMMA_ARGV, _JKO_ARGV, _CONST_ARGV))
def test_cli_exit_codes(argv):
    # a table (0) or a domain error (2), never a traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)


def _reject_constant(token):
    raise AssertionError(f"{token} is not strict JSON")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(q=_Q, d=st.integers(min_value=1, max_value=10**6))
def test_const_large_d_exit_codes(q, d):
    # a document of positive finite constants (0) or a domain error (2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["const", _opt("q", q), _opt("d", d)])
    assert code in (0, 2)
    if code == 0:
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert all(0.0 < doc[k] < math.inf for k in ("c0_q_d", "A", "C"))


def test_jko_table(tmp_path, capsys):
    assert cli.main(["jko", "--q", "0.8", "--sigma0", "1.0", "--mu0", "0.5",
                     "--h", "0.01", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# schema=qflow.jko.v1"
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(rows) == 6
    assert [int(r[0]) for r in rows] == list(range(6))
    assert all(float(r[1]) == 0.5 for r in rows)
    for n, r in enumerate(rows):
        assert float(r[3]) == pytest.approx(evolve_sigma(1.0, n * 0.01, 0.8), rel=1e-15)

    out = tmp_path / "jko.json"
    assert cli.main(["jko", "--q", "0.8", "--sigma0", "1.0", "--mu0", "0.5",
                     "--h", "0.01", "--steps", "3", "--format", "json",
                     "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), _schema("jko.v1.schema.json"))


def test_jko_small_h_exits_0(capsys):
    assert cli.main(["jko", "--q", "0.8", "--sigma0", "1", "--mu0", "0",
                     "--h", "1e-300", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = [ln.split(",") for ln in lines[header_idx + 1:]]
    # the increment (about 4e-301) is far below the resolution of sigma0
    assert [float(r[2]) for r in rows] == [1.0] * 4


def test_jko_rejects_bad_inputs():
    assert cli.main(["jko", "--q", "0.8", "--sigma0", "1.0", "--mu0", "0.0",
                     "--h", "0.01", "--steps", "0"]) == 2
    assert cli.main(["jko", "--q", "0.8", "--sigma0", "1.0", "--mu0", "0.0",
                     "--h", "-0.01", "--steps", "2"]) == 2
    # a steps count that is not an int is outside the domain, not a TypeError
    for steps in (2.5, "3", None):
        with pytest.raises(DomainError, match="steps"):
            cli.cmd_jko(0.8, 1.0, 0.5, 0.01, steps)


@pytest.mark.parametrize(
    "q, sigma0, h, steps",
    [
        (0.8, 1.0, 0.01, 300),
        (1.2, 0.7, 0.1, 50),
        (0.3, 1e-100, 1e-300, 5),  # the increment is far below sigma0's resolution
        (1.2, 1.0, 5e-324, 5),
        (0.34, 1.0, 2.7e182, 5),
        (1.6, 3.0, 1e-10, 20),
        (1.5, 1e150, 1e200, 4),
    ],
)
def test_cmd_jko_equals_repeated_jko_step(q, sigma0, h, steps):
    g = QGaussian1D(mu=0.5, sigma=sigma0, params=make_params(q, 1))
    sigmas = [sigma0]
    for _ in range(steps):
        g = functionals.jko_step(g, h)
        sigmas.append(g.sigma)
    rows = cli.cmd_jko(q, sigma0, 0.5, h, steps).rows
    assert [r[2].hex() for r in rows] == [s.hex() for s in sigmas]
    assert [r[1] for r in rows] == [0.5] * (steps + 1)


@pytest.mark.parametrize(
    "q, sigma0, h, steps, raising_step",
    [
        (0.8, 1.0, 0.0, 2, 0),
        (0.8, 1e300, 0.1, 3, 0),
        (1.2, 1e-300, 0.1, 2, 0),
        # sigma^(3-q) overflows in the step of row 21 (row 20 at q = 1.6); the
        # exact scales of rows 18 on, where n h overflows to inf, are doubles
        (0.5, 1.0, 1e307, 30, 20),
        (1.6, 1.0, 1e307, 30, 19),
    ],
)
def test_cmd_jko_raises_where_jko_step_raises(q, sigma0, h, steps, raising_step):
    g = QGaussian1D(mu=0.5, sigma=sigma0, params=make_params(q, 1))
    for _ in range(raising_step):
        g = functionals.jko_step(g, h)
    with pytest.raises(DomainError):
        functionals.jko_step(g, h)
    # the table raises its first failing row's error, and a row's step fails
    # before its exact scale; here every table fails at its step
    g = QGaussian1D(mu=0.5, sigma=sigma0, params=make_params(q, 1))
    expected = None
    for n in range(1, steps + 1):
        try:
            g = functionals.jko_step(g, h)
            if n * h < math.inf:
                evolve_sigma(sigma0, n * h, q)
            else:
                cli._scale_past_overflow(sigma0, n, h, q)
        except DomainError as exc:
            expected = exc
            break
    assert n == raising_step + 1 and expected is not None
    with pytest.raises(DomainError) as got:
        cli.cmd_jko(q, sigma0, 0.5, h, steps)
    assert (type(got.value), str(got.value)) == (type(expected), str(expected))


@pytest.mark.parametrize("q, steps", [(0.5, 20), (1.6, 19)])
def test_cmd_jko_exact_scale_where_n_h_overflows(q, steps):
    # from row 18, n h = 1.8e308 overflows to inf, but the exact scale
    # (n h + sigma0^(3-q))^(1/(3-q)) is about 2e123 (q = 0.5) or 1.5e220
    # (q = 1.6): the rows up to the step's own failure are formed
    h = 1e307
    rows = cli.cmd_jko(q, 1.0, 0.0, h, steps).rows
    assert len(rows) == steps + 1 and math.isinf(18 * h)
    for n, _, sigma, exact, error in rows[17:]:
        with mpmath.workdps(50):
            ref = (n * mpmath.mpf(h) + 1) ** (1 / (3 - mpmath.mpf(q)))
            assert abs(exact / ref - 1) <= 1e-13, (n, exact)
        assert error == abs(sigma - exact)


_CELLS = st.one_of(
    st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# header text: quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\,\n\x00\x7fé€😀'), st.characters()), max_size=8)
_META_VALUES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(),
    st.booleans(),
    st.none(),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=12))
    metadata = {"q": 0.8, "steps": 3, "input_sha256": "0f", **draw(st.dictionaries(_TEXT, _META_VALUES, max_size=6))}
    columns = tuple(f"c{i}" for i in range(width))
    return cli.ConvergenceTable(schema="qflow.t.v1", metadata=metadata, columns=columns, rows=rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=_tables())
def test_renderers_match_reference_formulas(table):
    doc = {
        "schema": table.schema,
        "metadata": table.metadata,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    assert cli.render_json(table) == json.dumps(doc, indent=2) + "\n"
    lines = [f"# schema={table.schema}"]
    for k, v in table.metadata.items():
        lines.append(f"# {k}={v!r}" if isinstance(v, float) else f"# {k}={v}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(repr(x) for x in row))
    assert cli.render_csv(table) == "\n".join(lines) + "\n"


class _CountedFloat(float):
    """A float cell that counts the calls of its repr."""

    def __repr__(self):
        self.calls = getattr(self, "calls", 0) + 1
        return float.__repr__(self)


@pytest.mark.parametrize("order", [("csv", "json"), ("json", "csv")])
def test_renderers_format_each_cell_once(order):
    # both documents of a table, rendered twice each, read one repr per cell,
    # and one per table for a column that holds one object in every row
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 1e16, 2.5e-7]
    plain = [(k, *values[k:], *values[:k], 0.25) for k in range(len(values))]
    shared = _CountedFloat(0.25)
    table = cli.ConvergenceTable(
        schema="qflow.t.v1",
        metadata={"q": 0.8, "input_sha256": "0f"},
        columns=("k", *(f"c{i}" for i in range(len(values))), "shared"),
        rows=[(k, *map(_CountedFloat, row[:-1]), shared) for k, *row in plain],
    )
    expect = {
        "csv": "\n".join(["# schema=qflow.t.v1", "# q=0.8", "# input_sha256=0f", ",".join(table.columns)]
                         + [",".join(repr(x) for x in row) for row in plain]) + "\n",
        "json": json.dumps({"schema": table.schema, "metadata": table.metadata,
                            "columns": list(table.columns), "rows": [list(r) for r in plain]},
                           indent=2) + "\n",
    }
    for fmt in order + order:
        assert cli.render(table, fmt) == expect[fmt]
    assert [cell.calls for row in table.rows for cell in row[1:-1]] == [1] * len(values) ** 2
    assert shared.calls == 1


def _reference_documents(table):
    """render_csv and render_json of a table by their reference formulas."""
    doc = {"schema": table.schema, "metadata": table.metadata,
           "columns": list(table.columns), "rows": [list(row) for row in table.rows]}
    lines = [f"# schema={table.schema}", "# input_sha256=0f", ",".join(table.columns)]
    lines += [",".join(repr(x) for x in row) for row in table.rows]
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2) + "\n"


def test_renderers_keep_equal_but_distinct_cells_apart():
    # a column is one text only where its cells are one object: 0.0, -0.0
    # and 0 compare equal, two nan objects are distinct, one nan object is
    # the same cell in every row
    nan = float("nan")
    zeros = [float("0.0"), float("-0.0"), 0, float("0.0"), float("-0.0")]
    nans = [float("nan") for _ in zeros]
    table = cli.ConvergenceTable(
        schema="qflow.t.v1",
        metadata={"input_sha256": "0f"},
        columns=("k", "zero", "nan", "one_nan"),
        rows=[(k, zero, other, nan) for k, (zero, other) in enumerate(zip(zeros, nans))],
    )
    csv_text, json_text = _reference_documents(table)
    assert cli.render_csv(table) == csv_text
    assert cli.render_json(table) == json_text
    assert [row.split(",")[1] for row in table.row_text] == ["0.0", "-0.0", "0", "0.0", "-0.0"]


def test_renderers_keep_every_cell_of_rows_that_differ_in_width():
    shared = 0.5
    for rows in ([(1, shared, 2.0), (2, shared), (3, shared, 4.0, 5.0)],
                 [(1, shared), (2, shared, 3.0)],
                 [(1, shared, 2.0, 7.0), (2, shared, 3.0)]):
        table = cli.ConvergenceTable(schema="qflow.t.v1", metadata={"input_sha256": "0f"},
                                     columns=("a", "b", "c"), rows=rows)
        csv_text, json_text = _reference_documents(table)
        assert cli.render_csv(table) == csv_text
        assert cli.render_json(table) == json_text


def test_cmd_jko_formats_its_mean_once():
    # the mean fills the mu column: across both documents, rendered twice
    # each, its repr runs once for the metadata (the input hash and both
    # headers) and once for the whole column
    mu0 = _CountedFloat(0.5)
    table = cli.cmd_jko(0.8, 1.0, mu0, 0.01, 50)
    assert all(row[1] is mu0 for row in table.rows)
    plain = cli.cmd_jko(0.8, 1.0, 0.5, 0.01, 50)
    for fmt in ("csv", "json") * 2:
        assert cli.render(table, fmt) == cli.render(plain, fmt)
    assert mu0.calls == 1 + 1


def test_const_dump(capsys):
    assert cli.main(["const", "--q", "0.8", "--d", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("const.v1.schema.json"))
    p = make_params(0.8, 1)
    assert doc["C"] == p.C
    assert doc["c0_q_d"] == p.c0_q_d
    assert doc["m"] == p.m
    assert cli.main(["const", "--q", "2.0", "--d", "1"]) == 2


def test_verify_all_passes(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("verify.v1.schema.json"))
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == sum(len(fns) for fns in checks.CHECKS.values())
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))
    for c in doc["checks"]:
        assert c["passed"] is True
        assert math.isfinite(c["measured"])


def test_verify_scope_filtering(capsys):
    assert cli.main(["verify", "--scope", "qmath"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scope"] == "qmath"
    assert doc["checks"]
    assert all(c["scope"] == "qmath" for c in doc["checks"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--scope", "everything"])
    assert exc.value.code == 2


def test_verify_pme_flow_scope(capsys):
    assert "pme_flow" in cli.VERIFY_SCOPES
    assert cli.main(["verify", "--scope", "pme_flow"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("verify.v1.schema.json"))
    assert doc["scope"] == "pme_flow"
    assert [c["name"] for c in doc["checks"]] == [
        "semigroup-composition", "self-similar-family-match", "pde-moment-identity",
        "flow-mass-conservation",
    ]
    assert all(c["scope"] == "pme_flow" for c in doc["checks"])


def test_verify_catches_injected_constant_fault(monkeypatch):
    p = make_params(0.8, 1)
    bad = dataclasses.replace(p, c0_q_d=p.c0_q_d * (1.0 + 1e-3))

    def constant_identity():
        return {r.name: r for r in cli.run_checks("qmath")}["constant-identity"]

    # constant-identity measured with the constants of one q tampered
    monkeypatch.setattr(checks, "make_params", lambda q, d: bad if q == p.q else make_params(q, d))
    fault = constant_identity()
    assert not fault.passed
    assert fault.measured > fault.tolerance
    # the untampered pipeline passes the same check
    monkeypatch.undo()
    assert constant_identity().passed


def test_verify_catches_injected_flow_fault(monkeypatch):
    def moment_identity():
        return {r.name: r for r in cli.run_checks("pme_flow")}["pde-moment-identity"]

    assert moment_identity().passed
    growth = pme_flow._relative_growth
    # a relative fault of 1e-6 in the flow's growth moves the row by 1e-6,
    # a hundred times its tolerance
    monkeypatch.setattr(pme_flow, "_relative_growth", lambda s0, h, q: growth(s0, h, q) * (1.0 + 1e-6))
    fault = moment_identity()
    assert not fault.passed
    assert fault.measured > fault.tolerance


def test_verify_catches_injected_jko_fault(monkeypatch):
    def jko_row():
        return {r.name: r for r in cli.run_checks("functionals")}["jko-minimizes-kh"]

    assert jko_row().passed
    scales = functionals._jko_scales

    def off_increment(sigma0, h, q, steps):
        # jko_step's one step, its increment off by 1e-6 relative, ten times the row's tolerance
        (sigma,) = scales(sigma0, h, q, steps)
        yield sigma + (sigma - sigma0) * 1e-6

    monkeypatch.setattr(functionals, "_jko_scales", off_increment)
    fault = jko_row()
    assert not fault.passed
    assert fault.measured > fault.tolerance


def test_verify_catches_a_wrong_coupling_root(monkeypatch):
    def eta_residual():
        return {r.name: r for r in cli.run_checks("functionals")}["eta-equation-residual"]

    assert eta_residual().passed
    solve = functionals._solve_eta_gap

    def off_root(sigma, sigma0, gap, q, num):
        delta, rhs, evals = solve(sigma, sigma0, gap, q, num)
        return delta * (1.0 + 1e-9), rhs, evals

    monkeypatch.setattr(functionals, "_solve_eta_gap", off_root)
    fault = eta_residual()
    assert not fault.passed
    assert fault.measured > fault.tolerance


def test_run_checks_runs_only_the_requested_scope(monkeypatch):
    def broken():
        raise AssertionError("a qgaussian check ran")

    patched = (checks.Check("broken", 0.0, "", broken),) + checks.CHECKS["qgaussian"][1:]
    monkeypatch.setitem(checks.CHECKS, "qgaussian", patched)
    results = cli.run_checks("qmath")
    assert [r.scope for r in results] == ["qmath"] * len(checks.CHECKS["qmath"])
    assert all(r.passed for r in results)
    with pytest.raises(AssertionError, match="a qgaussian check ran"):
        cli.run_checks("all")


def test_nan_measurement_fails_its_check(monkeypatch):
    def nan_mass(g, cfg=None):
        return oracle.QuadResult(value=math.nan, error_estimate=0.0, converged=True, note="")

    monkeypatch.setattr(oracle, "mass_quad", nan_mass)
    mass = {r.name: r for r in cli.run_checks("qgaussian")}["mass-quadrature"]
    assert mass.passed is False
    assert math.isnan(mass.measured)
    assert cli.main(["verify", "--scope", "qgaussian"]) == 1


def test_run_checks_rejects_unknown_scope():
    with pytest.raises(DomainError):
        cli.run_checks(scope="nonsense")


def test_run_config_validation():
    with pytest.raises(DomainError):
        cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_start=1e-6, h_stop=1e-1)
    with pytest.raises(DomainError):
        cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_points=1)
    grid = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4).h_grid()
    assert len(grid) == 11
    assert grid[0] == pytest.approx(1e-1) and grid[-1] == pytest.approx(1e-6)
    ratios = [grid[i] / grid[i + 1] for i in range(10)]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


@pytest.mark.parametrize(
    "h_start, h_stop, n",
    [(1e250, 1e-100, 3), (1e10, 1e-300, 3), (1e300, 1e-300, 7), (_DBL_MAX, 1e-300, 41),
     (1e-5, 1e-320, 11), (1e308, 5e-324, 23)],
)
def test_h_grid_where_the_end_ratio_is_not_a_normal_double(h_start, h_stop, n):
    # h_stop/h_start underflows or is subnormal, so the points are formed in base-2 logs
    assert not h_stop / h_start >= sys.float_info.min
    cfg = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4,
                        h_start=h_start, h_stop=h_stop, h_points=n)
    grid = cfg.h_grid()
    assert len(grid) == n and grid[0] == h_start and grid[-1] == h_stop
    assert all(h > 0.0 for h in grid)
    with mpmath.workdps(50):
        for k, h in enumerate(grid):
            t = mpmath.mpf(k) / (n - 1)
            exact = mpmath.mpf(h_start) * (mpmath.mpf(h_stop) / h_start) ** t
            # a subnormal point holds fewer digits: within half its spacing of 5e-324
            assert abs(h - exact) <= max(1e-13 * exact, 2.5e-324)


def test_integer_inputs_reject_bools_and_floats():
    # True and 1.0 compare equal to 1, but a document built from them would
    # fail its schema ("integer") or hash to another input_sha256
    cfg = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_points=4)
    calls = {
        "statement": lambda v: cli.cmd_gamma(v, cfg),
        "steps": lambda v: cli.cmd_jko(0.8, 1.0, 0.0, 0.01, v),
        "d": lambda v: cli.cmd_const(0.8, v),
        "h_points": lambda v: cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_points=v),
    }
    for name, call in calls.items():
        for value in (True, 2.0, 2.5, "2", None):
            with pytest.raises(DomainError, match=rf"{name}.*, got {re.escape(repr(value))}$"):
                call(value)
        call(2)
    with pytest.raises(DomainError, match="d must be a positive integer, got True"):
        make_params(0.8, True)
