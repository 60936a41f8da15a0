import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import checks, cli, functionals, oracle
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
    ],
    ids=["gamma-sigma0-1e300", "gamma-sigma0-1e-300", "jko-sigma0-1e300", "gamma-sigma-1e-300",
         "jko-q0.8-sigma0-1e-300", "jko-q1.2-sigma0-1e-300", "jko-q1.2-sigma0-1e300",
         "jko-q1.6-sigma0-1e300", "gamma-w2-overflow", "gamma-eta-rhs-overflow",
         "gamma-third-den-underflow", "gamma-gap-overflow"],
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
    calls = {"_f_h_from_delta": 0, "_entropy_b": 0}
    for name in calls:
        orig = getattr(functionals, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(functionals, name, counted)
    cfg = cli.RunConfig(q=0.8, sigma0=1.0, mu0=0.0, mu=0.3, sigma=1.4, h_points=4)
    cli.cmd_gamma(3, cfg)
    # entropy_diff's limit reads b once more
    assert calls == {"_f_h_from_delta": 4, "_entropy_b": 5}


def test_table_commands_do_not_import_scipy(tmp_path):
    # scipy serves the quadrature oracle only, which verify alone loads
    code = textwrap.dedent("""
        import sys
        import qflow, qflow.cli
        assert "scipy" not in sys.modules
        out = sys.argv[1]
        assert qflow.cli.main(["gamma", "--statement", "3", "--q", "0.8", "--sigma0", "1",
                               "--mu0", "0", "--mu", "0.3", "--sigma", "1.4", "--out", out]) == 0
        assert qflow.cli.main(["jko", "--q", "1.2", "--sigma0", "1", "--mu0", "0",
                               "--h", "0.01", "--steps", "3", "--out", out]) == 0
        assert qflow.cli.main(["const", "--q", "0.8", "--d", "1"]) == 0
        assert "scipy" not in sys.modules
    """)
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "table")],
        capture_output=True, text=True, timeout=120,
    )
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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(q=_Q, d=st.integers(min_value=1, max_value=10**6))
def test_const_large_d_exit_codes(q, d):
    # a document of positive finite constants (0) or a domain error (2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["const", _opt("q", q), _opt("d", d)])
    assert code in (0, 2)
    if code == 0:
        doc = json.loads(out.getvalue())
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
        (0.5, 1.0, 1e307, 30, 20),  # sigma^(3-q) overflows at step 21
        (1.6, 1.0, 1e307, 30, 19),
    ],
)
def test_cmd_jko_raises_where_jko_step_raises(q, sigma0, h, steps, raising_step):
    g = QGaussian1D(mu=0.5, sigma=sigma0, params=make_params(q, 1))
    for _ in range(raising_step):
        g = functionals.jko_step(g, h)
    with pytest.raises(DomainError):
        functionals.jko_step(g, h)
    with pytest.raises(DomainError):
        cli.cmd_jko(q, sigma0, 0.5, h, steps)


_CELLS = st.one_of(
    st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=12))
    metadata = {"q": 0.8, "steps": 3, "input_sha256": "0f"}
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
        "semigroup-composition", "self-similar-family-match", "pde-residual-order",
        "flow-mass-conservation",
    ]
    assert all(c["scope"] == "pme_flow" for c in doc["checks"])


def test_verify_catches_injected_constant_fault():
    p = make_params(0.8, 1)
    bad = dataclasses.replace(p, c0_q_d=p.c0_q_d * (1.0 + 1e-3))
    results = cli.run_checks(scope="qmath", constant_params=[bad])
    by_name = {r.name: r for r in results}
    fault = by_name["constant-identity"]
    assert not fault.passed
    assert fault.measured > fault.tolerance
    # the untampered pipeline passes the same check
    clean = cli.run_checks(scope="qmath", constant_params=[p])
    assert {r.name: r for r in clean}["constant-identity"].passed


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
