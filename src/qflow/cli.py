"""Command-line driver for deterministic experiment tables.

Subcommands:

* ``gamma``: evaluates one of the three rescaled step functionals on a
  geometric grid of step sizes h, against its small-h limit (the squared
  transport distance for statement 1, the entropy difference for
  statements 2 and 3).  Statement 3 carries its one-sided bound as an
  extra column and is only defined for q < 1.
* ``jko``: runs the minimizing-movement recursion and tabulates it
  against the exact scale evolution at the same times.
* ``verify``: runs the named invariant checks (closed forms against the
  quadrature oracle, constant identities, convergence orders) and emits a
  machine-readable report; exit code 0 only if every check passes.  A
  check is one measure function plus one row of the check table; a nan
  measurement fails its check.
* ``const``: dumps the constants pipeline for one (q, d) as JSON.

Output is byte-deterministic: no timestamps, floats rendered by repr
(shortest round-trip form, locale-independent), and a sha256 over the
defining inputs embedded as metadata.  CSV carries its schema name on the
first line; JSON documents validate against the schema files shipped in
the repository's ``schemas/`` directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .functionals import (
    StepPair,
    entropy_diff,
    f_h,
    jh,
    jko_step,
    rescaled_first,
    rescaled_second,
    solve_eta,
    wasserstein2_sq,
)
from .pme_flow import barenblatt_density, evolve_sigma, pde_residual, theta_map_1d
from .qgaussian import QGaussian1D, m_rel_entropy_closed, make_bivariate
from .qmath import DomainError, QParams, make_params, q_exp, q_log

GAMMA_SCHEMA = "qflow.gamma.v1"
JKO_SCHEMA = "qflow.jko.v1"
VERIFY_SCHEMA = "qflow.verify.v1"
CONST_SCHEMA = "qflow.const.v1"


@dataclass(frozen=True)
class RunConfig:
    """Inputs of a table-producing run.

    The h-grid is geometric from h_start down to h_stop (both inclusive),
    strictly positive and decreasing.
    """

    q: float
    sigma0: float
    mu0: float
    mu: float
    sigma: float
    h_start: float = 1e-1
    h_stop: float = 1e-6
    h_points: int = 11

    def __post_init__(self) -> None:
        if not (self.h_start > self.h_stop > 0.0):
            raise DomainError(
                f"h grid must be strictly positive and decreasing, got "
                f"{self.h_start!r}:{self.h_stop!r}"
            )
        if self.h_points < 2:
            raise DomainError(f"h grid needs at least 2 points, got {self.h_points!r}")

    def h_grid(self) -> list[float]:
        ratio = self.h_stop / self.h_start
        n = self.h_points
        return [self.h_start * ratio ** (k / (n - 1)) for k in range(n)]


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (h, value, limit, abs_error[, bound_gap]), h descending."""

    schema: str
    metadata: dict
    columns: tuple[str, ...]
    rows: list[tuple]


def _input_hash(parts: dict) -> str:
    canon = "|".join(f"{k}={parts[k]!r}" for k in parts)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def render_csv(table: ConvergenceTable) -> str:
    lines = [f"# schema={table.schema}"]
    for k, v in table.metadata.items():
        lines.append(f"# {k}={v!r}" if isinstance(v, float) else f"# {k}={v}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


# a row cell sits at depth 3 of the document, so json.dumps(indent=2) puts
# it after a newline and six spaces
_encode_rows = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def render_json(table: ConvergenceTable) -> str:
    """json.dumps(doc, indent=2) + "\\n", byte for byte.

    Rows hold at least one cell.
    """
    doc = {
        "schema": table.schema,
        "metadata": table.metadata,
        "columns": list(table.columns),
        "rows": [],
    }
    text = json.dumps(doc, indent=2)
    if table.rows:
        # any indent sends every cell through json's pure-Python encoder,
        # which dominates a long table.  The rows go through the C encoder
        # instead, with the cell break as item separator; only the breaks
        # between rows need their brackets re-indented.  Cells are numbers,
        # so "],\n      [" occurs nowhere else.
        rows = _encode_rows(table.rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
        text = text[: -len("[]\n}")] + "[\n    [\n      " + rows + "\n    ]\n  ]\n}"
    return text + "\n"


def render(table: ConvergenceTable, fmt: str) -> str:
    return render_csv(table) if fmt == "csv" else render_json(table)


def cmd_gamma(statement: int, cfg: RunConfig) -> ConvergenceTable:
    """Convergence table of one rescaled functional against its limit.

    Statement 1 converges to the squared transport distance, statements 2
    and 3 to the entropy difference; statement 3 (defined for q < 1 only)
    additionally reports its one-sided bound, the gap to statement 2's
    functional, which is nonnegative on the whole grid.
    """
    if statement not in (1, 2, 3):
        raise DomainError(f"statement must be 1, 2 or 3, got {statement!r}")
    if statement == 3 and cfg.q > 1.0:
        raise DomainError("statement 3 is one-sided and only defined for q < 1")
    p = make_params(cfg.q, 1)
    g0 = QGaussian1D(mu=cfg.mu0, sigma=cfg.sigma0, params=p)
    g = QGaussian1D(mu=cfg.mu, sigma=cfg.sigma, params=p)

    if statement == 1:
        functional: Callable[[StepPair], float] = StepPair.first
        limit = wasserstein2_sq(g, g0)
    else:
        functional = StepPair.second if statement == 2 else StepPair.third
        limit = entropy_diff(g, g0)

    columns = ("h", "value", "limit", "abs_error")
    if statement == 3:
        columns = columns + ("bound_gap",)

    rows = []
    for h in cfg.h_grid():
        step = StepPair(g, g0, h)
        value = functional(step)
        row = (h, value, limit, abs(value - limit))
        if statement == 3:
            row = row + (value - step.second(),)
        rows.append(row)

    inputs = {
        "command": "gamma",
        "statement": statement,
        "q": cfg.q,
        "sigma0": cfg.sigma0,
        "mu0": cfg.mu0,
        "mu": cfg.mu,
        "sigma": cfg.sigma,
        "h_start": cfg.h_start,
        "h_stop": cfg.h_stop,
        "h_points": cfg.h_points,
    }
    metadata = {k: v for k, v in inputs.items() if k != "command"}
    metadata["input_sha256"] = _input_hash(inputs)
    return ConvergenceTable(schema=GAMMA_SCHEMA, metadata=metadata, columns=columns, rows=rows)


def cmd_jko(q: float, sigma0: float, mu0: float, h: float, steps: int) -> ConvergenceTable:
    """Minimizing-movement trajectory against the exact scale evolution."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    p = make_params(q, 1)
    g = QGaussian1D(mu=mu0, sigma=sigma0, params=p)
    rows = [(0, g.mu, g.sigma, sigma0, 0.0)]
    for n in range(1, steps + 1):
        g = jko_step(g, h)
        exact = evolve_sigma(sigma0, n * h, q)
        rows.append((n, g.mu, g.sigma, exact, abs(g.sigma - exact)))

    inputs = {
        "command": "jko",
        "q": q,
        "sigma0": sigma0,
        "mu0": mu0,
        "h": h,
        "steps": steps,
    }
    metadata = {k: v for k, v in inputs.items() if k != "command"}
    metadata["input_sha256"] = _input_hash(inputs)
    return ConvergenceTable(
        schema=JKO_SCHEMA,
        metadata=metadata,
        columns=("n", "mu", "sigma", "sigma_exact", "abs_error"),
        rows=rows,
    )


def cmd_const(q: float, d: int) -> dict:
    """All derived constants for one (q, d) as a JSON-ready document."""
    p = make_params(q, d)
    return {
        "schema": CONST_SCHEMA,
        "q": p.q,
        "d": p.d,
        "m": p.m,
        "alpha": p.alpha,
        "c1_q_d": p.c1_q_d,
        "c0_q_d": p.c0_q_d,
        "A": p.A,
        "B": p.B,
        "C": p.C,
    }


# ---------------------------------------------------------------------------
# Named verification checks (the `verify` subcommand).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


Check = Callable[[str, Sequence[QParams] | None], CheckResult]


def _check(
    name: str, tolerance: float, detail: str, measure: Callable, target: float | None = None
) -> Check:
    """One row of the check table as a (scope, params) -> CheckResult callable.

    Without a target, measure yields per-instance errors and the check
    reports the worst one (nan if any error is nan) and passes when it is
    at most the tolerance; ``{n}`` in detail becomes the instance count.
    With a target, measure returns one slope, which must lie within the
    tolerance of the target.  A nan measurement fails either way.  params
    is handed to measure only when given (the constant-identity seam).
    """

    def run(scope: str, params: Sequence[QParams] | None) -> CheckResult:
        values = measure() if params is None else measure(params)
        if target is None:
            errs = list(values)
            measured = math.nan if any(map(math.isnan, errs)) else max(errs, default=0.0)
            passed = measured <= tolerance
            text = detail.format(n=len(errs))
        else:
            measured = values
            passed = target - tolerance <= measured <= target + tolerance
            text = detail
        return CheckResult(
            name=name, scope=scope, passed=passed, measured=measured, tolerance=tolerance, detail=text
        )

    return run


def _loglog_slope(hs: Sequence[float], errs: Sequence[float]) -> float:
    lh = np.log(np.asarray(hs))
    le = np.log(np.asarray(errs))
    return float(np.polyfit(lh, le, 1)[0])


def _roundtrip_errors():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        q = float(rng.uniform(0.05, 1.6))
        if abs(q - 1.0) < 1e-3:
            continue
        t = float(rng.uniform(0.05, 20.0))
        yield abs(q_exp(q_log(t, q), q) / t - 1.0)


def _product_rule_errors():
    rng = np.random.default_rng(20240818)
    for _ in range(200):
        q = float(rng.uniform(0.05, 1.6))
        x = float(rng.uniform(0.1, 5.0))
        y = float(rng.uniform(0.1, 5.0))
        lhs = q_log(x * y, q)
        rhs = q_log(x, q) + x ** (1.0 - q) * q_log(y, q)
        yield abs(lhs - rhs) / max(1.0, abs(lhs))


def _constant_identity_errors(params: Sequence[QParams] | None = None):
    qs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
    for p in params if params is not None else [make_params(q, 1) for q in qs]:
        q = p.q
        lhs = p.C ** ((3.0 - q) / 2.0)
        rhs = (3.0 - q) * (2.0 - q) * p.c1_q_d * p.c0_q_d ** (1.0 - q)
        yield abs(lhs / rhs - 1.0)


_MOMENT_INSTANCES = [(0.3, 0.8), (0.8, 1.3), (1.2, 0.7), (1.5, 1.1)]


def _mass_errors():
    for q, sigma in _MOMENT_INSTANCES:
        g = QGaussian1D(mu=0.4, sigma=sigma, params=make_params(q, 1))
        yield abs(oracle.mass_quad(g).value - 1.0)


def _variance_errors():
    for q, sigma in _MOMENT_INSTANCES:
        g = QGaussian1D(mu=-0.2, sigma=sigma, params=make_params(q, 1))
        yield abs(oracle.moment2_quad(g).value / g.variance - 1.0)


def _entropy_closed_errors():
    for q, s0, s1 in [(0.8, 1.0, 1.5), (1.2, 0.7, 1.1), (0.5, 0.6, 0.9)]:
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.3, sigma=s0, params=p)
        g1 = QGaussian1D(mu=0.3, sigma=s1, params=p)
        quad = oracle.entropy_quad(g1).value - oracle.entropy_quad(g0).value
        yield abs(quad - entropy_diff(g1, g0))


def _mrel_closed_errors():
    pairs = [
        (make_bivariate(0.0, 0.0, 0.6, 0.5, 0.2, 0.5), make_bivariate(0.1, -0.05, 1.0, 0.9, -0.1, 0.5)),
        (make_bivariate(0.3, 0.1, 0.9, 1.1, 0.25, 4.0 / 3.0), make_bivariate(0.0, 0.0, 1.0, 1.0, 0.0, 4.0 / 3.0)),
    ]
    for f, g in pairs:
        closed = m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
        yield abs(oracle.m_rel_entropy_quad(f, g).value / closed - 1.0)


def _eta_residual_errors():
    for q in (0.5, 0.8, 1.2):
        for h in (1e-1, 1e-4, 1e-8):
            yield abs(solve_eta(1.3, 1.0, evolve_sigma(1.0, h, q), q).residual)


def _jh_zero_errors():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        for h in (1e-1, 1e-3, 1e-5):
            g0 = QGaussian1D(mu=0.2, sigma=1.0, params=p)
            g = QGaussian1D(mu=0.2, sigma=evolve_sigma(1.0, h, q), params=p)
            yield abs(jh(g, g0, h))


def _fh_forms_errors():
    for q in (0.5, 0.8, 1.2):
        p = make_params(q, 1)
        g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
        g = QGaussian1D(mu=0.3, sigma=1.4, params=p)
        for h in (1e-1, 1e-4, 1e-7):
            yield abs(f_h(g, g0, h, form="q") - f_h(g, g0, h, form="m"))


def _rescaled_slope(which: Callable[[QGaussian1D, QGaussian1D, float], float], limit_fn) -> float:
    p = make_params(0.8, 1)
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=p)
    g = QGaussian1D(mu=0.3, sigma=1.4, params=p)
    limit = limit_fn(g, g0)
    hs = [1e-2, 1e-3, 1e-4, 1e-5]
    errs = [abs(which(g, g0, h) - limit) for h in hs]
    return _loglog_slope(hs, errs)


def _jko_grid_errors():
    g0 = QGaussian1D(mu=0.5, sigma=1.0, params=make_params(0.8, 1))
    stepped = jko_step(g0, 0.05)
    yield abs(oracle.minimize_kh_grid(g0, 0.05).sigma - stepped.sigma)


def _semigroup_errors():
    for q in (0.5, 0.8, 1.2, 1.5):
        one = evolve_sigma(0.9, 0.7, q)
        two = evolve_sigma(evolve_sigma(0.9, 0.3, q), 0.4, q)
        yield abs(one / two - 1.0)


def _self_similar_errors():
    for q in (0.8, 1.2):
        p = make_params(q, 1)
        t = 0.7
        g = QGaussian1D(mu=0.0, sigma=math.sqrt(theta_map_1d(t, q)), params=p)
        for x in np.linspace(-2.0, 2.0, 41):
            yield abs(barenblatt_density(t, float(x), p) - g.density(float(x)))


def _residual_slope() -> float:
    g0 = QGaussian1D(mu=0.0, sigma=1.0, params=make_params(0.8, 1))
    dxs = [0.04, 0.02, 0.01]
    return _loglog_slope(dxs, [pde_residual(g0, 0.5, dx, dx * dx) for dx in dxs])


def _flow_mass_errors():
    for q in (0.8, 1.2):
        g = QGaussian1D(mu=0.0, sigma=evolve_sigma(1.0, 0.5, q), params=make_params(q, 1))
        yield abs(oracle.mass_quad(g).value - 1.0)


_SLOPE_DETAIL = "log-log slope of |value - limit| in h, target 1"

_check_constant_identity = _check(
    "constant-identity", 1e-10,
    "C^((3-q)/2) = (3-q)(2-q) C1 C0^(1-q) over {n} parameter sets", _constant_identity_errors,
)

# The check table: scope -> rows of (name, tolerance, detail, measure[, target]).
_CHECKS: dict[str, tuple[Check, ...]] = {
    "qmath": (
        _check("qexp-qlog-roundtrip", 1e-12,
               "exp_q(log_q(t)) over 200 seeded draws", _roundtrip_errors),
        _check("qlog-product-rule", 1e-12,
               "log_q(xy) = log_q x + x^(1-q) log_q y over 200 seeded draws", _product_rule_errors),
        _check_constant_identity,
    ),
    "qgaussian": (
        _check("mass-quadrature", 1e-9,
               "density mass over 4 (q, sigma) instances", _mass_errors),
        _check("variance-quadrature", 1e-7,
               "second moment = C sigma^2 over 4 (q, sigma) instances", _variance_errors),
        _check("entropy-closed-vs-quad", 1e-8,
               "1d entropy difference, closed form vs quadrature, 3 instances", _entropy_closed_errors),
        _check("mrel-closed-vs-quad", 1e-6,
               "relative m-entropy closed form vs quadrature, compact and heavy-tailed",
               _mrel_closed_errors),
    ),
    "functionals": (
        _check("eta-equation-residual", 1e-12,
               "coupling correlation equation over 9 (q, h) instances", _eta_residual_errors),
        _check("jh-zero-at-flow", 1e-10,
               "step functional vanishes on the exact evolution, 6 instances", _jh_zero_errors),
        _check("fh-two-forms", 1e-12,
               "q-form and m-form of the correction agree, 9 instances", _fh_forms_errors),
        _check("rescaled-first-order", 0.1, _SLOPE_DETAIL,
               lambda: _rescaled_slope(rescaled_first, wasserstein2_sq), target=1.0),
        _check("rescaled-second-order", 0.1, _SLOPE_DETAIL,
               lambda: _rescaled_slope(rescaled_second, entropy_diff), target=1.0),
        _check("jko-vs-grid", 1e-5,
               "implicit step agrees with brute-force grid minimizer", _jko_grid_errors),
    ),
    "pme_flow": (
        _check("semigroup-composition", 1e-12,
               "evolving 0.3 then 0.4 equals evolving 0.7, 4 exponents", _semigroup_errors),
        _check("self-similar-family-match", 1e-12,
               "source solution equals the evolving family member pointwise", _self_similar_errors),
        _check("pde-residual-order", 0.2,
               "residual refinement slope in dx, target 2", _residual_slope, target=2.0),
        _check("flow-mass-conservation", 1e-9,
               "evolved density still integrates to 1", _flow_mass_errors),
    ),
}

VERIFY_SCOPES = ("all", *_CHECKS)


def run_checks(
    scope: str = "all", constant_params: Sequence[QParams] | None = None
) -> list[CheckResult]:
    """Run the named invariant checks of one scope, or all of them.

    Only the checks of the requested scope run.  constant_params
    substitutes the parameter sets fed to the constant-identity check; the
    fault-injection tests use it to confirm a perturbed normalization
    constant is caught.
    """
    if scope not in VERIFY_SCOPES:
        raise DomainError(f"scope must be one of {VERIFY_SCOPES}, got {scope!r}")
    return [
        fn(check_scope, constant_params if fn is _check_constant_identity else None)
        for check_scope, fns in _CHECKS.items()
        if scope in ("all", check_scope)
        for fn in fns
    ]


def cmd_verify(scope: str = "all") -> tuple[dict, bool]:
    """Machine-readable verification report and overall pass flag."""
    results = run_checks(scope)
    ok = all(r.passed for r in results)
    report = {
        "schema": VERIFY_SCHEMA,
        "scope": scope,
        "all_passed": ok,
        "checks": [
            {
                "name": r.name,
                "scope": r.scope,
                "passed": r.passed,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    return report, ok


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _h_grid_spec(text: str) -> tuple[float, float, int]:
    try:
        start_s, stop_s, n_s = text.split(":")
        start, stop, n = float(start_s), float(stop_s), int(n_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:N with numeric entries, got {text!r}"
        ) from exc
    if not (start > stop > 0.0):
        raise argparse.ArgumentTypeError("h grid must be strictly positive and decreasing")
    if n < 2:
        raise argparse.ArgumentTypeError("h grid needs at least 2 points")
    return start, stop, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflow",
        description="Deterministic experiment tables for the porous-medium gradient flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="rescaled-functional convergence table")
    p_gamma.add_argument("--statement", type=int, choices=(1, 2, 3), required=True)
    p_gamma.add_argument("--q", type=float, required=True)
    p_gamma.add_argument("--sigma0", type=float, required=True)
    p_gamma.add_argument("--mu0", type=float, required=True)
    p_gamma.add_argument("--mu", type=float, required=True)
    p_gamma.add_argument("--sigma", type=float, required=True)
    p_gamma.add_argument(
        "--h-grid",
        type=_h_grid_spec,
        default=(1e-1, 1e-6, 11),
        metavar="START:STOP:N",
        help="geometric step grid, default 1e-1:1e-6:11",
    )
    p_gamma.add_argument("--format", choices=("csv", "json"), default="csv")
    p_gamma.add_argument("--out", default=None, metavar="PATH")

    p_jko = sub.add_parser("jko", help="minimizing-movement trajectory table")
    p_jko.add_argument("--q", type=float, required=True)
    p_jko.add_argument("--sigma0", type=float, required=True)
    p_jko.add_argument("--mu0", type=float, required=True)
    p_jko.add_argument("--h", type=float, required=True)
    p_jko.add_argument("--steps", type=int, required=True)
    p_jko.add_argument("--format", choices=("csv", "json"), default="csv")
    p_jko.add_argument("--out", default=None, metavar="PATH")

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.add_argument("--scope", choices=VERIFY_SCOPES, default="all")
    p_verify.add_argument("--out", default=None, metavar="PATH")

    p_const = sub.add_parser("const", help="dump the constants pipeline as JSON")
    p_const.add_argument("--q", type=float, required=True)
    p_const.add_argument("--d", type=int, required=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gamma":
            start, stop, n = args.h_grid
            cfg = RunConfig(
                q=args.q,
                sigma0=args.sigma0,
                mu0=args.mu0,
                mu=args.mu,
                sigma=args.sigma,
                h_start=start,
                h_stop=stop,
                h_points=n,
            )
            table = cmd_gamma(args.statement, cfg)
            _emit(render(table, args.format), args.out)
            return 0
        if args.command == "jko":
            table = cmd_jko(args.q, args.sigma0, args.mu0, args.h, args.steps)
            _emit(render(table, args.format), args.out)
            return 0
        if args.command == "verify":
            report, ok = cmd_verify(args.scope)
            _emit(json.dumps(report, indent=2) + "\n", args.out)
            return 0 if ok else 1
        if args.command == "const":
            _emit(json.dumps(cmd_const(args.q, args.d), indent=2) + "\n", None)
            return 0
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
