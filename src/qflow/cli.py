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
  machine-readable report; exit code 0 only if every check passes.  The
  checks are the data rows of ``qflow.checks``, imported only when verify
  runs; run_checks is the one runner that measures and judges them.
* ``const``: dumps the constants pipeline for one (q, d) as JSON.

Output is byte-deterministic: no timestamps, floats rendered by repr
(shortest round-trip form, locale-independent), and a sha256 over the
defining inputs embedded as metadata.  Every document is built from the
dataclass it reports.  CSV carries its schema name on the first line;
JSON documents validate against the schema files shipped in the
repository's ``schemas/`` directory.  Exit codes: 0 success, 1 a verify
check failed, 2 an input outside the domain or an unwritable output path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .functionals import StepPair, _jko_sigma, entropy_diff, wasserstein2_sq
from .pme_flow import evolve_sigma
from .qgaussian import QGaussian1D
from .qmath import DomainError, QParams, make_params

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


def _table(schema: str, inputs: dict, columns: tuple[str, ...], rows: list) -> ConvergenceTable:
    """The table of one run; metadata is inputs less "command", plus their sha256."""
    canon = "|".join(f"{k}={v!r}" for k, v in inputs.items())
    metadata = {k: v for k, v in inputs.items() if k != "command"}
    metadata["input_sha256"] = hashlib.sha256(canon.encode("ascii")).hexdigest()
    return ConvergenceTable(schema=schema, metadata=metadata, columns=columns, rows=rows)


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

    inputs = {"command": "gamma", "statement": statement, **vars(cfg)}
    return _table(GAMMA_SCHEMA, inputs, columns, rows)


def cmd_jko(q: float, sigma0: float, mu0: float, h: float, steps: int) -> ConvergenceTable:
    """Minimizing-movement trajectory against the exact scale evolution."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    p = make_params(q, 1)
    QGaussian1D(mu=mu0, sigma=sigma0, params=p)  # validates mu0 and sigma0
    # each step is jko_step's, on the scale alone: the mean stays mu0
    rows = [(0, mu0, sigma0, sigma0, 0.0)]
    sigma = sigma0
    for n in range(1, steps + 1):
        sigma = _jko_sigma(sigma, h, p.q)
        exact = evolve_sigma(sigma0, n * h, q)
        rows.append((n, mu0, sigma, exact, abs(sigma - exact)))

    inputs = {"command": "jko", "q": q, "sigma0": sigma0, "mu0": mu0, "h": h, "steps": steps}
    return _table(JKO_SCHEMA, inputs, ("n", "mu", "sigma", "sigma_exact", "abs_error"), rows)


def cmd_const(q: float, d: int) -> dict:
    """All derived constants for one (q, d) as a JSON-ready document."""
    return {"schema": CONST_SCHEMA, **vars(make_params(q, d))}


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


# the scopes of checks.CHECKS; a literal, so that parsing verify's options
# does not load the check table
VERIFY_SCOPES = ("all", "qmath", "qgaussian", "functionals", "pme_flow")


def run_checks(
    scope: str = "all", constant_params: Sequence[QParams] | None = None
) -> list[CheckResult]:
    """Run the named invariant checks of one scope, or all of them.

    Only the checks of the requested scope run.  Without a target, a row's
    measure yields per-instance errors and the check reports the worst one
    (nan if any error is nan) and passes when it is at most the tolerance;
    ``{n}`` in its detail becomes the instance count.  With a target,
    measure returns one slope, which must lie within the tolerance of the
    target.  A nan measurement fails either way.  constant_params
    substitutes the parameter sets fed to the constant-identity check; the
    fault-injection tests use it to confirm a perturbed normalization
    constant is caught.
    """
    if scope not in VERIFY_SCOPES:
        raise DomainError(f"scope must be one of {VERIFY_SCOPES}, got {scope!r}")
    from . import checks

    results = []
    for check_scope, rows in checks.CHECKS.items():
        if scope not in ("all", check_scope):
            continue
        for row in rows:
            if row.name == "constant-identity":
                values = row.measure(constant_params)
            else:
                values = row.measure()
            if row.target is None:
                errs = list(values)
                measured = math.nan if any(map(math.isnan, errs)) else max(errs, default=0.0)
                passed = measured <= row.tolerance
                detail = row.detail.format(n=len(errs))
            else:
                measured = values
                passed = row.target - row.tolerance <= measured <= row.target + row.tolerance
                detail = row.detail
            results.append(CheckResult(
                name=row.name, scope=check_scope, passed=passed, measured=measured,
                tolerance=row.tolerance, detail=detail,
            ))
    return results


def cmd_verify(scope: str = "all") -> tuple[dict, bool]:
    """Machine-readable verification report and overall pass flag."""
    results = run_checks(scope)
    ok = all(r.passed for r in results)
    report = {
        "schema": VERIFY_SCHEMA,
        "scope": scope,
        "all_passed": ok,
        "checks": [dict(vars(r)) for r in results],
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
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
