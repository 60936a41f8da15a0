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

The gamma and jko tables each read a step kernel of ``qflow.functionals``
that yields one step at a time, and form each row, in order, as its step
arrives, so a table that cannot be formed raises the error of its first
failing row.  The rescalings' row algebra is the row functions of
``functionals``, which StepPair calls too.

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
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import is_
from typing import Sequence

from .functionals import (
    _entropy_b, _first, _jko_scales, _second, _step_terms, _ThirdRows, entropy_diff,
    wasserstein2_sq,
)
from .pme_flow import _relative_growth, evolve_sigma
from .qgaussian import QGaussian1D
from .qmath import _DBL_MIN, DomainError, _require_int, make_params

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
        _require_int(self.h_points, 2, "h_points must be an int >= 2")

    def h_grid(self) -> list[float]:
        """h_start (h_stop/h_start)^(k/(n-1)) for k = 0, ..., n-1.

        Where the ratio is not a normal double (the ends more than about 308
        decades apart), each point is formed in base-2 logs: with the ends'
        mantissas m0, m1 and exponents e0, e1, the point is m0^(1-t) m1^t
        2^((e1-e0) t) at t = k/(n-1), the integer part of the exponent
        applied exactly.  Both ends are then exact.
        """
        start, stop, n = self.h_start, self.h_stop, self.h_points
        ratio = stop / start
        if ratio >= _DBL_MIN:
            return [start * ratio ** (k / (n - 1)) for k in range(n)]
        (m0, e0), (m1, e1) = math.frexp(start), math.frexp(stop)
        grid = []
        for k in range(n):
            t = k / (n - 1)
            whole, part = divmod((e1 - e0) * k, n - 1)
            grid.append(math.ldexp(m0 ** (1.0 - t) * m1**t * 2.0 ** (part / (n - 1)), e0 + whole))
        return grid


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (h, value, limit, abs_error[, bound_gap]), h descending."""

    schema: str
    metadata: dict
    columns: tuple[str, ...]
    rows: list[tuple]

    @cached_property
    def row_text(self) -> tuple[str, ...]:
        """Each row's cells by repr, comma-joined.

        Formatted on the first render and kept, so the rows must not change
        after it.  Where every row has one width, a column whose cells are
        all one object is formatted once.  That is decided by identity:
        0.0, -0.0 and 0 compare equal but print differently.
        """
        rows = self.rows
        if len(set(map(len, rows))) != 1 or not rows[0]:
            return tuple(",".join(map(repr, row)) for row in rows)
        n = len(rows)
        cols = [
            repeat(repr(col[0]), n) if all(map(is_, col, repeat(col[0]))) else map(repr, col)
            for col in zip(*rows)
        ]
        return tuple(map(",".join, zip(*cols)))

    @cached_property
    def float_text(self) -> dict[str, str]:
        """The repr of each float in the metadata, formatted once for the
        input hash and both headers."""
        return {k: repr(v) for k, v in self.metadata.items() if isinstance(v, float)}


def _table(schema: str, inputs: dict, columns: tuple[str, ...], rows: list) -> ConvergenceTable:
    """The table of one run; metadata is inputs less "command", plus their sha256."""
    metadata = {k: v for k, v in inputs.items() if k != "command"}
    table = ConvergenceTable(schema=schema, metadata=metadata, columns=columns, rows=rows)
    text = table.float_text
    canon = "|".join(f"{k}={text[k] if k in text else repr(v)}" for k, v in inputs.items())
    metadata["input_sha256"] = hashlib.sha256(canon.encode("ascii")).hexdigest()
    return table


def render_csv(table: ConvergenceTable) -> str:
    lines = [f"# schema={table.schema}"]
    text = table.float_text
    for k, v in table.metadata.items():
        lines.append(f"# {k}={text[k] if k in text else v}")
    lines.append(",".join(table.columns))
    lines.extend(table.row_text)
    return "\n".join(lines) + "\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(text: str) -> str:
    """json's text for a float, from its repr text."""
    return _JSON_NONFINITE.get(text, text)


# json's own C pieces for the str and int scalars of a header
_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__}


def _json_value(v) -> str:
    """json.dumps(v, indent=2) for a value at depth 2 of a document, other
    than a float.

    A str or int is written by the C pieces json uses for it; anything else
    goes through json.dumps, its lines indented to depth 2.
    """
    encode = _JSON_SCALAR.get(type(v))
    return encode(v) if encode else json.dumps(v, indent=2).replace("\n", "\n    ")


def render_json(table: ConvergenceTable) -> str:
    """json.dumps(doc, indent=2) + "\\n", byte for byte.

    The header (schema, flat metadata, columns) is built from json's C
    pieces (json's pure-Python indenting encoder costs more than the header
    and leaves its closures in reference cycles).  The metadata's floats
    and the cells are the repr text that the input hash and render_csv
    read, formatted once per table: json writes a finite float by the same
    shortest round-trip repr, and nan, inf and -inf become NaN, Infinity
    and -Infinity.  Rows hold at least one cell.
    """
    key = encode_basestring_ascii
    floats = table.float_text
    meta = ",\n    ".join(
        f"{key(k)}: {_json_float(floats[k]) if k in floats else _json_value(v)}"
        for k, v in table.metadata.items()
    )
    cols = ",\n    ".join(map(key, table.columns))
    text = (
        f'{{\n  "schema": {key(table.schema)},\n  "metadata": '
        + (f"{{\n    {meta}\n  }}" if meta else "{}")
        + ',\n  "columns": '
        + (f"[\n    {cols}\n  ]" if cols else "[]")
        + ',\n  "rows": '
    )
    if not table.rows:
        return text + "[]\n}\n"
    # a cell sits at depth 3 of the document, after a newline and six
    # spaces.  Cells are ints and floats, so an "n" appears only in repr's
    # nan and inf.
    rows = "\n    ],\n    [\n      ".join(row.replace(",", ",\n      ") for row in table.row_text)
    if "n" in rows:
        rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    return text + "[\n    [\n      " + rows + "\n    ]\n  ]\n}\n"


def render(table: ConvergenceTable, fmt: str) -> str:
    return render_csv(table) if fmt == "csv" else render_json(table)


def cmd_gamma(statement: int, cfg: RunConfig) -> ConvergenceTable:
    """Convergence table of one rescaled functional against its limit.

    Statement 1 converges to the squared transport distance, statements 2
    and 3 to the entropy difference; statement 3 (defined for q < 1 only)
    additionally reports its one-sided bound, the gap to statement 2's
    functional, which is nonnegative on the whole grid.

    The steps are one _step_terms call over the h-grid, and the table
    forms each row as its step arrives, with the row functions _first,
    _second and _ThirdRows.row that StepPair.first, second and third call:
    each row is the StepPair(g, g0, h) row of its h, bit for bit.  The
    third rescaling's h-free pieces are formed once per table.  A table that
    cannot be formed raises the error of its first failing row, as that
    row's StepPair raises it.
    """
    _require_int(statement, 1, "statement must be 1, 2 or 3", most=3)
    if statement == 3 and cfg.q > 1.0:
        raise DomainError("statement 3 is one-sided and only defined for q < 1")
    p = make_params(cfg.q, 1)
    g0 = QGaussian1D(mu=cfg.mu0, sigma=cfg.sigma0, params=p)
    g = QGaussian1D(mu=cfg.mu, sigma=cfg.sigma, params=p)

    if statement == 1:
        limit = w2 = wasserstein2_sq(g, g0)
    else:
        limit = entropy_diff(g, g0)
        b = _entropy_b(p, g0.sigma)

    columns = ("h", "value", "limit", "abs_error")
    if statement == 3:
        columns = columns + ("bound_gap",)
        third = _ThirdRows(g, g0, b)

    hs = cfg.h_grid()
    c = p.C
    rows = []
    for h, (x, gap, _, _, fh_q) in zip(hs, _step_terms(g.sigma, g0.sigma, p.q, hs)):
        if statement == 1:
            value = _first(c, w2, gap, fh_q)
        elif statement == 2:
            value = _second(c, b, fh_q)
        else:
            value, second = third.row(h, x, gap, fh_q)
        row = (h, value, limit, abs(value - limit))
        rows.append(row + (value - second,) if statement == 3 else row)

    inputs = {"command": "gamma", "statement": statement, **vars(cfg)}
    return _table(GAMMA_SCHEMA, inputs, columns, rows)


def cmd_jko(q: float, sigma0: float, mu0: float, h: float, steps: int) -> ConvergenceTable:
    """Minimizing-movement trajectory against the exact scale evolution.

    The scales are one _jko_scales call, jko_step's steps on the scale
    alone: the mean stays mu0.  Each row is formed as its step arrives, the
    step before its exact scale, so a table that cannot be formed raises
    the error of its first failing row.
    """
    _require_int(steps, 1, "steps must be an int >= 1")
    p = make_params(q, 1)
    QGaussian1D(mu=mu0, sigma=sigma0, params=p)  # validates mu0 and sigma0
    rows = [(0, mu0, sigma0, sigma0, 0.0)]
    for n, sigma in enumerate(_jko_scales(sigma0, h, p.q, steps), 1):
        t = n * h
        ex = evolve_sigma(sigma0, t, p.q) if t < math.inf else _scale_past_overflow(
            sigma0, n, h, p.q)
        rows.append((n, mu0, sigma, ex, abs(sigma - ex)))

    inputs = {"command": "jko", "q": q, "sigma0": sigma0, "mu0": mu0, "h": h, "steps": steps}
    return _table(JKO_SCHEMA, inputs, ("n", "mu", "sigma", "sigma_exact", "abs_error"), rows)


def _scale_past_overflow(sigma0: float, n: int, h: float, q: float) -> float:
    """The exact scale at time n h, evolve_sigma(sigma0, n h, q), where n h
    overflows to inf.  The growth x_n = n h / sigma0^(3-q) is then past
    2^1024 / sigma0^(3-q) > 1, and the scale comes from its log, log x_n =
    log n + log(h / sigma0^(3-q)), as sigma0 exp(log1p(x_n)/(3-q)) with
    log1p(x_n) = log x_n + log1p(1/x_n)."""
    log_x = math.log(n) + math.log(_relative_growth(sigma0, h, q))
    return math.exp((log_x + math.log1p(math.exp(-log_x))) / (3.0 - q)) * sigma0


def cmd_const(q: float, d: int) -> dict:
    """All derived constants for one (q, d) as a JSON-ready document.

    Raises DomainError where a constant is not finite, which strict JSON
    cannot hold: m = 3 - 2/q below q = 1.1e-308.
    """
    consts = vars(make_params(q, d))
    if not all(math.isfinite(v) for v in consts.values()):
        raise DomainError(f"the constants of q={q!r}, d={d!r} are not all finite")
    return {"schema": CONST_SCHEMA, **consts}


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


def run_checks(scope: str = "all") -> list[CheckResult]:
    """Run the named invariant checks of one scope, or all of them.

    Only the checks of the requested scope run.  Without a target, a row's
    measure yields per-instance errors and the check reports the worst one
    (nan if any error is nan) and passes when it is at most the tolerance;
    ``{n}`` in its detail becomes the instance count.  With a target,
    measure returns one slope, which must lie within the tolerance of the
    target.  A nan measurement fails either way.
    """
    if scope not in VERIFY_SCOPES:
        raise DomainError(f"scope must be one of {VERIFY_SCOPES}, got {scope!r}")
    from . import checks

    results = []
    for check_scope, rows in checks.CHECKS.items():
        if scope not in ("all", check_scope):
            continue
        for row in rows:
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
