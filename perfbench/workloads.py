"""The four seeded workloads, their per-op correctness checks and the
layer table the traced run wraps.

Inputs come from random.Random(seed) in op order, so one seed gives one
op sequence.  A run's design is its first `period` ops (whole cycles of
the op mix); longer runs repeat it, so the ops checked, and which of
them fail, depend on the seed alone.  Ops call the library through
module attributes at call time (cli.cmd_gamma, not a name bound here),
so the tracer's wrappers are what they reach.  The checks recompute
nothing with the algebra under test: table checks use elementary
bounds, cross-checks compare the two library paths, and the bivariate
pairs for the compact band are nested by construction, not by
oracle.support_included.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from qflow import cli, functionals, oracle, pme_flow, qgaussian, qmath

from harness import Op

# Criterion 3's quadrature configuration for the relative m-entropy.
MREL_CFG = oracle.QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
XCHECK_TOL = 1e-6
BOUND_GAP_TOL = -1e-12


# exponents in Q_1 on the compact (lo) and heavy-tailed (hi) branch
Q_BRANCHES = {"lo": (0.1, 0.95), "hi": (1.05, 1.6)}


def _q(rng: random.Random, branch: str) -> float:
    return rng.uniform(*Q_BRANCHES[branch])


def _table_bytes(out) -> bytes:
    return (out[1] + out[2]).encode()


def _render_table(table):
    return table, cli.render_csv(table), cli.render_json(table)


class Workload:
    name = ""
    cycle_len = 1
    min_cycles = 1  # cycles in the design

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    @property
    def period(self) -> int:
        """Distinct ops of a run; every run holds at least one pass."""
        return self.min_cycles * self.cycle_len

    def make_op(self, i: int) -> Op:
        raise NotImplementedError

    def trace_probes(self) -> list[Op]:
        """Ops the traced run adds after its replay, for per-layer figures
        that are too slow or too erratic for the timed mix."""
        return []

    def prepare_checks(self, root: Path) -> None:
        """Load what the checks need; not part of the timed set-up."""


# ---------------------------------------------------------------------------
# gamma-tables
# ---------------------------------------------------------------------------


def check_gamma(table, statement: int, n_points: int) -> str | None:
    rows = table.rows
    if len(rows) != n_points:
        return f"{len(rows)} rows, expected {n_points}"
    for k, row in enumerate(rows):
        if not all(math.isfinite(x) for x in row):
            return f"row {k} has a non-finite cell: {row!r}"
        if k and not row[0] < rows[k - 1][0]:
            return f"h not strictly decreasing at row {k}"
        if statement == 3 and not row[4] >= BOUND_GAP_TOL:
            return f"bound_gap {row[4]!r} < {BOUND_GAP_TOL} at row {k}"
    return None


class GammaTables(Workload):
    name = "gamma-tables"
    # statement 3 is one-sided and defined for q < 1 only
    KINDS = ((1, "lo"), (1, "hi"), (2, "lo"), (2, "hi"), (3, "lo"))
    cycle_len = len(KINDS)
    min_cycles = 200

    def make_op(self, i: int) -> Op:
        rng = self.rng
        statement, branch = self.KINDS[i % self.cycle_len]
        q = _q(rng, branch)
        sigma0 = rng.uniform(0.5, 2.0)
        ratio = math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.7))
        args = dict(
            q=q,
            sigma0=sigma0,
            mu0=rng.uniform(-1.0, 1.0),
            mu=rng.uniform(-1.0, 1.0),
            sigma=sigma0 * ratio,
            h_start=10.0 ** rng.uniform(-3.0, -1.0),
            h_stop=10.0 ** rng.uniform(-8.0, -5.0),
            h_points=rng.randint(11, 41),
        )

        def run():
            return _render_table(cli.cmd_gamma(statement, cli.RunConfig(**args)))

        return Op(
            kind=f"statement-{statement}-{branch}",
            run=run,
            check=lambda out: check_gamma(out[0], statement, args["h_points"]),
            render=_table_bytes,
        )


# ---------------------------------------------------------------------------
# jko-trajectories
# ---------------------------------------------------------------------------


def check_jko(table, q: float, h: float) -> str | None:
    """Every step lies in (sigma, sigma + h sigma^(q-2)/(3-q)].

    The bound uses the shortcut b = sigma^(q-1)/(3-q), not the constants
    pipeline.  The stationarity equation puts the increment above
    lo = (h/(3-q)) (sigma + hi)^(q-2); when sigma + lo rounds to sigma the
    correctly rounded step is sigma itself, so a strict increase is
    required only where lo is representable at sigma's precision.
    """
    sig = [row[2] for row in table.rows]
    for n in range(1, len(sig)):
        prev, cur = sig[n - 1], sig[n]
        if not math.isfinite(cur):
            return f"step {n}: sigma {cur!r} not finite"
        hi = h * prev ** (q - 2.0) / (3.0 - q)
        lo = h * (prev + hi) ** (q - 2.0) / (3.0 - q)
        if cur > prev + hi:
            return f"step {n}: sigma {cur!r} above the bound {prev + hi!r}"
        if prev + lo > prev and not cur > prev:
            return f"step {n}: sigma unchanged at {prev!r} (step lost)"
        if cur < prev:
            return f"step {n}: sigma decreased from {prev!r} to {cur!r}"
    return None


# log10 h of the documented edges of the jko h range
JKO_EDGES = {"edge-small-h": (-300.0, -10.0), "edge-large-h": (3.0, 200.0)}
# Which edge draws fail depends erratically on q, sigma0 and the bits of
# h, so the edge draws come from this fixed seed: every --seed then
# meets the same defects and reports the same failed count.
JKO_EDGE_SEED = "jko-edge-draws"


class JkoTrajectories(Workload):
    name = "jko-trajectories"
    # one op in eight sits at an edge of the documented h range, small
    # (slot 7) and large (slot 15)
    cycle_len = 16
    EDGE_SLOTS = (7, 15)
    min_cycles = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.edges = self.edge_draws(self.min_cycles)

    @staticmethod
    def edge_draws(n: int) -> list[tuple]:
        """n (kind, q, sigma0, mu0, h, steps) draws per edge, interleaved.

        log10 h is stratified over each edge range and q alternates
        between the two branches of Q_1 from stratum to stratum.
        """
        rng = random.Random(JKO_EDGE_SEED)
        out = []
        for k in range(n):
            for kind, (lo, hi) in JKO_EDGES.items():
                q = _q(rng, ("lo", "hi")[k % 2])
                log_h = lo + (hi - lo) * (k + rng.random()) / n
                out.append((kind, q, rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                            10.0 ** log_h, rng.randint(200, 400)))
        return out

    def make_op(self, i: int) -> Op:
        cycle, slot = divmod(i, self.cycle_len)
        if slot in self.EDGE_SLOTS:
            edge = len(self.EDGE_SLOTS) * cycle + self.EDGE_SLOTS.index(slot)
            kind, q, sigma0, mu0, h, steps = self.edges[edge]
        else:
            rng = self.rng
            kind = "interior"
            q = _q(rng, "lo" if slot % 2 else "hi")
            sigma0 = rng.uniform(0.5, 2.0)
            mu0 = rng.uniform(-1.0, 1.0)
            steps = rng.randint(200, 400)
            h = 10.0 ** rng.uniform(-6.0, -1.0)

        def run():
            return _render_table(cli.cmd_jko(q, sigma0, mu0, h, steps))

        return Op(
            kind=kind,
            run=run,
            check=lambda out: check_jko(out[0], q, h),
            render=_table_bytes,
            edge=kind != "interior",
        )


# ---------------------------------------------------------------------------
# oracle-xcheck
# ---------------------------------------------------------------------------

# m centres of the relative-entropy bands; draws stay within +-0.005
MREL_BANDS = {"band-lt1": 0.5, "band-1.15": 1.15, "band-1.3": 1.3, "band-1.45": 1.45}
# the 2D entropy difference runs on the bands where it converges; at
# m = 1.45 it is off by about 5e-3, unconverged, after 4-8 s per pair
ENT2D_BANDS = {"band-lt1": 0.5, "band-1.15": 1.15, "band-1.3": 1.3}
PROBE_BAND = "band-1.45"
# wall-clock cap on one probe op; a probe that hits it counts as failed
PROBE_TIMEOUT_S = 40.0
ONE_D_OPS = 12


def _rel_err(quad: float, closed: float) -> float:
    return abs(quad / closed - 1.0)


def _support_radius(m: float) -> float:
    """Radius of a bivariate m < 1 support in whitened coordinates.

    R^2 = 2/((1-m) C1(m,2)) with C1(m,2) = 2/(2 + 4(1-m)).
    """
    return math.sqrt((2.0 + 4.0 * (1.0 - m)) / (1.0 - m))


def _nested_pair(u, m: float):
    """Raw (mu1, mu2, s1, s2, theta) of f and g with supp f inside supp g.

    With g's Cholesky factor L and support radius R, z = mu_g + R L w
    maps the unit disk onto supp g.  f gets mean mu_g + R L c and scale
    matrix (L A)(L A)^T, so supp f is the image of c + A(disk), which
    |c| + ||A||_2 < 1 keeps inside the unit disk.
    """
    g = (u.uniform(-0.2, 0.2), u.uniform(-0.2, 0.2),
         u.uniform(0.8, 1.2), u.uniform(0.8, 1.2), u.uniform(-0.5, 0.5))
    _, _, g1, g2, th = g
    l11, l21, l22 = g1, th * g2, g2 * math.sqrt(1.0 - th * th)
    a1, a2 = u.uniform(0.3, 0.6), u.uniform(0.3, 0.6)
    phi = u.uniform(0.0, math.pi)
    c_, s_ = math.cos(phi), math.sin(phi)
    # M = L R(phi) diag(a1, a2)
    m11, m12 = l11 * c_ * a1, -l11 * s_ * a2
    m21, m22 = (l21 * c_ + l22 * s_) * a1, (-l21 * s_ + l22 * c_) * a2
    radius = _support_radius(m)
    off = u.uniform(0.0, 0.9 * (1.0 - max(a1, a2)))
    ang = u.uniform(0.0, 2.0 * math.pi)
    cx, cy = off * math.cos(ang), off * math.sin(ang)
    s1, s2 = math.hypot(m11, m12), math.hypot(m21, m22)
    f = (g[0] + radius * l11 * cx, g[1] + radius * (l21 * cx + l22 * cy),
         s1, s2, (m11 * m21 + m12 * m22) / (s1 * s2))
    return f, g


def _heavy_pair(u):
    """Criterion 3's heavy-tailed pair geometry, raw."""
    f = (u.uniform(-0.3, 0.3), u.uniform(-0.3, 0.3),
         u.uniform(0.7, 1.3), u.uniform(0.7, 1.3), u.uniform(-0.5, 0.5))
    g = (u.uniform(-0.3, 0.3), u.uniform(-0.3, 0.3),
         u.uniform(0.8, 1.2), u.uniform(0.8, 1.2), u.uniform(-0.5, 0.5))
    return f, g


class LatinHypercube:
    """Randomised Latin hypercube over n consecutive draws.

    Draw j takes its k-th coordinate from stratum perms[k][j mod n], at a
    uniform place inside it, so every n draws cover each coordinate's
    range evenly.  Costs that depend on the inputs then average the same
    way on every seed, while the seed still moves every input.
    """

    DIMS = 12

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng, self.n = rng, n
        self.perms = [rng.sample(range(n), n) for _ in range(self.DIMS)]

    def point(self, j: int) -> "_Point":
        return _Point(self, j % self.n)


class _Point:
    def __init__(self, lhs: LatinHypercube, j: int) -> None:
        self.lhs, self.j, self.k = lhs, j, 0

    def uniform(self, a: float, b: float) -> float:
        stratum = self.lhs.perms[self.k][self.j]
        self.k += 1
        return a + (b - a) * (stratum + self.lhs.rng.random()) / self.lhs.n


class OracleXcheck(Workload):
    name = "oracle-xcheck"
    # A cycle runs each 2D kind once and ONE_D_OPS ops of the 1D checks.
    # One 1D op is the six cheap checks (mass, second moment, entropy
    # difference on both q branches) at one stratum of q, so its cost is
    # steady; the 1D ops then hold the median and the 2D ones the tail.
    # Inputs come from a Latin hypercube per kind (2D kinds across the
    # min_cycles cycles, 1D ops across a cycle), so every seed sees the
    # same spread of geometries.  The m = 1.45 band takes 4 s to over
    # 45 s per pair on criterion 3's geometry, too erratic for the timed
    # mix, so it runs as a traced probe only.
    KINDS = (
        [f"mrel-{b}" for b in MREL_BANDS if b != PROBE_BAND]
        + [f"ent2d-{b}" for b in ENT2D_BANDS]
        + ["1d"] * ONE_D_OPS
    )
    cycle_len = len(KINDS)
    min_cycles = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.worst: dict[str, float] = {}
        self.designs = {
            kind: LatinHypercube(self.rng, ONE_D_OPS if kind == "1d" else self.min_cycles)
            for kind in dict.fromkeys(self.KINDS)
        }

    def check(self, out) -> str | None:
        for label, quad, closed in out:
            err = _rel_err(quad, closed)
            self.worst[label] = max(self.worst.get(label, 0.0), err)
            if not err <= XCHECK_TOL:
                return f"{label}: |quad/closed - 1| = {err:.3e} > {XCHECK_TOL:g}"
        return None

    def trace_probes(self) -> list[Op]:
        return [self._op(random.Random(f"{self.seed}-{PROBE_BAND}"), f"mrel-{PROBE_BAND}")]

    def make_op(self, i: int) -> Op:
        cycle, slot = divmod(i, self.cycle_len)
        kind = self.KINDS[slot]
        j = slot - self.KINDS.index("1d") if kind == "1d" else cycle
        return self._op(self.designs[kind].point(j), kind)

    def _op(self, u, kind: str) -> Op:
        """u draws the inputs: a Latin hypercube point or a plain Random."""
        family, _, band = kind.partition("-")
        if family == "mrel":
            m = MREL_BANDS[band] + u.uniform(-0.005, 0.005)
            raw = _nested_pair(u, m) if m < 1.0 else _heavy_pair(u)

            def run():
                f, g = (qgaussian.make_bivariate(*r, m) for r in raw)
                quad = oracle.m_rel_entropy_quad(f, g, MREL_CFG).value
                closed = qgaussian.m_rel_entropy_closed(f.mparams, f.mean, f.cov, g.mean, g.cov)
                return [(kind, quad, closed)]
        elif family == "ent2d":
            m = ENT2D_BANDS[band] + u.uniform(-0.005, 0.005)
            shape = [
                (u.uniform(-0.3, 0.3), u.uniform(-0.3, 0.3), u.uniform(lo, hi),
                 u.uniform(lo, hi), u.uniform(-0.5, 0.5))
                for lo, hi in ((0.6, 0.9), (1.1, 1.5))
            ]

            def run():
                a, b = (qgaussian.make_bivariate(*s, m) for s in shape)
                quad = oracle.entropy_quad_2d(a).value - oracle.entropy_quad_2d(b).value
                return [(kind, quad, qgaussian.entropy_diff_closed(a.mparams, a.det_cov, b.det_cov))]
        else:
            draws = []
            for branch, q_range in Q_BRANCHES.items():
                q, sigma = u.uniform(*q_range), u.uniform(0.3, 2.5)
                draws.append((branch, q, u.uniform(-1.0, 1.0), sigma, sigma * u.uniform(1.3, 2.0)))

            def run():
                out = []
                for branch, q, mu, sigma, sigma_b in draws:
                    p = qmath.make_params(q, 1)
                    g = qgaussian.QGaussian1D(mu=mu, sigma=sigma, params=p)
                    g_b = qgaussian.QGaussian1D(mu=mu, sigma=sigma_b, params=p)
                    entropy = oracle.entropy_quad(g_b).value - oracle.entropy_quad(g).value
                    out += [
                        (f"mass-{branch}", oracle.mass_quad(g).value, 1.0),
                        (f"moment2-{branch}", oracle.moment2_quad(g).value, g.variance),
                        (f"entropy-{branch}", entropy, functionals.entropy_diff(g_b, g)),
                    ]
                return out

        return Op(
            kind=kind,
            run=run,
            check=self.check,
            render=lambda out: repr(out).encode(),
            edge=band == PROBE_BAND,
        )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    min_cycles = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scopes = list(cli.VERIFY_SCOPES)
        self.cycle_len = len(self.scopes)
        self.order: list[str] = []
        self.validator = None

    def prepare_checks(self, root: Path) -> None:
        import jsonschema

        schema = json.loads((root / "schemas" / "verify.v1.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, out) -> str | None:
        report, ok, text = out
        if not (ok and report.get("all_passed") is True):
            bad = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
            return f"scope {report.get('scope')!r}: all_passed is false ({', '.join(bad)})"
        errors = sorted(self.validator.iter_errors(json.loads(text)), key=str)
        if errors:
            return f"report violates the verify schema: {errors[0].message}"
        return None

    def make_op(self, i: int) -> Op:
        if i % self.cycle_len == 0:
            self.order = self.rng.sample(self.scopes, len(self.scopes))
        scope = self.order[i % self.cycle_len]

        def run():
            report, ok = cli.cmd_verify(scope)
            return report, ok, json.dumps(report, indent=2) + "\n"

        return Op(kind=scope, run=run, check=self.check, render=lambda out: out[2].encode())


WORKLOADS = {w.name: w for w in (GammaTables, JkoTrajectories, OracleXcheck, Verify)}


# ---------------------------------------------------------------------------
# Layers the traced run wraps
# ---------------------------------------------------------------------------

SPANNED = {
    qmath: ("make_params", "c1_const", "c0_const", "q_log"),
    qgaussian: ("make_bivariate", "m_rel_entropy_closed", "entropy_diff_closed"),
    pme_flow: ("evolve_sigma", "sigma_sq_gap", "pde_residual"),
    functionals: (
        "coefficients", "wasserstein2_sq", "entropy_diff", "jh", "f_h",
        "rescaled_first", "rescaled_second", "rescaled_third", "jko_step",
    ),
    oracle: (
        "mass_quad", "moment2_quad", "entropy_quad", "entropy_quad_2d",
        "m_rel_entropy_quad", "minimize_kh_grid",
    ),
    cli: ("cmd_gamma", "cmd_jko", "cmd_verify", "run_checks", "render_csv", "render_json"),
}


def _label(module, fn_name: str) -> str:
    return f"{module.__name__.rpartition('.')[2]}.{fn_name}"


def install_tracer(tracer) -> None:
    """Wrap every layer function and counter the per-layer metrics read."""
    for module, names in SPANNED.items():
        for fn_name in names:
            tracer.install_span("qflow", module, fn_name, _label(module, fn_name))

    def on_quad_result(t, result):
        converged = getattr(result, "converged", None)
        if converged is not None:
            t.counts["oracle.results"] += 1
            t.counts["oracle.unconverged"] += not converged

    for fn_name in SPANNED[oracle]:
        t_label = _label(oracle, fn_name)
        tracer.post_hooks[t_label] = on_quad_result

    def on_gamma(t, table):
        t.counts["gamma.rows"] += len(getattr(table, "rows", ()))

    def on_verify(t, result):
        t.counts["verify.reported"] += len(result[0].get("checks", ()))

    tracer.post_hooks["cli.cmd_gamma"] = on_gamma
    tracer.post_hooks["cli.cmd_verify"] = on_verify

    def on_brentq(t):
        t.counts["brentq.in_gamma"] += t.active("cli.cmd_gamma")
        t.counts["brentq.in_jko_step"] += t.active("functionals.jko_step")

    tracer.install_count(oracle, "quad", "oracle.quad")
    tracer.install_count(functionals, "brentq", "functionals.brentq", on_brentq)
    tracer.install_count(cli, "CheckResult", "cli.checks_run")
    tracer.install_method_count(qgaussian.QGaussian1D, "density", "qgaussian.density")
    tracer.install_method_count(qgaussian.MBivariate, "density", "qgaussian.density")

    def band_self_time(t, kind, name, own):
        if name == "oracle.m_rel_entropy_quad" and kind.startswith("mrel-"):
            t.self_s[f"oracle.mrel.{kind[5:]}"] += own

    tracer.op_hooks.append(band_self_time)


def per_layer_metrics(tracer, workload: Workload, failed_ratio: float) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name (0 where unused)."""
    out: dict[str, float] = {}
    for module, names in SPANNED.items():
        for fn_name in names:
            label = _label(module, fn_name)
            out[f"{label}.calls"] = tracer.calls[label]
            out[f"{label}.self_s"] = tracer.self_s[label]
    c = tracer.counts
    out["oracle.quad.calls"] = c["oracle.quad"]
    out["functionals.brentq.calls"] = c["functionals.brentq"]
    out["qgaussian.density_evals"] = c["qgaussian.density"]
    out["functionals.root_solves_per_row"] = c["brentq.in_gamma"] / max(c["gamma.rows"], 1)
    out["functionals.root_solves_per_step"] = (
        c["brentq.in_jko_step"] / max(tracer.calls["functionals.jko_step"], 1)
    )
    reported = c["verify.reported"]
    out["cli.verify.kept_ratio"] = reported / max(c["cli.checks_run"], reported, 1)
    out["oracle.unconverged_ratio"] = c["oracle.unconverged"] / max(c["oracle.results"], 1)
    worst = getattr(workload, "worst", {})
    for band in MREL_BANDS:
        out[f"oracle.mrel.{band}.self_s"] = tracer.self_s[f"oracle.mrel.{band}"]
        out[f"oracle.mrel.{band}.worst_rel_err"] = worst.get(f"mrel-{band}", 0.0)
    out["failed_ratio"] = failed_ratio
    return out
