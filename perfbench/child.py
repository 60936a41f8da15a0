"""One workload in one fresh interpreter; prints a JSON summary line.

Started by run.py with the thread counts of BLAS and OpenMP set to 1 and
PYTHONPATH pointing at the checkout's src/.  Set-up time runs from just
before qflow (numpy and scipy with it) is imported until the first op's
inputs are generated.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t_import = time.perf_counter()
    import qflow

    if not Path(qflow.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qflow imported from {qflow.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    first = wl.make_op(0)
    raw_setup_s = time.perf_counter() - t_import
    import harness

    if args.setup_only:
        cal = [harness.time_kernel() for _ in range(harness.CAL_FIRST)]
        print(json.dumps({"setup_s": raw_setup_s * harness.speed_factor(cal)}))
        return 0

    import numpy
    import scipy

    wl.prepare_checks(ROOT)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        workloads.install_tracer(tracer)

    result = harness.run_ops(
        lambda i: first if i == 0 else wl.make_op(i),
        cycle_len=wl.cycle_len,
        seconds=args.seconds,
        refusal_type=qflow.DomainError,
        max_ops=args.ops,
        min_ops=wl.period,
        period=wl.period,
        on_op=(lambda i, op: tracer.op(i, op.kind)) if tracer else None,
    )
    summary = harness.summarize(result)
    # one entry per failing op of the design
    failures = list({r.index: f"{r.kind}: {r.reason}"
                     for r in result.records if r.status == "failed"}.values())
    by_kind: dict[str, list[float]] = {}
    for r in result.records:
        by_kind.setdefault(r.kind, []).append(r.latency_s * 1e3)
    doc = {
        "workload": wl.name,
        "seed": args.seed,
        "setup_s": raw_setup_s * summary["speed_factor"],
        "raw_setup_s": raw_setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kinds": {
            k: {"n": len(v), "raw_p50_ms": statistics.median(v)}
            for k, v in sorted(by_kind.items())
        },
        "first_failures": failures[:5],
        **summary,
    }
    if tracer is not None:
        probes = wl.trace_probes()
        probe = harness.run_ops(
            probes.__getitem__,
            cycle_len=1,
            seconds=0.0,
            refusal_type=qflow.DomainError,
            max_ops=len(probes),
            on_op=lambda i, op: tracer.op(i, op.kind),
            op_timeout=workloads.PROBE_TIMEOUT_S,
            calibrate=False,
        )
        doc["probes"] = [
            {"kind": r.kind, "latency_s": r.latency_s, "status": r.status, "reason": r.reason}
            for r in probe.records
        ]
        tracer.uninstall()
        doc["per_layer"] = workloads.per_layer_metrics(tracer, wl, summary["failed_ratio"])
        if args.spans_out:
            out = Path(args.spans_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            spans = [dict(zip(("op", "name", "start", "end", "parent"), s)) for s in tracer.kept]
            out.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "spans": spans}))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
