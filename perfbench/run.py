"""qflow benchmark: seeded workloads, end-to-end metrics and a traced
per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from the
checkout's src/.  Each workload runs in a fresh single-threaded process
(BLAS and OpenMP thread counts set to 1).  With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 the same ops are replayed under the span
tracer and the last line carries the per-layer metrics, after checking
that the traced run's output digest equals the untraced run's.  The exit
code is 0 only when every correctness check held (failures of edge-of-
domain ops are counted but allowed), 1 when a check failed, 2 when the
checkout holds no library to measure.

Set-up time is the median over SETUP_SAMPLES fresh interpreters (the
workload's own process included), each timed from importing qflow to
the first op's inputs being ready.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# per-workload wall-clock budget for all its processes together
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: printed nothing")
    return json.loads(lines[-1])


def self_test() -> None:
    """The harness's own tests; a broken harness measures nothing."""
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py", top_level_dir=str(HERE))
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink, verbosity=0).run(suite)
    if not result.wasSuccessful():
        bad = [t.id() for t, _ in result.failures + result.errors]
        raise BenchError(f"harness self-tests failed: {', '.join(bad)}")


def machine_info(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """(result object for the last line, details) for one workload."""
    deadline = time.monotonic() + BUDGET_S
    info = machine_info(seed)
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setups = [
            run_child(base + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        doc = run_child(base + ["--seconds", str(seconds)], deadline)
        setups.append(doc["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": doc["ops_per_s"],
            "op_p50_ms": doc["op_p50_ms"],
            "op_tail_ms": doc["op_tail_ms"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        names = spec["end_to_end"]
        correct = doc["failed_interior"] == 0 and doc["mismatched"] == 0
        info["setup_samples_s"] = setups
    else:
        doc = run_child(base + ["--seconds", str(seconds)], deadline)
        spans_out = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json"
        traced = run_child(
            base + ["--ops", str(doc["executed"]), "--trace", "--spans-out", str(spans_out)],
            deadline,
        )
        values = dict(traced["per_layer"])
        values["trace.overhead_ratio"] = traced["wall_s"] / doc["wall_s"]
        names = spec["per_layer"]
        digest_ok = traced["digest"] == doc["digest"]
        correct = doc["failed_interior"] == 0 and doc["mismatched"] == 0 and digest_ok
        info["digest_untraced"] = doc["digest"]
        info["digest_traced"] = traced["digest"]
        info["spans_file"] = str(spans_out.relative_to(ROOT))
        info["probes"] = traced["probes"]
    for key in ("python", "numpy", "scipy", "kinds", "tail_percentile", "samples",
                "attempted", "executed", "failed", "failed_ratio", "mismatched",
                "first_failures", "speed_factor",
                "raw_ops_per_s", "raw_op_p50_ms", "raw_op_tail_ms", "raw_setup_s"):
        info[key] = doc[key]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"] if spec else 10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if spec is None or not (ROOT / "src" / "qflow" / "__init__.py").is_file():
        print("error: no qflow library (src/qflow) or BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    try:
        self_test()
        chosen = names if args.workload == "all" else [args.workload]
        results = {}
        for w in chosen:
            result, info = measure(w, args.seed, args.seconds, bool(args.trace), spec)
            results[w] = result
            print(f"# {w} info {json.dumps(info)}")
            for name, m in result["metrics"].items():
                note = ""
                if name == "op_tail_ms":
                    note = f"  (p{info['tail_percentile']:.1f} of {info['samples']} ops)"
                print(f"{w:18s} {name:44s} {m['value']:.6g} {m['unit']}{note}")
            if info["mismatched"]:
                print(f"# {w}: {info['mismatched']} ops gave another result on a repeat")
            if info["first_failures"]:
                print(f"# {w} failures (first {len(info['first_failures'])}): "
                      + " | ".join(info["first_failures"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    if not final["correct"]:
        print("error: a correctness check failed (see the failures above)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
