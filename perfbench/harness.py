"""Workload-independent parts of the benchmark: the timed op loop, the
latency statistics and the span arithmetic.

Standard library only, so the self-tests run without numpy, scipy or
qflow.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

# The tail statistic needs this many samples beyond it.
TAIL_BEYOND = 10
# Never stop a run before this many ops, so the tail percentile is at
# least the median.
MIN_OPS = 2 * TAIL_BEYOND
# Runs of at least two blocks take the tail per block of this many
# consecutive ops and report the median, so the percentile (p99) does not
# climb as the library gets faster and runs hold more ops.
TAIL_BLOCK = 1000


# Host-speed calibration.  The shared hosts this runs on drift by 30% and
# more in speed between runs, in stretches of seconds to minutes, which
# swamps any library change.  A fixed pure-Python kernel is timed
# throughout each run; every time the benchmark reports is scaled by
# CAL_REF_S / (median kernel time), i.e. expressed on a host where the
# kernel takes CAL_REF_S (its typical time on a 2-vCPU x86-64 VM with
# CPython 3.11).  The raw figures are reported alongside.
CAL_REF_S = 1.5e-3
CAL_EVERY_S = 0.2
CAL_FIRST = 5
CAL_WINDOW = 2


def calibration_kernel(n: int = 20000) -> float:
    x = 0.0
    for i in range(n):
        x += (i & 7) * 0.5 - x * 1e-3
    return x


def time_kernel(clock: Callable[[], float] = time.perf_counter) -> float:
    t0 = clock()
    calibration_kernel()
    return clock() - t0


def speed_factor(cal_s: Sequence[float]) -> float:
    """Multiplier taking measured times to reference-host times."""
    return CAL_REF_S / statistics.median(cal_s) if cal_s else 1.0


def local_speed_factor(cal_s: Sequence[float], cal_index: int) -> float:
    """Speed factor around one op: the kernels just before and after it.

    Speed bursts last a second or two, so an op's latency is scaled by
    the host speed of its own stretch of the run, not the run's median.
    """
    return speed_factor(cal_s[max(0, cal_index - CAL_WINDOW):cal_index + CAL_WINDOW])


class OpTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float | None) -> Iterator[None]:
    """Raise OpTimeout in the block after `seconds` (main thread only)."""
    if not seconds:
        yield
        return

    def expire(signum, frame):
        raise OpTimeout(f"exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Op(NamedTuple):
    """One unit of benchmark work.

    run() is the timed part: the library call plus the rendering a CLI
    user would see.  check(output) returns None when the output is
    correct and a one-line reason otherwise.  render(output) gives the
    bytes folded into the run digest.  An edge op sits at the documented
    edge of the domain: it may refuse with refusal_type, and its failures
    are counted but do not mark the run incorrect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    render: Callable[[Any], bytes]
    edge: bool = False


@dataclass
class OpRecord:
    kind: str
    latency_s: float
    status: str  # "ok", "refused" or "failed"
    edge: bool
    reason: str = ""
    cal_index: int = 0  # calibrations taken before the op started
    index: int = 0  # the op's place in the run's design (i mod period)


@dataclass
class RunResult:
    records: list[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0  # timed phase, calibration excluded
    digest: str = ""
    cal_s: list[float] = field(default_factory=list)
    # design indices whose repeat gave another status or output than
    # their first run
    mismatched: set[int] = field(default_factory=set)


def run_ops(
    make_op: Callable[[int], Op],
    cycle_len: int,
    seconds: float,
    refusal_type: type[BaseException],
    max_ops: int | None = None,
    min_ops: int = MIN_OPS,
    period: int | None = None,
    on_op: Callable[[int, Op], Any] | None = None,
    op_timeout: float | None = None,
    calibrate: bool = True,
    clock: Callable[[], float] = time.perf_counter,
) -> RunResult:
    """Run ops 0, 1, 2, ... in a closed loop and record each one.

    Without max_ops the loop stops at the first cycle boundary after
    `seconds` have elapsed and at least max(min_ops, MIN_OPS) ops have
    run, so every run holds whole cycles of the workload's op mix.  With max_ops it runs
    exactly that many (the traced replay of an untraced run).  With a
    period, op i is make_op(i % period), made once and run again on
    every pass over the design; a repeat whose status or output differs
    from the first run of its op is recorded in `mismatched`.  on_op(i,
    op) is entered as a context manager around op.run() when given; an
    op that runs longer than op_timeout seconds fails.  With calibrate,
    the calibration kernel runs CAL_FIRST times up front and then between
    ops every CAL_EVERY_S; its time is left out of wall_s.
    """
    out = RunResult()
    sha = hashlib.sha256()
    design: dict[int, Op] = {}
    first_outcome: dict[int, tuple[str, bytes]] = {}
    if calibrate:
        out.cal_s = [time_kernel(clock) for _ in range(CAL_FIRST)]
    start = last_cal = clock()
    cal_total = 0.0
    i = 0
    while True:
        if calibrate and clock() - last_cal >= CAL_EVERY_S:
            out.cal_s.append(time_kernel(clock))
            last_cal = clock()
            cal_total += out.cal_s[-1]
        if max_ops is not None:
            if i >= max_ops:
                break
        elif (i % cycle_len == 0 and i >= max(min_ops, MIN_OPS)
              and clock() - start - cal_total >= seconds):
            break
        index = i % period if period else i
        op = design.get(index)
        if op is None:
            op = make_op(index)
            if period:
                design[index] = op
        output, error = None, None
        t0 = clock()
        try:
            with on_op(i, op) if on_op else nullcontext(), time_limit(op_timeout):
                output = op.run()
        except Exception as exc:  # every exception is an outcome to record
            error = exc
        latency = clock() - t0
        if error is None:
            reason = op.check(output)
            status = "ok" if reason is None else "failed"
            rendered = op.render(output)
        else:
            refused = op.edge and isinstance(error, refusal_type)
            status = "refused" if refused else "failed"
            reason = "" if refused else f"raised {type(error).__name__}: {error}"
            rendered = f"{type(error).__name__}: {error}".encode()
        sha.update(rendered)
        sha.update(f"|{i}|{op.kind}|{status}\n".encode())
        outcome = (status, hashlib.sha256(rendered).digest())
        if first_outcome.setdefault(index, outcome) != outcome:
            out.mismatched.add(index)
        out.records.append(OpRecord(op.kind, latency, status, op.edge, reason or "",
                                    len(out.cal_s), index))
        i += 1
    out.wall_s = clock() - start - cal_total
    out.digest = sha.hexdigest()
    return out


def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples and percentile of the tail statistic.

    The tail is the highest nearest-rank percentile that still has
    TAIL_BEYOND samples above it: index n - TAIL_BEYOND - 1, percentile
    100 (n - TAIL_BEYOND) / n.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return n - TAIL_BEYOND - 1, 100.0 * (n - TAIL_BEYOND) / n


def tail_of(lat: Sequence[float]) -> tuple[float, float]:
    """(tail value, percentile) of latencies in op order.

    One block of all ops below 2 TAIL_BLOCK ops; otherwise the median of
    the tails of n // TAIL_BLOCK equal consecutive blocks.
    """
    n = len(lat)
    nblocks = n // TAIL_BLOCK if n >= 2 * TAIL_BLOCK else 1
    blocks = [sorted(lat[k * n // nblocks:(k + 1) * n // nblocks]) for k in range(nblocks)]
    tails = [b[tail_rank(len(b))[0]] for b in blocks]
    return statistics.median(tails), tail_rank(len(blocks[0]))[1]


def summarize(result: RunResult) -> dict:
    """End-to-end figures of one run, in reference-host time.

    attempted, failed and failed_ratio count the distinct ops of the
    run's design (an op fails if any of its runs failed), so they depend
    on the seed only, not on how many passes the time allowed; executed
    counts every run.  ops_per_s counts only runs that passed their
    check (refusals at the edge included) over the wall time of the
    timed phase.  Each op
    latency is scaled by the speed factor of its own stretch of the run,
    and the wall by the op-time-weighted mean of those factors.  The raw_ entries are the figures before
    the speed calibration.
    """
    recs = result.records
    local = [local_speed_factor(result.cal_s, r.cal_index) for r in recs]
    busy = sum(r.latency_s for r in recs)
    # the wall is scaled by the op-time-weighted mean of the local factors
    factor = sum(r.latency_s * f for r, f in zip(recs, local)) / busy if busy else 1.0
    raw_ms = [r.latency_s * 1e3 for r in recs]
    lat_ms = [ms * f for ms, f in zip(raw_ms, local)]
    tail_ms, pct = tail_of(lat_ms)
    passed = sum(r.status != "failed" for r in recs)
    indices = {r.index for r in recs}
    failing = {r.index: r for r in recs if r.status == "failed"}
    raw = {
        "ops_per_s": passed / result.wall_s,
        "op_p50_ms": statistics.median(raw_ms),
        "op_tail_ms": tail_of(raw_ms)[0],
        "wall_s": result.wall_s,
    }
    return {
        "attempted": len(indices),
        "executed": len(recs),
        "failed": len(failing),
        "failed_interior": sum(not r.edge for r in failing.values()),
        "failed_ratio": len(failing) / len(indices),
        "mismatched": len(result.mismatched),
        "ops_per_s": raw["ops_per_s"] / factor,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "wall_s": raw["wall_s"] * factor,
        "speed_factor": factor,
        **{f"raw_{k}": v for k, v in raw.items()},
        "tail_percentile": pct,
        "samples": len(lat_ms),
        "digest": result.digest,
    }


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same list, -1 for a root


def self_times(spans: Sequence[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once (their union).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        reach = s.start  # end of the union of the children seen so far
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out
