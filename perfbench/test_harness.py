"""Self-tests of the benchmark harness (standard library only).

run.py runs them before every measurement; by hand:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import sys
import time
import types
import unittest

from harness import (
    CAL_FIRST,
    CAL_REF_S,
    MIN_OPS,
    Op,
    Span,
    run_ops,
    self_times,
    summarize,
    tail_of,
    tail_rank,
)
from tracing import Tracer


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class Refusal(Exception):
    pass


def _op(kind="ok", run=lambda: 1, check=lambda out: None, edge=False) -> Op:
    return Op(kind=kind, run=run, check=check, render=lambda out: repr(out).encode(), edge=edge)


def _boom():
    raise RuntimeError("boom")


def _refuse():
    raise Refusal("outside the domain")


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sequential_children(self):
        spans = [
            Span("op", 0.0, 10.0, -1),
            Span("a", 1.0, 4.0, 0),
            Span("b", 2.0, 3.0, 1),
            Span("c", 5.0, 9.0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [Span("p", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 7.0, 0)]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span("p", 2.0, 6.0, -1), Span("x", 0.0, 3.0, 0), Span("y", 5.0, 9.0, 0)]
        self.assertEqual(self_times(spans)[0], 2.0)

    def test_self_times_sum_to_the_root_duration(self):
        spans = [Span("op", 0.0, 8.0, -1), Span("a", 1.0, 6.0, 0), Span("b", 2.0, 5.0, 1),
                 Span("c", 2.5, 3.0, 2), Span("d", 6.5, 7.5, 0)]
        self.assertAlmostEqual(sum(self_times(spans)), 8.0)


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        for n in (11, 12, 20, 37, 1000):
            idx, pct = tail_rank(n)
            self.assertEqual(n - 1 - idx, 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_known_values(self):
        self.assertEqual(tail_rank(20), (9, 50.0))
        self.assertEqual(tail_rank(1000), (989, 99.0))

    def test_long_runs_take_the_median_of_block_tails(self):
        # three blocks of 1000 ops; block k holds 0..989 and ten ops at
        # 1000 + k, so its tail (11th largest) is 989, except in the middle
        # block, where one op of 5000 pushes it to 1001
        lat = []
        for k in range(3):
            block = [float(v) for v in range(990)] + [1000.0 + k] * 10
            if k == 1:
                block[0] = 5000.0
            lat += block
        value, pct = tail_of(lat)
        self.assertEqual(value, 989.0)
        self.assertEqual(pct, 99.0)
        self.assertEqual(tail_of(lat[:1500]), (sorted(lat[:1500])[1489], 100.0 * 1490 / 1500))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail_rank(10)


class FailedRatioTest(unittest.TestCase):
    def _run(self, ops):
        cycle = itertools.cycle(ops)
        return summarize(run_ops(lambda i: next(cycle), cycle_len=len(ops), seconds=0.0,
                                 refusal_type=Refusal, calibrate=False, clock=FakeClock()))

    def test_injected_failures_are_counted(self):
        ops = [
            _op(),
            _op("raises", run=_boom),
            _op("misses-check", check=lambda out: "wrong"),
            _op("refused-at-edge", run=_refuse, edge=True),
            _op("edge-raises-other", run=_boom, edge=True),
        ]
        s = self._run(ops)
        n = s["attempted"]
        self.assertEqual(n % len(ops), 0)
        self.assertGreaterEqual(n, MIN_OPS)
        self.assertEqual(s["failed"], 3 * n // 5)
        self.assertEqual(s["failed_interior"], 2 * n // 5)
        self.assertAlmostEqual(s["failed_ratio"], 0.6)

    def test_refusal_off_the_edge_is_a_failure(self):
        s = self._run([_op(), _op("refused-inside", run=_refuse)])
        self.assertAlmostEqual(s["failed_ratio"], 0.5)
        self.assertEqual(s["failed_interior"], s["failed"])

    def test_ops_per_second_counts_passed_ops(self):
        s = self._run([_op(), _op("raises", run=_boom)])
        self.assertAlmostEqual(s["ops_per_s"], (s["attempted"] / 2) / s["wall_s"])

    def test_op_over_its_time_limit_fails(self):
        slow = _op("slow", run=lambda: time.sleep(1.0))
        result = run_ops(lambda i: slow, 1, 0.0, Refusal, max_ops=1, op_timeout=0.05,
                         calibrate=False)
        self.assertEqual(result.records[0].status, "failed")
        self.assertIn("OpTimeout", result.records[0].reason)
        self.assertLess(result.records[0].latency_s, 0.5)

    def test_repeated_design_counts_each_op_once(self):
        made = []

        def make(i):
            made.append(i)
            return [_op(), _op("raises", run=_boom), _op("edge", run=_refuse, edge=True)][i % 3]

        result = run_ops(make, 3, 0.0, Refusal, max_ops=12, period=6, calibrate=False)
        s = summarize(result)
        self.assertEqual(made, list(range(6)))
        self.assertEqual([r.index for r in result.records], list(range(6)) * 2)
        self.assertEqual((s["attempted"], s["executed"], s["failed"]), (6, 12, 2))
        self.assertAlmostEqual(s["failed_ratio"], 2 / 6)
        self.assertEqual(s["mismatched"], 0)

    def test_repeat_with_another_result_is_flagged(self):
        counter = itertools.count()
        ops = [_op(), _op("drifts", run=lambda: next(counter))]
        result = run_ops(lambda i: ops[i], 2, 0.0, Refusal, max_ops=12, period=2,
                         calibrate=False)
        self.assertEqual(result.mismatched, {1})
        self.assertEqual(summarize(result)["mismatched"], 1)

    def test_replay_gives_the_same_digest(self):
        ops = [_op(run=lambda: 2.5), _op("raises", run=_boom)]

        def digest(max_ops):
            return run_ops(lambda i: ops[i % 2], 2, 0.0, Refusal, max_ops=max_ops,
                           calibrate=False).digest

        self.assertEqual(digest(6), digest(6))
        self.assertNotEqual(digest(6), digest(4))


class CalibrationTest(unittest.TestCase):
    def test_times_scale_to_the_reference_host(self):
        # every clock reading advances 1 ms: each kernel timing reads 1 ms
        # and each op 1 ms, so the host runs at CAL_REF_S / 1 ms speed
        ops = [_op()]
        result = run_ops(lambda i: ops[0], 1, 0.0, Refusal, clock=FakeClock(1e-3))
        self.assertTrue(all(abs(c - 1e-3) < 1e-12 for c in result.cal_s))
        s = summarize(result)
        factor = CAL_REF_S / 1e-3
        self.assertAlmostEqual(s["speed_factor"], factor)
        self.assertAlmostEqual(s["op_p50_ms"], s["raw_op_p50_ms"] * factor)
        self.assertAlmostEqual(s["ops_per_s"] * s["wall_s"], s["attempted"])

    def test_calibration_time_is_left_out_of_the_wall(self):
        clock = FakeClock(1.0)
        result = run_ops(lambda i: _op(), 1, 0.0, Refusal, max_ops=3, clock=clock)
        self.assertGreater(len(result.cal_s), CAL_FIRST)
        # the phase starts after the up-front kernels (two readings each)
        start = 2 * CAL_FIRST + 1
        self.assertEqual(result.wall_s, clock.t - start - sum(result.cal_s[CAL_FIRST:]))


class TracerTest(unittest.TestCase):
    def test_wrapped_calls_fold_into_self_times(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        mod = types.ModuleType("fakepkg.mod")
        mod.inner = lambda: 1
        mod.outer = lambda: mod.inner() + mod.inner()

        sys.modules["fakepkg.mod"] = mod
        try:
            tracer.install_span("fakepkg", mod, "inner", "mod.inner")
            tracer.install_span("fakepkg", mod, "outer", "mod.outer")
            with tracer.op(0, "k"):
                self.assertEqual(mod.outer(), 2)
        finally:
            tracer.uninstall()
            del sys.modules["fakepkg.mod"]
        self.assertEqual(tracer.calls["mod.inner"], 2)
        self.assertEqual(tracer.calls["mod.outer"], 1)
        # each reading advances the clock by 1: inner spans last 1, the
        # outer span 5 (2 of them covered), the op root 7 (5 covered)
        self.assertEqual(tracer.self_s["mod.inner"], 2.0)
        self.assertEqual(tracer.self_s["mod.outer"], 3.0)
        self.assertEqual(tracer.self_s["op:k"], 2.0)
        self.assertFalse(hasattr(mod.inner, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
