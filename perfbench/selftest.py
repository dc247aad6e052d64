"""Self-tests of the benchmark itself, at ``NECConfig.tiny()`` geometry.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They pin the output schema and metric names against ``BENCHMARK.json``,
check that the seed changes the generated inputs and nothing else, check the
open-loop due-time accounting against deliberately slow fake callees, and
check that an injected ``MemoryError`` is recovered from or counted as a
failed operation instead of ending the run.  (The file name keeps it out of the repository's
pytest collection; ``python3 -m pytest perfbench/selftest.py`` also works.)
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import NECConfig  # noqa: E402
from repro.nn import state_dict  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seconds: float = 1.0) -> dict:
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace), "--geometry", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        raise AssertionError(completed.stderr[-2000:])
    return json.loads(completed.stdout.strip().splitlines()[-1])


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_keys_and_names(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], list(run.END_TO_END))
        for metric in SPEC["end_to_end"]:
            self.assertEqual(metric["unit"], run.END_TO_END[metric["name"]])
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertIn("setup_s", run.END_TO_END)

    def test_output_schema_every_workload(self):
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            for trace, expected in ((0, run.END_TO_END), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    line = _bench(workload, trace)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(line["correct"], True)
                    self.assertIsInstance(line["attempted"], int)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertIsInstance(line["failed"], int)
                    self.assertEqual(list(line["metrics"]), list(expected))
                    for name, metric in line["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(set(metric), {"value", "unit"})
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertEqual(metric["unit"], expected[name])


class SeedTest(unittest.TestCase):
    """The seed changes the generated inputs and nothing else."""

    config = NECConfig.tiny()

    def test_offline(self):
        one, two = workloads.Offline(self.config, 1), workloads.Offline(self.config, 2)
        again = workloads.Offline(self.config, 1)
        self.assertTrue(all(
            np.array_equal(a.data, b.data) for a, b in zip(one.call_inputs(3), again.call_inputs(3))
        ))
        self.assertFalse(np.array_equal(one.call_inputs(3)[0].data, two.call_inputs(3)[0].data))
        one.setup()
        two.setup()
        self.assertFalse(np.array_equal(one.system.embedding, two.system.embedding))
        self._same_model(one.system.selector, two.system.selector)

    def test_live(self):
        one, two = (workloads.Live(self.config, seed, Path(".")) for seed in (1, 2))
        phases_one, audio_one = one.round_inputs(2)
        phases_again, audio_again = workloads.Live(self.config, 1, Path(".")).round_inputs(2)
        phases_two, audio_two = two.round_inputs(2)
        self.assertFalse(np.array_equal(phases_one, one.round_inputs(3)[0]))
        self.assertTrue(np.array_equal(phases_one, phases_again))
        self.assertTrue(all(np.array_equal(a, b) for a, b in zip(audio_one, audio_again)))
        self.assertFalse(np.array_equal(phases_one, phases_two))
        self.assertFalse(np.array_equal(audio_one[0], audio_two[0]))

    def test_train(self):
        one, two = workloads.Train(self.config, 1), workloads.Train(self.config, 2)
        one.setup()
        two.setup()
        self.assertFalse(np.array_equal(
            one.stream.example_at(0).mixed_spectrogram, two.stream.example_at(0).mixed_spectrogram
        ))
        self._same_model(one.trainer.selector, two.trainer.selector)

    def _same_model(self, first, second):
        a, b = state_dict(first), state_dict(second)
        self.assertEqual(set(a), set(b))
        for key in a:
            self.assertTrue(np.array_equal(a[key], b[key]), key)


class _FakeSession:
    """Emits one result per completed segment, ``result_delay`` after completion."""

    def __init__(self, segment: int, feed_delay: float, result_delay: float) -> None:
        self.segment = segment
        self.feed_delay = feed_delay
        self.result_delay = result_delay
        self.samples = 0
        self.ready_at = []

    def feed(self, chunk) -> None:
        time.sleep(self.feed_delay)
        before = self.samples // self.segment
        self.samples += len(chunk)
        for _ in range(self.samples // self.segment - before):
            self.ready_at.append(time.perf_counter() + self.result_delay)

    def collect(self):
        now = time.perf_counter()
        results = []
        while self.ready_at and self.ready_at[0] <= now:
            self.ready_at.pop(0)
            results.append(types.SimpleNamespace(shadow_wave=types.SimpleNamespace(data=None)))
        return results

    def close(self, drain: bool = True) -> None:
        pass


def _fake_live(make_session, seconds: float = 1.0):
    """Run the live generator against fake sessions, with 3-segment rounds."""
    live = workloads.Live(NECConfig.tiny(), 7, Path("."))
    live.tenants = list(range(workloads.LIVE_STREAMS))
    live.service = types.SimpleNamespace(
        open_session=lambda tenant: make_session(), loop=types.SimpleNamespace(error=None)
    )
    saved = workloads.LIVE_ROUND_SEGMENTS, workloads.LIVE_DRAIN_SECONDS
    workloads.LIVE_ROUND_SEGMENTS, workloads.LIVE_DRAIN_SECONDS = 3, 0.5
    try:
        return live.run(seconds)
    finally:
        workloads.LIVE_ROUND_SEGMENTS, workloads.LIVE_DRAIN_SECONDS = saved


class OpenLoopTest(unittest.TestCase):
    """Latency runs from when the completing chunk was due, not when it was sent."""

    def _run(self, feed_delay: float, result_delay: float):
        segment = NECConfig.tiny().segment_samples
        return _fake_live(lambda: _FakeSession(segment, feed_delay, result_delay))

    def test_slow_callee_latency_measured_from_due_time(self):
        outcome = self._run(feed_delay=0.0, result_delay=0.15)
        latencies = outcome.values["op_ms"]
        self.assertEqual(outcome.failed, 0)
        self.assertGreater(len(latencies), 10)
        self.assertGreaterEqual(min(latencies), 150.0)
        self.assertLess(run.percentile(latencies, 50), 190.0)

    def test_late_generator_counts_against_latency(self):
        # Each feed blocks 8 ms, but 4 streams of 20 ms chunks need a feed
        # every 5 ms: the generator falls behind, and results that come back
        # instantly after the (late) send still count the lateness.
        outcome = self._run(feed_delay=0.008, result_delay=0.0)
        latencies = outcome.values["op_ms"]
        lags = outcome.values["generator_lag_ms"]
        self.assertGreater(run.percentile(lags, 90), 300.0)
        self.assertGreater(run.percentile(latencies, 50), 200.0)
        self.assertGreater(outcome.values["budget_misses"], 0)


class FailureTest(unittest.TestCase):
    def test_batch_memory_error_is_recovered_clip_by_clip(self):
        offline = workloads.Offline(NECConfig.tiny(), 3)
        offline.setup()
        real = offline.system.protect_batch
        calls = []

        def flaky(clips, **kwargs):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise MemoryError("injected")
            return real(clips, **kwargs)

        offline.system.protect_batch = flaky
        outcome = offline.run(1.0)
        self.assertGreaterEqual(outcome.attempted, 2)
        self.assertEqual(outcome.failed, 0)
        # Call 1 (the untimed warm-up) succeeds, every second call after it fails.
        self.assertEqual(outcome.values["batch_out_of_memory"], len(calls) // 2)
        self.assertEqual(len(outcome.values["op_ms"]), outcome.attempted)
        offline.system.protect_batch = real
        self.assertTrue(offline.check()["passed"])

    def test_injected_memory_error_is_counted_not_raised(self):
        offline = workloads.Offline(NECConfig.tiny(), 3)
        offline.setup()

        def failing(*args, **kwargs):
            raise MemoryError("injected")

        offline.system.protect_batch = failing
        offline.system.protect = failing
        outcome = offline.run(0.2)
        self.assertGreaterEqual(outcome.attempted, 1)
        self.assertEqual(outcome.failed, outcome.attempted)
        self.assertEqual(outcome.errors, {"MemoryError": outcome.failed})
        self.assertEqual(outcome.values["op_ms"], [])
        self.assertEqual(len(outcome.values["failed_ms"]), outcome.failed)
        result = {"values": outcome.values, "failed": outcome.failed}
        self.assertEqual(
            min(run.op_latencies(result)),
            min(outcome.values["failed_ms"]) + run.FAILED_PENALTY_MS,
        )
        self.assertFalse(offline.check()["passed"])

    def test_offline_check_compares_delivered_shadows(self):
        offline = workloads.Offline(NECConfig.tiny(), 3)
        offline.setup()
        offline.run(0.2)
        self.assertTrue(offline.check()["passed"])
        clips, waves = offline.first_call
        waves[-1] = waves[-1] + 1e-12
        check = offline.check()
        self.assertFalse(check["passed"])
        self.assertIn("delivered != protect_batch", check["detail"])

    def test_live_memory_error_fails_segments_once(self):
        segment = NECConfig.tiny().segment_samples

        class Failing(_FakeSession):
            def feed(self, chunk):
                raise MemoryError("injected")

        outcome = _fake_live(lambda: Failing(segment, 0.0, 0.0))
        self.assertGreater(outcome.attempted, 0)
        self.assertEqual(outcome.failed, outcome.attempted)
        self.assertEqual(outcome.values["op_ms"], [])
        self.assertEqual(len(outcome.values["failed_ms"]), outcome.failed)
        self.assertEqual(list(outcome.errors), ["MemoryError"])


class NoProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "perfbench").mkdir()
            for path in PERFBENCH.glob("*.py"):
                (Path(tmp) / "perfbench" / path.name).write_text(path.read_text())
            (Path(tmp) / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "live", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
