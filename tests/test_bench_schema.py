"""The BENCH_*.json payloads keep their exact key sets.

CI's gates and ``benchmarks/plot_trajectory.py`` read these files by key, so
a renamed or dropped key silently disables a gate.  Every result type is built
here from fabricated values (no timing runs) and its ``to_dict()`` key set is
pinned, together with the keys each consumer reads.
"""

import importlib.util
import json
import os

import pytest

from repro.eval import runtime
from repro.eval.runtime import (
    EvalFastpathResult,
    KernelTiming,
    StreamChunkTiming,
    StreamingRuntimeResult,
    StreamScalingTiming,
    TrainingBenchResult,
    TrainingScaleSide,
)
from repro.serving.bench import ServingPoint, ServingResult

KERNEL_KEYS = {"name", "reference_ms", "fast_ms", "speedup", "equivalent", "max_abs_difference"}


def _kernel(name="k", equivalent=True):
    return KernelTiming(name, 2.0, 1.0, equivalent, 0.0)


def test_eval_fastpath_payload():
    payload = EvalFastpathResult(kernels=[_kernel("dtw_recognizer")]).to_dict()
    assert set(payload) == {"benchmark", "all_equivalent", "kernels"}
    assert set(payload["kernels"][0]) == KERNEL_KEYS
    assert payload["kernels"][0]["speedup"] == 2.0


def test_streaming_payload():
    chunk = StreamChunkTiming(0.01, 160, 10, 1.0, 2.0, 0.1, 300.0, 0, True)
    scaling = StreamScalingTiming(8, 2, 20.0, 10.0, 0.5, True)
    payload = StreamingRuntimeResult(16000, 16000, 160, 300.0, [chunk], [scaling]).to_dict()
    assert set(payload) == {
        "benchmark", "sample_rate", "segment_samples", "hop_length", "latency_budget_ms",
        "all_equivalent", "budget_violations", "max_streams_rtf_below_1",
        "projected_max_streams_per_core", "chunks", "scaling",
    }
    assert set(payload["chunks"][0]) == {
        "chunk_seconds", "chunk_samples", "feeds", "mean_feed_ms", "worst_feed_ms", "rtf",
        "budget_ms", "budget_violations", "equivalent",
    }
    assert set(payload["scaling"][0]) == {
        "num_streams", "segments_per_stream", "sequential_ms", "coalesced_ms", "speedup",
        "rtf", "equivalent",
    }
    assert payload["scaling"][0]["speedup"] == 2.0
    assert payload["max_streams_rtf_below_1"] == 8


def test_serving_payload():
    point = ServingPoint(8, 4, 16, 10.0, 20.0, 12.0, 25.0, 4.0, 0.25, 8.0, 0, True)
    payload = ServingResult(16000, 16000, 300.0, True, [point]).to_dict()
    assert set(payload) == {
        "benchmark", "sample_rate", "segment_samples", "latency_budget_ms",
        "registry_round_trip", "all_equivalent", "budget_violations", "points",
    }
    assert set(payload["points"][0]) == {
        "num_streams", "num_tenants", "segments_total", "p50_latency_ms", "p99_latency_ms",
        "mean_latency_ms", "max_latency_ms", "throughput_audio_s_per_s", "rtf",
        "mean_batch_size", "budget_violations", "equivalent",
    }


def test_training_payload():
    def side(engine):
        return TrainingScaleSide(engine, 4, 8, 5, 5, 1.0, 0.5, 3.0)

    payload = TrainingBenchResult(
        _kernel("train_minibatch"), 8, side("looped"), side("minibatched")
    ).to_dict()
    assert set(payload) == {"benchmark", "throughput", "scale_run"}
    assert set(payload["throughput"]) == {
        "batch_size", "looped_ms", "batched_ms", "speedup", "grads_equivalent",
        "max_abs_difference",
    }
    scale = payload["scale_run"]
    assert set(scale) == {"reference", "scaled", "within_wall_clock", "better_suppression"}
    for key in ("reference", "scaled"):
        assert set(scale[key]) == {
            "engine", "selector_channels", "batch_size", "epochs", "steps", "wall_clock_s",
            "final_loss", "suppression_db",
        }


@pytest.fixture
def trajectory(monkeypatch, tmp_path):
    """A trajectory written by ``run_perf_trajectory`` with every kernel faked."""
    monkeypatch.setattr(
        runtime, "run_eval_fastpath_analysis",
        lambda repetitions: EvalFastpathResult(kernels=[_kernel("dtw_recognizer")]),
    )
    for name in (
        "_float32_inference_timing", "_train_minibatch_timing", "_streaming_timing",
        "_serving_timing", "_scenario_grid_timing", "_sharding_timing",
    ):
        monkeypatch.setattr(runtime, name, lambda config, repetitions, name=name: _kernel(name))
    path = tmp_path / "BENCH_trajectory.json"
    runtime.run_perf_trajectory(path=str(path), label="a")
    runtime.run_perf_trajectory(path=str(path), label="b")
    runtime.run_perf_trajectory(path=str(path), label="b")  # replaces, not appends
    with open(path) as handle:
        return path, json.load(handle)


def test_trajectory_entry_payload(trajectory):
    _, payload = trajectory
    assert set(payload) == {"benchmark", "entries"}
    assert [entry["label"] for entry in payload["entries"]] == ["a", "b"]
    entry = payload["entries"][-1]
    assert set(entry) == {"label", "config", "timestamp", "host", "all_equivalent", "kernels"}
    assert set(entry["host"]) == {
        "cpu_count", "machine", "python", "numpy", "scipy",
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
    }
    for kernel in entry["kernels"]:
        assert set(kernel) == KERNEL_KEYS


def test_plot_trajectory_reads_the_entries(trajectory, capsys):
    path, _ = trajectory
    script = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "benchmarks", "plot_trajectory.py"
    )
    spec = importlib.util.spec_from_file_location("plot_trajectory", script)
    plot_trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plot_trajectory)
    assert plot_trajectory.main([str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "dtw_recognizer:" in out
    assert f"{os.cpu_count()} cpu" in out
