"""The NEC benchmark: one workload per run, each in freshly spawned processes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``offline`` - closed loop of ``NECSystem.protect_batch`` on 4 clips of 1-8 s;
* ``live``    - 4 real-time streams of 20 ms chunks into ``ProtectionService``;
* ``train``   - ``SelectorTrainer.fit_streaming`` at batch 8, prefetch 1.

With ``--trace 0`` the run samples set-up time in fresh processes, measures
the workload untraced and prints every end-to-end metric.  With ``--trace 1``
it measures the workload untraced and then traced, for half of ``--seconds``
each, and prints the per-layer metrics plus the tracing overhead.  Each run
checks the program's outputs outside the timed region.  Report lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results (host fingerprint,
seed, raw samples, spans) are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CONV_LAYERS, percentile

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("offline", "live", "train")

#: Fresh set-up-only processes per run; their median with the measuring
#: process's own set-up time is ``setup_s``.
SETUP_PROBES = 2

#: A child that outlives this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics of every workload, in BENCHMARK.json order.  The
#: workload-specific ones (peak memory, failures, throughput, tails) are in
#: the report lines above the result; see README.md for why they carry no bound.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
}


#: Units of per-layer metrics, by name suffix.  Times, call counts and bytes
#: of a layer are per operation of the workload (call, segment or step).
_SUFFIX_UNITS = {
    ".busy_ms": "ms/op", ".self_ms": "ms/op", ".tick_self_ms": "ms/op", ".calls": "count/op",
    ".ticks": "count/op", ".new_shapes": "count/op", ".mb_moved": "MB/op",
    ".gflop_per_s": "GFLOP/s", "_ms": "ms", "_s": "s", "_mb": "MB", "_ratio": "ratio",
}


def _unit(name: str) -> str:
    for suffix in sorted(_SUFFIX_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return _SUFFIX_UNITS[suffix]
    return "count"


#: Per-layer metrics of the traced run, in BENCHMARK.json order.  A time
#: listed here is non-zero on every listed workload; times of layers that only
#: one workload runs (queue waits, backward, ...) are in the report lines.
#: Counts, sizes and rates of a layer a workload bypasses read 0 there.
PER_LAYER = {
    name: _unit(name)
    for name in (
        "setup.import_s",
        *(f"nn.conv.{layer}.busy_ms" for layer in CONV_LAYERS),
        "core.selector_head.self_ms",
        *(
            f"nn.conv_infer.{layer}.{field}"
            for layer in CONV_LAYERS
            for field in ("calls", "gflop_per_s", "mb_moved")
        ),
        "nn.im2col.retained_mb",
        "nn.im2col.new_shapes",
        "dsp.streaming_stft.calls",
        "core.stream_batch.ticks",
        "core.stream_batch.rows_per_tick_p50",
        "core.stream_batch.rows_per_tick_max",
        "core.stream_batch.empty_tick_ratio",
        "nn.fft_conv2d.calls",
        "bench.coverage_ratio",
        "bench.tracing_overhead_ratio",
    )
}


#: What a failed or refused operation adds to its measured time in every
#: latency median and tail: beyond any limit, so a failure never reads faster
#: than a success.  (Live waits about this long for a late shadow.)
FAILED_PENALTY_MS = 10_000.0


def op_latencies(result: dict) -> list:
    """Per-operation latencies; a failed operation is its time + FAILED_PENALTY_MS."""
    values = result["values"]
    return values["op_ms"] + [elapsed + FAILED_PENALTY_MS for elapsed in values["failed_ms"]]


def tracing_overhead(traced: dict, untraced: dict) -> float:
    """Traced over untraced median time of the operations both children ran, minus 1.

    Both children get the same inputs from the seed, so operation ``i`` is
    the same work in each; failed operations count with their measured time.
    Medians, because one live segment queued behind a tick at a new batch
    size takes several times the usual, in one child and not the other.
    """
    first, second = traced["values"]["times_ms"], untraced["values"]["times_ms"]
    common = min(len(first), len(second))
    if common == 0:
        return 0.0
    return statistics.median(first[:common]) / statistics.median(second[:common]) - 1.0


def tail_percentile(count: int) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it (else p90)."""
    supported = [q for q in (90.0, 99.0, 99.9) if count * (1.0 - q / 100.0) >= 10]
    return supported[-1] if supported else 90.0


def spawn(workload: str, seed: int, seconds: float, trace: int, tag: str, extra=()) -> dict:
    """Run ``workloads.py`` in a fresh interpreter and return its result."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload}-seed{seed}-{tag}.json"
    if out.exists():
        out.unlink()
    command = [
        sys.executable,
        str(PERFBENCH / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--out", str(out),
        "--spawned-at", repr(time.time()),
        *extra,
    ]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise RuntimeError(f"{workload} child timed out after {CHILD_TIMEOUT_S} s")
    if code != 0 or not out.exists():
        raise RuntimeError(f"{workload} child exited with code {code}")
    return json.loads(out.read_text())


def end_to_end(result: dict, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": percentile(op_latencies(result), 50),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer metric of a traced run (more than PER_LAYER lists)."""
    values = traced["values"]
    layers = dict(traced["layers"])
    layers["setup.import_s"] = traced["import_s"]
    waits = values.get("data_wait_ms") or [0.0]
    layers["core.example_stream.data_wait_ms"] = statistics.mean(waits)
    layers["bench.generator_lag_p90_ms"] = percentile(values.get("generator_lag_ms", []), 90)
    layers["bench.tracing_overhead_ratio"] = tracing_overhead(traced, untraced)
    return layers


def report(workload: str, result: dict, metrics: dict) -> list:
    """Human-readable lines: every workload-specific metric, with its unit."""
    values = result["values"]
    ops = op_latencies(result)
    failed_ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    tail = tail_percentile(len(ops))
    rows = [
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB"),
        ("failed_ratio", failed_ratio, "ratio"),
    ]
    if workload == "offline":
        rows += [
            ("offline_audio_s_per_s", values["work_audio_s"] / values["busy_s"], "audio-s/s"),
            ("protect_batch_oom_ratio",
             values["batch_out_of_memory"] / max(result["attempted"], 1), "ratio"),
            ("call_p50_ms", percentile(ops, 50), "ms"),
            (f"call_p{tail:g}_ms", percentile(ops, tail), "ms"),
        ]
    elif workload == "live":
        rows += [
            ("shadow_latency_p50_ms", percentile(ops, 50), "ms"),
            ("shadow_latency_p90_ms", percentile(ops, 90), "ms"),
            ("budget_miss_ratio", values["budget_misses"] / max(result["attempted"], 1), "ratio"),
            ("bench.generator_lag_p90_ms", percentile(values["generator_lag_ms"], 90), "ms"),
        ]
    else:
        loss_step = values["loss_step"]
        losses = values["losses"]
        rows += [
            ("train_examples_per_s", values["examples"] / values["busy_s"], "examples/s"),
            ("train_final_loss", losses[loss_step] if len(losses) > loss_step else float("nan"),
             f"Eq.6@step{loss_step}"),
            ("step_cycle_p50_ms", percentile(ops, 50), "ms"),
            ("optimiser_step_p50_ms", percentile(values["step_ms"], 50), "ms"),
        ]
    lines = [f"{name:34s} {value:14.4f} {unit}" for name, value, unit in rows]
    lines.append(
        f"# samples={len(ops)} attempted={result['attempted']} failed={result['failed']} "
        f"errors={result['errors']} check={result['check']}"
    )
    lines.append("# fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    return lines


def measure(workload: str, args) -> tuple:
    """One workload: (result line fields, report lines)."""
    extra = ("--geometry", args.geometry)
    if args.trace:
        # Two children share the run's time: per-layer numbers are per
        # operation, so half the window measures the same thing.
        half = args.seconds / 2
        # The untraced child only gives the tracing overhead's base; the
        # traced child checks the outputs.
        plain = spawn(workload, args.seed, half, 0, "untraced", extra + ("--skip-check",))
        result = spawn(workload, args.seed, half, 1, "traced", extra)
        layers = per_layer(result, plain)
        lines = [
            f"{name:44s} {value:14.4f} {_unit(name)}"
            for name, value in sorted(layers.items())
        ]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        correct = result["check"]["passed"]
    else:
        setup_samples = [
            spawn(workload, args.seed, args.seconds, 0, f"setup{index}",
                  extra + ("--setup-only",))["setup_s"]
            for index in range(SETUP_PROBES)
        ]
        result = spawn(workload, args.seed, args.seconds, 0, "run", extra)
        setup_samples.append(result["setup_s"])
        values = end_to_end(result, setup_samples)
        lines = report(workload, result, values)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        correct = result["check"]["passed"]
    fields = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    return fields, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="NEC benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run the three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--geometry", choices=("default", "tiny"), default="default",
                        help="NEC geometry; 'tiny' is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        fields, lines = measure(args.workload, args)
        print("\n".join(lines))
        print(json.dumps(fields))
        return 0
    # All three in turn; metric names on the result line get a workload prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        fields, lines = measure(workload, args)
        print(f"## {workload}")
        print("\n".join(lines))
        total["correct"] = total["correct"] and fields["correct"]
        total["attempted"] += fields["attempted"]
        total["failed"] += fields["failed"]
        total["metrics"].update(
            {f"{workload}.{name}": metric for name, metric in fields["metrics"].items()}
        )
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
