"""Persistent perf trajectory: every BENCH kernel re-timed into one artifact.

Each run appends one labelled entry to ``BENCH_trajectory.json`` (override the
path with ``BENCH_TRAJECTORY_JSON``) holding the full kernel table — the three
evaluation fast-path kernels plus the precision (``float32_inference``) and
parallelism (``sharded_eval``) kernels — so the repo accumulates a per-PR
record of where the wall-clock went.  CI uploads the file and fails the build
if any kernel's ``equivalent`` flag is false.

Speedup gates here are deliberately conservative: the equivalence flags are
the hard contract (they are timing-noise-free); latency targets with teeth
live in the dedicated benchmark files.  The parallel shard speedup is only
asserted on machines with >= 4 cores — on fewer cores the fork overhead makes
the sharded path slower by construction, while its bit-stability (the flag)
must hold everywhere.
"""

import json
import os
import subprocess

from repro.eval.runtime import run_perf_trajectory

_DEFAULT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_trajectory.json"
)


def _revision_label():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return sha or "unlabeled"
    except (OSError, subprocess.SubprocessError):
        return "unlabeled"


def test_perf_trajectory(benchmark):
    artifact_path = os.environ.get("BENCH_TRAJECTORY_JSON", _DEFAULT_ARTIFACT)
    entry = benchmark.pedantic(
        lambda: run_perf_trajectory(
            path=artifact_path, label=_revision_label(), repetitions=3
        ),
        rounds=1,
        iterations=1,
    )

    print(f"\n[Perf trajectory] appended entry '{entry['label']}' -> {artifact_path}")
    for kernel in entry["kernels"]:
        print(
            f"  {kernel['name']:>18}: {kernel['reference_ms']:8.2f} ms -> "
            f"{kernel['fast_ms']:8.2f} ms  ({kernel['speedup']:.2f}x, "
            f"equivalent={kernel['equivalent']})"
        )

    # The artifact on disk must be a well-formed, growing trajectory.
    with open(artifact_path) as handle:
        payload = json.load(handle)
    assert payload["benchmark"] == "perf_trajectory"
    assert payload["entries"], "trajectory must hold at least this run's entry"
    assert payload["entries"][-1]["label"] == entry["label"]

    # Hard contract: every kernel's equivalence gate holds on every run.
    assert entry["all_equivalent"], [
        kernel["name"] for kernel in entry["kernels"] if not kernel["equivalent"]
    ]

    # The float32 mode must actually be a fast path, not just a tolerable one.
    by_name = {kernel["name"]: kernel for kernel in entry["kernels"]}
    assert by_name["float32_inference"]["speedup"] >= 1.2, (
        f"float32 inference no longer pays for its tolerance: "
        f"{by_name['float32_inference']['speedup']:.2f}x"
    )

    # Parallel speedup only has meaning with cores to run on; bit-stability
    # (the equivalent flag, asserted above) must hold at any core count.
    if (os.cpu_count() or 1) >= 4:
        assert by_name["sharded_eval"]["speedup"] >= 2.0, (
            f"4-way sharding below 2x on a >=4-core machine: "
            f"{by_name['sharded_eval']['speedup']:.2f}x"
        )

    # The minibatched training step must beat N looped steps convincingly —
    # this is the whole point of the frequency-domain batch kernel (a single
    # core is enough: the win is memory traffic, not parallelism).
    assert by_name["train_minibatch"]["speedup"] >= 2.0, (
        f"batched training step below 2x over the looped reference: "
        f"{by_name['train_minibatch']['speedup']:.2f}x"
    )
