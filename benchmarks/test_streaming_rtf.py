"""Real-time streaming fast path: RTF per chunk size, stream scaling, budget.

Drives the ring-buffer :class:`~repro.core.pipeline.StreamingProtector` at the
paper's deployment timing (16 kHz, hop 160, 1 s segments), asserts the
end-to-end latency budget (the paper's ~300 ms overshadowing tolerance) and
the sample-exact equivalence between the streaming and whole-clip paths, and
writes the numbers to ``BENCH_streaming.json`` — uploaded by CI (override the
path with ``BENCH_STREAMING_JSON``).

The headline metrics:

- real-time factor < 1 for >= 8 concurrent streams (the multi-tenant serving
  floor), plus the RTF-linear projection of per-core stream capacity;
- zero feeds over the latency budget at any measured chunk size;
- cross-stream micro-batching (:class:`~repro.core.selector.StreamBatch`)
  bit-identical to per-stream sequential inference, at bounded overhead.  The
  coalescing tick runs its chunks serially on the calling thread (BLAS owns
  the parallelism), and ``Conv2d.infer`` already runs one row at a time, so
  a tick costs about what the per-stream passes cost; the gate only rules
  out a pathological slowdown from the scheduling hop, on any core count.
"""

import json
import os

from repro.eval.runtime import run_streaming_rtf_analysis

_DEFAULT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_streaming.json"
)

#: The serving floor the benchmark must demonstrate (acceptance criterion).
MIN_REALTIME_STREAMS = 8
#: The coalesced path must at least stay in the same league as sequential
#: inference (no pathological slowdown from the scheduling hop).
SPEEDUP_FLOOR = 0.6


def _gates_met(result):
    return (
        result.budget_violations == 0
        and result.max_streams_rtf_below_1 >= MIN_REALTIME_STREAMS
        and result.scaling(MIN_REALTIME_STREAMS).speedup >= SPEEDUP_FLOOR
    )


def _analysis_with_retry():
    """One retry if a timing gate narrowly misses (shared-machine noise)."""
    result = run_streaming_rtf_analysis(repetitions=2)
    if not _gates_met(result):
        result = run_streaming_rtf_analysis(repetitions=4)
    return result


def test_streaming_rtf(benchmark):
    result = benchmark.pedantic(_analysis_with_retry, rounds=1, iterations=1)
    print("\n[Streaming fast path] chunk RTF and stream scaling:")
    print(result.table())
    print(
        f"  max streams at RTF<1 (measured): {result.max_streams_rtf_below_1}, "
        f"projected per core: {result.projected_max_streams_per_core}"
    )

    artifact_path = os.environ.get("BENCH_STREAMING_JSON", _DEFAULT_ARTIFACT)
    with open(artifact_path, "w") as handle:
        json.dump(result.to_dict(), handle, indent=2)
    print(f"  wrote perf artifact: {artifact_path}")

    # Hard contract: streaming output is sample-exact against the whole-clip
    # path for every chunk size, and coalesced inference is bit-identical to
    # per-stream sequential inference.  Timing noise cannot touch these.
    assert result.all_equivalent, "streaming path diverged from the batch engine"

    # The latency budget (paper's overshadowing tolerance) holds per feed.
    assert result.budget_violations == 0, (
        f"{result.budget_violations} feeds exceeded "
        f"{result.latency_budget_ms:.0f} ms"
    )

    # The serving floor: >= 8 concurrent streams under real time.
    assert result.max_streams_rtf_below_1 >= MIN_REALTIME_STREAMS, (
        f"only {result.max_streams_rtf_below_1} streams under RTF 1"
    )

    # Micro-batching costs bounded overhead (bit-stability is asserted
    # unconditionally above).
    point = result.scaling(MIN_REALTIME_STREAMS)
    assert point.speedup >= SPEEDUP_FLOOR, (
        f"coalescing pathologically slow: {point.speedup:.2f}x"
    )
