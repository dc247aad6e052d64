"""Serving benchmark: shadow latency and throughput under concurrent streams.

The streaming benchmark (:func:`repro.eval.runtime.run_streaming_rtf_analysis`)
measures the *pipeline primitives*; this one measures the *service*: a
registry-bootstrapped :class:`~repro.serving.service.ProtectionService` with a
live tick thread, fed by 1 / 8 / 64 concurrent sessions, reporting the
percentile shadow latency a client actually observes (feed of the completing
chunk → shadow collected) and the aggregate throughput in audio-seconds per
wall-second.

Two correctness gates ride along and are emitted into
``BENCH_serving.json`` for CI:

- **serving-vs-direct equivalence** — every session's shadow waves must be
  bit-identical to a dedicated immediate-mode
  :class:`~repro.core.pipeline.StreamingProtector` fed the same chunks;
- **registry round trip** — the service is built by saving the models to a
  registry and loading them back in a *fresh* :class:`EnrollmentRegistry`,
  while the direct reference runs on the original pre-save system, so the
  same bit-equality also pins save → load → protect.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem
from repro.eval.reporting import format_table
from repro.eval.runtime import (
    STREAMING_LATENCY_BUDGET_MS,
    bit_identical,
    direct_stream_waves,
    serve_streams,
)
from repro.serving.registry import EnrollmentRegistry
from repro.serving.service import ProtectionService


@dataclass
class ServingPoint:
    """One measured concurrency level of the serving benchmark."""

    num_streams: int
    num_tenants: int
    segments_total: int
    p50_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    max_latency_ms: float
    throughput_audio_s_per_s: float     # total protected audio / wall-clock
    rtf: float                          # wall-clock / total protected audio
    mean_batch_size: float              # segments coalesced per non-empty tick
    budget_violations: int              # per-feed budget misses across sessions
    equivalent: bool                    # bit-identical to direct protectors

    @property
    def real_time(self) -> bool:
        return self.rtf < 1.0


@dataclass
class ServingResult:
    """The multi-tenant serving benchmark (``BENCH_serving.json``)."""

    sample_rate: int
    segment_samples: int
    latency_budget_ms: float
    registry_round_trip: bool           # service ran on save->fresh-load weights
    points: List[ServingPoint] = field(default_factory=list)

    @property
    def all_equivalent(self) -> bool:
        return all(point.equivalent for point in self.points)

    @property
    def budget_violations(self) -> int:
        return sum(point.budget_violations for point in self.points)

    def table(self) -> str:
        rows = [
            [
                point.num_streams,
                point.num_tenants,
                f"{point.p50_latency_ms:.1f}",
                f"{point.p99_latency_ms:.1f}",
                f"{point.max_latency_ms:.1f}",
                f"{point.throughput_audio_s_per_s:.2f}",
                f"{point.rtf:.3f}",
                f"{point.mean_batch_size:.1f}",
                point.budget_violations,
                str(point.equivalent),
            ]
            for point in self.points
        ]
        return format_table(
            [
                "streams",
                "tenants",
                "p50 (ms)",
                "p99 (ms)",
                "max (ms)",
                "audio s/s",
                "RTF",
                "batch",
                "over budget",
                "exact",
            ],
            rows,
        )

    def to_dict(self) -> Dict:
        """JSON-ready payload for the ``BENCH_serving.json`` perf artifact."""
        return {
            "benchmark": "serving",
            "sample_rate": self.sample_rate,
            "segment_samples": self.segment_samples,
            "latency_budget_ms": self.latency_budget_ms,
            "registry_round_trip": self.registry_round_trip,
            "all_equivalent": self.all_equivalent,
            "budget_violations": self.budget_violations,
            "points": [asdict(point) for point in self.points],
        }


def run_serving_analysis(registry_root: Optional[str] = None) -> ServingResult:
    """Measure the protection service end to end at 1, 8 and 64 streams.

    Setup (once): a system is built and four tenants are enrolled into a
    *persistent* registry (``registry_root`` or a temporary directory); the
    Selector and encoder are checkpointed; then a **fresh** registry and
    service are constructed purely from disk.  All measurements therefore run
    on round-tripped weights and d-vectors — the reference pass below proves
    they did not drift by a bit.

    At each level N, N sessions (tenants round-robin) each feed two
    one-segment chunks through the live service (:func:`serve_streams`) —
    tick thread running, sessions collecting as results complete, every feed
    held to :data:`STREAMING_LATENCY_BUDGET_MS`.  Each segment's **shadow
    latency** is the wall-clock from the feed that completed it to its result
    being collected; the point reports p50/p99/mean/max over all segments
    plus the aggregate throughput.  A service-free pass
    (:func:`direct_stream_waves`) feeds the same chunks to one immediate-mode
    ``StreamingProtector`` per stream built on the original pre-save system;
    ``equivalent`` asserts bit-identical shadows.
    """
    config = NECConfig.default().validate()
    rng = np.random.default_rng(0)
    segment = config.segment_samples
    segments_per_stream = 2
    stream_counts = (1, 8, 64)

    system = NECSystem(config, seed=0)
    tenant_ids = [f"tenant{index:02d}" for index in range(4)]
    references = {
        tenant_id: [AudioSignal(rng.normal(scale=0.1, size=segment), config.sample_rate)]
        for tenant_id in tenant_ids
    }

    with tempfile.TemporaryDirectory() as tmp:
        root = registry_root if registry_root is not None else os.path.join(tmp, "registry")
        bootstrap = EnrollmentRegistry(root, config=config)
        bootstrap.save_models(system)
        for tenant_id in tenant_ids:
            bootstrap.enroll(tenant_id, references[tenant_id], system.encoder)
        # Everything below runs on a cold-start reload: fresh registry object,
        # weights and d-vectors read back from disk.
        registry = EnrollmentRegistry(root)
        round_trip = registry.models_saved and registry.tenants() == sorted(tenant_ids)

        max_streams = max(stream_counts)
        stream_tenants = [tenant_ids[index % len(tenant_ids)] for index in range(max_streams)]
        stream_audio = [
            rng.normal(scale=0.1, size=segments_per_stream * segment)
            for _ in range(max_streams)
        ]

        points: List[ServingPoint] = []
        for count in stream_counts:
            tenants, audio = stream_tenants[:count], stream_audio[:count]
            # -- direct reference: the pre-save system with the registry's
            # (round-tripped) d-vector of each stream's tenant.
            direct_systems = []
            for tenant_id in tenants:
                direct = NECSystem(config, encoder=system.encoder, selector=system.selector)
                direct.set_embedding(bootstrap.embedding(tenant_id))
                direct_systems.append(direct)
            reference_waves = direct_stream_waves(direct_systems, audio, segment)

            # -- the service pass: live tick thread, per-segment latency.
            with ProtectionService(
                registry, latency_budget_ms=STREAMING_LATENCY_BUDGET_MS
            ) as service:
                service_waves, latencies_ms, elapsed, violations = serve_streams(
                    service, tenants, audio, segment
                )

            total_segments = count * segments_per_stream
            audio_seconds = total_segments * segment / config.sample_rate
            latencies = np.asarray(latencies_ms)
            points.append(
                ServingPoint(
                    num_streams=count,
                    num_tenants=min(count, len(tenant_ids)),
                    segments_total=total_segments,
                    p50_latency_ms=float(np.percentile(latencies, 50)),
                    p99_latency_ms=float(np.percentile(latencies, 99)),
                    mean_latency_ms=float(latencies.mean()),
                    max_latency_ms=float(latencies.max()),
                    throughput_audio_s_per_s=audio_seconds / elapsed if elapsed > 0 else float("inf"),
                    rtf=elapsed / audio_seconds if audio_seconds > 0 else float("inf"),
                    mean_batch_size=service.stats.mean_batch_size,
                    budget_violations=violations,
                    equivalent=bit_identical(reference_waves, service_waves)[0],
                )
            )

    return ServingResult(
        sample_rate=config.sample_rate,
        segment_samples=segment,
        latency_budget_ms=STREAMING_LATENCY_BUDGET_MS,
        registry_round_trip=bool(round_trip),
        points=points,
    )
