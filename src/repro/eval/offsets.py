"""Offset-tolerance study (paper Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.audio.mixing import joint_conversation
from repro.core.overshadow import OffsetPoint, mixed_reference_point, offset_study
from repro.eval.common import (
    ExperimentContext,
    prepare_context,
    run_sharded,
)
from repro.eval.reporting import format_table


@dataclass
class OffsetStudyResult:
    """Cosine distance and SDR vs time/power offsets plus the mixed reference."""

    points: List[OffsetPoint]
    mixed_reference: OffsetPoint

    def at(self, power_coefficient: float) -> List[OffsetPoint]:
        return [
            point
            for point in self.points
            if abs(point.power_coefficient - power_coefficient) < 1e-9
        ]

    def table(self) -> str:
        rows = [
            [point.power_coefficient, point.time_offset_ms, point.cosine_distance, point.sdr_db]
            for point in self.points
        ]
        rows.append(["mixed", "-", self.mixed_reference.cosine_distance, self.mixed_reference.sdr_db])
        return format_table(["a", "offset (ms)", "cosine dist", "SDR (dB)"], rows)


def run_offset_study(
    context: Optional[ExperimentContext] = None,
    time_offsets_ms: Sequence[float] = (0, 50, 100, 200, 300, 400, 500),
    power_coefficients: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    use_oracle_shadow: bool = False,
    seed: int = 0,
    num_workers: Optional[int] = None,
) -> OffsetStudyResult:
    """Fig. 9(c)/(d): sweep the time offset and power coefficient.

    The shadow wave comes from the trained Selector by default; with
    ``use_oracle_shadow=True`` the ideal shadow (background minus mixed
    spectrogram) is used instead, isolating the offset analysis from model
    quality exactly as the paper's own Sec. IV-C2 analysis does (the authors
    use a recorded shadow, not a model prediction, for this figure).

    Every grid point is an independent superposition + two metrics, so
    ``num_workers`` shards the ``(power, offset)`` grid over forked workers
    with bit-identical results in the original sweep order.
    """
    context = context if context is not None else prepare_context(seed=seed)
    config = context.config
    target = context.target_speakers[0]
    other = context.other_speakers[0]
    mixed, target_component, background, _tu, _ou = joint_conversation(
        context.corpus, target, other, duration=config.segment_seconds, seed=seed
    )
    if use_oracle_shadow:
        from repro.core.overshadow import shadow_waveform
        from repro.dsp.stft import magnitude_spectrogram

        mixed_spec = magnitude_spectrogram(
            mixed.data, config.n_fft, config.win_length, config.hop_length
        )
        background_spec = magnitude_spectrogram(
            background.data, config.n_fft, config.win_length, config.hop_length
        )
        shadow_wave = shadow_waveform(mixed, background_spec - mixed_spec, config)
    else:
        shadow_wave = context.system_for(target).protect(mixed).shadow_wave

    # The grid in the same (power outer, offset inner) order as offset_study's
    # own double loop, so the sharded result list matches the serial sweep.
    grid = [
        (coefficient, offset_ms)
        for coefficient in power_coefficients
        for offset_ms in time_offsets_ms
    ]

    def measure(_index: int, point) -> OffsetPoint:
        coefficient, offset_ms = point
        return offset_study(
            mixed,
            shadow_wave,
            background,
            time_offsets_ms=[offset_ms],
            power_coefficients=[coefficient],
        )[0]

    points = run_sharded(measure, grid, num_workers=num_workers)
    return OffsetStudyResult(
        points=points, mixed_reference=mixed_reference_point(mixed, background)
    )
