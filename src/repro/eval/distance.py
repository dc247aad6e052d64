"""Distance studies: waveforms, loudness and SONR vs distance (Figs. 14, 15)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.audio.signal import AudioSignal
from repro.channel.propagation import propagate, spl_at_distance
from repro.channel.recorder import Recorder, SceneSource
from repro.eval.common import (
    ExperimentContext,
    prepare_context,
    run_sharded,
)
from repro.eval.reporting import format_table
from repro.metrics.sonr import sonr


# ---------------------------------------------------------------------------
# Fig. 14 — waveform of mixed audio vs Bob's sole speech at several distances
# ---------------------------------------------------------------------------
@dataclass
class WaveformDistancePoint:
    distance_m: float
    target_rms: float
    mixed_rms: float

    @property
    def target_share(self) -> float:
        """Fraction of the mixed RMS contributed by the target speaker."""
        if self.mixed_rms <= 0:
            return 0.0
        return self.target_rms / self.mixed_rms


@dataclass
class WaveformDistanceResult:
    points: List[WaveformDistancePoint] = field(default_factory=list)

    def table(self) -> str:
        rows = [[p.distance_m, p.target_rms, p.mixed_rms, p.target_share] for p in self.points]
        return format_table(["distance (m)", "Bob RMS", "mixed RMS", "Bob share"], rows)


def run_waveform_distance_study(
    context: Optional[ExperimentContext] = None,
    distances_m: Sequence[float] = (0.5, 1.0, 2.0, 3.0),
    seed: int = 0,
) -> WaveformDistanceResult:
    """Fig. 14: Bob's contribution to the mixture shrinks with distance."""
    context = context if context is not None else prepare_context(train=False, seed=seed)
    config = context.config
    corpus = context.corpus
    target = context.target_speakers[0]
    other = context.other_speakers[0]
    bob = corpus.utterance(target, seed=seed, duration=2.0).audio
    alice = corpus.utterance(other, seed=seed + 3, duration=2.0).audio
    result = WaveformDistanceResult()
    for distance in distances_m:
        bob_at_recorder = propagate(bob, distance)
        alice_at_recorder = propagate(alice, 0.05)
        mixed = bob_at_recorder + alice_at_recorder
        result.points.append(
            WaveformDistancePoint(
                distance_m=float(distance),
                target_rms=bob_at_recorder.rms(),
                mixed_rms=mixed.rms(),
            )
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 15(a) — loudness vs distance
# ---------------------------------------------------------------------------
@dataclass
class LoudnessPoint:
    distance_m: float
    target_spl: float
    background_spl: float
    environment_spl: float


@dataclass
class LoudnessResult:
    points: List[LoudnessPoint] = field(default_factory=list)

    def table(self) -> str:
        rows = [[p.distance_m, p.target_spl, p.background_spl, p.environment_spl] for p in self.points]
        return format_table(["distance (m)", "Bob (dB SPL)", "Alice (dB SPL)", "Env (dB SPL)"], rows)


def run_loudness_study(
    distances_m: Sequence[float] = (0.05, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0),
    speech_spl_db: float = 77.0,
    environment_spl_db: float = 39.8,
) -> LoudnessResult:
    """Fig. 15(a): Bob's SPL decays with distance; Alice records herself at 77 dB."""
    result = LoudnessResult()
    for distance in distances_m:
        result.points.append(
            LoudnessPoint(
                distance_m=float(distance),
                target_spl=spl_at_distance(
                    speech_spl_db, distance, noise_floor_db=environment_spl_db
                ),
                background_spl=speech_spl_db,
                environment_spl=environment_spl_db,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 15(b) — SONR vs distance, with and without NEC
# ---------------------------------------------------------------------------
@dataclass
class SonrPoint:
    distance_m: float
    sonr_without_nec: float
    sonr_with_nec: float


@dataclass
class SonrResult:
    points: List[SonrPoint] = field(default_factory=list)

    def nec_gain_at(self, distance_m: float) -> float:
        for point in self.points:
            if abs(point.distance_m - distance_m) < 1e-9:
                return point.sonr_with_nec - point.sonr_without_nec
        raise KeyError(f"no SONR point at {distance_m} m")

    def table(self) -> str:
        rows = [[p.distance_m, p.sonr_without_nec, p.sonr_with_nec] for p in self.points]
        return format_table(["distance (m)", "SONR no NEC (dB)", "SONR with NEC (dB)"], rows)


def run_sonr_study(
    context: Optional[ExperimentContext] = None,
    distances_m: Sequence[float] = (0.5, 1.0, 2.0),
    device: str = "Moto Z4",
    seed: int = 0,
    num_workers: Optional[int] = None,
) -> SonrResult:
    """Fig. 15(b): how much of Bob leaks into Alice's recorder vs distance.

    Bob (and the NEC ultrasonic speaker he carries) stand ``distance_m`` away
    from Alice's phone; Alice speaks next to her own phone.  The recording is
    simulated through the full channel (propagation, carrier demodulation via
    the microphone non-linearity); SONR compares the recording against Bob's
    received contribution.

    Each sweep point is a pure function of ``(distance, protection, seed)``,
    so ``num_workers`` shards the distances over forked workers with
    bit-identical results (the shadow is computed once, pre-fork).
    """
    context = context if context is not None else prepare_context(seed=seed)
    config = context.config
    corpus = context.corpus
    target = context.target_speakers[0]
    other = context.other_speakers[0]
    duration = config.segment_seconds
    bob = corpus.utterance(target, seed=seed, duration=duration).audio
    alice = corpus.utterance(other, seed=seed + 3, duration=duration).audio
    system = context.system_for(target)
    # The shadow depends only on the mixed audio, not the recording distance:
    # compute it once and re-record it at every distance instead of
    # re-running protect per sweep point.
    protection = system.protect(bob + alice)

    def measure(_index: int, distance: float) -> SonrPoint:
        recorder_off = Recorder(device, seed=seed)
        recorder_on = Recorder(device, seed=seed)
        bob_only_recorder = Recorder(device, seed=seed)
        recorded_off = system.record_over_the_air(
            bob, alice, recorder_off, distance_m=distance, enabled=False
        )
        recorded_on = system.record_over_the_air(
            bob, alice, recorder_on, distance_m=distance, enabled=True, protection=protection
        )
        bob_received = bob_only_recorder.record_scene([SceneSource(bob, distance)])
        return SonrPoint(
            distance_m=float(distance),
            sonr_without_nec=sonr(recorded_off.data, bob_received.data),
            sonr_with_nec=sonr(recorded_on.data, bob_received.data),
        )

    result = SonrResult()
    result.points = run_sharded(measure, distances_m, num_workers=num_workers)
    return result
