"""The end-to-end NEC system: enroll, protect, broadcast, record.

Shadow generation runs on a **batched inference engine**: an arbitrary-length
clip is split into segments, every segment's spectrogram is stacked into one
``(N, 1, T, F)`` batch, and a single gradient-free Selector forward pass
produces all shadow spectrograms at once (:meth:`NECSystem.protect`).  The
same engine powers :meth:`NECSystem.protect_batch` (many clips per call, for
serving) and :class:`StreamingProtector` (chunked audio in, shadow waves out,
with carried-over state).  The segment-at-a-time reference path is kept as
:meth:`NECSystem.protect_looped`; both paths are numerically identical and the
equivalence is pinned by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.audio.signal import AudioSignal, require_finite
from repro.channel.recorder import Recorder, SceneSource
from repro.channel.ultrasound import UltrasoundSpeaker
from repro.core.config import NECConfig
from repro.core.encoder import SpeakerEncoder, SpectralEncoder
from repro.core.overshadow import (
    apply_offsets,
    shadow_waveform,
    superpose_spectrograms,
)
from repro.core.selector import Selector, StreamBatch, StreamRequest
from repro.dsp.stft import (
    StreamingISTFT,
    StreamingSTFT,
    batch_istft,
    batch_stft,
    magnitude,
    magnitude_spectrogram,
)
from repro.nn.precision import active_policy


@dataclass
class ProtectionResult:
    """Everything NEC produces for one mixed-audio segment."""

    mixed_audio: AudioSignal
    mixed_spectrogram: np.ndarray       # (F, T)
    shadow_spectrogram: np.ndarray      # (F, T), signed
    shadow_wave: AudioSignal
    record_spectrogram: np.ndarray      # predicted S_mixed + S_shadow

    @property
    def predicted_suppression_db(self) -> float:
        """Predicted energy reduction of the recording vs the mixture (dB)."""
        mixed_energy = float(np.sum(self.mixed_spectrogram**2))
        record_energy = float(np.sum(self.record_spectrogram**2))
        if record_energy <= 0 or mixed_energy <= 0:
            return 0.0
        return 10.0 * float(np.log10(mixed_energy / record_energy))


class NECSystem:
    """Neural Enhanced Cancellation, end to end.

    Typical usage::

        system = NECSystem(config)
        system.enroll(corpus.reference_audios("spk000"))
        result = system.protect(mixed_audio)          # shadow wave for broadcast
        recorded = system.superpose(mixed_audio, result)   # ideal superposition
        # or, over the simulated air channel:
        recorded = system.record_over_the_air(bob, alice, recorder, distance_m=1.0)
    """

    def __init__(
        self,
        config: Optional[NECConfig] = None,
        encoder: Optional[SpeakerEncoder] = None,
        selector: Optional[Selector] = None,
        seed: int = 0,
    ) -> None:
        self.config = (config or NECConfig.default()).validate()
        self.encoder = encoder if encoder is not None else SpectralEncoder(self.config, seed=seed)
        self.selector = selector if selector is not None else Selector(self.config, seed=seed)
        self.speaker = UltrasoundSpeaker(
            carrier_hz=self.config.carrier_khz * 1000.0,
            power_coefficient=self.config.power_coefficient,
        )
        self._embedding: Optional[np.ndarray] = None

    # -- enrollment -----------------------------------------------------------
    def enroll(self, reference_audios: Sequence[AudioSignal | np.ndarray]) -> np.ndarray:
        """Enroll the protected (target) speaker from reference audio.

        The paper requires only three 3-second clips; fewer are accepted but a
        warning-level check enforces at least one.
        """
        if not reference_audios:
            raise ValueError("enrollment requires at least one reference audio")
        for audio in reference_audios:
            require_finite(audio.data if isinstance(audio, AudioSignal) else audio, "reference audio")
        self._embedding = self.encoder.embed(reference_audios)
        return self._embedding

    def set_embedding(self, embedding: np.ndarray) -> np.ndarray:
        """Install a previously computed d-vector without re-running enrollment.

        This is the restore path of the multi-tenant enrollment registry
        (:mod:`repro.serving`): the registry persists each tenant's d-vector
        at enrollment time, and a restarted service re-installs it verbatim —
        protection after a reload is bit-identical to protection before it
        because the embedding bytes are exactly the ones :meth:`enroll`
        produced.
        """
        embedding = require_finite(
            np.asarray(embedding, dtype=np.float64).reshape(-1), "embedding"
        )
        if embedding.size != self.config.embedding_dim:
            raise ValueError(
                f"expected a {self.config.embedding_dim}-dim embedding, "
                f"got {embedding.size}"
            )
        self._embedding = embedding
        return self._embedding

    @property
    def is_enrolled(self) -> bool:
        return self._embedding is not None

    @property
    def embedding(self) -> np.ndarray:
        if self._embedding is None:
            raise RuntimeError("no speaker enrolled; call enroll() first")
        return self._embedding

    # -- shadow generation ---------------------------------------------------------
    def _segments(self, audio: AudioSignal) -> List[AudioSignal]:
        """Split audio into segment-sized chunks (the last one zero-padded)."""
        segment = self.config.segment_samples
        chunks: List[AudioSignal] = []
        for start in range(0, max(audio.num_samples, 1), segment):
            chunk = AudioSignal(audio.data[start : start + segment], audio.sample_rate)
            if chunk.num_samples == 0:
                break
            chunks.append(chunk.fit_to(segment))
        return chunks or [audio.fit_to(segment)]

    def _check_sample_rate(self, audio: AudioSignal) -> None:
        if audio.sample_rate != self.config.sample_rate:
            raise ValueError(
                f"expected {self.config.sample_rate} Hz audio, got {audio.sample_rate}"
            )

    def protect_segment(self, mixed_segment: AudioSignal) -> ProtectionResult:
        """Run the Selector on one segment and build the shadow wave."""
        self._check_sample_rate(mixed_segment)
        mixed_spec = magnitude_spectrogram(
            mixed_segment.data,
            self.config.n_fft,
            self.config.win_length,
            self.config.hop_length,
        )
        shadow_spec = self.selector.shadow_spectrogram(mixed_spec, self.embedding)
        record_spec = superpose_spectrograms(mixed_spec, shadow_spec)
        shadow_wave = shadow_waveform(mixed_segment, shadow_spec, self.config)
        return ProtectionResult(
            mixed_audio=mixed_segment,
            mixed_spectrogram=mixed_spec,
            shadow_spectrogram=shadow_spec,
            shadow_wave=shadow_wave,
            record_spectrogram=record_spec,
        )

    def protect_segment_matrix(
        self, segment_matrix: np.ndarray, max_batch_segments: int = 16
    ) -> List[ProtectionResult]:
        """The batched engine core: protect ``(N, segment_samples)`` stacked segments.

        One complex STFT and one Selector forward pass cover the whole batch,
        chunked at ``max_batch_segments`` to bound the STFT and activation
        batch (the convolutions' im2col scratch is one row's whatever the
        chunk: about 55 MB per thread at the default geometry).
        Returns one full-segment :class:`ProtectionResult` per row, each
        bit-identical to :meth:`protect_segment` on that row (under the default
        float64 policy; under a reduced-precision policy the whole engine runs
        in the policy's dtype, gated by ``tests/test_precision.py``).
        """
        policy = active_policy()
        matrix = policy.real(np.asarray(segment_matrix))
        if matrix.ndim != 2 or matrix.shape[1] != self.config.segment_samples:
            raise ValueError(
                f"expected a (N, {self.config.segment_samples}) segment matrix, "
                f"got shape {matrix.shape}"
            )
        embedding = self.embedding  # fail fast if not enrolled
        results: List[ProtectionResult] = []
        batch_size = max(max_batch_segments, 1)
        for start in range(0, matrix.shape[0], batch_size):
            chunk = matrix[start : start + batch_size]
            stfts = batch_stft(
                chunk, self.config.n_fft, self.config.win_length, self.config.hop_length
            )  # (n, F, T) complex
            mixed_specs = magnitude(stfts)
            shadow_specs = self.selector.shadow_spectrogram_batch(mixed_specs, embedding)
            record_specs = superpose_spectrograms(mixed_specs, shadow_specs)
            # One batched iSTFT inverts every shadow of the chunk at once.
            # Each row of batch_istft equals istft of that row bit for bit
            # (pinned by the test suite), so this matches the per-row
            # shadow_waveform_from_stft loop it replaced exactly while
            # keeping the inversion out of Python-level iteration.
            phases = np.exp(1j * np.angle(stfts))
            waves = batch_istft(
                shadow_specs * phases,
                self.config.win_length,
                self.config.hop_length,
                length=self.config.segment_samples,
            )
            for row in range(chunk.shape[0]):
                results.append(
                    ProtectionResult(
                        mixed_audio=AudioSignal(chunk[row], self.config.sample_rate),
                        mixed_spectrogram=mixed_specs[row],
                        shadow_spectrogram=shadow_specs[row],
                        shadow_wave=AudioSignal(waves[row], self.config.sample_rate),
                        record_spectrogram=record_specs[row],
                    )
                )
        return results

    def _assemble(
        self, mixed_audio: AudioSignal, results: Sequence[ProtectionResult]
    ) -> ProtectionResult:
        """Stitch per-segment results back into one clip-level result."""
        if len(results) == 1:
            single = results[0]
            trimmed_wave = single.shadow_wave.trim_to(
                min(mixed_audio.num_samples, single.shadow_wave.num_samples)
            )
            return ProtectionResult(
                mixed_audio=mixed_audio,
                mixed_spectrogram=single.mixed_spectrogram,
                shadow_spectrogram=single.shadow_spectrogram,
                shadow_wave=trimmed_wave,
                record_spectrogram=single.record_spectrogram,
            )
        shadow = np.concatenate([result.shadow_wave.data for result in results])
        shadow = shadow[: mixed_audio.num_samples]
        mixed_spec = np.concatenate([result.mixed_spectrogram for result in results], axis=1)
        shadow_spec = np.concatenate([result.shadow_spectrogram for result in results], axis=1)
        record_spec = np.concatenate([result.record_spectrogram for result in results], axis=1)
        return ProtectionResult(
            mixed_audio=mixed_audio,
            mixed_spectrogram=mixed_spec,
            shadow_spectrogram=shadow_spec,
            shadow_wave=AudioSignal(shadow, self.config.sample_rate),
            record_spectrogram=record_spec,
        )

    def _segment_matrix(self, mixed_audio: AudioSignal) -> np.ndarray:
        """The clip's segments stacked into a ``(N, segment_samples)`` matrix."""
        self._check_sample_rate(mixed_audio)
        require_finite(mixed_audio.data, "mixed audio")
        return np.stack([segment.data for segment in self._segments(mixed_audio)])

    def protect(self, mixed_audio: AudioSignal) -> ProtectionResult:
        """Protect an arbitrary-length mixed audio via the batched engine.

        All segments go through one stacked STFT and one Selector forward pass;
        the result is numerically identical to :meth:`protect_looped` (the
        original segment-at-a-time path) at a multiple of its throughput.
        """
        results = self.protect_segment_matrix(self._segment_matrix(mixed_audio))
        return self._assemble(mixed_audio, results)

    def protect_looped(self, mixed_audio: AudioSignal) -> ProtectionResult:
        """Reference implementation: protect one segment at a time.

        Kept as the numerical ground truth the batched engine is verified
        against, and as the baseline of the batched-vs-looped benchmark.
        """
        results = [self.protect_segment(segment) for segment in self._segments(mixed_audio)]
        return self._assemble(mixed_audio, results)

    def protect_batch(
        self,
        mixed_audios: Sequence[AudioSignal],
        max_batch_segments: int = 16,
    ) -> List[ProtectionResult]:
        """Protect many clips in one call — the serving entry point.

        Segments of *all* clips are stacked into one matrix so short clips
        share forward passes instead of each paying a full one; the results
        are then split and reassembled per clip.  ``protect_batch([a, b])``
        returns exactly ``[protect(a), protect(b)]``.
        """
        if not mixed_audios:
            return []
        matrices = [self._segment_matrix(audio) for audio in mixed_audios]
        stacked = np.concatenate(matrices, axis=0)
        segment_results = self.protect_segment_matrix(
            stacked, max_batch_segments=max_batch_segments
        )
        assembled: List[ProtectionResult] = []
        offset = 0
        for audio, matrix in zip(mixed_audios, matrices):
            count = matrix.shape[0]
            assembled.append(self._assemble(audio, segment_results[offset : offset + count]))
            offset += count
        return assembled

    # -- recording models --------------------------------------------------------
    def superpose(
        self,
        mixed_audio: AudioSignal,
        protection: Optional[ProtectionResult] = None,
        time_offset_s: float = 0.0,
        power_coefficient: float = 1.0,
    ) -> AudioSignal:
        """Ideal digital superposition of mixed audio and shadow wave (Eq. 11).

        This is the recording model used by the paper's System Benchmark: the
        shadow arrives with a configurable time/power offset but without the
        ultrasound channel in between.
        """
        protection = protection if protection is not None else self.protect(mixed_audio)
        return apply_offsets(
            mixed_audio,
            protection.shadow_wave,
            time_offset_s=time_offset_s,
            power_coefficient=power_coefficient,
        )

    def broadcast(self, protection: ProtectionResult) -> AudioSignal:
        """AM-modulate the shadow wave onto the ultrasonic carrier."""
        return self.speaker.broadcast(protection.shadow_wave)

    def record_over_the_air(
        self,
        target_audio: AudioSignal,
        background_audio: Optional[AudioSignal],
        recorder: Recorder,
        distance_m: float = 1.0,
        nec_distance_m: Optional[float] = None,
        processing_delay_s: float = 0.0,
        enabled: bool = True,
        protection: Optional[ProtectionResult] = None,
    ) -> AudioSignal:
        """Record the full scene at a (simulated) smartphone.

        The target speaker and the NEC ultrasonic speaker are co-located (Bob
        carries the device, as in the paper's Fig. 12); the optional background
        speaker is at the recorder's position (Alice records herself).  With
        ``enabled=False`` the same scene is recorded without NEC — the "mixed"
        baseline of the evaluation.

        ``protection`` lets callers supply a precomputed shadow for the scene's
        target+background mix (it does not depend on the recording geometry, so
        e.g. a distance sweep computes it once — via the eval harness's batched
        driver — and re-records the same shadow at every distance).
        """
        sources: List[SceneSource] = [SceneSource(target_audio, distance_m, label="target")]
        if background_audio is not None:
            sources.append(SceneSource(background_audio, 0.05, label="background"))
        if enabled:
            if protection is None:
                nec_mix = (
                    target_audio if background_audio is None else target_audio + background_audio
                )
                protection = self.protect(nec_mix)
            broadcast = self.broadcast(protection)
            sources.append(
                SceneSource(
                    broadcast,
                    nec_distance_m if nec_distance_m is not None else distance_m,
                    is_ultrasound=True,
                    carrier_khz=self.config.carrier_khz,
                    extra_delay_s=processing_delay_s,
                    label="nec",
                )
            )
        return recorder.record_scene(sources)


@dataclass
class StreamLatencyStats:
    """Samples-in → shadow-out accounting of one streaming session.

    Every :meth:`StreamingProtector.feed` (and the final flush) records its
    wall-clock; every emitted segment records how many samples had been fed
    past its completion point before its shadow came out (zero when the shadow
    is emitted inside the very feed that completed the segment; positive under
    deferred :class:`~repro.core.selector.StreamBatch` scheduling).  The
    algorithmic floor on top of that is always one segment of lookahead — the
    Selector needs the whole segment spectrogram before any shadow exists.

    ``budget_ms`` is the asserted per-feed budget: a feed (or flush) whose
    wall-clock exceeds it counts a violation.  The streaming benchmark gates
    on ``budget_violations == 0``.  Every statistic is a running counter, so
    a session's stats stay the same size however long it streams.
    """

    budget_ms: Optional[float] = None
    feeds: int = 0
    total_feed_ms: float = 0.0
    worst_feed_ms: float = 0.0
    budget_violations: int = 0
    emits: int = 0
    worst_emit_latency_samples: int = 0

    @property
    def mean_feed_ms(self) -> float:
        return self.total_feed_ms / self.feeds if self.feeds else 0.0

    def record_feed(self, elapsed_ms: float) -> None:
        self.feeds += 1
        self.total_feed_ms += elapsed_ms
        self.worst_feed_ms = max(self.worst_feed_ms, elapsed_ms)
        if self.budget_ms is not None and elapsed_ms > self.budget_ms:
            self.budget_violations += 1

    def record_emit(self, extra_samples: int) -> None:
        self.emits += 1
        self.worst_emit_latency_samples = max(
            self.worst_emit_latency_samples, int(extra_samples)
        )

    def reset(self) -> None:
        self.feeds = 0
        self.total_feed_ms = 0.0
        self.worst_feed_ms = 0.0
        self.budget_violations = 0
        self.emits = 0
        self.worst_emit_latency_samples = 0


@dataclass
class _PendingSegment:
    """One completed segment travelling through the streaming pipeline."""

    raw: np.ndarray                 # float64 segment samples (possibly zero-padded)
    stft: np.ndarray                # (F, T) complex frames, policy dtype
    completed_at_samples: int       # samples_fed when the segment completed
    trim_to: Optional[int] = None   # emitted wave length (flush tails)
    request: Optional[StreamRequest] = None  # deferred mode only


#: Segments per Selector pass when an immediate-mode feed completes several at
#: once (the same bound as :meth:`NECSystem.protect_segment_matrix`'s default).
_STREAM_CHUNK_SEGMENTS = 16


class StreamingProtector:
    """Real-time incremental protection on a fixed-lookahead ring pipeline.

    A deployment NEC device does not see whole clips: audio arrives from the
    microphone in arbitrary-sized chunks, and the shadow wave is only useful
    if it is broadcast while the speech is still in the air.  This pipeline
    therefore does bounded work per chunk:

    - samples land in a **preallocated segment ring buffer** (no growing
      array, no concatenate-and-slice);
    - the **incremental STFT** (:class:`~repro.dsp.stft.StreamingSTFT`)
      transforms only the frames each chunk completes, so the segment
      spectrogram is already standing when its last sample arrives;
    - a completed segment runs one gradient-free Selector pass — immediately,
      or coalesced with other streams' segments when attached to a
      :class:`~repro.core.selector.StreamBatch` (``feed`` then returns
      nothing and finished results are picked up with :meth:`collect` after
      ``stream_batch.tick()``);
    - the shadow spectrogram is inverted through the tail-carrying
      :class:`~repro.dsp.stft.StreamingISTFT` and emitted.

    Concatenating all emitted shadow waves (with a final :meth:`flush`)
    reproduces **exactly** what :meth:`NECSystem.protect` emits for the whole
    clip at once, for any chunking — the equivalence the test-suite pins.
    Per-feed wall-clock and per-segment emission lag are tracked in
    :attr:`latency` (see :class:`StreamLatencyStats`), with an optional
    ``latency_budget_ms`` asserted per feed::

        protector = StreamingProtector(system, latency_budget_ms=300.0)
        for chunk in microphone_chunks:
            for result in protector.feed(chunk):
                speaker.broadcast(result.shadow_wave)
        tail = protector.flush()          # last partial segment, zero-padded
        assert protector.latency.budget_violations == 0
    """

    def __init__(
        self,
        system: NECSystem,
        stream_batch: Optional[StreamBatch] = None,
        latency_budget_ms: Optional[float] = None,
    ) -> None:
        self.system = system
        self.stream_batch = stream_batch
        config = system.config
        self._segment = config.segment_samples
        self._ring = np.zeros(self._segment, dtype=np.float64)
        self._fill = 0
        self._stft = StreamingSTFT(config.n_fft, config.win_length, config.hop_length)
        self._frames: List[np.ndarray] = []
        self._ready: List[_PendingSegment] = []      # completed, inference pending
        self._submitted: List[_PendingSegment] = []  # deferred: awaiting a tick
        self._segments_completed = 0
        self._segments_emitted = 0
        self._samples_fed = 0
        self.latency = StreamLatencyStats(budget_ms=latency_budget_ms)

    # -- state ---------------------------------------------------------------
    @property
    def pending_samples(self) -> int:
        """Samples fed but not yet covered by an emitted shadow."""
        ready = sum(segment.raw.size for segment in self._ready)
        submitted = sum(
            segment.trim_to if segment.trim_to is not None else segment.raw.size
            for segment in self._submitted
        )
        return int(self._fill + ready + submitted)

    @property
    def pending_inference_segments(self) -> int:
        """Completed segments whose Selector pass has not been collected yet."""
        return len(self._ready) + len(self._submitted)

    @property
    def next_result_ready(self) -> bool:
        """True when :meth:`collect` would return at least one result now."""
        return bool(
            self._submitted
            and self._submitted[0].request is not None
            and self._submitted[0].request.done
        )

    @property
    def segments_emitted(self) -> int:
        return self._segments_emitted

    @property
    def samples_fed(self) -> int:
        return self._samples_fed

    @property
    def lookahead_samples(self) -> int:
        """The pipeline's algorithmic latency floor: one full segment."""
        return self._segment

    def reset(self) -> None:
        """Drop all carried-over state (start a new stream)."""
        self._fill = 0
        self._stft.reset()
        self._frames = []
        self._ready = []
        self._submitted = []
        self._segments_completed = 0
        self._segments_emitted = 0
        self._samples_fed = 0
        self.latency.reset()

    # -- pipeline stages -------------------------------------------------------
    def _buffer_chunk(self, data: np.ndarray) -> None:
        """Stage 1: ring-buffer fill + incremental STFT, segment by segment."""
        position = 0
        while position < data.size:
            take = min(self._segment - self._fill, data.size - position)
            piece = data[position : position + take]
            self._ring[self._fill : self._fill + take] = piece
            frames = self._stft.feed(piece)
            if frames.shape[1]:
                self._frames.append(frames)
            self._fill += take
            position += take
            if self._fill == self._segment:
                self._complete_segment()

    def _complete_segment(self) -> None:
        """A full segment is standing in the ring: queue it for inference."""
        stft_frames = (
            self._frames[0]
            if len(self._frames) == 1
            else np.concatenate(self._frames, axis=1)
        )
        self._segments_completed += 1
        self._ready.append(
            _PendingSegment(
                raw=self._ring.copy(),
                stft=stft_frames,
                completed_at_samples=self._segments_completed * self._segment,
            )
        )
        # Framing restarts per segment (exactly the batched engine's geometry);
        # the sub-hop STFT carry never crosses a segment boundary.
        self._stft.reset()
        self._frames = []
        self._fill = 0

    def _build_result(
        self,
        segment: _PendingSegment,
        mixed_spec: np.ndarray,
        shadow_spec: np.ndarray,
    ) -> ProtectionResult:
        """Stage 3: record spectrogram + streaming iSTFT → one emitted result."""
        config = self.system.config
        record_spec = superpose_spectrograms(mixed_spec, shadow_spec)
        phase = np.exp(1j * np.angle(segment.stft))
        inverter = StreamingISTFT(config.win_length, config.hop_length)
        head = inverter.feed(shadow_spec * phase)
        tail = inverter.flush(length=self._segment)
        wave = np.concatenate([head, tail]) if head.size else tail
        emitted_length = segment.trim_to if segment.trim_to is not None else self._segment
        shadow_wave = AudioSignal(wave, config.sample_rate).trim_to(emitted_length)
        self._segments_emitted += 1
        self.latency.record_emit(self._samples_fed - segment.completed_at_samples)
        return ProtectionResult(
            mixed_audio=AudioSignal(segment.raw[:emitted_length], config.sample_rate),
            mixed_spectrogram=mixed_spec,
            shadow_spectrogram=shadow_spec,
            shadow_wave=shadow_wave,
            record_spectrogram=record_spec,
        )

    def _drain_ready(self) -> List[ProtectionResult]:
        """Stage 2: run (or defer) Selector inference on completed segments."""
        if not self._ready:
            return []
        embedding = self.system.embedding  # fail fast *before* consuming state
        if self.stream_batch is not None:
            for segment in self._ready:
                segment.request = self.stream_batch.submit(
                    magnitude(segment.stft)[None, :, :], embedding
                )
            self._submitted.extend(self._ready)
            self._ready = []
            return []
        results: List[ProtectionResult] = []
        for start in range(0, len(self._ready), _STREAM_CHUNK_SEGMENTS):
            group = self._ready[start : start + _STREAM_CHUNK_SEGMENTS]
            stfts = np.stack([segment.stft for segment in group])
            mixed_specs = magnitude(stfts)
            shadow_specs = self.system.selector.shadow_spectrogram_batch(
                mixed_specs, embedding
            )
            for row, segment in enumerate(group):
                results.append(
                    self._build_result(segment, mixed_specs[row], shadow_specs[row])
                )
        self._ready = []
        return results

    # -- streaming -----------------------------------------------------------
    def feed(self, chunk: Union[AudioSignal, np.ndarray]) -> List[ProtectionResult]:
        """Append a chunk; return one result per segment completed by it.

        Each returned :class:`ProtectionResult` covers one full segment
        (``config.segment_samples`` samples of shadow wave).  Chunks may be of
        any size, including empty; several segments completed by one chunk are
        protected in a single batched forward pass.  Attached to a
        :class:`~repro.core.selector.StreamBatch`, completed segments are
        queued for the next coalescing tick instead and ``feed`` returns
        ``[]`` — pick results up with :meth:`collect`.  A feed that fails
        (e.g. before enrollment) never drops stream audio: the buffered
        segments stay queued and the next feed retries them.
        """
        started = time.perf_counter()
        if isinstance(chunk, AudioSignal):
            self.system._check_sample_rate(chunk)
            data = chunk.data
        else:
            data = np.asarray(chunk, dtype=np.float64).reshape(-1)
        require_finite(data, "audio chunk")
        self._samples_fed += data.size
        self._buffer_chunk(data)
        results = self._drain_ready()
        self.latency.record_feed(1000.0 * (time.perf_counter() - started))
        return results

    def collect(self) -> List[ProtectionResult]:
        """Results whose coalesced inference tick has run (deferred mode).

        Returns finished segments in stream order, stopping at the first one
        still awaiting a :meth:`~repro.core.selector.StreamBatch.tick`.  In
        immediate mode (no ``stream_batch``) there is never anything to
        collect — :meth:`feed` returns results directly.
        """
        started = time.perf_counter()
        results: List[ProtectionResult] = []
        while self._submitted and self._submitted[0].request is not None and self._submitted[0].request.done:
            segment = self._submitted.pop(0)
            results.append(
                self._build_result(
                    segment,
                    segment.request.mixed_spectrograms[0],
                    segment.request.shadow_spectrograms[0],
                )
            )
        if results:
            self.latency.record_feed(1000.0 * (time.perf_counter() - started))
        return results

    def flush(self) -> Optional[ProtectionResult]:
        """Protect the buffered partial segment (zero-padded), if any.

        The emitted shadow wave is trimmed to the actual number of buffered
        samples so that the concatenation of every emitted wave matches
        :meth:`NECSystem.protect` on the whole stream.  Returns ``None`` when
        the buffer is empty — and always in deferred mode, where the padded
        tail is queued for the next tick and comes out of :meth:`collect`.
        """
        if self._ready:
            raise RuntimeError(
                "undrained completed segments (a previous feed failed); "
                "retry with feed(()) before flushing"
            )
        if self._fill == 0:
            return None
        started = time.perf_counter()
        pending = self._fill
        self._buffer_chunk(np.zeros(self._segment - pending))
        tail_segment = self._ready[-1]
        tail_segment.trim_to = pending
        # The pad samples are pipeline filler, not stream audio: completion
        # happened when the last real sample arrived.
        tail_segment.completed_at_samples = self._samples_fed
        results = self._drain_ready()
        self.latency.record_feed(1000.0 * (time.perf_counter() - started))
        return results[0] if results else None
