"""The real-time streaming fast path: incremental kernels, ring pipeline,
cross-stream micro-batching, and latency accounting.

The load-bearing contract: for ANY chunking of a clip — sub-hop dribbles,
segment-aligned blocks, everything at once — the concatenation of the shadow
waves emitted by :class:`StreamingProtector` (plus the flush tail) is
**sample-exact** against :meth:`NECSystem.protect` on the whole clip, and
coalescing segments across streams through :class:`StreamBatch` never changes
a bit.  The incremental STFT/iSTFT kernels are pinned against their batch
counterparts at both a hop-divides-window geometry (the reduced test config)
and the paper's non-dividing 400/160 geometry.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamBatch, StreamingProtector
from repro.dsp.stft import (
    StreamingISTFT,
    StreamingSTFT,
    batch_istft,
    batch_stft,
    stft,
)
from repro.nn.precision import inference_precision


@pytest.fixture(scope="module")
def tiny_config():
    return NECConfig.tiny()


@pytest.fixture(scope="module")
def system(tiny_config):
    rng = np.random.default_rng(7)
    built = NECSystem(tiny_config, seed=0)
    built.enroll(
        [
            AudioSignal(
                rng.normal(scale=0.1, size=tiny_config.segment_samples),
                tiny_config.sample_rate,
            )
        ]
    )
    return built


def _noise(num_samples, seed=0):
    return np.random.default_rng(seed).normal(scale=0.1, size=num_samples)


def _chunkings(data, boundaries):
    position = 0
    for boundary in sorted(boundaries):
        if position < boundary <= data.size:
            yield data[position:boundary]
            position = boundary
    if position < data.size:
        yield data[position:]


#: Geometries the incremental kernels must match exactly: (n_fft, win, hop).
GEOMETRIES = [
    (128, 128, 64),     # hop divides window: fully incremental iSTFT
    (1200, 400, 160),   # the paper's geometry: hop does not divide the window
]


class TestStreamingSTFT:
    @pytest.mark.parametrize("n_fft,win,hop", GEOMETRIES)
    def test_matches_batch_stft_for_random_chunking(self, n_fft, win, hop):
        signal = _noise(win * 7 + 13, seed=1)
        reference = stft(signal, n_fft, win, hop)
        streamer = StreamingSTFT(n_fft, win, hop)
        rng = np.random.default_rng(2)
        frames = []
        position = 0
        while position < signal.size:
            size = int(rng.integers(1, 2 * win))
            chunk = signal[position : position + size]
            position += chunk.size
            emitted = streamer.feed(chunk)
            if emitted.shape[1]:
                frames.append(emitted)
        tail = streamer.flush()
        if tail.shape[1]:
            frames.append(tail)
        np.testing.assert_array_equal(np.concatenate(frames, axis=1), reference)

    @pytest.mark.parametrize("n_fft,win,hop", GEOMETRIES)
    def test_short_signal_single_padded_frame(self, n_fft, win, hop):
        signal = _noise(win // 3, seed=3)
        reference = stft(signal, n_fft, win, hop)
        streamer = StreamingSTFT(n_fft, win, hop)
        assert streamer.feed(signal).shape == (n_fft // 2 + 1, 0)
        np.testing.assert_array_equal(streamer.flush(), reference)

    def test_float32_policy_matches_batch(self):
        n_fft, win, hop = GEOMETRIES[0]
        signal = _noise(win * 5, seed=4)
        with inference_precision("float32"):
            reference = stft(signal, n_fft, win, hop)
            streamer = StreamingSTFT(n_fft, win, hop)
            emitted = streamer.feed(signal)
            assert emitted.dtype == reference.dtype
            np.testing.assert_array_equal(emitted, reference)

    def test_reset_restarts_framing(self):
        n_fft, win, hop = GEOMETRIES[0]
        signal = _noise(win * 3, seed=5)
        streamer = StreamingSTFT(n_fft, win, hop)
        streamer.feed(_noise(win + 7, seed=6))
        streamer.reset()
        np.testing.assert_array_equal(
            streamer.feed(signal), stft(signal, n_fft, win, hop)
        )


class TestStreamingISTFT:
    @pytest.mark.parametrize("n_fft,win,hop", GEOMETRIES)
    def test_matches_batch_istft_for_random_frame_splits(self, n_fft, win, hop):
        length = win * 6 + 5
        signal = _noise(length, seed=7)
        spectra = stft(signal, n_fft, win, hop)
        reference = batch_istft(spectra[None], win, hop, length=length)[0]
        inverter = StreamingISTFT(win, hop)
        rng = np.random.default_rng(8)
        emitted = []
        position = 0
        total = spectra.shape[1]
        while position < total:
            size = int(rng.integers(1, 4))
            block = inverter.feed(spectra[:, position : position + size])
            position += min(size, total - position)
            if block.size:
                emitted.append(block)
        emitted.append(inverter.flush(length=length))
        np.testing.assert_array_equal(np.concatenate(emitted), reference)

    def test_float32_policy_matches_batch(self):
        n_fft, win, hop = GEOMETRIES[0]
        length = win * 4
        with inference_precision("float32"):
            spectra = stft(_noise(length, seed=9), n_fft, win, hop)
            reference = batch_istft(spectra[None], win, hop, length=length)[0]
            inverter = StreamingISTFT(win, hop)
            head = inverter.feed(spectra)
            tail = inverter.flush(length=length)
            wave = np.concatenate([head, tail]) if head.size else tail
            assert wave.dtype == reference.dtype
            np.testing.assert_array_equal(wave, reference)


class TestStreamingProtectorProperty:
    """Any chunking reproduces protect() exactly, within the latency budget."""

    @settings(max_examples=12, deadline=None)
    @given(boundaries=st.lists(st.integers(min_value=1, max_value=12000), max_size=8))
    def test_any_chunking_matches_protect(self, system, tiny_config, boundaries):
        clip_samples = int(2.4 * tiny_config.segment_samples)
        audio = AudioSignal(_noise(clip_samples, seed=11), tiny_config.sample_rate)
        whole = system.protect(audio)

        budget_ms = 300.0
        protector = StreamingProtector(system, latency_budget_ms=budget_ms)
        waves = []
        for chunk in _chunkings(audio.data, boundaries):
            for result in protector.feed(chunk):
                waves.append(result.shadow_wave.data)
        tail = protector.flush()
        if tail is not None:
            waves.append(tail.shadow_wave.data)

        np.testing.assert_array_equal(
            np.concatenate(waves), whole.shadow_wave.data
        )
        # Latency accounting: every feed (and the flush) was timed, and on the
        # benchmark host each stays under the paper's overshadowing tolerance.
        assert protector.latency.feeds > 0
        assert protector.latency.budget_violations == 0
        assert protector.latency.worst_feed_ms <= budget_ms

    def test_sub_hop_chunks_match_protect(self, system, tiny_config):
        clip_samples = tiny_config.segment_samples + 3 * tiny_config.hop_length // 2
        audio = AudioSignal(_noise(clip_samples, seed=12), tiny_config.sample_rate)
        whole = system.protect(audio)
        protector = StreamingProtector(system)
        size = tiny_config.hop_length - 1  # never a whole analysis hop per feed
        waves = []
        for start in range(0, clip_samples, size):
            for result in protector.feed(audio.data[start : start + size]):
                waves.append(result.shadow_wave.data)
        waves.append(protector.flush().shadow_wave.data)
        np.testing.assert_array_equal(np.concatenate(waves), whole.shadow_wave.data)


class TestLatencyAccounting:
    def test_emit_latency_zero_in_immediate_mode(self, system, tiny_config):
        protector = StreamingProtector(system)
        segment = tiny_config.segment_samples
        clip = _noise(2 * segment, seed=13)
        protector.feed(clip[:segment])
        protector.feed(clip[segment:])
        # Shadows come out inside the very feed that completes each segment.
        assert protector.latency.emits == 2
        assert protector.latency.worst_emit_latency_samples == 0
        assert protector.lookahead_samples == tiny_config.segment_samples

    def test_emit_latency_counts_deferred_samples(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        assert protector.feed(_noise(segment, seed=14)) == []
        extra = 100
        protector.feed(_noise(extra, seed=15))  # arrives before the tick
        batch.tick()
        results = protector.collect()
        assert len(results) == 1
        assert protector.latency.emits == 1
        assert protector.latency.worst_emit_latency_samples == extra

    def test_budget_violations_counted(self, system, tiny_config):
        protector = StreamingProtector(system, latency_budget_ms=0.0)
        protector.feed(_noise(tiny_config.segment_samples, seed=16))
        assert protector.latency.budget_violations > 0
        protector.latency.reset()
        assert protector.latency.budget_violations == 0
        assert protector.latency.feeds == 0

    def test_mean_and_worst_feed_tracked(self, system, tiny_config):
        protector = StreamingProtector(system)
        protector.feed(_noise(10, seed=17))
        protector.feed(_noise(tiny_config.segment_samples, seed=18))
        stats = protector.latency
        assert stats.feeds == 2
        assert stats.worst_feed_ms >= stats.mean_feed_ms > 0


class TestStreamBatch:
    def test_coalesced_tick_is_bit_identical_across_streams(self, system, tiny_config):
        segment = tiny_config.segment_samples
        clips = [_noise(2 * segment + 77, seed=20 + index) for index in range(3)]
        immediate = []
        for clip in clips:
            protector = StreamingProtector(system)
            waves = [r.shadow_wave.data for r in protector.feed(clip)]
            tail = protector.flush()
            waves.append(tail.shadow_wave.data)
            immediate.append(np.concatenate(waves))

        batch = StreamBatch(system.selector)
        protectors = [
            StreamingProtector(system, stream_batch=batch) for _ in clips
        ]
        waves = [[] for _ in clips]
        for protector, clip in zip(protectors, clips):
            assert protector.feed(clip) == []
            assert protector.flush() is None  # tail queued for the tick
        assert batch.pending_segments == 9
        batch.tick()
        for index, protector in enumerate(protectors):
            for result in protector.collect():
                waves[index].append(result.shadow_wave.data)
            assert protector.pending_samples == 0
        for index in range(len(clips)):
            np.testing.assert_array_equal(
                np.concatenate(waves[index]), immediate[index]
            )
        assert batch.segments_coalesced == 9

    def test_cross_speaker_coalescing_uses_per_row_embeddings(self, tiny_config):
        rng = np.random.default_rng(30)
        systems = []
        for speaker_seed in (31, 32):
            built = NECSystem(tiny_config, seed=0)  # identical selector weights
            built.enroll(
                [
                    AudioSignal(
                        rng.normal(scale=0.1, size=tiny_config.segment_samples),
                        tiny_config.sample_rate,
                    )
                ]
            )
            systems.append(built)
        assert not np.array_equal(systems[0].embedding, systems[1].embedding)

        clips = [
            AudioSignal(_noise(tiny_config.segment_samples, seed=33 + index),
                        tiny_config.sample_rate)
            for index in range(2)
        ]
        dedicated = [s.protect(c) for s, c in zip(systems, clips)]

        batch = StreamBatch(systems[0].selector)  # one shared deployed selector
        protectors = [
            StreamingProtector(s, stream_batch=batch) for s in systems
        ]
        for protector, clip in zip(protectors, clips):
            protector.feed(clip)
        assert batch.tick() == 2
        for protector, reference in zip(protectors, dedicated):
            (result,) = protector.collect()
            np.testing.assert_array_equal(
                result.shadow_wave.data, reference.shadow_wave.data
            )
            np.testing.assert_array_equal(
                result.shadow_spectrogram, reference.shadow_spectrogram
            )

    def test_collect_preserves_stream_order_and_waits_for_tick(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        segment = tiny_config.segment_samples
        protector.feed(_noise(segment, seed=40))
        assert protector.collect() == []  # nothing ticked yet
        protector.feed(_noise(segment, seed=41))
        batch.tick()
        results = protector.collect()
        assert len(results) == 2
        assert protector.collect() == []
        assert protector.segments_emitted == 2

    def test_empty_tick_counts(self, system):
        batch = StreamBatch(system.selector)
        assert batch.tick() == 0
        assert batch.ticks == 1
        assert batch.busy_ticks == 0
        assert batch.max_tick_segments == 0

    def test_tick_with_only_zero_segment_submissions(self, system, tiny_config):
        """Regression: all-empty pending requests used to crash the tick.

        An idle stream heartbeating the scheduler submits ``(0, F, T)`` —
        nothing to stack, so ``np.concatenate`` over zero chunks raised
        ``ValueError`` and the serving tick thread died.  The tick must be a
        clean no-op that still marks the empty requests done.
        """
        frequency_bins, frames = tiny_config.spectrogram_shape
        batch = StreamBatch(system.selector)
        requests = [
            batch.submit(np.empty((0, frequency_bins, frames)), system.embedding)
            for _ in range(2)
        ]
        assert batch.tick() == 0
        for request in requests:
            assert request.done
            assert request.shadow_spectrograms.shape == (0, frequency_bins, frames)
        assert (batch.ticks, batch.busy_ticks, batch.segments_coalesced) == (1, 0, 0)

    def test_tick_mixing_empty_and_real_submissions(self, system, tiny_config):
        segment = tiny_config.segment_samples
        frequency_bins, frames = tiny_config.spectrogram_shape
        batch = StreamBatch(system.selector)
        empty = batch.submit(np.empty((0, frequency_bins, frames)), system.embedding)
        spectrogram = np.abs(
            stft(
                _noise(segment, seed=60),
                tiny_config.n_fft,
                tiny_config.win_length,
                tiny_config.hop_length,
            )
        )[None, :, :]
        real = batch.submit(spectrogram, system.embedding)
        assert batch.tick() == 1
        assert empty.done and empty.shadow_spectrograms.shape[0] == 0
        assert real.done and real.shadow_spectrograms.shape == spectrogram.shape

    def test_tick_starts_no_threads(self, system, tiny_config):
        """Thread policy: a tick runs its chunks on the calling thread.

        BLAS owns intra-op parallelism; the batch must not add a pool of its
        own, however many chunks a tick splits into.
        """
        frequency_bins, frames = tiny_config.spectrogram_shape
        specs = np.abs(np.random.default_rng(70).normal(size=(40, frequency_bins, frames)))
        before = threading.active_count()
        with StreamBatch(system.selector, max_batch_segments=4) as batch:
            requests = [batch.submit(specs[row : row + 1], system.embedding) for row in range(40)]
            assert batch.tick() == 40
            assert threading.active_count() == before
        assert all(request.done for request in requests)
        assert batch.closed

    def test_submit_after_close_raises(self, system, tiny_config):
        frequency_bins, frames = tiny_config.spectrogram_shape
        batch = StreamBatch(system.selector)
        batch.close()
        with pytest.raises(RuntimeError, match="closed"):
            batch.submit(np.zeros((1, frequency_bins, frames)), system.embedding)
        batch.close()  # idempotent

    def test_submit_rejects_bad_shapes(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        with pytest.raises(ValueError):
            batch.submit(np.zeros((4, 4)), system.embedding)

    def test_forward_batch_validates_per_row_vectors(self, system, tiny_config):
        frequency_bins, frames = tiny_config.spectrogram_shape
        specs = np.zeros((2, frequency_bins, frames))
        with pytest.raises(ValueError):
            system.selector.forward_batch(specs, np.zeros((3, tiny_config.embedding_dim)))
        with pytest.raises(ValueError):
            system.selector.forward_batch(
                specs, np.zeros((1, 1, tiny_config.embedding_dim))
            )

    def test_chunked_tick_matches_single_pass(self, system, tiny_config):
        segment = tiny_config.segment_samples
        chunked = StreamBatch(system.selector, max_batch_segments=2)
        single = StreamBatch(system.selector)
        chunked_requests = []
        single_requests = []
        for index in range(6):
            spectrogram = np.abs(
                stft(
                    _noise(segment, seed=50 + index),
                    tiny_config.n_fft,
                    tiny_config.win_length,
                    tiny_config.hop_length,
                )
            )[None, :, :]
            chunked_requests.append(chunked.submit(spectrogram, system.embedding))
            single_requests.append(single.submit(spectrogram, system.embedding))
        assert chunked.tick() == single.tick() == 6
        for a, b in zip(chunked_requests, single_requests):
            np.testing.assert_array_equal(a.shadow_spectrograms, b.shadow_spectrograms)


class TestFlushSemantics:
    def test_failed_feed_then_flush_raises_until_retried(self, tiny_config):
        unenrolled = NECSystem(tiny_config, seed=0)
        protector = StreamingProtector(unenrolled)
        audio = _noise(tiny_config.segment_samples + 9, seed=60)
        with pytest.raises(RuntimeError):
            protector.feed(audio)
        with pytest.raises(RuntimeError):
            protector.flush()  # a completed segment is still queued
        rng = np.random.default_rng(61)
        unenrolled.enroll(
            [
                AudioSignal(
                    rng.normal(size=tiny_config.segment_samples),
                    tiny_config.sample_rate,
                )
            ]
        )
        assert len(protector.feed(np.zeros(0))) == 1
        tail = protector.flush()
        assert tail.shadow_wave.num_samples == 9

    def test_deferred_flush_tail_is_trimmed(self, system, tiny_config):
        batch = StreamBatch(system.selector)
        protector = StreamingProtector(system, stream_batch=batch)
        pending = 123
        protector.feed(_noise(pending, seed=62))
        assert protector.flush() is None
        assert protector.pending_samples == pending
        batch.tick()
        (tail,) = protector.collect()
        assert tail.shadow_wave.num_samples == pending
        assert tail.mixed_audio.num_samples == pending
        assert protector.pending_samples == 0
