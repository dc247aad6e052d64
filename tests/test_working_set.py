"""The inference working set is bounded by the geometry, not the batch size.

``Conv2d.infer`` gathers one row at a time into a per-thread scratch, so the
memory an inference call allocates is one row's largest column matrix plus
its padded input, plus the activations of the chunk being inferred —
whatever the number of segments, streams or clips.  A per-shape buffer store
instead grows with every batch size it sees (about 10 MB per tiny segment).
"""

import tracemalloc

import numpy as np
import pytest

from repro.audio.signal import AudioSignal
from repro.core import NECConfig, NECSystem, StreamBatch, StreamLatencyStats
from repro.nn import clear_im2col_buffer_cache

#: Chunk size of the batched engine and the coalescing tick (their default).
CHUNK = 16


@pytest.fixture(scope="module")
def system():
    config = NECConfig.tiny()
    built = NECSystem(config, seed=0)
    rng = np.random.default_rng(0)
    built.enroll(
        [AudioSignal(rng.normal(scale=0.1, size=config.segment_samples), config.sample_rate)]
    )
    return built


def _budget_bytes(system):
    """Scratch of the largest one-row layer plus one chunk's activations.

    Doubled for headroom: the chunk's spectrogram-sized arrays (log input,
    shadow, STFT) and allocator slack come on top of the layer tensors.
    """
    selector = system.selector
    freq_bins, frames = system.config.spectrogram_shape
    itemsize = np.dtype(np.float64).itemsize
    layers = [selector.conv_freq, selector.conv_time, *selector.dilated, selector.conv_out]
    columns = max(
        layer.in_channels * layer.kernel_size[0] * layer.kernel_size[1]
        * int(np.prod(layer.output_size(frames, freq_bins)))
        for layer in layers
    )
    padded = max(
        layer.in_channels
        * (frames + 2 * layer.padding[0])
        * (freq_bins + 2 * layer.padding[1])
        for layer in layers
    )
    channels = max(layer.out_channels for layer in layers)
    # A layer's input and output for every row of one chunk.
    activations = 2 * CHUNK * channels * frames * freq_bins
    return 2 * (columns + padded + activations) * itemsize


def _peak_bytes(run):
    clear_im2col_buffer_cache()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_batch_tick_of_64_streams(system):
    rng = np.random.default_rng(1)
    freq_bins, frames = system.config.spectrogram_shape
    specs = np.abs(rng.normal(size=(64, freq_bins, frames)))
    with StreamBatch(system.selector, max_batch_segments=CHUNK) as batch:
        for stream in range(64):  # one segment per stream
            batch.submit(specs[stream : stream + 1], system.embedding)
        peak = _peak_bytes(batch.tick)
    assert peak < _budget_bytes(system), (peak, _budget_bytes(system))


def test_protect_batch_of_22_segments(system):
    config = system.config
    rng = np.random.default_rng(2)
    clips = [
        AudioSignal(rng.normal(scale=0.1, size=int(seconds * config.sample_rate)), config.sample_rate)
        for seconds in (1.2, 3.0, 4.8, 4.2)
    ]
    assert sum(-(-clip.num_samples // config.segment_samples) for clip in clips) == 22
    peak = _peak_bytes(lambda: system.protect_batch(clips, max_batch_segments=CHUNK))
    assert peak < _budget_bytes(system), (peak, _budget_bytes(system))


def test_stream_stats_stay_flat_over_many_ticks(system):
    """Tick and emit stats are running counters: 10^5 ticks keep no history."""
    stats = StreamLatencyStats()
    with StreamBatch(system.selector) as batch:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100_000):
                batch.tick()
                stats.record_emit(0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert grown < 64 * 1024, grown
    assert batch.ticks == 100_000 and stats.emits == 100_000
