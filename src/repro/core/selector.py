"""The NEC Selector network (paper Fig. 7).

The Selector takes the mixed magnitude spectrogram and the target speaker's
d-vector and produces the shadow spectrogram.  The architecture follows the
paper:

1. a flat ``1 x 7`` convolution over the frequency axis (each filter spans
   ~93 Hz at the paper geometry — enough for one formant bandwidth);
2. a ``7 x 1`` convolution over the time axis (~115 ms — phoneme scale);
3. a stack of ``5 x 5`` convolutions with time-axis dilation growing from 1 to
   8, extending the receptive field to ~610 ms (a few words);
4. a final convolution down to two channels, giving a ``(T, 2F)`` feature map;
5. the d-vector concatenated to every time frame;
6. two fully connected layers producing the ``(T, F)`` output.

Two output heads are supported.  ``output_mode='mask'`` (default) applies a
sigmoid and interprets the output as the fraction of each mixed time-frequency
bin attributed to the target speaker — the shadow spectrogram is then
``-(mask * S_mixed)``, exactly the quantity that drives the recorded
spectrogram towards the background (Eq. 6).  ``output_mode='spectrogram'``
reproduces the paper's literal description: an unconstrained linear output
used directly as the (signed) shadow spectrogram.  The ablation benchmark
compares both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import NECConfig
from repro.nn import Conv2d, Dense, Module, ReLU, Tensor
from repro.nn.precision import active_policy


class Selector(Module):
    """CNN + FC selector producing a shadow spectrogram from (S_mixed, d-vector)."""

    def __init__(self, config: NECConfig, seed: int = 0) -> None:
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        channels = config.selector_channels
        kernel = config.selector_kernel

        # 1-2: the flat frequency filter and the time filter.
        self.conv_freq = Conv2d(1, channels, (1, 7), padding=(0, 3), rng=rng)
        self.conv_time = Conv2d(channels, channels, (7, 1), padding=(3, 0), rng=rng)

        # 3: dilated 5x5 stack (dilation grows along the time axis only).
        self.dilated = [
            Conv2d(
                channels,
                channels,
                (kernel, kernel),
                padding=((kernel - 1) // 2 * dilation, (kernel - 1) // 2),
                dilation=(dilation, 1),
                rng=rng,
            )
            for dilation in config.selector_dilations
        ]

        # 4: reduce to two channels -> (T, 2F).
        self.conv_out = Conv2d(channels, 2, (kernel, kernel), padding="same", rng=rng)

        # 6: fully connected head over [2F features + d-vector] per frame.
        fc_in = 2 * config.frequency_bins + config.embedding_dim
        self.fc1 = Dense(fc_in, config.fc_hidden, rng=rng)
        self.fc2 = Dense(config.fc_hidden, config.frequency_bins, rng=rng)

    # ------------------------------------------------------------------
    def num_conv_layers(self) -> int:
        return 3 + len(self.dilated)

    def forward(self, mixed_spectrogram: Tensor, d_vector: Tensor) -> Tensor:
        """Selector output for a single segment.

        ``mixed_spectrogram``: ``(F, T)`` magnitude spectrogram (paper Eq. 2).
        ``d_vector``: ``(embedding_dim,)`` reference embedding.
        Returns the raw head output of shape ``(T, F)`` — a sigmoid mask in
        ``mask`` mode, an unconstrained spectrogram in ``spectrogram`` mode.
        """
        if not isinstance(mixed_spectrogram, Tensor):
            mixed_spectrogram = Tensor(mixed_spectrogram)
        if not isinstance(d_vector, Tensor):
            d_vector = Tensor(d_vector)
        freq_bins, frames = mixed_spectrogram.shape
        if freq_bins != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {freq_bins}"
            )

        # Compress the dynamic range; magnitudes span several orders of magnitude.
        compressed = (mixed_spectrogram + 1e-6).log()
        # (F, T) -> (1, 1, T, F): time as "height", frequency as "width".
        image = compressed.transpose(1, 0).reshape(1, 1, frames, freq_bins)

        hidden = self.conv_freq(image).relu()
        hidden = self.conv_time(hidden).relu()
        for layer in self.dilated:
            hidden = layer(hidden).relu()
        features = self.conv_out(hidden).relu()  # (1, 2, T, F)

        # (1, 2, T, F) -> (T, 2F)
        features = features.transpose(0, 2, 1, 3).reshape(frames, 2 * freq_bins)

        # Concatenate the d-vector to every frame.
        tiled = Tensor(np.tile(d_vector.data.reshape(1, -1), (frames, 1)))
        fused = Tensor.concatenate([features, tiled], axis=1)

        hidden = self.fc1(fused).relu()
        output = self.fc2(hidden)
        if self.config.output_mode == "mask":
            output = output.sigmoid()
        return output  # (T, F)

    def forward_batch_train(
        self, mixed_spectrograms, d_vectors
    ) -> Tensor:
        """Autograd Selector output for a stacked ``(N, F, T)`` minibatch.

        The training-side twin of :meth:`forward_batch`: the same stacked
        layout and per-row independence, but every operation goes through the
        :class:`~repro.nn.tensor.Tensor` graph so one backward pass yields the
        *sum over the batch* of the per-example gradients (so a mean-reduced
        batch loss yields the mean gradient — the minibatch SGD contract,
        pinned by ``check_batched_gradients`` in the test suite).

        ``mixed_spectrograms``: ``(N, F, T)`` array or Tensor of magnitude
        spectrograms.  ``d_vectors``: one shared ``(embedding_dim,)`` embedding
        or per-example ``(N, embedding_dim)`` rows.  Returns the raw head
        output of shape ``(N, T, F)``.  Every numerical constant matches
        :meth:`forward`, and the convolutions run through the frequency-domain
        kernel (:func:`repro.nn.fftconv.fft_conv2d`), so row ``n`` of the
        result (and its gradient contribution) equals
        ``forward(mixed_spectrograms[n], d_vectors[n])`` to FFT round-off —
        ~1e-13 relative, pinned at 1e-9 by the gradient-equivalence tests.
        """
        if not isinstance(mixed_spectrograms, Tensor):
            mixed_spectrograms = Tensor(np.asarray(mixed_spectrograms, dtype=np.float64))
        if mixed_spectrograms.ndim != 3:
            raise ValueError(
                "forward_batch_train expects a (N, F, T) batch of spectrograms"
            )
        num_examples, freq_bins, frames = mixed_spectrograms.shape
        if freq_bins != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {freq_bins}"
            )
        vectors = np.asarray(
            d_vectors.data if isinstance(d_vectors, Tensor) else d_vectors,
            dtype=np.float64,
        )
        if vectors.ndim == 1:
            vectors = np.broadcast_to(vectors.reshape(1, -1), (num_examples, vectors.size))
        if vectors.ndim != 2 or vectors.shape[0] != num_examples:
            raise ValueError(
                f"d_vectors must be (dim,) or ({num_examples}, dim), "
                f"got shape {vectors.shape}"
            )

        # Same dynamic-range compression as forward().
        compressed = (mixed_spectrograms + 1e-6).log()
        # (N, F, T) -> (N, 1, T, F): time as "height", frequency as "width".
        image = compressed.transpose(0, 2, 1).reshape(num_examples, 1, frames, freq_bins)

        # Frequency-domain convolutions with the ReLU fused into each node:
        # per-row equal to forward()'s im2col path up to FFT round-off
        # (~1e-13 relative), but without the 25x column-matrix inflation that
        # makes the stacked batch memory-bound.
        hidden = self.conv_freq.forward_fft(image, activation="relu")
        hidden = self.conv_time.forward_fft(hidden, activation="relu")
        for layer in self.dilated:
            hidden = layer.forward_fft(hidden, activation="relu")
        features = self.conv_out.forward_fft(hidden, activation="relu")  # (N, 2, T, F)

        # (N, 2, T, F) -> (N, T, 2F)
        features = features.transpose(0, 2, 1, 3).reshape(
            num_examples, frames, 2 * freq_bins
        )

        # Concatenate each example's d-vector to every one of its frames; the
        # embeddings are inputs, not parameters, so a plain constant tile is
        # exactly what forward() does too.
        tiled = Tensor(np.broadcast_to(
            vectors[:, None, :], (num_examples, frames, vectors.shape[1])
        ).copy())
        fused = Tensor.concatenate([features, tiled], axis=2)

        # Dense applies to the last axis, so the (N, T, in) @ (in, out) matmul
        # broadcasts into N per-example GEMMs of the shapes forward() uses.
        hidden = self.fc1(fused).relu()
        output = self.fc2(hidden)
        if self.config.output_mode == "mask":
            output = output.sigmoid()
        return output  # (N, T, F)

    def forward_batch(
        self, mixed_spectrograms: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """Selector output for a batch of segments, without autograd.

        ``mixed_spectrograms``: ``(N, F, T)`` stacked magnitude spectrograms.
        ``d_vector``: either one ``(embedding_dim,)`` reference embedding
        shared by the batch (all segments of one protected speaker's clip) or
        a ``(N, embedding_dim)`` matrix of per-segment embeddings — the shape
        the cross-stream micro-batcher (:class:`StreamBatch`) needs, where one
        tick coalesces segments belonging to *different* enrolled speakers.
        Returns the raw head output of shape ``(N, T, F)``.

        Every operation mirrors :meth:`forward` exactly — same log-compression
        constants, same column layout, same matmul shapes per segment (the
        batch axis only broadcasts) — so under the default float64 policy row
        ``n`` is bit-identical to ``forward(mixed_spectrograms[n], d_vector)``.
        The convolutions run through :meth:`Conv2d.infer`, which skips autograd
        bookkeeping and the per-sample fancy-index construction; this is where
        the batched engine earns its throughput.  Under a reduced-precision
        policy (:mod:`repro.nn.precision`) the whole pass runs in the policy's
        real dtype — the evaluation fast path, gated by the tolerance suite in
        ``tests/test_precision.py``.
        """
        policy = active_policy()
        batch = policy.real(np.asarray(mixed_spectrograms))
        if batch.ndim != 3:
            raise ValueError("forward_batch expects a (N, F, T) batch of spectrograms")
        d_vector = policy.real(np.asarray(d_vector))
        num_segments, freq_bins, frames = batch.shape
        if freq_bins != self.config.frequency_bins:
            raise ValueError(
                f"expected {self.config.frequency_bins} frequency bins, got {freq_bins}"
            )
        if d_vector.ndim == 2 and d_vector.shape[0] != num_segments:
            raise ValueError(
                f"per-segment d_vectors must be ({num_segments}, dim), "
                f"got shape {d_vector.shape}"
            )
        if d_vector.ndim not in (1, 2):
            raise ValueError("d_vector must be (dim,) or (N, dim)")
        if num_segments == 0:
            return np.zeros((0, frames, freq_bins), dtype=policy.real_dtype)

        # Same dynamic-range compression as forward(): Tensor.log adds its own
        # 1e-12 epsilon on top of the 1e-6 offset.
        compressed = np.log(batch + 1e-6 + 1e-12)
        # (N, F, T) -> (N, 1, T, F): time as "height", frequency as "width".
        image = compressed.transpose(0, 2, 1).reshape(num_segments, 1, frames, freq_bins)

        hidden = self.conv_freq.infer(image)
        hidden = hidden * (hidden > 0)
        hidden = self.conv_time.infer(hidden)
        hidden = hidden * (hidden > 0)
        for layer in self.dilated:
            hidden = layer.infer(hidden)
            hidden = hidden * (hidden > 0)
        features = self.conv_out.infer(hidden)
        features = features * (features > 0)  # (N, 2, T, F)

        # (N, 2, T, F) -> (N, T, 2F)
        features = features.transpose(0, 2, 1, 3).reshape(
            num_segments, frames, 2 * freq_bins
        )

        # Concatenate the d-vector to every frame of every segment (segment
        # ``n`` sees row ``n`` when per-segment embeddings are supplied; the
        # concatenation and the matmuls below are row-independent either way,
        # so each row stays bit-identical to the single-vector pass).
        embedding_dim = d_vector.shape[-1]
        source = d_vector.reshape(1, 1, -1) if d_vector.ndim == 1 else d_vector[:, None, :]
        tiled = np.broadcast_to(source, (num_segments, frames, embedding_dim))
        fused = np.concatenate([features, tiled], axis=2)

        # The (N, T, in) @ (in, out) matmul broadcasts into N per-segment GEMMs
        # of exactly the shapes forward() uses, keeping the results identical.
        hidden = fused @ policy.real(self.fc1.weight.data) + policy.real(self.fc1.bias.data)
        hidden = hidden * (hidden > 0)
        output = hidden @ policy.real(self.fc2.weight.data) + policy.real(self.fc2.bias.data)
        if self.config.output_mode == "mask":
            output = 1.0 / (1.0 + np.exp(-np.clip(output, -60.0, 60.0)))
        return output  # (N, T, F)

    # ------------------------------------------------------------------
    def shadow_spectrogram(
        self, mixed_spectrogram: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """The (signed) shadow spectrogram ``S_shadow`` of shape ``(F, T)``.

        In ``mask`` mode the head output ``M`` (in [0, 1]) estimates the target
        speaker's share of each bin, so ``S_shadow = -(M * S_mixed)``; adding it
        to the mixed spectrogram leaves ``(1 - M) * S_mixed ~= S_bk``.  In
        ``spectrogram`` mode the head output is used directly.
        """
        mixed = np.asarray(mixed_spectrogram, dtype=np.float64)
        output = self.forward(Tensor(mixed), Tensor(np.asarray(d_vector))).data.T  # (F, T)
        if self.config.output_mode == "mask":
            return -(output * mixed)
        return output

    def shadow_spectrogram_batch(
        self, mixed_spectrograms: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """Signed shadow spectrograms for a ``(N, F, T)`` batch, shape ``(N, F, T)``.

        ``d_vector`` may be one shared ``(dim,)`` embedding or per-segment
        ``(N, dim)`` rows (see :meth:`forward_batch`).  Under the default
        float64 policy row ``n`` equals
        ``shadow_spectrogram(mixed_spectrograms[n], d_vector[n])`` bit for
        bit; see :meth:`forward_batch` for why (and for the float32 mode).
        """
        mixed = active_policy().real(np.asarray(mixed_spectrograms))
        output = self.forward_batch(mixed, d_vector).transpose(0, 2, 1)  # (N, F, T)
        if self.config.output_mode == "mask":
            return -(output * mixed)
        return output

    def target_estimate(
        self, mixed_spectrogram: np.ndarray, d_vector: np.ndarray
    ) -> np.ndarray:
        """Estimated magnitude spectrogram of the target speaker, shape ``(F, T)``."""
        return -self.shadow_spectrogram(mixed_spectrogram, d_vector)


@dataclass
class StreamRequest:
    """One stream's pending segment-inference request inside a :class:`StreamBatch`.

    ``mixed_spectrograms`` holds the stream's completed segments awaiting
    inference (``(n, F, T)``); after the coalescing tick, ``shadow_spectrograms``
    holds the corresponding signed shadows, bit-identical to what a dedicated
    per-stream pass would have produced.
    """

    mixed_spectrograms: np.ndarray  # (n, F, T)
    d_vector: np.ndarray            # (embedding_dim,)
    shadow_spectrograms: Optional[np.ndarray] = None  # (n, F, T) once ticked

    @property
    def done(self) -> bool:
        return self.shadow_spectrograms is not None


class StreamBatch:
    """Cross-stream micro-batching of Selector inference (continuous batching).

    Many concurrent streaming protectors each complete segments at their own
    pace; running one Selector pass per stream per segment pays the Python
    dispatch, im2col setup and small-GEMM cost once *per stream*.  A
    ``StreamBatch`` instead collects every pending segment — across streams,
    across enrolled speakers — and runs **one** batched gradient-free pass per
    :meth:`tick`, exactly the scheduler primitive a multi-tenant serving layer
    needs.  Coalescing never changes a number: every row of the stacked pass
    is bit-identical to that stream's dedicated pass (pinned by the test
    suite), because :meth:`Selector.forward_batch` is row-independent even
    with per-row d-vectors.

    :meth:`submit` and the pending-queue handoff in :meth:`tick` are
    thread-safe, so producer threads (streaming sessions) may submit while a
    dedicated ticker thread drives inference — the shape of the serving event
    loop (:mod:`repro.serving`).  The inference itself runs one tick at a
    time, on the calling thread: the batch starts no threads of its own, and
    BLAS owns whatever parallelism the pass has.
    """

    def __init__(self, selector: Selector, max_batch_segments: int = 16) -> None:
        self.selector = selector
        self.max_batch_segments = max(int(max_batch_segments), 1)
        self._pending: List[StreamRequest] = []
        self._lock = threading.Lock()
        self._closed = False
        # Running counters, so a long-lived batch keeps O(1) stats.
        self.ticks = 0
        self.busy_ticks = 0             # ticks that inferred at least one segment
        self.segments_coalesced = 0
        self.max_tick_segments = 0

    @property
    def pending_segments(self) -> int:
        with self._lock:
            return sum(request.mixed_spectrograms.shape[0] for request in self._pending)

    @property
    def pending_requests(self) -> int:
        """Queued requests awaiting a tick (zero-segment submits included)."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, mixed_spectrograms: np.ndarray, d_vector: np.ndarray) -> StreamRequest:
        """Queue ``(n, F, T)`` segments of one stream for the next tick."""
        mixed = np.asarray(mixed_spectrograms)
        if mixed.ndim != 3:
            raise ValueError("submit expects a (n, F, T) stack of spectrograms")
        if self._closed:
            raise RuntimeError("StreamBatch is closed")
        request = StreamRequest(
            mixed_spectrograms=mixed, d_vector=np.asarray(d_vector)
        )
        with self._lock:
            self._pending.append(request)
        return request

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Refuse further submits.

        Idempotent; ticking an already-drained closed batch is a no-op, but
        submitting to one raises.
        """
        self._closed = True

    def __enter__(self) -> "StreamBatch":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def tick(self) -> int:
        """Run one coalesced inference pass over every pending segment.

        Segments from all queued requests are stacked (chunked at
        ``max_batch_segments`` to bound the activation batch, like the
        batched protect engine; the im2col scratch is one row's per thread,
        whatever the chunk) with their per-row d-vectors, inferred in one
        batched pass per chunk, and the shadows scattered back to their
        requests.  Returns the number of segments inferred.

        A tick with nothing to infer — no queued requests, or only
        zero-segment submits (an idle stream heartbeating the scheduler) — is
        a clean no-op: empty requests are still marked done (their shadow
        stack is the matching ``(0, F, T)`` empty array) so collectors never
        wait on a segment that does not exist.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        if not pending:
            self.ticks += 1
            return 0
        counts = [request.mixed_spectrograms.shape[0] for request in pending]
        if sum(counts) == 0:
            # Every pending request is empty: nothing to stack, nothing to
            # infer.  (np.concatenate over zero chunk starts would raise.)
            for request in pending:
                request.shadow_spectrograms = request.mixed_spectrograms[:0]
            self.ticks += 1
            return 0
        specs = np.concatenate([request.mixed_spectrograms for request in pending], axis=0)
        vectors = np.concatenate(
            [
                np.broadcast_to(
                    np.asarray(request.d_vector).reshape(1, -1),
                    (count, np.asarray(request.d_vector).size),
                )
                for request, count in zip(pending, counts)
            ],
            axis=0,
        )
        shadows = [
            self.selector.shadow_spectrogram_batch(
                specs[start : start + self.max_batch_segments],
                vectors[start : start + self.max_batch_segments],
            )
            for start in range(0, specs.shape[0], self.max_batch_segments)
        ]
        stacked = np.concatenate(shadows, axis=0)
        offset = 0
        for request, count in zip(pending, counts):
            request.shadow_spectrograms = stacked[offset : offset + count]
            offset += count
        rows = int(specs.shape[0])
        self.ticks += 1
        self.busy_ticks += 1
        self.segments_coalesced += rows
        self.max_tick_segments = max(self.max_tick_segments, rows)
        return rows
