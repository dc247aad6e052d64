"""In-memory span tracer that wraps the program's public callables from outside.

The benchmark never edits ``src/``: :func:`install` replaces public functions
and methods of ``repro.dsp``, ``repro.nn``, ``repro.core`` and
``repro.serving`` with thin wrappers that record one span per call.  A span
is ``(id, parent id, name, thread id, start, end, attributes)``; the parent is
the innermost open span on the same thread.  Spans stay in memory until the
run ends (:meth:`Tracer.dump`), and :func:`layer_metrics` turns them into the
per-layer numbers: self time (duration minus the time covered by direct child
spans), counts, FLOPs and bytes computed from tensor shapes, and queue waits
linked from ``StreamBatch.submit`` to the tick that served the request.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Selector convolution layers, in forward order.
CONV_LAYERS = ("conv_freq", "conv_time", "dilated0", "dilated1", "dilated2", "conv_out")

_FLOAT_BYTES = 8  # the default inference and training policy is float64


class Span:
    __slots__ = ("span_id", "parent_id", "name", "thread", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, name, thread, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs: Dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Records spans around wrapped callables; thread-safe, in memory only."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[tuple] = []
        # submit -> tick linkage: id(request) -> (request, submit time, request id)
        self._queued: Dict[int, tuple] = {}
        self._wakes: List[float] = []  # TickLoop.wake times, ascending

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].span_id if stack else None,
            name,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def current_request(self) -> Optional[str]:
        return getattr(self._local, "request_id", None)

    # -- wrapping ------------------------------------------------------------
    def wrap(
        self,
        owner,
        attribute: str,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``name`` is a string or ``name(args) -> str``.  ``before(span, args,
        kwargs)`` and ``after(span, args, result)`` attach attributes.  Module-level
        functions are also replaced in every ``repro`` module that imported
        them by name, so callers inside the program see the wrapper too.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            except BaseException as error:
                span.attrs["error"] = type(error).__name__
                raise
            finally:
                tracer.close(span)

        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attribute, None) is original
            ]
        for target in targets:
            self._restore.append((target, attribute, original))
            setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._restore):
            setattr(target, attribute, original)
        self._restore = []

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


# ----------------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------------
def _conv_attrs(names: Dict[int, str]):
    def before(span: Span, args, kwargs) -> None:
        layer, x = args[0], args[1]
        shape = getattr(x, "shape", None)
        span.attrs["in_shape"] = tuple(int(v) for v in shape) if shape is not None else None
        span.attrs["kernel"] = tuple(layer.kernel_size)
        span.attrs["channels"] = (layer.in_channels, layer.out_channels)

    def after(span: Span, args, result) -> None:
        shape = getattr(result, "shape", None)
        span.attrs["out_shape"] = tuple(int(v) for v in shape) if shape is not None else None

    return before, after


def install(tracer: Tracer) -> None:
    """Wrap the public callables the per-layer metrics are computed from."""
    # import_module returns the submodule even where a package re-exports a
    # function of the same name (``repro.dsp.stft``).
    pipeline, selector, training, stft, conv, fftconv, optim, tensor, loop, registry, session = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "core.pipeline", "core.selector", "core.training", "dsp.stft", "nn.conv",
            "nn.fftconv", "nn.optim", "nn.tensor", "serving.loop", "serving.registry",
            "serving.session",
        )
    )

    names: Dict[int, str] = {}
    original_init = selector.Selector.__init__

    @functools.wraps(original_init)
    def selector_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for layer_name in ("conv_freq", "conv_time", "conv_out"):
            names[id(getattr(self, layer_name))] = layer_name
        for index, layer in enumerate(self.dilated):
            names[id(layer)] = f"dilated{index}"

    tracer._restore.append((selector.Selector, "__init__", original_init))
    selector.Selector.__init__ = selector_init

    conv_before, conv_after = _conv_attrs(names)
    tracer.wrap(
        conv.Conv2d,
        "infer",
        lambda args: "nn.conv_infer." + names.get(id(args[0]), "other"),
        before=conv_before,
        after=conv_after,
    )

    def im2col_before(span: Span, args, kwargs) -> None:
        x = args[0]
        n, c, h, w = (int(v) for v in x.shape)
        pad_h, pad_w = kwargs.get("padding", (0, 0))
        # The cache keys on the full call signature; the padded input copy is
        # retained beside the column matrix.
        span.attrs["key"] = repr((x.shape, args[1:], sorted(kwargs.items()), x.dtype.str))
        span.attrs["padded_bytes"] = n * c * (h + 2 * pad_h) * (w + 2 * pad_w) * x.itemsize

    def im2col_after(span: Span, args, result) -> None:
        span.attrs["bytes"] = int(result.nbytes) + span.attrs["padded_bytes"]

    tracer.wrap(conv, "strided_im2col", "nn.im2col", before=im2col_before, after=im2col_after)
    tracer.wrap(conv, "clear_im2col_buffer_cache", "nn.im2col.clear")

    # Training-side convolution: forward_fft names the layer, fft_conv2d does the work.
    tracer.wrap(
        conv.Conv2d,
        "forward_fft",
        lambda args: "nn.conv_fft." + names.get(id(args[0]), "other"),
        before=conv_before,
        after=conv_after,
    )
    tracer.wrap(fftconv, "fft_conv2d", "nn.fft_conv2d")
    tracer.wrap(tensor.Tensor, "backward", "nn.backward")
    tracer.wrap(optim.Adam, "step", "nn.adam_step")

    tracer.wrap(stft, "batch_stft", "dsp.batch_stft")
    tracer.wrap(stft, "batch_istft", "dsp.batch_istft")
    tracer.wrap(stft.StreamingSTFT, "feed", "dsp.streaming_stft")
    tracer.wrap(stft.StreamingSTFT, "flush", "dsp.streaming_stft")
    tracer.wrap(stft.StreamingISTFT, "feed", "dsp.streaming_istft")
    tracer.wrap(stft.StreamingISTFT, "flush", "dsp.streaming_istft")

    tracer.wrap(selector.Selector, "forward_batch", "core.selector_head")
    tracer.wrap(selector.Selector, "forward_batch_train", "core.forward_batch_train")
    tracer.wrap(pipeline.NECSystem, "protect_batch", "core.protect_batch")
    tracer.wrap(pipeline.NECSystem, "protect", "core.protect")
    tracer.wrap(training.SelectorTrainer, "step_batch", "core.train_step")
    tracer.wrap(training.ExampleStream, "example_at", "core.example_stream.example_at")

    _install_stream_batch(tracer, selector.StreamBatch, loop.TickLoop)

    def feed_before(span: Span, args, kwargs) -> None:
        session_obj = args[0]
        tracer._local.request_id = (
            f"{session_obj.stream_id}#{session_obj.protector.samples_fed}"
        )
        span.attrs["request"] = tracer._local.request_id

    tracer.wrap(session.ProtectionSession, "feed", "serving.session.feed", before=feed_before)
    tracer.wrap(session.ProtectionSession, "collect", "serving.session.collect")
    tracer.wrap(registry.EnrollmentRegistry, "load_system", "serving.registry.load_system")
    tracer.wrap(registry.EnrollmentRegistry, "enroll", "serving.registry.enroll")


def _install_stream_batch(tracer: Tracer, stream_batch_cls, tick_loop_cls) -> None:
    """Link each submitted request to the tick that served it (across threads)."""

    def submit_after(span: Span, args, request) -> None:
        request_id = tracer.current_request()
        span.attrs["request"] = request_id
        with tracer._lock:
            tracer._queued[id(request)] = (request, span.start, request_id)

    def tick_after(span: Span, args, rows) -> None:
        span.attrs["rows"] = int(rows)
        submits, served = [], []
        with tracer._lock:
            for key, (request, submitted, request_id) in list(tracer._queued.items()):
                if request.done:
                    submits.append(submitted)
                    served.append(request_id)
                    del tracer._queued[key]
            # The wake that announced this tick's work: the first one at or
            # after the earliest submit it served.
            wake = None
            if submits:
                index = bisect.bisect_left(tracer._wakes, min(submits))
                if index < len(tracer._wakes) and tracer._wakes[index] <= span.start:
                    wake = tracer._wakes[index]
        span.attrs["queue_waits"] = [span.start - submitted for submitted in submits]
        span.attrs["requests"] = served
        span.attrs["wake_to_tick"] = span.start - wake if wake is not None else None

    tracer.wrap(stream_batch_cls, "submit", "core.stream_batch.submit", after=submit_after)
    tracer.wrap(stream_batch_cls, "tick", "core.stream_batch.tick", after=tick_after)

    original_wake = tick_loop_cls.wake

    @functools.wraps(original_wake)
    def wake(self):
        with tracer._lock:
            tracer._wakes.append(time.perf_counter())
        return original_wake(self)

    tracer._restore.append((tick_loop_cls, "wake", original_wake))
    tick_loop_cls.wake = wake


# ----------------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def conv_flops(span: Span) -> float:
    """Multiply-adds x 2 of one convolution call, from its shapes."""
    out_shape = span.attrs.get("out_shape")
    if not out_shape:
        return 0.0
    n, out_channels, out_h, out_w = out_shape
    kh, kw = span.attrs["kernel"]
    in_channels = span.attrs["channels"][0]
    return 2.0 * n * out_channels * in_channels * kh * kw * out_h * out_w


def conv_bytes(span: Span, im2col_engine: bool) -> float:
    """Bytes one convolution call moves, from its shapes.

    Input read + output write + weights read, plus (im2col engine) the column
    matrix written by the gather and read back by the matmul.
    """
    in_shape, out_shape = span.attrs.get("in_shape"), span.attrs.get("out_shape")
    if not in_shape or not out_shape:
        return 0.0
    n, in_channels, _, _ = in_shape
    _, out_channels, out_h, out_w = out_shape
    kh, kw = span.attrs["kernel"]
    elements = (
        n * in_channels * in_shape[2] * in_shape[3]
        + n * out_channels * out_h * out_w
        + out_channels * in_channels * kh * kw
    )
    if im2col_engine:
        elements += 2 * n * in_channels * kh * kw * out_h * out_w
    return float(elements * _FLOAT_BYTES)


def layer_metrics(
    tracer: Tracer,
    window: tuple,
    roots: tuple,
    operations: int,
) -> Dict[str, float]:
    """Per-layer metrics of the spans that start inside ``window``.

    Times, call counts and bytes are per operation: their total over the
    window divided by ``operations``, the workload's operations attempted in
    it (calls, segments or steps).  A faster program fits more operations in
    the window, so a total would grow with the speed-up it should show.

    ``roots`` names the top-level operation spans of the workload; the
    coverage ratio is the share of their time spent inside named layer
    spans (their descendants), the rest being glue code.
    """
    start, end = window
    per_op = 1.0 / max(operations, 1)
    spans = [span for span in tracer.spans if start <= span.start < end]
    child_time: Dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    self_ms = {span.span_id: 1000.0 * (span.duration - child_time[span.span_id]) for span in spans}

    def total_self(prefix: str) -> float:
        return sum(self_ms[span.span_id] for span in spans if span.name == prefix)

    def calls(prefix: str) -> int:
        return sum(1 for span in spans if span.name == prefix)

    metrics: Dict[str, float] = {}
    for layer in CONV_LAYERS:
        # Wall time in the layer whichever engine runs it (inference im2col
        # on offline/live, the FFT training path on train).
        metrics[f"nn.conv.{layer}.busy_ms"] = per_op * 1000.0 * sum(
            span.duration
            for span in spans
            if span.name in (f"nn.conv_infer.{layer}", f"nn.conv_fft.{layer}")
        )
        for engine, im2col_engine in (("conv_infer", True), ("conv_fft", False)):
            chosen = [span for span in spans if span.name == f"nn.{engine}.{layer}"]
            busy_s = sum(span.duration for span in chosen)
            flops = sum(conv_flops(span) for span in chosen)
            key = f"nn.{engine}.{layer}"
            metrics[f"{key}.self_ms"] = per_op * sum(self_ms[span.span_id] for span in chosen)
            metrics[f"{key}.calls"] = per_op * len(chosen)
            metrics[f"{key}.gflop_per_s"] = flops / busy_s / 1e9 if busy_s > 0 else 0.0
            metrics[f"{key}.mb_moved"] = (
                per_op * sum(conv_bytes(span, im2col_engine) for span in chosen) / 1e6
            )

    # im2col buffers are cached per thread and per shape key.  Replaying the
    # calls in order against a model of that store (emptied by
    # clear_im2col_buffer_cache, and by the store itself when a new key would
    # make it hold more than _IM2COL_CACHE_MAX_KEYS) gives the allocations
    # (new_shapes) and the most the stores held at once (retained_mb).
    max_keys = getattr(sys.modules.get("repro.nn.conv"), "_IM2COL_CACHE_MAX_KEYS", 32)
    stores: Dict[int, Dict[str, int]] = defaultdict(dict)
    new_shapes = 0
    resident = peak = 0
    for span in sorted(tracer.spans, key=lambda span: span.start):
        store = stores[span.thread]
        if span.name == "nn.im2col.clear":
            resident -= sum(store.values())
            store.clear()
        elif span.name == "nn.im2col" and "bytes" in span.attrs:
            if span.attrs["key"] in store:
                continue
            if len(store) >= max_keys:
                resident -= sum(store.values())
                store.clear()
            store[span.attrs["key"]] = span.attrs["bytes"]
            resident += span.attrs["bytes"]
            peak = max(peak, resident)
            if start <= span.start < end:
                new_shapes += 1
    metrics["nn.im2col.retained_mb"] = peak / 1e6
    metrics["nn.im2col.new_shapes"] = per_op * new_shapes

    for name in (
        "dsp.batch_stft",
        "dsp.batch_istft",
        "dsp.streaming_stft",
        "dsp.streaming_istft",
        "core.selector_head",
        "core.forward_batch_train",
        "nn.fft_conv2d",
        "nn.backward",
        "nn.adam_step",
        "serving.session.feed",
        "serving.session.collect",
    ):
        metrics[f"{name}.self_ms"] = per_op * total_self(name)
    # The Selector pass minus its convolutions, in either engine.
    metrics["core.selector_head.self_ms"] += metrics["core.forward_batch_train.self_ms"]
    metrics["dsp.streaming_stft.calls"] = per_op * calls("dsp.streaming_stft")
    metrics["nn.fft_conv2d.calls"] = per_op * calls("nn.fft_conv2d")

    ticks = [span for span in spans if span.name == "core.stream_batch.tick"]
    rows = [span.attrs.get("rows", 0) for span in ticks]
    waits = [1000.0 * wait for span in ticks for wait in span.attrs.get("queue_waits", [])]
    wakes = [
        1000.0 * span.attrs["wake_to_tick"]
        for span in ticks
        if span.attrs.get("wake_to_tick") is not None
    ]
    metrics["core.stream_batch.tick_self_ms"] = per_op * sum(
        self_ms[span.span_id] for span in ticks
    )
    metrics["core.stream_batch.ticks"] = per_op * len(ticks)
    metrics["core.stream_batch.rows_per_tick_p50"] = percentile(rows, 50)
    metrics["core.stream_batch.rows_per_tick_max"] = max(rows, default=0)
    metrics["core.stream_batch.empty_tick_ratio"] = (
        sum(1 for value in rows if value == 0) / len(rows) if rows else 0.0
    )
    metrics["core.stream_batch.queue_wait_p50_ms"] = percentile(waits, 50)
    metrics["core.stream_batch.queue_wait_p90_ms"] = percentile(waits, 90)
    metrics["serving.loop.wake_to_tick_ms"] = percentile(wakes, 50)

    examples = [span for span in spans if span.name == "core.example_stream.example_at"]
    metrics["core.example_stream.example_at_ms"] = (
        1000.0 * sum(span.duration for span in examples) / len(examples) if examples else 0.0
    )

    # Setup-time spans (before the window).
    for name in ("serving.registry.load_system", "serving.registry.enroll"):
        metrics[f"{name}_ms"] = 1000.0 * sum(
            span.duration for span in tracer.spans if span.name == name and span.start < start
        )

    # Coverage: share of the root operations' time spent in named layer spans.
    root_spans = [span for span in spans if span.name in roots]
    root_time = sum(span.duration for span in root_spans)
    root_self = sum(self_ms[span.span_id] / 1000.0 for span in root_spans)
    metrics["bench.coverage_ratio"] = (root_time - root_self) / root_time if root_time > 0 else 0.0
    return metrics

