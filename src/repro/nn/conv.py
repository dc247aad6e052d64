"""2-D convolution with dilation, implemented via im2col."""

from __future__ import annotations

import threading
from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.fftconv import fft_conv2d
from repro.nn.layers import Module
from repro.nn.precision import DTypePolicy, active_policy
from repro.nn.tensor import Tensor, conv_output_size, im2col_gather

IntPair = Union[int, Tuple[int, int]]

#: This thread's im2col scratch: one grow-only flat buffer per (role, dtype).
#: A fresh multi-megabyte column matrix page-faults on every layer, so the
#: gather recycles one warm buffer instead.  Thread-local because callers'
#: threads (a serving tick thread next to direct ``protect`` calls, say) may
#: run inference through the same layer objects at once.
_scratch = threading.local()


def clear_im2col_buffer_cache() -> None:
    """Free this thread's im2col scratch."""
    _scratch.buffers = {}


def _scratch_buffer(role: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A ``shape`` view of this thread's ``(role, dtype)`` scratch, grown if needed."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        buffers = _scratch.buffers = {}
    size = int(np.prod(shape))
    flat = buffers.get((role, dtype.str))
    if flat is None or flat.size < size:
        flat = buffers[(role, dtype.str)] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(shape)


def strided_im2col(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    dilation: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """im2col of a ``(N, C, H, W)`` array into this thread's scratch.

    The same column matrix as :meth:`Tensor.im2col` (both run
    :func:`~repro.nn.tensor.im2col_gather`), written into the thread's
    grow-only scratch — one padded-input and one column buffer per dtype, as
    large as the largest call so far.  :meth:`Conv2d.infer` calls this one
    row at a time, which caps the scratch at the largest one-row layer (about
    55 MB at the default geometry).  Inference-only: the result aliases the
    scratch and is valid until the next call on the same thread.
    """
    return im2col_gather(
        x, kernel_size, stride=stride, dilation=dilation, padding=padding,
        buffer=_scratch_buffer,
    )


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs.

    Supports per-axis kernel sizes, dilation and zero padding — everything the
    NEC Selector architecture (flat 1x7 / 7x1 filters, dilated 5x5 filters)
    requires.  ``padding='same'`` keeps the spatial size for stride 1.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: int = 1,
        padding: Union[str, IntPair] = 0,
        dilation: IntPair = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = stride
        self.dilation = _pair(dilation)
        if padding == "same":
            if stride != 1:
                raise ValueError("padding='same' requires stride=1")
            kh_eff = (self.kernel_size[0] - 1) * self.dilation[0] + 1
            kw_eff = (self.kernel_size[1] - 1) * self.dilation[1] + 1
            if kh_eff % 2 == 0 or kw_eff % 2 == 0:
                raise ValueError("padding='same' requires odd effective kernel size")
            self.padding = (kh_eff // 2, kw_eff // 2)
        else:
            self.padding = _pair(padding)  # type: ignore[arg-type]

        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        bound = np.sqrt(6.0 / max(fan_in, 1))
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(out_channels, in_channels, kh, kw)),
            requires_grad=True,
            name="weight",
        )
        self.bias = (
            Tensor(np.zeros(out_channels), requires_grad=True, name="bias")
            if bias
            else None
        )
        # Per-policy cache of the flattened inference weights.  Keyed on the
        # parameter arrays' identities: the optimisers rebind ``.data`` on
        # every step, so a stale cast can never be served after training.
        self._infer_weights_key: Optional[Tuple[str, int, int]] = None
        self._infer_weights: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None

    def output_size(self, height: int, width: int) -> Tuple[int, int]:
        return conv_output_size(
            height,
            width,
            self.kernel_size,
            stride=self.stride,
            dilation=self.dilation,
            padding=self.padding,
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        n, _, h, w = x.shape
        out_h, out_w = self.output_size(h, w)
        cols = x.im2col(
            self.kernel_size,
            stride=self.stride,
            dilation=self.dilation,
            padding=self.padding,
        )  # (N, C*kh*kw, out_h*out_w)
        kh, kw = self.kernel_size
        weight_matrix = self.weight.reshape(self.out_channels, self.in_channels * kh * kw)
        out = weight_matrix @ cols  # (N, out_channels, out_h*out_w) via broadcasting
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1)
        return out.reshape(n, self.out_channels, out_h, out_w)

    def forward_fft(self, x: Tensor, activation: Optional[str] = None) -> Tensor:
        """Frequency-domain forward pass: the minibatch training fast path.

        Same result as :meth:`forward` (plus ``.relu()`` when
        ``activation="relu"``) up to FFT round-off (~1e-13 relative; the
        batched-vs-looped gradient equivalence gate runs at 1e-9), but
        computed via :func:`repro.nn.fftconv.fft_conv2d`, which avoids the
        ``C*kh*kw``-fold im2col memory inflation that makes the stacked
        minibatch graph memory-bound.  Requires stride 1.
        """
        if self.stride != 1:
            raise ValueError("forward_fft requires stride=1")
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        return fft_conv2d(
            x,
            self.weight,
            self.bias,
            padding=self.padding,
            dilation=self.dilation,
            activation=activation,
        )

    def _inference_weights(
        self, policy: DTypePolicy
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The flattened (and policy-cast) weight matrix and bias row."""
        key = (
            policy.name,
            id(self.weight.data),
            id(self.bias.data) if self.bias is not None else 0,
        )
        if self._infer_weights_key != key:
            kh, kw = self.kernel_size
            weight_matrix = policy.real(
                self.weight.data.reshape(self.out_channels, self.in_channels * kh * kw)
            )
            bias_row = (
                policy.real(self.bias.data.reshape(1, self.out_channels, 1))
                if self.bias is not None
                else None
            )
            self._infer_weights_key = key
            self._infer_weights = (weight_matrix, bias_row)
        return self._infer_weights  # type: ignore[return-value]

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward pass on a ``(N, C, H, W)`` numpy array.

        Under the default float64 policy this is bit-identical to
        :meth:`forward`: the column matrix has the same layout, and the
        stacked ``weight @ cols`` there makes one GEMM call per row with the
        same shapes as the per-row GEMMs here.  It skips the autograd
        bookkeeping and gathers one row at a time into the thread's im2col
        scratch (:func:`strided_im2col`), so the working set is one row's
        column matrix whatever ``N`` is.  Under a reduced-precision policy
        (:mod:`repro.nn.precision`) the whole pass runs in the policy's real
        dtype, with the flattened weights cast once and cached per policy.
        This is the building block of the batched inference engine.
        """
        if x.ndim != 4:
            raise ValueError("Conv2d expects (N, C, H, W) input")
        policy = active_policy()
        x = policy.real(x)
        n, _, h, w = x.shape
        out_h, out_w = self.output_size(h, w)
        weight_matrix, bias_row = self._inference_weights(policy)
        out = np.empty((n, self.out_channels, out_h * out_w), dtype=weight_matrix.dtype)
        for row in range(n):
            cols = strided_im2col(
                x[row : row + 1],
                self.kernel_size,
                stride=self.stride,
                dilation=self.dilation,
                padding=self.padding,
            )
            np.matmul(weight_matrix, cols[0], out=out[row])
        if bias_row is not None:
            out += bias_row
        return out.reshape(n, self.out_channels, out_h, out_w)
