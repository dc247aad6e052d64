"""A small reverse-mode autograd / neural-network framework built on numpy.

The paper trains its Encoder / Selector models with a standard deep-learning
stack.  No such stack is available in this offline environment, so this
package provides the substrate: a :class:`~repro.nn.tensor.Tensor` with
reverse-mode automatic differentiation, the layers needed by the NEC Selector
and the VoiceFilter baseline (dense, 2-D convolution with dilation, LSTM,
batch-norm, dropout), losses, optimisers and model (de)serialisation.

The public surface mirrors the subset of a conventional framework that the
reproduction needs; everything is pure numpy and deterministic given a seed.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import (
    Module,
    Dense,
    ReLU,
    Sigmoid,
    Tanh,
    Dropout,
    Flatten,
    Sequential,
    BatchNorm1d,
    BatchNorm2d,
    ZeroPad2d,
    LayerNorm,
)
from repro.nn.conv import (
    Conv2d,
    strided_im2col,
    clear_im2col_buffer_cache,
)
from repro.nn.recurrent import LSTM, LSTMCell
from repro.nn.losses import mse_loss, l1_loss, cross_entropy_loss, cosine_embedding_loss
from repro.nn.optim import (
    SGD,
    Adam,
    Optimizer,
    ConstantLR,
    CosineLR,
    WarmupLR,
    LRSchedule,
    make_lr_schedule,
    clip_grad_norm,
    global_grad_norm,
)
from repro.nn.serialization import save_model, load_model, state_dict, load_state_dict
from repro.nn.fftconv import fft_conv2d, next_fast_len
from repro.nn.grad_check import (
    numerical_gradient,
    check_gradients,
    check_batched_gradients,
)

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "Flatten",
    "Sequential",
    "BatchNorm1d",
    "BatchNorm2d",
    "ZeroPad2d",
    "LayerNorm",
    "Conv2d",
    "strided_im2col",
    "fft_conv2d",
    "next_fast_len",
    "clear_im2col_buffer_cache",
    "LSTM",
    "LSTMCell",
    "mse_loss",
    "l1_loss",
    "cross_entropy_loss",
    "cosine_embedding_loss",
    "SGD",
    "Adam",
    "Optimizer",
    "ConstantLR",
    "CosineLR",
    "WarmupLR",
    "LRSchedule",
    "make_lr_schedule",
    "clip_grad_norm",
    "global_grad_norm",
    "save_model",
    "load_model",
    "state_dict",
    "load_state_dict",
    "numerical_gradient",
    "check_gradients",
    "check_batched_gradients",
]
