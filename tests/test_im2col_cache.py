"""The per-thread im2col scratch behind the inference fast path.

``strided_im2col`` writes its padded input and column matrix into one
grow-only scratch per thread and dtype, whatever the call's shape; these tests
pin the properties the recycling must not break — the column matrix stays
bit-identical to the fancy-index reference call after call, the pad border is
re-zeroed when a smaller or differently padded call reuses the memory, dtypes
get their own buffers, worker threads never share storage, and the
row-at-a-time ``Conv2d.infer`` equals the autograd ``Conv2d.forward``.
"""

import threading

import numpy as np
import pytest

from repro.nn import Conv2d, Tensor, clear_im2col_buffer_cache
from repro.nn.conv import strided_im2col
from repro.nn.precision import inference_precision


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_im2col_buffer_cache()
    yield
    clear_im2col_buffer_cache()


def _reference_im2col(x, kernel_size, stride=1, dilation=(1, 1), padding=(0, 0)):
    return Tensor(x).im2col(
        kernel_size, stride=stride, dilation=dilation, padding=padding
    ).data


CASES = [
    dict(kernel_size=(1, 7), padding=(0, 3)),
    dict(kernel_size=(7, 1), padding=(3, 0)),
    dict(kernel_size=(5, 5), padding=(8, 2), dilation=(4, 1)),
    dict(kernel_size=(3, 3), padding=(0, 0), stride=2),
]


@pytest.mark.parametrize("case", CASES)
def test_matches_fancy_index_reference(case):
    x = np.random.default_rng(0).normal(size=(2, 3, 12, 9))
    np.testing.assert_array_equal(
        strided_im2col(x, **case), _reference_im2col(x, **case)
    )


def test_buffer_reuse_stays_bit_identical_and_border_stays_zero():
    rng = np.random.default_rng(1)
    case = dict(kernel_size=(5, 5), padding=(2, 2))
    previous = None
    for _ in range(4):  # every call after the first reuses the warm scratch
        x = rng.normal(size=(3, 2, 10, 8))
        columns = strided_im2col(x, **case)
        np.testing.assert_array_equal(columns, _reference_im2col(x, **case))
        if previous is not None:
            assert np.shares_memory(columns, previous)
        previous = columns


def test_shrinking_then_growing_calls_share_one_scratch():
    """Shapes and paddings that change call to call all reuse one scratch.

    Every input is offset far from zero, so a pad cell left over from the
    previous call's interior would show up as a mismatch.
    """
    rng = np.random.default_rng(4)
    calls = [
        ((2, 3, 12, 9), dict(kernel_size=(5, 5), padding=(8, 2), dilation=(4, 1))),
        ((1, 2, 7, 6), dict(kernel_size=(3, 3), padding=(1, 1))),
        ((1, 1, 5, 5), dict(kernel_size=(1, 7), padding=(0, 3))),
        ((1, 2, 6, 6), dict(kernel_size=(3, 3), padding=(0, 0), stride=2)),
        ((1, 3, 9, 8), dict(kernel_size=(7, 1), padding=(3, 0))),
        ((3, 3, 14, 11), dict(kernel_size=(5, 5), padding=(2, 3), dilation=(2, 1))),
    ]
    first = None
    for shape, case in calls:
        x = rng.normal(size=shape) + 10.0
        columns = strided_im2col(x, **case)
        np.testing.assert_array_equal(columns, _reference_im2col(x, **case))
        if first is None:
            first = columns
        elif columns.size <= first.size:
            assert np.shares_memory(columns, first)


@pytest.mark.parametrize("rows", [1, 3])
def test_conv_infer_matches_forward(rows):
    rng = np.random.default_rng(5)
    layers = [
        Conv2d(1, 4, (1, 7), padding=(0, 3), rng=rng),
        Conv2d(4, 4, (7, 1), padding=(3, 0), rng=rng),
        Conv2d(4, 4, (5, 5), padding=(4, 2), dilation=(2, 1), rng=rng),
        Conv2d(4, 2, (5, 5), padding="same", rng=rng),
    ]
    x = rng.normal(size=(rows, 1, 11, 13))
    for layer in layers:
        expected = layer.forward(Tensor(x)).data
        np.testing.assert_array_equal(layer.infer(x), expected)
        x = expected


def test_dtype_keys_buffers_under_float32_policy():
    x64 = np.random.default_rng(2).normal(size=(1, 2, 9, 7))
    columns64 = strided_im2col(x64, (3, 3), padding=(1, 1))
    expected64 = columns64.copy()
    with inference_precision("float32"):
        x32 = x64.astype(np.float32)
        columns32 = strided_im2col(x32, (3, 3), padding=(1, 1))
        assert columns32.dtype == np.float32
        np.testing.assert_array_equal(
            columns32, _reference_im2col(x32, (3, 3), padding=(1, 1))
        )
    # The float32 call got its own scratch; the float64 one is intact.
    assert not np.shares_memory(columns32, columns64)
    np.testing.assert_array_equal(columns64, expected64)


def test_cache_is_thread_local():
    x = np.random.default_rng(3).normal(size=(1, 1, 6, 6))
    main_columns = strided_im2col(x, (3, 3), padding=(1, 1))
    expected = main_columns.copy()
    seen = {}

    def worker():
        seen["columns"] = strided_im2col(x + 1.0, (3, 3), padding=(1, 1))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert not np.shares_memory(seen["columns"], main_columns)
    np.testing.assert_array_equal(
        seen["columns"], _reference_im2col(x + 1.0, (3, 3), padding=(1, 1))
    )
    np.testing.assert_array_equal(main_columns, expected)  # main thread untouched


def test_empty_output_raises():
    with pytest.raises(ValueError):
        strided_im2col(np.zeros((1, 1, 2, 2)), (5, 5))
