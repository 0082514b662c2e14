import functools
import importlib.util
import itertools
import multiprocessing
import sys
import time
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from cyclictrain import autodiff
from cyclictrain.autodiff import (
    WORKER_MACS,
    GradCheckReport,
    ShapeError,
    Tensor,
    add,
    bce_with_logits,
    box_iou_loss,
    conv2d,
    div,
    grad_check,
    leaky_relu,
    log,
    matmul,
    maxpool2d,
    mean,
    mse,
    mul,
    neg,
    no_grad,
    permute,
    relu,
    reshape,
    sigmoid,
    soft_dice,
    softmax,
    softmax_cross_entropy,
    softplus,
    sub,
    take_rows,
    tsum,
    upsample_nearest,
)
from cyclictrain.model import build_model

from conftest import max_rel_error, numeric_gradient


# ---------------------------------------------------------------------------
# forward basics


def test_identity_forward():
    x = Tensor([1.0, 2.0, 3.0])
    assert np.array_equal(x.data, [1.0, 2.0, 3.0])


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def _conv_oracle(x, w, padding, g):
    """Cross-correlation and the gradients of ``sum(out * g)``, element by element."""
    n, c, h, wid = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros(g.shape)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(n):
        for f in range(o):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    window = xp[b, :, i : i + kh, j : j + kw]
                    out[b, f, i, j] = np.sum(window * w[f])
                    gxp[b, :, i : i + kh, j : j + kw] += g[b, f, i, j] * w[f]
                    gw[f] += g[b, f, i, j] * window
    return out, gxp[:, :, padding : padding + h, padding : padding + wid], gw


def _rel(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_matches_nested_loop_oracle(channels, kernel, padding):
    rs = np.random.RandomState(10 * channels + kernel + padding)
    x = rs.randn(2, channels, 5, 7)  # H != W catches a swapped spatial axis
    w = rs.randn(4, channels, kernel, kernel)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, padding=padding)
    g = rs.randn(2, 4, 5 + 2 * padding - kernel + 1, 7 + 2 * padding - kernel + 1)
    expected, gx, gw = _conv_oracle(x, w, padding, g)
    assert out.shape == expected.shape
    assert _rel(out.data, expected) <= 1e-12
    tsum(mul(out, Tensor(g))).backward()
    assert _rel(xt.grad, gx) <= 1e-12
    assert _rel(wt.grad, gw) <= 1e-12


# (C_in, H, W, C_out, k): every conv of ArchConfig() and of the 16-px
# architectures the tests and the benchmark use
MODEL_CONV_SHAPES = [
    # 32 px, stage_channels (8, 16, 32), loc 32, query_dim 24, seg (16, 8)
    (1, 32, 32, 8, 3), (8, 16, 16, 16, 3), (16, 16, 16, 32, 3), (32, 16, 16, 32, 3),
    (32, 16, 16, 16, 3), (16, 32, 32, 8, 3), (8, 32, 32, 3, 1), (32, 16, 16, 24, 1),
    (24, 16, 16, 24, 3), (24, 8, 8, 4, 1),
    # 16 px, stage_channels (6, 10, 16), loc 12, query_dim 8, seg (6, 4)
    (1, 16, 16, 6, 3), (6, 8, 8, 10, 3), (10, 8, 8, 16, 3), (16, 8, 8, 12, 3),
    (16, 8, 8, 6, 3), (6, 16, 16, 4, 3), (4, 16, 16, 3, 1), (12, 8, 8, 8, 1),
    (8, 8, 8, 8, 3), (8, 4, 4, 4, 1),
    # 16 px, stage_channels (4, 6, 8), loc 8, query_dim 8, seg (6, 4)
    (1, 16, 16, 4, 3), (4, 8, 8, 6, 3), (6, 8, 8, 8, 3), (8, 8, 8, 6, 3), (8, 8, 8, 8, 1),
]

# (C_in, H, W, C_out, k, factor): convolutions of an input upsampled by
# ``factor`` -- seg_decoder/conv2 of ArchConfig() and of the 16-px
# architectures, then a 1x1 kernel on a non-square map upsampled 3x
UPSAMPLED_CONV_SHAPES = [(16, 16, 16, 8, 3, 2), (6, 8, 8, 4, 3, 2), (3, 5, 7, 4, 1, 3)]

# (C_in, H, W, C_out, k): convolutions the model does not build -- a 5x5
# kernel, a non-square map, one input and one output channel
EDGE_CONV_SHAPES = [(3, 10, 10, 4, 5), (3, 6, 11, 5, 3), (1, 8, 8, 1, 3), (1, 9, 6, 1, 1)]


@pytest.mark.parametrize("n", [2, 0])  # 0: predict's forward on an empty split
@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_padding_is_byte_equal_to_np_pad(n, padding):
    rs = np.random.RandomState(20 + padding)
    for c, h, wid, o, k in MODEL_CONV_SHAPES:
        x = rs.randn(n, c, h, wid)
        w = rs.randn(o, c, k, k)
        ho, wo = h + 2 * padding - k + 1, wid + 2 * padding - k + 1
        g = Tensor(rs.randn(n, o, ho, wo))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, padding=padding)
        tsum(mul(out, g)).backward()
        # reference: the input padded by np.pad, convolved without padding
        pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        xpt, wt_ref = Tensor(np.pad(x, pad), requires_grad=True), Tensor(w, requires_grad=True)
        ref = conv2d(xpt, wt_ref, padding=0)
        tsum(mul(ref, g)).backward()
        gx_ref = xpt.grad[:, :, padding : padding + h, padding : padding + wid]
        shape = (x.shape, w.shape, padding)
        assert out.data.tobytes() == ref.data.tobytes(), shape
        assert xt.grad.shape == x.shape, shape
        assert xt.grad.tobytes() == gx_ref.tobytes(), shape
        assert wt.grad.tobytes() == wt_ref.grad.tobytes(), shape


def _padded_conv_run(x, w, b, g, padding, grads, pad_first):
    """Forward bytes and x, w, b gradient bytes of ``sum(conv layer * g)``.

    With ``pad_first`` the input goes through ``np.pad`` and an unpadded
    conv instead, and the x gradient is the interior of the padded one.
    """
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xt = Tensor(np.pad(x, pad) if pad_first else x, requires_grad=grads[0])
    wt, bt = Tensor(w, requires_grad=grads[1]), Tensor(b, requires_grad=grads[2])
    out = conv2d(xt, wt, padding=0 if pad_first else padding, bias=bt, slope=0.1)
    tsum(mul(out, Tensor(g))).backward()
    gx = xt.grad
    if gx is not None and pad_first:
        gx = gx[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    return [out.data.tobytes()] + [None if a is None else a.tobytes() for a in (gx, wt.grad, bt.grad)]


@pytest.mark.parametrize("padding", [1, 2])
def test_conv2d_padding_in_image_blocks_is_byte_equal_to_np_pad(monkeypatch, padding):
    # a small block budget splits these batches into several blocks, some
    # with a shorter last one, so the forward refills one padded block
    # buffer per block and the backward pads the whole batch again
    monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", 40_000)
    rs = np.random.RandomState(90 + padding)
    split = ragged = 0
    for c, h, wid, o, k in MODEL_CONV_SHAPES:
        w, b = rs.randn(o, c, k, k), rs.randn(o)
        ho, wo = h + 2 * padding - k + 1, wid + 2 * padding - k + 1
        for n in (1, 7):
            x = rs.randn(n, c, h, wid)
            x[-1, :, :2] = 0.0  # exact zeros reach the activation
            g = rs.randn(n, o, ho, wo)
            step = autodiff._block_images(n, c * k * k * ho * wo * 8)
            split += step < n
            ragged += step < n and n % step != 0
            # all trainable, frozen x, frozen w
            for grads in ((True, True, True), (False, True, True), (True, False, False)):
                blocked = _padded_conv_run(x, w, b, g, padding, grads, pad_first=False)
                ref = _padded_conv_run(x, w, b, g, padding, grads, pad_first=True)
                assert blocked == ref, (x.shape, w.shape, padding, grads)
                assert [r is not None for r in blocked[1:]] == list(grads)
    assert split > 0 and ragged > 0


def test_conv2d_node_keeps_no_padded_copy_of_a_batch_of_blocks():
    rs = np.random.RandomState(95)
    x = Tensor(rs.randn(64, 16, 32, 32), requires_grad=True)
    w, b = Tensor(rs.randn(8, 16, 3, 3), requires_grad=True), Tensor(rs.randn(8), requires_grad=True)
    assert autodiff._block_images(64, 16 * 9 * 32 * 32 * 8) < 64
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, w, padding=1, bias=b, slope=0.1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    masks = 2 * out.data.size  # two bool maps of the pre-activation's sign
    padded_copy = 64 * 16 * 34 * 34 * 8
    assert kept - out.data.nbytes - masks < padded_copy


def _one_gemm_cols(x, k, padding):
    """The whole batch's (c, di, dj) x (n, i, j) patch matrix of ``x`` padded by ``np.pad``."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = xp.shape[2] - k + 1, xp.shape[3] - k + 1
    cols = np.stack([xp[:, :, di : di + ho, dj : dj + wo].transpose(1, 0, 2, 3)
                     for di in range(k) for dj in range(k)], axis=1)
    return cols.reshape(c * k * k, n * ho * wo), ho, wo


def _one_gemm_conv(x, w, padding):
    """The whole batch's patch matrix in one GEMM, as NCHW."""
    o, _, k, _ = w.shape
    cols, ho, wo = _one_gemm_cols(x, k, padding)
    ref = w.reshape(o, -1) @ cols
    return np.ascontiguousarray(ref.reshape(o, x.shape[0], ho, wo).transpose(1, 0, 2, 3))


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_blocked_forward_is_byte_equal_to_one_gemm(padding):
    rs = np.random.RandomState(40 + padding)
    ragged = 0
    for c, h, wid, o, k in MODEL_CONV_SHAPES:
        w = rs.randn(o, c, k, k)
        ho, wo = h + 2 * padding - k + 1, wid + 2 * padding - k + 1
        for n in (0, 1, 3, 8, 64):
            x = rs.randn(n, c, h, wid)
            ref = _one_gemm_conv(x, w, padding)
            out = conv2d(x, w, padding=padding).data
            shape = (x.shape, w.shape, padding)
            assert out.flags.c_contiguous, shape
            assert out.tobytes() == ref.tobytes(), shape
            image_bytes = c * k * k * ho * wo * 8
            step = autodiff._block_images(n, image_bytes)
            assert step * image_bytes <= autodiff.PATCH_BLOCK_BYTES or step == 1, shape
            ragged += 0 < step < n and n % step != 0
    # the budget splits some batches into blocks whose last one is smaller
    assert ragged > 0
    # an upsampling conv: each block is upsampled into its padded buffer
    split = whole = 0
    for c, h, wid, o, k, f in UPSAMPLED_CONV_SHAPES:
        w = rs.randn(o, c, k, k)
        ho, wo = f * h + 2 * padding - k + 1, f * wid + 2 * padding - k + 1
        for n in (0, 1, 3, 8, 64):
            x = rs.randn(n, c, h, wid)
            ref = _one_gemm_conv(x.repeat(f, axis=2).repeat(f, axis=3), w, padding)
            out = conv2d(x, w, padding=padding, upsample=f).data
            shape = (x.shape, w.shape, padding, f)
            assert out.flags.c_contiguous, shape
            assert out.tobytes() == ref.tobytes(), shape
            step = autodiff._block_images(n, c * k * k * ho * wo * 8)
            split += step < n
            whole += 1 < n <= step
    assert split > 0 and whole > 0


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_of_a_strided_view_is_byte_equal_to_its_copy(padding):
    # the patch matrix is a strided view of the input's memory, so a
    # non-contiguous input must give the bytes its contiguous copy gives
    rs = np.random.RandomState(50 + padding)
    x = rs.randn(3, 4, 9, 7).transpose(0, 1, 3, 2)[:, ::2]
    w = rs.randn(5, 2, 3, 3)
    g = Tensor(rs.randn(3, 5, 7 + 2 * padding - 2, 9 + 2 * padding - 2))
    grads = []
    for data in (x, np.ascontiguousarray(x)):
        xt, wt = Tensor(data, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, padding=padding)
        tsum(mul(out, g)).backward()
        grads.append((out.data.tobytes(), xt.grad.tobytes(), wt.grad.tobytes()))
    assert not x.flags.c_contiguous
    assert grads[0] == grads[1]


def test_leaky_relu_is_bit_equal_to_relu_composition():
    rs = np.random.RandomState(5)
    special = [0.0, -0.0, -5e-324, 5e-324, -1e-310]
    flat = np.concatenate([rs.randn(40), special])
    # conv-shaped: a (batch, channel, h, w) map with zeros of both signs
    conv = rs.randn(2, 3, 4, 5)
    conv.flat[: len(special)] = special

    def run(act, x, g):
        t = Tensor(x.copy(), requires_grad=True)
        out = act(t)
        tsum(mul(out, Tensor(g))).backward()
        return out.data.tobytes(), t.grad.tobytes()

    def composition(t):
        return sub(relu(t), mul(Tensor(0.1), relu(neg(t))))

    for x in (flat, conv):
        g = rs.randn(*x.shape)
        g.flat[: len(special)] = [1.5, -2.0, 0.7, -0.3, 0.0]
        assert run(leaky_relu, x, g) == run(composition, x, g)

        # with infinite g the composition's gradient is NaN wherever one of
        # its two branches multiplies inf by a zero mask, so the gradient is
        # compared with the closed form the composition gives for finite g
        g.flat[::7] = np.inf
        g.flat[3::7] = -np.inf
        g.flat[5::7] = -0.0
        with np.errstate(invalid="ignore"):  # inf * 0
            value, grad = run(leaky_relu, x, g)
            assert value == run(composition, x, g)[0]
            assert grad == np.where(x > 0.0, g, 0.1 * g * (x < 0.0)).tobytes()


@pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
def test_leaky_relu_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError, match="slope"):
        leaky_relu(Tensor(np.ones(3)), slope)


def _conv_layer_chain(x, w, b, padding, slope=0.1, upsample=None):
    """The conv layer that ``conv2d(..., bias=b, slope=slope, upsample=upsample)`` fuses."""
    if upsample is not None:
        x = upsample_nearest(x, upsample)
    h = add(conv2d(x, w, padding=padding), reshape(b, (1, b.shape[0], 1, 1)))
    return h if slope is None else leaky_relu(h, slope)


def _conv_layer_run(layer, x, w, b, g, grads=(True, True, True)):
    """Forward bytes and the x, w, b gradient bytes of ``sum(layer(...) * g)``."""
    ts = [Tensor(a, requires_grad=r) for a, r in zip((x, w, b), grads)]
    out = layer(*ts)
    tsum(mul(out, Tensor(g))).backward()
    return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in ts]


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_fused_bias_and_leaky_relu_is_byte_equal_to_the_chain(monkeypatch, padding):
    rs = np.random.RandomState(60 + padding)
    split = 0
    for c, h, wid, o, k in MODEL_CONV_SHAPES:
        w = rs.randn(o, c, k, k)
        b = rs.randn(o)
        b[0] = 0.0  # with an all-zero image below, exact zeros reach the activation
        ho, wo = h + 2 * padding - k + 1, wid + 2 * padding - k + 1
        for n in (0, 1, 3, 8, 64):
            x = rs.randn(n, c, h, wid)
            x[:1] = 0.0
            g = rs.randn(n, o, ho, wo)
            fused = _conv_layer_run(
                lambda x, w, b: conv2d(x, w, padding=padding, bias=b, slope=0.1), x, w, b, g)
            chain = _conv_layer_run(
                lambda x, w, b: _conv_layer_chain(x, w, b, padding), x, w, b, g)
            assert fused == chain, (x.shape, w.shape, padding)
            split += autodiff._block_images(n, c * k * k * ho * wo * 8) < n
    # some batch-64 forwards run in several image blocks
    assert split > 0
    # the layer after an upsampling, fused as ``upsample``; the small budget
    # splits every batch above one image, so the backward pads it again
    blocks = set()
    for budget in (autodiff.PATCH_BLOCK_BYTES, 40_000):
        monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", budget)
        for c, h, wid, o, k, f in UPSAMPLED_CONV_SHAPES:
            w, b = rs.randn(o, c, k, k), rs.randn(o)
            b[0] = 0.0
            ho, wo = f * h + 2 * padding - k + 1, f * wid + 2 * padding - k + 1
            for n in (0, 1, 3, 8):
                x = rs.randn(n, c, h, wid)
                x[:1] = 0.0
                g = rs.randn(n, o, ho, wo)
                fused = _conv_layer_run(
                    lambda x, w, b: conv2d(x, w, padding=padding, bias=b, slope=0.1, upsample=f),
                    x, w, b, g)
                chain = _conv_layer_run(
                    lambda x, w, b: _conv_layer_chain(x, w, b, padding, upsample=f), x, w, b, g)
                assert fused == chain, (x.shape, w.shape, padding, f, budget)
                if n > 1:
                    blocks.add(autodiff._block_images(n, c * k * k * ho * wo * 8) < n)
    # one block held a whole batch, and several blocks split one
    assert blocks == {False, True}


def test_conv2d_fused_bias_and_leaky_relu_grads_follow_requires_grad(monkeypatch):
    rs = np.random.RandomState(70)
    # without upsampling, then upsampled 2x in one block and in several
    for f, budget in ((None, autodiff.PATCH_BLOCK_BYTES), (2, autodiff.PATCH_BLOCK_BYTES),
                      (2, 40_000)):
        monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", budget)
        for c, h, wid, o, k in [(8, 16, 16, 16, 3), (24, 8, 8, 4, 1)]:
            x, w, b = rs.randn(3, c, h, wid), rs.randn(o, c, k, k), rs.randn(o)
            up = f or 1
            g = rs.randn(3, o, up * h + 2 - k + 1, up * wid + 2 - k + 1)
            for grads in np.ndindex(2, 2, 2):
                grads = tuple(bool(r) for r in grads)
                fused = _conv_layer_run(
                    lambda x, w, b: conv2d(x, w, padding=1, bias=b, slope=0.1, upsample=f),
                    x, w, b, g, grads)
                chain = _conv_layer_run(
                    lambda x, w, b: _conv_layer_chain(x, w, b, 1, upsample=f), x, w, b, g, grads)
                assert fused == chain, (grads, f, budget)
                assert [r is not None for r in fused[1:]] == list(grads), grads
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            with no_grad():
                out = conv2d(xt, wt, padding=1, bias=bt, slope=0.1, upsample=f)
                ref = _conv_layer_chain(xt, wt, bt, 1, upsample=f)
            assert out.data.tobytes() == ref.data.tobytes()
            assert not out.requires_grad and out._parents == () and out._bwd is None


def test_conv2d_bias_without_activation_is_byte_equal_to_add():
    rs = np.random.RandomState(80)
    for c, h, wid, o, k in MODEL_CONV_SHAPES:
        x, w, b = rs.randn(3, c, h, wid), rs.randn(o, c, k, k), rs.randn(o)
        g = rs.randn(3, o, h - k + 1, wid - k + 1)
        fused = _conv_layer_run(lambda x, w, b: conv2d(x, w, bias=b), x, w, b, g)
        chain = _conv_layer_run(
            lambda x, w, b: _conv_layer_chain(x, w, b, 0, slope=None), x, w, b, g)
        assert fused == chain, (x.shape, w.shape)


@pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
def test_conv2d_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError, match="slope"):
        conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 1, 1))), slope=slope)


@pytest.mark.parametrize("factor", [0, -2, True, 2.0])
def test_conv2d_rejects_an_upsample_factor_below_one(factor):
    with pytest.raises(ValueError, match="conv2d: upsample factor"):
        conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 1, 1))), upsample=factor)


@pytest.mark.parametrize("padding", [-1, True, 1.0, 0.5, None])
def test_conv2d_rejects_a_padding_that_is_not_a_non_negative_integer(padding):
    with pytest.raises(ValueError, match="padding"):
        conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 1, 1))), padding=padding)


@pytest.mark.parametrize("op, name", [(maxpool2d, "size"), (upsample_nearest, "factor")])
@pytest.mark.parametrize("value", [-2, 0, True, 2.0, None])
def test_spatial_ops_reject_a_window_or_factor_that_is_not_a_positive_integer(op, name, value):
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    with pytest.raises(ValueError, match=f"{op.__name__}: {name}"):
        op(x, value)
    # a numpy integer is an integer
    np.testing.assert_array_equal(op(x, np.int64(2)).data, op(x, 2).data)


# ---------------------------------------------------------------------------
# conv2d on a worker thread: the kernel gradient, and a forward's last blocks


def _reference_conv(x, w, padding, factor):
    """conv2d as one tape node whose backward is written out in plain numpy.

    The forward is conv2d's own, unrecorded (image blocks of other sizes
    than the whole batch may round differently from one GEMM).  Kernel
    gradient: one GEMM of the channel-first gradient and the whole batch's
    patch matrix.  Input gradient: one matmul per tap into a zero-padded
    buffer, its interior reduced by nearest upsampling's cell sums.
    """
    n, c, h, wid = x.shape
    o, _, k, _ = w.shape
    xu = x.data.repeat(factor, axis=2).repeat(factor, axis=3)
    cols, ho, wo = _one_gemm_cols(xu, k, padding)

    def bwd(g):
        if w.requires_grad:
            gw = g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo) @ cols.T
            autodiff._accumulate(w, gw.reshape(w.shape))
        if x.requires_grad:
            hp, wp = factor * h + 2 * padding, factor * wid + 2 * padding
            gxp = np.zeros((n, c, hp, wp))
            for di in range(k):
                for dj in range(k):
                    gxp[:, :, di : di + ho, dj : dj + wo] += np.matmul(
                        w.data[:, :, di, dj].T, g.reshape(n, o, ho * wo)).reshape(n, c, ho, wo)
            gx = gxp[:, :, padding : hp - padding, padding : wp - padding]
            if factor > 1:
                gx = gx.reshape(n, c, h, factor, wid, factor).sum(axis=(3, 5))
            autodiff._accumulate(x, gx)

    with no_grad():
        out = conv2d(x, w, padding=padding, upsample=None if factor == 1 else factor)
    return autodiff._node(out.data, (x, w), bwd)


class _RecordingPool:
    """A one-thread executor that keeps every future it hands out, and the name of its function."""

    def __init__(self):
        self.executor = futures.ThreadPoolExecutor(1)
        self.jobs = []
        self.names = []

    def submit(self, fn, *args):
        job = self.executor.submit(fn, *args)
        self.jobs.append(job)
        self.names.append(fn.__name__)
        return job

    def count(self, name):
        return self.names.count(name)


@pytest.fixture
def worker(monkeypatch):
    """conv2d hands every forward of several blocks, and every backward that
    needs both gradients, to a recording worker."""
    pool = _RecordingPool()
    monkeypatch.setattr(autodiff, "WORKER_MACS", 0)
    monkeypatch.setattr(autodiff, "_worker", lambda: pool)
    yield pool
    pool.executor.shutdown()


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_backward_on_a_worker_is_byte_equal_to_inline_and_reference(
        monkeypatch, worker, padding):
    rs = np.random.RandomState(110 + padding)
    cases = [(shape, 1, n) for shape in MODEL_CONV_SHAPES for n in (2, 7, 64)]
    cases += [(shape[:5], shape[5], n) for shape in UPSAMPLED_CONV_SHAPES for n in (2, 7, 64)]
    cases += [(shape, 1, n) for shape in EDGE_CONV_SHAPES for n in (1, 7)]
    ragged = 0
    shifted = set()
    for (c, h, wid, o, k), f, n in cases:
        x, w, b = rs.randn(n, c, h, wid), rs.randn(o, c, k, k), rs.randn(o)
        x[0, :, :2] = 0.0  # exact zeros reach the activation
        b[0] = 0.0
        ho, wo = f * h + 2 * padding - k + 1, f * wid + 2 * padding - k + 1
        # an output the size of the (upsampled) input takes the input
        # gradient's shifted flat adds, any other the per-tap scatter
        shifted.add((ho, wo) == (f * h, f * wid))
        g = rs.randn(n, o, ho, wo)
        # exact zeros of both signs reach the input gradient's GEMMs; the
        # byte comparisons below compare sign bits too
        g[0, :, 0] = 0.0
        g[-1, :, :, -1] = -0.0

        def fused(conv):
            return lambda x, w, b: leaky_relu(add(conv(x, w), reshape(b, (1, o, 1, 1))), 0.1)

        def channels_last(conv):
            # the layer's gradient arrives as a transposed view, which the
            # kernel gradient's GEMM reads without a copy
            return lambda x, w, b: permute(add(conv(x, w), reshape(b, (1, o, 1, 1))), (0, 2, 3, 1))

        up = None if f == 1 else f
        layers = [
            (lambda x, w, b: conv2d(x, w, padding=padding, bias=b, slope=0.1, upsample=up),
             fused, g),
            (lambda x, w, b: permute(conv2d(x, w, padding=padding, bias=b, upsample=up),
                                     (0, 2, 3, 1)),
             channels_last, np.ascontiguousarray(g.transpose(0, 2, 3, 1))),
        ]
        # the default block budget, and a small one that splits the batch
        # into blocks with a shorter last one, so the backward pads it again
        budgets = [autodiff.PATCH_BLOCK_BYTES] + [40_000] * (n == 7)
        all_grads = [(True, True, True)] + [(False, True, True), (True, False, True)] * (n == 7)
        for budget in budgets:
            monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", budget)
            ragged += n % autodiff._block_images(n, c * k * k * ho * wo * 8) != 0
            for (layer, chain, gl), grads in itertools.product(layers, all_grads):
                label = (x.shape, w.shape, padding, f, budget, grads, chain.__name__)
                submitted = worker.count("_grad_w_into")
                on_worker = _conv_layer_run(layer, x, w, b, gl, grads)
                assert worker.count("_grad_w_into") - submitted == (grads[:2] == (True, True)), label
                with monkeypatch.context() as inline:
                    inline.setattr(autodiff, "_worker", lambda: None)
                    assert _conv_layer_run(layer, x, w, b, gl, grads) == on_worker, label
                reference = _conv_layer_run(
                    chain(lambda x, w: _reference_conv(x, w, padding, f)), x, w, b, gl, grads)
                assert on_worker == reference, label
                assert [r is not None for r in on_worker[1:]] == list(grads), label
    assert ragged > 0
    assert shifted == {False, True}
    assert all(job.done() for job in worker.jobs)


def test_conv2d_worker_gradients_hold_under_frequent_thread_switches(monkeypatch, worker):
    # a caller that read the kernel gradient before the worker finished, or
    # a worker that wrote into a buffer the caller reuses, would break this
    rs = np.random.RandomState(125)
    x, w, b = rs.randn(8, 16, 16, 16), rs.randn(32, 16, 3, 3), rs.randn(32)
    g = rs.randn(8, 32, 16, 16)

    def layer(x, w, b):
        return conv2d(x, w, padding=1, bias=b, slope=0.1)

    with monkeypatch.context() as inline:
        inline.setattr(autodiff, "_worker", lambda: None)
        expected = _conv_layer_run(layer, x, w, b, g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        while worker.count("_grad_w_into") < 40 and time.monotonic() - start < 20:
            assert _conv_layer_run(layer, x, w, b, g) == expected
    finally:
        sys.setswitchinterval(interval)
    assert worker.count("_grad_w_into") >= 10


def test_conv2d_worker_error_propagates_after_the_input_gradient(monkeypatch, worker):
    def fail(*args):
        raise RuntimeError("grad-w failed")

    monkeypatch.setattr(autodiff, "_grad_w_into", fail)
    rs = np.random.RandomState(120)
    x, w = Tensor(rs.randn(3, 4, 8, 8), requires_grad=True), Tensor(rs.randn(5, 4, 3, 3), requires_grad=True)
    loss = tsum(conv2d(x, w, padding=1))
    assert worker.jobs == []  # one block: the forward ran inline
    with pytest.raises(RuntimeError, match="grad-w failed"):
        loss.backward()
    assert worker.names == ["fail"] and worker.jobs[0].done()
    assert w.grad is None


# (C_in, H, W, C_out, k, factor, blocks): the conv layers of ArchConfig()
# that a 64-image eval chunk splits into image blocks -- backbone conv1-3,
# the loc encoder, a loc decoder's `in` and `mix`, and the seg decoder's
# conv1 and conv2, which convolves its input upsampled 2x
EVAL_CONV_SHAPES = [
    (1, 32, 32, 8, 3, 1, 3), (8, 16, 16, 16, 3, 1, 5), (16, 16, 16, 32, 3, 1, 10),
    (32, 16, 16, 32, 3, 1, 22), (32, 16, 16, 24, 1, 1, 2), (24, 16, 16, 24, 3, 1, 16),
    (32, 16, 16, 16, 3, 1, 22), (16, 16, 16, 8, 3, 2, 64),
]


def _blocks(n, c, k, ho, wo):
    return -(-n // autodiff._block_images(n, c * k * k * ho * wo * 8))


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_forward_on_a_worker_is_byte_equal_to_inline_and_one_gemm(
        monkeypatch, worker, padding):
    rs = np.random.RandomState(150 + padding)
    default = autodiff.PATCH_BLOCK_BYTES
    split = ragged = 0
    for c, h, wid, o, k, f, eval_blocks in EVAL_CONV_SHAPES:
        w, b = rs.randn(o, c, k, k), rs.randn(o)
        b[0] = 0.0
        ho, wo = f * h + 2 * padding - k + 1, f * wid + 2 * padding - k + 1
        up = None if f == 1 else f
        monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", default)
        if padding == k // 2:  # the model's own padding
            assert _blocks(64, c, k, ho, wo) == eval_blocks, (c, o, k)
        # batch 64 and 8 at the default block budget, then 7 images in
        # blocks of a small budget, whose last one is shorter; blocks that
        # small may round differently from one GEMM, so those are held to
        # the inline path alone
        for n, budget in ((64, default), (8, default), (7, 40_000)):
            monkeypatch.setattr(autodiff, "PATCH_BLOCK_BYTES", budget)
            x = rs.randn(n, c, h, wid)
            x[0, :, :2] = 0.0  # exact zeros reach the activation
            blocks = _blocks(n, c, k, ho, wo)
            split += blocks > 1
            ragged += n % autodiff._block_images(n, c * k * k * ho * wo * 8) != 0
            label = (x.shape, w.shape, padding, f, budget)
            one_gemm = _one_gemm_conv(x.repeat(f, axis=2).repeat(f, axis=3), w, padding)
            fused_ref = leaky_relu(add(Tensor(one_gemm), reshape(Tensor(b), (1, o, 1, 1))), 0.1)

            def plain(x, w, b):
                return conv2d(x, w, padding=padding, upsample=up)

            def fused(x, w, b):
                return conv2d(x, w, padding=padding, bias=b, slope=0.1, upsample=up)

            for layer, ref in ((plain, one_gemm), (fused, fused_ref.data)):
                # not recorded: no masks
                submitted = worker.count("_forward_blocks_into")
                with no_grad():
                    out = layer(x, w, b).data
                assert worker.count("_forward_blocks_into") - submitted == (blocks > 1), label
                if budget == default:
                    assert out.tobytes() == ref.tobytes(), label
                with monkeypatch.context() as inline:
                    inline.setattr(autodiff, "_worker", lambda: None)
                    with no_grad():
                        assert layer(x, w, b).data.tobytes() == out.tobytes(), label
                # recorded: the fused layer's masks, read by its backward
                g = rs.randn(n, o, ho, wo)
                on_worker = _conv_layer_run(layer, x, w, b, g)
                assert on_worker[0] == out.tobytes(), label
                with monkeypatch.context() as inline:
                    inline.setattr(autodiff, "_worker", lambda: None)
                    assert _conv_layer_run(layer, x, w, b, g) == on_worker, label
    assert split > 0 and ragged > 0
    assert all(job.done() for job in worker.jobs)


def test_conv2d_forward_on_a_worker_holds_under_frequent_thread_switches(monkeypatch, worker):
    # a block written twice, or a caller that returned before the worker's
    # blocks were written, would break this
    rs = np.random.RandomState(160)
    x, w, b = rs.randn(64, 24, 16, 16), rs.randn(24, 24, 3, 3), rs.randn(24)
    g = rs.randn(64, 24, 16, 16)

    def layer(x, w, b):
        return conv2d(x, w, padding=1, bias=b, slope=0.1)

    with monkeypatch.context() as inline:
        inline.setattr(autodiff, "_worker", lambda: None)
        with no_grad():
            expected_out = layer(x, w, b).data.tobytes()
        expected = _conv_layer_run(layer, x, w, b, g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        while worker.count("_forward_blocks_into") < 40 and time.monotonic() - start < 20:
            with no_grad():
                assert layer(x, w, b).data.tobytes() == expected_out
            assert _conv_layer_run(layer, x, w, b, g) == expected
    finally:
        sys.setswitchinterval(interval)
    assert worker.count("_forward_blocks_into") >= 10


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_conv2d_forward_error_is_raised_after_the_worker_finished(monkeypatch, worker, failing):
    original = autodiff._forward_blocks_into
    outs, finished = [], []

    def blocks_into(*args):
        on_worker = args[9] > 0  # the worker's share starts after the first block
        outs.append(args[0])
        if on_worker:
            time.sleep(0.2)  # so that the caller's half ends first
        if on_worker == (failing == "worker"):
            raise RuntimeError("forward failed")
        original(*args)
        finished.append(time.monotonic())

    monkeypatch.setattr(autodiff, "_forward_blocks_into", blocks_into)
    rs = np.random.RandomState(170)
    x, w = rs.randn(16, 24, 16, 16), rs.randn(24, 24, 3, 3)
    with pytest.raises(RuntimeError, match="forward failed"):
        conv2d(x, w, padding=1)
    raised = time.monotonic()
    assert len(worker.jobs) == 1 and worker.jobs[0].done()
    assert len(finished) == 1 and finished[0] <= raised
    # nothing writes the output after conv2d has returned
    out = outs[0]
    written = out.tobytes()
    time.sleep(0.05)
    assert out.tobytes() == written


@pytest.mark.parametrize("sides", [1, 2])
def test_conv2d_forward_allocates_one_scratch_set_per_side(monkeypatch, sides):
    # The calling thread allocates one block's padded input, patch matrix
    # and GEMM result for each side once per call; the worker allocates no
    # array, and neither side allocates per block.  The only other memory is
    # numpy's own: its buffered ufunc iterator, which the broadcast bias add
    # uses, takes about 50 kB while it runs.
    pool = futures.ThreadPoolExecutor(1) if sides == 2 else None
    monkeypatch.setattr(autodiff, "_worker", lambda: pool)
    rs = np.random.RandomState(180)
    n, c, h, o, k = 64, 24, 16, 24, 3  # the loc decoder's mix: 16 blocks of 4 images
    x, w, b = rs.randn(n, c, h, h), rs.randn(o, c, k, k), rs.randn(o)
    step = autodiff._block_images(n, c * k * k * h * h * 8)
    assert (step, n // step) == (4, 16)
    one_set = 8 * step * (c * (h + 2) ** 2 + c * k * k * h * h + o * h * h)
    try:
        with no_grad():
            conv2d(x, w, padding=1, bias=b, slope=0.1)  # the worker thread starts
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = conv2d(x, w, padding=1, bias=b, slope=0.1)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
    finally:
        if pool is not None:
            pool.shutdown()
    expected = out.data.nbytes + sides * one_set
    assert expected <= peak <= expected + sides * 64 * 1024, (peak, expected)


def test_worker_starts_once_and_only_with_a_second_cpu(monkeypatch):
    monkeypatch.setattr(autodiff, "_pool", None)
    monkeypatch.setattr(autodiff, "_cpus", lambda: 1)
    assert autodiff._worker() is None
    monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
    pool = autodiff._worker()
    try:
        assert isinstance(pool, futures.ThreadPoolExecutor)
        assert autodiff._worker() is pool
    finally:
        pool.shutdown()


def _big_conv_forward_and_backward():
    rs = np.random.RandomState(130)
    # two blocks of 4 images, so the forward hands its second block over
    x = Tensor(rs.randn(8, 16, 16, 16), requires_grad=True)
    w = Tensor(rs.randn(8, 16, 3, 3), requires_grad=True)
    assert autodiff._block_images(8, 16 * 9 * 16 * 16 * 8) == 4
    tsum(conv2d(x, w, padding=1)).backward()
    return x.grad, w.grad


def test_conv2d_runs_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(autodiff, "_pool", None)
    monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
    monkeypatch.setattr(autodiff, "WORKER_MACS", 0)
    _big_conv_forward_and_backward()  # starts the worker thread in this process
    pool = autodiff._pool
    try:
        assert pool is not None
        child = multiprocessing.get_context("fork").Process(target=_big_conv_forward_and_backward)
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0
    finally:
        pool.shutdown()


def _benchmark_inputs(workload):
    """perfbench's specs and configs of one workload at seed 0, from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return module.make_inputs(workload, 0)
    finally:
        del sys.modules[spec.name]


def test_no_conv_of_a_lockstep_small_sized_step_uses_the_worker(monkeypatch, worker):
    # the threshold as the module sets it; the fixture set it to 0
    monkeypatch.setattr(autodiff, "WORKER_MACS", WORKER_MACS)
    handed_over = []  # the kernel shape of every forward that hands blocks over
    original = autodiff._forward_blocks_into

    @functools.wraps(original)
    def blocks_into(*args):
        if args[9] > 0:  # the worker's share starts after the caller's first block
            handed_over.append(args[3].shape)
        original(*args)

    monkeypatch.setattr(autodiff, "_forward_blocks_into", blocks_into)
    rs = np.random.RandomState(140)
    for workload in ("lockstep_small", "pretrain_cycle"):
        inputs = _benchmark_inputs(workload)
        arch, batch = inputs["arch"], inputs["train"].batch_size
        model = build_model(arch, [s.model_spec() for s in inputs["specs"]])
        for spec in inputs["specs"]:
            emb = model.backbone_features(rs.rand(batch, 1, arch.image_size, arch.image_size))
            for task in spec.tasks:
                out, _ = model.task_branch(emb, task, spec.dataset_id)
                tsum(out[0] if isinstance(out, tuple) else out).backward()
        if workload == "lockstep_small":
            # batch 4 at 16 px: every forward is one block, and every
            # backward is under the threshold
            assert worker.jobs == []
            # A 64-image eval chunk splits a layer into blocks once its patch
            # matrix, c*k*k*ho*wo*8 bytes per image, passes 32 kB per image.
            # backbone conv1 (18 kB), conv2 (27 kB) and the 1x1 loc `in`
            # stay one block.  Five layers split, and the worker's share of
            # each holds at least WORKER_MACS multiply-adds: backbone conv3
            # (10->16 at 8x8, 46 kB: 2 blocks of 32, 2.9 M of its 5.9 M),
            # the loc encoder (16->12, 74 kB: blocks of 22, 22 and 20;
            # 2.2 M), the loc decoder's mix (8->8, 37 kB: 2 blocks; 1.2 M),
            # seg conv1 (16->6, 74 kB: 3 blocks; 1.1 M) and seg conv2
            # (6->4 on the 2x upsampled 16x16 map, 111 kB: 4 blocks of 16;
            # 1.8 M).
            with no_grad():
                emb = model.backbone_features(rs.rand(64, 1, arch.image_size, arch.image_size))
                for spec in inputs["specs"]:
                    for task in spec.tasks:
                        model.task_branch(emb, task, spec.dataset_id)
            assert set(handed_over) == {(16, 10, 3, 3), (12, 16, 3, 3), (8, 8, 3, 3),
                                        (6, 16, 3, 3), (4, 6, 3, 3)}
            assert worker.names == ["_forward_blocks_into"] * len(handed_over)
            eval_hand_overs = len(handed_over)
    # pretrain-sized steps hand over both kinds of work
    assert worker.count("_grad_w_into") > 0
    assert worker.count("_forward_blocks_into") > eval_hand_overs


def _maxpool_oracle(x, size, g):
    """Nested loops; ties go to the first maximum in row-major window order."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // size, w // size))
    gx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(h // size):
                for j in range(w // size):
                    best = None
                    for di in range(size):
                        for dj in range(size):
                            at = (b, ch, i * size + di, j * size + dj)
                            if best is None or x[at] > x[best]:
                                best = at
                    out[b, ch, i, j] = x[best]
                    gx[best] = g[b, ch, i, j]
    return out, gx


@pytest.mark.parametrize("data", ["rounded", "plateau", "signed_zeros"])
@pytest.mark.parametrize("size", [2, 3, "global"])
def test_maxpool2d_matches_nested_loop_oracle(size, data):
    rs = np.random.RandomState(11)
    shape = (2, 3, 6, 6) if size == "global" else (2, 3, 6, 12)
    size = 6 if size == "global" else size
    if data == "rounded":
        # many ties, and -0.0 from rounding small negatives
        x = np.round(0.3 * rs.randn(*shape), 1)
    elif data == "plateau":
        # flat regions as in clipped images: zeros of both signs and ones
        x = np.clip(np.round(2.0 * rs.randn(*shape)), -0.0, 1.0)
        x[rs.rand(*shape) < 0.3] = -0.0
    else:
        # windows whose maximum is a zero held by both signs, so the bytes
        # of the output show which tied element was taken
        x = np.array([-1.0, -0.0, 0.0])[rs.randint(3, size=shape)]
    g = rs.randn(shape[0], shape[1], shape[2] // size, shape[3] // size)
    g[rs.rand(*g.shape) < 0.3] = -0.0
    expected, expected_gx = _maxpool_oracle(x, size, g)
    t = Tensor(x, requires_grad=True)
    out = maxpool2d(t, size)
    tsum(mul(out, Tensor(g))).backward()
    assert out.data.tobytes() == expected.tobytes()
    assert t.grad.tobytes() == expected_gx.tobytes()


def test_no_grad_records_no_tape():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with no_grad():
        out = leaky_relu(mul(w, w))
    assert out._parents == ()
    assert out._bwd is None
    assert not out.requires_grad
    assert np.array_equal(out.data, [1.0, 4.0, 9.0])
    assert mul(w, w).requires_grad  # recording resumes after the block


def test_no_grad_restores_the_flag_when_nested_and_after_an_exception():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not mul(w, w).requires_grad  # still off after the inner block
    assert mul(w, w).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert mul(w, w).requires_grad

    @no_grad()
    def forward():
        return mul(w, w)

    assert not forward().requires_grad
    assert mul(w, w).requires_grad


def test_conv_all_ones_valid():
    out = conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_forward_deterministic_bitwise():
    rs = np.random.RandomState(7)
    x = np.asarray(rs.randn(3, 2, 8, 8))
    w = np.asarray(rs.randn(4, 2, 3, 3))

    def run():
        h = relu(conv2d(Tensor(x), Tensor(w), padding=1))
        h = maxpool2d(h)
        return softmax(mean(h, axis=(2, 3)), axis=-1).data

    assert np.array_equal(run(), run())


def test_shape_errors_carry_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="conv2d"):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
    with pytest.raises(ShapeError, match="maxpool2d"):
        maxpool2d(Tensor(np.zeros((1, 1, 5, 4))))
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


# ---------------------------------------------------------------------------
# backward basics


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    mul(x, x).backward()
    assert x.grad == 6.0


def test_sigmoid_gradient_at_zero():
    x = Tensor(0.0, requires_grad=True)
    sigmoid(x).backward()
    assert x.grad == 0.25


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        relu(x).backward()


def test_no_grad_buffer_without_requires_grad():
    x = Tensor([1.0, -2.0])
    y = Tensor([1.0, 1.0], requires_grad=True)
    loss = mean(mul(relu(x), y))
    loss.backward()
    assert x.grad is None
    assert y.grad is not None


def test_a_constant_operand_gets_no_gradient_computed():
    # a divisor's gradient, -g * x / (b * b), divides by zero for b = 1e-200;
    # a constant divisor needs none, so none is computed
    x = Tensor([1.0, -2.0], requires_grad=True)
    tsum(div(x, Tensor(1e-200))).backward()
    assert x.grad.tobytes() == (np.ones(2) / 1e-200).tobytes()


def test_backward_resets_between_calls():
    x = Tensor(2.0, requires_grad=True)
    mul(x, x).backward()
    first = float(x.grad)
    mul(x, x).backward()
    assert float(x.grad) == first  # no accumulation across passes


def test_backward_frees_intermediate_grads_and_the_tape_walks_again():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    c = Tensor([0.5, 0.5, 0.5])
    h = leaky_relu(mul(x, c))
    loss = tsum(mul(h, h))
    loss.backward()
    first = x.grad.tobytes()
    # leaves and the root keep their gradients; intermediate nodes do not
    assert h.grad is None and h._parents[0].grad is None and c.grad is None
    assert loss.grad is not None
    loss.backward()
    assert x.grad.tobytes() == first and h.grad is None


def test_two_layer_perceptron_matches_finite_differences(rs):
    # <= 200 parameters: 6x8 + 8 + 8x4 + 4 = 92
    w1 = Tensor(rs.randn(6, 8) * 0.5, requires_grad=True)
    b1 = Tensor(rs.randn(8) * 0.1, requires_grad=True)
    w2 = Tensor(rs.randn(8, 4) * 0.5, requires_grad=True)
    b2 = Tensor(rs.randn(4) * 0.1, requires_grad=True)
    x = rs.randn(5, 6)
    y = rs.randn(5, 4)

    def loss_fn():
        h = relu(add(matmul(Tensor(x), w1), b1))
        out = add(matmul(h, w2), b2)
        d = sub(out, Tensor(y))
        return mean(mul(d, d))

    loss_fn().backward()
    for t in (w1, b1, w2, b2):
        numeric = numeric_gradient(loss_fn, t)
        assert max_rel_error(t.grad, numeric) < 1e-4


def _primitive_cases(rs):
    """One scalar-loss graph per primitive (and support op).

    Constants are materialized up front so re-evaluating a case (for finite
    differencing) sees the exact same graph.
    """
    x44 = rs.randn(2, 3, 4, 4)
    k = rs.randn(2, 3, 3, 3) * 0.4
    m = rs.randn(4, 5)
    v = rs.randn(5, 3)
    c45a, c45b, c45c, c45d = (Tensor(rs.randn(4, 5)) for _ in range(4))
    cpos = Tensor(np.abs(rs.randn(4, 5)) + 1.0)
    c23 = Tensor(rs.randn(2, 3))
    c2222 = Tensor(rs.randn(2, 2, 2, 2))
    c2322 = Tensor(rs.randn(2, 3, 2, 2))
    c2388 = Tensor(rs.randn(2, 3, 8, 8))
    c210 = Tensor(rs.randn(2, 10))
    cases = {
        "add": (m, lambda t: mean(add(t, c45a))),
        "add_broadcast": (rs.randn(5), lambda t: mean(mul(add(Tensor(m), t), Tensor(m)))),
        "sub": (m, lambda t: mean(mul(sub(t, c45b), t))),
        "mul": (m, lambda t: mean(mul(t, c45c))),
        "mul_broadcast": (rs.randn(4, 1), lambda t: mean(mul(t, Tensor(m)))),
        "div": (m, lambda t: mean(div(t, cpos))),
        "neg": (m, lambda t: mean(mul(neg(t), t))),
        "matmul": (m, lambda t: mean(matmul(t, Tensor(v)))),
        "matmul_batched": (
            rs.randn(2, 4, 5),
            lambda t: mean(matmul(t, Tensor(v))),
        ),
        "relu": (m, lambda t: mean(relu(t))),
        "leaky_relu": (m, lambda t: mean(mul(leaky_relu(t), c45a))),
        "sigmoid": (m, lambda t: mean(sigmoid(t))),
        "softplus": (m, lambda t: mean(softplus(t))),
        "log": (np.abs(m) + 0.5, lambda t: mean(log(t))),
        "softmax": (m, lambda t: mean(mul(softmax(t, axis=-1), c45d))),
        "mean_axis": (x44, lambda t: tsum(mul(mean(t, axis=(2, 3)), c23))),
        "tsum": (m, lambda t: mul(tsum(t), Tensor(0.3))),
        "conv2d": (x44, lambda t: mean(conv2d(t, Tensor(k), padding=1))),
        "conv2d_weights": (k, lambda t: mean(mul(conv2d(Tensor(x44), t), c2222))),
        "maxpool2d": (x44, lambda t: mean(mul(maxpool2d(t), c2322))),
        "upsample_nearest": (x44, lambda t: mean(mul(upsample_nearest(t), c2388))),
        "reshape": (m, lambda t: mean(mul(reshape(t, (2, 10)), c210))),
        "take_rows": (m, lambda t: mean(mul(take_rows(t, np.array([0, 2, 2, 3])), c45a))),
    }
    # drawn after the cases above, so their data stays as it was
    b2 = rs.randn(2)
    c2244 = Tensor(rs.randn(2, 2, 4, 4))
    xt, kt, bt = Tensor(x44), Tensor(k), Tensor(b2)

    def conv_layer(x, w, b):
        return conv2d(x, w, padding=1, bias=b, slope=0.1)

    cases["conv2d_bias_act_x"] = (x44, lambda t: mean(mul(conv_layer(t, kt, bt), c2244)))
    cases["conv2d_bias_act_w"] = (k, lambda t: mean(mul(conv_layer(xt, t, bt), c2244)))
    cases["conv2d_bias_act_b"] = (b2, lambda t: mean(mul(conv_layer(xt, kt, t), c2244)))
    c2288 = Tensor(rs.randn(2, 2, 8, 8))
    cases["conv2d_upsample_bias_act_x"] = (x44, lambda t: mean(mul(
        conv2d(t, kt, padding=1, bias=bt, slope=0.1, upsample=2), c2288)))
    # the fused losses
    y45 = (rs.rand(4, 5) > 0.5).astype(float)
    mask = (rs.rand(2, 3, 4, 4) > 0.5).astype(float)
    t45 = rs.randn(4, 5)
    classes = rs.randint(0, 5, size=(2, 2))
    cases["bce_with_logits"] = (m, lambda t: bce_with_logits(t, y45))
    cases["soft_dice"] = (x44, lambda t: soft_dice(t, mask))
    cases["mse"] = (m, lambda t: mse(t, t45))
    cases["softmax_cross_entropy"] = (m.reshape(2, 2, 5),
                                      lambda t: softmax_cross_entropy(t, classes))
    # overlapping boxes, centers in [0.4, 0.6] and sides in [0.2, 0.4]
    pred_boxes, target_boxes = (np.column_stack([rs.rand(5, 2) * 0.2 + 0.4,
                                                 rs.rand(5, 2) * 0.2 + 0.2]) for _ in range(2))
    cases["box_iou_loss"] = (pred_boxes, lambda t: box_iou_loss(t, target_boxes))
    return cases


@pytest.mark.parametrize("seed", range(20))
def test_every_primitive_matches_finite_differences(seed):
    rs = np.random.RandomState(1000 + seed)
    for name, (data, build) in _primitive_cases(rs).items():
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        build(t).backward()
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(lambda: build(t), t)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-4, f"{name} (seed {seed}): rel error {err}"


def test_batch_sum_gradient_is_sum_of_per_sample_gradients(rs):
    w = Tensor(rs.randn(3, 2), requires_grad=True)
    xs = rs.randn(4, 3)

    def per_sample(i):
        out = matmul(Tensor(xs[i : i + 1]), w)
        return tsum(mul(out, out))

    total = per_sample(0)
    for i in range(1, 4):
        total = add(total, per_sample(i))
    total.backward()
    batched = total.data
    summed = w.grad.copy()

    accum = np.zeros_like(w.data)
    for i in range(4):
        per_sample(i).backward()
        accum += w.grad
    assert np.allclose(summed, accum, atol=1e-10)


# ---------------------------------------------------------------------------
# grad_check


def _linear_builder():
    rs = np.random.RandomState(3)
    w = Tensor(rs.randn(4, 3), requires_grad=True)
    b = Tensor(rs.randn(3), requires_grad=True)
    x = rs.randn(6, 4)
    y = rs.randn(6, 3)

    def loss_fn():
        d = sub(add(matmul(Tensor(x), w), b), Tensor(y))
        return mean(mul(d, d))

    return {"w": w, "b": b}, loss_fn


def test_grad_check_linear_layer():
    report = grad_check(_linear_builder)
    assert isinstance(report, GradCheckReport)
    assert report.passed
    assert report.max_error < 1e-4
    assert set(report.errors) == {"w", "b"}


def test_grad_check_excludes_frozen_parameters():
    def builder():
        params, loss_fn = _linear_builder()
        params["b"].requires_grad = False
        return params, loss_fn

    report = grad_check(builder)
    assert "b" not in report.errors
    assert report.frozen == ("b",)
    assert report.passed


def test_grad_check_conv_relu_mean_pipeline():
    def builder():
        rs = np.random.RandomState(4)
        w = Tensor(rs.randn(2, 1, 3, 3) * 0.5, requires_grad=True)
        b = Tensor(rs.randn(2) * 0.1, requires_grad=True)
        x = rs.randn(2, 1, 6, 6)

        def loss_fn():
            h = conv2d(Tensor(x), w, padding=1)
            h = add(h, reshape(b, (1, 2, 1, 1)))
            return mean(relu(h))

        return {"w": w, "b": b}, loss_fn

    report = grad_check(builder)
    assert report.passed


def test_grad_check_rejects_large_models():
    def builder():
        w = Tensor(np.zeros((100, 60)), requires_grad=True)
        return {"w": w}, lambda: mean(w)

    with pytest.raises(ValueError, match="5000"):
        grad_check(builder)
