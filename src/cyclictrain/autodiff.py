"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op in this module computes its result eagerly and, when at least one
input requires a gradient, records the inputs plus a backward closure on the
output node.  The recorded nodes form an implicit tape: calling
``Tensor.backward()`` on a scalar walks it once in reverse topological order.
Stale gradient buffers on every reachable node are cleared before the walk,
so gradients never accumulate across two backward passes.  Intermediate
gradients do not survive the call: each recorded node drops its ``grad``
once its backward has run, and only the leaves and the root keep theirs.
The tape itself stays, so it can be walked again.

The op set splits in three groups:

* model primitives: ``conv2d``, ``maxpool2d``, ``matmul``, ``add``,
  ``reshape``, ``permute``, ``sigmoid`` -- everything the network branches
  are built from;
* loss support: ``sub``, ``neg``, ``mul``, ``div``, ``log``, ``softplus``,
  ``softmax``, ``relu``, ``mean``, ``tsum``, ``take_rows``, with ``add``,
  ``matmul``, ``reshape`` and ``sigmoid`` -- needed to express
  differentiable losses (cross entropy, L1, IoU ratios, Dice, squared
  error) on the same tape; ``relu`` serves only the loc box terms;
* references: ``leaky_relu`` and ``upsample_nearest``, the separate ops
  that the fused paths of ``conv2d`` are checked against.

``conv2d`` takes keyword-only ``bias`` and ``slope`` so that a whole conv
layer (conv, bias, leaky ReLU) is one node: it adds the bias and applies the
activation per image block of its blocked forward, in place, and keeps two
bool masks of the pre-activation's sign for the backward instead of the
pre-activation itself.  The result is byte-equal to the chain of separate
ops, forward and gradients.  It zero-pads its input one image block at a
time, and a recorded node keeps the padded input only when one block held
the whole batch.  Its keyword-only ``upsample`` factor fuses a preceding
``upsample_nearest`` the same way: each block is upsampled straight into
its padded buffer, so the full-resolution input never exists.  When a
large enough ``conv2d`` backward needs both the kernel and the input
gradient, a worker thread computes the kernel gradient while the calling
thread computes the input gradient (see :func:`conv2d`).  The worker makes
the GEMM call the inline path makes, on the same operands, so the bytes
are the same.  It calls no op of this module and records nothing; every
gradient is accumulated on the calling thread.

Inside a ``no_grad()`` block no op records anything; evaluation runs there.

All arrays are float64; there is no implicit down-casting anywhere.
"""

from __future__ import annotations

import os
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "relu",
    "leaky_relu",
    "sigmoid",
    "softplus",
    "log",
    "softmax",
    "mean",
    "tsum",
    "conv2d",
    "maxpool2d",
    "upsample_nearest",
    "reshape",
    "permute",
    "take_rows",
    "no_grad",
    "GradCheckReport",
    "grad_check",
]


class ShapeError(ValueError):
    """An op received operands with incompatible shapes."""


class Tensor:
    """Dense float64 array plus the bookkeeping needed for backprop.

    ``requires_grad=False`` tensors never receive a ``grad`` buffer; they act
    as constants (inputs, targets, frozen weights, teacher weights).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Populate ``grad`` on every reachable ``requires_grad`` tensor.

        Must be called on a scalar node.  Gradients of all reachable nodes
        are reset first, so repeated calls never accumulate across passes.
        Intermediate gradients do not survive the call: a recorded node's
        ``grad`` is set to None as soon as its backward has run, because no
        later step adds to it.  Leaves (parameters, inputs) and this root
        keep theirs.  Every node keeps its parents and backward closure, so
        the same tape can be walked again.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward: loss must be a scalar, got shape {self.data.shape}"
            )
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)
                if node is not self:
                    node.grad = None

    # Arithmetic sugar; every overload routes through the op functions so
    # the tape sees a uniform node vocabulary.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block, also usable as a decorator.

    Op outputs get no parents and no backward closure even when an input
    requires a gradient, so forward-only passes keep no activations alive.
    The previous setting is restored on exit, nested or not.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bwd = bwd
    return out


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = grad if t.grad is None else t.grad + grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: operands do not broadcast ({a.shape} vs {b.shape})")

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: operands do not broadcast ({a.shape} vs {b.shape})")

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: operands do not broadcast ({a.shape} vs {b.shape})")

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: operands do not broadcast ({a.shape} vs {b.shape})")

    def bwd(g):
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(data, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accumulate(a, -g)

    return _node(-a.data, (a,), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0

    def bwd(g):
        _accumulate(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bwd)


def _check_slope(op: str, slope: float) -> None:
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"{op}: slope {slope} is outside [0, 1]")


def _leaky(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, slope * x)`` into ``out`` (a fresh array when None; may be ``x``)."""
    scaled = x * slope
    if out is None:
        out = scaled
    np.maximum(x, scaled, out=out)
    # turns -0.0 into 0.0, as the composition's subtraction does
    out += 0.0
    return out


def _leaky_grad(below: np.ndarray, above: np.ndarray, slope: float, g: np.ndarray) -> np.ndarray:
    """The leaky ReLU input gradient from the masks ``x < 0`` and ``x > 0``.

    The multiplier is 1 above zero, slope below, 0 at zero; ``m * g`` then
    rounds exactly as the composition's g, slope * g and slope * g * 0 do.
    """
    m = np.multiply(below, slope)
    m += above
    m *= g
    return m


def leaky_relu(a, slope: float = 0.1) -> Tensor:
    """``relu(x) - slope * relu(-x)`` as one node, bit-equal to that composition.

    The gradient is ``g`` above zero, ``slope * g`` below it and zero at
    exactly zero, the subgradient the composition picks.  ``slope`` must lie
    in ``[0, 1]``: the forward is ``max(x, slope * x)``, which is that
    composition only there.
    """
    _check_slope("leaky_relu", slope)
    a = _as_tensor(a)
    data = _leaky(a.data, slope)

    def bwd(g):
        _accumulate(a, _leaky_grad(a.data < 0.0, a.data > 0.0, slope, g))

    return _node(data, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _stable_sigmoid(a.data)

    def bwd(g):
        _accumulate(a, g * y * (1.0 - y))

    return _node(y, (a,), bwd)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a) -> Tensor:
    """log(1 + exp(x)), evaluated without overflow; derivative is sigmoid."""
    a = _as_tensor(a)
    data = np.logaddexp(0.0, a.data)

    def bwd(g):
        _accumulate(a, g * _stable_sigmoid(a.data))

    return _node(data, (a,), bwd)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - inner))

    return _node(y, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and structure


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    data = a.data.mean(axis=axes)

    def bwd(g):
        gexp = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(gexp, a.data.shape) / count)

    return _node(data, (a,), bwd)


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    data = a.data.sum(axis=axes)

    def bwd(g):
        gexp = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(gexp, a.data.shape) + 0.0)

    return _node(data, (a,), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")

    def bwd(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _node(data, (a,), bwd)


def permute(a, axes) -> Tensor:
    """Reorder axes (numpy transpose); gradient applies the inverse order."""
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation for shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)

    def bwd(g):
        _accumulate(a, np.transpose(g, inverse))

    return _node(data, (a,), bwd)


def take_rows(a, indices) -> Tensor:
    """Select rows along axis 0; duplicate indices sum their gradients."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def bwd(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accumulate(a, buf)

    return _node(data, (a,), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul: operands must be at least 2-D ({a.shape} vs {b.shape})"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions differ ({a.shape} vs {b.shape})"
        )
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# spatial ops (NCHW layout, stride 1 convolutions, zero padding)


def _taps(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int) -> np.ndarray:
    """The patch matrix of a padded NCHW array as a strided view, axes ``(c, di, dj, n, i, j)``.

    A non-contiguous ``xp`` is copied first; the view reads that copy.
    """
    xp = np.ascontiguousarray(xp)
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.ndarray((c, kh, kw, n, ho, wo), xp.dtype, xp, 0, (sc, sh, sw, sn, sh, sw))


def _patches(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int) -> np.ndarray:
    """im2col: the ``(C*kh*kw, N*ho*wo)`` patch matrix of a padded NCHW array.

    Row ``(c, di, dj)`` holds input channel ``c`` shifted by tap ``(di, dj)``
    at every output position, so a convolution is one matrix product.  The
    matrix is one copy of :func:`_taps`: the same bytes as a copy per tap,
    in one numpy call.
    """
    n, c = xp.shape[:2]
    return _taps(xp, kh, kw, ho, wo).copy().reshape(c * kh * kw, n * ho * wo)


# Largest patch matrix, in bytes, that the conv2d forward builds at once:
# larger batches run in image blocks whose GEMM operands fit a core's L2,
# and are zero-padded one block at a time, into one block-sized buffer.
PATCH_BLOCK_BYTES = 2 * 2**20

# Least work, in multiply-adds (n*o*c*kh*kw*ho*wo), of a conv2d whose
# backward hands the kernel gradient to a worker thread when it needs both
# gradients.  Timed per call on a 2-vCPU Xeon VM over the model's conv
# shapes at batches 1-16, the hand-over took about 0.1 ms: every layer of
# at most 0.37 M ran slower on the worker (1.05-3.6 times inline), every
# layer from 0.885 M faster (0.54-0.96 times), and those between went
# either way.
GRAD_W_WORKER_MACS = 1_000_000

# The kernel-gradient worker: started by the first conv2d backward that
# can use it, and only in a process allowed more than one CPU.
_pool: futures.ThreadPoolExecutor | None = None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _grad_w_pool() -> futures.ThreadPoolExecutor | None:
    """The worker thread for conv2d kernel gradients; None on a single CPU."""
    global _pool
    if _pool is None and _cpus() > 1:
        _pool = futures.ThreadPoolExecutor(1, thread_name_prefix="conv2d-grad-w")
    return _pool


def _drop_pool() -> None:
    # a forked child holds a copy of the executor but not its thread, so
    # work submitted to that copy would never run
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


def _grad_w_into(gw: np.ndarray, gt: np.ndarray, cols: np.ndarray, taps: np.ndarray) -> None:
    """conv2d's kernel gradient ``(O, C*kh*kw)`` into ``gw``: one GEMM of ``gt`` and the patch matrix.

    ``gt`` is the output gradient as an ``(O, N*ho*wo)`` matrix.  ``cols``
    receives the patch matrix from the :func:`_taps` view ``taps``.  The
    caller allocates every array, so a worker thread running this
    allocates no array memory of its own.
    """
    np.copyto(cols, taps)
    np.matmul(gt, cols.reshape(gw.shape[1], -1).T, out=gw)


def _block_images(n: int, image_bytes: int) -> int:
    """Images per conv2d forward block: ``n`` when one block holds the batch.

    The batch splits into the fewest near-equal blocks whose patch matrices
    each fit :data:`PATCH_BLOCK_BYTES` (one image per block at least); only
    the last block may be smaller.  The count follows from the shape alone.
    An empty batch gives 1, so the result is always a valid loop step.
    """
    per_block = max(1, PATCH_BLOCK_BYTES // image_bytes)
    blocks = max(1, -(-n // per_block))
    return max(1, -(-n // blocks))


def _upsample_into(dst: np.ndarray, x: np.ndarray, factor: int) -> None:
    """Write NCHW ``x``, upsampled ``factor`` times by nearest neighbour, into ``dst``.

    ``dst`` (a view of shape ``(n, c, factor*h, factor*w)``) gets the bytes
    ``upsample_nearest`` gives: each row is repeated along the width once,
    then copied into its ``factor`` destination rows.
    """
    if factor == 1:
        dst[...] = x
        return
    wide = x.repeat(factor, axis=3)
    for i in range(factor):
        dst[:, :, i::factor] = wide


def _upsample_grad(g: np.ndarray, factor: int) -> np.ndarray:
    """Nearest upsampling's input gradient: each ``factor`` x ``factor`` cell of ``g`` summed."""
    n, c, h, w = g.shape
    return g.reshape(n, c, h // factor, factor, w // factor, factor).sum(axis=(3, 5))


def _padded_blocks(x: np.ndarray, padding: int, step: int, factor: int = 1):
    """Yield ``(start, stop, block)``: images ``start:stop`` of ``x``, upsampled and zero-padded.

    ``block`` holds the bytes ``np.pad`` gives for those images after
    ``upsample_nearest(x, factor)``, ``padding`` zeros on each spatial side.
    Every block is a view of one buffer sized for ``step`` images: its
    border is written once and each block refills its interior (see
    :func:`_upsample_into`), so a block is valid only until the next one is
    drawn.  The last block may be shorter.  With ``padding=0`` and
    ``factor=1`` a block is a slice of ``x`` itself.
    """
    n, c, h, w = x.shape
    h, w = h * factor, w * factor
    copied = padding or factor > 1
    if copied:
        buf = np.zeros((min(step, n), c, h + 2 * padding, w + 2 * padding))
        inner = buf[:, :, padding : padding + h, padding : padding + w]
    for start in range(0, n, step):
        block = x[start : start + step]
        if copied:
            _upsample_into(inner[: len(block)], block, factor)
            block = buf[: len(block)]
        yield start, start + len(block), block


def conv2d(x, w, padding: int = 0, *, bias=None, slope=None, upsample=None) -> Tensor:
    """2-D convolution (cross-correlation) of NCHW input with OCHW kernels.

    Forward and the kernel gradient are one GEMM each over the patch matrix
    (rebuilt in backward rather than kept alive on the tape); the input
    gradient is one matmul per kernel tap.

    The forward runs in image blocks (see :func:`_block_images`) written
    into one C-order output.  Each output element is one dot product over
    ``(c, di, dj)``, computed the same way whichever columns share its GEMM,
    so a block gives the bytes the whole-batch product gives.  A padded
    input exists one block at a time (see :func:`_padded_blocks`): each
    block is zero-padded into one block-sized buffer, the same bytes
    ``np.pad`` gives, and the whole batch is never copied.  A recorded node
    keeps that buffer for the kernel gradient only when one block covered
    the batch, so that it is the whole padded input; otherwise the backward
    pads the whole batch again and drops it on return.  The kernel gradient
    is one GEMM over the whole batch's patch matrix: blocking it would
    change its summation over the batch.

    ``bias`` (shape ``(O,)``) and ``slope`` fuse a conv layer into one node:
    the result is ``leaky_relu(add(conv2d(x, w), reshape(bias, (1, O, 1,
    1))), slope)`` byte for byte, forward and gradients, with either part
    left out when its argument is None.  The epilogue runs on each image
    block while it is hot in cache, in place on the block's slice of the
    output: add the bias, then apply the leaky ReLU.  When the node is
    recorded, two bool masks (pre-activation ``< 0`` and ``> 0``) are filled
    per block before the activation, so the pre-activation map is never
    kept; the backward builds the leaky multiplier from them, as
    ``leaky_relu`` does, and takes the bias gradient with the sums ``add``
    uses.  ``slope`` must lie in ``[0, 1]``.

    ``upsample`` (an integer factor, at least 1) convolves the input
    upsampled by nearest neighbour: the result is ``conv2d(upsample_nearest(x,
    upsample), w, padding, ...)`` byte for byte, forward and gradients, in
    one node.  Each image block is upsampled straight into its zero-padded
    block buffer, so the full-resolution input never exists; a backward
    that pads the whole batch again does so from the low-resolution input.
    The input gradient is the full-resolution one reduced by the cell sums
    ``upsample_nearest``'s backward makes.  The block size follows from the
    upsampled shape, as it would for the chain.

    The kernel gradient is taken before the input gradient.  Inline, the
    patch matrix is freed before the input gradient's buffer exists.  When
    the backward needs both gradients and the layer's work ``n*o*c*kh*kw*ho*wo``
    reaches :data:`GRAD_W_WORKER_MACS`, a worker thread takes the kernel
    gradient instead while this thread takes the input gradient, so the
    patch matrix and the input gradient's buffer are alive together.  The
    worker runs the same copies and the same GEMM on the same operands, so
    its bytes are the ones the inline path gives; it writes only into
    arrays this thread allocated, and this thread waits for it before it
    accumulates either gradient, returns or raises.  A process allowed only
    one CPU runs everything inline.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if bias is None else _as_tensor(bias)
    if slope is not None:
        _check_slope("conv2d", slope)
    factor = 1 if upsample is None else upsample
    if factor < 1:
        raise ValueError(f"conv2d: upsample factor {upsample} must be >= 1")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D operands ({x.shape} vs {w.shape})")
    n, c, h, wid = x.data.shape
    o, ck, kh, kw = w.data.shape
    if c != ck:
        raise ShapeError(
            f"conv2d: channel mismatch (input {x.shape}, kernel {w.shape})"
        )
    if b is not None and b.data.shape != (o,):
        raise ShapeError(f"conv2d: bias {b.shape} does not match kernel {w.shape}")
    # the size of the (upsampled) input the kernel slides over
    hu, wu = h * factor, wid * factor
    ho = hu + 2 * padding - kh + 1
    wo = wu + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d: kernel {w.shape} does not fit input {x.shape} "
            f"with padding={padding}"
        )
    parents = (x, w) if b is None else (x, w, b)
    w2 = w.data.reshape(o, -1)
    step = _block_images(n, c * kh * kw * ho * wo * x.data.itemsize)
    # C order, as every other op's output: reductions further down the tape
    # sum in memory order, so a transposed view would change their results
    out = np.empty((n, o, ho, wo))
    keep_masks = slope is not None and _grad_enabled and any(p.requires_grad for p in parents)
    if keep_masks:
        below = np.empty(out.shape, dtype=bool)
        above = np.empty(out.shape, dtype=bool)
    # the whole padded input, kept for the kernel gradient when it costs no copy
    xp = None if padding or factor > 1 else x.data
    for start, stop, xb in _padded_blocks(x.data, padding, step, factor):
        block = w2 @ _patches(xb, kh, kw, ho, wo)
        blk = out[start:stop]
        blk[...] = block.reshape(o, -1, ho, wo).transpose(1, 0, 2, 3)
        if b is not None:
            blk += b.data.reshape(1, o, 1, 1)
        if slope is not None:
            if keep_masks:
                np.less(blk, 0.0, out=below[start:stop])
                np.greater(blk, 0.0, out=above[start:stop])
            _leaky(blk, slope, out=blk)
        if stop - start == n:
            xp = xb

    def bwd(g):
        if slope is not None:
            g = _leaky_grad(below, above, slope, g)
        if b is not None and b.requires_grad:
            # the sums add's backward makes: axes of length 1 are not summed
            _accumulate(b, _unbroadcast(g, (1, o, 1, 1)).reshape(o))
        hp, wp = hu + 2 * padding, wu + 2 * padding
        inner = np.s_[:, :, padding : padding + hu, padding : padding + wu]

        def padded_input():
            if xp is not None:
                return xp
            # several blocks: pad the batch again, for this call only
            xpad = np.zeros((n, c, hp, wp))
            _upsample_into(xpad[inner], x.data, factor)
            return xpad

        job = None
        if w.requires_grad:
            gw = np.empty((o, c * kh * kw))
            # a view of g where the reshape allows one (then the GEMM reads
            # it transposed), else a C-order copy: the operand decides the
            # BLAS kernel, and so the bytes
            args = (gw, g.transpose(1, 0, 2, 3).reshape(o, n * ho * wo),
                    np.empty((c, kh, kw, n, ho, wo)), _taps(padded_input(), kh, kw, ho, wo))
            pool = None
            if x.requires_grad and n * o * c * kh * kw * ho * wo >= GRAD_W_WORKER_MACS:
                pool = _grad_w_pool()
            if pool is None:
                _grad_w_into(*args)
            else:
                job = pool.submit(_grad_w_into, *args)
            # inline, this frees the patch matrix and a re-padded batch
            # before the input gradient's buffer is allocated
            del args
        if x.requires_grad:
            try:
                g3 = g.reshape(n, o, ho * wo)
                gxp = np.zeros((n, c, hp, wp))
                for di in range(kh):
                    for dj in range(kw):
                        gxp[:, :, di : di + ho, dj : dj + wo] += np.matmul(
                            w.data[:, :, di, dj].T, g3
                        ).reshape(n, c, ho, wo)
            finally:
                if job is not None:
                    futures.wait((job,))
        if w.requires_grad:
            if job is not None:
                job.result()  # raises what the worker raised
            _accumulate(w, gw.reshape(w.data.shape))
        if x.requires_grad:
            gx = gxp[inner] if padding else gxp
            _accumulate(x, _upsample_grad(gx, factor) if factor > 1 else gx)

    return _node(out, parents, bwd)


def maxpool2d(x, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; ties route the gradient to the first max.

    "First" is row-major order within the window, as ``argmax`` over the
    flattened window would pick.  Local windows are reduced over strided
    views, without copying the input into window order: the forward is
    ``2 * size - 2`` ``np.maximum`` calls, and the backward walks the
    ``size * size`` window positions, giving ``g`` to the first position
    that equals the window's maximum.  A window whose maximum is NaN passes
    no gradient.  When the window covers the whole map (a global pool,
    ``size == h == w``), that walk would take ``h * w`` steps, so one
    ``argmax`` over the flattened map is used instead; it sends the gradient
    of a NaN window to its first NaN.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: expected 4-D input, got {x.shape}")
    n, c, h, w = x.data.shape
    if h % size or w % size:
        raise ShapeError(
            f"maxpool2d: spatial dims {h}x{w} not divisible by window {size}"
        )
    if h == w == size:
        flat = x.data.reshape(n, c, h * w)
        idx = flat.argmax(axis=-1)[..., None]
        out = np.take_along_axis(flat, idx, axis=-1).reshape(n, c, 1, 1)

        def bwd_global(g):
            gx = np.zeros((n, c, h * w))
            np.put_along_axis(gx, idx, g.reshape(n, c, 1), axis=-1)
            _accumulate(x, gx.reshape(n, c, h, w))

        return _node(out, (x,), bwd_global)

    # columns, then rows: on equal operands (such as 0.0 and -0.0)
    # np.maximum returns its second argument, the running maximum, so the
    # value kept is the row-major first maximum, byte for byte
    cols = x.data[..., 0::size]
    for j in range(1, size):
        cols = np.maximum(x.data[..., j::size], cols)
    out = cols[:, :, 0::size, :]
    for i in range(1, size):
        out = np.maximum(cols[:, :, i::size, :], out)

    def bwd(g):
        gx = np.empty(x.data.shape)
        free = np.ones(out.shape, dtype=bool)
        hit = np.empty(out.shape, dtype=bool)
        for i in range(size):
            for j in range(size):
                np.equal(x.data[:, :, i::size, j::size], out, out=hit)
                hit &= free
                gx[:, :, i::size, j::size] = np.where(hit, g, 0.0)
                free ^= hit
        _accumulate(x, gx)

    return _node(out, (x,), bwd)


def upsample_nearest(x, factor: int = 2) -> Tensor:
    """Repeat every pixel ``factor`` times along height and width.

    A convolution of the result is better written as ``conv2d(x, ...,
    upsample=factor)``, which never builds the full-resolution map.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest: expected 4-D input, got {x.shape}")
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def bwd(g):
        _accumulate(x, _upsample_grad(g, factor))

    return _node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """Per-parameter max relative error of backward vs central differences.

    Relative error uses ``|a - n| / max(1, |a|, |n|)`` per element; frozen
    (``requires_grad=False``) parameters are listed but carry no error entry.
    """

    errors: dict[str, float]
    frozen: tuple[str, ...]
    tolerance: float
    step: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def summary(self) -> str:
        lines = [f"grad check: max rel error {self.max_error:.3e} "
                 f"(tolerance {self.tolerance:.1e})"]
        for name in sorted(self.errors):
            lines.append(f"  {name}: {self.errors[name]:.3e}")
        if self.frozen:
            lines.append(f"  frozen (not checked): {', '.join(sorted(self.frozen))}")
        return "\n".join(lines)


def grad_check(model_builder, tolerance: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    ``model_builder()`` must return ``(params, loss_fn)`` where ``params``
    maps names to leaf tensors and ``loss_fn()`` rebuilds and returns the
    scalar loss from the current parameter values.  Models above 5000
    checkable parameters are rejected; finite differencing is quadratic.
    """
    params, loss_fn = model_builder()
    trainable = {n: t for n, t in params.items() if t.requires_grad}
    n_checked = sum(t.data.size for t in trainable.values())
    if n_checked >= 5000:
        raise ValueError(
            f"grad_check: {n_checked} checkable parameters, limit is 5000"
        )
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in trainable.items()
    }
    errors: dict[str, float] = {}
    for name, t in trainable.items():
        flat = t.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = loss_fn().item()
            flat[i] = orig - step
            minus = loss_fn().item()
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * step)
            denom = max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, abs(aflat[i] - numeric) / denom)
        errors[name] = worst
    frozen = tuple(n for n in params if n not in trainable)
    return GradCheckReport(errors=errors, frozen=frozen, tolerance=tolerance, step=step)
