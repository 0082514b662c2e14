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
* loss support: five fused losses, each one node whose backward replays,
  in the same order, the arithmetic of the chain of separate ops it stands
  for, so value and gradient are bit-equal to that chain's:
  ``bce_with_logits`` (cls and seg), ``soft_dice`` (seg), ``mse``
  (consistency), ``softmax_cross_entropy`` (the loc classes) and
  ``box_iou_loss`` (the matched boxes' ``1 - IoU``); and the separate ops
  ``sub``, ``neg``, ``div``, ``relu``, ``tsum``, ``take_rows``, with
  ``add``, ``mul`` and ``reshape``, that pick the matched boxes, build
  their L1 term and weight the loc terms, plus ``softmax`` for the loc
  class probabilities that matching reads;
* references: ``leaky_relu`` and ``upsample_nearest``, the separate ops
  that the fused paths of ``conv2d`` are checked against, and ``log``,
  ``softplus`` and ``mean``, which complete the chains that the fused
  losses are checked against.

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
thread computes the input gradient; a large enough forward of several image
blocks runs its last blocks on that worker and the rest on the calling
thread (see :func:`conv2d`).  The worker makes the GEMM calls the inline
path makes, on the same operands, so the bytes are the same.  It calls no
op of this module and records nothing; every gradient is accumulated on the
calling thread.

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
    "bce_with_logits",
    "soft_dice",
    "mse",
    "softmax_cross_entropy",
    "box_iou_loss",
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


def _binary(name, a, b, forward, grad_a, grad_b) -> Tensor:
    """A broadcasting two-operand op; ``grad_a(g, a, b)`` and ``grad_b(g, a, b)``
    give an operand's gradient from the arrays and run only for an operand
    that requires one."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = forward(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: operands do not broadcast ({a.shape} vs {b.shape})")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad_a(g, a.data, b.data), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad_b(g, a.data, b.data), b.data.shape))

    return _node(data, (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


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


def _leaky(x: np.ndarray, slope: float, out: np.ndarray | None = None,
           scratch: np.ndarray | None = None) -> np.ndarray:
    """``max(x, slope * x)`` into ``out`` (a fresh array when None; may be ``x``).

    ``slope * x`` goes into ``scratch`` (an array of ``x``'s shape) when one
    is given, else into a fresh array.
    """
    scaled = np.multiply(x, slope, out=scratch)
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


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    y = _softmax(a.data, axis)

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
# fused losses: one node each, with the value and the gradient of the chain
# of separate ops it stands for, bit for bit; each backward replays that
# chain's arithmetic in the chain's order.  Where the chain spreads a
# reduction's gradient over a full-size array, the backward computes on the
# reduced array and lets the next elementwise op broadcast it, which does
# the same arithmetic per element.


def _check_target(op: str, target, shape: tuple[int, ...]) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != shape:
        raise ShapeError(f"{op}: target shape {target.shape} != input shape {shape}")
    return target


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross entropy of ``logits`` against constant 0/1 ``targets``.

    The chain is ``mean(add(mul(softplus(neg(x)), y), mul(softplus(x), 1 - y)))``.
    """
    a = _as_tensor(logits)
    y = _check_target("bce_with_logits", targets, a.shape)
    x = a.data
    axes = tuple(range(x.ndim))
    neg_x, not_y = -x, 1.0 - y
    data = (np.logaddexp(0.0, neg_x) * y + np.logaddexp(0.0, x) * not_y).mean(axis=axes)

    def bwd(g):
        gm = g / x.size
        # both sigmoids from one exp(-|x|), as _stable_sigmoid computes each
        e = np.exp(-np.abs(x))
        low, high = 1.0 / (1.0 + e), e / (1.0 + e)
        sig_neg_x = np.where(neg_x >= 0.0, low, high)
        sig_x = np.where(x >= 0.0, low, high)
        _accumulate(a, -(gm * y * sig_neg_x) + gm * not_y * sig_x)

    return _node(data, (a,), bwd)


def soft_dice(logits, mask) -> Tensor:
    """Mean soft Dice of ``sigmoid(logits)`` against a constant 0/1 ``mask``.

    Both are ``(N, K, H, W)``; each (image, class) scores
    ``(2 * sum(p * m) + 1) / (sum(p) + sum(m) + 1)`` over its pixels.  The
    chain is ``sigmoid``, ``mul``, ``tsum`` over axes (2, 3), ``add``,
    ``div`` and ``mean``.
    """
    a = _as_tensor(logits)
    if a.data.ndim != 4:
        raise ShapeError(f"soft_dice: logits must be (N, K, H, W), got {a.shape}")
    m = _check_target("soft_dice", mask, a.shape)
    p = _stable_sigmoid(a.data)
    num = 2.0 * (p * m).sum(axis=(2, 3)) + 1.0
    den = p.sum(axis=(2, 3)) + m.sum(axis=(2, 3)) + 1.0
    ratio = num / den
    data = ratio.mean(axis=(0, 1))

    def bwd(g):
        g_ratio = g / ratio.size
        g_inter = g_ratio / den * 2.0 + 0.0
        g_sums = -g_ratio * num / (den * den) + 0.0
        gp = g_inter[:, :, None, None] * m + g_sums[:, :, None, None]
        _accumulate(a, gp * p * (1.0 - p))

    return _node(data, (a,), bwd)


def mse(a, target) -> Tensor:
    """Mean squared difference between ``a`` and a constant ``target`` of its shape.

    The chain is ``mean(mul(d, d))`` with ``d = sub(a, target)``.
    """
    a = _as_tensor(a)
    t = _check_target("mse", target, a.shape)
    d = a.data - t
    axes = tuple(range(d.ndim))
    data = (d * d).mean(axis=axes)

    def bwd(g):
        half = g / d.size * d
        _accumulate(a, half + half)

    return _node(data, (a,), bwd)


def softmax_cross_entropy(logits, classes) -> Tensor:
    """Mean over positions of ``-log softmax(logits)[class]`` along the last axis.

    ``classes`` holds one class index per position, shaped ``logits.shape[:-1]``.
    The chain is ``reshape`` to one row per position, ``softmax``, ``log``,
    ``mul`` by the one-hot rows, ``tsum`` over each row, ``mean`` and ``neg``.
    """
    a = _as_tensor(logits)
    idx = np.asarray(classes, dtype=np.intp)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"softmax_cross_entropy: classes shape {idx.shape} does not "
                         f"index logits of shape {a.shape}")
    rows, width = idx.size, a.shape[-1]
    if rows and not 0 <= idx.min() <= idx.max() < width:
        raise ValueError(f"softmax_cross_entropy: class ids must lie in 0..{width - 1}")
    y = _softmax(a.data.reshape(rows, width), -1)
    onehot = np.zeros((rows, width))
    onehot[np.arange(rows), idx.reshape(-1)] = 1.0
    data = -(np.log(y) * onehot).sum(axis=(1,)).mean(axis=(0,))

    def bwd(g):
        g_y = (-g / rows + 0.0) * onehot / y
        inner = (g_y * y).sum(axis=-1, keepdims=True)
        _accumulate(a, (y * (g_y - inner)).reshape(a.shape))

    return _node(data, (a,), bwd)


# The chain reads each box column by a matmul against a one-hot (4, 1)
# basis.  That reads the column exactly, so the forward slices it instead;
# the backward keeps the matmul, whose zeros carry the BLAS kernel's signs.
# Transposed as that backward transposes them: (1, 4) views with the strides
# of the (4, 1) arrays.
_BOX_COLUMNS_T = tuple(np.swapaxes(np.eye(4)[:, i:i + 1].copy(), -1, -2) for i in range(4))


def _box_overlap(p1, p2, t1, t2):
    """``relu(min(p2, t2) - max(p1, t1))`` as the chain computes it, with
    ``min(a, b) = b - relu(b - a)`` and ``max(a, b) = a + relu(b - a)``; also
    returns the three relu masks, innermost first."""
    lo, hi = t1 - p1, t2 - p2
    lo_mask, hi_mask = lo > 0.0, hi > 0.0
    span = (t2 - np.where(hi_mask, hi, 0.0)) - (p1 + np.where(lo_mask, lo, 0.0))
    span_mask = span > 0.0
    return np.where(span_mask, span, 0.0), (lo_mask, hi_mask, span_mask)


def _box_overlap_grad(g, masks):
    """The gradients of ``p1`` and ``p2`` from that of :func:`_box_overlap`'s result."""
    lo_mask, hi_mask, span_mask = masks
    g_span = g * span_mask
    g_max = -g_span
    return g_max + -(g_max * lo_mask), -(-g_span * hi_mask)


def box_iou_loss(pred, target) -> Tensor:
    """Mean over the rows of ``1 - IoU(pred, target)`` for ``(M, 4)`` boxes.

    Boxes are center format (cx, cy, w, h); ``target`` is constant.  The
    chain reads each column of ``pred`` by a ``matmul`` against a one-hot
    ``(4, 1)`` basis, takes corners as ``c -/+ mul(0.5, size)``, clips the
    overlap with ``min(a, b) = b - relu(b - a)`` and ``max(a, b) = a +
    relu(b - a)``, ``relu``s its width and height, divides it by the union
    ``w * h + target area - overlap`` and takes ``div(tsum(sub(1, iou)), M)``.
    """
    a = _as_tensor(pred)
    if a.data.ndim != 2 or a.shape[1] != 4 or not a.shape[0]:
        raise ShapeError(f"box_iou_loss: boxes must be (M, 4) with M >= 1, got {a.shape}")
    t = _check_target("box_iou_loss", target, a.shape)
    rows = a.shape[0]
    cx, cy, w, h = (a.data[:, i:i + 1] for i in range(4))
    hw, hh = 0.5 * w, 0.5 * h
    iw, x_masks = _box_overlap(cx - hw, cx + hw, t[:, 0:1] - t[:, 2:3] / 2,
                               t[:, 0:1] + t[:, 2:3] / 2)
    ih, y_masks = _box_overlap(cy - hh, cy + hh, t[:, 1:2] - t[:, 3:4] / 2,
                               t[:, 1:2] + t[:, 3:4] / 2)
    inter = iw * ih
    union = (w * h + t[:, 2:3] * t[:, 3:4]) - inter
    data = (1.0 - inter / union).sum(axis=(0, 1)) / float(rows)

    def bwd(g):
        g_iou = -(g / float(rows) + 0.0)
        g_union = -g_iou * inter / (union * union)
        g_inter = g_iou / union + -g_union
        g_x1, g_x2 = _box_overlap_grad(g_inter * ih, x_masks)
        g_y1, g_y2 = _box_overlap_grad(g_inter * iw, y_masks)
        # width and height sum the area's gradient, then the x2 (y2)
        # corner's, then the x1 (y1) corner's, as the chain's tape walk does
        g_cols = (g_x1 + g_x2, g_y1 + g_y2,
                  (g_union * h + g_x2 * 0.5) + -g_x1 * 0.5,
                  (g_union * w + g_y2 * 0.5) + -g_y1 * 0.5)
        grads = [g_col @ basis_t for g_col, basis_t in zip(g_cols, _BOX_COLUMNS_T)]
        _accumulate(a, ((grads[0] + grads[1]) + grads[2]) + grads[3])

    return _node(data, (a,), bwd)


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


# Largest patch matrix, in bytes, that the conv2d forward builds at once:
# larger batches run in image blocks whose GEMM operands fit a core's L2,
# and are zero-padded one block at a time, into one block-sized buffer.
PATCH_BLOCK_BYTES = 2 * 2**20

# Least work, in multiply-adds, that conv2d hands to its worker thread: the
# kernel gradient of a backward that needs both gradients (n*o*c*kh*kw*ho*wo),
# or the last image blocks of a forward.  Timed per call on a 2-vCPU Xeon VM,
# the hand-over took about 0.1 ms.  Over the model's conv shapes at batches
# 1-16, every backward of at most 0.37 M ran slower on the worker (1.05-3.6
# times inline), every one from 0.885 M faster (0.54-0.96 times), and those
# between went either way.  Forwards cross over lower: handing over 0.5 M
# ran 0.71-0.82 times inline, 0.26 M either way.
WORKER_MACS = 1_000_000

# conv2d's worker thread: started by the first conv2d that can use it, and
# only in a process allowed more than one CPU.
_pool: futures.ThreadPoolExecutor | None = None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker() -> futures.ThreadPoolExecutor | None:
    """conv2d's worker thread; None on a single CPU."""
    global _pool
    if _pool is None and _cpus() > 1:
        _pool = futures.ThreadPoolExecutor(1, thread_name_prefix="conv2d-worker")
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
    ``upsample_nearest`` gives: ``x`` is copied into each of its ``factor**2``
    strided phases, with no array in between.
    """
    for i in range(factor):
        for j in range(factor):
            dst[:, :, i::factor, j::factor] = x


def _upsample_grad(g: np.ndarray, factor: int) -> np.ndarray:
    """Nearest upsampling's input gradient: each ``factor`` x ``factor`` cell of ``g`` summed."""
    n, c, h, w = g.shape
    return g.reshape(n, c, h // factor, factor, w // factor, factor).sum(axis=(3, 5))


def _forward_blocks_into(out, masks, x, w, bias, slope, padding, factor, step,
                         start, stop, buf, cols, res) -> None:
    """conv2d's forward of images ``start:stop`` of ``x``, one block of ``step`` images at a time.

    Each block is upsampled ``factor`` times and zero-padded into ``buf``
    (None when ``x`` is C-contiguous and neither applies: the block is then
    a slice of ``x``), copied from its :func:`_taps` view into the patch
    matrix ``cols`` and multiplied by the kernel matrix into ``res``.  The
    result goes to the block's slice of ``out``, where the epilogue runs in
    place: add ``bias``, fill the ``(below, above)`` sign ``masks`` when
    they are given, apply the leaky ReLU of ``slope`` with ``res`` as its
    scratch.  ``start`` is a multiple of ``step`` and only the last block
    may be shorter.  The caller allocates every array, each sized for one
    block (``cols`` and ``res`` flat): ``buf`` with its zero border, which
    each block's refill leaves as it is.  So a worker thread running this
    allocates no array of its own; only numpy's buffered ufunc iterator
    takes a transient buffer (about 50 kB) for the broadcast bias add.
    """
    o, c, kh, kw = w.shape
    ho, wo = out.shape[2:]
    w2 = w.reshape(o, -1)
    if buf is not None:
        h, wid = x.shape[2] * factor, x.shape[3] * factor
        inner = buf[:, :, padding : padding + h, padding : padding + wid]
    for first in range(start, stop, step):
        last = min(first + step, stop)
        if buf is None:
            xb = x[first:last]
        else:
            _upsample_into(inner[: last - first], x[first:last], factor)
            xb = buf[: last - first]
        m = (last - first) * ho * wo
        patches = cols[: c * kh * kw * m].reshape(c * kh * kw, m)
        np.copyto(patches.reshape(c, kh, kw, last - first, ho, wo), _taps(xb, kh, kw, ho, wo))
        product = np.matmul(w2, patches, out=res[: o * m].reshape(o, m))
        blk = out[first:last]
        blk[...] = product.reshape(o, last - first, ho, wo).transpose(1, 0, 2, 3)
        if bias is not None:
            blk += bias.reshape(1, o, 1, 1)
        if slope is not None:
            if masks is not None:
                np.less(blk, 0.0, out=masks[0][first:last])
                np.greater(blk, 0.0, out=masks[1][first:last])
            _leaky(blk, slope, out=blk, scratch=product.reshape(blk.shape))


def conv2d(x, w, padding: int = 0, *, bias=None, slope=None, upsample=None) -> Tensor:
    """2-D convolution (cross-correlation) of NCHW input with OCHW kernels.

    Forward and the kernel gradient are one GEMM each over the patch matrix
    (rebuilt in backward rather than kept alive on the tape); the input
    gradient is one matmul per kernel tap (see the last paragraph).

    The forward runs in image blocks (see :func:`_block_images`) written
    into one C-order output, each block one GEMM of the kernel matrix and
    the block's patch matrix (see :func:`_forward_blocks_into`).  Each
    output element is one dot product over ``(c, di, dj)``, computed the
    same way whichever columns share its GEMM, so a block gives the bytes
    the whole-batch product gives.  A padded input exists one block at a
    time: each block is zero-padded into one block-sized buffer, the same
    bytes ``np.pad`` gives, and the whole batch is never copied.  A recorded
    node keeps that buffer for the kernel gradient only when one block
    covered the batch, so that it is the whole padded input; otherwise the
    backward pads the whole batch again and drops it on return.  The kernel
    gradient is one GEMM over the whole batch's patch matrix: blocking it
    would change its summation over the batch.

    A forward of several blocks whose last ``floor(B/2)`` blocks hold at
    least :data:`WORKER_MACS` multiply-adds hands those blocks to a worker
    thread and runs the first ``ceil(B/2)`` on this thread.  The block
    boundaries, and so every GEMM, stay the same, and so do the bytes; each
    side writes only its own images of the output and of the masks below.
    This thread allocates one block's scratch (padded input, patch matrix,
    GEMM result) per side, once per call, so the worker allocates no array,
    and it waits for the worker before it returns or raises.

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
    reaches :data:`WORKER_MACS`, the worker thread takes the kernel
    gradient instead while this thread takes the input gradient, so the
    patch matrix and the input gradient's buffer are alive together.  The
    worker runs the same copies and the same GEMM on the same operands, so
    its bytes are the ones the inline path gives; it writes only into
    arrays this thread allocated, and this thread waits for it before it
    accumulates either gradient, returns or raises.  A process allowed only
    one CPU runs everything inline.

    The input gradient is one matmul per kernel tap ``(di, dj)``, in tap
    order, of the tap's transposed kernel slice and the output gradient.
    When the output is the size of the (upsampled) input, ``(ho, wo) == (hu,
    wu)`` (every conv the model builds: 3x3 with padding 1, 1x1 with padding
    0), a tap's product is the flat input gradient shifted by ``(di - p) * wu
    + dj - p`` elements.  Each product goes into one scratch reused by every
    tap; its entries whose target lies outside the input are set to +0.0,
    and it is added in one contiguous add to a flat zeroed accumulator with
    a margin of ``p * wu + p`` on both sides.  Any other conv scatters each
    product into a zero-padded buffer, as the tests' reference does.  Both
    give the same bytes: each element sums the same products in the same tap
    order, and the only extra terms are exact +0.0 on entries the scatter
    drops into the padding border.  A sum that starts at +0.0 is never
    -0.0, and adding +0.0 to it leaves it unchanged, also when it is not
    finite.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if bias is None else _as_tensor(bias)
    if slope is not None:
        _check_slope("conv2d", slope)
    factor = 1 if upsample is None else upsample
    if factor < 1:
        raise ValueError(f"conv2d: upsample factor {upsample} must be >= 1")
    if isinstance(padding, bool) or not isinstance(padding, (int, np.integer)) or padding < 0:
        raise ValueError(f"conv2d: padding {padding!r} must be a non-negative integer")
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
    step = _block_images(n, c * kh * kw * ho * wo * x.data.itemsize)
    # C order, as every other op's output: reductions further down the tape
    # sum in memory order, so a transposed view would change their results
    out = np.empty((n, o, ho, wo))
    masks = None
    if slope is not None and _grad_enabled and any(p.requires_grad for p in parents):
        masks = (np.empty(out.shape, dtype=bool), np.empty(out.shape, dtype=bool))
    hp, wp = hu + 2 * padding, wu + 2 * padding
    copied = padding or factor > 1 or not x.data.flags.c_contiguous

    def scratch(images):
        # one block's padded input, patch matrix and GEMM result
        images = min(step, images)
        buf = np.zeros((images, c, hp, wp)) if copied else None
        return buf, np.empty(c * kh * kw * images * ho * wo), np.empty(o * images * ho * wo)

    blocks = -(-n // step)
    # this thread's images: the first half of the blocks, rounded up
    split = -(-blocks // 2) * step
    pool = None
    if blocks > 1 and (n - split) * o * c * kh * kw * ho * wo >= WORKER_MACS:
        pool = _worker()
    if pool is None:
        split = n
    args = (out, masks, x.data, w.data, None if b is None else b.data, slope, padding, factor, step)
    mine = scratch(split)
    job = None
    if split < n:
        job = pool.submit(_forward_blocks_into, *args, split, n, *scratch(n - split))
    try:
        _forward_blocks_into(*args, 0, split, *mine)
    finally:
        if job is not None:
            futures.wait((job,))
    if job is not None:
        job.result()  # raises what the worker raised
    # the whole padded input, kept for the kernel gradient when it costs no copy
    xp = None if padding or factor > 1 else x.data
    if xp is None and blocks == 1:
        xp = mine[0]

    def bwd(g):
        if slope is not None:
            g = _leaky_grad(*masks, slope, g)
        if b is not None and b.requires_grad:
            # the sums add's backward makes: axes of length 1 are not summed
            _accumulate(b, _unbroadcast(g, (1, o, 1, 1)).reshape(o))
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
            if x.requires_grad and n * o * c * kh * kw * ho * wo >= WORKER_MACS:
                pool = _worker()
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
                if (ho, wo) == (hu, wu):
                    # each tap's product, shifted, lands on the flat input
                    total = n * c * hu * wu
                    margin = padding * wu + padding
                    acc = np.zeros(total + 2 * margin)
                    prod = np.empty((n, c, ho * wo))
                    rows, flat = prod.reshape(n, c, ho, wo), prod.reshape(-1)
                    for di in range(kh):
                        top, bottom = max(0, padding - di), max(0, hu + padding - di)
                        for dj in range(kw):
                            np.matmul(w.data[:, :, di, dj].T, g3, out=prod)
                            # the products whose target lies outside the input
                            left, right = max(0, padding - dj), max(0, wu + padding - dj)
                            if top:
                                rows[:, :, :top] = 0.0
                            if bottom < ho:
                                rows[:, :, bottom:] = 0.0
                            if left:
                                rows[:, :, :, :left] = 0.0
                            if right < wo:
                                rows[:, :, :, right:] = 0.0
                            start = margin + (di - padding) * wu + dj - padding
                            acc[start : start + total] += flat
                    gx = acc[margin : margin + total].reshape(n, c, hu, wu)
                else:
                    gxp = np.zeros((n, c, hp, wp))
                    for di in range(kh):
                        for dj in range(kw):
                            gxp[:, :, di : di + ho, dj : dj + wo] += np.matmul(
                                w.data[:, :, di, dj].T, g3
                            ).reshape(n, c, ho, wo)
                    gx = gxp[inner] if padding else gxp
            finally:
                if job is not None:
                    futures.wait((job,))
        if w.requires_grad:
            if job is not None:
                job.result()  # raises what the worker raised
            _accumulate(w, gw.reshape(w.data.shape))
        if x.requires_grad:
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
