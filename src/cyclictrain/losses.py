"""Task losses and the student-teacher consistency loss.

Classification uses mean binary cross entropy with logits.  Localization is
a set-prediction loss: predictions are matched to targets by solving a
linear assignment over a class/L1/IoU cost, then matched pairs pay class
cross entropy plus box regression terms while unmatched query slots pay
no-object cross entropy.  Segmentation combines pixel BCE with a soft Dice
term.  Consistency is mean squared error against a stop-gradient teacher.

All losses return tape scalars so gradients flow back into the model;
matching itself runs on detached values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import (
    Tensor,
    add,
    div,
    log,
    matmul,
    mean,
    mul,
    neg,
    relu,
    reshape,
    sigmoid,
    softmax,
    softplus,
    sub,
    take_rows,
    tsum,
)

__all__ = [
    "BoxTarget",
    "LossBreakdown",
    "cls_loss",
    "hungarian_match",
    "iou",
    "iou_matrix",
    "loc_loss",
    "seg_loss",
    "seg_loss_terms",
    "consistency_loss",
]

LOC_WEIGHTS = (1.0, 5.0, 2.0)  # (class, L1, IoU)


@dataclass(frozen=True)
class BoxTarget:
    """Ground-truth boxes for one image: (cx, cy, w, h) in [0,1] plus classes."""

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        classes = np.asarray(self.class_ids, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "class_ids", classes)
        if len(boxes) != len(classes):
            raise ValueError(
                f"{len(boxes)} boxes but {len(classes)} class ids"
            )
        if len(boxes) and (boxes[:, 2].min() <= 0 or boxes[:, 3].min() <= 0):
            raise ValueError("box width/height must be positive")
        if np.any(classes < 0):
            raise ValueError("class ids must be non-negative")

    def __len__(self) -> int:
        return len(self.class_ids)


@dataclass(frozen=True)
class LossBreakdown:
    """One epoch/batch loss decomposition.

    ``total`` is always the left-to-right float64 sum of the task loss and
    the consistency terms, in the order they are listed.
    """

    task_loss: float
    consistency_terms: tuple[tuple[str, float], ...]
    total: float

    @staticmethod
    def build(task_loss: float, consistency_terms) -> "LossBreakdown":
        terms = tuple((str(n), float(v)) for n, v in consistency_terms)
        total = float(task_loss)
        for _, v in terms:
            total = total + v
        return LossBreakdown(float(task_loss), terms, total)


# ---------------------------------------------------------------------------
# classification


def _bce_with_logits(logits: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross entropy of ``logits`` against 0/1 targets ``y``."""
    pos = mul(softplus(neg(logits)), Tensor(y))
    negt = mul(softplus(logits), Tensor(1.0 - y))
    return mean(add(pos, negt))


def cls_loss(logits: Tensor, targets) -> Tensor:
    """Mean binary cross entropy with logits over every (sample, class)."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ValueError(f"targets shape {y.shape} != logits shape {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("cls_loss: non-finite logits")
    return _bce_with_logits(logits, y)


# ---------------------------------------------------------------------------
# localization


def hungarian_match(cost_matrix) -> np.ndarray:
    """Injective min-cost map target -> query for a (Q, T) cost matrix.

    Entry ``[q, t]`` is the cost of assigning target ``t`` to query slot
    ``q``.  Returns an array of length T whose t-th entry is the chosen
    query.  Requires Q >= T and finite costs.
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    q, t = cost.shape
    if q < t:
        raise ValueError(f"need at least as many queries as targets ({q} < {t})")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(t, dtype=np.int64)
    assignment[cols] = rows
    return assignment


def iou(box_a, box_b) -> float:
    """Intersection over union of two (cx, cy, w, h) boxes."""
    m = iou_matrix(np.asarray(box_a).reshape(1, 4), np.asarray(box_b).reshape(1, 4))
    return float(m[0, 0])


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise IoU between (n,4) and (m,4) center-format boxes.

    Areas use the same corner differences as the intersection, so identical
    boxes score exactly 1.0.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ax1, ay1 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax2, ay2 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx1, by1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx2, by2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    iw = np.maximum(0.0, np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :]))
    ih = np.maximum(0.0, np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :]))
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a[:, None] + area_b[None, :] - inter
    return inter / union


def _tmax(a: Tensor, b: Tensor) -> Tensor:
    return add(a, relu(sub(b, a)))


def _tmin(a: Tensor, b: Tensor) -> Tensor:
    return sub(b, relu(sub(b, a)))


def _tabs(a: Tensor) -> Tensor:
    return add(relu(a), relu(neg(a)))


def _column(x: Tensor, index: int) -> Tensor:
    basis = np.zeros((4, 1))
    basis[index, 0] = 1.0
    return matmul(x, Tensor(basis))


def _tape_iou(pred: Tensor, target: np.ndarray) -> Tensor:
    """Differentiable per-row IoU between (M,4) predictions and targets."""
    cx, cy = _column(pred, 0), _column(pred, 1)
    w, h = _column(pred, 2), _column(pred, 3)
    half = Tensor(0.5)
    px1, px2 = sub(cx, mul(half, w)), add(cx, mul(half, w))
    py1, py2 = sub(cy, mul(half, h)), add(cy, mul(half, h))
    t = np.asarray(target, dtype=np.float64).reshape(-1, 4)
    tx1 = Tensor((t[:, 0] - t[:, 2] / 2).reshape(-1, 1))
    tx2 = Tensor((t[:, 0] + t[:, 2] / 2).reshape(-1, 1))
    ty1 = Tensor((t[:, 1] - t[:, 3] / 2).reshape(-1, 1))
    ty2 = Tensor((t[:, 1] + t[:, 3] / 2).reshape(-1, 1))
    iw = relu(sub(_tmin(px2, tx2), _tmax(px1, tx1)))
    ih = relu(sub(_tmin(py2, ty2), _tmax(py1, ty1)))
    inter = mul(iw, ih)
    area_p = mul(w, h)
    area_t = Tensor((t[:, 2] * t[:, 3]).reshape(-1, 1))
    union = sub(add(area_p, area_t), inter)
    return div(inter, union)


def loc_loss(pred_boxes: Tensor, pred_logits: Tensor, targets) -> Tensor:
    """Set-prediction loss over a batch.

    ``pred_boxes`` is (N, Q, 4) in [0,1], ``pred_logits`` is (N, Q, C+1)
    with the last column the no-object class, and ``targets`` one
    :class:`BoxTarget` per image.  Matching minimizes
    ``w_cls*(1-p_class) + w_l1*L1 + w_iou*(1-IoU)`` per pair, weights from
    ``LOC_WEIGHTS``.  The loss is cross entropy over all query slots (matched
    slots use the target class, the rest no-object) plus, averaged over
    matched pairs, ``w_l1*L1 + w_iou*(1-IoU)``.  Empty targets are valid: the
    loss then reduces to pure no-object cross entropy.
    """
    w_cls, w_l1, w_iou = LOC_WEIGHTS
    n, q, _ = pred_boxes.shape
    n2, q2, cp1 = pred_logits.shape
    if (n, q) != (n2, q2):
        raise ValueError(
            f"boxes {pred_boxes.shape} and logits {pred_logits.shape} disagree"
        )
    if len(targets) != n:
        raise ValueError(f"{len(targets)} targets for a batch of {n}")
    num_classes = cp1 - 1
    no_object = num_classes

    boxes_detached = pred_boxes.data
    # matching reads the class probabilities the cross entropy below is built on
    slot_probs = softmax(reshape(pred_logits, (n * q, cp1)), axis=-1)
    probs = slot_probs.data.reshape(n, q, cp1)

    slot_classes = np.full(n * q, no_object, dtype=np.int64)
    matched_rows: list[int] = []
    matched_boxes: list[np.ndarray] = []
    for i, tgt in enumerate(targets):
        t = len(tgt)
        if t == 0:
            continue
        if t > q:
            raise ValueError(f"image {i}: {t} targets exceed {q} query slots")
        if np.any(tgt.class_ids >= num_classes):
            raise ValueError(
                f"image {i}: class id out of range for {num_classes} classes"
            )
        cost_cls = 1.0 - probs[i][:, tgt.class_ids]
        cost_l1 = np.abs(
            boxes_detached[i][:, None, :] - tgt.boxes[None, :, :]
        ).sum(axis=-1)
        cost_iou = 1.0 - iou_matrix(boxes_detached[i], tgt.boxes)
        assignment = hungarian_match(w_cls * cost_cls + w_l1 * cost_l1 + w_iou * cost_iou)
        for t_idx, q_idx in enumerate(assignment):
            slot_classes[i * q + q_idx] = tgt.class_ids[t_idx]
            matched_rows.append(i * q + q_idx)
            matched_boxes.append(tgt.boxes[t_idx])

    log_probs = log(slot_probs)
    onehot = np.zeros((n * q, cp1))
    onehot[np.arange(n * q), slot_classes] = 1.0
    ce = neg(mean(tsum(mul(log_probs, Tensor(onehot)), axis=1)))

    if not matched_rows:
        return ce

    m = len(matched_rows)
    flat_boxes = reshape(pred_boxes, (n * q, 4))
    sel = take_rows(flat_boxes, np.asarray(matched_rows))
    tgt_arr = np.stack(matched_boxes)
    l1_term = div(tsum(_tabs(sub(sel, Tensor(tgt_arr)))), Tensor(float(m)))
    iou_term = div(tsum(sub(Tensor(1.0), _tape_iou(sel, tgt_arr))), Tensor(float(m)))
    return add(add(ce, mul(Tensor(w_l1), l1_term)), mul(Tensor(w_iou), iou_term))


# ---------------------------------------------------------------------------
# segmentation


def seg_loss_terms(logits: Tensor, mask) -> tuple[Tensor, Tensor]:
    """(pixel BCE, soft-Dice score) for (N, K, H, W) logits and binary mask."""
    m = np.asarray(mask, dtype=np.float64)
    if m.shape != logits.shape:
        raise ValueError(f"mask shape {m.shape} != logits shape {logits.shape}")
    bce = _bce_with_logits(logits, m)
    p = sigmoid(logits)
    inter = tsum(mul(p, Tensor(m)), axis=(2, 3))
    denom = add(tsum(p, axis=(2, 3)), Tensor(m.sum(axis=(2, 3))))
    dice = mean(div(add(mul(Tensor(2.0), inter), Tensor(1.0)), add(denom, Tensor(1.0))))
    return bce, dice


def seg_loss(logits: Tensor, mask) -> Tensor:
    """Pixel BCE plus (1 - soft Dice), equally weighted."""
    bce, dice = seg_loss_terms(logits, mask)
    return add(bce, sub(Tensor(1.0), dice))


# ---------------------------------------------------------------------------
# consistency


def consistency_loss(student_feat: Tensor, teacher_feat) -> Tensor:
    """Mean squared error against a stop-gradient teacher feature."""
    t = teacher_feat if isinstance(teacher_feat, Tensor) else Tensor(teacher_feat)
    if t.requires_grad:
        raise ValueError("teacher features must not require gradients")
    if t.shape != student_feat.shape:
        raise ValueError(
            f"feature shapes differ: student {student_feat.shape}, teacher {t.shape}"
        )
    d = sub(student_feat, t)
    return mean(mul(d, d))
