"""Evaluation metrics: ranking AUC, Dice overlap, and mAP at a fixed IoU.

AUC is the normalized Mann-Whitney U statistic (ties count half), macro
averaged over classes that contain both a positive and a negative; classes
that do not are skipped, and if nothing is evaluable the result is ``None``
rather than zero.  mAP uses greedy highest-confidence-first matching against
unmatched ground truths at the IoU threshold and all-point interpolation of
the precision-recall curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import iou_matrix

__all__ = [
    "Detection",
    "GroundTruth",
    "MetricsRecord",
    "auc",
    "dice",
    "map_at_iou",
]


@dataclass(frozen=True)
class Detection:
    """One predicted box with its class and confidence."""

    image_id: int
    box: tuple[float, float, float, float]
    class_id: int
    confidence: float

    def __post_init__(self):
        if not np.isfinite(self.confidence):
            raise ValueError("detection confidence must be finite")
        if self.box[2] <= 0 or self.box[3] <= 0:
            raise ValueError("detection width/height must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """One annotated box."""

    image_id: int
    box: tuple[float, float, float, float]
    class_id: int


@dataclass(frozen=True)
class MetricsRecord:
    """One logged metric value, keyed by where in the schedule it was taken."""

    cycle: int
    epoch: int
    dataset_id: str
    task: str
    mode: str
    metric_name: str
    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"metric value {self.value} outside [0, 1]")


def auc(scores, labels) -> float | None:
    """Macro-averaged ranking AUC for (n,) or (n, classes) inputs.

    Returns ``None`` when no class has both a positive and a negative.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError(f"scores shape {s.shape} != labels shape {y.shape}")
    if s.ndim == 1:
        s = s[:, None]
        y = y[:, None]
    per_class = []
    for c in range(s.shape[1]):
        pos = y[:, c] == 1
        n_pos = int(pos.sum())
        n_neg = int(len(pos) - n_pos)
        if n_pos == 0 or n_neg == 0:
            continue
        # 1-based ranks; tied scores share the mean of their rank range
        _, inverse, counts = np.unique(s[:, c], return_inverse=True, return_counts=True)
        ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        per_class.append(u / (n_pos * n_neg))
    if not per_class:
        return None
    return float(np.mean(per_class))


def dice(pred_mask, gt_mask) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); two empty masks agree perfectly (1.0)."""
    a = np.asarray(pred_mask).astype(bool)
    b = np.asarray(gt_mask).astype(bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    inter = int(np.logical_and(a, b).sum())
    return 2.0 * inter / total


def _average_precision(tp: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP from a confidence-ordered TP/FP sequence."""
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, envelope):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def map_at_iou(detections, ground_truths, iou_threshold: float = 0.40) -> float | None:
    """Mean AP across classes at one IoU threshold.

    Within each class, detections are processed in descending confidence
    (stable within ties) and greedily matched to the unmatched same-image
    ground truth of highest IoU, counting a true positive only when that IoU
    reaches the threshold.  Classes without any ground truth are skipped; if
    no class has ground truth the result is ``None``.
    """
    dets = list(detections)
    gts = list(ground_truths)
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return None
    aps = []
    for c in classes:
        class_gts = [g for g in gts if g.class_id == c]
        class_dets = [d for d in dets if d.class_id == c]
        order = sorted(range(len(class_dets)), key=lambda i: -class_dets[i].confidence)
        gt_by_image: dict[int, list] = {}
        for g in class_gts:
            gt_by_image.setdefault(g.image_id, []).append(g)
        used: set[int] = set()
        tp = np.zeros(len(order))
        for rank, i in enumerate(order):
            d = class_dets[i]
            candidates = [
                g for g in gt_by_image.get(d.image_id, ()) if id(g) not in used
            ]
            if not candidates:
                continue
            ious = iou_matrix(
                np.asarray(d.box).reshape(1, 4),
                np.asarray([g.box for g in candidates]),
            )[0]
            best = int(np.argmax(ious))
            if ious[best] >= iou_threshold:
                used.add(id(candidates[best]))
                tp[rank] = 1.0
        aps.append(_average_precision(tp, len(class_gts)))
    return float(np.mean(aps))
