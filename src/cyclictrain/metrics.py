"""Evaluation metrics: ranking AUC, Dice overlap, and mAP at a fixed IoU.

AUC is the normalized Mann-Whitney U statistic (ties count half), macro
averaged over classes that contain both a positive and a negative; classes
that do not are skipped, and if nothing is evaluable the result is ``None``
rather than zero.  mAP scores a columnar ``Detections`` set: per class and
image, detections in descending confidence greedily take the unmatched
ground truth of highest IoU at the threshold, and each class's
precision-recall curve is integrated with all-point interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import iou_matrix

__all__ = [
    "Detections",
    "GroundTruth",
    "MetricsRecord",
    "auc",
    "dice",
    "map_at_iou",
]


@dataclass(frozen=True)
class Detections:
    """Predicted boxes as columns, one row per detection.

    ``image_ids`` and ``class_ids`` are (n,) integers, ``boxes`` is (n, 4)
    center-format float64 and ``confidences`` is (n,) float64.  Every
    confidence and box entry is finite, and every width and height positive.
    """

    image_ids: np.ndarray
    boxes: np.ndarray
    class_ids: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        image_ids = np.asarray(self.image_ids)
        class_ids = np.asarray(self.class_ids)
        boxes = np.asarray(self.boxes, dtype=np.float64)
        confidences = np.asarray(self.confidences, dtype=np.float64)
        n = len(image_ids)
        if (image_ids.shape, boxes.shape, class_ids.shape, confidences.shape) != (
            (n,), (n, 4), (n,), (n,)
        ):
            raise ValueError(
                "detection columns must be shaped (n,), (n, 4), (n,), (n,); got "
                f"{image_ids.shape}, {boxes.shape}, {class_ids.shape}, {confidences.shape}"
            )
        if n and (image_ids.dtype.kind not in "iu" or class_ids.dtype.kind not in "iu"):
            raise ValueError("detection image and class ids must be integers")
        if not np.isfinite(confidences).all():
            raise ValueError("detection confidence must be finite")
        if not np.isfinite(boxes).all():
            raise ValueError("detection box center and width/height must be finite")
        if not (boxes[:, 2:4] > 0).all():
            raise ValueError("detection width/height must be positive")
        object.__setattr__(self, "image_ids", image_ids.astype(np.int64))
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "class_ids", class_ids.astype(np.int64))
        object.__setattr__(self, "confidences", confidences)

    def __len__(self) -> int:
        return len(self.image_ids)


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
    """All-point interpolated AP from a confidence-ordered TP/FP sequence.

    Each rise in recall adds its width times the precision envelope there;
    ``np.add.accumulate`` sums those areas strictly left to right.
    """
    if len(tp) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    rise = np.diff(recall, prepend=0.0)
    rising = rise > 0
    if not rising.any():
        return 0.0
    return float(np.add.accumulate(rise[rising] * envelope[rising])[-1])


def _greedy_matches(ious: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Rows of a rank-ordered (detections, ground truths) IoU matrix that match.

    Detections in row order take the unused ground truth of highest IoU (the
    first one on ties) when that IoU reaches the threshold.  Only a match
    changes which ground truths are unused, so each step jumps straight to
    the next row that matches: at most one step per ground truth, plus one.
    """
    matched = []
    unused = np.arange(ious.shape[1])
    start = 0
    while len(unused) and start < len(ious):
        rest = ious[start:, unused]
        hits = np.flatnonzero(rest.max(axis=1) >= iou_threshold)
        if not len(hits):
            break
        row = int(hits[0])
        matched.append(start + row)
        unused = np.delete(unused, np.argmax(rest[row]))
        start += row + 1
    return np.array(matched, dtype=np.intp)


def map_at_iou(detections: Detections, ground_truths, iou_threshold: float = 0.40) -> float | None:
    """Mean AP across classes at one IoU threshold.

    Within each class, detections are ranked by descending confidence
    (stable within ties).  In each image with ground truth of that class,
    they are greedily matched in rank order to the unmatched ground truth of
    highest IoU, counting a true positive only when that IoU reaches the
    threshold; a detection in an image without such ground truth is a false
    positive.  Classes without any ground truth are skipped; if no class has
    ground truth the result is ``None``.
    """
    gts = list(ground_truths)
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return None
    aps = []
    for c in classes:
        in_class = np.flatnonzero(detections.class_ids == c)
        ranked = in_class[np.argsort(-detections.confidences[in_class], kind="stable")]
        image_ids = detections.image_ids[ranked]
        boxes = detections.boxes[ranked]
        class_gts = [g for g in gts if g.class_id == c]
        gt_boxes_by_image: dict[int, list] = {}
        for g in class_gts:
            gt_boxes_by_image.setdefault(g.image_id, []).append(g.box)
        tp = np.zeros(len(ranked))
        for image_id, gt_boxes in gt_boxes_by_image.items():
            rows = np.flatnonzero(image_ids == image_id)
            if len(rows):
                ious = iou_matrix(boxes[rows], np.asarray(gt_boxes))
                tp[rows[_greedy_matches(ious, iou_threshold)]] = 1.0
        aps.append(_average_precision(tp, len(class_gts)))
    return float(np.mean(aps))
