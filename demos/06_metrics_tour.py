"""The three evaluation metrics on hand-constructed cases.

AUC comes from ranking (ties count half), Dice from set overlap, and mAP
from greedy matching at an IoU threshold followed by all-point interpolation
of the precision-recall curve.
"""

import numpy as np

from cyclictrain.losses import iou_matrix
from cyclictrain.metrics import Detections, GroundTruth, auc, dice, map_at_iou


def main():
    print("AUC")
    print("  perfect ranking:", auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]))
    print("  inverted ranking:", auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]))
    print("  ties count half:", auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]))
    scores = np.array([[0.9, 0.3], [0.2, 0.6], [0.7, 0.5]])
    labels = np.array([[1, 1], [0, 1], [1, 1]])
    print("  macro average skips the all-positive column:", auc(scores, labels))

    print("\nDice")
    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[2:6, 2:6] = 1
    b[4:8, 2:6] = 1
    print(f"  half-overlapping squares: {dice(a, b):.4f}")
    print(f"  both empty: {dice(np.zeros(4), np.zeros(4))}")

    print("\nIoU")
    boxes = [(0.5, 0.5, 0.2, 0.2), (0.3, 0.5, 0.2, 0.2), (0.4, 0.5, 0.2, 0.2)]
    ious = iou_matrix(boxes, boxes)
    print("  identical boxes:", ious[0, 0])
    print("  offset by half a width:", ious[1, 2])

    print("\nmAP at IoU 0.40")
    gts = [
        GroundTruth(0, (0.3, 0.3, 0.2, 0.2), class_id=0),
        GroundTruth(1, (0.6, 0.6, 0.2, 0.2), class_id=0),
    ]
    # one row per detection: a hit, a near miss and a late hit
    dets = Detections(
        image_ids=np.array([0, 1, 1]),
        boxes=np.array([(0.3, 0.3, 0.2, 0.2), (0.75, 0.6, 0.2, 0.2), (0.61, 0.6, 0.2, 0.2)]),
        class_ids=np.array([0, 0, 0]),
        confidences=np.array([0.9, 0.8, 0.7]),
    )
    print("  hit, near miss, late hit ->", map_at_iou(dets, gts, 0.40))
    print("  tighter threshold 0.9  ->", map_at_iou(dets, gts, 0.90))
    print("  no ground truth at all ->", map_at_iou(dets, []))


if __name__ == "__main__":
    main()
