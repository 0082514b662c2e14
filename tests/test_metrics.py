import numpy as np
import pytest

from cyclictrain.losses import iou_matrix
from cyclictrain.metrics import (
    Detections,
    GroundTruth,
    MetricsRecord,
    auc,
    dice,
    map_at_iou,
)

from conftest import Det, columns


# ---------------------------------------------------------------------------
# oracles


def auc_pairwise_oracle(scores, labels):
    """O(n^2) pairwise comparison count; ties score one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def map_exhaustive_oracle(detections, ground_truths, threshold):
    """Step-by-step PR enumeration, integrating the envelope point by point."""
    classes = sorted({g.class_id for g in ground_truths})
    if not classes:
        return None
    aps = []
    for c in classes:
        gts = [g for g in ground_truths if g.class_id == c]
        dets = sorted(
            [d for d in detections if d.class_id == c],
            key=lambda d: -d.confidence,
        )
        matched = [False] * len(gts)
        outcomes = []
        for d in dets:
            best_iou, best_j = -1.0, -1
            for j, g in enumerate(gts):
                if matched[j] or g.image_id != d.image_id:
                    continue
                ov = iou_matrix(d.box, g.box)[0, 0]
                if ov > best_iou:
                    best_iou, best_j = ov, j
            if best_j >= 0 and best_iou >= threshold:
                matched[best_j] = True
                outcomes.append(1)
            else:
                outcomes.append(0)
        # PR points for every prefix of the ranked list
        points = []
        tp = fp = 0
        for o in outcomes:
            tp += o
            fp += 1 - o
            points.append((tp / len(gts), tp / (tp + fp)))
        ap = 0.0
        prev_recall = 0.0
        for i, (r, _) in enumerate(points):
            if r > prev_recall:
                best_p = max(p for rr, p in points[i:] if rr >= r)
                ap += (r - prev_recall) * best_p
                prev_recall = r
        aps.append(ap)
    return float(np.mean(aps))


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_inverted_ranking():
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_with_ties_matches_pairwise_oracle():
    scores = [0.5, 0.5, 0.3, 0.5, 0.1, 0.3]
    labels = [1, 0, 1, 1, 0, 0]
    assert abs(auc(scores, labels) - auc_pairwise_oracle(scores, labels)) < 1e-12


def test_auc_random_matches_oracle_up_to_n200():
    rs = np.random.RandomState(42)
    for n in (5, 17, 63, 200):
        # coarse grid forces plenty of ties
        scores = np.round(rs.rand(n), 1)
        labels = (rs.rand(n) > 0.4).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert abs(auc(scores, labels) - auc_pairwise_oracle(scores, labels)) < 1e-12


def test_auc_macro_average_skips_single_class_columns():
    scores = np.array([[0.9, 0.4], [0.1, 0.6], [0.8, 0.7]])
    labels = np.array([[1, 1], [0, 1], [1, 1]])  # column 1 has no negative
    expected = auc_pairwise_oracle(scores[:, 0], labels[:, 0])
    assert abs(auc(scores, labels) - expected) < 1e-12


def test_auc_undefined_when_no_class_evaluable():
    assert auc([0.2, 0.4], [1, 1]) is None


def test_auc_invariant_under_monotone_transform(rs):
    scores = rs.rand(40)
    labels = (rs.rand(40) > 0.5).astype(int)
    base = auc(scores, labels)
    assert abs(auc(np.exp(3.0 * scores) + 7.0, labels) - base) < 1e-12
    assert abs(auc(scores**3, labels) - base) < 1e-12


def test_auc_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        auc([0.1, 0.2], [1, 0, 1])


# ---------------------------------------------------------------------------
# Dice


def test_dice_identical_nonempty():
    m = np.zeros((4, 4), dtype=int)
    m[1:3, 1:3] = 1
    assert dice(m, m.copy()) == 1.0


def test_dice_disjoint_nonempty():
    a = np.zeros((4, 4), dtype=int)
    b = np.zeros((4, 4), dtype=int)
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice(a, b) == 0.0


def test_dice_partial_overlap_set_arithmetic():
    # |A| = 4, |B| = 4, overlap 2 -> 2*2 / 8 = 0.5
    a = np.zeros(8, dtype=int)
    b = np.zeros(8, dtype=int)
    a[:4] = 1
    b[2:6] = 1
    assert dice(a, b) == 0.5


def test_dice_both_empty_is_one():
    assert dice(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0


def test_dice_symmetric(rs):
    for _ in range(20):
        a = rs.rand(6, 6) > 0.5
        b = rs.rand(6, 6) > 0.5
        assert dice(a, b) == dice(b, a)


def test_dice_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shapes"):
        dice(np.zeros((2, 2)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# mAP at IoU threshold


def test_map_single_exact_detection():
    box = (0.5, 0.5, 0.2, 0.2)
    dets = [Det(image_id=0, box=box, class_id=0, confidence=0.9)]
    gts = [GroundTruth(image_id=0, box=box, class_id=0)]
    assert map_at_iou(columns(dets), gts) == 1.0


def test_map_below_threshold_scores_zero():
    gt_box = (0.5, 0.5, 0.2, 0.2)
    det_box = (0.62, 0.5, 0.2, 0.2)  # IoU 0.25 < 0.40
    assert iou_matrix(det_box, gt_box)[0, 0] < 0.40
    dets = [Det(image_id=0, box=det_box, class_id=0, confidence=0.9)]
    gts = [GroundTruth(image_id=0, box=gt_box, class_id=0)]
    assert map_at_iou(columns(dets), gts) == 0.0


def test_map_mixed_scenario_matches_oracle():
    # 3 images, 5 detections, 3 ground truths, mixed IoUs and confidences
    gts = [
        GroundTruth(0, (0.3, 0.3, 0.2, 0.2), 0),
        GroundTruth(1, (0.6, 0.6, 0.2, 0.2), 0),
        GroundTruth(2, (0.5, 0.5, 0.3, 0.3), 1),
    ]
    dets = [
        Det(0, (0.3, 0.3, 0.2, 0.2), 0, 0.95),   # exact hit
        Det(0, (0.31, 0.3, 0.2, 0.2), 0, 0.90),  # duplicate -> FP
        Det(1, (0.75, 0.6, 0.2, 0.2), 0, 0.80),  # IoU below threshold
        Det(2, (0.52, 0.5, 0.3, 0.3), 1, 0.70),  # hit
        Det(1, (0.62, 0.6, 0.2, 0.2), 0, 0.60),  # late hit
    ]
    got = map_at_iou(columns(dets), gts, 0.40)
    expected = map_exhaustive_oracle(dets, gts, 0.40)
    assert abs(got - expected) < 1e-12


def test_map_randomized_scenarios_match_oracle():
    rs = np.random.RandomState(777)
    for scenario in range(60):
        n_images = rs.randint(1, 11)
        gts, dets = [], []
        for img in range(n_images):
            for _ in range(rs.randint(0, 3)):
                gts.append(
                    GroundTruth(
                        img,
                        (rs.uniform(0.3, 0.7), rs.uniform(0.3, 0.7),
                         rs.uniform(0.1, 0.3), rs.uniform(0.1, 0.3)),
                        int(rs.randint(0, 2)),
                    )
                )
            for _ in range(rs.randint(0, 4)):
                dets.append(
                    Det(
                        img,
                        (rs.uniform(0.3, 0.7), rs.uniform(0.3, 0.7),
                         rs.uniform(0.1, 0.3), rs.uniform(0.1, 0.3)),
                        int(rs.randint(0, 2)),
                        float(rs.rand()),
                    )
                )
        got = map_at_iou(columns(dets), gts, 0.40)
        expected = map_exhaustive_oracle(dets, gts, 0.40)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12, f"scenario {scenario}"


def test_map_ignores_detections_of_classes_without_ground_truth():
    gts = [GroundTruth(0, (0.5, 0.5, 0.2, 0.2), 0)]
    dets = [Det(0, (0.5, 0.5, 0.2, 0.2), 0, 0.9)]
    base = map_at_iou(columns(dets), gts)
    assert base == 1.0
    # image 99 has no ground truth, and its detection's class 5 has none anywhere
    assert map_at_iou(columns(dets + [Det(99, (0.3, 0.3, 0.2, 0.2), 5, 0.95)]), gts) == base


def test_map_undefined_without_ground_truth():
    dets = [Det(0, (0.5, 0.5, 0.2, 0.2), 0, 0.9)]
    assert map_at_iou(columns(dets), []) is None


def test_map_class_without_detections_counts_zero():
    gts = [
        GroundTruth(0, (0.5, 0.5, 0.2, 0.2), 0),
        GroundTruth(0, (0.2, 0.2, 0.2, 0.2), 1),
    ]
    dets = [Det(0, (0.5, 0.5, 0.2, 0.2), 0, 0.9)]
    assert map_at_iou(columns(dets), gts) == 0.5  # AP 1.0 for class 0, 0.0 for class 1


def test_all_metric_values_stay_in_unit_interval():
    rs = np.random.RandomState(99)
    for _ in range(25):
        n = int(rs.randint(4, 30))
        scores = rs.randn(n)
        labels = (rs.rand(n) > 0.5).astype(int)
        a = auc(scores, labels)
        if a is not None:
            assert 0.0 <= a <= 1.0
        assert 0.0 <= dice(rs.rand(5, 5) > 0.5, rs.rand(5, 5) > 0.5) <= 1.0
        dets = [Det(0, (rs.uniform(0.2, 0.8), rs.uniform(0.2, 0.8),
                              rs.uniform(0.05, 0.3), rs.uniform(0.05, 0.3)),
                          int(rs.randint(0, 2)), float(rs.rand()))
                for _ in range(int(rs.randint(1, 6)))]
        gts = [GroundTruth(0, (rs.uniform(0.2, 0.8), rs.uniform(0.2, 0.8),
                               rs.uniform(0.05, 0.3), rs.uniform(0.05, 0.3)),
                           int(rs.randint(0, 2)))
               for _ in range(int(rs.randint(1, 4)))]
        m = map_at_iou(columns(dets), gts, 0.40)
        assert m is None or 0.0 <= m <= 1.0


# ---------------------------------------------------------------------------
# records


def test_metrics_record_bounds():
    MetricsRecord(0, 1, "d", "cls", "release", "AUC", 1.0)
    with pytest.raises(ValueError, match="outside"):
        MetricsRecord(0, 1, "d", "cls", "release", "AUC", 1.5)


NON_FINITE_BOXES = [(0.5, 0.5, float("nan"), 0.2), (0.5, 0.5, 0.2, float("inf")),
                    (float("nan"), 0.5, 0.2, 0.2)]


def test_detections_validation():
    ok = dict(image_ids=np.array([0, 1]), boxes=np.full((2, 4), 0.2),
              class_ids=np.array([0, 0]), confidences=np.array([0.5, 0.4]))
    assert len(Detections(**ok)) == 2
    for name, bad, match in [
        ("boxes", np.full((2, 3), 0.2), "shaped"),
        ("confidences", np.array([0.5]), "shaped"),
        ("image_ids", np.array([0.0, 1.0]), "integers"),
        ("confidences", np.array([0.5, np.nan]), "finite"),
        ("boxes", np.array([[0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.2, 0.0]]), "positive"),
    ] + [("boxes", np.array([(0.5, 0.5, 0.2, 0.2), box]), "finite") for box in NON_FINITE_BOXES]:
        with pytest.raises(ValueError, match=match):
            Detections(**{**ok, name: bad})


# ---------------------------------------------------------------------------
# the columnar mAP against the per-detection greedy loop it replaced


def map_per_detection_reference(detections, ground_truths, iou_threshold):
    """Greedy matching one detection at a time, against a fresh candidate list.

    A per-detection loop with a Python AP sum: the same arithmetic as the
    columnar core in a plainer order, so the two must give equal floats.
    """
    dets, gts = list(detections), list(ground_truths)
    classes = sorted({g.class_id for g in gts})
    if not classes:
        return None
    aps = []
    for c in classes:
        class_gts = [g for g in gts if g.class_id == c]
        class_dets = [d for d in dets if d.class_id == c]
        order = sorted(range(len(class_dets)), key=lambda i: -class_dets[i].confidence)
        gt_by_image = {}
        for g in class_gts:
            gt_by_image.setdefault(g.image_id, []).append(g)
        used = set()
        tp = np.zeros(len(order))
        for rank, i in enumerate(order):
            d = class_dets[i]
            candidates = [g for g in gt_by_image.get(d.image_id, ()) if id(g) not in used]
            if not candidates:
                continue
            ious = iou_matrix(np.asarray(d.box).reshape(1, 4),
                              np.asarray([g.box for g in candidates]))[0]
            best = int(np.argmax(ious))
            if ious[best] >= iou_threshold:
                used.add(id(candidates[best]))
                tp[rank] = 1.0
        if len(tp) == 0:
            aps.append(0.0)
            continue
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum(1.0 - tp)
        recall = cum_tp / len(class_gts)
        envelope = np.maximum.accumulate((cum_tp / (cum_tp + cum_fp))[::-1])[::-1]
        ap, prev_r = 0.0, 0.0
        for r, p in zip(recall, envelope):
            if r > prev_r:
                ap += (r - prev_r) * p
                prev_r = r
        aps.append(float(ap))
    return float(np.mean(aps))


def _crowded_scenario(rs):
    """Few images and classes, many boxes near each other, tied confidences."""
    n_images, n_classes = int(rs.randint(1, 5)), int(rs.randint(1, 4))
    gts, dets = [], []
    for img in range(n_images + 1):  # the last image has detections only
        anchors = [(rs.uniform(0.3, 0.7), rs.uniform(0.3, 0.7),
                    rs.uniform(0.1, 0.3), rs.uniform(0.1, 0.3)) for _ in range(3)]
        if img < n_images:
            for _ in range(rs.randint(0, 5)):
                a = anchors[rs.randint(3)]
                jitter = rs.uniform(-0.03, 0.03, 4) * (rs.rand() < 0.7)
                gts.append(GroundTruth(img, tuple(np.add(a, jitter)), int(rs.randint(n_classes))))
        for _ in range(rs.randint(0, 9)):
            a = anchors[rs.randint(3)]
            box = a if rs.rand() < 0.3 else tuple(np.add(a, rs.uniform(-0.08, 0.08, 4)))
            conf = float(rs.choice([0.0, -0.0, 0.25, 0.5, 0.9])) if rs.rand() < 0.5 else rs.rand()
            dets.append(Det(img, box, int(rs.randint(n_classes + 1)), conf))
        if dets and rs.rand() < 0.2:
            dets.append(dets[rs.randint(len(dets))])  # an exact duplicate
    return dets, gts


def test_columnar_map_equals_the_per_detection_greedy_loop():
    rs = np.random.RandomState(2024)
    seen = dict.fromkeys(["none", "no_detections", "ties", "shared_gt_slot",
                          "class_without_detections"], 0)
    for scenario in range(600):
        dets, gts = _crowded_scenario(rs)
        if scenario % 50 == 0:
            dets = []
        threshold = float(rs.choice([0.0, 0.25, 0.40, 0.5, 0.75]))
        expected = map_per_detection_reference(dets, gts, threshold)
        assert map_at_iou(columns(dets), gts, threshold) == expected, f"scenario {scenario}"
        slots = [(g.image_id, g.class_id) for g in gts]
        seen["none"] += expected is None
        seen["no_detections"] += not dets
        seen["ties"] += len({d.confidence for d in dets}) < len(dets)
        seen["shared_gt_slot"] += len(set(slots)) < len(slots)
        seen["class_without_detections"] += bool({c for _, c in slots} - {d.class_id for d in dets})
    assert all(count >= 10 for count in seen.values()), seen


def test_map_iou_tie_takes_the_first_unused_ground_truth():
    # the first detection sits exactly between two ground truths (dyadic
    # boxes, so both IoUs are the same float); taking the first leaves the
    # second for the later detection, which overlaps only that one
    gts = [GroundTruth(0, (0.375, 0.5, 0.25, 0.25), 0),
           GroundTruth(0, (0.625, 0.5, 0.25, 0.25), 0)]
    dets = [Det(0, (0.5, 0.5, 0.25, 0.25), 0, 0.9),
            Det(0, (0.625, 0.5, 0.25, 0.25), 0, 0.8)]
    tied = iou_matrix(np.asarray(dets[0].box), np.asarray([g.box for g in gts]))[0]
    assert tied[0] == tied[1] >= 1 / 3
    assert map_at_iou(columns(dets), gts, 1 / 3) == map_per_detection_reference(dets, gts, 1 / 3) == 1.0
    assert map_at_iou(columns(dets), gts[::-1], 1 / 3) == 0.5

def test_engine_loc_eval_equals_the_per_query_detection_records():
    from cyclictrain.engine import evaluate_task, predict
    from cyclictrain.model import ArchConfig, build_model
    from cyclictrain.synthdata import generate_dataset, preset_cls_loc

    spec = preset_cls_loc(num_images=40)
    samples = generate_dataset(spec)
    model = build_model(ArchConfig(init_seed=5), [spec.model_spec()])
    out = predict(model, spec, samples, "loc")
    probs = np.exp(out["logits"] - out["logits"].max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    dets, gts = [], []
    for i, s in enumerate(samples):
        for q in range(out["boxes"].shape[1]):
            class_probs = probs[i, q, :-1]
            c = int(np.argmax(class_probs))
            dets.append(Det(s.sample_id, tuple(out["boxes"][i, q]), c,
                                  float(class_probs[c])))
        for b, c in zip(s.boxes.boxes, s.boxes.class_ids):
            gts.append(GroundTruth(s.sample_id, tuple(b), int(c)))
    expected = map_per_detection_reference(dets, gts, 0.40)
    assert 0.0 < expected < 1.0
    assert evaluate_task(model, spec, samples, "loc") == (expected, "mAP40")
