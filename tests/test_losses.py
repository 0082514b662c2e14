import itertools
import math

import numpy as np
import pytest

from cyclictrain.autodiff import (
    Tensor,
    add,
    bce_with_logits,
    box_iou_loss,
    div,
    log,
    matmul,
    mean,
    mse,
    mul,
    neg,
    relu,
    reshape,
    sigmoid,
    soft_dice,
    softmax,
    softmax_cross_entropy,
    softplus,
    sub,
    tsum,
)
from cyclictrain import losses
from cyclictrain.losses import (
    BoxTarget,
    LossBreakdown,
    cls_loss,
    consistency_loss,
    hungarian_match,
    iou_matrix,
    loc_loss,
    seg_loss,
)

from conftest import max_rel_error, numeric_gradient, tape_nodes


# ---------------------------------------------------------------------------
# oracles


def brute_force_assignment(cost):
    """Exhaustive minimum over all injective target->query maps."""
    q, t = cost.shape
    best_cost = math.inf
    best = None
    for perm in itertools.permutations(range(q), t):
        c = sum(cost[perm[j], j] for j in range(t))
        if c < best_cost:
            best_cost = c
            best = np.asarray(perm)
    return best, best_cost


def bce_elementwise(logits, targets):
    """Direct per-element binary cross entropy formula."""
    p = 1.0 / (1.0 + np.exp(-logits))
    return float(np.mean(-targets * np.log(p) - (1 - targets) * np.log(1 - p)))


def iou_arithmetic(a, b):
    """Corner-form area arithmetic, independent of the library path."""
    ax1, ay1, ax2, ay2 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1, bx2, by2 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


# ---------------------------------------------------------------------------
# classification loss


def test_cls_loss_at_even_odds_is_ln2():
    loss = cls_loss(Tensor(np.zeros((1, 1))), np.ones((1, 1)))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_cls_loss_saturates_to_zero():
    loss = cls_loss(Tensor(np.full((1, 1), 50.0)), np.ones((1, 1)))
    assert loss.item() < 1e-18


def test_cls_loss_matches_elementwise_oracle(rs):
    logits = rs.randn(4, 3) * 2.0
    targets = (rs.rand(4, 3) > 0.5).astype(float)
    loss = cls_loss(Tensor(logits), targets)
    assert abs(loss.item() - bce_elementwise(logits, targets)) < 1e-12


def test_cls_loss_rejects_non_finite():
    bad = np.array([[np.inf, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        cls_loss(Tensor(bad), np.zeros((1, 2)))


def test_cls_loss_gradient_matches_finite_differences(rs):
    logits = Tensor(rs.randn(3, 4), requires_grad=True)
    targets = (rs.rand(3, 4) > 0.5).astype(float)
    cls_loss(logits, targets).backward()
    numeric = numeric_gradient(lambda: cls_loss(logits, targets), logits)
    assert max_rel_error(logits.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# Hungarian matching


def test_identity_favoring_cost_assigns_diagonal():
    cost = np.ones((3, 3))
    np.fill_diagonal(cost, 0.0)
    assignment = hungarian_match(cost)
    assert np.array_equal(assignment, [0, 1, 2])


def test_two_by_two_example():
    # brute force over both injections: {t0->q0, t1->q1} costs 4+3=7,
    # {t0->q1, t1->q0} costs 2+1=3, so the second wins
    assignment = hungarian_match(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(assignment, [1, 0])


def test_rejects_more_targets_than_queries():
    with pytest.raises(ValueError, match="queries"):
        hungarian_match(np.zeros((2, 3)))


def test_rejects_non_finite_costs():
    with pytest.raises(ValueError, match="non-finite"):
        hungarian_match(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_random_7x5_matches_brute_force(rs):
    for _ in range(20):
        cost = rs.rand(7, 5)
        assignment = hungarian_match(cost)
        assert len(set(assignment)) == 5  # injective
        got = sum(cost[assignment[j], j] for j in range(5))
        _, best = brute_force_assignment(cost)
        assert abs(got - best) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_matching_equals_exhaustive_minimum_all_small_sizes(seed):
    rs = np.random.RandomState(5000 + seed)
    for q in range(1, 8):
        for t in range(1, q + 1):
            for _ in range(2):
                cost = rs.rand(q, t)
                assignment = hungarian_match(cost)
                got = sum(cost[assignment[j], j] for j in range(t))
                _, best = brute_force_assignment(cost)
                assert abs(got - best) < 1e-12, (q, t)


# ---------------------------------------------------------------------------
# IoU


def test_iou_identical_boxes():
    assert iou_matrix((0.5, 0.5, 0.2, 0.3), (0.5, 0.5, 0.2, 0.3))[0, 0] == 1.0


def test_iou_disjoint_boxes():
    assert iou_matrix((0.2, 0.2, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1))[0, 0] == 0.0


def test_iou_offset_by_half_width_is_one_third():
    # overlap 0.1x0.2 = 0.02, union 0.04 + 0.04 - 0.02 = 0.06
    a = (0.3, 0.5, 0.2, 0.2)
    b = (0.4, 0.5, 0.2, 0.2)
    assert abs(iou_matrix(a, b)[0, 0] - 1.0 / 3.0) < 1e-12


def test_iou_symmetric_and_self_unit(rs):
    for _ in range(50):
        a = np.concatenate([rs.rand(2), rs.rand(2) * 0.4 + 0.05])
        b = np.concatenate([rs.rand(2), rs.rand(2) * 0.4 + 0.05])
        assert iou_matrix(a, b)[0, 0] == iou_matrix(b, a)[0, 0]
        assert iou_matrix(a, a)[0, 0] == 1.0
        assert abs(iou_matrix(a, b)[0, 0] - iou_arithmetic(a, b)) < 1e-12


# ---------------------------------------------------------------------------
# localization loss


def _perfect_logits(n, q, cp1, slot_class):
    logits = np.full((n, q, cp1), -20.0)
    logits[..., -1] = 20.0  # default: confident no-object
    for (i, qi), c in slot_class.items():
        logits[i, qi, :] = -20.0
        logits[i, qi, c] = 20.0
    return logits


def test_perfect_prediction_has_near_zero_loss():
    target = BoxTarget(boxes=np.array([[0.5, 0.5, 0.2, 0.2]]), class_ids=np.array([0]))
    boxes = np.full((1, 3, 4), 0.9)
    boxes[0, 0] = [0.5, 0.5, 0.2, 0.2]
    logits = _perfect_logits(1, 3, 3, {(0, 0): 0})
    loss = loc_loss(Tensor(boxes), Tensor(logits), [target])
    assert loss.item() < 1e-6


def test_zero_targets_uniform_logits_is_log_classes():
    n, q, c = 2, 4, 2
    empty = BoxTarget(boxes=np.zeros((0, 4)), class_ids=np.zeros(0, dtype=int))
    loss = loc_loss(Tensor(np.full((n, q, 4), 0.5)), Tensor(np.zeros((n, q, c + 1))), [empty, empty])
    assert abs(loss.item() - math.log(c + 1)) < 1e-12


def _loc_loss_oracle(pred_boxes, pred_logits, targets, weights=(1.0, 5.0, 2.0)):
    """Re-derivation with explicit enumeration of all injective matchings."""
    w_cls, w_l1, w_iou = weights
    n, q, cp1 = pred_logits.shape
    no_obj = cp1 - 1
    log_probs = pred_logits - pred_logits.max(axis=-1, keepdims=True)
    log_probs = log_probs - np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
    probs = np.exp(log_probs)
    slot_class = np.full((n, q), no_obj, dtype=int)
    pair_terms = []
    for i, tgt in enumerate(targets):
        t = len(tgt)
        if t == 0:
            continue
        best_cost, best_perm = math.inf, None
        for perm in itertools.permutations(range(q), t):
            cost = 0.0
            for j, qi in enumerate(perm):
                c = tgt.class_ids[j]
                cost += w_cls * (1.0 - probs[i, qi, c])
                cost += w_l1 * np.abs(pred_boxes[i, qi] - tgt.boxes[j]).sum()
                cost += w_iou * (1.0 - iou_arithmetic(pred_boxes[i, qi], tgt.boxes[j]))
            if cost < best_cost:
                best_cost, best_perm = cost, perm
        for j, qi in enumerate(best_perm):
            slot_class[i, qi] = tgt.class_ids[j]
            l1 = np.abs(pred_boxes[i, qi] - tgt.boxes[j]).sum()
            ov = iou_arithmetic(pred_boxes[i, qi], tgt.boxes[j])
            pair_terms.append((l1, 1.0 - ov))
    ce = -np.mean([log_probs[i, qi, slot_class[i, qi]] for i in range(n) for qi in range(q)])
    if not pair_terms:
        return ce
    l1_term = np.mean([p[0] for p in pair_terms])
    iou_term = np.mean([p[1] for p in pair_terms])
    return ce + w_l1 * l1_term + w_iou * iou_term


def test_loc_loss_matches_brute_force_oracle(rs):
    for _ in range(10):
        n, q, c = 2, 3, 2
        boxes = rs.rand(n, q, 4) * 0.5 + 0.25
        logits = rs.randn(n, q, c + 1)
        targets = []
        for _ in range(n):
            t = rs.randint(0, 3)
            targets.append(
                BoxTarget(
                    boxes=np.column_stack([
                        rs.rand(t) * 0.4 + 0.3,
                        rs.rand(t) * 0.4 + 0.3,
                        rs.rand(t) * 0.2 + 0.1,
                        rs.rand(t) * 0.2 + 0.1,
                    ]),
                    class_ids=rs.randint(0, c, size=t),
                )
            )
        loss = loc_loss(Tensor(boxes), Tensor(logits), targets)
        expected = _loc_loss_oracle(boxes, logits, targets)
        assert abs(loss.item() - expected) < 1e-9


def test_loc_loss_invariant_under_target_permutation(rs):
    boxes = rs.rand(1, 5, 4) * 0.5 + 0.25
    logits = rs.randn(1, 5, 4)
    tb = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.15, 0.2], [0.5, 0.4, 0.1, 0.3]])
    tc = np.array([0, 1, 2])
    a = loc_loss(Tensor(boxes), Tensor(logits), [BoxTarget(tb, tc)]).item()
    perm = [2, 0, 1]
    b = loc_loss(Tensor(boxes), Tensor(logits), [BoxTarget(tb[perm], tc[perm])]).item()
    assert abs(a - b) < 1e-12


def test_loc_loss_gradient_matches_finite_differences(rs):
    n, q, c = 1, 3, 2
    boxes = Tensor(rs.rand(n, q, 4) * 0.4 + 0.3, requires_grad=True)
    logits = Tensor(rs.randn(n, q, c + 1) * 0.5, requires_grad=True)
    target = [BoxTarget(np.array([[0.45, 0.55, 0.2, 0.25]]), np.array([1]))]

    def loss_fn():
        return loc_loss(boxes, logits, target)

    loss_fn().backward()
    for t in (boxes, logits):
        numeric = numeric_gradient(loss_fn, t)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert max_rel_error(analytic, numeric) < 1e-4


def test_loc_loss_rejects_too_many_targets():
    tgt = BoxTarget(boxes=np.tile([0.5, 0.5, 0.1, 0.1], (4, 1)), class_ids=np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="exceed"):
        loc_loss(Tensor(np.full((1, 3, 4), 0.5)), Tensor(np.zeros((1, 3, 2))), [tgt])


# ---------------------------------------------------------------------------
# segmentation loss


def test_seg_loss_saturated_prediction_is_near_zero():
    mask = np.zeros((1, 1, 4, 4))
    mask[0, 0, 1:3, 1:3] = 1.0
    logits = np.where(mask > 0, 60.0, -60.0)
    assert seg_loss(Tensor(logits), mask).item() < 1e-6


def test_seg_loss_bce_term_at_zero_logits_is_ln2():
    mask = np.zeros((1, 1, 2, 4))
    mask[0, 0, :, :2] = 1.0  # half ones
    # p = 1/2 everywhere: BCE ln 2; soft Dice (2 * 2 + 1) / (4 + 4 + 1) = 5/9
    loss = seg_loss(Tensor(np.zeros((1, 1, 2, 4))), mask)
    assert abs(loss.item() - (math.log(2.0) + 1.0 - 5.0 / 9.0)) < 1e-12


def _seg_loss_oracle(logits, mask):
    p = 1.0 / (1.0 + np.exp(-logits))
    bce = np.mean(-mask * np.log(p) - (1 - mask) * np.log(1 - p))
    inter = (p * mask).sum(axis=(2, 3))
    dice = np.mean((2 * inter + 1.0) / (p.sum(axis=(2, 3)) + mask.sum(axis=(2, 3)) + 1.0))
    return bce + (1.0 - dice)


def test_seg_loss_matches_elementwise_oracle(rs):
    logits = rs.randn(2, 2, 8, 8)
    mask = (rs.rand(2, 2, 8, 8) > 0.6).astype(float)
    loss = seg_loss(Tensor(logits), mask)
    assert abs(loss.item() - _seg_loss_oracle(logits, mask)) < 1e-12


def test_seg_loss_gradient_matches_finite_differences(rs):
    logits = Tensor(rs.randn(1, 1, 4, 4), requires_grad=True)
    mask = (rs.rand(1, 1, 4, 4) > 0.5).astype(float)
    seg_loss(logits, mask).backward()
    numeric = numeric_gradient(lambda: seg_loss(logits, mask), logits)
    assert max_rel_error(logits.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# consistency loss


def test_consistency_zero_for_identical_features(rs):
    feat = rs.randn(2, 3, 4, 4)
    loss = consistency_loss(Tensor(feat, requires_grad=True), Tensor(feat.copy()))
    assert loss.item() == 0.0


def test_consistency_mean_of_squares():
    loss = consistency_loss(Tensor(np.array([1.0, 1.0]), requires_grad=True), np.array([0.0, 0.0]))
    assert loss.item() == 1.0


def test_consistency_rejects_shape_mismatch_and_grad_teacher():
    s = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="shapes differ"):
        consistency_loss(s, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="teacher"):
        consistency_loss(s, Tensor(np.zeros((2, 2)), requires_grad=True))


def test_consistency_backward_never_writes_teacher_gradient(rs):
    student = Tensor(rs.randn(3, 3), requires_grad=True)
    teacher = Tensor(rs.randn(3, 3))
    consistency_loss(student, teacher).backward()
    assert teacher.grad is None
    assert student.grad is not None
    assert loss_nonnegative(student, teacher)


def loss_nonnegative(student, teacher):
    return consistency_loss(student, teacher).item() >= 0.0


# ---------------------------------------------------------------------------
# the fused loss ops against the chains of separate ops they stand for


def _chain_bce(x, y):
    pos = mul(softplus(neg(x)), Tensor(y))
    negt = mul(softplus(x), Tensor(1.0 - y))
    return mean(add(pos, negt))


def _chain_dice(x, m):
    p = sigmoid(x)
    inter = tsum(mul(p, Tensor(m)), axis=(2, 3))
    denom = add(tsum(p, axis=(2, 3)), Tensor(m.sum(axis=(2, 3))))
    return mean(div(add(mul(Tensor(2.0), inter), Tensor(1.0)), add(denom, Tensor(1.0))))


def _chain_seg_loss(x, m):
    return add(_chain_bce(x, m), sub(Tensor(1.0), _chain_dice(x, m)))


def _chain_mse(x, t):
    d = sub(x, Tensor(t))
    return mean(mul(d, d))


def _chain_cross_entropy(x, classes):
    rows, width = classes.size, x.shape[-1]
    log_probs = log(softmax(reshape(x, (rows, width)), axis=-1))
    onehot = np.zeros((rows, width))
    onehot[np.arange(rows), classes.reshape(-1)] = 1.0
    return neg(mean(tsum(mul(log_probs, Tensor(onehot)), axis=1)))


def _chain_tmax(a, b):
    return add(a, relu(sub(b, a)))


def _chain_tmin(a, b):
    return sub(b, relu(sub(b, a)))


def _chain_column(x, index):
    basis = np.zeros((4, 1))
    basis[index, 0] = 1.0
    return matmul(x, Tensor(basis))


def _chain_iou(pred, target):
    cx, cy = _chain_column(pred, 0), _chain_column(pred, 1)
    w, h = _chain_column(pred, 2), _chain_column(pred, 3)
    half = Tensor(0.5)
    px1, px2 = sub(cx, mul(half, w)), add(cx, mul(half, w))
    py1, py2 = sub(cy, mul(half, h)), add(cy, mul(half, h))
    t = np.asarray(target, dtype=np.float64).reshape(-1, 4)
    tx1 = Tensor((t[:, 0] - t[:, 2] / 2).reshape(-1, 1))
    tx2 = Tensor((t[:, 0] + t[:, 2] / 2).reshape(-1, 1))
    ty1 = Tensor((t[:, 1] - t[:, 3] / 2).reshape(-1, 1))
    ty2 = Tensor((t[:, 1] + t[:, 3] / 2).reshape(-1, 1))
    iw = relu(sub(_chain_tmin(px2, tx2), _chain_tmax(px1, tx1)))
    ih = relu(sub(_chain_tmin(py2, ty2), _chain_tmax(py1, ty1)))
    inter = mul(iw, ih)
    area_p = mul(w, h)
    area_t = Tensor((t[:, 2] * t[:, 3]).reshape(-1, 1))
    union = sub(add(area_p, area_t), inter)
    return div(inter, union)


def _chain_iou_term(pred, target):
    return div(tsum(sub(Tensor(1.0), _chain_iou(pred, target))), Tensor(float(len(target))))


def _value_and_grad_bytes(build, data, scale):
    """Bytes of ``build(x)`` and of x's gradient under the loss ``scale * build(x)``."""
    x = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    loss = build(x)
    mul(loss, Tensor(scale)).backward()
    return loss.data.tobytes(), x.grad.tobytes()


def _seg_inputs(mask_kind):
    rs = np.random.RandomState(7)
    x = rs.randn(2, 3, 5, 5) * 4.0
    x[0, 0, 0] = 800.0
    x[1, 2, 4] = -800.0
    x[1, 0, 2, 2] = 0.0
    masks = {"random": (rs.rand(*x.shape) > 0.5).astype(float),
             "all_zero": np.zeros(x.shape), "all_one": np.ones(x.shape)}
    return x, masks[mask_kind]


@pytest.mark.parametrize("scale", [1.0, -0.37])
@pytest.mark.parametrize("mask_kind", ["random", "all_zero", "all_one"])
def test_fused_bce_dice_and_seg_loss_equal_their_chains_byte_for_byte(mask_kind, scale):
    # seg_loss's logits gradient sums three paths: two through the BCE and
    # one through the Dice sigmoid, in the chain's order
    x, m = _seg_inputs(mask_kind)
    for fused, chain in ((lambda t: bce_with_logits(t, m), lambda t: _chain_bce(t, m)),
                         (lambda t: soft_dice(t, m), lambda t: _chain_dice(t, m)),
                         (lambda t: seg_loss(t, m), lambda t: _chain_seg_loss(t, m))):
        assert (_value_and_grad_bytes(fused, x, scale)
                == _value_and_grad_bytes(chain, x, scale))


@pytest.mark.parametrize("target_kind", ["random", "all_zero", "all_one"])
def test_cls_loss_equals_the_bce_chain_byte_for_byte(target_kind):
    rs = np.random.RandomState(8)
    x = rs.randn(6, 4) * 3.0
    x[0] = [800.0, -800.0, 0.0, 40.0]
    y = {"random": (rs.rand(6, 4) > 0.5).astype(float), "all_zero": np.zeros((6, 4)),
         "all_one": np.ones((6, 4))}[target_kind]
    for scale in (1.0, 0.21):
        assert (_value_and_grad_bytes(lambda t: cls_loss(t, y), x, scale)
                == _value_and_grad_bytes(lambda t: _chain_bce(t, y), x, scale))


def test_consistency_loss_equals_the_squared_error_chain_byte_for_byte(rs):
    for shape in ((3, 3), (2, 4, 5, 5)):
        x, teacher = rs.randn(*shape), rs.randn(*shape)
        for scale in (1.0, -1.7):
            assert (_value_and_grad_bytes(lambda t: consistency_loss(t, teacher), x, scale)
                    == _value_and_grad_bytes(lambda t: _chain_mse(t, teacher), x, scale))
            assert (_value_and_grad_bytes(lambda t: mse(t, teacher), x, scale)
                    == _value_and_grad_bytes(lambda t: _chain_mse(t, teacher), x, scale))


def test_softmax_cross_entropy_equals_its_chain_byte_for_byte(rs):
    for shape in ((2, 6, 4), (5, 3)):
        x = rs.randn(*shape) * 3.0
        x.flat[0] = 30.0
        classes = rs.randint(0, shape[-1], size=shape[:-1])
        for scale in (1.0, 0.6):
            assert (_value_and_grad_bytes(lambda t: softmax_cross_entropy(t, classes), x, scale)
                    == _value_and_grad_bytes(lambda t: _chain_cross_entropy(t, classes), x,
                                             scale))


# (pred, target) rows in center format.  The touching rows are dyadic, so
# their edges meet exactly; they and the shared edges of identical boxes
# give relu arguments of exactly 0.
_BOX_CASES = {
    "overlap": ([[0.5, 0.5, 0.4, 0.3], [0.3, 0.6, 0.2, 0.5]],
                [[0.55, 0.45, 0.3, 0.3], [0.35, 0.5, 0.3, 0.2]]),
    "touch": ([[0.25, 0.5, 0.5, 0.5], [0.5, 0.25, 0.25, 0.5]],
              [[0.75, 0.5, 0.5, 0.5], [0.5, 0.75, 0.25, 0.5]]),
    "disjoint": ([[0.2, 0.2, 0.1, 0.1], [0.8, 0.3, 0.2, 0.1]],
                 [[0.7, 0.7, 0.2, 0.2], [0.3, 0.3, 0.1, 0.3]]),
    "identical": ([[0.5, 0.5, 0.25, 0.5], [0.3, 0.7, 0.2, 0.1]],
                  [[0.5, 0.5, 0.25, 0.5], [0.3, 0.7, 0.2, 0.1]]),
    "pred_inside": ([[0.5, 0.5, 0.1, 0.2], [0.375, 0.5, 0.25, 0.25]],
                    [[0.5, 0.5, 0.4, 0.4], [0.5, 0.5, 0.5, 0.5]]),
    "target_inside": ([[0.5, 0.5, 0.4, 0.4], [0.5, 0.5, 0.5, 0.5]],
                      [[0.5, 0.5, 0.1, 0.2], [0.375, 0.5, 0.25, 0.25]]),
}


@pytest.mark.parametrize("scale", [1.0, -0.37])
@pytest.mark.parametrize("case", [*_BOX_CASES, "mixed"])
def test_box_iou_loss_equals_its_chain_byte_for_byte(case, scale):
    if case == "mixed":
        pred = np.concatenate([np.array(p, dtype=float) for p, _ in _BOX_CASES.values()])
        target = np.concatenate([np.array(t, dtype=float) for _, t in _BOX_CASES.values()])
    else:
        pred, target = (np.array(rows, dtype=float) for rows in _BOX_CASES[case])
    for rows in (slice(0, 1), slice(None)):
        assert (_value_and_grad_bytes(lambda t: box_iou_loss(t, target[rows]), pred[rows], scale)
                == _value_and_grad_bytes(lambda t: _chain_iou_term(t, target[rows]), pred[rows],
                                         scale))


def test_box_iou_loss_equals_its_chain_on_random_boxes(rs):
    for m in (1, 3, 9, 20):
        pred = np.column_stack([rs.rand(m, 2) * 0.6 + 0.2, rs.rand(m, 2) * 0.3 + 0.05])
        target = np.column_stack([rs.rand(m, 2) * 0.6 + 0.2, rs.rand(m, 2) * 0.3 + 0.05])
        for scale in (1.0, -2.5):
            assert (_value_and_grad_bytes(lambda t: box_iou_loss(t, target), pred, scale)
                    == _value_and_grad_bytes(lambda t: _chain_iou_term(t, target), pred, scale))


@pytest.mark.parametrize("scale", [1.0, -0.37])
def test_loc_loss_equals_its_chain_built_twin_byte_for_byte(monkeypatch, scale):
    # matched pairs that overlap, touch, are identical or disjoint
    rs = np.random.RandomState(11)
    boxes = rs.rand(3, 4, 4) * 0.5 + 0.25
    boxes[0, :2] = _BOX_CASES["touch"][0]
    boxes[1, :2] = _BOX_CASES["identical"][0]
    boxes[2, :2] = _BOX_CASES["disjoint"][0]
    logits = rs.randn(3, 4, 3)
    targets = [BoxTarget(np.array(_BOX_CASES[case][1]), np.array([0, 1]))
               for case in ("touch", "identical", "disjoint")]

    def run():
        b, lg = Tensor(boxes, requires_grad=True), Tensor(logits, requires_grad=True)
        loss = loc_loss(b, lg, targets)
        mul(loss, Tensor(scale)).backward()
        return loss.data.tobytes(), b.grad.tobytes(), lg.grad.tobytes()

    fused = run()
    monkeypatch.setattr(losses, "box_iou_loss", _chain_iou_term)
    assert run() == fused


def test_box_iou_loss_rejects_other_shapes():
    for shape in ((4,), (3, 3), (0, 4)):
        with pytest.raises(ValueError, match=r"\(M, 4\)"):
            box_iou_loss(Tensor(np.ones(shape)), np.ones(shape))
    with pytest.raises(ValueError, match="shape"):
        box_iou_loss(Tensor(np.ones((2, 4))), np.ones((3, 4)))


def _recorded(loss):
    return sum(n._bwd is not None for n in tape_nodes(loss))


def test_each_loss_records_its_nodes(rs):
    logits = Tensor(rs.randn(2, 3), requires_grad=True)
    assert _recorded(cls_loss(logits, np.ones((2, 3)))) == 1
    seg = Tensor(rs.randn(2, 2, 4, 4), requires_grad=True)
    # the BCE, the Dice mean, 1 - Dice and the sum
    assert _recorded(seg_loss(seg, np.ones((2, 2, 4, 4)))) == 4
    feat = Tensor(rs.randn(2, 3, 4, 4), requires_grad=True)
    assert _recorded(consistency_loss(feat, rs.randn(2, 3, 4, 4))) == 1
    boxes = Tensor(rs.rand(2, 3, 4) * 0.5 + 0.25, requires_grad=True)
    loc_logits = Tensor(rs.randn(2, 3, 3), requires_grad=True)
    empty = BoxTarget(np.zeros((0, 4)), np.zeros(0, dtype=int))
    one = BoxTarget(np.array([[0.5, 0.5, 0.2, 0.2]]), np.array([1]))
    # the cross entropy alone, then with the box terms of the matched pairs
    assert _recorded(loc_loss(boxes, loc_logits, [empty, empty])) == 1
    assert _recorded(loc_loss(boxes, loc_logits, [one, empty])) == 15


def test_fused_ops_reject_a_target_of_another_shape_and_unknown_classes():
    x = Tensor(np.zeros((2, 1, 3, 3)), requires_grad=True)
    for op in (bce_with_logits, soft_dice, mse):
        with pytest.raises(ValueError, match="shape"):
            op(x, np.zeros((2, 1, 3, 2)))
    with pytest.raises(ValueError, match=r"\(N, K, H, W\)"):
        soft_dice(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="classes shape"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(6, dtype=int))
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=r"class ids must lie in 0\.\.3"):
            softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, bad]))


# ---------------------------------------------------------------------------
# breakdown bookkeeping


def test_breakdown_total_is_left_to_right_sum():
    vals = [0.1, 0.2, 0.30000000000000004, 1e-17]
    b = LossBreakdown.build(vals[0], [("a", vals[1]), ("b", vals[2]), ("c", vals[3])])
    expected = ((vals[0] + vals[1]) + vals[2]) + vals[3]
    assert b.total == expected
    assert b.task_loss == vals[0]
    assert [v for _, v in b.consistency_terms] == vals[1:]
