import copy

import numpy as np
import pytest

from cyclictrain.engine import TeacherState, ema_update
from cyclictrain.losses import BoxTarget, cls_loss, loc_loss, seg_loss
from cyclictrain.model import (
    BACKBONE,
    DatasetModelSpec,
    ModelGraph,
    build_model,
    trainable_components,
)
from cyclictrain.optim import BETAS, EPS, AdamW, AdamWState

from conftest import TINY_ARCH


def _graph_with(name="p", value=1.0, component="backbone"):
    g = ModelGraph()
    g.add(name, np.asarray([value]), component)
    return g


def _lr(lr):
    """An ``lr_for`` that gives every component ``lr``."""
    return lambda component: lr


def test_zero_grad_zero_decay_leaves_parameter_unchanged():
    g = _graph_with(value=1.5)
    before = g["p"].tensor.data.copy()
    opt = AdamW(weight_decay=0.0, lr_for=_lr(1e-3))
    opt.step(g.parameters(), {"backbone": np.zeros(1)})
    assert np.array_equal(g["p"].tensor.data, before)


def _reference_adamw(theta, grads, lr, b1, b2, eps, wd):
    """Scalar reference recurrence, written independently of the optimizer."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * (m_hat / (v_hat**0.5 + eps) + wd * theta)
    return theta


def test_single_step_matches_scalar_reference():
    g = _graph_with(value=1.0)
    opt = AdamW(weight_decay=0.0, lr_for=_lr(1e-3))
    opt.step(g.parameters(), {"backbone": np.asarray([1.0])})
    expected = _reference_adamw(1.0, [1.0], 1e-3, 0.9, 0.999, 1e-8, 0.0)
    assert abs(g["p"].tensor.data[0] - expected) < 1e-12


def test_multi_step_matches_scalar_reference():
    rs = np.random.RandomState(11)
    grads = rs.randn(7)
    g = _graph_with(value=0.3)
    opt = AdamW(weight_decay=0.01, lr_for=_lr(2e-3))
    for gr in grads:
        opt.step(g.parameters(), {"backbone": np.asarray([gr])})
    expected = _reference_adamw(0.3, list(grads), 2e-3, 0.9, 0.999, 1e-8, 0.01)
    assert abs(g["p"].tensor.data[0] - expected) < 1e-12


def test_decoupled_decay_is_exact():
    g = _graph_with(value=2.0)
    opt = AdamW(weight_decay=0.1, lr_for=_lr(1e-3))
    opt.step(g.parameters(), {"backbone": np.zeros(1)})
    # zero gradient leaves the Adam term at exactly zero, so the update is
    # the pure decay term lr * wd * theta
    assert g["p"].tensor.data[0] == 2.0 - 1e-3 * (0.1 * 2.0)


def test_frozen_parameter_bit_identical_under_any_gradient():
    g = _graph_with(value=0.7)
    g.set_trainable_components(set())
    before = g["p"].tensor.data.tobytes()
    opt = AdamW(weight_decay=0.5, lr_for=_lr(10.0))
    opt.step(g.parameters(), {})
    with pytest.raises(ValueError, match=r"gradients for components \['backbone'\], but the "
                                         r"trainable ones are \[\]"):
        opt.step(g.parameters(), {"backbone": np.asarray([1e9])})
    assert g["p"].tensor.data.tobytes() == before
    assert opt.state == {}  # no state created either


def test_non_finite_gradient_rejected_with_name():
    g = ModelGraph()
    g.add("backbone/conv1/w", np.ones(3), "backbone")
    g.add("backbone/conv1/b", np.ones(2), "backbone")
    opt = AdamW(lr_for=_lr(1e-3))
    with pytest.raises(ValueError, match="non-finite gradient for parameter 'backbone/conv1/b'"):
        opt.step(g.parameters(), {"backbone": np.asarray([0.0, 1.0, 2.0, 3.0, np.inf])})


def test_step_count_increments_per_applied_step():
    g = _graph_with()
    opt = AdamW(lr_for=_lr(1e-3))
    for expected in (1, 2, 3):
        opt.step(g.parameters(), {"backbone": np.asarray([0.1])})
        assert opt.state["backbone"].step_count == expected


def test_per_parameter_learning_rates():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW(lr_for=lambda component: 1e-5 if component == "backbone" else 1e-1)
    opt.step(g.parameters(), {"backbone": np.asarray([1.0]), "cls_head/x": np.asarray([1.0])})
    assert opt.state["backbone"].lr == 1e-5
    assert opt.state["cls_head/x"].lr == 1e-1
    moved_a = abs(1.0 - g["a"].tensor.data[0])
    moved_b = abs(1.0 - g["b"].tensor.data[0])
    assert moved_a < moved_b


def test_missing_gradient_for_a_trainable_parameter_is_rejected():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW(lr_for=_lr(1e-3))
    with pytest.raises(ValueError, match=r"the trainable ones are \['backbone', 'cls_head/x'\]"):
        opt.step(g.parameters(), {"backbone": np.asarray([1.0])})
    g.set_trainable_components({"backbone"})
    opt.step(g.parameters(), {"backbone": np.asarray([1.0])})  # frozen: no gradient needed
    assert "cls_head/x" not in opt.state


def test_in_place_update_is_byte_equal_to_the_array_formula():
    # the out-of-place expressions the in-place update must reproduce bit for bit
    rs = np.random.RandomState(12)
    theta = rs.randn(3, 4)
    theta[0, :2] = [0.0, -0.0]
    g = ModelGraph()
    g.add("p", theta.copy(), "backbone")
    opt = AdamW(weight_decay=0.05, lr_for=_lr(3e-3))
    b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.05, 3e-3
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, scale in enumerate((1.0, 0.5, 0.25), start=1):
        grad = rs.randn(3, 4)
        grad[1, 0] = 0.0
        flat = grad.reshape(-1)
        opt.step(g.parameters(), {"backbone": flat}, lr_scale=scale)
        assert flat.tobytes() == grad.tobytes()  # the caller's gradient is not written
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * (grad * grad)
        update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps) + wd * theta
        theta = theta - (lr * scale) * update
        entry = opt.state["backbone"]
        assert g["p"].tensor.data.tobytes() == theta.tobytes(), t
        assert g["p"].within(entry.m).tobytes() == m.tobytes(), t
        assert g["p"].within(entry.v).tobytes() == v.tobytes(), t


# weight_decay is the one numeric constructor option; the ids keep the names these two cases
# ran under when the table also held lr, eps and betas.
@pytest.mark.parametrize("kwargs,message", [
    pytest.param({"weight_decay": -0.1}, "weight_decay must be finite and non-negative, got -0.1",
                 id="kwargs4-weight_decay must be finite and non-negative, got -0.1"),
    pytest.param({"weight_decay": float("nan")},
                 "weight_decay must be finite and non-negative, got nan",
                 id="kwargs5-weight_decay must be finite and non-negative, got nan"),
])
def test_constructor_rejects_hyperparameters_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AdamW(**kwargs)


def test_learning_rate_from_lr_for_must_be_finite_and_non_negative():
    g = _graph_with()
    for lr in (float("nan"), -1e-3):
        with pytest.raises(ValueError, match="learning rate .* for component 'backbone' is not "
                                             "finite and >= 0"):
            AdamW(lr_for=_lr(lr)).step(g.parameters(), {"backbone": np.asarray([0.1])})
    assert np.array_equal(g["p"].tensor.data, [1.0])


def test_without_lr_for_only_a_component_with_state_steps():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW()  # as a loaded checkpoint's optimizer is
    opt.state["backbone"] = AdamWState(1e-3, 1, np.zeros(1), np.zeros(1))
    g.set_trainable_components({"backbone"})
    opt.step(g.parameters(), {"backbone": np.asarray([1.0])})
    assert opt.state["backbone"].step_count == 2
    before = _state_bytes(g, opt)
    g.set_trainable_components({"backbone", "cls_head/x"})
    with pytest.raises(ValueError, match="component 'cls_head/x' has no optimizer state and "
                                         "there is no lr_for to start one"):
        opt.step(g.parameters(), {"backbone": np.asarray([1.0]), "cls_head/x": np.asarray([1.0])})
    assert _state_bytes(g, opt) == before


def _state_bytes(g, opt):
    """Every parameter's bytes, and every component's moments and counts."""
    return ({p.name: p.tensor.data.tobytes() for p in g.parameters()},
            {c: (st.lr, st.step_count, st.m.tobytes(), st.v.tobytes())
             for c, st in opt.state.items()})


@pytest.mark.parametrize("bad_grad,message", [
    (np.asarray([np.nan]), "non-finite gradient for parameter 'b'"),
    (np.asarray([1.0, 2.0]), r"of shape \(2,\), its buffer"),
    (None, r"but the trainable ones are"),
    (np.asarray([1.0], dtype=np.float32), r"is float32 of shape"),
])
def test_a_rejected_step_changes_nothing(bad_grad, message):
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW(lr_for=_lr(0.1))
    grads = {"backbone": np.asarray([1.0])}
    if bad_grad is not None:
        grads["cls_head/x"] = bad_grad
    with pytest.raises(ValueError, match=message):
        opt.step(g.parameters(), grads)
    assert g["a"].tensor.data.tobytes() == np.asarray([1.0]).tobytes()
    assert opt.state == {}
    # after a good step, a rejected one leaves parameters, moments and counts as they were
    opt.step(g.parameters(), {"backbone": np.asarray([1.0]), "cls_head/x": np.asarray([1.0])})
    before = _state_bytes(g, opt)
    with pytest.raises(ValueError, match=message):
        opt.step(g.parameters(), grads)
    assert _state_bytes(g, opt) == before


def test_a_component_is_stepped_whole():
    # a component with a frozen parameter: set_trainable_components cannot
    # make one, but a tensor's own flag can
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "backbone")
    g["a"].tensor.requires_grad = False
    before = g["a"].tensor.data.tobytes()
    opt = AdamW(lr_for=_lr(0.1))
    with pytest.raises(ValueError, match=r"gradients for components \['backbone'\], but the "
                                         r"trainable ones are \[\]"):
        opt.step(g.parameters(), {"backbone": np.ones(2)})
    assert g["a"].tensor.data.tobytes() == before and opt.state == {}
    # the parameters' order does not matter: each finds its slot through its offset
    g.set_trainable_components({"backbone"})
    opt.step(g.parameters()[::-1], {"backbone": np.asarray([1.0, 0.0])})
    assert g["a"].tensor.data[0] < 1.0 and g["b"].tensor.data[0] == 1.0


def test_an_assigned_state_of_another_size_is_rejected_with_nothing_changed():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "backbone")
    g.add("c", np.asarray([1.0]), "cls_head/x")
    grads = {"backbone": np.ones(2), "cls_head/x": np.ones(1)}
    opt = AdamW(lr_for=_lr(1e-3))
    opt.step(g.parameters(), grads)
    # the component stepped after the backbone gets moments of two sizes
    opt.state["cls_head/x"] = AdamWState(1e-3, 1, np.zeros(1), np.zeros(2))
    before = _state_bytes(g, opt)
    with pytest.raises(ValueError, match="moments of component 'cls_head/x' are not of its "
                                         "size 1"):
        opt.step(g.parameters(), grads)
    assert _state_bytes(g, opt) == before


# ---------------------------------------------------------------------------
# the per-component step against the per-array loop it replaced


def _per_array_adamw(params, grads, data, state, lr_of, lr_scale, b1, b2, eps, wd):
    """The optimizer's earlier update: one pass of in-place ufuncs per array."""
    for p in params:
        if not p.trainable:
            continue
        g = p.within(grads[p.component])
        st = state.get(p.name)
        if st is None:
            st = state[p.name] = {"lr": lr_of(p.component), "t": 0, "m": np.zeros_like(g),
                                  "v": np.zeros_like(g)}
        st["t"] += 1
        tmp = np.multiply(g, 1.0 - b1)
        st["m"] *= b1
        st["m"] += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        st["v"] *= b2
        st["v"] += tmp
        update = st["m"] / (1.0 - b1 ** st["t"])
        np.divide(st["v"], 1.0 - b2 ** st["t"], out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        update /= tmp
        np.multiply(data[p.name], wd, out=tmp)
        update += tmp
        update *= st["lr"] * lr_scale
        data[p.name] -= update


def _task_loss(model, task, dataset_id, rs):
    emb = model.backbone_features(rs.rand(2, 1, 16, 16))
    out, _ = model.task_branch(emb, task, dataset_id)
    if task == "cls":
        return cls_loss(out, (rs.rand(*out.shape) > 0.5).astype(float))
    if task == "seg":
        return seg_loss(out, (rs.rand(*out.shape) > 0.5).astype(float))
    target = BoxTarget(boxes=rs.uniform(0.2, 0.8, (1, 4)), class_ids=np.array([1]))
    return loc_loss(*out, [target, target])


def test_per_component_step_matches_the_per_array_loop_byte_for_byte():
    model = build_model(TINY_ARCH, [DatasetModelSpec("d0", cls_classes=2, seg_classes=2)])
    lr_of = lambda component: 1e-2 if component == BACKBONE else 3e-2  # noqa: E731
    opt = AdamW(weight_decay=0.05, lr_for=lr_of)
    teacher = TeacherState.init_from(model, momentum=0.8)
    data = model.graph.arrays()
    ref_state: dict = {}
    ref_teacher = {k: v.copy() for k, v in teacher.params.items()}
    rs = np.random.RandomState(4)
    # lock, release, then a fresh dataset's lock and release, and a lock of the first again
    schedule = [("cls", "lock", "d0"), ("seg", "release", "d0"), "add d1",
                ("loc", "lock", "d1"), ("loc", "release", "d1"), ("cls", "lock", "d0")]
    for phase in schedule:
        if phase == "add d1":
            model.add_dataset(DatasetModelSpec("d1", cls_classes=2, loc_classes=2))
            data.update({k: v for k, v in model.graph.arrays().items() if k not in data})
            continue
        task, mode, ds = phase
        model.graph.set_trainable_components(trainable_components(task, mode, ds))
        for lr_scale in (1.0, 0.7, 0.3):
            grads = model.graph.backward(_task_loss(model, task, ds, rs))
            opt.step(model.graph.parameters(), grads, lr_scale=lr_scale)
            _per_array_adamw(model.graph.parameters(), grads, data, ref_state, lr_of, lr_scale,
                             *BETAS, EPS, 0.05)
            for p in model.graph.parameters():
                assert p.tensor.data.tobytes() == data[p.name].tobytes(), (phase, p.name)
            assert set(opt.state) == {model.graph[name].component for name in ref_state}
            for name, ref in ref_state.items():
                p = model.graph[name]
                st = opt.state[p.component]
                assert (st.lr, st.step_count) == (ref["lr"], ref["t"]), (phase, name)
                assert p.within(st.m).tobytes() == ref["m"].tobytes(), (phase, name)
                assert p.within(st.v).tobytes() == ref["v"].tobytes(), (phase, name)
        ema_update(teacher, model)
        for name in ref_teacher:
            ref_teacher[name] = 0.8 * ref_teacher[name] + (1.0 - 0.8) * data[name]
            assert teacher.params[name].tobytes() == ref_teacher[name].tobytes(), (phase, name)


def test_a_copied_optimizer_steps_like_the_original():
    model = build_model(TINY_ARCH, [DatasetModelSpec("d0", cls_classes=2, seg_classes=2)])
    model.graph.set_trainable_components(trainable_components("seg", "release", "d0"))
    opt = AdamW(weight_decay=0.05, lr_for=_lr(1e-2))
    rs = np.random.RandomState(5)
    opt.step(model.graph.parameters(), model.graph.backward(_task_loss(model, "seg", "d0", rs)))
    twin, twin_opt = copy.deepcopy((model, opt))
    grads = model.graph.backward(_task_loss(model, "seg", "d0", rs))
    for m, o in ((model, opt), (twin, twin_opt)):
        o.step(m.graph.parameters(), grads, lr_scale=0.7)
    assert twin.graph.component_checksums() == model.graph.component_checksums()
    for name, st in opt.state.items():
        other = twin_opt.state[name]
        assert (other.lr, other.step_count) == (st.lr, st.step_count), name
        assert other.m.tobytes() == st.m.tobytes() and other.v.tobytes() == st.v.tobytes(), name
