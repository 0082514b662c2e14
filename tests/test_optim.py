import numpy as np
import pytest

from cyclictrain.model import ModelGraph
from cyclictrain.optim import AdamW


def _graph_with(name="p", value=1.0, component="backbone"):
    g = ModelGraph()
    g.add(name, np.asarray([value]), component)
    return g


def test_zero_grad_zero_decay_leaves_parameter_unchanged():
    g = _graph_with(value=1.5)
    before = g["p"].tensor.data.copy()
    opt = AdamW(lr=1e-3, weight_decay=0.0)
    opt.step(g.parameters(), {"p": np.zeros(1)})
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
    opt = AdamW(lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    opt.step(g.parameters(), {"p": np.asarray([1.0])})
    expected = _reference_adamw(1.0, [1.0], 1e-3, 0.9, 0.999, 1e-8, 0.0)
    assert abs(g["p"].tensor.data[0] - expected) < 1e-12


def test_multi_step_matches_scalar_reference():
    rs = np.random.RandomState(11)
    grads = rs.randn(7)
    g = _graph_with(value=0.3)
    opt = AdamW(lr=2e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
    for gr in grads:
        opt.step(g.parameters(), {"p": np.asarray([gr])})
    expected = _reference_adamw(0.3, list(grads), 2e-3, 0.9, 0.999, 1e-8, 0.01)
    assert abs(g["p"].tensor.data[0] - expected) < 1e-12


def test_decoupled_decay_is_exact():
    g = _graph_with(value=2.0)
    opt = AdamW(lr=1e-3, weight_decay=0.1)
    opt.step(g.parameters(), {"p": np.zeros(1)})
    # zero gradient leaves the Adam term at exactly zero, so the update is
    # the pure decay term lr * wd * theta
    assert g["p"].tensor.data[0] == 2.0 - 1e-3 * (0.1 * 2.0)


def test_frozen_parameter_bit_identical_under_any_gradient():
    g = _graph_with(value=0.7)
    g["p"].trainable = False
    before = g["p"].tensor.data.tobytes()
    opt = AdamW(lr=10.0, weight_decay=0.5)
    opt.step(g.parameters(), {"p": np.asarray([1e9])})
    assert g["p"].tensor.data.tobytes() == before
    assert "p" not in opt.state  # no state created either


def test_non_finite_gradient_rejected_with_name():
    g = _graph_with(name="backbone/conv1/w")
    opt = AdamW()
    with pytest.raises(ValueError, match="backbone/conv1/w"):
        opt.step(g.parameters(), {"backbone/conv1/w": np.asarray([np.nan])})


def test_step_count_increments_per_applied_step():
    g = _graph_with()
    opt = AdamW()
    for expected in (1, 2, 3):
        opt.step(g.parameters(), {"p": np.asarray([0.1])})
        assert opt.state["p"].step_count == expected


def test_per_parameter_learning_rates():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW(lr=1.0, lr_for=lambda p: 1e-5 if p.component == "backbone" else 1e-1)
    opt.step(g.parameters(), {"a": np.asarray([1.0]), "b": np.asarray([1.0])})
    assert opt.state["a"].lr == 1e-5
    assert opt.state["b"].lr == 1e-1
    moved_a = abs(1.0 - g["a"].tensor.data[0])
    moved_b = abs(1.0 - g["b"].tensor.data[0])
    assert moved_a < moved_b


def test_missing_gradient_for_a_trainable_parameter_is_rejected():
    g = ModelGraph()
    g.add("a", np.asarray([1.0]), "backbone")
    g.add("b", np.asarray([1.0]), "cls_head/x")
    opt = AdamW()
    with pytest.raises(ValueError, match="'b'"):
        opt.step(g.parameters(), {"a": np.asarray([1.0])})
    g["b"].trainable = False
    opt.step(g.parameters(), {"a": np.asarray([1.0])})  # frozen: no gradient needed
    assert "b" not in opt.state


def test_in_place_update_is_byte_equal_to_the_array_formula():
    # the out-of-place expressions the in-place update must reproduce bit for bit
    rs = np.random.RandomState(12)
    theta = rs.randn(3, 4)
    theta[0, :2] = [0.0, -0.0]
    g = ModelGraph()
    g.add("p", theta.copy(), "backbone")
    opt = AdamW(lr=3e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.05)
    b1, b2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.05, 3e-3
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, scale in enumerate((1.0, 0.5, 0.25), start=1):
        grad = rs.randn(3, 4)
        grad[1, 0] = 0.0
        opt.step(g.parameters(), {"p": grad}, lr_scale=scale)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * (grad * grad)
        update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps) + wd * theta
        theta = theta - (lr * scale) * update
        entry = opt.state["p"]
        assert g["p"].tensor.data.tobytes() == theta.tobytes(), t
        assert entry.m.tobytes() == m.tobytes(), t
        assert entry.v.tobytes() == v.tobytes(), t


@pytest.mark.parametrize("kwargs,message", [
    ({"lr": float("nan")}, "lr must be finite and non-negative, got nan"),
    ({"lr": -1.0}, "lr must be finite and non-negative, got -1.0"),
    ({"eps": 0.0}, "eps must be finite and positive, got 0.0"),
    ({"eps": float("inf")}, "eps must be finite and positive, got inf"),
    ({"weight_decay": -0.1}, "weight_decay must be finite and non-negative, got -0.1"),
    ({"weight_decay": float("nan")}, "weight_decay must be finite and non-negative, got nan"),
    ({"betas": (0.9, 1.0)}, r"betas must lie in \(0, 1\), got \(0\.9, 1\.0\)"),
])
def test_constructor_rejects_hyperparameters_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AdamW(**kwargs)


def test_learning_rate_from_lr_for_must_be_finite_and_non_negative():
    g = _graph_with()
    for lr in (float("nan"), -1e-3):
        with pytest.raises(ValueError, match="learning rate .* for 'p' is not finite and >= 0"):
            AdamW(lr_for=lambda p: lr).step(g.parameters(), {"p": np.asarray([0.1])})
    assert np.array_equal(g["p"].tensor.data, [1.0])
