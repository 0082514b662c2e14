import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cyclictrain.losses import BoxTarget, cls_loss, loc_loss, seg_loss
from cyclictrain.model import (
    BACKBONE,
    LOC_ENCODER,
    SEG_DECODER,
    ArchConfig,
    DatasetModelSpec,
    build_model,
    cls_head_component,
    component_dataset,
    component_kind,
    loc_decoder_component,
    seg_head_component,
    trainable_components,
)
from cyclictrain.optim import AdamW

from conftest import TINY_ARCH


def _model(specs, arch=TINY_ARCH, seed=0):
    return build_model(replace(arch, init_seed=seed), specs)


def _specs_like_pretraining_table():
    """11 datasets: 5 cls-only, 3 cls+loc, 3 with all three tasks."""
    specs = []
    for i in range(5):
        specs.append(DatasetModelSpec(f"c{i}", cls_classes=3))
    for i in range(3):
        specs.append(DatasetModelSpec(f"cl{i}", cls_classes=3, loc_classes=2))
    for i in range(3):
        specs.append(DatasetModelSpec(f"cls{i}", cls_classes=3, loc_classes=2, seg_classes=2))
    return specs


def test_head_families_sized_by_annotation_availability():
    model = _model(_specs_like_pretraining_table())
    kinds = {}
    for comp in model.graph.components():
        kinds.setdefault(component_kind(comp), set()).add(component_dataset(comp))
    assert len(kinds["cls_head"]) == 11
    assert len(kinds["loc_decoder"]) == 6
    assert len(kinds["seg_head"]) == 3
    assert kinds["backbone"] == {None}
    assert kinds["loc_encoder"] == {None}
    assert kinds["seg_decoder"] == {None}


def test_single_fully_annotated_dataset():
    model = _model([DatasetModelSpec("d", cls_classes=2, loc_classes=2, seg_classes=2)])
    comps = set(model.graph.components())
    assert comps == {
        BACKBONE, LOC_ENCODER, SEG_DECODER,
        "cls_head/d", "loc_decoder/d", "seg_head/d",
    }


def test_cls_only_datasets_keep_shared_components_and_empty_families():
    model = _model([
        DatasetModelSpec("a", cls_classes=2),
        DatasetModelSpec("b", cls_classes=4),
    ])
    comps = model.graph.components()
    kinds = {component_kind(c) for c in comps}
    assert "loc_decoder" not in kinds
    assert "seg_head" not in kinds
    assert LOC_ENCODER in comps
    assert SEG_DECODER in comps


def test_zero_task_dataset_rejected():
    with pytest.raises(ValueError, match="no tasks"):
        DatasetModelSpec("empty")


def test_duplicate_dataset_rejected():
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    with pytest.raises(ValueError, match="already registered"):
        model.add_dataset(DatasetModelSpec("d", cls_classes=2))


# ---------------------------------------------------------------------------
# forward contracts


def _images(n, arch=TINY_ARCH, seed=0):
    rs = np.random.RandomState(seed)
    return rs.rand(n, 1, arch.image_size, arch.image_size)


def test_forward_cls_shape_and_unknown_dataset():
    model = _model([DatasetModelSpec("d", cls_classes=3)])
    logits = model.forward_cls(_images(4), "d")
    assert logits.shape == (4, 3)
    with pytest.raises(ValueError, match="unknown dataset"):
        model.forward_cls(_images(1), "nope")
    with pytest.raises(ValueError, match="no 'loc' branch"):
        model.forward_loc(_images(1), "d")


def test_zeroed_cls_head_outputs_bias():
    model = _model([DatasetModelSpec("d", cls_classes=3)])
    comp = cls_head_component("d")
    model.graph[f"{comp}/fc/w"].tensor.data[:] = 0.0
    model.graph[f"{comp}/fc/b"].tensor.data[:] = [0.5, -1.0, 2.0]
    logits = model.forward_cls(_images(4), "d")
    assert np.allclose(logits.data, np.tile([0.5, -1.0, 2.0], (4, 1)))


def test_forward_loc_shapes_and_zeroed_box_head():
    model = _model([DatasetModelSpec("d", cls_classes=2, loc_classes=3)])
    boxes, logits = model.forward_loc(_images(2), "d")
    assert boxes.shape == (2, TINY_ARCH.num_queries, 4)
    assert logits.shape == (2, TINY_ARCH.num_queries, 3 + 1)
    assert np.all(boxes.data > 0.0) and np.all(boxes.data < 1.0)  # sigmoid squash
    comp = loc_decoder_component("d")
    model.graph[f"{comp}/box/w"].tensor.data[:] = 0.0
    model.graph[f"{comp}/box/b"].tensor.data[:] = 0.0
    boxes, _ = model.forward_loc(_images(2), "d")
    # a zeroed box head leaves exactly the sigmoid of each cell's reference
    # anchor: centers on the grid lattice, the size prior everywhere
    g = TINY_ARCH.loc_grid
    expected_centers = (np.arange(g) + 0.5) / g
    got = boxes.data.reshape(2, g, g, 4)
    assert np.allclose(got[:, :, :, 0], expected_centers[None, None, :])
    assert np.allclose(got[:, :, :, 1], expected_centers[None, :, None])
    assert np.allclose(got[:, :, :, 2:], 0.30)
    assert np.array_equal(got[0], got[1])  # image-independent when zeroed


def test_forward_seg_shape_and_zeroed_head():
    model = _model([DatasetModelSpec("d", seg_classes=1)])
    logits = model.forward_seg(_images(3), "d")
    assert logits.shape == (3, 1, TINY_ARCH.image_size, TINY_ARCH.image_size)
    comp = seg_head_component("d")
    model.graph[f"{comp}/conv/w"].tensor.data[:] = 0.0
    model.graph[f"{comp}/conv/b"].tensor.data[:] = 0.25
    logits = model.forward_seg(_images(3), "d")
    assert np.all(logits.data == 0.25)


def test_forward_deterministic_given_seed():
    specs = [DatasetModelSpec("d", cls_classes=2, loc_classes=2, seg_classes=2)]
    m1 = _model(specs, seed=9)
    m2 = _model(specs, seed=9)
    x = _images(2)
    assert np.array_equal(m1.forward_cls(x, "d").data, m2.forward_cls(x, "d").data)
    b1, l1 = m1.forward_loc(x, "d")
    b2, l2 = m2.forward_loc(x, "d")
    assert np.array_equal(b1.data, b2.data)
    assert np.array_equal(l1.data, l2.data)
    assert np.array_equal(m1.forward_seg(x, "d").data, m2.forward_seg(x, "d").data)


def _tape_nodes(root) -> list:
    """Every node reachable from ``root`` through the recorded parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _recorded_ops(root, below=None) -> list:
    """The op name of every recorded node from ``root`` down, stopping at ``below``."""
    skip = set() if below is None else {id(n) for n in _tape_nodes(below)}
    return sorted(n._bwd.__qualname__.split(".")[0] for n in _tape_nodes(root)
                  if n._bwd is not None and id(n) not in skip)


def test_backbone_tape_holds_one_node_per_conv_layer():
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    out = model.backbone_features(_images(2))
    # bias and leaky ReLU ride inside each conv2d node
    assert _recorded_ops(out) == ["conv2d", "conv2d", "conv2d", "maxpool2d"]


def test_seg_decoder_upsamples_inside_its_second_conv_node():
    model = _model([DatasetModelSpec("d", seg_classes=2)])
    emb = model.backbone_features(_images(2))
    dec = model.seg_decoder_features(emb)
    assert _recorded_ops(dec, below=emb) == ["conv2d", "conv2d"]
    assert dec.shape == (2, TINY_ARCH.seg_channels[1], TINY_ARCH.image_size, TINY_ARCH.image_size)


def test_seg_backward_keeps_no_intermediate_gradient():
    # one seg-task step of the default architecture at batch 8
    model = build_model(ArchConfig(), [DatasetModelSpec("d", seg_classes=2)])
    model.graph.set_trainable_components(set(trainable_components("seg", "release", "d")))
    rs = np.random.RandomState(0)
    logits, _ = model.task_branch(model.backbone_features(rs.rand(8, 1, 32, 32)), "seg", "d")
    loss = seg_loss(logits, (rs.rand(8, 2, 32, 32) > 0.5).astype(float))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = model.graph.backward(loss)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    intermediate = [n for n in _tape_nodes(loss) if n._bwd is not None and n is not loss]
    assert len(intermediate) > 10
    assert all(n.grad is None for n in intermediate)
    trainable = [p for p in model.graph.parameters() if p.trainable]
    assert trainable and all(p.tensor.grad is not None for p in trainable)
    # what the call leaves behind is the returned parameter gradients
    assert held - sum(g.nbytes for g in grads.values()) < 64 * 1024


# ---------------------------------------------------------------------------
# gradient census: routing isolation


def _census_model():
    return _model([
        DatasetModelSpec("d0", cls_classes=2, loc_classes=2, seg_classes=2),
        DatasetModelSpec("d1", cls_classes=2, loc_classes=2, seg_classes=2),
    ])


def _grads_by_component(model, loss):
    grads = model.graph.backward(loss)
    by_comp = {}
    for name, g in grads.items():
        comp = model.graph[name].component
        by_comp.setdefault(comp, 0.0)
        by_comp[comp] += float(np.abs(g).sum())
    return by_comp


def test_cls_loss_reaches_only_backbone_and_own_head():
    model = _census_model()
    logits = model.forward_cls(_images(3), "d0")
    loss = cls_loss(logits, np.ones((3, 2)))
    census = _grads_by_component(model, loss)
    assert census[BACKBONE] > 0
    assert census["cls_head/d0"] > 0
    for comp, total in census.items():
        if comp not in (BACKBONE, "cls_head/d0"):
            assert total == 0.0, comp


def test_loc_loss_spares_cls_and_seg_components():
    model = _census_model()
    boxes, logits = model.forward_loc(_images(2), "d0")
    tgt = BoxTarget(boxes=np.array([[0.5, 0.5, 0.2, 0.2]]), class_ids=np.array([0]))
    loss = loc_loss(boxes, logits, [tgt, tgt])
    census = _grads_by_component(model, loss)
    for comp in (BACKBONE, LOC_ENCODER, "loc_decoder/d0"):
        assert census[comp] > 0, comp
    for comp, total in census.items():
        if comp not in (BACKBONE, LOC_ENCODER, "loc_decoder/d0"):
            assert total == 0.0, comp


def test_census_has_no_leakage_across_sequential_backwards():
    """A later backward must not report another task's stale gradients."""
    model = _census_model()
    logits = model.forward_cls(_images(2), "d0")
    model.graph.backward(cls_loss(logits, np.ones((2, 2))))
    boxes, loc_logits = model.forward_loc(_images(2), "d0")
    tgt = BoxTarget(boxes=np.array([[0.5, 0.5, 0.2, 0.2]]), class_ids=np.array([0]))
    grads = model.graph.backward(loc_loss(boxes, loc_logits, [tgt, tgt]))
    for name, g in grads.items():
        comp = model.graph[name].component
        if comp not in (BACKBONE, LOC_ENCODER, "loc_decoder/d0"):
            assert np.all(g == 0.0), name


def test_seg_loss_spares_loc_decoders():
    model = _census_model()
    logits = model.forward_seg(_images(2), "d0")
    mask = np.zeros((2, 2, TINY_ARCH.image_size, TINY_ARCH.image_size))
    mask[:, :, 4:8, 4:8] = 1.0
    loss = seg_loss(logits, mask)
    census = _grads_by_component(model, loss)
    for comp in (BACKBONE, SEG_DECODER, "seg_head/d0"):
        assert census[comp] > 0, comp
    for comp, total in census.items():
        if comp not in (BACKBONE, SEG_DECODER, "seg_head/d0"):
            assert total == 0.0, comp


# ---------------------------------------------------------------------------
# freeze masks


def test_freeze_masks_match_lock_release_table():
    model = _census_model()
    cases = [
        ("loc", "lock", {"loc_decoder/d0"}),
        ("loc", "release", {BACKBONE, LOC_ENCODER, "loc_decoder/d0"}),
        ("seg", "lock", {"seg_head/d0"}),
        ("seg", "release", {BACKBONE, SEG_DECODER, "seg_head/d0"}),
        ("cls", "lock", {"cls_head/d0"}),
        ("cls", "release", {BACKBONE, "cls_head/d0"}),
    ]
    for task, mode, expected in cases:
        got = trainable_components(task, mode, "d0")
        assert got == frozenset(expected), (task, mode)
        model.graph.set_trainable_components(got)
        for p in model.graph.parameters():
            assert p.trainable == (p.component in expected), (task, mode, p.name)


def test_other_datasets_components_always_frozen():
    model = _census_model()
    for task in ("cls", "loc", "seg"):
        for mode in ("lock", "release"):
            model.graph.set_trainable_components(trainable_components(task, mode, "d0"))
            for comp in ("cls_head/d1", "loc_decoder/d1", "seg_head/d1"):
                for p in model.graph.parameters():
                    if p.component == comp:
                        assert not p.trainable


def test_backward_returns_no_gradient_for_a_frozen_component():
    model = _census_model()
    opt = AdamW(lr=1e-2, weight_decay=0.1)
    x = _images(2)
    # a release step first, so the backbone holds optimizer state
    model.graph.set_trainable_components(trainable_components("cls", "release", "d0"))
    opt.step(model.graph.parameters(),
             model.graph.backward(cls_loss(model.forward_cls(x, "d0"), np.ones((2, 2)))))

    model.graph.set_trainable_components(trainable_components("cls", "lock", "d0"))
    backbone = [p for p in model.graph.parameters() if p.component == BACKBONE]
    weights = {p.name: p.tensor.data.tobytes() for p in backbone}

    def adam_state(name):
        p = model.graph[name]
        st = opt.state[p.component]
        return st.step_count, p.within(st.m).tobytes(), p.within(st.v).tobytes()

    state = {p.name: adam_state(p.name) for p in backbone}
    grads = model.graph.backward(cls_loss(model.forward_cls(x, "d0"), np.ones((2, 2))))
    assert set(grads) == {p.name for p in model.graph.parameters() if p.component == "cls_head/d0"}
    opt.step(model.graph.parameters(), grads)
    for p in backbone:
        assert p.tensor.data.tobytes() == weights[p.name], p.name
        assert adam_state(p.name) == state[p.name], p.name


def test_freeze_mask_validates_inputs():
    with pytest.raises(ValueError, match="unknown task"):
        trainable_components("pose", "lock", "d0")
    with pytest.raises(ValueError, match="unknown mode"):
        trainable_components("cls", "half", "d0")


# ---------------------------------------------------------------------------
# parameter accounting


def test_linear_head_parameter_count():
    arch = ArchConfig(image_size=16, stage_channels=(4, 4, 4), loc_channels=4,
                      query_dim=4, loc_grid=2, seg_channels=(4, 4))
    model = build_model(arch, [DatasetModelSpec("d", cls_classes=3)])
    counts = model.graph.count_by_component()
    assert counts["cls_head/d"] == 4 * 3 + 3  # weights + bias


def test_component_counts_sum_to_total():
    model = _census_model()
    counts = model.graph.count_by_component()
    assert sum(counts.values()) == sum(p.tensor.data.size for p in model.graph.parameters())


def test_equal_config_loc_decoders_have_equal_counts():
    model = _census_model()
    counts = model.graph.count_by_component()
    assert counts["loc_decoder/d0"] == counts["loc_decoder/d1"]


def test_every_parameter_has_exactly_one_component():
    model = _census_model()
    for p in model.graph.parameters():
        assert component_kind(p.component) in {
            "backbone", "loc_encoder", "seg_decoder", "cls_head", "loc_decoder", "seg_head",
        }


def test_checksums_change_only_when_data_changes():
    model = _census_model()
    before = model.graph.component_checksums()
    assert before == model.graph.component_checksums()
    model.graph["backbone/conv1/w"].tensor.data += 1.0
    after = model.graph.component_checksums()
    assert after[BACKBONE] != before[BACKBONE]
    assert after[LOC_ENCODER] == before[LOC_ENCODER]


# ---------------------------------------------------------------------------
# weight sets


def test_conform_ignores_unknown_names_and_names_a_wrong_shape():
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    arrays = model.graph.arrays()
    conformed = model.graph.conform({**arrays, "cls_head/other/fc/w": np.zeros(3)})
    assert list(conformed) == [p.name for p in model.graph.parameters()]
    assert all(np.array_equal(conformed[k], arrays[k]) and conformed[k] is not arrays[k]
               for k in arrays)
    arrays["backbone/conv1/w"] = arrays["backbone/conv1/w"].reshape(1, 4, 3, 3)
    with pytest.raises(ValueError, match=r"parameter 'backbone/conv1/w': stored shape \(1, 4"):
        model.graph.conform(arrays, complete=False)


def test_conform_requires_every_parameter_of_a_complete_set_only():
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    partial = {"cls_head/d/fc/b": np.ones(2)}
    with pytest.raises(ValueError, match=r"missing parameters: \['backbone/conv1/b'"):
        model.graph.conform(partial)
    assert list(model.graph.conform(partial, complete=False)) == ["cls_head/d/fc/b"]


def test_merged_weights_ignores_heads_the_model_lacks():
    """A teacher mirroring another dataset's heads merges over a one-dataset model."""
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    teacher = {"backbone/conv1/b": np.full(4, 0.5), "cls_head/other/fc/b": np.ones(3)}
    merged = model.merged_weights(teacher)
    assert list(merged) == [p.name for p in model.graph.parameters()]
    assert np.array_equal(merged["backbone/conv1/b"], teacher["backbone/conv1/b"])
    assert np.array_equal(merged["cls_head/d/fc/w"], model.graph["cls_head/d/fc/w"].tensor.data)


# ---------------------------------------------------------------------------
# the parameter buffer


def _assert_views_of_one_buffer(graph):
    """A component's parameters are views of one flat buffer that owns its memory."""
    buffers = {}
    for p in graph.parameters():
        buffer = buffers.setdefault(p.component, p.component_data)
        assert p.component_data is buffer and buffer.base is None, p.name
        assert p.tensor.data.base is buffer, p.name
        assert np.array_equal(p.within(buffer), p.tensor.data), p.name
    assert {c: b.size for c, b in buffers.items()} == graph.count_by_component()
    return buffers


def test_parameters_are_views_of_one_buffer_through_build_add_and_load():
    model = _model([DatasetModelSpec("d0", cls_classes=2, seg_classes=2)])
    _assert_views_of_one_buffer(model.graph)

    # a trained model: one release step moves the shared weights in place
    model.graph.set_trainable_components(trainable_components("cls", "release", "d0"))
    loss = cls_loss(model.forward_cls(_images(2), "d0"), np.ones((2, 2)))
    AdamW(lr=1e-2).step(model.graph.parameters(), model.graph.backward(loss))
    before = model.graph.arrays()
    tensors = {p.name: p.tensor for p in model.graph.parameters()}
    buffers = _assert_views_of_one_buffer(model.graph)
    model.add_dataset(DatasetModelSpec("d1", cls_classes=3, loc_classes=2))
    after = _assert_views_of_one_buffer(model.graph)
    assert set(after) - set(buffers) == {"cls_head/d1", "loc_decoder/d1"}
    for c, buffer in buffers.items():
        assert after[c] is buffer, c
    for name, a in before.items():
        assert model.graph[name].tensor is tensors[name]
        assert model.graph[name].tensor.data.tobytes() == a.tobytes(), name

    other = _model([DatasetModelSpec("d0", cls_classes=2, seg_classes=2),
                    DatasetModelSpec("d1", cls_classes=3, loc_classes=2)], seed=5)
    model.graph.load_arrays(other.graph.arrays())
    _assert_views_of_one_buffer(model.graph)
    assert model.graph.component_checksums() == other.graph.component_checksums()


def test_a_copied_model_steps_its_own_buffer():
    model = _model([DatasetModelSpec("d", cls_classes=2)])
    trial = copy.deepcopy(model)
    _assert_views_of_one_buffer(trial.graph)
    before = model.graph.arrays()
    params = trial.graph.parameters()
    AdamW(lr=0.1).step(params, {p.name: np.ones(p.tensor.shape) for p in params})
    for p in params:
        assert not np.array_equal(p.tensor.data, before[p.name]), p.name
        assert model.graph[p.name].tensor.data.tobytes() == before[p.name].tobytes(), p.name
    assert trial.graph.component_checksums() != model.graph.component_checksums()
