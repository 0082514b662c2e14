import tracemalloc
import warnings

import numpy as np
import pytest

from cyclictrain import engine, synthdata
from cyclictrain.engine import (
    DatasetBundle,
    TeacherState,
    TrainConfig,
    TrainingState,
    build_cycle_plan,
    ema_update,
    evaluate_dataset,
    evaluate_task,
    export_teacher,
    finetune,
    make_optimizer,
    predict,
    prepare_bundles,
    pretrain_epochs,
    run_epoch,
    run_pretraining,
    sample_lock_subset,
)
from cyclictrain.model import ArchConfig, MultiTaskModel, build_model, trainable_components
from cyclictrain.optim import AdamW
from cyclictrain.synthdata import SynthDatasetSpec, preset_cls_loc_seg, preset_organ_pairs

from conftest import TINY_ARCH, run_bytes


def _tiny_specs():
    return [
        SynthDatasetSpec("a", num_images=12, tasks=("cls",), image_size=16, seed=1),
        SynthDatasetSpec("b", num_images=12, tasks=("cls", "loc"), image_size=16,
                         min_instances=1, max_instances=1, seed=2),
        SynthDatasetSpec("c", num_images=12, tasks=("cls", "loc", "seg"), image_size=16,
                         min_instances=1, max_instances=1, seed=3),
    ]


def _organ_spec(n=48):
    from dataclasses import replace

    return replace(preset_organ_pairs(num_images=n), image_size=16)


def _build(specs, **cfg_kw):
    cfg = TrainConfig(**cfg_kw)
    model = build_model(TINY_ARCH, [s.model_spec() for s in specs])
    bundles = prepare_bundles(specs, cfg)
    return model, bundles, cfg


# ---------------------------------------------------------------------------
# cycle plans


def test_organ_scenario_expands_to_twelve_entries():
    spec = _organ_spec()
    plan = build_cycle_plan([spec], TrainConfig())
    assert len(plan.entries) == 12
    # first half localization, second half segmentation; lock/release pairs
    # per subtask in declared order
    expected = []
    for task in ("loc", "seg"):
        for st in spec.subtasks:
            expected.append((task, st, "lock", "half"))
            expected.append((task, st, "release", "full"))
    got = [(e.task, e.subtask, e.mode, e.data_fraction) for e in plan.entries]
    assert got == expected


def test_organ_scenario_freeze_pattern_matches_schedule_table():
    spec = _organ_spec()
    plan = build_cycle_plan([spec], TrainConfig())
    ds = spec.dataset_id
    for e in plan.entries:
        if e.task == "loc" and e.mode == "lock":
            assert e.trainable_components == {f"loc_decoder/{ds}"}
        elif e.task == "loc":
            assert e.trainable_components == {"backbone", "loc_encoder", f"loc_decoder/{ds}"}
        elif e.task == "seg" and e.mode == "lock":
            assert e.trainable_components == {f"seg_head/{ds}"}
        else:
            assert e.trainable_components == {"backbone", "seg_decoder", f"seg_head/{ds}"}


def test_cls_only_dataset_without_lock_release_is_single_entry():
    spec = SynthDatasetSpec("solo", num_images=10, tasks=("cls",), image_size=16)
    plan = build_cycle_plan([spec], TrainConfig())
    assert len(plan.entries) == 1
    e = plan.entries[0]
    assert (e.task, e.mode, e.data_fraction) == ("cls", "release", "full")


def test_mixed_dataset_shapes_expand_to_nine_entries():
    # cls+loc -> 1 + 2, cls+loc+seg -> 1 + 2 + 2, cls -> 1; total 9
    specs = [
        SynthDatasetSpec("x", num_images=8, tasks=("cls", "loc"), image_size=16),
        SynthDatasetSpec("y", num_images=8, tasks=("cls", "loc", "seg"), image_size=16),
        SynthDatasetSpec("z", num_images=8, tasks=("cls",), image_size=16),
    ]
    plan = build_cycle_plan(specs, TrainConfig())
    assert len(plan.entries) == 9
    got = [(e.dataset_id, e.task, e.mode) for e in plan.entries]
    assert got == [
        ("x", "cls", "release"),
        ("x", "loc", "lock"), ("x", "loc", "release"),
        ("y", "cls", "release"),
        ("y", "loc", "lock"), ("y", "loc", "release"),
        ("y", "seg", "lock"), ("y", "seg", "release"),
        ("z", "cls", "release"),
    ]


def test_cycle_covers_each_dataset_task_pair_once():
    specs = _tiny_specs()
    plan = build_cycle_plan(specs, TrainConfig())
    release_visits = {}
    for e in plan.entries:
        if e.mode == "release":
            key = (e.dataset_id, e.task, e.subtask)
            release_visits[key] = release_visits.get(key, 0) + 1
    assert all(v == 1 for v in release_visits.values())
    expected_pairs = {(s.dataset_id, t, None) for s in specs for t in s.tasks}
    assert set(release_visits) == expected_pairs


def test_classification_lock_release_configurable():
    spec = SynthDatasetSpec("solo", num_images=10, tasks=("cls",), image_size=16)
    cfg = TrainConfig(lock_release={"cls": True, "loc": True, "seg": True})
    plan = build_cycle_plan([spec], cfg)
    assert [(e.mode, e.data_fraction) for e in plan.entries] == [
        ("lock", "half"), ("release", "full"),
    ]


# ---------------------------------------------------------------------------
# lock subsets


def test_lock_subset_sizes():
    assert len(sample_lock_subset(10, 1)) == 5
    assert len(sample_lock_subset(1, 1)) == 1
    assert len(sample_lock_subset(11, 1)) == 6  # ceiling


def test_lock_subset_distinct_and_deterministic():
    a = sample_lock_subset(10, epoch_seed=42)
    b = sample_lock_subset(10, epoch_seed=42)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 5


def test_lock_subsets_differ_across_epochs():
    a = set(sample_lock_subset(1000, epoch_seed=1).tolist())
    b = set(sample_lock_subset(1000, epoch_seed=2).tolist())
    # both are half of 1000; random halves overlap about 250 of 500
    assert len(a & b) < 400


# ---------------------------------------------------------------------------
# EMA


def test_ema_lambda_one_keeps_teacher():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=1.0)
    before = {k: v.copy() for k, v in teacher.params.items()}
    model.graph["backbone/conv1/w"].tensor.data += 5.0
    ema_update(teacher, model)
    assert all(np.array_equal(before[k], teacher.params[k]) for k in before)


def test_ema_lambda_zero_copies_student():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.0)
    model.graph["backbone/conv1/w"].tensor.data += 5.0
    ema_update(teacher, model)
    for name in teacher.params:
        assert np.array_equal(teacher.params[name], model.graph[name].tensor.data)


def test_ema_default_momentum_example():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.80)
    name = "backbone/conv1/w"
    teacher.params[name][:] = 2.0
    model.graph[name].tensor.data[:] = 1.0
    ema_update(teacher, model)
    assert np.allclose(teacher.params[name], 1.8)


def test_ema_averages_each_teacher_array_in_place():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    arrays = {k: v for k, v in teacher.params.items()}
    expected = {k: (0.8 * v + (1.0 - 0.8) * (model.graph[k].tensor.data + 1.0)).tobytes()
                for k, v in arrays.items()}
    for p in model.graph.parameters():
        p.tensor.data += 1.0
    ema_update(teacher, model)
    assert teacher.params.keys() == arrays.keys()
    for k, v in teacher.params.items():
        assert v is arrays[k], k
        assert v.tobytes() == expected[k], k


def test_ema_rejects_structural_mismatch():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    teacher.params["bogus"] = np.zeros(3)
    with pytest.raises(ValueError, match="bogus"):
        ema_update(teacher, model)


def test_ema_rejects_a_teacher_array_of_another_shape():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    teacher.params["backbone/conv1/w"] = teacher.params["backbone/conv1/w"].reshape(1, 4, 3, 3)
    with pytest.raises(ValueError, match=r"'backbone/conv1/w' shape \(1, 4, 3, 3\) != student "
                                         r"shape \(4, 1, 3, 3\)"):
        ema_update(teacher, model)


@pytest.mark.parametrize("edit,message", [
    (lambda params: params.update(zzz=np.zeros(3)), "teacher parameter 'zzz' missing from student"),
    (lambda params: params.update({"seg_decoder/conv2/b": params["seg_decoder/conv2/b"][:-1]}),
     r"teacher parameter 'seg_decoder/conv2/b' shape \(3,\) != student shape \(4,\)"),
])
def test_ema_checks_every_teacher_entry_before_averaging_any(edit, message):
    """Each mismatch sits after the registry's first names, which stay unmoved."""
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.5)
    model.graph["backbone/conv1/w"].tensor.data += 1.0
    edit(teacher.params)
    before = {k: v.tobytes() for k, v in teacher.params.items()}
    with pytest.raises(ValueError, match=message):
        ema_update(teacher, model)
    assert {k: v.tobytes() for k, v in teacher.params.items()} == before


def test_ema_matches_the_per_entry_formula_when_an_entry_is_replaced():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.7)
    student = model.graph["backbone/conv1/w"].tensor.data
    ema_update(teacher, model)
    teacher.params["backbone/conv1/w"] = np.full(student.shape, 2.0)
    student += 1.0
    expected = {k: 0.7 * v + (1.0 - 0.7) * model.graph[k].tensor.data
                for k, v in teacher.params.items()}
    ema_update(teacher, model)
    ema_update(teacher, model)
    for k, v in expected.items():
        assert teacher.params[k].tobytes() == (
            0.7 * v + (1.0 - 0.7) * model.graph[k].tensor.data).tobytes(), k


def test_ema_of_a_teacher_mirroring_part_of_a_component_averages_exactly_its_entries():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.5)
    del teacher.params["seg_decoder/conv2/b"]
    for p in model.graph.parameters():
        p.tensor.data += 1.0
    expected = {k: 0.5 * v + (1.0 - 0.5) * model.graph[k].tensor.data
                for k, v in teacher.params.items()}
    ema_update(teacher, model)
    assert set(teacher.params) == set(expected)
    for k, v in expected.items():
        assert teacher.params[k].tobytes() == v.tobytes(), k


def test_teacher_initializes_bit_equal_and_never_aliases():
    model = build_model(TINY_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    for name in teacher.params:
        assert np.array_equal(teacher.params[name], model.graph[name].tensor.data)
        assert teacher.params[name] is not model.graph[name].tensor.data


def test_teacher_mirrors_shared_components_only_by_default():
    specs = [_tiny_specs()[2]]
    model = build_model(TINY_ARCH, [specs[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    comps = {model.graph[n].component for n in teacher.params}
    assert comps == {"backbone", "loc_encoder", "seg_decoder"}


# ---------------------------------------------------------------------------
# run_epoch


def test_lock_epoch_keeps_frozen_components_bit_identical():
    specs = _tiny_specs()
    model, bundles, cfg = _build(specs, num_cycles=1)
    plan = build_cycle_plan(specs, cfg)
    lock_entries = [e for e in plan.entries if e.mode == "lock"]
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    for i, entry in enumerate(lock_entries):
        before = model.graph.component_checksums()
        summary = run_epoch(model, teacher, entry, bundles[entry.dataset_id], opt, cfg,
                            epoch_in_cycle=i + 1)
        after = model.graph.component_checksums()
        for comp in before:
            if comp in entry.trainable_components:
                assert after[comp] != before[comp], comp
            else:
                assert after[comp] == before[comp], comp
        assert summary.samples_used == (len(bundles[entry.dataset_id].train) + 1) // 2


def test_release_epoch_consumes_the_full_training_split():
    specs = [_tiny_specs()[0]]
    model, bundles, cfg = _build(specs)
    entry = build_cycle_plan(specs, cfg).entries[0]
    assert entry.mode == "release"
    summary = run_epoch(model, None, entry, bundles["a"], make_optimizer(cfg), cfg)
    assert summary.samples_used == len(bundles["a"].train)


def test_release_epoch_with_zero_lr_changes_nothing_but_reports_losses():
    specs = [_tiny_specs()[2]]
    model, bundles, _ = _build(specs)
    cfg = TrainConfig(lr_backbone=0.0, lr_loc=0.0, lr_seg=0.0, lr_cls_head=0.0)
    plan = build_cycle_plan(specs, cfg)
    entry = next(e for e in plan.entries if e.mode == "release" and e.task == "loc")
    before = model.graph.component_checksums()
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    summary = run_epoch(model, teacher, entry, bundles["c"], opt, cfg)
    assert model.graph.component_checksums() == before
    assert summary.breakdown.total > 0.0


def test_consistency_term_count_per_task():
    specs = [_tiny_specs()[2]]
    model, bundles, cfg = _build(specs)
    plan = build_cycle_plan(specs, cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    by_task = {}
    for i, entry in enumerate(plan.entries):
        if entry.mode != "release":
            continue
        summary = run_epoch(model, teacher, entry, bundles["c"], opt, cfg,
                            epoch_in_cycle=i + 1)
        by_task[entry.task] = [name for name, _ in summary.breakdown.consistency_terms]
    assert by_task["cls"] == ["backbone"]
    assert by_task["loc"] == ["backbone", "loc_encoder"]
    assert by_task["seg"] == ["backbone", "seg_decoder"]


def _record_backbone_calls(monkeypatch) -> list:
    """Patch ``backbone_features`` to record the ``weights`` of every call."""
    calls = []
    original = MultiTaskModel.backbone_features

    def backbone_features(self, images, weights=None):
        calls.append(weights)
        return original(self, images, weights)

    monkeypatch.setattr(MultiTaskModel, "backbone_features", backbone_features)
    return calls


def _state_bytes(model, opt) -> tuple[dict, dict]:
    params = {name: a.tobytes() for name, a in model.graph.arrays().items()}
    moments = {name: (st.lr, st.step_count, st.m.tobytes(), st.v.tobytes())
               for name, st in opt.state.items()}
    return params, moments


# True: a teacher over every parameter, heads included, as checkpoints of older runs hold
@pytest.mark.parametrize("every_parameter", [False, True])
def test_lock_epoch_runs_no_teacher_forward_and_matches_a_teacherless_epoch(
    monkeypatch, every_parameter
):
    specs = [_tiny_specs()[2]]
    cfg = TrainConfig()
    with_teacher = build_model(TINY_ARCH, [specs[0].model_spec()])
    without = build_model(TINY_ARCH, [specs[0].model_spec()])
    bundle = prepare_bundles(specs, cfg)["c"]
    teacher = TeacherState.init_from(with_teacher, cfg.momentum)
    if every_parameter:
        teacher.params = with_teacher.graph.arrays()
    opt_with, opt_without = make_optimizer(cfg), make_optimizer(cfg)
    calls = _record_backbone_calls(monkeypatch)
    lock_entries = [e for e in build_cycle_plan(specs, cfg).entries if e.mode == "lock"]
    assert {e.task for e in lock_entries} == {"loc", "seg"}
    for i, entry in enumerate(lock_entries):
        summary = run_epoch(with_teacher, teacher, entry, bundle, opt_with, cfg,
                            epoch_in_cycle=i + 1)
        run_epoch(without, None, entry, bundle, opt_without, cfg, epoch_in_cycle=i + 1)
        assert [w for w in calls if w is not None] == [], entry.task
        assert summary.breakdown.consistency_terms == ()
        assert summary.breakdown.total == summary.breakdown.task_loss
    assert _state_bytes(with_teacher, opt_with) == _state_bytes(without, opt_without)


def test_run_epoch_rejects_empty_data_and_wrong_bundle():
    specs = _tiny_specs()
    model, bundles, cfg = _build(specs)
    plan = build_cycle_plan(specs, cfg)
    entry = plan.entries[0]
    empty = DatasetBundle(spec=bundles["a"].spec, train=[], val=[], test=[])
    with pytest.raises(ValueError, match="no training data"):
        run_epoch(model, None, entry, empty, make_optimizer(cfg), cfg)
    with pytest.raises(ValueError, match="bundle"):
        run_epoch(model, None, entry, bundles["b"], make_optimizer(cfg), cfg)


# ---------------------------------------------------------------------------
# run_pretraining


def test_step_decay_scales_the_learning_rate_per_interval():
    cfg = TrainConfig(step_decay_factor=0.1, step_decay_interval=2)
    assert [cfg.lr_scale_at(e) for e in range(5)] == [1.0, 1.0, 0.1, 0.1, 0.1 ** 2]
    assert [TrainConfig(step_decay_factor=0.1).lr_scale_at(e) for e in range(5)] == [1.0] * 5


def test_every_pretraining_step_uses_the_global_epoch_decay(monkeypatch):
    specs = _tiny_specs()[:2]  # 1 + (1 + 2) epochs per cycle
    model, bundles, cfg = _build(specs, num_cycles=2, batch_size=4, seed=3,
                                 step_decay_factor=0.5, step_decay_interval=2)
    epochs_started = []
    steps = []
    original_run_epoch, original_step = engine.run_epoch, AdamW.step

    def run_epoch(*args, **kwargs):
        epochs_started.append(len(epochs_started))
        return original_run_epoch(*args, **kwargs)

    def step(self, params, grads, lr_scale=1.0):
        steps.append((epochs_started[-1], lr_scale))
        original_step(self, params, grads, lr_scale=lr_scale)

    monkeypatch.setattr(engine, "run_epoch", run_epoch)
    monkeypatch.setattr(AdamW, "step", step)
    run_pretraining(model, specs, cfg, bundles=bundles)
    assert epochs_started == list(range(8))
    assert {epoch for epoch, _ in steps} == set(range(8))
    assert all(scale == cfg.lr_scale_at(epoch) for epoch, scale in steps)
    assert sorted({scale for _, scale in steps}) == [0.125, 0.25, 0.5, 1.0]


def test_a_new_iterator_over_the_same_state_continues_the_run_exactly():
    specs = _tiny_specs()[:2]  # 4 epochs per cycle; the lr steps down after epochs 3 and 6
    cfg = TrainConfig(num_cycles=2, batch_size=4, seed=9, eval_every_epoch=True,
                      step_decay_factor=0.5, step_decay_interval=3)
    bundles = prepare_bundles(specs, cfg)

    def fresh():
        return TrainingState.fresh(build_model(TINY_ARCH, [s.model_spec() for s in specs]), cfg)

    single = fresh()
    whole = list(pretrain_epochs(single, specs, cfg, bundles))
    split = fresh()
    first = []
    for outcome in pretrain_epochs(split, specs, cfg, bundles):
        first.append(outcome)
        if outcome.cycle_done:
            break
    assert split.epochs_run == len(first) == 4
    rest = list(pretrain_epochs(split, specs, cfg, bundles))

    assert [(o.cycle, o.epoch_in_cycle, o.cycle_done) for o in whole] == [
        (c, e, e == 4) for c in range(2) for e in range(1, 5)]
    assert first + rest == whole  # plan entries, loss breakdowns, samples and records
    assert all(o.records for o in whole) and whole[-1].summary.breakdown.consistency_terms
    assert split.epochs_run == single.epochs_run == 8
    assert run_bytes(split.model.graph.arrays(), split.teacher.params, split.optimizer) == \
        run_bytes(single.model.graph.arrays(), single.teacher.params, single.optimizer)
    assert list(pretrain_epochs(split, specs, cfg, bundles)) == []


def test_two_cycles_of_organ_scenario_run_24_epochs_12_evals():
    spec = _organ_spec()
    cfg = TrainConfig(num_cycles=2, batch_size=8)
    model = build_model(TINY_ARCH, [spec.model_spec()])
    result = run_pretraining(model, [spec], cfg)
    assert result.epochs_run == 24
    assert result.cycles_run == 2
    # one evaluation point per release epoch
    assert len(result.records) == 12
    assert all(r.mode == "release" for r in result.records)


def test_zero_cycles_returns_untrained_model_and_empty_log():
    specs = [_tiny_specs()[0]]
    cfg = TrainConfig(num_cycles=0)
    model = build_model(TINY_ARCH, [specs[0].model_spec()])
    before = model.graph.component_checksums()
    result = run_pretraining(model, specs, cfg)
    assert result.records == []
    assert result.epochs_run == 0
    assert model.graph.component_checksums() == before


def test_pretraining_deterministic_across_runs():
    specs = _tiny_specs()

    def run():
        cfg = TrainConfig(num_cycles=1, batch_size=8, seed=77)
        model = build_model(TINY_ARCH, [s.model_spec() for s in specs])
        result = run_pretraining(model, specs, cfg)
        return result

    r1, r2 = run(), run()
    assert r1.records == r2.records
    a1 = r1.model.graph.arrays()
    a2 = r2.model.graph.arrays()
    assert all(np.array_equal(a1[k], a2[k]) for k in a1)
    assert all(
        np.array_equal(r1.teacher.params[k], r2.teacher.params[k])
        for k in r1.teacher.params
    )


def test_ema_applied_after_every_epoch_within_tolerance():
    spec = _organ_spec()
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model = build_model(TINY_ARCH, [spec.model_spec()])
    bundles = prepare_bundles([spec], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    plan = build_cycle_plan([spec], cfg)
    lam = cfg.momentum
    for i, entry in enumerate(plan.entries[:4]):
        teacher_prev = {k: v.copy() for k, v in teacher.params.items()}
        run_epoch(model, teacher, entry, bundles[spec.dataset_id], opt, cfg,
                  epoch_in_cycle=i + 1)
        ema_update(teacher, model)
        for name in teacher.params:
            expected = lam * teacher_prev[name] + (1 - lam) * model.graph[name].tensor.data
            assert np.max(np.abs(teacher.params[name] - expected)) < 1e-12


def test_eval_every_epoch_adds_cross_dataset_rows():
    specs = [_tiny_specs()[0], _tiny_specs()[1]]
    cfg = TrainConfig(num_cycles=1, batch_size=8, eval_every_epoch=True)
    model = build_model(TINY_ARCH, [s.model_spec() for s in specs])
    result = run_pretraining(model, specs, cfg)
    eval_rows = [r for r in result.records if r.mode == "eval"]
    # a expands to 1 epoch, b to 3 (cls release + loc lock/release); every
    # epoch logs one cross-dataset row per (dataset, task) pair = 3 pairs
    assert result.epochs_run == 4
    assert len(eval_rows) == 4 * 3
    release_rows = [r for r in result.records if r.mode == "release"]
    assert len(release_rows) == 3  # one per release epoch


def test_loc_eval_scores_every_query_slot_in_one_map_call(monkeypatch):
    # perfbench's tracer rebinds engine.map_at_iou: it times that call and
    # counts len(detections) as metrics.detections_scored

    calls = []

    def recording_map_at_iou(detections, *args, **kwargs):
        calls.append(len(detections))
        return original(detections, *args, **kwargs)

    original = engine.map_at_iou
    monkeypatch.setattr(engine, "map_at_iou", recording_map_at_iou)
    spec = _tiny_specs()[1]
    model = build_model(TINY_ARCH, [spec.model_spec()])
    samples = prepare_bundles([spec], TrainConfig())[spec.dataset_id].test
    value, name = engine.evaluate_task(model, spec, samples, "loc")
    assert name == "mAP40" and value is not None
    assert calls == [len(samples) * TINY_ARCH.num_queries]


@pytest.fixture(scope="module")
def three_task_eval():
    """A default-architecture model and a 120-image test split: two predict chunks."""
    spec = preset_cls_loc_seg(num_images=600)
    model = build_model(ArchConfig(), [spec.model_spec()])
    bundle = prepare_bundles([spec], TrainConfig())[spec.dataset_id]
    assert len(bundle.test) == 120
    # a teacher weight set, merged as `cyclictrain eval --weights teacher`
    # merges one, whose backbone differs from the student's
    teacher = model.merged_weights({name: 0.5 * a for name, a in model.graph.arrays().items()
                                    if name.startswith("backbone/")})
    return model, bundle, teacher


def _per_task(model, bundle, weights):
    out = []
    for task in bundle.spec.tasks:
        value, name = evaluate_task(model, bundle.spec, bundle.test, task, weights)
        out.append((task, name, value))
    return out


def test_evaluate_dataset_runs_the_backbone_once_per_chunk_and_weight_set(
    monkeypatch, three_task_eval
):
    model, bundle, teacher = three_task_eval
    calls = _record_backbone_calls(monkeypatch)
    evaluate_dataset(model, bundle)
    assert calls == [None, None]  # 2 chunks, not 2 per task
    evaluate_dataset(model, bundle, teacher)
    assert len(calls) == 4 and all(w is teacher for w in calls[2:])


def test_shared_backbone_eval_equals_per_task_evaluation(three_task_eval):
    model, bundle, teacher = three_task_eval
    student = evaluate_dataset(model, bundle)
    as_teacher = evaluate_dataset(model, bundle, teacher)
    assert student == _per_task(model, bundle, None)
    assert as_teacher == _per_task(model, bundle, teacher)
    # each weight set scores with its own backbone features
    assert student != as_teacher


def test_task_branches_leave_the_shared_features_unchanged(three_task_eval):
    model, bundle, _ = three_task_eval
    features = {}
    predict(model, bundle.spec, bundle.test, "cls", None, features)
    assert sorted(features) == [0, 64]
    before = {start: emb.data.tobytes() for start, emb in features.items()}
    for task in ("loc", "seg", "cls"):
        predict(model, bundle.spec, bundle.test, task, None, features)
    assert {start: emb.data.tobytes() for start, emb in features.items()} == before


def test_cls_scores_of_very_negative_logits_are_zero_without_a_warning():
    spec = SynthDatasetSpec("solo", num_images=4, tasks=("cls",), image_size=16)
    model = build_model(TINY_ARCH, [spec.model_spec()])
    model.graph["cls_head/solo/fc/w"].tensor.data[...] = 0.0
    model.graph["cls_head/solo/fc/b"].tensor.data[...] = -800.0  # exp(800) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = predict(model, spec, synthdata.generate_dataset(spec), "cls")["scores"]
    assert scores.shape == (4, spec.model_spec().cls_classes)
    assert not scores.any()


def test_predict_holds_one_chunk_decoder_map_at_a_time():
    spec = preset_cls_loc_seg(num_images=128)  # two 64-image chunks at 32 px
    samples = synthdata.generate_dataset(spec)
    arch = ArchConfig()
    model = build_model(arch, [spec.model_spec()])
    features: dict = {}
    predict(model, spec, samples, "cls", None, features)  # backbone maps, made untraced
    peaks = []
    for n in (64, 128):
        tracemalloc.start()
        try:
            predict(model, spec, samples[:n], "seg", None, features)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the second chunk adds its input and output rows, not the first chunk's decoder map
    decoder_map = 64 * arch.seg_channels[1] * arch.image_size ** 2 * 8
    assert peaks[1] - peaks[0] < decoder_map


def _backbone_passes_per_evaluation(monkeypatch) -> list:
    """Backbone passes made inside each ``evaluate_task`` call, in call order."""

    calls = _record_backbone_calls(monkeypatch)
    per_call = []
    original = engine.evaluate_task

    def evaluate_task(*args, **kwargs):
        before = len(calls)
        out = original(*args, **kwargs)
        per_call.append(len(calls) - before)
        return out

    monkeypatch.setattr(engine, "evaluate_task", evaluate_task)
    return per_call


def test_metric_records_share_the_backbone_across_tasks(monkeypatch):
    spec = _tiny_specs()[2]
    assert 0 < len(prepare_bundles([spec], TrainConfig())["c"].test) <= 64
    per_call = _backbone_passes_per_evaluation(monkeypatch)
    cfg = TrainConfig(num_cycles=1, eval_every_epoch=True)
    result = run_pretraining(build_model(TINY_ARCH, [spec.model_spec()]), [spec], cfg)
    # a release epoch first scores its own task, with a memo of its own; then
    # every epoch scores cls, loc and seg, and the first task fills the memo
    entries = build_cycle_plan([spec], cfg).entries
    assert result.epochs_run == len(entries) == 5
    expected = []
    for entry in entries:
        expected += ([1] if entry.mode == "release" else []) + [1, 0, 0]
    assert per_call == expected
    per_call.clear()
    # head-only finetuning keeps its head inputs from the first epoch on
    finetune(result.model, spec, cfg, mode="head_only", epochs=2)
    assert per_call == [1, 0, 0] + [0, 0, 0]


# ---------------------------------------------------------------------------
# teacher export


def test_export_teacher_at_init_equals_student():
    model = build_model(TINY_ARCH, [_tiny_specs()[2].model_spec()])
    teacher = TeacherState.init_from(model, 0.8)
    exported = export_teacher(model, teacher)
    arrays = model.graph.arrays()
    assert set(exported) == set(arrays)
    assert all(np.array_equal(exported[k], arrays[k]) for k in arrays)


def test_export_teacher_after_one_epoch_matches_manual_ema():
    spec = _tiny_specs()[2]
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model = build_model(TINY_ARCH, [spec.model_spec()])
    init = model.graph.arrays()
    bundles = prepare_bundles([spec], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    entry = build_cycle_plan([spec], cfg).entries[0]
    run_epoch(model, teacher, entry, bundles[spec.dataset_id], opt, cfg)
    ema_update(teacher, model)
    exported = export_teacher(model, teacher)
    for name in teacher.params:
        manual = 0.8 * init[name] + 0.2 * model.graph[name].tensor.data
        assert np.max(np.abs(exported[name] - manual)) < 1e-12


# ---------------------------------------------------------------------------
# finetuning


def test_head_only_finetune_freezes_everything_else():
    specs = _tiny_specs()
    model, bundles, cfg = _build(specs, num_cycles=1, batch_size=8)
    new_spec = SynthDatasetSpec("newds", num_images=12, tasks=("loc",), image_size=16,
                                min_instances=1, max_instances=1, seed=9)
    before = model.graph.component_checksums()
    result = finetune(model, new_spec, cfg, mode="head_only", epochs=2)
    after = model.graph.component_checksums()
    for comp, checksum in before.items():
        assert after[comp] == checksum, comp
    assert after["loc_decoder/newds"] != ""
    assert result.trainable_fraction < 0.2
    assert result.trainable_params == sum(
        p.tensor.data.size
        for p in model.graph.parameters()
        if p.component == "loc_decoder/newds"
    )


def test_few_shot_finetune_uses_exactly_k_samples():
    specs = [_tiny_specs()[0]]
    model, _, cfg = _build(specs, batch_size=4)
    spec = SynthDatasetSpec("fs", num_images=16, tasks=("cls",), image_size=16, seed=4)
    result = finetune(model, spec, cfg, mode="full", few_shot_k=3, epochs=1)
    assert result.train_size == 3


def test_full_finetune_trains_only_routed_components():
    # weight decay moves every parameter the optimizer steps, gradient or not
    specs = _tiny_specs()
    model, _, cfg = _build(specs, batch_size=8, weight_decay=0.1)
    routed = trainable_components("cls", "release", "a")
    before = model.graph.component_checksums()
    result = finetune(model, specs[0], cfg, mode="full", epochs=1)
    after = model.graph.component_checksums()
    for comp, checksum in before.items():
        assert (after[comp] != checksum) == (comp in routed), comp
    assert result.trainable_params == sum(
        p.tensor.data.size for p in model.graph.parameters() if p.component in routed
    )


def test_finetune_splits_subtask_data_like_pretraining():
    spec = _organ_spec()
    model, _, cfg = _build([spec], batch_size=8)
    result = finetune(model, spec, cfg, mode="head_only", epochs=1)
    final = [(r.task, r.metric_name, r.value) for r in result.records]
    assert final == evaluate_dataset(model, prepare_bundles([spec], cfg)[spec.dataset_id])


def _count_branch_passes_inside_evaluation(monkeypatch) -> dict:
    """Calls of the backbone, loc encoder and seg decoder made inside ``evaluate_task``."""

    counts = dict.fromkeys(("backbone_features", "loc_encoder_features",
                            "seg_decoder_features"), 0)
    inside = []
    for name in counts:
        def counted(self, *args, _name=name, _original=getattr(MultiTaskModel, name), **kwargs):
            counts[_name] += bool(inside)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MultiTaskModel, name, counted)
    original = engine.evaluate_task

    def evaluate_task(*args, **kwargs):
        inside.append(True)
        try:
            return original(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(engine, "evaluate_task", evaluate_task)
    return counts


# two 64-image chunks in each test split
MEMO_SPECS = {
    "loc_seg": lambda: _organ_spec(n=390),
    "cls_loc_seg": lambda: SynthDatasetSpec("c", num_images=400, tasks=("cls", "loc", "seg"),
                                            image_size=16, min_instances=1, max_instances=1,
                                            seed=3),
}


@pytest.mark.parametrize("mode", ["head_only", "full"])
@pytest.mark.parametrize("which", list(MEMO_SPECS))
def test_finetune_scores_like_a_fresh_evaluation_with_one_pass_per_memo(
    monkeypatch, which, mode
):
    spec = MEMO_SPECS[which]()
    model, bundles, cfg = _build([spec], batch_size=4)
    bundle = bundles[spec.dataset_id]
    assert 64 < len(bundle.test) <= 128
    counts = _count_branch_passes_inside_evaluation(monkeypatch)
    epochs = 3
    result = finetune(model, spec, cfg, mode=mode, few_shot_k=8, epochs=epochs)
    # head-only: each head input once per chunk over the run; full: once per epoch
    per_chunk = 2 * (1 if mode == "head_only" else epochs)
    assert counts == {"backbone_features": per_chunk,
                      "loc_encoder_features": per_chunk,
                      "seg_decoder_features": per_chunk}
    last = [(r.task, r.metric_name, float.hex(r.value))
            for r in result.records if r.epoch == epochs]
    fresh = [(task, name, float.hex(value)) for task, name, value in evaluate_dataset(model, bundle)]
    assert last == fresh


def test_head_only_finetune_rejects_a_moved_frozen_component_before_scoring(monkeypatch):

    spec = _tiny_specs()[2]
    model, _, cfg = _build([spec], batch_size=4)
    scored = []
    original_evaluate = engine.evaluate_task

    def evaluate_task(*args, **kwargs):
        scored.append(args[3])
        return original_evaluate(*args, **kwargs)

    original_step = AdamW.step

    def step(self, params, grads, lr_scale=1.0):
        original_step(self, params, grads, lr_scale=lr_scale)
        if scored:  # from the second epoch on, once the first has filled the memo
            model.graph["backbone/conv1/w"].tensor.data[0, 0, 0, 0] += 1e-3

    monkeypatch.setattr(engine, "evaluate_task", evaluate_task)
    monkeypatch.setattr(AdamW, "step", step)
    with pytest.raises(RuntimeError, match="modified frozen component 'backbone'"):
        finetune(model, spec, cfg, mode="head_only", epochs=3)
    assert scored == ["cls", "loc", "seg"]  # the first epoch's scoring only


def test_finetune_rejects_unknown_mode():
    specs = [_tiny_specs()[0]]
    model, _, cfg = _build(specs)
    spec = SynthDatasetSpec("nope", num_images=12, tasks=("cls",), image_size=16)
    with pytest.raises(ValueError, match="mode"):
        finetune(model, spec, cfg, mode="partial")
