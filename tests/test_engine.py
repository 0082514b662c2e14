import numpy as np
import pytest

from cyclictrain.engine import (
    DatasetBundle,
    TeacherState,
    TrainConfig,
    build_cycle_plan,
    ema_update,
    evaluate_dataset,
    evaluate_task,
    export_teacher,
    finetune,
    make_optimizer,
    predict,
    prepare_bundles,
    run_epoch,
    run_pretraining,
    sample_lock_subset,
)
from cyclictrain.model import ArchConfig, MultiTaskModel, build_model, trainable_components
from cyclictrain.synthdata import SynthDatasetSpec, preset_cls_loc_seg, preset_organ_pairs

SMALL_ARCH = ArchConfig(image_size=16, stage_channels=(4, 6, 8), loc_channels=8,
                        query_dim=8, loc_grid=4, seg_channels=(6, 4))


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
    model = build_model(SMALL_ARCH, [s.model_spec() for s in specs])
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
    model = build_model(SMALL_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=1.0)
    before = {k: v.copy() for k, v in teacher.params.items()}
    model.graph["backbone/conv1/w"].tensor.data += 5.0
    ema_update(teacher, model)
    assert all(np.array_equal(before[k], teacher.params[k]) for k in before)


def test_ema_lambda_zero_copies_student():
    model = build_model(SMALL_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.0)
    model.graph["backbone/conv1/w"].tensor.data += 5.0
    ema_update(teacher, model)
    for name in teacher.params:
        assert np.array_equal(teacher.params[name], model.graph[name].tensor.data)


def test_ema_default_momentum_example():
    model = build_model(SMALL_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.80)
    name = "backbone/conv1/w"
    teacher.params[name][:] = 2.0
    model.graph[name].tensor.data[:] = 1.0
    ema_update(teacher, model)
    assert np.allclose(teacher.params[name], 1.8)


def test_ema_rejects_structural_mismatch():
    model = build_model(SMALL_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    teacher.params["bogus"] = np.zeros(3)
    with pytest.raises(ValueError, match="bogus"):
        ema_update(teacher, model)


def test_teacher_initializes_bit_equal_and_never_aliases():
    model = build_model(SMALL_ARCH, [_tiny_specs()[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    for name in teacher.params:
        assert np.array_equal(teacher.params[name], model.graph[name].tensor.data)
        assert teacher.params[name] is not model.graph[name].tensor.data


def test_teacher_mirrors_shared_components_only_by_default():
    specs = [_tiny_specs()[2]]
    model = build_model(SMALL_ARCH, [specs[0].model_spec()])
    teacher = TeacherState.init_from(model, momentum=0.8)
    comps = {model.graph[n].component for n in teacher.params}
    assert comps == {"backbone", "loc_encoder", "seg_decoder"}
    full = TeacherState.init_from(model, momentum=0.8, mirror_heads=True)
    assert set(full.params) == set(model.graph.names())


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
    moments = {name: (e["lr"], e["step_count"], e["m"].tobytes(), e["v"].tobytes())
               for name, e in opt.export_state()["entries"].items()}
    return params, moments


@pytest.mark.parametrize("mirror_heads", [False, True])
def test_lock_epoch_runs_no_teacher_forward_and_matches_a_teacherless_epoch(
    monkeypatch, mirror_heads
):
    specs = [_tiny_specs()[2]]
    cfg = TrainConfig(mirror_heads=mirror_heads)
    with_teacher = build_model(SMALL_ARCH, [specs[0].model_spec()])
    without = build_model(SMALL_ARCH, [specs[0].model_spec()])
    bundle = prepare_bundles(specs, cfg)["c"]
    teacher = TeacherState.init_from(with_teacher, cfg.momentum, mirror_heads)
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


def test_two_cycles_of_organ_scenario_run_24_epochs_12_evals():
    spec = _organ_spec()
    cfg = TrainConfig(num_cycles=2, batch_size=8)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    result = run_pretraining(model, [spec], cfg)
    assert result.epochs_run == 24
    assert result.cycles_run == 2
    # one evaluation point per release epoch
    assert len(result.records) == 12
    assert all(r.mode == "release" for r in result.records)


def test_zero_cycles_returns_untrained_model_and_empty_log():
    specs = [_tiny_specs()[0]]
    cfg = TrainConfig(num_cycles=0)
    model = build_model(SMALL_ARCH, [specs[0].model_spec()])
    before = model.graph.component_checksums()
    result = run_pretraining(model, specs, cfg)
    assert result.records == []
    assert result.epochs_run == 0
    assert model.graph.component_checksums() == before


def test_pretraining_deterministic_across_runs():
    specs = _tiny_specs()

    def run():
        cfg = TrainConfig(num_cycles=1, batch_size=8, seed=77)
        model = build_model(SMALL_ARCH, [s.model_spec() for s in specs])
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
    model = build_model(SMALL_ARCH, [spec.model_spec()])
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
    model = build_model(SMALL_ARCH, [s.model_spec() for s in specs])
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
    from cyclictrain import engine

    calls = []

    def recording_map_at_iou(detections, *args, **kwargs):
        calls.append(len(detections))
        return original(detections, *args, **kwargs)

    original = engine.map_at_iou
    monkeypatch.setattr(engine, "map_at_iou", recording_map_at_iou)
    spec = _tiny_specs()[1]
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    samples = prepare_bundles([spec], TrainConfig())[spec.dataset_id].test
    value, name = engine.evaluate_task(model, spec, samples, "loc")
    assert name == "mAP40" and value is not None
    assert calls == [len(samples) * SMALL_ARCH.num_queries]


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


def _backbone_passes_per_evaluation(monkeypatch) -> list:
    """Backbone passes made inside each ``evaluate_task`` call, in call order."""
    from cyclictrain import engine

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
    cfg = TrainConfig(num_cycles=1, eval_after_release=False, eval_every_epoch=True)
    result = run_pretraining(build_model(SMALL_ARCH, [spec.model_spec()]), [spec], cfg)
    # every epoch scores cls, loc and seg; the first task fills the memo
    assert result.epochs_run == 5
    assert per_call == [1, 0, 0] * 5
    per_call.clear()
    finetune(result.model, spec, cfg, mode="head_only", epochs=2)
    assert per_call == [1, 0, 0] * 2


# ---------------------------------------------------------------------------
# teacher export


def test_export_teacher_at_init_equals_student():
    model = build_model(SMALL_ARCH, [_tiny_specs()[2].model_spec()])
    teacher = TeacherState.init_from(model, 0.8)
    exported = export_teacher(model, teacher)
    arrays = model.graph.arrays()
    assert set(exported) == set(arrays)
    assert all(np.array_equal(exported[k], arrays[k]) for k in arrays)


def test_export_teacher_after_one_epoch_matches_manual_ema():
    spec = _tiny_specs()[2]
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
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


def test_finetune_rejects_unknown_mode():
    specs = [_tiny_specs()[0]]
    model, _, cfg = _build(specs)
    spec = SynthDatasetSpec("nope", num_images=12, tasks=("cls",), image_size=16)
    with pytest.raises(ValueError, match="mode"):
        finetune(model, spec, cfg, mode="partial")
