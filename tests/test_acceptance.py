"""Acceptance criteria, one test per criterion.

Each test prints a single ``[ACCEPTANCE] criterion NN <name>: PASS/FAIL``
line (run with ``-s`` to see them live) and then asserts.  Learning-based
criteria pin their seeds and budgets; everything else is exact or
tolerance-bounded as stated in the test body.
"""

import time

import numpy as np

from cyclictrain import cli
from cyclictrain.autodiff import (
    Tensor,
    add,
    conv2d,
    grad_check,
    leaky_relu,
    matmul,
    maxpool2d,
    mean,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
    upsample_nearest,
)
from cyclictrain.engine import (
    TeacherState,
    TrainConfig,
    build_cycle_plan,
    ema_update,
    evaluate_dataset,
    export_teacher,
    finetune,
    make_optimizer,
    prepare_bundles,
    run_epoch,
    run_pretraining,
)
from cyclictrain.engine import _batch_losses
from cyclictrain.checkpoint import load_checkpoint, save_checkpoint
from cyclictrain.losses import BoxTarget, cls_loss, hungarian_match, loc_loss, seg_loss
from cyclictrain.metrics import GroundTruth, auc, dice, map_at_iou
from cyclictrain.model import ArchConfig, DatasetModelSpec, build_model
from cyclictrain.synthdata import SynthDatasetSpec, preset_cls_loc, preset_cls_loc_seg, preset_cls_only, preset_loc_only, preset_organ_pairs

from conftest import Det, columns
from test_losses import brute_force_assignment
from test_metrics import auc_pairwise_oracle, map_exhaustive_oracle


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {num:02d} {name}: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


SMALL_ARCH = ArchConfig(image_size=16, stage_channels=(6, 10, 16), loc_channels=12,
                        query_dim=8, loc_grid=4, seg_channels=(6, 4))


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def _all_primitives_builder(seed):
    """A small model whose loss path exercises all eleven model primitives."""
    rs = np.random.RandomState(seed)
    params = {
        "conv/w": Tensor(rs.randn(3, 2, 3, 3) * 0.4, requires_grad=True),
        "conv/b": Tensor(rs.randn(3) * 0.1, requires_grad=True),
        "fc/w": Tensor(rs.randn(3, 4) * 0.4, requires_grad=True),
        "fc/b": Tensor(rs.randn(4) * 0.1, requires_grad=True),
        "gate": Tensor(rs.randn(3, 4) * 0.4, requires_grad=True),
    }
    x = rs.rand(2, 2, 6, 6)
    target = rs.rand(2, 4)

    def loss_fn():
        h = relu(add(conv2d(Tensor(x), params["conv/w"], padding=1),
                     reshape(params["conv/b"], (1, 3, 1, 1))))
        h = maxpool2d(h, 3)            # (2,3,2,2)
        h = upsample_nearest(h, 2)     # (2,3,4,4)
        pooled = mean(h, axis=(2, 3))  # (2,3)
        logits = leaky_relu(add(matmul(pooled, params["fc/w"]), params["fc/b"]))
        probs = softmax(logits, axis=-1)
        gated = mul(probs, sigmoid(matmul(pooled, params["gate"])))
        diff = add(gated, Tensor(-target))
        return mean(mul(diff, diff))

    return params, loss_fn


def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        report = grad_check(lambda s=seed: _all_primitives_builder(s),
                            tolerance=1e-4, step=1e-5)
        worst = max(worst, report.max_error)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(1, "gradient fidelity", ok,
            f"max rel error {worst:.2e} over 20 models, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. lock invariance over the 12-entry schedule


def test_criterion_02_lock_invariance():
    from dataclasses import replace

    spec = replace(preset_organ_pairs(num_images=48), image_size=16)
    cfg = TrainConfig(num_cycles=2, batch_size=8, seed=11)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    bundles = prepare_bundles([spec], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    optimizer = make_optimizer(cfg)

    ds = spec.dataset_id
    expected_pattern = []
    for task, shared in (("loc", "loc_encoder"), ("seg", "seg_decoder")):
        head = f"loc_decoder/{ds}" if task == "loc" else f"seg_head/{ds}"
        for subtask in spec.subtasks:
            expected_pattern.append(("lock", "half", frozenset({head})))
            expected_pattern.append(
                ("release", "full", frozenset({"backbone", shared, head}))
            )

    failures = []
    epochs = 0
    for cycle in range(2):
        plan = build_cycle_plan([spec], cfg)
        if len(plan.entries) != 12:
            failures.append(f"cycle {cycle}: {len(plan.entries)} entries != 12")
        got_pattern = [(e.mode, e.data_fraction, e.trainable_components)
                       for e in plan.entries]
        if got_pattern != expected_pattern:
            failures.append(f"cycle {cycle}: F/T pattern mismatch")
        for i, entry in enumerate(plan.entries, start=1):
            before = model.graph.component_checksums()
            run_epoch(model, teacher, entry, bundles[ds], optimizer, cfg,
                      cycle=cycle, epoch_in_cycle=i, global_epoch=epochs)
            epochs += 1
            ema_update(teacher, model)
            after = model.graph.component_checksums()
            for comp in before:
                if comp in entry.trainable_components:
                    if after[comp] == before[comp]:
                        failures.append(
                            f"cycle {cycle} epoch {i}: trainable {comp} unchanged")
                elif after[comp] != before[comp]:
                    failures.append(
                        f"cycle {cycle} epoch {i}: frozen {comp} modified")
    ok = not failures and epochs == 24
    _report(2, "lock invariance", ok,
            failures[0] if failures else f"{epochs} epochs, 12-entry pattern x2")


# ---------------------------------------------------------------------------
# 3. EMA correctness


def test_criterion_03_ema_correctness():
    spec = SynthDatasetSpec("e", num_images=18, tasks=("cls", "loc", "seg"),
                            image_size=16, min_instances=1, max_instances=1, seed=5)
    cfg = TrainConfig(num_cycles=1, batch_size=8, seed=3)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    bundles = prepare_bundles([spec], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    optimizer = make_optimizer(cfg)
    assert teacher.momentum == 0.80  # default from the training recipe

    worst = 0.0
    plan = build_cycle_plan([spec], cfg)
    for i, entry in enumerate(plan.entries, start=1):
        prev = {k: v.copy() for k, v in teacher.params.items()}
        run_epoch(model, teacher, entry, bundles[spec.dataset_id], optimizer, cfg,
                  epoch_in_cycle=i)
        ema_update(teacher, model)
        for name in teacher.params:
            expected = 0.80 * prev[name] + 0.20 * model.graph[name].tensor.data
            worst = max(worst, float(np.max(np.abs(teacher.params[name] - expected))))

    # edge momenta are exact
    edge_ok = True
    for lam in (0.0, 1.0):
        t2 = TeacherState.init_from(model, lam)
        frozen = {k: v.copy() for k, v in t2.params.items()}
        model.graph["backbone/conv1/w"].tensor.data += 1.0
        ema_update(t2, model)
        for name in t2.params:
            target = frozen[name] if lam == 1.0 else model.graph[name].tensor.data
            if not np.array_equal(t2.params[name], target):
                edge_ok = False
    ok = worst < 1e-12 and edge_ok
    _report(3, "EMA correctness", ok, f"max deviation {worst:.2e}, edges exact: {edge_ok}")


# ---------------------------------------------------------------------------
# 4. consistency losses are exactly zero on the first batch


def test_criterion_04_consistency_at_init():
    spec = SynthDatasetSpec("c", num_images=16, tasks=("cls", "loc", "seg"),
                            image_size=16, min_instances=1, max_instances=1, seed=8)
    cfg = TrainConfig(num_cycles=1, batch_size=8, seed=4)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    bundles = prepare_bundles([spec], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    values = []
    for task in ("cls", "loc", "seg"):
        batch = bundles[spec.dataset_id].train[: cfg.batch_size]
        _, _, terms = _batch_losses(model, teacher, task, spec.dataset_id, batch)
        values.extend(v for _, v in terms)
    counts_ok = len(values) == 1 + 2 + 2  # one term for cls, two for loc/seg
    ok = counts_ok and all(v == 0.0 for v in values)
    _report(4, "consistency at init", ok, f"terms {values}")


# ---------------------------------------------------------------------------
# 5. metric oracles


def test_criterion_05_metric_oracles():
    t0 = time.time()
    failures = []

    rs = np.random.RandomState(505)
    for n in (6, 20, 50, 120, 200):
        scores = np.round(rs.rand(n), 1)  # coarse grid: plenty of ties
        labels = (rs.rand(n) > 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        got = auc(scores, labels)
        want = auc_pairwise_oracle(scores, labels)
        if abs(got - want) > 1e-12:
            failures.append(f"auc n={n}: {got} vs {want}")

    for _ in range(50):
        a = rs.rand(6, 6) > 0.5
        b = rs.rand(6, 6) > 0.5
        inter = int(np.logical_and(a, b).sum())
        total = int(a.sum()) + int(b.sum())
        want = 1.0 if total == 0 else 2.0 * inter / total
        if dice(a, b) != want:
            failures.append("dice mismatch")

    scenarios = 0
    for scenario in range(60):
        gts, dets = [], []
        for img in range(int(rs.randint(1, 11))):
            for _ in range(int(rs.randint(0, 3))):
                gts.append(GroundTruth(img, (rs.uniform(0.3, 0.7), rs.uniform(0.3, 0.7),
                                             rs.uniform(0.1, 0.3), rs.uniform(0.1, 0.3)),
                                       int(rs.randint(0, 2))))
            for _ in range(int(rs.randint(0, 4))):
                dets.append(Det(img, (rs.uniform(0.3, 0.7), rs.uniform(0.3, 0.7),
                                      rs.uniform(0.1, 0.3), rs.uniform(0.1, 0.3)),
                                int(rs.randint(0, 2)), float(rs.rand())))
        got = map_at_iou(columns(dets), gts, 0.40)
        want = map_exhaustive_oracle(dets, gts, 0.40)
        if want is None:
            if got is not None:
                failures.append(f"mAP scenario {scenario}: expected undefined")
            continue
        scenarios += 1
        if abs(got - want) > 1e-12:
            failures.append(f"mAP scenario {scenario}: {got} vs {want}")
    if scenarios < 50:
        failures.append(f"only {scenarios} evaluable mAP scenarios")

    matrices = 0
    for q in range(1, 8):
        for t in range(1, q + 1):
            for _ in range(4):
                cost = rs.rand(q, t)
                assignment = hungarian_match(cost)
                got = sum(cost[assignment[j], j] for j in range(t))
                _, want = brute_force_assignment(cost)
                matrices += 1
                if abs(got - want) > 1e-12:
                    failures.append(f"assignment {q}x{t}")
    elapsed = time.time() - t0
    ok = not failures and matrices >= 100 and elapsed < 120.0
    _report(5, "metric oracles", ok,
            failures[0] if failures else
            f"auc/dice/mAP/assignment all match, {matrices} matrices, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. routing isolation


def test_criterion_06_routing_isolation():
    specs = [
        DatasetModelSpec("d0", cls_classes=2, loc_classes=2, seg_classes=2),
        DatasetModelSpec("d1", cls_classes=2, loc_classes=2, seg_classes=2),
    ]
    model = build_model(SMALL_ARCH, specs)
    rs = np.random.RandomState(0)
    x = rs.rand(2, 1, 16, 16)
    tgt = BoxTarget(np.array([[0.5, 0.5, 0.25, 0.25]]), np.array([0]))
    mask = np.zeros((2, 2, 16, 16))
    mask[:, :, 4:9, 4:9] = 1.0

    involved = {
        "cls": {"backbone", "cls_head/d0"},
        "loc": {"backbone", "loc_encoder", "loc_decoder/d0"},
        "seg": {"backbone", "seg_decoder", "seg_head/d0"},
    }
    losses = {
        "cls": lambda: cls_loss(model.forward_cls(x, "d0"), np.ones((2, 2))),
        "loc": lambda: loc_loss(*model.forward_loc(x, "d0"), [tgt, tgt]),
        "seg": lambda: seg_loss(model.forward_seg(x, "d0"), mask),
    }
    failures = []
    for task in ("cls", "loc", "seg"):
        grads = model.graph.backward(losses[task]())
        for comp, g in grads.items():
            magnitude = float(np.abs(g).sum())
            if comp in involved[task]:
                continue
            if magnitude != 0.0:
                failures.append(f"{task}: {comp} got gradient {magnitude}")
    ok = not failures
    _report(6, "routing isolation", ok, failures[0] if failures else
            "exact zeros outside each task's route")


# ---------------------------------------------------------------------------
# 7. determinism of full runs


def _mini_config(tmp_path, name, out_name):
    import json

    cfg = {
        "out_dir": str(tmp_path / out_name),
        "arch": {
            "image_size": 16,
            "stage_channels": [6, 10, 16],
            "loc_channels": 12,
            "query_dim": 8,
            "loc_grid": 4,
            "seg_channels": [6, 4],
        },
        "train": {"num_cycles": 1, "batch_size": 8, "seed": 9},
        "datasets": [
            {"dataset_id": "m0", "num_images": 18, "tasks": ["cls"],
             "image_size": 16, "seed": 31},
            {"dataset_id": "m1", "num_images": 18, "tasks": ["cls", "loc", "seg"],
             "image_size": 16, "min_instances": 1, "max_instances": 1, "seed": 32},
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_criterion_07_determinism(tmp_path):
    rc1 = cli.main(["pretrain", "--config", _mini_config(tmp_path, "c1.json", "o1")])
    rc2 = cli.main(["pretrain", "--config", _mini_config(tmp_path, "c2.json", "o2")])
    csv1 = (tmp_path / "o1" / "metrics.csv").read_bytes()
    csv2 = (tmp_path / "o2" / "metrics.csv").read_bytes()
    same_blobs = True
    for blob in ("manifest.json", "student.bin", "teacher.bin"):
        a = (tmp_path / "o1" / "checkpoints" / "final" / blob).read_bytes()
        b = (tmp_path / "o2" / "checkpoints" / "final" / blob).read_bytes()
        same_blobs = same_blobs and a == b
    ok = rc1 == 0 and rc2 == 0 and csv1 == csv2 and len(csv1) > 40 and same_blobs
    _report(7, "determinism", ok,
            f"CSV bytes equal: {csv1 == csv2}, checkpoints equal: {same_blobs}")


# ---------------------------------------------------------------------------
# 8. checkpoint round trip


def test_criterion_08_checkpoint_round_trip(tmp_path):
    spec = SynthDatasetSpec("r", num_images=16, tasks=("cls", "loc", "seg"),
                            image_size=16, min_instances=1, max_instances=1, seed=6)
    cfg = TrainConfig(num_cycles=1, batch_size=8, seed=7)
    model = build_model(SMALL_ARCH, [spec.model_spec()])
    result = run_pretraining(model, [spec], cfg)
    save_checkpoint(str(tmp_path / "cp1"), result.model, teacher=result.teacher,
                    counters={"cycle": 1, "epoch": result.epochs_run}, config_hash="h")
    cp = load_checkpoint(str(tmp_path / "cp1"))
    model2 = build_model(SMALL_ARCH, [spec.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    teacher2 = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    save_checkpoint(str(tmp_path / "cp2"), model2, teacher=teacher2,
                    counters=cp.counters, config_hash=cp.config_hash)

    x = np.random.RandomState(1).rand(3, 1, 16, 16)
    forwards_equal = (
        np.array_equal(model.forward_cls(x, "r").data, model2.forward_cls(x, "r").data)
        and np.array_equal(model.forward_seg(x, "r").data, model2.forward_seg(x, "r").data)
        and all(
            np.array_equal(a.data, b.data)
            for a, b in zip(model.forward_loc(x, "r"), model2.forward_loc(x, "r"))
        )
    )
    bytes_equal = all(
        (tmp_path / "cp1" / f).read_bytes() == (tmp_path / "cp2" / f).read_bytes()
        for f in ("manifest.json", "student.bin", "teacher.bin")
    )
    ok = forwards_equal and bytes_equal
    _report(8, "checkpoint round trip", ok,
            f"forward bit-equal: {forwards_equal}, save bytes equal: {bytes_equal}")


# ---------------------------------------------------------------------------
# 9. desk-scale learning smoke test


# Criteria 09 and 10 are defined once, here: tools/gate_margin.py reruns them
# to measure how far their gates clear.


def criterion_09_setup():
    """Criterion 09's datasets, training config and untrained model."""
    specs = [preset_cls_only(), preset_cls_loc(), preset_cls_loc_seg()]
    # paper-table defaults scaled to desk size: backbone an order of
    # magnitude colder than the branches, AdamW, batch 8
    cfg = TrainConfig(
        lr_backbone=3e-4, lr_loc=6e-3, lr_seg=1e-2, lr_cls_head=1e-2,
        num_cycles=5, batch_size=8, epochs_per_task=5, seed=0,
    )
    return specs, cfg, build_model(ArchConfig(), [s.model_spec() for s in specs])


def test_criterion_09_learning_smoke():
    t0 = time.time()
    specs, cfg, model = criterion_09_setup()
    result = run_pretraining(model, specs, cfg)
    bundles = prepare_bundles(specs, cfg)
    exported = export_teacher(result.model, result.teacher)
    values = {
        task: value
        for task, _, value in evaluate_dataset(
            result.model, bundles["labels_boxes_masks"], weights=exported
        )
    }
    elapsed = time.time() - t0
    ok = (values["cls"] >= 0.90 and values["seg"] >= 0.80 and values["loc"] >= 0.50
          and elapsed < 600.0)
    _report(9, "learning smoke test", ok,
            f"AUC {values['cls']:.3f} (>=0.90), Dice {values['seg']:.3f} (>=0.80), "
            f"mAP40 {values['loc']:.3f} (>=0.50), {elapsed:.0f}s (<600s)")


# ---------------------------------------------------------------------------
# 10. ablation direction: lock-release + student-teacher helps


def criterion_10_loc_map(seed, enabled):
    """One criterion 10 run: test-split loc mAP40, lock-release and teacher on or off."""
    spec = preset_loc_only(num_images=160)
    cfg = TrainConfig(
        lr_backbone=3e-4, lr_loc=6e-3,
        lock_release={"cls": False, "loc": enabled, "seg": False},
        student_teacher=enabled,
        num_cycles=3, batch_size=8, epochs_per_task=2, seed=seed,
    )
    model = build_model(ArchConfig(init_seed=seed), [spec.model_spec()])
    result = run_pretraining(model, [spec], cfg)
    bundle = prepare_bundles([spec], cfg)[spec.dataset_id]
    values = dict(
        (task, value) for task, _, value in evaluate_dataset(result.model, bundle)
    )
    return values["loc"]


def test_criterion_10_ablation_direction():
    with_both = [criterion_10_loc_map(seed, True) for seed in range(5)]
    without = [criterion_10_loc_map(seed, False) for seed in range(5)]
    ok = float(np.mean(with_both)) >= float(np.mean(without))
    _report(10, "ablation direction", ok,
            f"mean mAP40 with lock-release+teacher {np.mean(with_both):.3f} "
            f"vs disabled {np.mean(without):.3f} over 5 seeds")


# ---------------------------------------------------------------------------
# 11. head-only finetune on a fresh dataset


def test_criterion_11_head_only_finetune():
    specs = [preset_cls_only(num_images=40), preset_cls_loc(num_images=40),
             preset_cls_loc_seg(num_images=40)]
    cfg = TrainConfig(
        lr_backbone=3e-4, lr_loc=6e-3, lr_seg=1e-2, lr_cls_head=1e-2,
        num_cycles=1, batch_size=8, seed=1,
    )
    model = build_model(ArchConfig(), [s.model_spec() for s in specs])
    run_pretraining(model, specs, cfg)

    new_spec = SynthDatasetSpec("fresh_boxes", num_images=32, tasks=("loc",),
                                min_instances=1, max_instances=1, seed=44)
    before = model.graph.component_checksums()
    model.add_dataset(new_spec.model_spec(), seed=44)
    fresh_at_init = model.graph.component_checksums()["loc_decoder/fresh_boxes"]
    result = finetune(model, new_spec, cfg, mode="head_only", epochs=3)
    after = model.graph.component_checksums()
    untouched = all(after[comp] == before[comp] for comp in before)
    new_trained = after["loc_decoder/fresh_boxes"] != fresh_at_init
    ok = untouched and result.trainable_fraction < 0.2 and new_trained
    _report(11, "head-only finetune", ok,
            f"pre-existing components untouched: {untouched}, fresh decoder trained: "
            f"{new_trained}, trainable fraction {result.trainable_fraction:.3f} (<0.2)")
