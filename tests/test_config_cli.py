import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cyclictrain import cli, synthdata
from cyclictrain.config import (
    ConfigError,
    RunConfig,
    config_hash,
    load_run_config,
    run_config_from_dict,
)
from cyclictrain.checkpoint import load_checkpoint, save_checkpoint
from cyclictrain.engine import (TeacherState, TrainConfig, TrainingState, build_cycle_plan,
                                predict, prepare_bundles, pretrain_epochs)
from cyclictrain.metrics import auc, dice, map_at_iou, GroundTruth
from cyclictrain.model import ArchConfig, MultiTaskModel, build_model
from cyclictrain.synthdata import SplitError, SynthDatasetSpec

from conftest import Det, columns, read_export, run_bytes

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _base_config(out_dir, **train):
    train_section = {"num_cycles": 1, "batch_size": 8, "seed": 5}
    train_section.update(train)
    return {
        "out_dir": out_dir,
        "arch": {
            "image_size": 16,
            "stage_channels": [6, 10, 16],
            "loc_channels": 12,
            "query_dim": 8,
            "loc_grid": 4,
            "seg_channels": [6, 4],
        },
        "train": train_section,
        "datasets": [
            {
                "dataset_id": "boxesmasks",
                "num_images": 20,
                "tasks": ["cls", "loc", "seg"],
                "image_size": 16,
                "min_instances": 1,
                "max_instances": 1,
                "seed": 11,
            },
            {
                "dataset_id": "labels",
                "num_images": 20,
                "tasks": ["cls"],
                "image_size": 16,
                "seed": 12,
            },
        ],
    }


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_config_parses_and_normalizes(tmp_path):
    cfg = load_run_config(_write(tmp_path, _base_config(str(tmp_path / "out"))))
    assert cfg.train.num_cycles == 1
    assert cfg.train.lr_backbone == 1e-5  # default materialized
    assert cfg.arch.stage_channels == (6, 10, 16)
    assert len(cfg.datasets) == 2


def test_unknown_keys_fatal_with_path(tmp_path):
    bad = _base_config(str(tmp_path))
    bad["train"]["lr_bogus"] = 1.0
    with pytest.raises(ConfigError, match="train.lr_bogus"):
        load_run_config(_write(tmp_path, bad))
    bad = _base_config(str(tmp_path))
    bad["datasets"][0]["surprise"] = 1
    with pytest.raises(ConfigError, match=r"datasets\[0\].surprise"):
        load_run_config(_write(tmp_path, bad))


def test_json_errors_report_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "out_dir": "x",\n  badly\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_run_config(str(path))


def test_type_errors_report_field(tmp_path):
    bad = _base_config(str(tmp_path))
    bad["train"]["batch_size"] = "many"
    with pytest.raises(ConfigError, match="train.batch_size"):
        load_run_config(_write(tmp_path, bad))


def test_duplicate_dataset_ids_rejected():
    cfg = _base_config("out")
    cfg["datasets"][1]["dataset_id"] = "boxesmasks"
    with pytest.raises(ConfigError, match="duplicate"):
        run_config_from_dict(cfg)


def test_repeated_shape_class_is_a_config_error():
    cfg = _base_config("out")
    cfg["datasets"][1]["shape_classes"] = ["ring", "ellipse", "ring"]
    with pytest.raises(ConfigError, match=r"datasets\[1\]: shape_classes repeats \['ring'\]"):
        run_config_from_dict(cfg)


def test_partial_lock_release_keeps_the_defaults_from_json_and_python():
    cfg = _base_config("out", lock_release={"cls": True})
    organ_pairs = dataclasses.replace(synthdata.preset_organ_pairs(), image_size=16)
    cfg["datasets"] = [json.loads(json.dumps(dataclasses.asdict(organ_pairs)))]
    from_json = run_config_from_dict(cfg)
    from_python = TrainConfig(**{**cfg["train"], "lock_release": {"cls": True}})
    assert from_python == from_json.train
    assert from_python.lock_release == {"cls": True, "loc": True, "seg": True}
    plans = [build_cycle_plan(from_json.datasets, train).entries
             for train in (from_json.train, from_python)]
    assert plans[0] == plans[1]
    assert (len(plans[1]), sum(e.mode == "lock" for e in plans[1])) == (12, 6)


@pytest.mark.parametrize("flags, message", [
    ({"cls": 1}, r"train\.lock_release\.cls: expected bool, got int"),
    ({"box": True}, r"train: lock_release has unknown tasks \['box'\]"),
    (["cls"], r"train\.lock_release: expected dict, got list"),
], ids=["flag-an-int", "unknown-task", "a-list"])
def test_bad_lock_release_is_a_config_error(flags, message):
    with pytest.raises(ConfigError, match=message):
        run_config_from_dict(_base_config("out", lock_release=flags))


BAD_TRAINING_NUMBERS = [
    ("lr_backbone", float("nan"), "lr_backbone must be finite and non-negative"),
    ("lr_seg", float("inf"), "lr_seg must be finite and non-negative"),
    ("lr_cls_head", -1e-4, "lr_cls_head must be finite and non-negative"),
    ("weight_decay", -0.1, "weight_decay must be finite and non-negative"),
    ("weight_decay", float("inf"), "weight_decay must be finite and non-negative"),
    ("momentum", float("nan"), r"momentum must lie in \[0, 1\]"),
    ("step_decay_factor", -0.5, r"step_decay_factor must lie in \(0, 1\]"),
    ("step_decay_factor", 0.0, r"step_decay_factor must lie in \(0, 1\]"),
    ("step_decay_factor", 1.5, r"step_decay_factor must lie in \(0, 1\]"),
    ("step_decay_factor", float("nan"), r"step_decay_factor must lie in \(0, 1\]"),
]


@pytest.mark.parametrize("name, value, message", BAD_TRAINING_NUMBERS,
                         ids=[f"{n}={v}" for n, v, _ in BAD_TRAINING_NUMBERS])
def test_train_config_rejects_non_finite_and_out_of_range_numbers(name, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_numbers_are_a_config_error(tmp_path, capsys, literal):
    # json.loads reads these literals as floats, so only the range checks stop them
    text = json.dumps(_base_config(str(tmp_path / "out"), lr_loc=123.25))
    assert text.count("123.25") == 1
    text = text.replace("123.25", literal)
    with pytest.raises(ConfigError, match="train: lr_loc must be finite and non-negative"):
        run_config_from_dict(json.loads(text))
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    assert "train: lr_loc must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _setting(*keys, value):
    def edit(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _finetune_image_size(cfg):
    cfg["finetune"] = {"dataset": {**cfg["datasets"][1], "dataset_id": "new", "image_size": 32}}


def _finetune_of_two_images(cfg):
    cfg["finetune"] = {"dataset": {**cfg["datasets"][1], "dataset_id": "new", "num_images": 2}}


def _finetune_reusing_an_id_with_other_heads(cfg):
    # the pretraining "labels" dataset is cls-only with the default 3 classes
    cfg["finetune"] = {"dataset": {**cfg["datasets"][1], "tasks": ["cls", "loc"],
                                   "shape_classes": ["ellipse", "ring"]}}


def _finetune_reusing_an_id_with_another_seed(cfg):
    # the same heads, but other images: gen-data and eval could not tell the two apart
    cfg["finetune"] = {"dataset": {**cfg["datasets"][1], "seed": 99}}


# rejected as the config loads, so no data is generated and nothing is written
@pytest.mark.parametrize("edit, message", [
    (_setting("datasets", 1, "image_size", value=32),
     "datasets[1].image_size: 32 differs from arch.image_size 16"),
    (_finetune_image_size, "finetune.dataset.image_size: 32 differs from arch.image_size 16"),
    (_setting("arch", "in_channels", value=2), "arch.in_channels: unknown key"),
    (_setting("arch", "query_dim", value=0), "arch: query_dim must be >= 1, got 0"),
    (_setting("arch", "loc_channels", value=-1), "arch: loc_channels must be >= 1, got -1"),
    (_setting("arch", "seg_channels", value=[6, 0]), "arch: seg_channels must be >= 1, got (6, 0)"),
    (_finetune_reusing_an_id_with_other_heads,
     "finetune.dataset: reuses the id 'labels' of datasets[1] with another spec; "
     "one id names one dataset"),
    (_finetune_reusing_an_id_with_another_seed,
     "finetune.dataset: reuses the id 'labels' of datasets[1] with another spec; "
     "one id names one dataset"),
    (_setting("train", "step_decay_interval", value=-5),
     "train: step_decay_interval must be >= 0"),
    (_setting("datasets", 1, "num_images", value=1),
     "datasets[1].num_images: 1 images are too few to split into train, val and test "
     "(need >= 3)"),
    (_finetune_of_two_images,
     "finetune.dataset.num_images: 2 images are too few to split into train, val and test "
     "(need >= 3)"),
], ids=["dataset-image-size", "finetune-image-size", "in-channels", "query-dim-zero",
        "loc-channels-negative", "seg-channels-zero", "finetune-reuses-an-id-with-other-heads",
        "finetune-reuses-an-id-with-another-seed", "step-decay-interval-negative",
        "dataset-of-one-image", "finetune-dataset-of-two-images"])
def test_a_config_the_model_cannot_run_exits_2_naming_its_field(tmp_path, capsys, edit, message):
    cfg = _base_config(str(tmp_path / "out"))
    edit(cfg)
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# settings that are now constants, each set to its last default: the key alone is fatal
REMOVED_KEYS = [
    ("arch", "in_channels", 1),
    ("train", "consistency_weight", 1.0),
    ("train", "mirror_heads", False),
    ("train", "eval_after_release", True),
    ("datasets", 0, "noise_level", 0.05),
]


@pytest.mark.parametrize("keys", REMOVED_KEYS, ids=[k[-2] for k in REMOVED_KEYS])
def test_a_removed_key_exits_2_as_unknown(tmp_path, capsys, keys):
    *keys, value = keys
    cfg = _base_config(str(tmp_path / "out"))
    _setting(*keys, value=value)(cfg)
    path = keys[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys[1:])
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg)]) == 2
    assert f"config error: {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_config_accepts_the_edges_of_each_range():
    cfg = TrainConfig(lr_backbone=0.0, weight_decay=0.0, momentum=1.0, step_decay_factor=1.0)
    assert cfg.lr_backbone == 0.0 and cfg.step_decay_factor == 1.0
    assert TrainConfig(step_decay_factor=1e-9, step_decay_interval=1).lr_scale_at(1) == 1e-9


def test_config_hash_stable_and_out_dir_independent():
    a = run_config_from_dict(_base_config("out1"))
    b = run_config_from_dict(_base_config("out2"))
    assert config_hash(a) == config_hash(b)
    c = run_config_from_dict(_base_config("out1", seed=6))
    assert config_hash(a) != config_hash(c)


@pytest.mark.parametrize("name, expected", [
    ("run_config.json", "4d7f52b455e320f231d8b4f6487a31c7844ecbe68b9c4a390f578e1930c33068"),
    ("finetune_config.json", "22cbb9c4117cf3425630009abdcf6c97d7abe937c2dcb2eb0d0318b1ffcb4b06"),
], ids=["run_config", "finetune_config"])
def test_config_hash_pinned(name, expected):
    # checkpoints written by earlier versions must keep matching their config
    assert config_hash(load_run_config(str(DEMOS / name))) == expected


def _changed(value):
    """A different value of the same type that the dataclasses still accept."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return 2 * value or 1
    if isinstance(value, float):
        return value / 2 or 0.5
    if isinstance(value, str):
        return value + "2"
    if isinstance(value, dict):
        return {k: _changed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        if value and isinstance(value[0], int):
            return tuple(_changed(v) for v in value)
        return value[:-1]
    raise TypeError(f"no rule to change a {type(value).__name__}")


_HASH_BASE = RunConfig(
    out_dir="out",
    datasets=(SynthDatasetSpec("d", num_images=8, tasks=("cls", "loc"), max_instances=1,
                               subtasks=("ellipse",)),),
)


@pytest.mark.parametrize("section, field", [
    (section, f.name)
    for section, cls in (("train", TrainConfig), ("arch", ArchConfig),
                         ("datasets", SynthDatasetSpec))
    for f in dataclasses.fields(cls)
], ids=lambda v: v if isinstance(v, str) else None)
def test_every_field_enters_the_config_hash(section, field):
    if section == "datasets":
        spec = _HASH_BASE.datasets[0]
        new = (dataclasses.replace(spec, **{field: _changed(getattr(spec, field))}),)
    else:
        part = getattr(_HASH_BASE, section)
        new = dataclasses.replace(part, **{field: _changed(getattr(part, field))})
    changed = dataclasses.replace(_HASH_BASE, **{section: new})
    assert config_hash(changed) != config_hash(_HASH_BASE)


# ---------------------------------------------------------------------------
# pretrain command


def test_cmd_pretrain_writes_logs_and_checkpoints(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(str(out)))
    assert cli.main(["pretrain", "--config", path]) == 0
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == "cycle,epoch,dataset,task,mode,metric,value"
    assert len(csv) > 1
    for row in csv[1:]:
        cells = row.split(",")
        assert cells[4] == "release"  # eval rows only after release epochs
    assert not (out / "metrics.jsonl").exists()  # metrics.csv is the one metric log
    assert (out / "checkpoints" / "cycle_001" / "manifest.json").exists()
    assert (out / "checkpoints" / "final" / "manifest.json").exists()
    assert (out / "teacher_export" / "manifest.json").exists()


def test_cmd_pretrain_cycle_checkpoint_holds_the_run_at_its_cycle_end(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(str(out), num_cycles=2))
    assert cli.main(["pretrain", "--config", path]) == 0
    cp = load_checkpoint(str(out / "checkpoints" / "cycle_001"))
    assert cp.counters == {"cycle": 1, "epoch": 0}

    cfg = load_run_config(path)
    model = build_model(cfg.arch, [s.model_spec() for s in cfg.datasets])
    state = TrainingState.fresh(model, cfg.train)
    outcome = next(o for o in pretrain_epochs(state, cfg.datasets, cfg.train) if o.cycle_done)
    plan = build_cycle_plan(cfg.datasets, cfg.train)
    assert (outcome.cycle, state.epochs_run) == (0, len(plan.entries))
    assert run_bytes(cp.arrays, cp.teacher_arrays, cp.optimizer) == \
        run_bytes(state.model.graph.arrays(), state.teacher.params, state.optimizer)


def test_cmd_pretrain_organ_schedule_logs_release_rows_only(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "out_dir": str(out),
        "arch": {
            "image_size": 16,
            "stage_channels": [6, 10, 16],
            "loc_channels": 12,
            "query_dim": 8,
            "loc_grid": 4,
            "seg_channels": [6, 4],
        },
        "train": {"num_cycles": 1, "batch_size": 8, "seed": 3},
        "datasets": [
            {
                "dataset_id": "organs",
                "num_images": 48,
                "tasks": ["loc", "seg"],
                "image_size": 16,
                "min_instances": 1,
                "max_instances": 1,
                "subtasks": ["ellipse", "rectangle", "ring"],
                "round_robin_classes": True,
                "seed": 17,
            }
        ],
    }
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg, "organ.json")]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    # 12 scheduled epochs; an evaluation row after each of the 6 release epochs
    assert len(rows) == 6
    epochs = [int(r.split(",")[1]) for r in rows]
    assert epochs == [2, 4, 6, 8, 10, 12]
    assert all(r.split(",")[4] == "release" for r in rows)


def test_cmd_pretrain_zero_cycles_header_only(tmp_path):
    out = tmp_path / "out"
    cfg = _base_config(str(out), num_cycles=0)
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg)]) == 0
    assert (out / "metrics.csv").read_text() == "cycle,epoch,dataset,task,mode,metric,value\n"


def test_cmd_pretrain_byte_identical_across_runs(tmp_path):
    cfg1 = _base_config(str(tmp_path / "o1"))
    cfg2 = _base_config(str(tmp_path / "o2"))
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg1, "c1.json")]) == 0
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg2, "c2.json")]) == 0
    assert (tmp_path / "o1" / "metrics.csv").read_bytes() == (tmp_path / "o2" / "metrics.csv").read_bytes()
    for blob in ("student.bin", "teacher.bin"):
        a = (tmp_path / "o1" / "checkpoints" / "final" / blob).read_bytes()
        b = (tmp_path / "o2" / "checkpoints" / "final" / blob).read_bytes()
        assert a == b


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"out_dir": 3}')
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("CYCLICTRAIN_OUT_DIR", str(override))
    cfg = _base_config(str(tmp_path / "ignored"), num_cycles=0)
    assert cli.main(["pretrain", "--config", _write(tmp_path, cfg)]) == 0
    assert (override / "metrics.csv").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# finetune command


def _pretrained(tmp_path, extra=None):
    out = tmp_path / "out"
    cfg = _base_config(str(out))
    if extra:
        cfg.update(extra)
    path = _write(tmp_path, cfg)
    assert cli.main(["pretrain", "--config", path]) == 0
    return out, cfg


def test_cmd_finetune_head_only_new_dataset(tmp_path):
    out, cfg = _pretrained(tmp_path)
    cfg["finetune"] = {
        "dataset": {
            "dataset_id": "fresh",
            "num_images": 16,
            "tasks": ["loc"],
            "image_size": 16,
            "min_instances": 1,
            "max_instances": 1,
            "seed": 21,
        },
        "mode": "head_only",
        "epochs": 1,
    }
    path = _write(tmp_path, cfg, "ft.json")
    ckpt = str(out / "checkpoints" / "final")
    rc = cli.main(["finetune", "--checkpoint", ckpt, "--config", path,
                   "--mode", "head-only", "--init-new-head"])
    assert rc == 0
    summary = json.loads((out / "finetune" / "summary.json").read_text())
    assert summary["mode"] == "head_only"
    assert summary["trainable_fraction"] < 0.2
    assert summary["trainable_params"] > 0
    assert summary["train_size"] == 11  # floor(0.7 * 16)


def test_cmd_finetune_missing_head_without_flag_fails(tmp_path):
    out, cfg = _pretrained(tmp_path)
    cfg["finetune"] = {
        "dataset": {
            "dataset_id": "fresh",
            "num_images": 16,
            "tasks": ["loc"],
            "image_size": 16,
            "min_instances": 1,
            "max_instances": 1,
            "seed": 21,
        },
        "mode": "head_only",
        "epochs": 1,
    }
    path = _write(tmp_path, cfg, "ft.json")
    ckpt = str(out / "checkpoints" / "final")
    assert cli.main(["finetune", "--checkpoint", ckpt, "--config", path]) == 2


def test_cmd_finetune_few_shot_records_train_size(tmp_path):
    out, cfg = _pretrained(tmp_path)
    cfg["finetune"] = {
        "dataset": {
            "dataset_id": "boxesmasks",
            "num_images": 20,
            "tasks": ["cls", "loc", "seg"],
            "image_size": 16,
            "min_instances": 1,
            "max_instances": 1,
            "seed": 11,
        },
        "mode": "full",
        "epochs": 1,
    }
    path = _write(tmp_path, cfg, "ft.json")
    ckpt = str(out / "checkpoints" / "final")
    assert cli.main(["finetune", "--checkpoint", ckpt, "--config", path,
                     "--few-shot", "3"]) == 0
    summary = json.loads((out / "finetune" / "summary.json").read_text())
    assert summary["train_size"] == 3
    assert summary["mode"] == "full"


def test_cmd_finetune_rejects_few_shot_outside_the_training_split(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    cfg["finetune"] = {
        "dataset": {
            "dataset_id": "boxesmasks",
            "num_images": 20,
            "tasks": ["cls", "loc", "seg"],
            "image_size": 16,
            "min_instances": 1,
            "max_instances": 1,
            "seed": 11,
        },
        "mode": "full",
        "epochs": 1,
    }
    path = _write(tmp_path, cfg, "ft.json")
    ckpt = str(out / "checkpoints" / "final")
    capsys.readouterr()
    for k in (0, -3, 15):  # the training split holds floor(0.7 * 20) = 14
        assert cli.main(["finetune", "--checkpoint", ckpt, "--config", path,
                         "--few-shot", str(k)]) == 2
        err = capsys.readouterr().err
        assert f"requested {k} samples from a training split of 14" in err
    assert not (out / "finetune").exists()


# ---------------------------------------------------------------------------
# eval command


def test_cmd_eval_teacher_equals_student_at_init(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(str(out), num_cycles=0)
    path = _write(tmp_path, cfg)
    assert cli.main(["pretrain", "--config", path]) == 0
    ckpt = str(out / "checkpoints" / "final")

    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks", "--weights", "student",
                     "--out", str(tmp_path / "s.json")]) == 0
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks", "--weights", "teacher",
                     "--out", str(tmp_path / "t.json")]) == 0
    student = json.loads((tmp_path / "s.json").read_text())
    teacher = json.loads((tmp_path / "t.json").read_text())
    # teacher mirrors only shared components, but at init those equal the
    # student, so every metric coincides
    assert student["tasks"] == teacher["tasks"]


def test_cmd_eval_out_creates_its_parent_directory(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(str(out), num_cycles=0))
    assert cli.main(["pretrain", "--config", path]) == 0
    monkeypatch.chdir(tmp_path)
    assert not (tmp_path / "evals").exists()
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoints" / "final"),
                     "--config", path, "--dataset", "boxesmasks",
                     "--out", "evals/x.json", "--dump-predictions", "dumps/x"]) == 0
    assert json.loads((tmp_path / "evals" / "x.json").read_text())["dataset"] == "boxesmasks"
    assert (tmp_path / "dumps" / "x" / "predictions.npz").is_file()


def test_cmd_eval_dump_reuses_the_metrics_backbone_passes(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(str(out), num_cycles=0))
    assert cli.main(["pretrain", "--config", path]) == 0
    calls = []
    original = MultiTaskModel.backbone_features

    def backbone_features(self, images, weights=None):
        calls.append(len(images))
        return original(self, images, weights)

    monkeypatch.setattr(MultiTaskModel, "backbone_features", backbone_features)
    args = ["eval", "--checkpoint", str(out / "checkpoints" / "final"), "--config", path,
            "--dataset", "boxesmasks", "--weights", "teacher"]
    assert cli.main(args) == 0
    metrics_only = list(calls)
    calls.clear()
    assert cli.main(args + ["--dump-predictions", str(tmp_path / "dump")]) == 0
    # the dump runs only the task branches on the features the metrics computed
    assert metrics_only and calls == metrics_only


def test_cmd_eval_deterministic(tmp_path):
    out, cfg = _pretrained(tmp_path)
    path = _write(tmp_path, cfg)
    ckpt = str(out / "checkpoints" / "final")
    for name in ("e1.json", "e2.json"):
        assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                         "--dataset", "boxesmasks", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "e1.json").read_bytes() == (tmp_path / "e2.json").read_bytes()


def test_cmd_eval_matches_direct_metric_invocation(tmp_path):
    out, cfg = _pretrained(tmp_path)
    path = _write(tmp_path, cfg)
    ckpt = str(out / "checkpoints" / "final")
    dump_dir = tmp_path / "dump"
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks", "--dump-predictions", str(dump_dir),
                     "--out", str(tmp_path / "metrics.json")]) == 0
    reported = json.loads((tmp_path / "metrics.json").read_text())["tasks"]
    data = np.load(dump_dir / "predictions.npz")

    assert abs(auc(data["cls_scores"], data["cls_labels"]) - reported["cls"]["value"]) < 1e-12

    dice_values = []
    pred = data["seg_logits"] > 0.0
    for i in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            dice_values.append(dice(pred[i, c], data["seg_masks"][i, c]))
    assert abs(float(np.mean(dice_values)) - reported["seg"]["value"]) < 1e-12

    boxes, logits = data["loc_boxes"], data["loc_logits"]
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    dets, gts = [], []
    at = 0
    for i, sid in enumerate(data["sample_ids"]):
        for q in range(boxes.shape[1]):
            cp = probs[i, q, :-1]
            c = int(np.argmax(cp))
            dets.append(Det(int(sid), tuple(boxes[i, q]), c, float(cp[c])))
        for _ in range(int(data["gt_box_counts"][i])):
            gts.append(GroundTruth(int(sid), tuple(data["gt_boxes"][at]),
                                   int(data["gt_box_classes"][at])))
            at += 1
    assert map_at_iou(columns(dets), gts, 0.40) == reported["loc"]["value"]


def test_dumped_predictions_equal_a_plain_forward(tmp_path):
    cfg = load_run_config(_write(tmp_path, _base_config(str(tmp_path / "out"))))
    # 600 images split 70/10/20 give a 120-image test split: two 64-image chunks
    large = synthdata.preset_cls_loc_seg(num_images=600)
    for arch, specs, test_size in ((cfg.arch, cfg.datasets, None), (ArchConfig(), (large,), 120)):
        spec = specs[0]
        model = build_model(arch, [s.model_spec() for s in specs])
        bundle = prepare_bundles(specs, cfg.train)[spec.dataset_id]
        if test_size is not None:
            assert len(bundle.test) == test_size
        data = {f"{task}_{key}": a for task in spec.tasks
                for key, a in predict(model, spec, bundle.test, task).items()}

        x = np.stack([s.image for s in bundle.test])[:, None, :, :]
        logits = model.forward_cls(x, spec.dataset_id)
        assert logits.requires_grad  # the plain forward records a tape
        assert np.array_equal(data["cls_scores"], 1.0 / (1.0 + np.exp(-logits.data)))
        boxes, loc_logits = model.forward_loc(x, spec.dataset_id)
        assert np.array_equal(data["loc_boxes"], boxes.data)
        assert np.array_equal(data["loc_logits"], loc_logits.data)
        assert np.array_equal(data["seg_logits"], model.forward_seg(x, spec.dataset_id).data)


def test_cmd_pretrain_rejects_a_subtask_too_small_to_split(tmp_path, capsys):
    # 6 images over 3 round-robin subtasks: each subtask's stratum holds 2,
    # too few to give its test split a sample to score
    cfg = _base_config(str(tmp_path / "out"))
    cfg["datasets"] = [{
        "dataset_id": "tiny",
        "num_images": 6,
        "tasks": ["loc", "seg"],
        "image_size": 16,
        "subtasks": ["ellipse", "rectangle", "ring"],
        "round_robin_classes": True,
        "min_instances": 1,
        "max_instances": 1,
        "seed": 11,
    }]
    path = _write(tmp_path, cfg)
    run = load_run_config(path)
    with pytest.raises(SplitError, match="dataset 'tiny': subtask 'ellipse' has 2 sample"):
        prepare_bundles(run.datasets, run.train)
    assert cli.main(["pretrain", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "dataset 'tiny'" in err and "subtask 'ellipse'" in err
    assert not (tmp_path / "out").exists()


def test_cmd_eval_runs_each_branch_and_head_once_for_metrics_and_dump(tmp_path, monkeypatch):
    out, cfg = _pretrained(tmp_path)
    path = _write(tmp_path, cfg)
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    names = ("backbone_features", "loc_encoder_features", "seg_decoder_features",
             "cls_logits", "loc_predictions", "seg_logits")
    for name in names:
        monkeypatch.setattr(MultiTaskModel, name, counting(name, getattr(MultiTaskModel, name)))
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoints" / "final"),
                     "--config", path, "--dataset", "boxesmasks",
                     "--dump-predictions", str(tmp_path / "dump")]) == 0
    assert calls == dict.fromkeys(names, 1)  # the test split is one 64-image chunk


def test_readme_pretrain_then_finetune_prints_no_hash_warning(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CYCLICTRAIN_OUT_DIR", str(tmp_path / "demo"))
    final = str(tmp_path / "demo" / "checkpoints" / "final")
    assert cli.main(["pretrain", "--config", str(DEMOS / "run_config.json")]) == 0
    assert cli.main(["finetune", "--checkpoint", final,
                     "--config", str(DEMOS / "finetune_config.json"), "--mode", "head-only",
                     "--few-shot", "3", "--init-new-head"]) == 0
    assert cli.main(["eval", "--checkpoint", final, "--config", str(DEMOS / "finetune_config.json"),
                     "--dataset", "labels_boxes_masks"]) == 0
    assert "warning" not in capsys.readouterr().err


def test_cmd_eval_warns_on_config_hash_mismatch(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    ckpt = str(out / "checkpoints" / "final")
    cfg["train"]["seed"] = 99  # different experiment, same shapes
    path = _write(tmp_path, cfg, "drifted.json")
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks"]) == 0
    assert "config hash" in capsys.readouterr().err


def test_cmd_eval_rejects_a_non_string_config_hash(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    ckpt = out / "checkpoints" / "final"
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config_hash"] = 5
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", path,
                     "--dataset", "boxesmasks"]) == 2
    assert "config_hash: expected str, got int" in capsys.readouterr().err


def test_cmd_eval_rejects_a_checkpoint_of_another_shape(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    ckpt = str(out / "checkpoints" / "final")
    cfg["arch"]["loc_channels"] = 14
    path = _write(tmp_path, cfg, "wider.json")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks"]) == 2
    assert "parameter 'loc_encoder/conv/w': stored shape" in capsys.readouterr().err
    cfg["arch"]["loc_channels"] = 12
    cfg["datasets"].append({"dataset_id": "extra", "num_images": 20, "tasks": ["cls"],
                            "image_size": 16, "seed": 13})
    path = _write(tmp_path, cfg, "more.json")
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks"]) == 2
    assert "missing parameters: ['cls_head/extra/fc/b'" in capsys.readouterr().err


# a teacher entry edited in the manifest only (blob and SHA-256 untouched) -> what the error names
TEACHER_EDITS = {
    "reshaped": ({"shape": [1, 6, 3, 3]},
                 "teacher.bin: 'backbone/conv1/w' has shape [1, 6, 3, 3], its student entry "
                 "[6, 1, 3, 3]"),
    "renamed": ({"name": "backbone/conv9/w"},
                "teacher.bin: 'backbone/conv9/w' matches no student entry"),
}


@pytest.mark.parametrize("case", list(TEACHER_EDITS))
def test_cmd_eval_teacher_rejects_an_entry_unlike_the_students(tmp_path, capsys, case):
    edit, message = TEACHER_EDITS[case]
    out, cfg = _pretrained(tmp_path)
    ckpt = out / "checkpoints" / "final"
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["teacher"]["params"][0]["name"] == "backbone/conv1/w"
    manifest["teacher"]["params"][0].update(edit)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", path,
                     "--dataset", "boxesmasks", "--weights", "teacher"]) == 2
    assert message in capsys.readouterr().err


def test_cmd_eval_teacher_ignores_mirrored_heads_the_config_lacks(tmp_path, capsys):
    # older runs could write a teacher over every parameter, other datasets' heads included
    cfg = _base_config(str(tmp_path / "out"))
    run = run_config_from_dict(cfg)
    model = build_model(run.arch, [s.model_spec() for s in run.datasets])
    teacher = TeacherState(params=model.graph.arrays(), momentum=0.8)
    assert "cls_head/labels/fc/w" in teacher.params
    ckpt = str(tmp_path / "mirrored")
    save_checkpoint(ckpt, model, teacher=teacher)
    cfg["datasets"] = cfg["datasets"][:1]
    path = _write(tmp_path, cfg, "first_only.json")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "boxesmasks", "--weights", "teacher"]) == 0
    printed = capsys.readouterr().out
    for line in ("boxesmasks cls AUC: ", "boxesmasks loc mAP40: ", "boxesmasks seg Dice: "):
        assert line in printed


def test_cmd_eval_scores_a_finetuned_checkpoint_on_its_dataset(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    cfg["finetune"] = {
        "dataset": {
            "dataset_id": "fresh",
            "num_images": 16,
            "tasks": ["loc"],
            "image_size": 16,
            "min_instances": 1,
            "max_instances": 1,
            "seed": 21,
        },
        "mode": "head_only",
        "epochs": 1,
    }
    path = _write(tmp_path, cfg, "ft.json")
    assert cli.main(["finetune", "--checkpoint", str(out / "checkpoints" / "final"),
                     "--config", path, "--init-new-head"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "finetune" / "checkpoint"),
                     "--config", path, "--dataset", "fresh"]) == 0
    assert "fresh loc mAP40: " in capsys.readouterr().out


def test_cmd_eval_unknown_dataset_fails(tmp_path):
    out, cfg = _pretrained(tmp_path)
    path = _write(tmp_path, cfg)
    ckpt = str(out / "checkpoints" / "final")
    assert cli.main(["eval", "--checkpoint", ckpt, "--config", path,
                     "--dataset", "nope"]) == 2


# ---------------------------------------------------------------------------
# inspect and gen-data


def test_cmd_inspect_counts_sum_and_stable(tmp_path, capsys):
    out, cfg = _pretrained(tmp_path)
    ckpt = str(out / "checkpoints" / "final")
    capsys.readouterr()  # drain the pretrain output
    assert cli.main(["inspect", "--checkpoint", ckpt]) == 0
    first = capsys.readouterr().out
    assert cli.main(["inspect", "--checkpoint", ckpt]) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = [l for l in first.splitlines() if l and not l.startswith(("checkpoint", "weights", "counters", "config", "teacher", "component"))]
    counts = {l.split()[0]: int(l.split()[1]) for l in lines}
    total = counts.pop("total")
    assert sum(counts.values()) == total


def test_cmd_inspect_corrupt_checkpoint_fails(tmp_path, capsys):
    out, _ = _pretrained(tmp_path)
    ckpt = out / "checkpoints" / "final"
    manifest = ckpt / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"offset": 0', '"offset": 7', 1))
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 2
    assert "offset" in capsys.readouterr().err


def test_cmd_inspect_checkpoint_without_student_blob_fails(tmp_path, capsys):
    out, _ = _pretrained(tmp_path)
    ckpt = out / "checkpoints" / "final"
    (ckpt / "student.bin").unlink()
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 2
    assert "student.bin" in capsys.readouterr().err


def test_cmd_gen_data_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = _base_config(str(out), num_cycles=0)
    path = _write(tmp_path, cfg)
    assert cli.main(["gen-data", "--config", path]) == 0
    manifest, arrays = read_export(out / "data" / "boxesmasks")
    spec = SynthDatasetSpec(**manifest["spec"])
    assert spec == load_run_config(path).datasets[0]
    direct = synthdata.generate_dataset(spec)
    assert np.array_equal(arrays["images"], np.stack([s.image for s in direct]))
    for name, a in synthdata.annotation_arrays(spec, direct).items():
        assert np.array_equal(arrays[name], a), name


def test_cmd_gen_data_writes_a_reused_id_once(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(str(out), num_cycles=0)
    cfg["finetune"] = {"dataset": dict(cfg["datasets"][1])}
    assert cli.main(["gen-data", "--config", _write(tmp_path, cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["boxesmasks", "labels"]
    manifest, _ = read_export(out / "data" / "labels")
    assert manifest["spec"]["seed"] == 12
    # another dataset under the same id would overwrite the first one's export
    cfg["finetune"] = {"dataset": {**cfg["datasets"][1], "num_images": 5, "seed": 2}}
    out.joinpath("data").rename(tmp_path / "first")
    assert cli.main(["gen-data", "--config", _write(tmp_path, cfg, "other.json")]) == 2
    assert "finetune.dataset: reuses the id 'labels'" in capsys.readouterr().err
    assert not (out / "data").exists()
