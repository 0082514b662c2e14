import json
import os
import shutil

import numpy as np
import pytest

from cyclictrain import cli
from cyclictrain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from cyclictrain.engine import (
    TeacherState,
    TrainConfig,
    build_cycle_plan,
    export_teacher,
    make_optimizer,
    prepare_bundles,
    run_epoch,
)
from cyclictrain.model import ArchConfig, build_model, count_params
from cyclictrain.synthdata import SynthDatasetSpec

ARCH = ArchConfig(image_size=16, stage_channels=(4, 6, 8), loc_channels=8,
                  query_dim=8, loc_grid=4, seg_channels=(6, 4))
SPEC = SynthDatasetSpec("d", num_images=12, tasks=("cls", "loc", "seg"),
                        image_size=16, min_instances=1, max_instances=1, seed=3)


def _trained_model():
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model = build_model(ARCH, [SPEC.model_spec()])
    bundles = prepare_bundles([SPEC], cfg)
    teacher = TeacherState.init_from(model, cfg.momentum)
    opt = make_optimizer(cfg)
    for i, entry in enumerate(build_cycle_plan([SPEC], cfg).entries[:3]):
        run_epoch(model, teacher, entry, bundles["d"], opt, cfg, epoch_in_cycle=i + 1)
    return model, teacher, opt


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def test_save_load_save_is_byte_identical(tmp_path):
    model, teacher, opt = _trained_model()
    first = tmp_path / "cp1"
    second = tmp_path / "cp2"
    save_checkpoint(str(first), model, teacher=teacher, optimizer=opt,
                    counters={"cycle": 1, "epoch": 3}, config_hash="abc123")
    cp = load_checkpoint(str(first))
    model2 = build_model(ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    teacher2 = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    opt2 = make_optimizer(TrainConfig())
    opt2.load_state(cp.optimizer_state)
    save_checkpoint(str(second), model2, teacher=teacher2, optimizer=opt2,
                    counters=cp.counters, config_hash=cp.config_hash)
    assert _dir_bytes(first) == _dir_bytes(second)


def test_roundtrip_reproduces_forward_bit_exactly(tmp_path):
    model, teacher, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher)
    cp = load_checkpoint(str(tmp_path / "cp"))
    model2 = build_model(ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    x = np.random.RandomState(0).rand(2, 1, 16, 16)
    assert np.array_equal(
        model.forward_cls(x, "d").data, model2.forward_cls(x, "d").data
    )
    b1, l1 = model.forward_loc(x, "d")
    b2, l2 = model2.forward_loc(x, "d")
    assert np.array_equal(b1.data, b2.data)
    assert np.array_equal(l1.data, l2.data)
    assert np.array_equal(
        model.forward_seg(x, "d").data, model2.forward_seg(x, "d").data
    )


def test_manifest_counts_match_parameter_accounting(tmp_path):
    model, _, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model)
    cp = load_checkpoint(str(tmp_path / "cp"))
    counts, total = count_params(model)
    assert sum(a.size for a in cp.arrays.values()) == total
    by_comp = {}
    for name, arr in cp.arrays.items():
        by_comp[cp.components[name]] = by_comp.get(cp.components[name], 0) + arr.size
    assert by_comp == counts


# damage -> what the error must say, after the blob's name
DAMAGE = {
    "halve": "offset",  # ends on an element boundary, mid-array
    "cut3": "not a multiple of 8",
    "append8": "manifest accounts for",
    "delete": "missing",
    "flip": "SHA-256",  # the right length, one byte changed
}


@pytest.mark.parametrize("damage", list(DAMAGE))
@pytest.mark.parametrize("blob", ["student.bin", "teacher.bin", "optim.bin"])
def test_damaged_blob_rejected(tmp_path, capsys, blob, damage):
    model, teacher, opt = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt)
    path = tmp_path / "cp" / blob
    data = path.read_bytes()
    if damage == "halve":
        path.write_bytes(data[: len(data) // 2 // 8 * 8])
    elif damage == "cut3":
        path.write_bytes(data[:-3])
    elif damage == "append8":
        path.write_bytes(data + bytes(8))
    elif damage == "flip":
        i = len(data) // 2
        path.write_bytes(data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1 :])
    else:
        path.unlink()
    with pytest.raises(CheckpointError, match=DAMAGE[damage]) as err:
        load_checkpoint(str(tmp_path / "cp"))
    assert str(err.value).startswith(f"{blob}: ")
    assert cli.main(["inspect", "--checkpoint", str(tmp_path / "cp")]) == 2
    assert blob in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2])
def test_old_format_version_rejected(tmp_path, version):
    model, teacher, opt = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt)
    mpath = tmp_path / "cp" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = version
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=f"format version {version}"):
        load_checkpoint(str(tmp_path / "cp"))


def test_corrupt_manifest_rejected(tmp_path):
    model, _, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model)
    mpath = tmp_path / "cp" / "manifest.json"
    mpath.write_text(mpath.read_text().replace('"offset": 0', '"offset": 3', 1))
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(str(tmp_path / "cp"))
    mpath.write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(str(tmp_path / "cp"))


@pytest.fixture(scope="module")
def full_checkpoint(tmp_path_factory):
    """A checkpoint with student, teacher and optimizer sections."""
    model, teacher, opt = _trained_model()
    path = tmp_path_factory.mktemp("full") / "cp"
    save_checkpoint(str(path), model, teacher=teacher, optimizer=opt)
    return path


def _drop(path):
    def edit(manifest):
        *parents, key = path.split(".")
        for parent in parents:
            manifest = manifest[parent]
        del manifest[key]

    return edit


def _orphan(moment):
    """Rename the first optimizer entry's ``<name>/<moment>`` array."""

    def edit(manifest):
        name = manifest["optimizer"]["entries"][0]["name"]
        for e in manifest["optimizer"]["params"]:
            if e["name"] == f"{name}/{moment}":
                e["name"] += "~"

    return edit


# manifest edit (in place, or returning the manifest to write) -> what the error must name
MISSING_KEYS = {
    "not-an-object": (lambda manifest: [], "manifest is a JSON list, not an object"),
    "counters-not-an-object": (lambda manifest: manifest.update(counters=[1, 2]),
                               "counters is a JSON list, not an object"),
    "params": (_drop("params"), "'params'"),
    "sha256": (_drop("sha256"), "'sha256'"),
    "teacher.sha256": (_drop("teacher.sha256"), "'teacher.sha256'"),
    "optimizer.sha256": (_drop("optimizer.sha256"), "'optimizer.sha256'"),
    "teacher.momentum": (_drop("teacher.momentum"), "'teacher.momentum'"),
    "teacher.params": (_drop("teacher.params"), "'teacher.params'"),
    "optimizer.params": (_drop("optimizer.params"), "'optimizer.params'"),
    "optimizer.betas": (_drop("optimizer.betas"), "'optimizer.betas'"),
    "entry-without-m": (_orphan("m"), "has no '.+/m' array"),
    "entry-without-v": (_orphan("v"), "has no '.+/v' array"),
}


@pytest.mark.parametrize("case", list(MISSING_KEYS))
def test_manifest_missing_key_rejected(tmp_path, capsys, full_checkpoint, case):
    edit, message = MISSING_KEYS[case]
    path = tmp_path / "cp"
    shutil.copytree(full_checkpoint, path)
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edited = edit(manifest)
    mpath.write_text(json.dumps(manifest if edited is None else edited))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(path))
    assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
    assert "checkpoint error" in capsys.readouterr().err


def test_optimizer_state_roundtrip_resumes_identically(tmp_path):
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model, teacher, opt = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt)

    bundles = prepare_bundles([SPEC], cfg)
    entry = build_cycle_plan([SPEC], cfg).entries[0]

    cp = load_checkpoint(str(tmp_path / "cp"))
    model2 = build_model(ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    teacher2 = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    opt2 = make_optimizer(cfg)
    opt2.load_state(cp.optimizer_state)

    run_epoch(model, teacher, entry, bundles["d"], opt, cfg, epoch_in_cycle=9)
    run_epoch(model2, teacher2, entry, bundles["d"], opt2, cfg, epoch_in_cycle=9)
    a1, a2 = model.graph.arrays(), model2.graph.arrays()
    assert all(np.array_equal(a1[k], a2[k]) for k in a1)


def test_teacher_export_roundtrip_forward_equality(tmp_path):
    model, teacher, _ = _trained_model()
    exported = export_teacher(model, teacher)
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher,
                    weights=exported, weights_kind="teacher_export")
    cp = load_checkpoint(str(tmp_path / "cp"))
    assert cp.weights_kind == "teacher_export"
    model2 = build_model(ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    x = np.random.RandomState(1).rand(2, 1, 16, 16)
    expected = model.forward_cls(x, "d", weights=exported)
    assert np.array_equal(model2.forward_cls(x, "d").data, expected.data)


def test_load_rejects_missing_parameters(tmp_path):
    model, _, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model)
    cp = load_checkpoint(str(tmp_path / "cp"))
    bigger = build_model(ARCH, [SPEC.model_spec(),
                                SynthDatasetSpec("extra", num_images=5, tasks=("cls",),
                                                 image_size=16).model_spec()])
    with pytest.raises(KeyError, match="missing parameters"):
        bigger.graph.load_arrays(cp.arrays)
