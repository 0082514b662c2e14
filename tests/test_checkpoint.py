import hashlib
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
from cyclictrain.model import build_model
from cyclictrain.optim import AdamWState
from cyclictrain.synthdata import SynthDatasetSpec

from conftest import TINY_ARCH

SPEC = SynthDatasetSpec("d", num_images=12, tasks=("cls", "loc", "seg"),
                        image_size=16, min_instances=1, max_instances=1, seed=3)


def _trained_model():
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model = build_model(TINY_ARCH, [SPEC.model_spec()])
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
    model2 = build_model(TINY_ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    teacher2 = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    save_checkpoint(str(second), model2, teacher=teacher2, optimizer=cp.optimizer,
                    counters=cp.counters, config_hash=cp.config_hash)
    assert _dir_bytes(first) == _dir_bytes(second)


def test_roundtrip_reproduces_forward_bit_exactly(tmp_path):
    model, teacher, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher)
    cp = load_checkpoint(str(tmp_path / "cp"))
    model2 = build_model(TINY_ARCH, [SPEC.model_spec()])
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
    counts = model.graph.count_by_component()
    assert sum(a.size for a in cp.arrays.values()) == sum(counts.values())
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


@pytest.mark.parametrize("version", [1, 2, 3])
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
            manifest = manifest[int(parent) if isinstance(manifest, list) else parent]
        del manifest[key]

    return edit


def _set(path, value):
    """Set one optimizer field, ``entries.0.lr`` style, to ``value``."""

    def edit(manifest):
        *parents, key = path.split(".")
        section = manifest["optimizer"]
        for parent in parents:
            section = section[int(parent) if isinstance(section, list) else parent]
        section[key] = value

    return edit


def _resize_first_moments(manifest):
    """Move one element from the first entry's m to its v, so the blob still adds up."""
    m, v = manifest["optimizer"]["params"][:2]
    m["shape"] = [m["shape"][0] - 1]
    v["shape"] = [v["shape"][0] + 1]
    v["offset"] -= 1


def _swap_first_moments(manifest):
    """Swap the names of the first two moments, the first entry's m and v."""
    first, second = manifest["optimizer"]["params"][:2]
    first["name"], second["name"] = second["name"], first["name"]


# manifest edit (in place, or returning the manifest to write) -> what the error must name;
# the manifest is decoded by the config file's rules, so each message is theirs
MISSING_KEYS = {
    "not-an-object": (lambda manifest: [], "manifest.json: top level: expected an object"),
    "counters-not-an-object": (lambda manifest: manifest.update(counters=[1, 2]),
                               "counters: expected dict, got list"),
    "params": (_drop("params"), "params: required key missing"),
    "sha256": (_drop("sha256"), "sha256: required key missing"),
    "teacher.sha256": (_drop("teacher.sha256"), r"teacher\.sha256: required key missing"),
    "optimizer.sha256": (_drop("optimizer.sha256"), r"optimizer\.sha256: required key missing"),
    "teacher.momentum": (_drop("teacher.momentum"), r"teacher\.momentum: required key missing"),
    "teacher.params": (_drop("teacher.params"), r"teacher\.params: required key missing"),
    "optimizer.params": (_drop("optimizer.params"), r"optimizer\.params: required key missing"),
    "optimizer.betas": (_drop("optimizer.betas"), r"optimizer\.betas: required key missing"),
    "entry-without-m": (lambda manifest: manifest["optimizer"]["entries"].append(
                            {"component": "seg_head/d", "lr": 1e-4, "step_count": 1}),
                        r"manifest\.json: optimizer\.params\[8\] is None, expected "
                        r"'seg_head/d/m': each entry's m and then its v, in entry order"),
    "entry-without-v": (lambda manifest: manifest["optimizer"]["params"][-1].update(
                            name="loc_encoder/w"),
                        r"manifest\.json: optimizer\.params\[7\] is 'loc_encoder/w', expected "
                        r"'loc_encoder/v'"),
    "counter-a-string": (lambda manifest: manifest.update(counters={"cycle": "x"}),
                         r"counters\.cycle: expected int, got str"),
    "counter-a-fraction": (lambda manifest: manifest.update(counters={"cycle": 1.5}),
                           r"counters\.cycle: expected int, got float"),
    "counter-a-boolean": (lambda manifest: manifest.update(counters={"cycle": True}),
                          r"counters\.cycle: expected int, got bool"),
    "total-elements-a-string": (lambda manifest: manifest.update(total_elements="many"),
                                "total_elements: expected int, got str"),
    "offset-a-string": (lambda manifest: manifest["params"][0].update(offset="0"),
                        r"params\[0\]\.offset: expected int, got str"),
    "shape-a-fraction": (lambda manifest: manifest["teacher"]["params"][0].update(shape=[2.0]),
                         r"teacher\.params\[0\]\.shape\[0\]: expected int, got float"),
    "shape-negative": (lambda manifest: manifest["params"][0].update(shape=[-4, -1, 3, 3]),
                       r"params\[0\]: shape \[-4, -1, 3, 3\] has a negative dimension"),
    "teacher-name-twice": (
        lambda manifest: manifest["teacher"]["params"][1].update(
            name=manifest["teacher"]["params"][0]["name"]),
        r"teacher\.bin: parameter 'backbone/conv1/w' is listed twice"),
    "momentum-a-string": (lambda manifest: manifest["teacher"].update(momentum="x"),
                          r"teacher\.momentum: expected float, got str"),
    "momentum-a-boolean": (lambda manifest: manifest["teacher"].update(momentum=True),
                           r"teacher\.momentum: expected float, got bool"),
    "momentum-above-one": (lambda manifest: manifest["teacher"].update(momentum=5.0),
                           r"teacher: momentum 5\.0 is not in \[0, 1\]"),
    "step-count-a-string": (lambda manifest: manifest["optimizer"]["entries"][0].update(
                                step_count="x"),
                            r"optimizer\.entries\[0\]\.step_count: expected int, got str"),
    "lr-a-string": (lambda manifest: manifest["optimizer"]["entries"][0].update(lr="x"),
                    r"optimizer\.entries\[0\]\.lr: expected float, got str"),
    "eps-a-boolean": (lambda manifest: manifest["optimizer"].update(eps=False),
                      r"optimizer\.eps: expected float, got bool"),
    "weight-decay-a-list": (lambda manifest: manifest["optimizer"].update(weight_decay=[0]),
                            r"optimizer\.weight_decay: expected float, got list"),
    "betas-a-string": (lambda manifest: manifest["optimizer"].update(betas="x"),
                       r"optimizer\.betas: expected list, got str"),
    "betas-of-three": (lambda manifest: manifest["optimizer"].update(betas=[0.9, 0.99, 0.999]),
                       r"optimizer\.betas: expected 2 items, got 3"),
    "beta-a-string": (lambda manifest: manifest["optimizer"].update(betas=[0.9, "x"]),
                      r"optimizer\.betas\[1\]: expected float, got str"),
    "component-a-number": (lambda manifest: manifest["params"][0].update(component=5),
                           r"params\[0\]\.component: expected str, got int"),
    "name-a-list": (lambda manifest: manifest["params"][0].update(name=[1]),
                    r"params\[0\]\.name: expected str, got list"),
    "params-a-number": (lambda manifest: manifest.update(params=5),
                        "params: expected list, got int"),
    "weights-kind-a-list": (lambda manifest: manifest.update(weights_kind=[1]),
                            "weights_kind: expected str, got list"),
    "config-hash-a-number": (lambda manifest: manifest.update(config_hash=5),
                             "config_hash: expected str, got int"),
    "unknown-key": (lambda manifest: manifest.update(epoch=3), "epoch: unknown key"),
    "entry-without-component": (_drop("params.0.component"),
                                r"params\[0\]\.component: required key missing"),
    "lr-nan": (_set("entries.0.lr", float("nan")),
               r"optimizer\.entries\[0\]: lr nan is not a finite number >= 0"),
    "lr-negative": (_set("entries.0.lr", -1),
                    r"optimizer\.entries\[0\]: lr -1\.0 is not a finite number >= 0"),
    "step-count-negative": (_set("entries.0.step_count", -3),
                            r"optimizer\.entries\[0\]: step_count -3 is not >= 1"),
    "eps-negative": (_set("eps", -1), r"optimizer: eps must be finite and positive, got -1\.0"),
    "weight-decay-nan": (_set("weight_decay", float("nan")),
                         r"optimizer: weight_decay must be finite and non-negative, got nan"),
    "beta-above-one": (_set("betas", [2, 0.5]),
                       r"optimizer: betas must lie in \(0, 1\), got \(2\.0, 0\.5\)"),
    "teacher-entry-reshaped": (
        lambda manifest: manifest["teacher"]["params"][0].update(shape=[1, 4, 3, 3]),
        r"teacher\.bin: 'backbone/conv1/w' has shape \[1, 4, 3, 3\], its student entry "
        r"\[4, 1, 3, 3\]"),
    "teacher-entry-renamed": (
        lambda manifest: manifest["teacher"]["params"][0].update(name="backbone/conv9/w"),
        r"teacher\.bin: 'backbone/conv9/w' matches no student entry"),
    "moment-reshaped": (_resize_first_moments,
                        r"optim\.bin: 'backbone/m' has shape \[701\], its component \[702\]"),
    "entry-renamed": (_set("entries.0.component", "backbone~"),
                      r"manifest\.json: optimizer\.entries\[0\]: 'backbone~' is no student "
                      "component"),
    "entry-twice": (lambda manifest: manifest["optimizer"]["entries"].append(
                        manifest["optimizer"]["entries"][1]),
                    r"manifest\.json: optimizer\.entries\[4\]: 'cls_head/d' is listed twice"),
    "moments-without-entry": (lambda manifest: manifest["optimizer"].update(
                                  entries=manifest["optimizer"]["entries"][:-1]),
                              r"manifest\.json: optimizer\.params\[6\] is 'loc_encoder/m', "
                              "expected None"),
    "moments-out-of-entry-order": (
        _swap_first_moments,
        r"manifest\.json: optimizer\.params\[0\] is 'backbone/v', expected 'backbone/m'"),
    "teacher-entry-with-component": (
        lambda manifest: manifest["teacher"]["params"][0].update(component="backbone"),
        r"teacher\.params\[0\]\.component: unknown key"),
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


@pytest.mark.parametrize("edit,message", [
    (lambda teacher, opt: teacher.params.update(zzz=np.zeros(3)),
     "teacher parameter 'zzz' missing from student"),
    (lambda teacher, opt: teacher.params.update({"backbone/conv1/b": np.zeros(7)}),
     r"teacher parameter 'backbone/conv1/b' shape \(7,\) != student shape \(4,\)"),
    (lambda teacher, opt: opt.state.update(ghost=AdamWState(1e-3, 1, np.zeros(1), np.zeros(1))),
     "optimizer state for component 'ghost', which the model lacks"),
    (lambda teacher, opt: setattr(opt.state["backbone"], "v", opt.state["backbone"].v[:-1]),
     "moments of component 'backbone' are not of its size 702"),
], ids=["teacher-name", "teacher-shape", "optimizer-component", "optimizer-size"])
def test_save_refuses_what_load_would_refuse(tmp_path, edit, message):
    model, teacher, opt = _trained_model()
    edit(teacher, opt)
    with pytest.raises(ValueError, match=message):
        save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt)
    assert not (tmp_path / "cp").exists()


def test_checkpoint_without_parameters_rejected(tmp_path, capsys):
    model, _, _ = _trained_model()
    path = tmp_path / "cp"
    save_checkpoint(str(path), model)
    (path / "student.bin").write_bytes(b"")
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest.update(params=[], total_elements=0, sha256=hashlib.sha256(b"").hexdigest())
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="params: a checkpoint holds at least one parameter"):
        load_checkpoint(str(path))
    assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
    assert "checkpoint error" in capsys.readouterr().err


# SHA-256 of every file of the checkpoint below; its arithmetic is seeded
# RandomState draws and one elementwise AdamW step (no BLAS, no summation
# order), so the bytes are the same on every machine
PINNED_FILES = {
    "manifest.json": "2f9090282fa9765064e11a83b6688c3ab2b761857cc9e758c9b4579b4263dc09",
    "optim.bin": "4e831c1029fbfc9995ec694bb4177556b2d1910f66b2957ecb211ee62e1719e2",
    "student.bin": "61549dba96b55d15decb6ad8c1ce6a846729d6428d6847cf0db3b40a49a711ed",
    "teacher.bin": "61511ab9b46619ce510fb9b95d611a19009ff8f57b07fa7a514cab16fda7b1ec",
}


def test_checkpoint_bytes_are_pinned(tmp_path):
    model = build_model(TINY_ARCH, [SPEC.model_spec()])
    teacher = TeacherState.init_from(model, 0.8)
    opt = make_optimizer(TrainConfig())
    params = list(model.graph.parameters())
    opt.step(params, {p.name: np.ones_like(p.tensor.data) for p in params})
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt,
                    counters={"cycle": 2, "epoch": 7}, config_hash="0123456789ab")
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in _dir_bytes(tmp_path / "cp").items()}
    assert digests == PINNED_FILES


def test_optimizer_roundtrip_resumes_identically(tmp_path):
    cfg = TrainConfig(num_cycles=1, batch_size=8)
    model, teacher, opt = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, optimizer=opt)

    bundles = prepare_bundles([SPEC], cfg)
    entry = build_cycle_plan([SPEC], cfg).entries[0]

    cp = load_checkpoint(str(tmp_path / "cp"))
    model2 = build_model(TINY_ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    teacher2 = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    opt2 = make_optimizer(cfg)
    opt2.state = cp.optimizer.state

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
    model2 = build_model(TINY_ARCH, [SPEC.model_spec()])
    model2.graph.load_arrays(cp.arrays)
    x = np.random.RandomState(1).rand(2, 1, 16, 16)
    expected = model.forward_cls(x, "d", weights=exported)
    assert np.array_equal(model2.forward_cls(x, "d").data, expected.data)


@pytest.mark.parametrize("edit,message", [
    (lambda weights: weights.pop("seg_head/d/conv/b"),
     r"missing parameters: \['seg_head/d/conv/b'\]"),
    (lambda weights: weights.update({"loc_encoder/conv/b": np.zeros(3)}),
     r"parameter 'loc_encoder/conv/b': stored shape \(3,\) != model shape \(8,\)"),
], ids=["missing", "reshaped"])
def test_save_rejects_a_weight_set_the_model_does_not_admit(tmp_path, edit, message):
    model, teacher, _ = _trained_model()
    weights = export_teacher(model, teacher)
    edit(weights)
    with pytest.raises(ValueError, match=message):
        save_checkpoint(str(tmp_path / "cp"), model, teacher=teacher, weights=weights,
                        weights_kind="teacher_export")
    assert not (tmp_path / "cp").exists()


def test_load_rejects_missing_parameters(tmp_path):
    model, _, _ = _trained_model()
    save_checkpoint(str(tmp_path / "cp"), model)
    cp = load_checkpoint(str(tmp_path / "cp"))
    bigger = build_model(TINY_ARCH, [SPEC.model_spec(),
                                     SynthDatasetSpec("extra", num_images=5, tasks=("cls",),
                                                      image_size=16).model_spec()])
    with pytest.raises(ValueError, match="missing parameters"):
        bigger.graph.load_arrays(cp.arrays)
