"""Bit-exact checkpoint persistence.

A checkpoint is a directory: ``manifest.json`` plus raw little-endian
float64 blobs (``student.bin``, optionally ``teacher.bin`` and
``optim.bin``).  Every blob is described by one list of ``{name, shape,
offset}`` entries in the manifest (student entries also carry their
component; the optimizer's moments are the arrays ``<param>/m`` and
``<param>/v``), so loading is language-neutral and save -> load -> save
reproduces the directory byte for byte.  Next to each list sits the
SHA-256 of the blob's bytes (``sha256``, ``teacher.sha256``,
``optimizer.sha256``); loading verifies it, so a damaged blob of the right
length is rejected rather than loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import TeacherState
from .model import MultiTaskModel
from .optim import AdamW

__all__ = ["CheckpointError", "Checkpoint", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 3


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint contents."""


@dataclass
class Checkpoint:
    """In-memory view of a checkpoint directory."""

    arrays: dict[str, np.ndarray]
    components: dict[str, str]
    counters: dict[str, int]
    config_hash: str
    weights_kind: str
    teacher_momentum: float | None = None
    teacher_arrays: dict[str, np.ndarray] | None = None
    optimizer_state: dict | None = None


def _blob_entries(arrays: dict[str, np.ndarray], components: dict[str, str] | None = None):
    entries = []
    offset = 0
    for name, arr in arrays.items():
        entry = {"name": name, "shape": list(arr.shape), "offset": offset}
        if components is not None:
            entry["component"] = components[name]
        entries.append(entry)
        offset += arr.size
    return entries, offset


def _write_blob(directory: str, label: str, arrays: dict[str, np.ndarray]) -> str:
    """Write the arrays back to back; returns the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(os.path.join(directory, label), "wb") as f:
        for arr in arrays.values():
            raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            digest.update(raw)
            f.write(raw)
    return digest.hexdigest()


def _field(section, path: str):
    """``section[key]`` for the last key of ``path``; CheckpointError if absent."""
    key = path.rsplit(".", 1)[-1]
    if not isinstance(section, dict) or key not in section:
        raise CheckpointError(f"manifest lacks required key '{path}'")
    return section[key]


def _integer(value, path: str) -> int:
    """``value`` if it is a JSON integer; CheckpointError otherwise (1.5 and true too)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CheckpointError(f"manifest {path} is {value!r}, not an integer")
    return value


def _number(value, path: str):
    """``value`` if it is a JSON number; CheckpointError otherwise (true too)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CheckpointError(f"manifest {path} is {value!r}, not a number")
    return value


def _read_blob(directory: str, label: str, entries, sha256: str) -> dict[str, np.ndarray]:
    try:
        with open(os.path.join(directory, label), "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise CheckpointError(f"{label}: blob file missing from {directory}")
    if len(raw) % 8:
        raise CheckpointError(f"{label}: blob length {len(raw)} is not a multiple of 8")
    flat = np.frombuffer(raw, dtype="<f8")
    out: dict[str, np.ndarray] = {}
    expected_end = 0
    for i, entry in enumerate(entries):
        at = f"{label} entries[{i}]"
        name = _field(entry, f"{at}.name")
        shape = tuple(_integer(d, f"{at}.shape") for d in _field(entry, f"{at}.shape"))
        offset = _integer(_field(entry, f"{at}.offset"), f"{at}.offset")
        size = 1
        for d in shape:
            size *= d
        if offset != expected_end:
            raise CheckpointError(
                f"{label}: parameter '{name}' declared at offset {offset}, "
                f"expected {expected_end}"
            )
        end = offset + size
        if end > flat.size:
            raise CheckpointError(
                f"{label}: parameter '{name}' at offset {offset} needs {size} "
                f"elements but blob holds {flat.size}"
            )
        out[name] = flat[offset:end].reshape(shape).astype(np.float64)
        expected_end = end
    if expected_end != flat.size:
        raise CheckpointError(
            f"{label}: blob holds {flat.size} elements, manifest accounts for "
            f"{expected_end}"
        )
    actual = hashlib.sha256(raw).hexdigest()
    if actual != sha256:
        raise CheckpointError(
            f"{label}: SHA-256 {actual} does not match the manifest's {sha256}"
        )
    return out


def save_checkpoint(
    directory: str,
    model: MultiTaskModel,
    teacher: TeacherState | None = None,
    optimizer: AdamW | None = None,
    counters: dict[str, int] | None = None,
    config_hash: str = "",
    weights: dict[str, np.ndarray] | None = None,
    weights_kind: str = "student",
) -> None:
    """Write a checkpoint directory.

    ``weights`` overrides the stored parameter arrays (used for teacher
    export); names and shapes must match the model's registry exactly.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {}
    components = {}
    for p in model.graph.parameters():
        data = weights[p.name] if weights is not None else p.tensor.data
        if data.shape != p.tensor.data.shape:
            raise CheckpointError(
                f"weights override for '{p.name}' has shape {data.shape}, "
                f"expected {p.tensor.data.shape}"
            )
        arrays[p.name] = np.asarray(data, dtype=np.float64)
        components[p.name] = p.component
    param_entries, total = _blob_entries(arrays, components)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config_hash": config_hash,
        "weights_kind": weights_kind,
        "counters": dict(counters or {}),
        "total_elements": total,
        "params": param_entries,
    }
    manifest["sha256"] = _write_blob(directory, "student.bin", arrays)

    if teacher is not None:
        teacher_entries, _ = _blob_entries(teacher.params)
        manifest["teacher"] = {
            "momentum": teacher.momentum,
            "params": teacher_entries,
            "sha256": _write_blob(directory, "teacher.bin", teacher.params),
        }
    if optimizer is not None:
        state = optimizer.export_state()
        moment_arrays: dict[str, np.ndarray] = {}
        for name, entry in state["entries"].items():
            moment_arrays[f"{name}/m"] = entry["m"]
            moment_arrays[f"{name}/v"] = entry["v"]
        moment_entries, _ = _blob_entries(moment_arrays)
        # a list, not a dict: json.dump sorts dict keys, and the order read
        # back here is the order of optim.bin on the next save
        manifest["optimizer"] = {
            "betas": state["betas"],
            "eps": state["eps"],
            "weight_decay": state["weight_decay"],
            "entries": [
                {"name": name, "lr": e["lr"], "step_count": e["step_count"]}
                for name, e in state["entries"].items()
            ],
            "params": moment_entries,
            "sha256": _write_blob(directory, "optim.bin", moment_arrays),
        }

    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(directory: str) -> Checkpoint:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"no manifest at {manifest_path}")
    except json.JSONDecodeError as e:
        raise CheckpointError(f"manifest is not valid JSON: {e}")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {manifest.get('format_version')!r}"
        )
    params = _field(manifest, "params")
    arrays = _read_blob(directory, "student.bin", params, _field(manifest, "sha256"))
    components = {e["name"]: e.get("component", "") for e in params}
    declared = _integer(manifest.get("total_elements", -1), "total_elements")
    actual = sum(a.size for a in arrays.values())
    if declared >= 0 and declared != actual:
        raise CheckpointError(
            f"manifest declares {declared} elements, blob holds {actual}"
        )
    counters = manifest.get("counters", {})
    if not isinstance(counters, dict):
        raise CheckpointError(f"manifest counters is a JSON {type(counters).__name__}, "
                              "not an object")
    cp = Checkpoint(
        arrays=arrays,
        components=components,
        counters={k: _integer(v, f"counters.{k}") for k, v in counters.items()},
        config_hash=manifest.get("config_hash", ""),
        weights_kind=manifest.get("weights_kind", "student"),
    )
    if "teacher" in manifest:
        t = manifest["teacher"]
        momentum = _number(_field(t, "teacher.momentum"), "teacher.momentum")
        if not 0.0 <= momentum <= 1.0:
            raise CheckpointError(f"manifest teacher.momentum is {momentum!r}, not in [0, 1]")
        cp.teacher_momentum = float(momentum)
        cp.teacher_arrays = _read_blob(
            directory, "teacher.bin", _field(t, "teacher.params"), _field(t, "teacher.sha256")
        )
    if "optimizer" in manifest:
        o = manifest["optimizer"]
        moments = _read_blob(
            directory, "optim.bin", _field(o, "optimizer.params"), _field(o, "optimizer.sha256")
        )
        entries = {}
        for i, e in enumerate(_field(o, "optimizer.entries")):
            where = f"optimizer.entries[{i}]"
            name = _field(e, f"{where}.name")
            for moment in ("m", "v"):
                if f"{name}/{moment}" not in moments:
                    raise CheckpointError(
                        f"optim.bin: optimizer entry '{name}' has no "
                        f"'{name}/{moment}' array"
                    )
            entries[name] = {
                "lr": _number(_field(e, f"{where}.lr"), f"{where}.lr"),
                "step_count": _integer(_field(e, f"{where}.step_count"), f"{where}.step_count"),
                "m": moments[f"{name}/m"],
                "v": moments[f"{name}/v"],
            }
        betas = _field(o, "optimizer.betas")
        if not isinstance(betas, list) or len(betas) != 2:
            raise CheckpointError(
                f"manifest optimizer.betas is {betas!r}, not a list of two numbers")
        cp.optimizer_state = {
            "betas": [_number(b, "optimizer.betas") for b in betas],
            "eps": _number(_field(o, "optimizer.eps"), "optimizer.eps"),
            "weight_decay": _number(_field(o, "optimizer.weight_decay"), "optimizer.weight_decay"),
            "entries": entries,
        }
    return cp
