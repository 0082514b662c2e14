"""Bit-exact checkpoint persistence.

A checkpoint is a directory: ``manifest.json`` plus raw little-endian
float64 blobs (``student.bin``, optionally ``teacher.bin`` and
``optim.bin``).  Every blob is described by one list of ``{name, shape,
offset}`` entries in the manifest (student entries also carry their
component), so loading is language-neutral and save -> load -> save
reproduces the directory byte for byte.  Next to each list sits the
SHA-256 of the blob's bytes (``sha256``, ``teacher.sha256``,
``optimizer.sha256``); loading verifies it, so a damaged blob of the right
length is rejected rather than loaded.  Every teacher array must match a
student entry's name and shape.  The optimizer is stored as AdamW holds it:
one ``{component, lr, step_count}`` entry per stepped component, and its
flat moments ``<component>/m`` and ``<component>/v``, each of the
component's size, in entry order; its ``betas`` and ``eps`` must be
AdamW's constants.  The manifest's one schema is the private
records below: saving writes them, and loading decodes them by the config
rules (:func:`cyclictrain.config._from_dict`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import _from_dict
from .engine import TeacherState
from .model import MultiTaskModel
from .optim import BETAS, EPS, AdamW, AdamWState

__all__ = ["CheckpointError", "Checkpoint", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 4


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
    optimizer: AdamW | None = None  # the stored per-component states, no ``lr_for``


@dataclass(frozen=True)
class _Entry:
    name: str
    shape: tuple[int, ...]
    offset: int  # in elements, from the start of the blob

    def __post_init__(self):
        if any(d < 0 for d in self.shape):
            raise ValueError(f"shape {list(self.shape)} has a negative dimension")


@dataclass(frozen=True)
class _StudentEntry(_Entry):
    component: str


@dataclass(frozen=True)
class _Teacher:
    momentum: float
    params: tuple[_Entry, ...]
    sha256: str

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum {self.momentum!r} is not in [0, 1]")


@dataclass(frozen=True)
class _OptimizerEntry:
    component: str
    lr: float
    step_count: int

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr {self.lr!r} is not a finite number >= 0")
        if self.step_count < 1:
            raise ValueError(f"step_count {self.step_count!r} is not >= 1")


@dataclass(frozen=True)
class _Optimizer:
    betas: tuple[float, float]
    eps: float
    weight_decay: float
    # a list, not a dict: json.dump sorts dict keys, and the order read
    # back here is the order of optim.bin on the next save
    entries: tuple[_OptimizerEntry, ...]
    params: tuple[_Entry, ...]
    sha256: str

    def __post_init__(self):
        # AdamW's constants; a format 4 manifest still records them
        if self.betas != BETAS:
            raise ValueError(f"betas {self.betas} are not AdamW's {BETAS}")
        if self.eps != EPS:
            raise ValueError(f"eps {self.eps!r} is not AdamW's {EPS}")


@dataclass(frozen=True)
class _Manifest:
    format_version: int
    config_hash: str
    weights_kind: str
    counters: dict[str, int]
    total_elements: int
    params: tuple[_StudentEntry, ...]
    sha256: str
    teacher: _Teacher | None = None  # an absent section is left out of the file
    optimizer: _Optimizer | None = None


def _blob_entries(arrays: dict[str, np.ndarray], components: dict[str, str] | None = None):
    entries = []
    offset = 0
    for name, arr in arrays.items():
        if components is None:
            entries.append(_Entry(name, arr.shape, offset))
        else:
            entries.append(_StudentEntry(name, arr.shape, offset, components[name]))
        offset += arr.size
    return tuple(entries)


def _write_blob(directory: str, label: str, arrays: dict[str, np.ndarray]) -> str:
    """Write the arrays back to back; returns the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(os.path.join(directory, label), "wb") as f:
        for arr in arrays.values():
            raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            digest.update(raw)
            f.write(raw)
    return digest.hexdigest()


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
    end = 0
    for e in entries:
        if e.name in out:
            raise CheckpointError(f"{label}: parameter '{e.name}' is listed twice")
        if e.offset != end:
            raise CheckpointError(f"{label}: parameter '{e.name}' declared at offset "
                                  f"{e.offset}, expected {end}")
        end += math.prod(e.shape)
        if end > flat.size:
            raise CheckpointError(f"{label}: parameter '{e.name}' at offset {e.offset} needs "
                                  f"{end - e.offset} elements but blob holds {flat.size}")
        out[e.name] = flat[e.offset:end].reshape(e.shape).astype(np.float64)
    if end != flat.size:
        raise CheckpointError(
            f"{label}: blob holds {flat.size} elements, manifest accounts for {end}")
    actual = hashlib.sha256(raw).hexdigest()
    if actual != sha256:
        raise CheckpointError(f"{label}: SHA-256 {actual} does not match the manifest's {sha256}")
    return out


def _match_student(label, arrays, student) -> None:
    """Every array must have the shape of the student entry of its name."""
    for name, a in arrays.items():
        entry = student.get(name)
        if entry is None:
            raise CheckpointError(f"{label}: '{name}' matches no student entry")
        if a.shape != entry.shape:
            raise CheckpointError(f"{label}: '{name}' has shape {list(a.shape)}, its student "
                                  f"entry {list(entry.shape)}")


def _optimizer_state(entries, moments: dict[str, np.ndarray], params) -> dict[str, AdamWState]:
    """One :class:`AdamWState` per entry, from its component's flat moments."""
    sizes: dict[str, int] = {}  # component -> the sum of its student entries
    for e in params:
        sizes[e.component] = sizes.get(e.component, 0) + math.prod(e.shape)
    listed: dict[str, _OptimizerEntry] = {}  # component -> its entry
    for i, e in enumerate(entries):
        if e.component not in sizes or e.component in listed:
            why = "is listed twice" if e.component in listed else "is no student component"
            raise CheckpointError(f"manifest.json: optimizer.entries[{i}]: '{e.component}' {why}")
        listed[e.component] = e
    names = (f"{c}/{k}" for c in listed for k in "mv")
    for i, (have, want) in enumerate(itertools.zip_longest(moments, names)):
        if have != want:
            raise CheckpointError(f"manifest.json: optimizer.params[{i}] is {have!r}, expected "
                                  f"{want!r}: each entry's m and then its v, in entry order")
        size = sizes[have.rpartition("/")[0]]
        if moments[have].shape != (size,):
            raise CheckpointError(f"optim.bin: '{have}' has shape {list(moments[have].shape)}, "
                                  f"its component [{size}]")
    return {c: AdamWState(e.lr, e.step_count, moments[f"{c}/m"], moments[f"{c}/v"])
            for c, e in listed.items()}


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
    export); :meth:`ModelGraph.conform` admits it, so a missing parameter or
    one of another shape is a ``ValueError`` and nothing is written.  So is
    a teacher entry unlike its student parameter (:meth:`TeacherState.check`),
    and an optimizer state for a component the model lacks or of another
    size.  The optimizer's states are written as they are held, in ``state``
    order.
    """
    arrays = model.graph.arrays() if weights is None else model.graph.conform(weights)
    components = {p.name: p.component for p in model.graph.parameters()}
    if teacher is not None:
        teacher.check(model)
    if optimizer is not None:
        sizes = model.graph.count_by_component()
        for component, st in optimizer.state.items():
            if component not in sizes:
                raise ValueError(f"optimizer state for component '{component}', which the "
                                 "model lacks")
            st.check_size(component, sizes[component])
    os.makedirs(directory, exist_ok=True)
    teacher_section = optimizer_section = None
    if teacher is not None:
        teacher_section = _Teacher(teacher.momentum, _blob_entries(teacher.params),
                                   _write_blob(directory, "teacher.bin", teacher.params))
    if optimizer is not None:
        state = optimizer.state
        moments = {f"{c}/{k}": getattr(st, k) for c, st in state.items() for k in "mv"}
        optimizer_section = _Optimizer(
            betas=BETAS, eps=EPS, weight_decay=optimizer.weight_decay,
            entries=tuple(_OptimizerEntry(c, st.lr, st.step_count) for c, st in state.items()),
            params=_blob_entries(moments), sha256=_write_blob(directory, "optim.bin", moments))
    manifest = _Manifest(
        format_version=FORMAT_VERSION, config_hash=config_hash, weights_kind=weights_kind,
        counters=dict(counters or {}), total_elements=sum(a.size for a in arrays.values()),
        params=_blob_entries(arrays, components),
        sha256=_write_blob(directory, "student.bin", arrays),
        teacher=teacher_section, optimizer=optimizer_section)
    record = {k: v for k, v in dataclasses.asdict(manifest).items() if v is not None}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(directory: str) -> Checkpoint:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"no manifest at {manifest_path}")
    except json.JSONDecodeError as e:
        raise CheckpointError(f"manifest is not valid JSON: {e}")
    if isinstance(data, dict) and data.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {data.get('format_version')!r}")
    try:
        m = _from_dict(_Manifest, data, "")
    except ValueError as e:
        raise CheckpointError(f"manifest.json: {e}") from None
    if not m.params:
        raise CheckpointError("manifest.json: params: a checkpoint holds at least one parameter")
    arrays = _read_blob(directory, "student.bin", m.params, m.sha256)
    actual = sum(a.size for a in arrays.values())
    if m.total_elements != actual:
        raise CheckpointError(f"manifest declares {m.total_elements} elements, blob holds {actual}")
    cp = Checkpoint(arrays, {e.name: e.component for e in m.params}, m.counters,
                    m.config_hash, m.weights_kind)
    if m.teacher is not None:
        cp.teacher_momentum = m.teacher.momentum
        cp.teacher_arrays = _read_blob(directory, "teacher.bin", m.teacher.params,
                                       m.teacher.sha256)
        _match_student("teacher.bin", cp.teacher_arrays, arrays)
    if m.optimizer is not None:
        o = m.optimizer
        moments = _read_blob(directory, "optim.bin", o.params, o.sha256)
        try:
            cp.optimizer = AdamW(weight_decay=o.weight_decay)
        except ValueError as e:
            raise CheckpointError(f"manifest.json: optimizer: {e}") from None
        cp.optimizer.state = _optimizer_state(o.entries, moments, m.params)
    return cp
