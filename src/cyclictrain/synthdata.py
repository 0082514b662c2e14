"""Deterministic generator of small multi-task shape datasets.

Images are grayscale squares with background noise and 0-3 bright shapes
(ellipse, rectangle, ring).  Each dataset declares which annotation types it
carries; samples then hold exactly those: a multi-hot label vector, tight
bounding boxes, and/or per-class binary masks.  Everything is seeded, and
every sample derives its own child seed, so regeneration is bit-identical
and per-image generation could run in parallel.  :func:`save_dataset` is a
write-only export (``gen-data``): the program regenerates, never reloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .losses import BoxTarget
from .model import TASKS, DatasetModelSpec

__all__ = [
    "SHAPE_GENERATORS",
    "MIN_IMAGE_SIZE",
    "SynthDatasetSpec",
    "SynthSample",
    "derive_seed",
    "generate_dataset",
    "flip_sample",
    "augment",
    "split",
    "FewShotError",
    "few_shot_subset",
    "sample_classes",
    "subtask_samples",
    "annotation_arrays",
    "save_dataset",
    "preset_cls_only",
    "preset_cls_loc",
    "preset_cls_loc_seg",
    "preset_organ_pairs",
    "preset_loc_only",
]

SHAPE_GENERATORS = ("ellipse", "rectangle", "ring")
MIN_IMAGE_SIZE = 12
SPLIT_FRACTIONS = (0.70, 0.10, 0.20)  # train, val, test
DATASET_FORMAT_VERSION = 1
AUGMENT_NOISE = 0.05  # sd of the Gaussian pixel noise :func:`augment` adds


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from arbitrary hashable parts (SHA-256 based)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class SynthDatasetSpec:
    """Recipe for one dataset: size, shapes, annotation types, seed."""

    dataset_id: str
    num_images: int
    tasks: tuple[str, ...]
    image_size: int = 32
    shape_classes: tuple[str, ...] = SHAPE_GENERATORS
    seed: int = 0
    min_instances: int = 0
    max_instances: int = 3
    subtasks: tuple[str, ...] = ()
    round_robin_classes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "shape_classes", tuple(self.shape_classes))
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        if self.num_images < 1:
            raise ValueError("num_images must be >= 1")
        if not self.tasks:
            raise ValueError("tasks must be nonempty")
        bad = set(self.tasks) - set(TASKS)
        if bad:
            raise ValueError(f"unknown tasks {sorted(bad)}")
        if self.image_size < MIN_IMAGE_SIZE:
            raise ValueError(
                f"image_size {self.image_size} too small to fit the minimum "
                f"shape (need >= {MIN_IMAGE_SIZE})"
            )
        unknown = set(self.shape_classes) - set(SHAPE_GENERATORS)
        if unknown:
            raise ValueError(f"unknown shape generators {sorted(unknown)}")
        repeated = sorted({s for s in self.shape_classes if self.shape_classes.count(s) > 1})
        if repeated:
            raise ValueError(f"shape_classes repeats {repeated}: each class needs its own shape")
        if not (0 <= self.min_instances <= self.max_instances <= 3):
            raise ValueError("instance counts must satisfy 0 <= min <= max <= 3")
        if set(self.subtasks) - set(self.shape_classes):
            raise ValueError("subtasks must name shape classes of this dataset")

    @property
    def num_classes(self) -> int:
        return len(self.shape_classes)

    def model_spec(self) -> DatasetModelSpec:
        n = self.num_classes
        return DatasetModelSpec(
            dataset_id=self.dataset_id,
            cls_classes=n if "cls" in self.tasks else None,
            loc_classes=n if "loc" in self.tasks else None,
            seg_classes=n if "seg" in self.tasks else None,
        )


@dataclass(frozen=True)
class SynthSample:
    """One image with whatever annotations its dataset declares."""

    sample_id: int
    image: np.ndarray
    labels: np.ndarray | None = None
    boxes: BoxTarget | None = None
    mask: np.ndarray | None = None


def _shape_support(kind: str, size: int, cx: int, cy: int, rx: int, ry: int) -> np.ndarray:
    # a (size, 1) column and a (size,) row: each expression broadcasts them
    # to the (size, size) grid, with np.mgrid's per-element arithmetic
    yy = np.arange(size)[:, None]
    xx = np.arange(size)
    if kind == "ellipse":
        return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    if kind == "rectangle":
        return (np.abs(xx - cx) <= rx) & (np.abs(yy - cy) <= ry)
    if kind == "ring":
        outer = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        inner = ((xx - cx) / (0.55 * rx)) ** 2 + ((yy - cy) / (0.55 * ry)) ** 2 <= 1.0
        return outer & ~inner
    raise ValueError(f"unknown shape kind '{kind}'")


def _tight_box(support: np.ndarray, size: int) -> tuple[float, float, float, float]:
    rows = np.flatnonzero(support.any(axis=1))
    cols = np.flatnonzero(support.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    cx = (c0 + c1 + 1) / 2.0 / size
    cy = (r0 + r1 + 1) / 2.0 / size
    w = (c1 - c0 + 1) / size
    h = (r1 - r0 + 1) / size
    return (cx, cy, w, h)


_RS = np.random.RandomState(0)


def _reseeded(seed: int) -> np.random.RandomState:
    """The module's one generator, reseeded: the stream of ``RandomState(seed)``.

    ``.seed`` costs microseconds where building a ``RandomState`` costs
    about 200 µs (it first seeds from OS entropy), and this runs once per
    generated or augmented sample.  Every call reseeds the same object, so
    the generator must not leave the function that seeded it, and two
    threads must not generate or augment at once.
    """
    _RS.seed(seed)
    return _RS


def _generate_sample(spec: SynthDatasetSpec, index: int) -> SynthSample:
    rs = _reseeded(derive_seed(spec.seed, "image", index))
    size = spec.image_size
    image = rs.uniform(0.0, 0.2, (size, size))
    n_instances = int(rs.randint(spec.min_instances, spec.max_instances + 1))
    r_min = max(3, size // 8)
    r_max = max(r_min + 1, round(size * 0.22))
    instance_classes: list[int] = []
    instance_supports: list[np.ndarray] = []
    placed: list[tuple[int, int, int, int]] = []
    for j in range(n_instances):
        if spec.round_robin_classes:
            c = (index + j) % spec.num_classes
        else:
            c = int(rs.randint(spec.num_classes))
        # rejection-sample a placement that avoids earlier instances so
        # blended shapes do not scramble the class evidence; give up after a
        # few tries and allow the overlap
        for _ in range(8):
            rx = int(rs.randint(r_min, r_max + 1))
            ry = int(rs.randint(r_min, r_max + 1))
            cx = int(rs.randint(rx + 1, size - rx - 1))
            cy = int(rs.randint(ry + 1, size - ry - 1))
            clear = all(
                abs(cx - px) > (rx + prx) * 0.8 or abs(cy - py) > (ry + pry) * 0.8
                for px, py, prx, pry in placed
            )
            if clear:
                break
        placed.append((cx, cy, rx, ry))
        intensity = rs.uniform(0.55, 0.95)
        support = _shape_support(spec.shape_classes[c], size, cx, cy, rx, ry)
        image = np.maximum(image, support * intensity)
        instance_classes.append(c)
        instance_supports.append(support)

    labels = None
    if "cls" in spec.tasks:
        labels = np.zeros(spec.num_classes, dtype=np.int64)
        for c in instance_classes:
            labels[c] = 1
    boxes = None
    if "loc" in spec.tasks:
        box_list = [_tight_box(s, size) for s in instance_supports]
        boxes = BoxTarget(
            boxes=np.asarray(box_list, dtype=np.float64).reshape(-1, 4),
            class_ids=np.asarray(instance_classes, dtype=np.int64),
        )
    mask = None
    if "seg" in spec.tasks:
        mask = np.zeros((spec.num_classes, size, size), dtype=np.uint8)
        for c, s in zip(instance_classes, instance_supports):
            mask[c] |= s.astype(np.uint8)
    return SynthSample(sample_id=index, image=image, labels=labels, boxes=boxes, mask=mask)


def generate_dataset(spec: SynthDatasetSpec) -> list[SynthSample]:
    """Materialize the dataset; bit-identical for the same spec."""
    return [_generate_sample(spec, i) for i in range(spec.num_images)]


def sample_classes(sample: SynthSample) -> set[int]:
    """Class indices present in a sample, from whichever annotation exists."""
    if sample.labels is not None:
        return {int(c) for c in np.flatnonzero(sample.labels)}
    if sample.boxes is not None:
        return {int(c) for c in sample.boxes.class_ids}
    if sample.mask is not None:
        return {int(c) for c in range(sample.mask.shape[0]) if sample.mask[c].any()}
    return set()


def subtask_samples(samples, spec: SynthDatasetSpec, subtask: str | None):
    """Samples containing the subtask's class (all samples when no subtask)."""
    if subtask is None:
        return list(samples)
    c = spec.shape_classes.index(subtask)
    return [s for s in samples if c in sample_classes(s)]


# ---------------------------------------------------------------------------
# augmentation


def flip_sample(sample: SynthSample) -> SynthSample:
    """Horizontal mirror with boxes and masks flipped consistently."""
    image = sample.image[:, ::-1].copy()
    boxes = None
    if sample.boxes is not None:
        b = sample.boxes.boxes.copy()
        if len(b):
            b[:, 0] = 1.0 - b[:, 0]
        boxes = BoxTarget(boxes=b, class_ids=sample.boxes.class_ids.copy())
    mask = sample.mask[:, :, ::-1].copy() if sample.mask is not None else None
    labels = sample.labels.copy() if sample.labels is not None else None
    return SynthSample(sample.sample_id, image, labels, boxes, mask)


def augment(sample: SynthSample, epoch_seed: int) -> SynthSample:
    """Flip with probability 0.5 plus Gaussian pixel noise of sd ``AUGMENT_NOISE``.

    Deterministic per (sample, epoch_seed); geometry annotations follow the
    flip, labels never change.
    """
    rs = _reseeded(derive_seed(epoch_seed, "augment", sample.sample_id))
    out = flip_sample(sample) if rs.rand() < 0.5 else sample
    noisy = out.image + rs.normal(0.0, AUGMENT_NOISE, out.image.shape)
    return replace(out, image=np.clip(noisy, 0.0, 1.0))


# ---------------------------------------------------------------------------
# splits


def split(samples, seed: int = 0):
    """Disjoint, exhaustive (train, val, test) partition in ``SPLIT_FRACTIONS``."""
    n = len(samples)
    if n < 3:
        raise ValueError(f"dataset of {n} samples is too small to split")
    perm = np.random.RandomState(seed & 0xFFFFFFFF).permutation(n)
    n_train = int(math.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(math.floor(SPLIT_FRACTIONS[1] * n))
    train = [samples[i] for i in perm[:n_train]]
    val = [samples[i] for i in perm[n_train : n_train + n_val]]
    test = [samples[i] for i in perm[n_train + n_val :]]
    return train, val, test


class FewShotError(ValueError):
    """A few-shot k outside 1..the size of the training split."""


def few_shot_subset(train_split, k: int, seed: int = 0):
    """k distinct training samples, deterministic per seed; 1 <= k <= the split size."""
    n = len(train_split)
    if not 1 <= k <= n:
        raise FewShotError(f"requested {k} samples from a training split of {n}; "
                           f"k must lie in 1..{n}")
    perm = np.random.RandomState(seed & 0xFFFFFFFF).permutation(n)
    return [train_split[i] for i in perm[:k]]


def stratified_split(samples, spec: SynthDatasetSpec, seed: int = 0):
    """Split each subtask's samples separately so none vanishes from a split.

    Samples matching zero or several subtasks form their own remainder
    stratum.  Without declared subtasks this is a plain :func:`split`.
    """
    if not spec.subtasks:
        return split(samples, seed)
    strata: dict[str, list] = {st: [] for st in spec.subtasks}
    remainder: list = []
    for s in samples:
        present = sample_classes(s)
        matches = [st for st in spec.subtasks if spec.shape_classes.index(st) in present]
        if len(matches) == 1:
            strata[matches[0]].append(s)
        else:
            remainder.append(s)
    train: list = []
    val: list = []
    test: list = []
    for i, (name, group) in enumerate([*strata.items(), ("", remainder)]):
        if not group:
            continue
        if len(group) < 3:
            train += group  # too small to carve a val/test share from
            continue
        tr, va, te = split(group, seed=derive_seed(seed, "stratum", name, i))
        train += tr
        val += va
        test += te
    return train, val, test


# ---------------------------------------------------------------------------
# on-disk form: raw little-endian arrays plus a manifest


def annotation_arrays(spec: SynthDatasetSpec, samples) -> dict[str, np.ndarray]:
    """Ground truth of the declared tasks as flat little-endian arrays.

    ``labels`` is ``(n, C)`` and ``masks`` ``(n, C, H, W)``, both ``<i8``.
    Boxes are concatenated in sample order: ``boxes`` ``(total, 4)`` ``<f8``,
    ``box_classes`` ``(total,)`` ``<i8``, and ``box_counts`` ``(n,)`` ``<i8``
    says how many rows belong to each sample.  No samples give zero rows.
    """
    n, c, size = len(samples), spec.num_classes, spec.image_size
    arrays: dict[str, np.ndarray] = {}
    if "cls" in spec.tasks:
        arrays["labels"] = np.array([s.labels for s in samples], dtype="<i8").reshape(n, c)
    if "seg" in spec.tasks:
        arrays["masks"] = np.array([s.mask for s in samples], dtype="<i8").reshape(n, c, size, size)
    if "loc" in spec.tasks:
        arrays["box_counts"] = np.array([len(s.boxes) for s in samples], dtype="<i8")
        arrays["boxes"] = np.concatenate(
            [np.zeros((0, 4), "<f8")] + [s.boxes.boxes for s in samples]
        ).astype("<f8")
        arrays["box_classes"] = np.concatenate(
            [np.zeros(0, "<i8")] + [s.boxes.class_ids for s in samples]
        ).astype("<i8")
    return arrays


def save_dataset(directory: str, spec: SynthDatasetSpec, samples) -> None:
    """Export ``images`` ``(n, H, W)`` ``<f8`` and :func:`annotation_arrays`.

    Each array is written raw to ``<name>.bin``; ``manifest.json`` holds the
    spec and each array's ``file``, ``dtype`` and ``shape``.
    """
    os.makedirs(directory, exist_ok=True)
    arrays = {
        "images": np.stack([s.image for s in samples]).astype("<f8"),
        **annotation_arrays(spec, samples),
    }
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "spec": asdict(spec),
        "arrays": {
            name: {"file": f"{name}.bin", "dtype": str(a.dtype), "shape": list(a.shape)}
            for name, a in arrays.items()
        },
    }
    for name, a in arrays.items():
        with open(os.path.join(directory, f"{name}.bin"), "wb") as f:
            f.write(np.ascontiguousarray(a).tobytes())
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# presets mirroring the three annotation-availability archetypes


def preset_cls_only(dataset_id="labels_only", num_images=200, seed=101) -> SynthDatasetSpec:
    return SynthDatasetSpec(
        dataset_id=dataset_id,
        num_images=num_images,
        tasks=("cls",),
        seed=seed,
    )


def preset_cls_loc(dataset_id="labels_boxes", num_images=200, seed=202) -> SynthDatasetSpec:
    return SynthDatasetSpec(
        dataset_id=dataset_id,
        num_images=num_images,
        tasks=("cls", "loc"),
        min_instances=1,
        max_instances=2,
        seed=seed,
    )


def preset_cls_loc_seg(dataset_id="labels_boxes_masks", num_images=200, seed=303) -> SynthDatasetSpec:
    return SynthDatasetSpec(
        dataset_id=dataset_id,
        num_images=num_images,
        tasks=("cls", "loc", "seg"),
        min_instances=1,
        max_instances=2,
        seed=seed,
    )


def preset_organ_pairs(dataset_id="organ_pairs", num_images=48, seed=404) -> SynthDatasetSpec:
    """Localization+segmentation dataset split into three per-class subtasks.

    Every image holds exactly one instance, classes assigned round robin, so
    the three subtasks partition the data into equal thirds.
    """
    return SynthDatasetSpec(
        dataset_id=dataset_id,
        num_images=num_images,
        tasks=("loc", "seg"),
        min_instances=1,
        max_instances=1,
        subtasks=SHAPE_GENERATORS,
        round_robin_classes=True,
        seed=seed,
    )


def preset_loc_only(dataset_id="boxes_only", num_images=160, seed=505) -> SynthDatasetSpec:
    return SynthDatasetSpec(
        dataset_id=dataset_id,
        num_images=num_images,
        tasks=("loc",),
        shape_classes=("ellipse", "rectangle"),
        min_instances=1,
        max_instances=1,
        seed=seed,
    )
