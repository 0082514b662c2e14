import hashlib

import numpy as np
import pytest

from cyclictrain.synthdata import (
    SynthDatasetSpec,
    annotation_arrays,
    augment,
    few_shot_subset,
    flip_sample,
    generate_dataset,
    preset_cls_loc_seg,
    preset_organ_pairs,
    sample_classes,
    save_dataset,
    split,
    subtask_samples,
)

from conftest import read_export


def _spec(**kw):
    base = dict(dataset_id="t", num_images=20, tasks=("cls", "loc", "seg"),
                min_instances=0, max_instances=3, seed=7)
    base.update(kw)
    return SynthDatasetSpec(**base)


def _images_equal(a, b):
    if (a.labels is None) != (b.labels is None):
        return False
    ok = np.array_equal(a.image, b.image)
    if a.labels is not None:
        ok &= np.array_equal(a.labels, b.labels)
    if a.boxes is not None:
        ok &= np.array_equal(a.boxes.boxes, b.boxes.boxes)
        ok &= np.array_equal(a.boxes.class_ids, b.boxes.class_ids)
    if a.mask is not None:
        ok &= np.array_equal(a.mask, b.mask)
    return ok


# ---------------------------------------------------------------------------
# generation


def test_generation_is_bit_identical():
    a = generate_dataset(_spec())
    b = generate_dataset(_spec())
    assert len(a) == len(b) == 20
    assert all(_images_equal(x, y) for x, y in zip(a, b))


def test_annotations_present_exactly_for_declared_tasks():
    for tasks in (("cls",), ("loc",), ("seg",), ("cls", "seg")):
        for s in generate_dataset(_spec(tasks=tasks, num_images=6)):
            assert (s.labels is not None) == ("cls" in tasks)
            assert (s.boxes is not None) == ("loc" in tasks)
            assert (s.mask is not None) == ("seg" in tasks)


def test_labels_match_instance_presence():
    for s in generate_dataset(_spec(num_images=30)):
        present = {int(c) for c in s.boxes.class_ids}
        assert set(np.flatnonzero(s.labels)) == present
        for c in range(s.mask.shape[0]):
            assert bool(s.mask[c].any()) == (c in present)


def test_boxes_are_tight_around_mask_support():
    """Shrinking any box side by one pixel must exclude mask pixels."""
    spec = _spec(num_images=25, min_instances=1)
    for s in generate_dataset(spec):
        size = spec.image_size
        for box, c in zip(s.boxes.boxes, s.boxes.class_ids):
            cx, cy, w, h = box
            c0 = round(cx * size - w * size / 2)
            c1 = round(cx * size + w * size / 2) - 1
            r0 = round(cy * size - h * size / 2)
            r1 = round(cy * size + h * size / 2) - 1
            sub = s.mask[c][r0 : r1 + 1, c0 : c1 + 1]
            assert sub.any()
            # the border rows/columns of the class mask inside the box are occupied
            assert s.mask[c][r0, c0 : c1 + 1].any() or s.mask[c][r0 + 1 :, :].any()
            assert s.mask[c][r0, :].any() and s.mask[c][r1, :].any()
            assert s.mask[c][:, c0].any() and s.mask[c][:, c1].any()


def test_mask_support_inside_box_union():
    spec = _spec(num_images=20, min_instances=1)
    size = spec.image_size
    for s in generate_dataset(spec):
        covered = np.zeros((size, size), dtype=bool)
        for box in s.boxes.boxes:
            cx, cy, w, h = box
            c0 = round(cx * size - w * size / 2)
            c1 = round(cx * size + w * size / 2)
            r0 = round(cy * size - h * size / 2)
            r1 = round(cy * size + h * size / 2)
            covered[r0:r1, c0:c1] = True
        assert not np.any(s.mask.any(axis=0) & ~covered)


def test_too_small_image_rejected():
    with pytest.raises(ValueError, match="too small"):
        _spec(image_size=8)


def test_repeated_shape_class_rejected():
    with pytest.raises(ValueError, match=r"shape_classes repeats \['ellipse'\]"):
        _spec(tasks=("cls",), shape_classes=("ellipse", "ellipse", "ring"))


def test_instance_count_bounds_enforced():
    with pytest.raises(ValueError, match="instance"):
        _spec(min_instances=2, max_instances=1)
    with pytest.raises(ValueError, match="instance"):
        _spec(max_instances=9)


# ---------------------------------------------------------------------------
# augmentation


def test_double_flip_restores_geometry():
    spec = _spec(num_images=8, min_instances=1)
    for s in generate_dataset(spec):
        back = flip_sample(flip_sample(s))
        assert np.array_equal(back.image, s.image)
        assert np.allclose(back.boxes.boxes, s.boxes.boxes)
        assert np.array_equal(back.mask, s.mask)


def test_flip_reflects_box_centers():
    spec = _spec(num_images=8, min_instances=1)
    for s in generate_dataset(spec):
        flipped = flip_sample(s)
        assert np.allclose(flipped.boxes.boxes[:, 0], 1.0 - s.boxes.boxes[:, 0])
        assert np.array_equal(flipped.boxes.boxes[:, 1:], s.boxes.boxes[:, 1:])


def test_augment_deterministic_and_label_preserving():
    spec = _spec(num_images=10, min_instances=1)
    for s in generate_dataset(spec):
        a = augment(s, epoch_seed=33)
        b = augment(s, epoch_seed=33)
        assert _images_equal(a, b)
        assert np.array_equal(a.labels, s.labels)
        assert a.image.min() >= 0.0 and a.image.max() <= 1.0
        assert np.all(a.boxes.boxes[:, 2:] > 0)
        assert np.all(a.boxes.boxes >= 0.0) and np.all(a.boxes.boxes <= 1.0)


def test_augment_differs_across_epoch_seeds():
    s = generate_dataset(_spec(num_images=1, min_instances=1))[0]
    a = augment(s, epoch_seed=1)
    b = augment(s, epoch_seed=2)
    assert not np.array_equal(a.image, b.image)


def _stream_digest(samples):
    h = hashlib.sha256()
    for s in samples:
        for arr in (s.image, s.labels, s.boxes.boxes, s.boxes.class_ids, s.mask):
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def test_data_stream_is_pinned():
    # any change to the generated or augmented data moves these digests;
    # they are the stream of a RandomState built afresh for every sample
    samples = generate_dataset(preset_cls_loc_seg(num_images=24))
    assert _stream_digest(samples) == (
        "132395b953b51331ddc2d26071ab95ef4bcc4290e328268f09a33e3035936a4d"
    )
    augmented = [augment(s, e) for e in (0, 2**32 - 1) for s in samples]
    assert _stream_digest(augmented) == (
        "8d6fff6acd2dc778f31b29fc1ea9487e35b6fefa6041eb0149e74367561d68ae"
    )


# ---------------------------------------------------------------------------
# splits


def test_split_sizes_70_10_20():
    samples = generate_dataset(_spec(num_images=100))
    train, val, test = split(samples, seed=5)
    assert (len(train), len(val), len(test)) == (70, 10, 20)


def test_split_is_disjoint_exhaustive_partition():
    samples = generate_dataset(_spec(num_images=37))
    train, val, test = split(samples, seed=5)
    ids = [s.sample_id for s in train + val + test]
    assert sorted(ids) == list(range(37))


def test_split_deterministic():
    samples = generate_dataset(_spec(num_images=30))
    a = split(samples, seed=9)
    b = split(samples, seed=9)
    for part_a, part_b in zip(a, b):
        assert [s.sample_id for s in part_a] == [s.sample_id for s in part_b]


def test_split_rejects_tiny_datasets():
    samples = generate_dataset(_spec(num_images=2, min_instances=1))
    with pytest.raises(ValueError, match="too small"):
        split(samples)


def test_few_shot_subset():
    samples = generate_dataset(_spec(num_images=30))
    train, _, _ = split(samples, seed=0)
    assert len(few_shot_subset(train, k=len(train), seed=1)) == len(train)
    three = few_shot_subset(train, k=3, seed=1)
    assert len({s.sample_id for s in three}) == 3
    again = few_shot_subset(train, k=3, seed=1)
    assert [s.sample_id for s in again] == [s.sample_id for s in three]
    for k in (len(train) + 1, 0, -3):
        with pytest.raises(ValueError, match=f"requested {k} samples .* k must lie in 1..{len(train)}"):
            few_shot_subset(train, k=k, seed=1)


# ---------------------------------------------------------------------------
# subtasks


def test_organ_preset_partitions_into_equal_thirds():
    spec = preset_organ_pairs(num_images=48)
    samples = generate_dataset(spec)
    parts = [subtask_samples(samples, spec, st) for st in spec.subtasks]
    assert [len(p) for p in parts] == [16, 16, 16]
    seen = set()
    for p in parts:
        for s in p:
            assert s.sample_id not in seen
            seen.add(s.sample_id)
    assert len(seen) == 48


def test_sample_classes_from_any_annotation():
    spec = _spec(num_images=10, min_instances=1)
    for s in generate_dataset(spec):
        expected = {int(c) for c in s.boxes.class_ids}
        assert sample_classes(s) == expected
    loc_only = generate_dataset(_spec(tasks=("loc",), num_images=5, min_instances=1))
    for s in loc_only:
        assert sample_classes(s) == {int(c) for c in s.boxes.class_ids}
    seg_only = generate_dataset(_spec(tasks=("seg",), num_images=5, min_instances=1))
    for s in seg_only:
        assert sample_classes(s) == {c for c in range(s.mask.shape[0]) if s.mask[c].any()}


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    # read back as README documents the export, with no loader in the package
    for spec in (preset_cls_loc_seg(num_images=12), preset_organ_pairs(num_images=6)):
        samples = generate_dataset(spec)
        save_dataset(str(tmp_path / spec.dataset_id), spec, samples)
        manifest, arrays = read_export(tmp_path / spec.dataset_id)
        assert SynthDatasetSpec(**manifest["spec"]) == spec
        expected = {"images": np.stack([s.image for s in samples]),
                    **annotation_arrays(spec, samples)}
        assert sorted(arrays) == sorted(expected)
        for name, a in expected.items():
            assert manifest["arrays"][name]["file"] == f"{name}.bin"
            assert arrays[name].dtype == a.dtype and np.array_equal(arrays[name], a), name
        assert arrays["box_counts"].sum() == len(arrays["boxes"]) == len(arrays["box_classes"])
