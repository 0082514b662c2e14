import hashlib
import json

import numpy as np
import pytest

from cyclictrain.synthdata import (
    SynthDatasetSpec,
    augment,
    few_shot_subset,
    flip_sample,
    generate_dataset,
    load_dataset,
    preset_cls_loc_seg,
    preset_organ_pairs,
    sample_classes,
    save_dataset,
    split,
    subtask_samples,
)


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
        a = augment(s, epoch_seed=33, noise_level=0.05)
        b = augment(s, epoch_seed=33, noise_level=0.05)
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
    spec = preset_cls_loc_seg(num_images=12)
    samples = generate_dataset(spec)
    save_dataset(str(tmp_path / "ds"), spec, samples)
    loaded_spec, loaded = load_dataset(str(tmp_path / "ds"))
    assert loaded_spec == spec
    assert len(loaded) == len(samples)
    assert all(_images_equal(a, b) for a, b in zip(samples, loaded))


def _saved(tmp_path):
    spec = preset_cls_loc_seg(num_images=4)
    directory = tmp_path / "ds"
    save_dataset(str(directory), spec, generate_dataset(spec))
    return directory


def test_load_rejects_an_unknown_format_version(tmp_path):
    directory = _saved(tmp_path)
    mpath = directory / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = 99
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: unsupported format version 99"):
        load_dataset(str(directory))


def test_load_rejects_a_truncated_array_file(tmp_path):
    directory = _saved(tmp_path)
    path = directory / "images.bin"
    path.write_bytes(path.read_bytes()[:-8])  # one float64 short
    with pytest.raises(ValueError, match=r"images\.bin: 32760 bytes, but shape \[4, 32, 32\]"):
        load_dataset(str(directory))


def _drop(key):
    def edit(manifest):
        del manifest[key]
    return edit


def _set_spec(key, value):
    def edit(manifest):
        manifest["spec"][key] = value
    return edit


def _set_array(name, value):
    def edit(manifest):
        manifest["arrays"][name] = value
    return edit


def _drop_array(name):
    def edit(manifest):
        del manifest["arrays"][name]
    return edit


ALL_ARRAYS = ["box_classes", "box_counts", "boxes", "images", "labels", "masks"]


def _set_image_entry(key, value):
    def edit(manifest):
        manifest["arrays"]["images"][key] = value
    return edit


@pytest.mark.parametrize("edit, where", [
    (_drop("spec"), "spec: required key missing"),
    (_drop("arrays"), "arrays: required key missing"),
    (_set_spec("colour", "red"), "spec.colour: unknown key"),
    (_set_spec("num_images", "4"), "spec.num_images: expected int, got str"),
    (_set_spec("tasks", "loc"), "spec.tasks: expected list, got str"),
    (_set_spec("tasks", ["loc", "box"]), "spec: unknown tasks ['box']"),
    (_set_array("images", "images.bin"), "arrays.images: expected an object"),
    (_set_image_entry("dtype", "float99"), "arrays.images: dtype 'float99' is not a numpy dtype"),
    (_set_image_entry("dtype", 8), "arrays.images.dtype: expected str, got int"),
    (_set_image_entry("file", None), "arrays.images.file: expected str, got NoneType"),
    (_set_image_entry("shape", [4, "32", 32]), "arrays.images.shape[1]: expected int, got str"),
    (lambda manifest: [manifest], "top level: expected an object"),
    (_drop_array("images"), f"arrays: expected {ALL_ARRAYS}, got {ALL_ARRAYS[:3] + ALL_ARRAYS[4:]}"),
    (_drop_array("box_counts"), f"arrays: expected {ALL_ARRAYS}, got {ALL_ARRAYS[:1] + ALL_ARRAYS[2:]}"),
    (_drop_array("labels"), f"arrays: expected {ALL_ARRAYS}, got {ALL_ARRAYS[:4] + ALL_ARRAYS[5:]}"),
    (_set_array("extra", {"file": "images.bin", "dtype": "<f8", "shape": [4, 32, 32]}),
     f"arrays: expected {ALL_ARRAYS}, got {sorted(ALL_ARRAYS + ['extra'])}"),
    (_set_spec("num_images", 9), "arrays.images: shape [4, 32, 32] does not have 9 rows"),
], ids=["no-spec", "no-arrays", "unknown-spec-key", "num-images-a-string", "tasks-a-string",
        "unknown-task", "entry-a-string", "bad-dtype", "dtype-a-number", "file-null",
        "shape-of-a-string", "manifest-a-list", "no-images", "no-box-counts", "no-labels",
        "extra-array", "more-images-than-rows"])
def test_load_rejects_a_bad_manifest_naming_its_path(tmp_path, edit, where):
    directory = _saved(tmp_path)
    mpath = directory / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest = edit(manifest) or manifest  # an edit may return a whole new manifest
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as info:
        load_dataset(str(directory))
    assert str(info.value) == f"{mpath}: {where}"


def test_load_rejects_box_counts_that_disagree_with_the_box_rows(tmp_path):
    directory = _saved(tmp_path)
    counts_path = directory / "box_counts.bin"
    counts = np.frombuffer(counts_path.read_bytes(), dtype="<i8").copy()
    rows = int(counts.sum())
    counts[0] += 1
    counts_path.write_bytes(counts.tobytes())
    with pytest.raises(ValueError) as info:
        load_dataset(str(directory))
    assert str(info.value) == (f"{directory / 'manifest.json'}: arrays.boxes: shape "
                               f"[{rows}, 4] does not have {rows + 1} rows")


def test_load_rejects_a_negative_box_count(tmp_path):
    # the same sum, so the row check alone would pass and sample 0 would
    # take boxes[0:-1]
    directory = _saved(tmp_path)
    counts_path = directory / "box_counts.bin"
    counts = np.frombuffer(counts_path.read_bytes(), dtype="<i8")
    assert counts.tolist() == [2, 2, 1, 2]
    counts_path.write_bytes(np.array([-1, 5, 1, 2], dtype="<i8").tobytes())
    with pytest.raises(ValueError) as info:
        load_dataset(str(directory))
    assert str(info.value) == (f"{directory / 'manifest.json'}: arrays.box_counts: "
                               f"negative count -1")
