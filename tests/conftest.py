import json
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from cyclictrain.metrics import Detections
from cyclictrain.model import ArchConfig

# a 16-px model small enough for per-test training runs
TINY_ARCH = ArchConfig(image_size=16, stage_channels=(4, 6, 8), loc_channels=8,
                       query_dim=8, loc_grid=4, seg_channels=(6, 4))

# one predicted box, for the brute-force mAP oracles
Det = namedtuple("Det", "image_id box class_id confidence")


def numeric_gradient(loss_fn, tensor, step=1e-5):
    """Central finite differences of a scalar loss w.r.t. one tensor.

    Independent oracle: perturbs raw array entries and re-evaluates the loss,
    never touching the backward machinery.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = loss_fn().item()
        flat[i] = orig - step
        minus = loss_fn().item()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * step)
    return grad


def tape_nodes(root) -> list:
    """Every node reachable from ``root`` through the recorded parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def max_rel_error(analytic, numeric):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture
def rs():
    return np.random.RandomState(1234)


def columns(dets):
    """``Detections`` columns of a sequence of ``Det``, in its order."""
    return Detections(
        image_ids=np.array([d.image_id for d in dets], dtype=np.int64),
        boxes=np.array([d.box for d in dets], dtype=np.float64).reshape(len(dets), 4),
        class_ids=np.array([d.class_id for d in dets], dtype=np.int64),
        confidences=np.array([d.confidence for d in dets], dtype=np.float64),
    )


def read_export(directory):
    """A ``save_dataset`` directory read as README describes it: the manifest,
    then each array from its ``file`` by its ``dtype`` and ``shape``."""
    manifest = json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))
    arrays = {name: np.fromfile(Path(directory) / a["file"], dtype=a["dtype"]).reshape(a["shape"])
              for name, a in manifest["arrays"].items()}
    return manifest, arrays


def run_bytes(student, teacher, optimizer):
    """Student and teacher arrays by name and AdamW's state per component, in
    first-step order, as raw bytes: two runs compare equal only bit for bit."""
    def raw(arrays):
        return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}

    return (raw(student), raw(teacher),
            [(c, st.lr, st.step_count, st.m.tobytes(), st.v.tobytes())
             for c, st in optimizer.state.items()])
