"""Multi-branch model: shared CNN backbone, per-dataset classification heads,
a shared localization encoder with per-dataset query decoders, and a shared
upsampling segmentation decoder with per-dataset pixel heads.

Every parameter belongs to exactly one component.  Components are plain
strings: the shared ones are ``backbone``, ``loc_encoder`` and
``seg_decoder``; per-dataset ones are ``cls_head/<id>``, ``loc_decoder/<id>``
and ``seg_head/<id>``.  Freeze scheduling and parameter accounting both key
off this partition.  The registry keeps each component's parameter values
in one flat float64 buffer of its own, so the optimizer and the checksums
each handle a component as one array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    conv2d,
    matmul,
    maxpool2d,
    permute,
    reshape,
    sigmoid,
)

__all__ = [
    "TASKS",
    "BACKBONE",
    "LOC_ENCODER",
    "SEG_DECODER",
    "BRANCHES",
    "SHARED_COMPONENTS",
    "cls_head_component",
    "loc_decoder_component",
    "seg_head_component",
    "component_kind",
    "component_dataset",
    "Parameter",
    "ModelGraph",
    "ArchConfig",
    "DatasetModelSpec",
    "MultiTaskModel",
    "build_model",
    "trainable_components",
]

TASKS = ("cls", "loc", "seg")

BACKBONE = "backbone"
LOC_ENCODER = "loc_encoder"
SEG_DECODER = "seg_decoder"

# task -> the shared component whose map the task's head reads (cls reads the backbone's)
BRANCHES = {"cls": None, "loc": LOC_ENCODER, "seg": SEG_DECODER}
SHARED_COMPONENTS = (BACKBONE,) + tuple(b for b in BRANCHES.values() if b is not None)


def cls_head_component(dataset_id: str) -> str:
    return f"cls_head/{dataset_id}"


def loc_decoder_component(dataset_id: str) -> str:
    return f"loc_decoder/{dataset_id}"


def seg_head_component(dataset_id: str) -> str:
    return f"seg_head/{dataset_id}"


def component_kind(component: str) -> str:
    return component.split("/", 1)[0]


def component_dataset(component: str) -> str | None:
    parts = component.split("/", 1)
    return parts[1] if len(parts) == 2 else None


class Parameter:
    """Named leaf tensor tagged with its owning component.

    ``trainable`` is stored on the tensor itself (as ``requires_grad``) so a
    frozen parameter builds no gradient path at all; a new one is trainable.
    In a :class:`ModelGraph`, ``tensor.data`` is a view ``offset`` elements
    into ``component_data``, the flat buffer that every parameter of the
    component shares.
    """

    __slots__ = ("name", "tensor", "component", "offset", "component_data")

    def __init__(self, name: str, data: np.ndarray, component: str):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.component = component
        self.offset = 0
        self.component_data = self.tensor.data.reshape(-1)

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad

    @trainable.setter
    def trainable(self, value: bool) -> None:
        self.tensor.requires_grad = bool(value)
        if not value:
            self.tensor.grad = None

    def within(self, flat: np.ndarray) -> np.ndarray:
        """This parameter's view of ``flat``, an array laid out like its component."""
        data = self.tensor.data
        return flat[self.offset:self.offset + data.size].reshape(data.shape)

    def __repr__(self):
        return (
            f"Parameter({self.name!r}, shape={self.tensor.shape}, "
            f"component={self.component!r}, trainable={self.trainable})"
        )


class ModelGraph:
    """Ordered registry of parameters, partitioned by component.

    Each component's parameter values live in one flat float64 buffer, in
    registry order.  Adding a parameter replaces its component's buffer and
    re-points that component's views, and copying or unpickling the graph
    re-points every view; nothing else rebinds them.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}  # component -> its flat buffer

    def add(self, name: str, data: np.ndarray, component: str) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        p = Parameter(name, data, component)
        buffer = self._buffers.get(component, np.empty(0))
        p.offset = buffer.size
        self._buffers[component] = np.concatenate([buffer, p.tensor.data], axis=None)
        self._params[name] = p
        self._point(q for q in self._params.values() if q.component == component)
        return p

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled graph holds its arrays as separate copies
        self.__dict__.update(state)
        self._point(self._params.values())

    def _point(self, params) -> None:
        """Point these parameters' views at their component's buffer."""
        for p in params:
            p.component_data = self._buffers[p.component]
            p.tensor.data = p.within(p.component_data)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def components(self) -> list[str]:
        return list(self._buffers)

    def set_trainable_components(self, components: set[str]) -> None:
        for p in self._params.values():
            p.trainable = p.component in components

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.tensor.grad = None

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Backprop ``loss`` and return one gradient per trainable parameter.

        Frozen parameters get no entry.  All parameter gradients reset
        first: a trainable parameter that did not participate in this loss
        comes back as exact zeros even if some earlier backward pass had
        written to it.
        """
        self.zero_grad()
        loss.backward()
        out: dict[str, np.ndarray] = {}
        for name, p in self._params.items():
            if p.trainable:
                g = p.tensor.grad
                out[name] = g if g is not None else np.zeros_like(p.tensor.data)
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: p.tensor.data.copy() for name, p in self._params.items()}

    def conform(self, arrays: dict, complete: bool = True) -> dict[str, np.ndarray]:
        """C-ordered float64 copies of ``arrays``' parameters, in registry order.

        The one rule for every name -> array weight set: a name the registry
        lacks is ignored, a parameter of another shape is a ``ValueError``
        naming it, and so, when ``complete``, is a missing parameter.
        """
        missing = sorted(set(self._params) - set(arrays))
        if complete and missing:
            raise ValueError(f"missing parameters: {missing}")
        out = {name: np.array(arrays[name], dtype=np.float64, order="C")
               for name in self._params if name in arrays}
        for name, a in out.items():
            if a.shape != self._params[name].tensor.data.shape:
                raise ValueError(f"parameter '{name}': stored shape {a.shape} != model "
                                 f"shape {self._params[name].tensor.data.shape}")
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in every parameter's values, admitted by :meth:`conform`;
        nothing is loaded if one is missing or of another shape."""
        for name, a in self.conform(arrays).items():
            self._params[name].tensor.data[...] = a

    def count_by_component(self) -> dict[str, int]:
        """Parameter values per component, in registry order."""
        return {c: b.size for c, b in self._buffers.items()}

    def component_checksums(self) -> dict[str, str]:
        """SHA-256 over the raw bytes of each component, in registry order."""
        return {c: hashlib.sha256(b).hexdigest() for c, b in self._buffers.items()}


@dataclass(frozen=True)
class ArchConfig:
    """Sizes of the toy architecture; it takes one-channel images, 32x32 by default.

    Query slots are tied to a ``loc_grid`` x ``loc_grid`` lattice of cells
    over the localization encoder's map, so the number of query slots is
    ``loc_grid ** 2``.  Cell-anchored queries generalize across positions
    (the readout is shared by all cells), which free-floating global queries
    do not at this data scale.
    """

    image_size: int = 32
    stage_channels: tuple[int, int, int] = (8, 16, 32)
    loc_channels: int = 32
    query_dim: int = 24
    loc_grid: int = 8
    seg_channels: tuple[int, int] = (16, 8)
    init_seed: int = 0

    def __post_init__(self):
        for name in ("image_size", "stage_channels", "loc_channels",
                     "query_dim", "loc_grid", "seg_channels"):
            value = getattr(self, name)
            if np.min(value) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.image_size % 4 != 0:
            raise ValueError("image_size must be a multiple of 4")
        if self.fmap_size % self.loc_grid != 0:
            raise ValueError(
                f"loc_grid {self.loc_grid} must divide the feature map size "
                f"{self.fmap_size}"
            )

    @property
    def fmap_size(self) -> int:
        # one pooling stage; finer maps keep segmentation boundaries viable
        return self.image_size // 2

    @property
    def num_queries(self) -> int:
        return self.loc_grid * self.loc_grid


@dataclass(frozen=True)
class DatasetModelSpec:
    """What the model must provide for one dataset: class counts per task.

    ``None`` means the dataset has no annotations for that task and therefore
    gets no head/decoder of that family.
    """

    dataset_id: str
    cls_classes: int | None = None
    loc_classes: int | None = None
    seg_classes: int | None = None

    def __post_init__(self):
        if self.cls_classes is None and self.loc_classes is None and self.seg_classes is None:
            raise ValueError(f"dataset '{self.dataset_id}' declares no tasks")
        for label, n in (("cls", self.cls_classes), ("loc", self.loc_classes),
                         ("seg", self.seg_classes)):
            if n is not None and n < 1:
                raise ValueError(f"dataset '{self.dataset_id}': {label}_classes must be >= 1")

    @property
    def tasks(self) -> tuple[str, ...]:
        counts = (self.cls_classes, self.loc_classes, self.seg_classes)
        return tuple(task for task, n in zip(TASKS, counts) if n is not None)


class MultiTaskModel:
    """Shared backbone plus task branches, routed per dataset.

    Use :func:`build_model` to construct one.  A forward for dataset ``i``
    only ever touches the shared components plus dataset ``i``'s own
    head/decoder, which is what makes the gradient-census isolation checks
    hold exactly.
    """

    def __init__(self, arch: ArchConfig):
        self.arch = arch
        self.graph = ModelGraph()
        self.datasets: dict[str, DatasetModelSpec] = {}

    # ------------------------------------------------------------------
    # construction

    def _init_rs(self, seed: int) -> np.random.RandomState:
        return np.random.RandomState(seed & 0xFFFFFFFF)

    def _add_conv(self, rs, name, component, c_out, c_in, k):
        bound = 1.0 / np.sqrt(c_in * k * k)
        self.graph.add(f"{name}/w", rs.uniform(-bound, bound, (c_out, c_in, k, k)), component)
        self.graph.add(f"{name}/b", rs.uniform(-bound, bound, (c_out,)), component)

    def _add_linear(self, rs, name, component, f_in, f_out):
        bound = 1.0 / np.sqrt(f_in)
        self.graph.add(f"{name}/w", rs.uniform(-bound, bound, (f_in, f_out)), component)
        self.graph.add(f"{name}/b", rs.uniform(-bound, bound, (f_out,)), component)

    def _build_shared(self, rs):
        a = self.arch
        c0, c1, c2 = a.stage_channels
        self._add_conv(rs, "backbone/conv1", BACKBONE, c0, 1, 3)
        self._add_conv(rs, "backbone/conv2", BACKBONE, c1, c0, 3)
        self._add_conv(rs, "backbone/conv3", BACKBONE, c2, c1, 3)
        self._add_conv(rs, "loc_encoder/conv", LOC_ENCODER, a.loc_channels, c2, 3)
        s0, s1 = a.seg_channels
        self._add_conv(rs, "seg_decoder/conv1", SEG_DECODER, s0, c2, 3)
        self._add_conv(rs, "seg_decoder/conv2", SEG_DECODER, s1, s0, 3)

    def add_dataset(self, spec: DatasetModelSpec, seed: int | None = None) -> None:
        """Register a dataset and initialize its heads/decoders.

        Heads are appended to the registry, so extending a trained model with
        a fresh dataset leaves all existing parameters untouched.  Without a
        ``seed``, the i-th dataset added (from 0) is seeded ``init_seed + 1 + i``.
        """
        if spec.dataset_id in self.datasets:
            raise ValueError(f"dataset '{spec.dataset_id}' already registered")
        a = self.arch
        rs = self._init_rs(seed if seed is not None else a.init_seed + 1 + len(self.datasets))
        ds = spec.dataset_id
        if spec.cls_classes is not None:
            comp = cls_head_component(ds)
            self._add_linear(rs, f"{comp}/fc", comp, a.stage_channels[-1], spec.cls_classes)
        if spec.loc_classes is not None:
            comp = loc_decoder_component(ds)
            bound = 1.0 / np.sqrt(a.query_dim)
            self.graph.add(
                f"{comp}/queries",
                rs.uniform(-bound, bound, (a.query_dim, a.loc_grid, a.loc_grid)),
                comp,
            )
            self._add_conv(rs, f"{comp}/in", comp, a.query_dim, a.loc_channels, 1)
            self._add_conv(rs, f"{comp}/mix", comp, a.query_dim, a.query_dim, 3)
            self._add_conv(rs, f"{comp}/box", comp, 4, a.query_dim, 1)
            self._add_conv(rs, f"{comp}/cls", comp, spec.loc_classes + 1, a.query_dim, 1)
        if spec.seg_classes is not None:
            comp = seg_head_component(ds)
            self._add_conv(rs, f"{comp}/conv", comp, spec.seg_classes, a.seg_channels[-1], 1)
            # start near the sparse foreground prior so the imbalanced pixel
            # loss does not slam the shared decoder negative in epoch one
            self.graph[f"{comp}/conv/b"].tensor.data[:] = -2.2
        self.datasets[ds] = spec

    # ------------------------------------------------------------------
    # forward passes

    def _resolver(self, weights: dict[str, np.ndarray] | None):
        if weights is None:
            return lambda name: self.graph[name].tensor
        return lambda name: Tensor(weights[name])

    def _images_tensor(self, images) -> Tensor:
        x = np.asarray(images, dtype=np.float64)
        a = self.arch
        if x.ndim != 4 or x.shape[1:] != (1, a.image_size, a.image_size):
            raise ValueError(
                f"images must have shape (N, 1, {a.image_size}, {a.image_size}), got {x.shape}"
            )
        return Tensor(x)

    def _conv_block(self, x, p, name, act=False, upsample=None):
        # one tape node: conv, bias and, with ``act``, the leaky ReLU whose
        # small negative slope keeps gradients alive when imbalanced losses
        # push a whole feature map negative early in training; padding keeps the size
        w = p(f"{name}/w")
        return conv2d(x, w, padding=w.shape[-1] // 2, bias=p(f"{name}/b"),
                      slope=0.1 if act else None, upsample=upsample)

    def _linear(self, x, p, name):
        return add(matmul(x, p(f"{name}/w")), p(f"{name}/b"))

    def backbone_features(self, images, weights=None) -> Tensor:
        """Three conv stages with one pooling step: (N, C, H/2, W/2)."""
        p = self._resolver(weights)
        x = images if isinstance(images, Tensor) else self._images_tensor(images)
        h = maxpool2d(self._conv_block(x, p, "backbone/conv1", act=True))
        h = self._conv_block(h, p, "backbone/conv2", act=True)
        return self._conv_block(h, p, "backbone/conv3", act=True)

    def cls_logits(self, emb: Tensor, dataset_id: str, weights=None) -> Tensor:
        """Linear head over spatially max-pooled backbone features.

        Max pooling acts as a presence detector: a small shape's channel
        signature survives no matter how little area it covers, which mean
        pooling dilutes away.
        """
        self._require(dataset_id, "cls")
        p = self._resolver(weights)
        pooled = reshape(maxpool2d(emb, emb.shape[2]), (emb.shape[0], emb.shape[1]))
        return self._linear(pooled, p, f"{cls_head_component(dataset_id)}/fc")

    def loc_encoder_features(self, emb: Tensor, weights=None) -> Tensor:
        """Shared spatial projection feeding every localization decoder."""
        p = self._resolver(weights)
        return self._conv_block(emb, p, "loc_encoder/conv", act=True)

    def _box_reference_logits(self) -> np.ndarray:
        """Pre-sigmoid anchors: each cell's center plus a size prior.

        Added as constants to the decoder's box outputs, so a zeroed decoder
        still emits a lattice of plausible boxes and training only has to
        learn offsets.
        """
        g = self.arch.loc_grid
        centers = (np.arange(g) + 0.5) / g
        logit = lambda v: np.log(v / (1.0 - v))
        ref = np.zeros((1, 4, g, g))
        ref[0, 0] = logit(centers)[None, :]  # cx varies with the column
        ref[0, 1] = logit(centers)[:, None]  # cy varies with the row
        ref[0, 2:] = logit(0.30)
        return ref

    def loc_predictions(self, enc: Tensor, dataset_id: str, weights=None):
        """Query-slot boxes and class logits: (N,Q,4) in [0,1] and (N,Q,C+1).

        The extra class column is the no-object slot.  Query slots live on a
        grid of cells over the encoder map: pooled cell features plus one
        learned query embedding per cell pass through a shared 1x1-conv
        mixing layer, and box/class heads read out every slot.  Boxes squash
        through a sigmoid around each cell's reference anchor.
        """
        spec = self._require(dataset_id, "loc")
        a = self.arch
        p = self._resolver(weights)
        comp = loc_decoder_component(dataset_id)
        # shape-sensitive mixing runs at full encoder resolution; pooling to
        # the query grid afterwards keeps fine structure available to the
        # class head (ring-vs-disc distinctions die if pooled first)
        h = self._conv_block(enc, p, f"{comp}/in", act=True)
        h = self._conv_block(h, p, f"{comp}/mix", act=True)
        factor = a.fmap_size // a.loc_grid
        if factor > 1:
            h = maxpool2d(h, factor)
        q = reshape(p(f"{comp}/queries"), (1, a.query_dim, a.loc_grid, a.loc_grid))
        h = add(h, q)
        n = h.shape[0]
        box_z = add(self._conv_block(h, p, f"{comp}/box"),
                    Tensor(self._box_reference_logits()))
        boxes = sigmoid(permute(reshape(box_z, (n, 4, a.num_queries)), (0, 2, 1)))
        cls_z = self._conv_block(h, p, f"{comp}/cls")
        logits = permute(reshape(cls_z, (n, spec.loc_classes + 1, a.num_queries)), (0, 2, 1))
        return boxes, logits

    def seg_decoder_features(self, emb: Tensor, weights=None) -> Tensor:
        p = self._resolver(weights)
        h = self._conv_block(emb, p, "seg_decoder/conv1", act=True)
        # 2x nearest upsampling fused into the conv: no full-resolution copy of h
        return self._conv_block(h, p, "seg_decoder/conv2", act=True, upsample=2)

    def seg_logits(self, dec: Tensor, dataset_id: str, weights=None) -> Tensor:
        self._require(dataset_id, "seg")
        p = self._resolver(weights)
        comp = seg_head_component(dataset_id)
        return self._conv_block(dec, p, f"{comp}/conv")

    def task_branch(self, emb: Tensor, task: str, dataset_id: str, weights=None):
        """One task's branch over backbone features: ``(output, feature)``.

        ``output`` is :meth:`head`'s.  ``feature`` is the shared branch
        feature the output was read from (loc encoder or seg decoder map;
        None for cls), which the consistency loss compares.  ``emb`` is only
        read, so one backbone pass can feed every task of a dataset.
        """
        feature = self.branch_features(emb, task, weights)
        return self.head(emb if feature is None else feature, task, dataset_id, weights), feature

    def branch_features(self, emb: Tensor, task: str, weights=None) -> Tensor | None:
        """The ``BRANCHES[task]`` map over ``emb``; None for cls, whose head reads ``emb``."""
        forward = {LOC_ENCODER: self.loc_encoder_features,
                   SEG_DECODER: self.seg_decoder_features}.get(BRANCHES.get(task))
        return None if forward is None else forward(emb, weights)

    def head(self, head_input: Tensor, task: str, dataset_id: str, weights=None):
        """The dataset's own head of one task, on that head's input.

        The input is the map of the task's ``BRANCHES`` entry (the backbone
        map for cls); the output is the cls logits, the loc ``(boxes,
        logits)`` pair or the seg logits.
        """
        if task == "cls":
            return self.cls_logits(head_input, dataset_id, weights)
        if task == "loc":
            return self.loc_predictions(head_input, dataset_id, weights)
        if task == "seg":
            return self.seg_logits(head_input, dataset_id, weights)
        raise ValueError(f"unknown task '{task}'")

    def forward_cls(self, images, dataset_id: str, weights=None) -> Tensor:
        emb = self.backbone_features(images, weights)
        return self.task_branch(emb, "cls", dataset_id, weights)[0]

    def forward_loc(self, images, dataset_id: str, weights=None):
        emb = self.backbone_features(images, weights)
        return self.task_branch(emb, "loc", dataset_id, weights)[0]

    def forward_seg(self, images, dataset_id: str, weights=None) -> Tensor:
        emb = self.backbone_features(images, weights)
        return self.task_branch(emb, "seg", dataset_id, weights)[0]

    def _require(self, dataset_id: str, task: str) -> DatasetModelSpec:
        spec = self.datasets.get(dataset_id)
        if spec is None:
            raise ValueError(f"unknown dataset '{dataset_id}'")
        if task not in spec.tasks:
            raise ValueError(f"dataset '{dataset_id}' has no '{task}' branch")
        return spec

    # ------------------------------------------------------------------
    # introspection helpers

    def merged_weights(self, overrides: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Full weight set with ``overrides`` (e.g. teacher arrays) patched in.

        Overrides pass :meth:`ModelGraph.conform`, so names the model lacks
        (another dataset's heads) are ignored.
        """
        return {**self.graph.arrays(), **self.graph.conform(overrides, complete=False)}


def build_model(arch: ArchConfig, dataset_specs) -> MultiTaskModel:
    """Construct the model with one head/decoder per annotated task.

    ``dataset_specs`` is an ordered iterable of :class:`DatasetModelSpec`;
    the registry order (and therefore checkpoint layout) follows it.  Shared
    components are seeded ``arch.init_seed``, heads as ``add_dataset`` does.
    """
    model = MultiTaskModel(arch)
    model._build_shared(model._init_rs(arch.init_seed))
    for spec in dataset_specs:
        model.add_dataset(spec)
    return model


def trainable_components(task: str, mode: str, dataset_id: str) -> frozenset[str]:
    """The components one (task, mode) epoch on ``dataset_id`` trains.

    Lock mode trains only the task's own head/decoder; release mode also
    unfreezes the shared components the task routes through.  Heads and
    decoders of every other dataset are never included.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task '{task}'")
    if mode not in ("lock", "release"):
        raise ValueError(f"unknown mode '{mode}'")
    head = {"cls": cls_head_component, "loc": loc_decoder_component,
            "seg": seg_head_component}[task](dataset_id)
    if mode == "lock":
        return frozenset((head,))
    return frozenset({head, BACKBONE, BRANCHES[task]} - {None})
