"""Training engine: cycle planning, lock/release epochs, EMA teacher.

One *cycle* visits every (dataset, task) pair once, datasets in declared
order and tasks in cls -> loc -> seg order.  Tasks with lock-release enabled
expand into a lock epoch (shared components frozen, random half of the data)
followed by a release epoch (everything the task touches trainable, full
data).  After every epoch the teacher tracks the student by exponential
moving average; during training the student additionally pays a consistency
penalty against teacher features (backbone always, plus the branch feature
of the current task).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import synthdata
from .autodiff import Tensor, no_grad
from .losses import LossBreakdown, cls_loss, consistency_loss, loc_loss, seg_loss
from .metrics import Detection, GroundTruth, MetricsRecord, auc, dice, map_at_iou
from .model import (
    BACKBONE,
    LOC_ENCODER,
    SEG_DECODER,
    MultiTaskModel,
    component_kind,
    trainable_components,
)
from .optim import AdamW
from .synthdata import (
    SynthDatasetSpec,
    augment,
    derive_seed,
    stratified_split,
    subtask_samples,
)

__all__ = [
    "TrainConfig",
    "EpochPlanEntry",
    "CyclePlan",
    "TeacherState",
    "DatasetBundle",
    "EpochSummary",
    "PretrainResult",
    "build_cycle_plan",
    "sample_lock_subset",
    "ema_update",
    "make_optimizer",
    "prepare_bundles",
    "run_epoch",
    "run_pretraining",
    "evaluate_task",
    "evaluate_dataset",
    "export_teacher",
    "FinetuneResult",
    "finetune",
]

TASK_ORDER = ("cls", "loc", "seg")


def _default_lock_release() -> dict[str, bool]:
    return {"cls": False, "loc": True, "seg": True}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for pretraining and finetuning runs."""

    lr_backbone: float = 1e-5
    lr_loc: float = 1e-4
    lr_seg: float = 1e-4
    lr_cls_head: float = 1e-4
    momentum: float = 0.80
    consistency_weight: float = 1.0
    student_teacher: bool = True
    mirror_heads: bool = False
    lock_release: dict[str, bool] = field(default_factory=_default_lock_release)
    batch_size: int = 16
    weight_decay: float = 0.0
    step_decay_factor: float = 1.0
    step_decay_interval: int = 0
    epochs_per_task: int = 1
    num_cycles: int = 1
    eval_after_release: bool = True
    eval_every_epoch: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, lr in (
            ("lr_backbone", self.lr_backbone),
            ("lr_loc", self.lr_loc),
            ("lr_seg", self.lr_seg),
            ("lr_cls_head", self.lr_cls_head),
        ):
            if lr < 0.0:
                raise ValueError(f"{name} must be non-negative, got {lr}")
        if not (0.0 <= self.momentum <= 1.0):
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be >= 1")
        if self.num_cycles < 0:
            raise ValueError("num_cycles must be >= 0")
        unknown = set(self.lock_release) - set(TASK_ORDER)
        if unknown:
            raise ValueError(f"lock_release has unknown tasks {sorted(unknown)}")

    def lr_for_component(self, component: str) -> float:
        kind = component_kind(component)
        if kind == "backbone":
            return self.lr_backbone
        if kind in ("loc_encoder", "loc_decoder"):
            return self.lr_loc
        if kind in ("seg_decoder", "seg_head"):
            return self.lr_seg
        if kind == "cls_head":
            return self.lr_cls_head
        raise ValueError(f"no learning rate for component '{component}'")

    def lr_scale_at(self, global_epoch: int) -> float:
        if self.step_decay_interval <= 0:
            return 1.0
        return self.step_decay_factor ** (global_epoch // self.step_decay_interval)


@dataclass(frozen=True)
class EpochPlanEntry:
    """One scheduled epoch: what trains, on which slice of which dataset."""

    dataset_id: str
    task: str
    mode: str  # "lock" | "release"
    data_fraction: str  # "half" | "full"
    trainable_components: frozenset[str]
    subtask: str | None = None

    def __post_init__(self):
        if (self.mode == "lock") != (self.data_fraction == "half"):
            raise ValueError("lock mode pairs with half data, release with full")


@dataclass(frozen=True)
class CyclePlan:
    entries: tuple[EpochPlanEntry, ...]
    cycle_index: int


def build_cycle_plan(dataset_specs, config: TrainConfig, cycle_index: int = 0) -> CyclePlan:
    """Expand datasets into the ordered epoch list for one cycle.

    Per dataset (in order), per available task (cls -> loc -> seg), per
    subtask (in declared order): a (lock, release) pair when lock-release is
    enabled for that task type, otherwise a single release epoch.
    """
    specs = list(dataset_specs)
    if not specs:
        raise ValueError("need at least one dataset")
    entries: list[EpochPlanEntry] = []
    for spec in specs:
        subtasks: tuple[str | None, ...] = spec.subtasks or (None,)
        for task in TASK_ORDER:
            if task not in spec.tasks:
                continue
            modes = ("lock", "release") if config.lock_release.get(task, False) else ("release",)
            for subtask in subtasks:
                for _ in range(config.epochs_per_task):
                    for mode in modes:
                        entries.append(
                            EpochPlanEntry(
                                dataset_id=spec.dataset_id,
                                task=task,
                                mode=mode,
                                data_fraction="half" if mode == "lock" else "full",
                                trainable_components=trainable_components(
                                    task, mode, spec.dataset_id
                                ),
                                subtask=subtask,
                            )
                        )
    return CyclePlan(entries=tuple(entries), cycle_index=cycle_index)


def sample_lock_subset(n: int, epoch_seed: int) -> np.ndarray:
    """ceil(n/2) distinct indices, resampled deterministically per epoch."""
    if n < 1:
        raise ValueError("dataset must be nonempty")
    k = (n + 1) // 2
    rs = np.random.RandomState(derive_seed(epoch_seed, "lock_subset"))
    return rs.permutation(n)[:k]


# ---------------------------------------------------------------------------
# teacher


@dataclass
class TeacherState:
    """EMA mirror of the student's shared components.

    Head/decoder mirroring is optional (``mirror_heads``); by default only
    backbone, localization encoder and segmentation decoder are tracked,
    which is all the consistency losses need.  Teacher arrays are plain
    ndarrays and never enter a gradient graph.
    """

    params: dict[str, np.ndarray]
    momentum: float

    @staticmethod
    def init_from(model: MultiTaskModel, momentum: float, mirror_heads: bool = False) -> "TeacherState":
        shared = (BACKBONE, LOC_ENCODER, SEG_DECODER)
        params = {}
        for p in model.graph.parameters():
            if mirror_heads or p.component in shared:
                params[p.name] = p.tensor.data.copy()
        return TeacherState(params=params, momentum=float(momentum))


def ema_update(teacher: TeacherState, model: MultiTaskModel, momentum: float | None = None) -> None:
    """teacher <- momentum * teacher + (1 - momentum) * student, elementwise."""
    lam = teacher.momentum if momentum is None else float(momentum)
    for name in teacher.params:
        if name not in model.graph:
            raise ValueError(f"teacher parameter '{name}' missing from student")
        student = model.graph[name].tensor.data
        if student.shape != teacher.params[name].shape:
            raise ValueError(
                f"teacher parameter '{name}' shape {teacher.params[name].shape} "
                f"!= student shape {student.shape}"
            )
        teacher.params[name] = lam * teacher.params[name] + (1.0 - lam) * student


def export_teacher(model: MultiTaskModel, teacher: TeacherState) -> dict[str, np.ndarray]:
    """Inference weight set: teacher values where mirrored, student elsewhere."""
    return model.merged_weights(teacher.params)


# ---------------------------------------------------------------------------
# data plumbing


@dataclass
class DatasetBundle:
    spec: SynthDatasetSpec
    train: list
    val: list
    test: list


def prepare_bundles(dataset_specs, config: TrainConfig) -> dict[str, DatasetBundle]:
    """Generate and split every dataset, deterministically from the seeds."""
    bundles: dict[str, DatasetBundle] = {}
    for spec in dataset_specs:
        samples = synthdata.generate_dataset(spec)
        train, val, test = stratified_split(
            samples, spec, seed=derive_seed(config.seed, "split", spec.dataset_id)
        )
        bundles[spec.dataset_id] = DatasetBundle(spec=spec, train=train, val=val, test=test)
    return bundles


def make_optimizer(config: TrainConfig) -> AdamW:
    return AdamW(
        lr=config.lr_cls_head,
        weight_decay=config.weight_decay,
        lr_for=lambda p: config.lr_for_component(p.component),
    )


# ---------------------------------------------------------------------------
# one epoch


@dataclass
class EpochSummary:
    breakdown: LossBreakdown
    records: list[MetricsRecord]
    samples_used: int


def _batch_losses(model, teacher, task, dataset_id, batch, config):
    """Build the tape loss for one batch; returns (total, task_val, terms)."""
    x = np.stack([s.image for s in batch])[:, None, :, :]
    emb_s = model.backbone_features(x)
    branch_s = None
    if task == "cls":
        logits = model.cls_logits(emb_s, dataset_id)
        y = np.stack([s.labels for s in batch])
        task_term = cls_loss(logits, y)
    elif task == "loc":
        branch_s = model.loc_encoder_features(emb_s)
        boxes, logits = model.loc_predictions(branch_s, dataset_id)
        task_term = loc_loss(boxes, logits, [s.boxes for s in batch])
    elif task == "seg":
        branch_s = model.seg_decoder_features(emb_s)
        logits = model.seg_logits(branch_s, dataset_id)
        mask = np.stack([s.mask for s in batch]).astype(np.float64)
        task_term = seg_loss(logits, mask)
    else:
        raise ValueError(f"unknown task '{task}'")

    terms: list[tuple[str, Tensor]] = []
    if teacher is not None and config.student_teacher:
        # The teacher pass touches shared components only, all of which the
        # teacher mirrors, so its arrays can resolve parameter names directly.
        emb_t = model.backbone_features(x, weights=teacher.params)
        terms.append(("backbone", consistency_loss(emb_s, emb_t)))
        if task == "loc":
            enc_t = model.loc_encoder_features(emb_t, weights=teacher.params)
            terms.append(("loc_encoder", consistency_loss(branch_s, enc_t)))
        elif task == "seg":
            dec_t = model.seg_decoder_features(emb_t, weights=teacher.params)
            terms.append(("seg_decoder", consistency_loss(branch_s, dec_t)))

    total = task_term
    weighted = []
    for name, term in terms:
        w = config.consistency_weight * term
        total = total + w
        weighted.append((name, w.item()))
    return total, task_term.item(), weighted


def run_epoch(
    model: MultiTaskModel,
    teacher: TeacherState | None,
    entry: EpochPlanEntry,
    bundle: DatasetBundle,
    optimizer: AdamW,
    config: TrainConfig,
    cycle: int = 0,
    epoch_in_cycle: int = 1,
    global_epoch: int = 0,
) -> EpochSummary:
    """Train one scheduled epoch and (after release epochs) evaluate.

    Applies the entry's freeze mask, draws the lock half-subset when asked,
    augments every sample with the epoch seed, steps the optimizer after
    each batch, and guarantees frozen parameters are never written.
    """
    if entry.dataset_id != bundle.spec.dataset_id:
        raise ValueError(
            f"entry is for '{entry.dataset_id}' but bundle holds "
            f"'{bundle.spec.dataset_id}'"
        )
    model._require(entry.dataset_id, entry.task)
    known = set(model.graph.components())
    if not entry.trainable_components <= known:
        raise ValueError(
            f"entry trains unknown components {sorted(entry.trainable_components - known)}"
        )
    samples = subtask_samples(bundle.train, bundle.spec, entry.subtask)
    if not samples:
        raise ValueError(
            f"no training data for dataset '{entry.dataset_id}' "
            f"subtask {entry.subtask!r}"
        )
    epoch_seed = derive_seed(config.seed, "epoch", cycle, epoch_in_cycle)
    if entry.data_fraction == "half":
        subset = sample_lock_subset(len(samples), epoch_seed)
        samples = [samples[i] for i in subset]

    model.graph.set_trainable_components(set(entry.trainable_components))
    lr_scale = config.lr_scale_at(global_epoch)

    order = np.random.RandomState(derive_seed(epoch_seed, "order")).permutation(len(samples))
    task_vals: list[float] = []
    term_vals: dict[str, list[float]] = {}
    for start in range(0, len(samples), config.batch_size):
        batch_idx = order[start : start + config.batch_size]
        batch = [
            augment(samples[i], epoch_seed, noise_level=bundle.spec.noise_level)
            for i in batch_idx
        ]
        total, task_val, terms = _batch_losses(
            model, teacher, entry.task, entry.dataset_id, batch, config
        )
        grads = model.graph.backward(total)
        optimizer.step(model.graph.parameters(), grads, lr_scale=lr_scale)
        task_vals.append(task_val)
        for name, v in terms:
            term_vals.setdefault(name, []).append(v)

    breakdown = LossBreakdown.build(
        float(np.mean(task_vals)),
        [(name, float(np.mean(vals))) for name, vals in term_vals.items()],
    )

    records: list[MetricsRecord] = []
    if entry.mode == "release" and config.eval_after_release:
        value, metric_name = evaluate_task(
            model, bundle.spec,
            subtask_samples(bundle.test, bundle.spec, entry.subtask),
            entry.task,
        )
        if value is not None:
            records.append(
                MetricsRecord(
                    cycle=cycle,
                    epoch=epoch_in_cycle,
                    dataset_id=entry.dataset_id,
                    task=entry.task,
                    mode=entry.mode,
                    metric_name=metric_name,
                    value=value,
                )
            )
    return EpochSummary(breakdown=breakdown, records=records, samples_used=len(samples))


# ---------------------------------------------------------------------------
# evaluation

_METRIC_FOR_TASK = {"cls": "AUC", "loc": "mAP40", "seg": "Dice"}


def _forward_batches(model, samples, batch_size=64):
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        yield chunk, np.stack([s.image for s in chunk])[:, None, :, :]


@no_grad()
def evaluate_task(model, spec, samples, task, weights=None):
    """Metric value for one task on a sample list: AUC, mAP40 or Dice.

    Runs without recording a tape, whatever the weights' trainability.
    """
    if not samples:
        return None, _METRIC_FOR_TASK[task]
    if task == "cls":
        scores, labels = [], []
        for chunk, x in _forward_batches(model, samples):
            logits = model.forward_cls(x, spec.dataset_id, weights)
            scores.append(1.0 / (1.0 + np.exp(-logits.data)))
            labels.append(np.stack([s.labels for s in chunk]))
        return auc(np.concatenate(scores), np.concatenate(labels)), "AUC"
    if task == "loc":
        detections, gts = [], []
        for chunk, x in _forward_batches(model, samples):
            boxes, logits = model.forward_loc(x, spec.dataset_id, weights)
            shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=-1, keepdims=True)
            for i, s in enumerate(chunk):
                for q in range(boxes.shape[1]):
                    class_probs = probs[i, q, :-1]
                    c = int(np.argmax(class_probs))
                    detections.append(
                        Detection(
                            image_id=s.sample_id,
                            box=tuple(boxes.data[i, q]),
                            class_id=c,
                            confidence=float(class_probs[c]),
                        )
                    )
                for b, c in zip(s.boxes.boxes, s.boxes.class_ids):
                    gts.append(GroundTruth(image_id=s.sample_id, box=tuple(b), class_id=int(c)))
        return map_at_iou(detections, gts, iou_threshold=0.40), "mAP40"
    if task == "seg":
        values = []
        for chunk, x in _forward_batches(model, samples):
            logits = model.forward_seg(x, spec.dataset_id, weights)
            pred = logits.data > 0.0  # sigmoid(z) >= 0.5 iff z >= 0
            for i, s in enumerate(chunk):
                for c in range(pred.shape[1]):
                    values.append(dice(pred[i, c], s.mask[c]))
        return float(np.mean(values)), "Dice"
    raise ValueError(f"unknown task '{task}'")


def evaluate_dataset(model, bundle: DatasetBundle, weights=None):
    """(task, metric_name, value) on the test split for every declared task."""
    out = []
    for task in TASK_ORDER:
        if task not in bundle.spec.tasks:
            continue
        value, name = evaluate_task(model, bundle.spec, bundle.test, task, weights)
        out.append((task, name, value))
    return out


# ---------------------------------------------------------------------------
# full pretraining


@dataclass
class PretrainResult:
    model: MultiTaskModel
    teacher: TeacherState
    records: list[MetricsRecord]
    epochs_run: int
    cycles_run: int


def run_pretraining(
    model: MultiTaskModel,
    dataset_specs,
    config: TrainConfig,
    bundles: dict[str, DatasetBundle] | None = None,
    on_record=None,
    on_cycle_end=None,
) -> PretrainResult:
    """Run the full cyclic schedule for ``config.num_cycles`` cycles.

    The teacher is EMA-updated after every epoch.  Evaluation happens after
    each release epoch (and, with ``eval_every_epoch``, on every dataset and
    task after every epoch, logged with mode ``"eval"``).  Two runs with the
    same config produce identical records and identical final parameters.
    """
    specs = list(dataset_specs)
    if bundles is None:
        bundles = prepare_bundles(specs, config)
    teacher = TeacherState.init_from(model, config.momentum, config.mirror_heads)
    optimizer = make_optimizer(config)
    records: list[MetricsRecord] = []
    global_epoch = 0

    def emit(record: MetricsRecord):
        records.append(record)
        if on_record is not None:
            on_record(record)

    for cycle in range(config.num_cycles):
        plan = build_cycle_plan(specs, config, cycle_index=cycle)
        for epoch_in_cycle, entry in enumerate(plan.entries, start=1):
            summary = run_epoch(
                model,
                teacher if config.student_teacher else None,
                entry,
                bundles[entry.dataset_id],
                optimizer,
                config,
                cycle=cycle,
                epoch_in_cycle=epoch_in_cycle,
                global_epoch=global_epoch,
            )
            global_epoch += 1
            ema_update(teacher, model)
            for record in summary.records:
                emit(record)
            if config.eval_every_epoch:
                for spec in specs:
                    for task, metric_name, value in evaluate_dataset(model, bundles[spec.dataset_id]):
                        if value is None:
                            continue
                        emit(
                            MetricsRecord(
                                cycle=cycle,
                                epoch=epoch_in_cycle,
                                dataset_id=spec.dataset_id,
                                task=task,
                                mode="eval",
                                metric_name=metric_name,
                                value=value,
                            )
                        )
        if on_cycle_end is not None:
            on_cycle_end(cycle, model, teacher, optimizer)
    return PretrainResult(
        model=model,
        teacher=teacher,
        records=records,
        epochs_run=global_epoch,
        cycles_run=config.num_cycles,
    )


# ---------------------------------------------------------------------------
# finetuning


@dataclass
class FinetuneResult:
    model: MultiTaskModel
    records: list[MetricsRecord]
    trainable_params: int
    total_params: int
    train_size: int

    @property
    def trainable_fraction(self) -> float:
        return self.trainable_params / self.total_params


def finetune(
    model: MultiTaskModel,
    dataset_spec: SynthDatasetSpec,
    config: TrainConfig,
    mode: str = "full",
    few_shot_k: int | None = None,
    epochs: int = 5,
    init_new_head: bool = True,
) -> FinetuneResult:
    """Adapt the model to one dataset, fully or through its heads only.

    Per declared task, ``head_only`` trains what a lock epoch trains (the
    dataset's own head/decoder) and ``full`` what a release epoch trains
    (those plus the shared components the task routes through).  Every
    other component stays frozen, which is verified after every epoch.
    The data is split as in pretraining; ``few_shot_k`` restricts the
    training split to k samples.  No teacher is involved: finetuning pays
    task losses only.
    """
    if mode not in ("full", "head_only"):
        raise ValueError(f"unknown finetune mode '{mode}'")
    ds = dataset_spec.dataset_id
    if ds not in model.datasets:
        if not init_new_head:
            raise ValueError(
                f"dataset '{ds}' has no heads in this model; "
                "pass init_new_head=True to create them"
            )
        model.add_dataset(
            dataset_spec.model_spec(), seed=derive_seed(config.seed, "new_head", ds)
        )

    bundle = prepare_bundles([dataset_spec], config)[ds]
    train = bundle.train
    if few_shot_k is not None:
        train = synthdata.few_shot_subset(train, few_shot_k, seed=derive_seed(config.seed, "few_shot", ds))

    schedule_mode = "lock" if mode == "head_only" else "release"
    trainable = frozenset().union(
        *(trainable_components(task, schedule_mode, ds) for task in dataset_spec.tasks)
    )
    model.graph.set_trainable_components(trainable)
    frozen_checksums = {
        c: h for c, h in model.graph.component_checksums().items() if c not in trainable
    }

    optimizer = make_optimizer(config)
    records: list[MetricsRecord] = []
    for epoch in range(1, epochs + 1):
        epoch_seed = derive_seed(config.seed, "finetune_epoch", ds, epoch)
        order = np.random.RandomState(derive_seed(epoch_seed, "order")).permutation(len(train))
        for task in TASK_ORDER:
            if task not in dataset_spec.tasks:
                continue
            for start in range(0, len(train), config.batch_size):
                batch = [
                    augment(train[i], epoch_seed, noise_level=dataset_spec.noise_level)
                    for i in order[start : start + config.batch_size]
                ]
                total, _, _ = _batch_losses(model, None, task, ds, batch, config)
                grads = model.graph.backward(total)
                optimizer.step(model.graph.parameters(), grads)
        now = model.graph.component_checksums()
        for c, expected in frozen_checksums.items():
            if now[c] != expected:
                raise RuntimeError(f"{mode} finetune modified frozen component '{c}'")
        for task, metric_name, value in evaluate_dataset(model, bundle):
            if value is None:
                continue
            records.append(
                MetricsRecord(
                    cycle=0,
                    epoch=epoch,
                    dataset_id=ds,
                    task=task,
                    mode="eval",
                    metric_name=metric_name,
                    value=value,
                )
            )
    params = model.graph.parameters()
    return FinetuneResult(
        model=model,
        records=records,
        trainable_params=sum(p.tensor.data.size for p in params if p.trainable),
        total_params=sum(p.tensor.data.size for p in params),
        train_size=len(train),
    )
