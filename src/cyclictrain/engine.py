"""Training engine: cycle planning, lock/release epochs, EMA teacher.

One *cycle* visits every (dataset, task) pair once, datasets in declared
order and tasks in cls -> loc -> seg order.  Tasks with lock-release enabled
expand into a lock epoch (shared components frozen, random half of the data)
followed by a release epoch (everything the task touches trainable, full
data).  After every epoch the teacher tracks the student by exponential
moving average; during training the student additionally pays a consistency
penalty against teacher features (backbone always, plus the branch feature
of the current task).  A lock epoch freezes every component those features
come from, so a penalty there could carry no gradient: lock epochs run no
teacher forward and report no consistency terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import synthdata
from .autodiff import Tensor, no_grad, softmax
from .losses import LossBreakdown, cls_loss, consistency_loss, loc_loss, seg_loss
from .metrics import Detections, GroundTruth, MetricsRecord, auc, dice, map_at_iou
from .model import (
    BACKBONE,
    BRANCHES,
    SHARED_COMPONENTS,
    TASKS,
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
    "TrainingState",
    "EpochOutcome",
    "PretrainResult",
    "build_cycle_plan",
    "sample_lock_subset",
    "ema_update",
    "make_optimizer",
    "prepare_bundles",
    "run_epoch",
    "pretrain_epochs",
    "run_pretraining",
    "predict",
    "score",
    "evaluate_task",
    "evaluate_dataset",
    "export_teacher",
    "FinetuneResult",
    "finetune",
]

_LOCK_RELEASE_DEFAULTS = {"cls": False, "loc": True, "seg": True}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for pretraining and finetuning; ``lock_release`` merges over the defaults."""

    lr_backbone: float = 1e-5
    lr_loc: float = 1e-4
    lr_seg: float = 1e-4
    lr_cls_head: float = 1e-4
    momentum: float = 0.80
    student_teacher: bool = True
    lock_release: dict[str, bool] = field(default_factory=dict)
    batch_size: int = 16
    weight_decay: float = 0.0
    step_decay_factor: float = 1.0
    step_decay_interval: int = 0
    epochs_per_task: int = 1
    num_cycles: int = 1
    eval_every_epoch: bool = False
    seed: int = 0

    def __post_init__(self):
        # every range test is False for NaN, which json.loads reads from the literal
        for name in ("lr_backbone", "lr_loc", "lr_seg", "lr_cls_head", "weight_decay"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (0.0 <= self.momentum <= 1.0):
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        # a factor <= 0 flips or zeroes the learning rate from one interval to the next
        if not (0.0 < self.step_decay_factor <= 1.0):
            raise ValueError(f"step_decay_factor must lie in (0, 1], got {self.step_decay_factor}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be >= 1")
        if self.num_cycles < 0:
            raise ValueError("num_cycles must be >= 0")
        if self.step_decay_interval < 0:
            raise ValueError("step_decay_interval must be >= 0")
        unknown = set(self.lock_release) - set(TASKS)
        if unknown:
            raise ValueError(f"lock_release has unknown tasks {sorted(unknown)}")
        object.__setattr__(self, "lock_release", {**_LOCK_RELEASE_DEFAULTS, **self.lock_release})

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
        if self.step_decay_interval == 0:
            return 1.0
        return self.step_decay_factor ** (global_epoch // self.step_decay_interval)


@dataclass(frozen=True)
class EpochPlanEntry:
    """One scheduled epoch: what trains, on which slice of which dataset."""

    dataset_id: str
    task: str
    mode: str  # "lock" | "release"
    subtask: str | None = None

    @property
    def trainable_components(self) -> frozenset[str]:
        """What this epoch trains, from the lock/release table."""
        return trainable_components(self.task, self.mode, self.dataset_id)

    @property
    def data_fraction(self) -> str:
        """``"half"`` for a lock epoch, ``"full"`` otherwise."""
        return "half" if self.mode == "lock" else "full"


@dataclass(frozen=True)
class CyclePlan:
    entries: tuple[EpochPlanEntry, ...]


def build_cycle_plan(dataset_specs, config: TrainConfig) -> CyclePlan:
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
        for task in TASKS:
            if task not in spec.tasks:
                continue
            modes = ("lock", "release") if config.lock_release[task] else ("release",)
            for subtask in subtasks:
                for _ in range(config.epochs_per_task):
                    for mode in modes:
                        entries.append(EpochPlanEntry(spec.dataset_id, task, mode, subtask))
    return CyclePlan(entries=tuple(entries))


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

    :meth:`init_from` tracks the backbone, localization encoder and
    segmentation decoder, which is all the consistency losses need.  Teacher
    arrays are plain ndarrays and never enter a gradient graph.
    """

    params: dict[str, np.ndarray]
    momentum: float

    @staticmethod
    def init_from(model: MultiTaskModel, momentum: float) -> "TeacherState":
        params = {p.name: p.tensor.data.copy() for p in model.graph.parameters()
                  if p.component in SHARED_COMPONENTS}
        return TeacherState(params=params, momentum=float(momentum))

    def check(self, model: MultiTaskModel) -> None:
        """A ``ValueError`` unless every entry names a student parameter of its shape."""
        for name, a in self.params.items():
            if name not in model.graph:
                raise ValueError(f"teacher parameter '{name}' missing from student")
            if a.shape != model.graph[name].tensor.shape:
                raise ValueError(f"teacher parameter '{name}' shape {a.shape} != student shape "
                                 f"{model.graph[name].tensor.shape}")


def ema_update(teacher: TeacherState, model: MultiTaskModel) -> None:
    """teacher <- momentum * teacher + (1 - momentum) * student, elementwise, in place.

    Every entry is checked (:meth:`TeacherState.check`) before any is averaged.
    Each teacher array keeps its identity; its bytes are those of
    ``momentum * t + (1 - momentum) * student``.
    """
    teacher.check(model)
    lam = teacher.momentum
    for name, t in teacher.params.items():
        np.multiply(t, lam, out=t)
        t += (1.0 - lam) * model.graph[name].tensor.data


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
        weight_decay=config.weight_decay,
        lr_for=config.lr_for_component,
    )


# ---------------------------------------------------------------------------
# one epoch


@dataclass
class EpochSummary:
    """One trained epoch: mean losses and samples seen, but no metrics.

    ``breakdown`` holds the task loss plus one consistency term per
    compared feature; a lock epoch's holds the task loss alone.
    """

    breakdown: LossBreakdown
    samples_used: int


def _batch_losses(model, teacher, task, dataset_id, batch):
    """Build the tape loss for one batch; returns (total, task_val, terms).

    ``terms`` lists the consistency term values by component, each added to
    the total unscaled.  It is empty without a teacher (none is passed when
    ``student_teacher`` is off), and also when no compared student feature
    requires a gradient (a lock epoch): the teacher forward is then skipped.
    """
    x = np.stack([s.image for s in batch])[:, None, :, :]
    emb_s = model.backbone_features(x)
    out, branch_s = model.task_branch(emb_s, task, dataset_id)
    if task == "cls":
        task_term = cls_loss(out, np.stack([s.labels for s in batch]))
    elif task == "loc":
        task_term = loc_loss(*out, [s.boxes for s in batch])
    else:
        task_term = seg_loss(out, np.stack([s.mask for s in batch]).astype(np.float64))

    terms: list[tuple[str, Tensor]] = []
    # A consistency term whose student feature is a constant (its shared
    # components frozen, as in a lock epoch) carries no gradient, so the
    # teacher forward runs only when a compared student feature can learn.
    learning = emb_s.requires_grad or (branch_s is not None and branch_s.requires_grad)
    if teacher is not None and learning:
        # The teacher pass touches shared components only, all of which the
        # teacher mirrors, so its arrays can resolve parameter names directly.
        emb_t = model.backbone_features(x, weights=teacher.params)
        terms.append((BACKBONE, consistency_loss(emb_s, emb_t)))
        if branch_s is not None:
            branch_t = model.branch_features(emb_t, task, weights=teacher.params)
            terms.append((BRANCHES[task], consistency_loss(branch_s, branch_t)))

    total = task_term
    for _, term in terms:
        total = total + term
    return total, task_term.item(), [(name, term.item()) for name, term in terms]


def _train_pass(model, teacher, task, dataset_id, samples, epoch_seed, optimizer, config,
                lr_scale=1.0):
    """One shuffled pass over ``samples``, stepping the optimizer per batch.

    Order and augmentation follow ``epoch_seed``.  Returns the per-batch task
    loss values and the per-batch consistency terms by name.
    """
    order = np.random.RandomState(derive_seed(epoch_seed, "order")).permutation(len(samples))
    task_vals: list[float] = []
    term_vals: dict[str, list[float]] = {}
    for start in range(0, len(samples), config.batch_size):
        batch = [augment(samples[i], epoch_seed) for i in order[start : start + config.batch_size]]
        total, task_val, terms = _batch_losses(model, teacher, task, dataset_id, batch)
        grads = model.graph.backward(total)
        optimizer.step(model.graph.parameters(), grads, lr_scale=lr_scale)
        task_vals.append(task_val)
        for name, v in terms:
            term_vals.setdefault(name, []).append(v)
    return task_vals, term_vals


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
    """Train one scheduled epoch; what is scored after it is :func:`pretrain_epochs`'s call.

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
    task_vals, term_vals = _train_pass(
        model, teacher, entry.task, entry.dataset_id, samples, epoch_seed, optimizer, config,
        lr_scale=config.lr_scale_at(global_epoch),
    )
    breakdown = LossBreakdown.build(
        float(np.mean(task_vals)),
        [(name, float(np.mean(vals))) for name, vals in term_vals.items()],
    )
    return EpochSummary(breakdown=breakdown, samples_used=len(samples))


# ---------------------------------------------------------------------------
# evaluation

_METRIC_FOR_TASK = {"cls": "AUC", "loc": "mAP40", "seg": "Dice"}


@no_grad()
def predict(model, spec, samples, task, weights=None, features=None,
            head_inputs=None) -> dict[str, np.ndarray]:
    """Decoded outputs of one task on a sample list, one row per sample;
    :func:`score` scores them and ``cyclictrain eval`` also dumps them.

    ``cls`` gives ``scores`` (sigmoid of the logits), ``loc`` gives
    ``boxes`` and the class ``logits`` per query, ``seg`` gives mask
    ``logits``.  The forward runs in 64-image chunks without recording a
    tape; an empty list gives zero-row arrays.

    Two memos, each owned and sized by its caller, skip repeated passes.
    ``features`` holds backbone maps keyed by the chunk's first index:
    chunks it lacks run the backbone and are stored, the others run only
    the task's branch.  One such memo serves the tasks of one sample list
    under one weight set, for one call of its owner.  ``head_inputs``
    holds each task's head input (see ``model.BRANCHES``) keyed by
    ``(chunk start, task)``: a chunk it holds runs the head alone.  It may
    outlive a call, but only while every component below the heads stays
    unchanged; head-only :func:`finetune` keeps one for its whole run.
    (The chunk size stays 64: the cls head's matmul gives other bits on a
    ragged 1-3 row tail.)
    """
    if task not in TASKS:
        raise ValueError(f"unknown task '{task}'")
    features = {} if features is None else features
    size = spec.image_size
    x = np.array([s.image for s in samples], dtype=np.float64).reshape(len(samples), 1, size, size)
    outs = []
    # an empty list still runs one zero-row forward, so every array keeps its shape
    for start in range(0, max(len(x), 1), 64):
        held = None if head_inputs is None else head_inputs.get((start, task))
        if held is not None:
            out = model.head(held, task, spec.dataset_id, weights)
        else:
            emb = features.get(start)
            if emb is None:
                emb = features[start] = model.backbone_features(x[start : start + 64], weights)
            out, feature = model.task_branch(emb, task, spec.dataset_id, weights)
            if head_inputs is not None:
                head_inputs[(start, task)] = emb if feature is None else feature
            # unless the memo holds it, the branch map dies before the next chunk runs
            del feature
        outs.append(out if isinstance(out, tuple) else (out,))
    arrays = [np.concatenate([o[k].data for o in outs]) for k in range(len(outs[0]))]
    if task == "cls":
        with np.errstate(over="ignore"):  # a logit below about -709 scores 0.0
            return {"scores": 1.0 / (1.0 + np.exp(-arrays[0]))}
    if task == "loc":
        return {"boxes": arrays[0], "logits": arrays[1]}
    return {"logits": arrays[0]}


def score(samples, task, out) -> tuple[float | None, str]:
    """``(value, metric name)`` of one task from :func:`predict`'s ``out`` on ``samples``.

    AUC for cls; mAP40 for loc, one detection per query (its likeliest class
    but "no object"); mean Dice over (sample, class) masks for seg.  None if
    ``samples`` is empty.
    """
    name = _METRIC_FOR_TASK[task]
    if not samples:
        return None, name
    if task == "cls":
        return auc(out["scores"], np.stack([s.labels for s in samples])), name
    if task == "loc":
        boxes = out["boxes"]
        class_probs = softmax(out["logits"]).data[..., :-1]
        class_ids = np.argmax(class_probs, axis=-1)
        detections = Detections(
            image_ids=np.repeat([s.sample_id for s in samples], boxes.shape[1]),
            boxes=boxes.reshape(-1, 4),
            class_ids=class_ids.reshape(-1),
            confidences=np.take_along_axis(class_probs, class_ids[..., None], axis=-1).reshape(-1),
        )
        gts = [GroundTruth(image_id=s.sample_id, box=tuple(b), class_id=int(c))
               for s in samples for b, c in zip(s.boxes.boxes, s.boxes.class_ids)]
        return map_at_iou(detections, gts, iou_threshold=0.40), name
    pred = out["logits"] > 0.0  # sigmoid(z) > 0.5 iff z > 0
    values = [dice(pred[i, c], s.mask[c])
              for i, s in enumerate(samples) for c in range(pred.shape[1])]
    return float(np.mean(values)), name


def evaluate_task(model, spec, samples, task, weights=None, features=None, head_inputs=None):
    """:func:`predict` then :func:`score`: ``(value, metric name)`` of one task on ``samples``.

    An empty sample list runs no forward.  ``features`` and ``head_inputs``
    are :func:`predict`'s backbone and head-input memos, owned by the caller.
    """
    out = predict(model, spec, samples, task, weights, features, head_inputs) if samples else None
    return score(samples, task, out)


def _evaluate_tasks(model, spec, samples, tasks, weights=None, head_inputs=None):
    """``(task, metric name, value)`` for each of ``tasks``, in cls -> loc -> seg order.

    The tasks share one backbone pass per chunk through a backbone memo that
    lives for this call only (see :func:`predict`).  ``head_inputs``, when
    given, is the caller's head-input memo for ``samples``; without one, no
    loc encoder or seg decoder map outlives its task.
    """
    features: dict = {}
    out = []
    for task in TASKS:
        if task in tasks:
            value, name = evaluate_task(model, spec, samples, task, weights, features, head_inputs)
            out.append((task, name, value))
    return out


def evaluate_dataset(model, bundle: DatasetBundle, weights=None):
    """(task, metric_name, value) on the test split for every declared task."""
    return _evaluate_tasks(model, bundle.spec, bundle.test, bundle.spec.tasks, weights)


def _metric_records(model, spec, samples, tasks, mode, cycle, epoch,
                    head_inputs=None) -> list[MetricsRecord]:
    """One record per task in ``tasks`` that has a metric value on ``samples``."""
    return [
        MetricsRecord(cycle=cycle, epoch=epoch, dataset_id=spec.dataset_id, task=task,
                      mode=mode, metric_name=name, value=value)
        for task, name, value in _evaluate_tasks(model, spec, samples, tasks,
                                                 head_inputs=head_inputs)
        if value is not None
    ]


# ---------------------------------------------------------------------------
# full pretraining


@dataclass
class TrainingState:
    """Everything a pretraining run advances, and the count of epochs it has run."""

    model: MultiTaskModel
    teacher: TeacherState
    optimizer: AdamW
    epochs_run: int = 0

    @staticmethod
    def fresh(model: MultiTaskModel, config: TrainConfig) -> "TrainingState":
        """An untrained run of ``model``: a teacher equal to it and an empty optimizer."""
        return TrainingState(model, TeacherState.init_from(model, config.momentum),
                             make_optimizer(config))


@dataclass
class EpochOutcome:
    """One trained epoch after its EMA update, with the metric records scored after it."""

    cycle: int
    epoch_in_cycle: int
    entry: EpochPlanEntry
    summary: EpochSummary
    records: list[MetricsRecord]
    cycle_done: bool


def pretrain_epochs(state: TrainingState, dataset_specs, config: TrainConfig,
                    bundles: dict[str, DatasetBundle] | None = None):
    """Run the cyclic schedule's remaining epochs, yielding an :class:`EpochOutcome` for each.

    The schedule is ``config.num_cycles`` cycles; the next epoch is
    ``divmod(state.epochs_run, len(plan))``, so a new iterator over the same
    state continues the run exactly.  The teacher is EMA-updated after every
    epoch.  Only this loop scores: the trained task after each release
    epoch and, with ``eval_every_epoch``, every dataset and task after every
    epoch, logged with mode ``"eval"``.  Two runs with the same config
    produce identical outcomes and identical final parameters.
    """
    specs = list(dataset_specs)
    if bundles is None:
        bundles = prepare_bundles(specs, config)
    plan = build_cycle_plan(specs, config).entries
    while state.epochs_run < config.num_cycles * len(plan):
        cycle, index = divmod(state.epochs_run, len(plan))
        entry = plan[index]
        bundle = bundles[entry.dataset_id]
        summary = run_epoch(
            state.model, state.teacher if config.student_teacher else None, entry, bundle,
            state.optimizer, config, cycle=cycle, epoch_in_cycle=index + 1,
            global_epoch=state.epochs_run,
        )
        ema_update(state.teacher, state.model)
        records = []
        if entry.mode == "release":
            records += _metric_records(
                state.model, bundle.spec, subtask_samples(bundle.test, bundle.spec, entry.subtask),
                (entry.task,), entry.mode, cycle, index + 1,
            )
        if config.eval_every_epoch:
            for spec in specs:
                b = bundles[spec.dataset_id]
                records += _metric_records(state.model, b.spec, b.test, b.spec.tasks, "eval",
                                           cycle, index + 1)
        state.epochs_run += 1
        yield EpochOutcome(cycle, index + 1, entry, summary, records, index + 1 == len(plan))


@dataclass
class PretrainResult:
    model: MultiTaskModel
    teacher: TeacherState
    records: list[MetricsRecord]
    epochs_run: int
    cycles_run: int


def run_pretraining(model: MultiTaskModel, dataset_specs, config: TrainConfig,
                    bundles: dict[str, DatasetBundle] | None = None) -> PretrainResult:
    """All of :func:`pretrain_epochs` from a fresh state, with every epoch's records."""
    state = TrainingState.fresh(model, config)
    records = [r for outcome in pretrain_epochs(state, dataset_specs, config, bundles)
               for r in outcome.records]
    return PretrainResult(model, state.teacher, records, state.epochs_run, config.num_cycles)


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
) -> FinetuneResult:
    """Adapt the model to one dataset, fully or through its heads only.

    New heads are made here and nowhere else: a dataset the model lacks gets
    fresh ones, seeded from ``config.seed`` and the dataset id, appended last.
    Per declared task, ``head_only`` trains what a lock epoch trains (the
    dataset's own head/decoder) and ``full`` what a release epoch trains
    (those plus the shared components the task routes through).  Every
    other component stays frozen, which is verified after every epoch.
    The data is split as in pretraining; ``few_shot_k`` restricts the
    training split to k samples, 1 <= k <= its size (``FewShotError``
    otherwise).  No teacher is involved: finetuning pays task losses only.

    The test split is scored after every epoch, once the frozen components
    are verified.  In ``head_only`` mode nothing below the heads changes,
    so one head-input memo (see :func:`predict`) lives for the whole run:
    each task's head input is computed once per 64-image chunk, about 2.6 MB
    per 40 loc images at the default architecture, and later epochs run
    the heads alone.  ``full`` mode trains shared components, so each
    epoch's scoring starts from no memo.
    """
    if mode not in ("full", "head_only"):
        raise ValueError(f"unknown finetune mode '{mode}'")
    ds = dataset_spec.dataset_id
    if ds not in model.datasets:
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
    head_inputs = {} if mode == "head_only" else None
    for epoch in range(1, epochs + 1):
        epoch_seed = derive_seed(config.seed, "finetune_epoch", ds, epoch)
        for task in TASKS:
            if task in dataset_spec.tasks:
                _train_pass(model, None, task, ds, train, epoch_seed, optimizer, config)
        now = model.graph.component_checksums()
        for c, expected in frozen_checksums.items():
            if now[c] != expected:
                raise RuntimeError(f"{mode} finetune modified frozen component '{c}'")
        # only after that check may the memo's head inputs be read again
        records.extend(_metric_records(model, dataset_spec, bundle.test, dataset_spec.tasks,
                                       "eval", 0, epoch, head_inputs))
    counts = model.graph.count_by_component()
    return FinetuneResult(
        model=model,
        records=records,
        trainable_params=sum(counts[c] for c in trainable),
        total_params=sum(counts.values()),
        train_size=len(train),
    )
