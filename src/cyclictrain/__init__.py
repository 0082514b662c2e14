"""Desk-scale cyclic multi-task pretraining engine.

A shared-backbone model with per-dataset classification heads, localization
decoders and segmentation heads is trained cyclically over heterogeneous
datasets.  Localization and segmentation tasks alternate a *lock* epoch
(shared components frozen, half the data) with a *release* epoch (full
training, full data), and an EMA teacher supplies feature-consistency
targets throughout.  Everything runs on a small hand-rolled float64
autodiff core so gradients, freezes and schedules can be verified exactly.
"""

from .autodiff import GradCheckReport, ShapeError, Tensor, grad_check
from .engine import (
    CyclePlan,
    EpochPlanEntry,
    TeacherState,
    TrainConfig,
    build_cycle_plan,
    ema_update,
    export_teacher,
    finetune,
    run_pretraining,
    sample_lock_subset,
)
from .losses import (
    BoxTarget,
    LossBreakdown,
    cls_loss,
    consistency_loss,
    hungarian_match,
    iou,
    loc_loss,
    seg_loss,
)
from .metrics import Detection, GroundTruth, MetricsRecord, auc, dice, map_at_iou
from .model import (
    ArchConfig,
    DatasetModelSpec,
    MultiTaskModel,
    build_model,
    count_params,
    trainable_components,
)
from .optim import AdamW, AdamWState
from .synthdata import SynthDatasetSpec, SynthSample, augment, few_shot_subset, generate_dataset, split

__version__ = "0.1.0"
