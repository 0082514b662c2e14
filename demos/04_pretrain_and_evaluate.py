"""End-to-end pretraining walkthrough at a very small scale.

Three datasets with heterogeneous annotations train for two cycles.  The
script streams the run epoch by epoch: each epoch's plan entry, its mean
losses (the task loss plus one consistency term per compared feature; a lock
epoch has none) and the metric rows scored after it.  It then shows how far
the EMA teacher trails the student and evaluates held-out metrics at the end.
"""

import numpy as np

from cyclictrain.engine import (
    TrainConfig,
    TrainingState,
    evaluate_dataset,
    prepare_bundles,
    pretrain_epochs,
)
from cyclictrain.model import ArchConfig, build_model
from cyclictrain.synthdata import SynthDatasetSpec


def main():
    specs = [
        SynthDatasetSpec("labels", num_images=60, tasks=("cls",), seed=1),
        SynthDatasetSpec("labels_boxes", num_images=60, tasks=("cls", "loc"),
                         min_instances=1, max_instances=1, seed=2),
        SynthDatasetSpec("everything", num_images=60, tasks=("cls", "loc", "seg"),
                         min_instances=1, max_instances=1, seed=3),
    ]
    cfg = TrainConfig(
        lr_backbone=3e-4, lr_loc=6e-3, lr_seg=1e-2, lr_cls_head=1e-2,
        num_cycles=2, batch_size=8, seed=0,
    )
    model = build_model(ArchConfig(), [s.model_spec() for s in specs])
    counts = model.graph.count_by_component()
    print(f"model: {sum(counts.values())} parameters across {len(counts)} components")
    for comp, n in counts.items():
        print(f"  {comp:32} {n}")

    state = TrainingState.fresh(model, cfg)
    print("\nepoch by epoch: plan entry, mean loss = task loss + consistency terms")
    for outcome in pretrain_epochs(state, specs, cfg):
        e, b = outcome.entry, outcome.summary.breakdown
        terms = "".join(f" + {name} {value:.2e}" for name, value in b.consistency_terms)
        print(f"  cycle {outcome.cycle} epoch {outcome.epoch_in_cycle:>2} {e.dataset_id:18} "
              f"{e.task} {e.mode:7} {b.total:.4f} = task {b.task_loss:.4f}{terms}")
        for r in outcome.records:  # scored after each release epoch
            print(f"      {r.task} {r.metric_name:6} {r.value:.4f}")
    print(f"ran {state.epochs_run} epochs over {cfg.num_cycles} cycles")

    # the exported teacher only differs from the student by the EMA trail
    drift = max(
        float(np.max(np.abs(state.teacher.params[k] - model.graph[k].tensor.data)))
        for k in state.teacher.params
    )
    print(f"\nmax |teacher - student| after training: {drift:.2e} "
          f"(EMA momentum {state.teacher.momentum})")

    bundles = prepare_bundles(specs, cfg)
    print("\nheld-out metrics on the fully annotated dataset:")
    for task, name, value in evaluate_dataset(model, bundles["everything"]):
        print(f"  {task}: {name} = {value:.4f}")


if __name__ == "__main__":
    main()
