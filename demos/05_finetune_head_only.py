"""Adapt a pretrained model to a brand-new dataset two ways.

Head-only finetuning adds a fresh localization decoder and trains nothing
else: every pre-existing component's checksum stays constant while the new
decoder learns.  Full finetuning also trains the shared components the new
dataset's tasks route through (backbone and localization encoder) and
leaves the pretraining dataset's heads untouched.  The script reports
the trainable-parameter fraction and final metrics for both modes.
"""

import copy

from cyclictrain.engine import TrainConfig, finetune, run_pretraining
from cyclictrain.model import ArchConfig, build_model
from cyclictrain.synthdata import SynthDatasetSpec, preset_cls_loc_seg


def main():
    base_specs = [preset_cls_loc_seg(dataset_id="pretrain_ds", num_images=80)]
    cfg = TrainConfig(
        lr_backbone=3e-4, lr_loc=6e-3, lr_seg=1e-2, lr_cls_head=1e-2,
        num_cycles=2, batch_size=8, epochs_per_task=2, seed=0,
    )
    model = build_model(ArchConfig(), [s.model_spec() for s in base_specs])
    run_pretraining(model, base_specs, cfg)
    print("pretrained on 'pretrain_ds'")

    new_dataset = SynthDatasetSpec(
        "new_boxes", num_images=60, tasks=("loc",),
        min_instances=1, max_instances=1, seed=77,
    )

    for mode in ("head_only", "full"):
        trial = copy.deepcopy(model)
        before = trial.graph.component_checksums()
        result = finetune(trial, new_dataset, cfg, mode=mode, epochs=20)
        after = trial.graph.component_checksums()
        unchanged = sorted(c for c in before if after.get(c) == before[c])
        print(f"\n--- {mode} finetune on '{new_dataset.dataset_id}' ---")
        print(f"trainable: {result.trainable_params} of {result.total_params} "
              f"parameters ({result.trainable_fraction:.1%})")
        print(f"components untouched: {unchanged or 'none'}")
        final = [r for r in result.records if r.epoch == max(x.epoch for x in result.records)]
        for r in final:
            print(f"final {r.task} {r.metric_name}: {r.value:.4f}")


if __name__ == "__main__":
    main()
