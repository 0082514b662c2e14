"""Show how a training cycle is planned and what freezes when.

Reproduces the 12-epoch organ-style schedule: a localization+segmentation
dataset with three per-class subtasks expands into lock/release pairs, and
each entry's frozen/trainable pattern is printed as an F/T table.
"""

from cyclictrain.engine import TrainConfig, build_cycle_plan
from cyclictrain.model import trainable_components
from cyclictrain.synthdata import SynthDatasetSpec, preset_cls_loc_seg, preset_organ_pairs

COLUMNS = ["backbone", "loc_encoder", "loc_decoder", "seg_decoder", "seg_head"]


def flag(entry, column, dataset_id):
    per_dataset = {"loc_decoder": f"loc_decoder/{dataset_id}",
                   "seg_head": f"seg_head/{dataset_id}"}
    comp = per_dataset.get(column, column)
    # everything the task routes through, i.e. what its release epoch trains
    if comp not in trainable_components(entry.task, "release", dataset_id):
        return "-"
    return "T" if comp in entry.trainable_components else "F"


def main():
    spec = preset_organ_pairs(num_images=48)
    plan = build_cycle_plan([spec], TrainConfig())
    print(f"one cycle of '{spec.dataset_id}': {len(plan.entries)} epochs\n")
    header = f"{'#':>2} {'data':5} " + " ".join(f"{c:<11}" for c in COLUMNS) + " mode     task"
    print(header)
    print("-" * len(header))
    for i, e in enumerate(plan.entries, start=1):
        flags = " ".join(f"{flag(e, c, spec.dataset_id):<11}" for c in COLUMNS)
        print(f"{i:>2} {e.data_fraction:5} {flags} {e.mode:8} {e.task} of {e.subtask}")

    print("\nmixed-annotation datasets expand by availability:")
    mixed = [
        preset_cls_loc_seg(dataset_id="full", num_images=30),
        SynthDatasetSpec(dataset_id="labels_only", num_images=30, tasks=("cls",)),
    ]
    plan = build_cycle_plan(mixed, TrainConfig())
    for e in plan.entries:
        print(f"  {e.dataset_id:12} {e.task} {e.mode:8} ({e.data_fraction} data)")


if __name__ == "__main__":
    main()
