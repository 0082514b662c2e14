"""Command-line entry point: pretrain, finetune, eval, gen-data, inspect.

Metric logs are written as one CSV (fixed columns
``cycle,epoch,dataset,task,mode,metric,value``), one row per record,
appended and flushed as training emits them.  The output directory from
the config can be overridden with ``CYCLICTRAIN_OUT_DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import engine, synthdata
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, config_hash, load_run_config
from .engine import finetune
from .metrics import MetricsRecord
from .model import TASKS, build_model, component_dataset

CSV_HEADER = "cycle,epoch,dataset,task,mode,metric,value"


class MetricsWriter:
    """Append-only CSV log, flushed per row."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.csv_path = os.path.join(directory, "metrics.csv")
        self._csv = open(self.csv_path, "w", encoding="utf-8")
        self._csv.write(CSV_HEADER + "\n")
        self._csv.flush()

    def write(self, r: MetricsRecord) -> None:
        self._csv.write(
            f"{r.cycle},{r.epoch},{r.dataset_id},{r.task},{r.mode},"
            f"{r.metric_name},{r.value!r}\n"
        )
        self._csv.flush()

    def close(self) -> None:
        self._csv.close()


def _resolve_out_dir(cfg: RunConfig) -> str:
    return os.environ.get("CYCLICTRAIN_OUT_DIR", cfg.out_dir)


def _build_from_config(cfg: RunConfig):
    specs = [s.model_spec() for s in cfg.datasets]
    return build_model(cfg.arch, specs)


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = _resolve_out_dir(cfg)
    chash = config_hash(cfg)
    # a dataset that cannot be split fails here, before anything is written
    bundles = engine.prepare_bundles(cfg.datasets, cfg.train)
    state = engine.TrainingState.fresh(_build_from_config(cfg), cfg.train)
    writer = MetricsWriter(out_dir)
    rows = 0
    try:
        for outcome in engine.pretrain_epochs(state, cfg.datasets, cfg.train, bundles):
            for r in outcome.records:
                writer.write(r)
            rows += len(outcome.records)
            if outcome.cycle_done:  # only a cycle checkpoint holds the optimizer
                save_checkpoint(
                    os.path.join(out_dir, "checkpoints", f"cycle_{outcome.cycle + 1:03d}"),
                    state.model, teacher=state.teacher, optimizer=state.optimizer,
                    counters={"cycle": outcome.cycle + 1, "epoch": 0}, config_hash=chash)
    finally:
        writer.close()
    counters = {"cycle": cfg.train.num_cycles, "epoch": state.epochs_run}
    save_checkpoint(os.path.join(out_dir, "checkpoints", "final"), state.model,
                    teacher=state.teacher, counters=counters, config_hash=chash)
    save_checkpoint(os.path.join(out_dir, "teacher_export"), state.model,
                    teacher=state.teacher, counters=counters, config_hash=chash,
                    weights=engine.export_teacher(state.model, state.teacher),
                    weights_kind="teacher_export")
    print(
        f"pretrained {cfg.train.num_cycles} cycle(s), {state.epochs_run} epoch(s); "
        f"{rows} metric rows -> {writer.csv_path}"
    )
    return 0


def _load_model_from_checkpoint(cfg: RunConfig, checkpoint_path: str):
    """The config's model with the checkpoint's weights, and the checkpoint.

    The finetune dataset's heads join the model only when the checkpoint
    holds their parameters (a finetuned checkpoint); fresh heads are
    :func:`engine.finetune`'s to make.  Every parameter must come from the
    checkpoint, in the model's shape; stored arrays the model lacks are ignored.
    """
    cp = load_checkpoint(checkpoint_path)
    chash = config_hash(cfg)
    # pretraining wrote its checkpoints from this config less the finetune section
    if cp.config_hash and cp.config_hash not in (chash, config_hash(replace(cfg, finetune=None))):
        print(f"warning: checkpoint config hash {cp.config_hash[:12]} != config {chash[:12]}",
              file=sys.stderr)
    model = _build_from_config(cfg)
    target = cfg.finetune.dataset if cfg.finetune is not None else None
    if target is not None and target.dataset_id not in model.datasets \
            and target.dataset_id in {component_dataset(c) for c in cp.components.values()}:
        model.add_dataset(target.model_spec())  # every value comes from the checkpoint
    try:
        model.graph.load_arrays(cp.arrays)
    except ValueError as e:  # a missing parameter, or one of another shape
        raise CheckpointError(str(e)) from None
    return model, cp


def cmd_finetune(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.finetune is None:
        raise ConfigError("finetune: section missing from config")
    out_dir = os.path.join(_resolve_out_dir(cfg), "finetune")
    mode = args.mode if args.mode is not None else cfg.finetune.mode
    mode = mode.replace("-", "_")
    few_shot = args.few_shot if args.few_shot is not None else cfg.finetune.few_shot
    target = cfg.finetune.dataset

    model, _ = _load_model_from_checkpoint(cfg, args.checkpoint)
    if target.dataset_id not in model.datasets and not args.init_new_head:
        print(
            f"error: dataset '{target.dataset_id}' has no head in the "
            "checkpointed model; pass --init-new-head to create one",
            file=sys.stderr,
        )
        return 2

    try:
        result = finetune(
            model,
            target,
            cfg.train,
            mode=mode,
            few_shot_k=few_shot,
            epochs=cfg.finetune.epochs,
        )
    except synthdata.FewShotError as e:
        print(f"error: few-shot: {e}", file=sys.stderr)
        return 2
    writer = MetricsWriter(out_dir)
    try:
        for r in result.records:
            writer.write(r)
    finally:
        writer.close()
    save_checkpoint(
        os.path.join(out_dir, "checkpoint"),
        result.model,
        counters={"cycle": 0, "epoch": cfg.finetune.epochs},
        config_hash=config_hash(cfg),
    )
    summary = {
        "mode": mode,
        "dataset": target.dataset_id,
        "train_size": result.train_size,
        "trainable_params": result.trainable_params,
        "total_params": result.total_params,
        "trainable_fraction": result.trainable_fraction,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(
        f"finetuned '{target.dataset_id}' ({mode}); train size {result.train_size}; "
        f"trainable {result.trainable_params}/{result.total_params} "
        f"({result.trainable_fraction:.4f})"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    model, cp = _load_model_from_checkpoint(cfg, args.checkpoint)
    spec = next((s for s in cfg.datasets if s.dataset_id == args.dataset), None)
    if spec is None and cfg.finetune is not None \
            and cfg.finetune.dataset.dataset_id == args.dataset:
        spec = cfg.finetune.dataset
    if spec is None:
        print(f"error: dataset '{args.dataset}' not in config", file=sys.stderr)
        return 2
    if spec.dataset_id not in model.datasets:
        print(f"error: model has no heads for '{args.dataset}'", file=sys.stderr)
        return 2
    samples = engine.prepare_bundles([spec], cfg.train)[spec.dataset_id].test
    weights = None
    if args.weights == "teacher":
        if cp.teacher_arrays is None:
            print("error: checkpoint holds no teacher weights", file=sys.stderr)
            return 2
        weights = model.merged_weights(cp.teacher_arrays)
    report = {"dataset": spec.dataset_id, "weights": args.weights, "tasks": {}}
    truth = synthdata.annotation_arrays(spec, samples)
    payload = {"sample_ids": np.asarray([s.sample_id for s in samples], dtype="<i8")}
    features: dict = {}  # one backbone pass per chunk, shared by the tasks
    for task in TASKS:
        if task not in spec.tasks:
            continue
        # the metric, --out and the dump all come from this one prediction
        out = engine.predict(model, spec, samples, task, weights, features)
        value, metric_name = engine.score(samples, task, out)
        print(f"{spec.dataset_id} {task} {metric_name}: "
              f"{'undefined' if value is None else f'{value:.6f}'}")
        report["tasks"][task] = {"metric": metric_name, "value": value}
        payload.update((f"{task}_{key}", a) for key, a in out.items())
        payload.update((name, truth[key]) for key, name in _GROUND_TRUTH_KEYS[task].items())
    if args.dump_predictions:
        os.makedirs(args.dump_predictions, exist_ok=True)
        np.savez(os.path.join(args.dump_predictions, "predictions.npz"), **payload)
        print(f"predictions dumped to {args.dump_predictions}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


# per task, the predictions.npz name of each synthdata.annotation_arrays key
_GROUND_TRUTH_KEYS = {
    "cls": {"labels": "cls_labels"},
    "loc": {"box_counts": "gt_box_counts", "boxes": "gt_boxes", "box_classes": "gt_box_classes"},
    "seg": {"masks": "seg_masks"},
}


def cmd_inspect(args) -> int:
    cp = load_checkpoint(args.checkpoint)
    by_component: dict[str, int] = {}
    for name, arr in cp.arrays.items():
        comp = cp.components.get(name, "?")
        by_component[comp] = by_component.get(comp, 0) + arr.size
    total = sum(by_component.values())
    width = max(len(c) for c in by_component)
    print(f"checkpoint: {args.checkpoint}")
    print(f"weights kind: {cp.weights_kind}")
    print(f"counters: cycle={cp.counters.get('cycle', 0)} epoch={cp.counters.get('epoch', 0)}")
    if cp.config_hash:
        print(f"config hash: {cp.config_hash}")
    print(f"{'component'.ljust(width)}  parameters")
    for comp in sorted(by_component):
        print(f"{comp.ljust(width)}  {by_component[comp]}")
    print(f"{'total'.ljust(width)}  {total}")
    if cp.teacher_arrays is not None:
        print(f"teacher: {sum(a.size for a in cp.teacher_arrays.values())} "
              f"parameters, momentum {cp.teacher_momentum}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    out_dir = os.path.join(_resolve_out_dir(cfg), "data")
    specs = list(cfg.datasets)
    # a finetune dataset that reuses an id is that same dataset (the config checks it)
    if cfg.finetune is not None and cfg.finetune.dataset not in specs:
        specs.append(cfg.finetune.dataset)
    for spec in specs:
        samples = synthdata.generate_dataset(spec)
        target = os.path.join(out_dir, spec.dataset_id)
        synthdata.save_dataset(target, spec, samples)
        print(f"{spec.dataset_id}: {len(samples)} samples -> {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclictrain",
        description="Cyclic multi-task pretraining with lock/release scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the cyclic pretraining schedule")
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="finetune from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["full", "head-only", "head_only"])
    p.add_argument("--few-shot", type=int, dest="few_shot")
    p.add_argument("--init-new-head", action="store_true",
                   help="create heads for a dataset absent from the checkpoint")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights", choices=["student", "teacher"], default="student")
    p.add_argument("--dump-predictions", dest="dump_predictions",
                   help="directory for raw prediction arrays")
    p.add_argument("--out", help="write metric values to this JSON file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-data", help="generate and persist the config's datasets")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("inspect", help="print a checkpoint's component table")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, synthdata.SplitError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
