"""Traced runs: spans at every layer boundary, recorded from outside the program.

A :class:`Tracer` wraps the public functions of each ``cyclictrain`` module
(every tape op, the model's forward passes, the losses, the optimizer step,
the engine phases, data generation, metrics, checkpoints and config
loading).  Backward time per op comes from wrapping the ``_bwd`` closure on
each node an op returns.  Each span records its name, start, end and parent;
spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
from collections import Counter, defaultdict

from cyclictrain import (
    autodiff, checkpoint, cli, config, engine, losses, metrics, model as model_mod, optim,
    synthdata,
)

from workloads import Patcher, clock

# tape ops, grouped as the per-layer metrics report them
OP_CATEGORIES = {
    "conv2d": ("conv2d",),
    "maxpool2d": ("maxpool2d",),
    "relu": ("relu",),
    "elementwise": ("add", "sub", "mul", "div", "neg"),
    "other": ("sigmoid", "softplus", "log", "softmax", "mean", "tsum", "reshape",
              "permute", "take_rows", "matmul", "upsample_nearest"),
}

# plain function spans: (module, function name, span name)
FUNCTION_SPANS = (
    (losses, "cls_loss", "losses.cls_loss"),
    (losses, "loc_loss", "losses.loc_loss"),
    (losses, "seg_loss", "losses.seg_loss"),
    (losses, "consistency_loss", "losses.consistency_loss"),
    (losses, "hungarian_match", "losses.hungarian_match"),
    (engine, "run_epoch", "engine.run_epoch"),
    (engine, "ema_update", "engine.ema_update"),
    (engine, "evaluate_task", "engine.evaluate_task"),
    (engine, "prepare_bundles", "engine.prepare_bundles"),
    (engine, "finetune", "engine.finetune"),
    (synthdata, "generate_dataset", "synthdata.generate_dataset"),
    (synthdata, "augment", "synthdata.augment"),
    (metrics, "auc", "metrics.auc"),
    (metrics, "dice", "metrics.dice"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (config, "load_run_config", "config.load"),
)

MODEL_FORWARDS = ("backbone_features", "cls_logits", "loc_encoder_features", "loc_predictions",
                  "seg_decoder_features", "seg_logits", "forward_cls", "forward_loc",
                  "forward_seg")

# call counts reported as metrics: metric name -> span name
CALL_METRICS = {
    "autodiff.conv2d.calls": "autodiff.conv2d.fwd",
    "autodiff.backward.calls": "autodiff.backward",
    "losses.hungarian_match.calls": "losses.hungarian_match",
    "engine.epochs": "engine.run_epoch",
    "synthdata.augment.calls": "synthdata.augment",
}

COUNTERS = ("autodiff.nodes_recorded", "autodiff.nodes_backpropagated",
            "model.zero_grads_returned", "optim.params_updated", "optim.params_skipped",
            "metrics.detections_scored", "checkpoint.bytes_written", "cli.rows_written")

SPANS = tuple(
    [f"autodiff.{c}.{d}" for c in OP_CATEGORIES for d in ("fwd", "bwd")]
    + ["autodiff.backward", "model.student_forward", "model.teacher_forward",
       "model.graph_backward", "optim.step", "metrics.map_at_iou", "checkpoint.save"]
    + [span for _, _, span in FUNCTION_SPANS]
)

# Spans and counters a workload bypasses; every other one must fire on
# every workload, so a binding the patch missed fails loudly instead of
# reading as zero.
BYPASSED = {
    "engine.finetune": {"pretrain_cycle", "lockstep_small"},
    "checkpoint.save": {"lockstep_small"},
    "checkpoint.bytes_written": {"lockstep_small"},
    "checkpoint.load": {"pretrain_cycle", "lockstep_small"},
    "config.load": {"lockstep_small", "downstream"},
    "cli.rows_written": {"lockstep_small", "downstream"},
    "engine.run_epoch": {"downstream"},
    "engine.ema_update": {"downstream"},
    "losses.cls_loss": {"downstream"},
    "losses.seg_loss": {"downstream"},
    "losses.consistency_loss": {"downstream"},
}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, tracing overhead included."""
    return ([f"{s}_s" for s in SPANS] + list(CALL_METRICS) + list(COUNTERS)
            + ["autodiff.tape_use_ratio", "model.grad_use_ratio", "trace.overhead_s"])


class Tracer:
    """Spans and counters for one traced run of a workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patcher = Patcher()

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        rec = [name, clock(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` timed as a span called ``name``."""
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _span(self, name):
        return lambda original: self.wrap(name, original)

    def _op(self, category):
        fwd, bwd = f"autodiff.{category}.fwd", f"autodiff.{category}.bwd"
        counts = self.counts

        def timed_bwd(closure):
            def traced_bwd(g):
                counts["autodiff.nodes_backpropagated"] += 1
                return self._call(bwd, closure, (g,), {})

            return traced_bwd

        def make(original):
            def traced(*args, **kwargs):
                out = self._call(fwd, original, args, kwargs)
                if out._bwd is not None:
                    counts["autodiff.nodes_recorded"] += 1
                    out._bwd = timed_bwd(out._bwd)
                return out

            return traced

        return make

    def _forward(self, original):
        # teacher weights arrive as the ``weights`` argument; None means the
        # student's own parameters
        position = list(inspect.signature(original).parameters).index("weights")

        def traced(*args, **kwargs):
            weights = kwargs.get("weights", args[position] if len(args) > position else None)
            name = "model.student_forward" if weights is None else "model.teacher_forward"
            return self._call(name, original, args, kwargs)

        return traced

    def _graph_backward(self, original):
        def traced(graph, loss):
            grads = self._call("model.graph_backward", original, (graph, loss), {})
            for p in graph.parameters():
                self.counts["model.grads_returned"] += 1
                self.counts["model.grads_used"] += p.trainable
                self.counts["model.zero_grads_returned"] += p.tensor.grad is None
            return grads

        return traced

    def _optim_step(self, original):
        def traced(opt, params, *args, **kwargs):
            params = list(params)
            updated = sum(p.trainable for p in params)
            self.counts["optim.params_updated"] += updated
            self.counts["optim.params_skipped"] += len(params) - updated
            return self._call("optim.step", original, (opt, params) + args, kwargs)

        return traced

    def _map_at_iou(self, original):
        def traced(detections, *args, **kwargs):
            self.counts["metrics.detections_scored"] += len(detections)
            return self._call("metrics.map_at_iou", original, (detections,) + args, kwargs)

        return traced

    def _save_checkpoint(self, original):
        def traced(directory, *args, **kwargs):
            out = self._call("checkpoint.save", original, (directory,) + args, kwargs)
            self.counts["checkpoint.bytes_written"] += sum(
                e.stat().st_size for e in os.scandir(directory) if e.is_file())
            return out

        return traced

    def _rows(self, original):
        def counted(writer, record):
            self.counts["cli.rows_written"] += 1
            return original(writer, record)

        return counted

    def install(self) -> None:
        p = self._patcher
        for category, ops in OP_CATEGORIES.items():
            for op in ops:
                p.function(autodiff, op, self._op(category))
        for module, name, span in FUNCTION_SPANS:
            p.function(module, name, self._span(span))
        p.function(metrics, "map_at_iou", self._map_at_iou)
        p.function(checkpoint, "save_checkpoint", self._save_checkpoint)
        for name in MODEL_FORWARDS:
            p.method(model_mod.MultiTaskModel, name, self._forward)
        p.method(model_mod.ModelGraph, "backward", self._graph_backward)
        p.method(autodiff.Tensor, "backward", self._span("autodiff.backward"))
        p.method(optim.AdamW, "step", self._optim_step)
        p.method(cli.MetricsWriter, "write", self._rows)

    def remove(self) -> None:
        self._patcher.restore()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span, call counts, counters and the two use ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
            calls[name] += 1
        c = self.counts
        missing = [s for s in SPANS if not calls[s] and self.workload not in BYPASSED.get(s, ())]
        missing += [k for k in COUNTERS if not c[k] and self.workload not in BYPASSED.get(k, ())]
        if missing:
            raise RuntimeError(
                f"traced run of {self.workload} saw no calls for {missing}: "
                "a binding was missed or the workload no longer reaches that layer")
        out = {f"{s}_s": self_time[s] for s in SPANS}
        out.update({m: calls[s] for m, s in CALL_METRICS.items()})
        out.update({k: c[k] for k in COUNTERS})
        out["autodiff.tape_use_ratio"] = (
            c["autodiff.nodes_backpropagated"] / c["autodiff.nodes_recorded"])
        out["model.grad_use_ratio"] = c["model.grads_used"] / c["model.grads_returned"]
        return out

    def write(self, path: str, run_id: str, iteration: int) -> None:
        """Append this run's spans as JSON lines (gzip)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "at", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "workload": self.workload, "run": run_id, "iteration": iteration,
                    "id": i, "parent": parent, "name": name,
                    "start": start - t0, "end": end - t0,
                }) + "\n")
