"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is one closed loop in one process: a training step starts
only when the previous one has ended.  The workload seed derives every
dataset-spec seed, ``TrainConfig.seed`` and ``ArchConfig.init_seed``; the
program sees only the generated specs and configs.

``run_workload`` performs one complete run of a workload (set-up plus the
timed part) and returns an :class:`Outcome` holding its phase times, the
final-parameter digest and every output-check failure found.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from cyclictrain import checkpoint, cli, engine, model as model_mod, synthdata
from cyclictrain.engine import TrainConfig
from cyclictrain.model import ArchConfig
from cyclictrain.synthdata import SynthDatasetSpec

WORKLOADS = ("pretrain_cycle", "lockstep_small", "downstream")

# Criterion 09's learning rates: backbone an order of magnitude colder than
# the branches.
LEARNING_RATES = dict(lr_backbone=3e-4, lr_loc=6e-3, lr_seg=1e-2, lr_cls_head=1e-2)

# The acceptance module's small 16-px architecture.
SMALL_ARCH = dict(image_size=16, stage_channels=(6, 10, 16), loc_channels=12,
                  query_dim=8, loc_grid=4, seg_channels=(6, 4))

# downstream: head-only few-shot finetune of a fresh localization dataset
FRESH_IMAGES = 200
FEW_SHOT_K = 64
FINETUNE_EPOCHS = 8

# Nominal time of one gauge kernel call, in seconds: about its median time on
# a shared 2-vCPU Xeon VM.  See Gauge.
REFERENCE_S = 1.5e-3

clock = time.perf_counter


def derive(seed: int, label: str) -> int:
    """31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _reseeded(spec: SynthDatasetSpec, seed: int) -> SynthDatasetSpec:
    return replace(spec, seed=derive(seed, spec.dataset_id))


def make_inputs(workload: str, seed: int) -> dict:
    """Specs and configs for one workload; equal seeds give equal inputs."""
    if workload == "pretrain_cycle":
        # criterion 09's configuration at 1/25 of its length
        return dict(
            specs=[_reseeded(s, seed) for s in (synthdata.preset_cls_only(),
                                                synthdata.preset_cls_loc(),
                                                synthdata.preset_cls_loc_seg())],
            arch=ArchConfig(init_seed=derive(seed, "arch")),
            train=TrainConfig(**LEARNING_RATES, batch_size=8, num_cycles=1,
                              epochs_per_task=1, seed=derive(seed, "train")),
        )
    if workload == "lockstep_small":
        return dict(
            specs=[
                _reseeded(replace(synthdata.preset_organ_pairs(num_images=240), image_size=16), seed),
                _reseeded(replace(synthdata.preset_cls_loc_seg(num_images=120), image_size=16), seed),
            ],
            arch=ArchConfig(**SMALL_ARCH, init_seed=derive(seed, "arch")),
            train=TrainConfig(**LEARNING_RATES, batch_size=4, num_cycles=2,
                              seed=derive(seed, "train")),
        )
    if workload == "downstream":
        return dict(
            specs=[_reseeded(s, seed) for s in (synthdata.preset_cls_only(num_images=600),
                                                synthdata.preset_cls_loc(num_images=600),
                                                synthdata.preset_cls_loc_seg(num_images=600))],
            arch=ArchConfig(init_seed=derive(seed, "arch")),
            train=TrainConfig(**LEARNING_RATES, batch_size=8, seed=derive(seed, "train")),
            fresh=SynthDatasetSpec("fresh_boxes", num_images=FRESH_IMAGES, tasks=("loc",),
                                   min_instances=1, max_instances=1,
                                   seed=derive(seed, "fresh_boxes")),
        )
    raise ValueError(f"unknown workload '{workload}'")


def param_digest(arrays: dict) -> str:
    """SHA-256 over parameter names and raw bytes, in registry order."""
    h = hashlib.sha256()
    for name, arr in arrays.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One complete run of a workload.

    Phase times are calibrated seconds (see :class:`Gauge`); ``raw`` holds
    the same phases in plain wall-clock seconds.
    """

    setup_s: float
    wall_s: float
    train_s: float
    train_samples: int
    eval_s: float
    eval_images: int
    raw: dict[str, float]
    kernel_s: float  # median time of one gauge kernel call during the run
    digest: str
    last_epoch_loss: float
    problems: list[str] = field(default_factory=list)


class Gauge:
    """A clock calibrated against how fast this machine runs right now.

    On a shared host the speed of a core drifts by tens of percent over tens
    of seconds, and the workload's step times follow it closely.  The gauge
    times a fixed reference kernel (the einsum of one conv tap plus a Python
    loop: the workload's own mix of arithmetic and interpreter overhead) at
    every phase boundary and at least every ``INTERVAL`` seconds while the
    model runs.  Each interval between two kernel calls counts as its
    wall-clock length times ``REFERENCE_S`` over the mean time of the last
    ``SMOOTHING`` kernel calls, which cancels most of the drift.  Time spent
    in the kernel counts in neither clock.
    """

    INTERVAL = 0.1
    SMOOTHING = 5

    def __init__(self):
        rs = np.random.RandomState(0)
        self._x = rs.rand(8, 16, 32, 32)
        self._w = rs.rand(32, 16)
        self.kernel_times: list[float] = []
        self._raw = 0.0
        self._calibrated = 0.0
        for _ in range(3):  # the first calls run cold
            self._kernel()
        self._last_end = clock()

    def _kernel(self) -> float:
        t0 = clock()
        np.einsum("nchw,oc->nohw", self._x, self._w, optimize=True)
        total = 0
        for i in range(10000):
            total += i
        return clock() - t0

    def mark(self) -> tuple[float, float]:
        """Time the kernel now; return (raw, calibrated) seconds so far."""
        start = clock()
        self.kernel_times.append(self._kernel())
        gap = start - self._last_end
        recent = self.kernel_times[-self.SMOOTHING:]
        self._raw += gap
        self._calibrated += gap * REFERENCE_S * len(recent) / sum(recent)
        self._last_end = clock()
        return self._raw, self._calibrated

    def tick(self) -> None:
        if clock() - self._last_end >= self.INTERVAL:
            self.mark()


class Phase:
    """Accumulated (raw, calibrated) seconds of one kind of phase."""

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0

    def add(self, start: tuple[float, float], end: tuple[float, float]) -> None:
        self.raw += end[0] - start[0]
        self.calibrated += end[1] - start[1]


# ---------------------------------------------------------------------------
# hooks around the program's public functions


class Patcher:
    """Rebinds program functions in every ``cyclictrain`` namespace.

    ``model``, ``losses`` and ``engine`` import functions by name, so a
    function is replaced wherever a module bound it, not only where it was
    defined.  ``restore`` puts every original back.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "cyclictrain" or n.startswith("cyclictrain."))]

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        hits = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    hits += 1
        if not hits:
            raise LookupError(f"{module.__name__}.{name} is bound nowhere")

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probe:
    """Phase clocks and output checks, hooked in with tracing off too.

    Wraps ``engine.run_epoch`` (freeze check, epoch losses, training time),
    ``engine.evaluate_task`` (eval time, images scored, metric values),
    ``ModelGraph.backward`` (every step's loss) and
    ``MultiTaskModel.backbone_features`` (the start of every forward pass,
    where the gauge ticks).
    """

    def __init__(self):
        self.problems: list[str] = []
        self.gauge = Gauge()
        self.train = Phase()
        self.eval = Phase()
        self.first_epoch: tuple[float, float] | None = None
        self.train_samples = 0
        self.eval_images = 0
        self.metric_values: list[tuple[str, str, object]] = []
        self.epoch_losses: list[float] = []
        self.step_losses: list[float] = []
        self.model = None
        self._patcher = Patcher()

    @contextlib.contextmanager
    def training(self):
        """Time a training phase, less the evaluation nested inside it."""
        start, eval_raw, eval_cal = self.gauge.mark(), self.eval.raw, self.eval.calibrated
        try:
            yield
        finally:
            end = self.gauge.mark()
            self.train.add(start, (end[0] - (self.eval.raw - eval_raw),
                                   end[1] - (self.eval.calibrated - eval_cal)))

    def install(self) -> "Probe":
        p = self._patcher
        p.function(engine, "run_epoch", self._wrap_run_epoch)
        p.function(engine, "evaluate_task", self._wrap_evaluate_task)
        p.method(model_mod.ModelGraph, "backward", self._wrap_backward)
        p.method(model_mod.MultiTaskModel, "backbone_features", self._wrap_forward)
        return self

    def remove(self) -> None:
        self._patcher.restore()

    def _wrap_run_epoch(self, original):
        def run_epoch(model, teacher, entry, bundle, *args, **kwargs):
            if self.first_epoch is None:
                self.first_epoch = self.gauge.mark()
            before = model.graph.component_checksums()
            with self.training():
                summary = original(model, teacher, entry, bundle, *args, **kwargs)
            after = model.graph.component_checksums()
            changed = sorted(c for c in before
                             if before[c] != after[c] and c not in entry.trainable_components)
            if changed:
                self.problems.append(
                    f"{entry.mode} epoch on {entry.dataset_id}/{entry.task} changed "
                    f"frozen components {changed}")
            self.train_samples += summary.samples_used
            self.epoch_losses.append(summary.breakdown.total)
            self.model = model
            return summary

        return run_epoch

    def _wrap_evaluate_task(self, original):
        def evaluate_task(model, spec, samples, task, *args, **kwargs):
            start = self.gauge.mark()
            value, name = original(model, spec, samples, task, *args, **kwargs)
            self.eval.add(start, self.gauge.mark())
            self.eval_images += len(samples)
            self.metric_values.append((f"{spec.dataset_id}/{task}", name, value))
            return value, name

        return evaluate_task

    def _wrap_backward(self, original):
        def backward(graph, loss):
            self.step_losses.append(float(loss.data))
            return original(graph, loss)

        return backward

    def _wrap_forward(self, original):
        def backbone_features(*args, **kwargs):
            self.gauge.tick()
            return original(*args, **kwargs)

        return backbone_features

    def check(self) -> None:
        """Record non-finite or negative losses and out-of-range metrics."""
        for what, values in (("step loss", self.step_losses), ("epoch loss", self.epoch_losses)):
            bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
            if bad:
                self.problems.append(f"{len(bad)} {what}(es) non-finite or negative, e.g. {bad[0]}")
        for where, name, value in self.metric_values:
            if value is None or not (math.isfinite(value) and 0.0 <= value <= 1.0):
                self.problems.append(f"{where} {name} = {value!r} is not a finite value in [0, 1]")


# ---------------------------------------------------------------------------
# workloads
#
# Each runner returns (setup, wall, model, last_epoch_loss, check): setup and
# wall are Phases, and ``check`` inspects files the run left behind once the
# hooks are removed.


def _config_dict(inputs: dict, out_dir: str) -> dict:
    return {
        "out_dir": out_dir,
        "arch": dataclasses.asdict(inputs["arch"]),
        "train": dataclasses.asdict(inputs["train"]),
        "datasets": [dataclasses.asdict(s) for s in inputs["specs"]],
    }


def _check_pretrain_outputs(out_dir: str, inputs: dict, model, problems: list[str]) -> None:
    """metrics.csv, the cycle and final checkpoints and the teacher export."""
    plan = engine.build_cycle_plan(inputs["specs"], inputs["train"]).entries
    epochs = len(plan)
    release = sum(e.mode == "release" for e in plan)
    try:
        with open(os.path.join(out_dir, "metrics.csv"), newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        problems.append(f"metrics.csv unreadable: {e}")
        rows = []
    if rows:
        if ",".join(rows[0]) != cli.CSV_HEADER:
            problems.append(f"metrics.csv header is {rows[0]}")
        body = rows[1:]
        if len(body) != release:
            problems.append(f"metrics.csv has {len(body)} rows, expected {release}")
        for row in body:
            try:
                ok = len(row) == 7 and 0.0 <= float(row[6]) <= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"metrics.csv row malformed: {row}")
    final_digest = param_digest(model.graph.arrays())
    expected = {
        "checkpoints/cycle_001": ("student", {"cycle": 1, "epoch": 0}),
        "checkpoints/final": ("student", {"cycle": 1, "epoch": epochs}),
        "teacher_export": ("teacher_export", {"cycle": 1, "epoch": epochs}),
    }
    for rel, (kind, counters) in expected.items():
        try:
            cp = checkpoint.load_checkpoint(os.path.join(out_dir, rel))
        except (checkpoint.CheckpointError, OSError, KeyError, ValueError) as e:
            problems.append(f"{rel} failed to load: {e}")
            continue
        if cp.weights_kind != kind or cp.counters != counters or cp.teacher_arrays is None:
            problems.append(f"{rel}: kind {cp.weights_kind}, counters {cp.counters}")
        if rel != "teacher_export" and param_digest(cp.arrays) != final_digest:
            problems.append(f"{rel} does not hold the trained parameters")


def _pretrain_cycle(inputs: dict, probe: Probe, work: str) -> tuple:
    out_dir = os.path.join(work, "run")
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(_config_dict(inputs, out_dir), f)
    start = probe.gauge.mark()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["pretrain", "--config", config_path])
    end = probe.gauge.mark()
    if status != 0:
        raise RuntimeError(f"cyclictrain pretrain exited with {status}")
    # set-up is everything the command does before its first epoch:
    # config load, data generation and split, model build
    setup, wall = Phase(), Phase()
    setup.add(start, probe.first_epoch)
    wall.add(probe.first_epoch, end)
    model = probe.model

    def check():
        _check_pretrain_outputs(out_dir, inputs, model, probe.problems)

    return setup, wall, model, probe.epoch_losses[-1], check


def _lockstep_small(inputs: dict, probe: Probe, work: str) -> tuple:
    setup, wall = Phase(), Phase()
    start = probe.gauge.mark()
    bundles = engine.prepare_bundles(inputs["specs"], inputs["train"])
    model = model_mod.build_model(inputs["arch"], [s.model_spec() for s in inputs["specs"]])
    middle = probe.gauge.mark()
    result = engine.run_pretraining(model, inputs["specs"], inputs["train"], bundles=bundles)
    setup.add(start, middle)
    wall.add(middle, probe.gauge.mark())
    return setup, wall, result.model, probe.epoch_losses[-1], None


def _downstream(inputs: dict, probe: Probe, work: str) -> tuple:
    specs, cfg, arch, fresh = inputs["specs"], inputs["train"], inputs["arch"], inputs["fresh"]
    export_dir = os.path.join(work, "teacher_export")
    setup, wall = Phase(), Phase()
    start = probe.gauge.mark()
    bundles = engine.prepare_bundles(specs, cfg)
    # an untrained teacher export stands in for a pretrained one: the
    # arithmetic downstream does not depend on the weight values
    trained = model_mod.build_model(arch, [s.model_spec() for s in specs])
    teacher = engine.TeacherState.init_from(trained, cfg.momentum)
    checkpoint.save_checkpoint(export_dir, trained, teacher=teacher,
                               weights=engine.export_teacher(trained, teacher),
                               weights_kind="teacher_export")
    cp = checkpoint.load_checkpoint(export_dir)
    model = model_mod.build_model(arch, [s.model_spec() for s in specs])
    model.graph.load_arrays(cp.arrays)
    teacher_weights = model.merged_weights(cp.teacher_arrays)
    before = model.graph.component_checksums()
    middle = probe.gauge.mark()
    for spec in specs:
        student = engine.evaluate_dataset(model, bundles[spec.dataset_id])
        as_teacher = engine.evaluate_dataset(model, bundles[spec.dataset_id], teacher_weights)
        # the export holds the teacher values in both weight sets
        if student != as_teacher:
            probe.problems.append(
                f"{spec.dataset_id}: student-weight eval {student} != teacher-weight eval {as_teacher}")
    with probe.training():
        result = engine.finetune(model, fresh, cfg, mode="head_only",
                                 few_shot_k=FEW_SHOT_K, epochs=FINETUNE_EPOCHS)
    setup.add(start, middle)
    wall.add(middle, probe.gauge.mark())
    after = model.graph.component_checksums()
    changed = sorted(c for c in before if before[c] != after[c])
    if changed:
        probe.problems.append(f"head-only finetune changed frozen components {changed}")
    steps_per_epoch = -(-result.train_size // cfg.batch_size) * len(fresh.tasks)
    probe.train_samples += result.train_size * FINETUNE_EPOCHS * len(fresh.tasks)
    for r in result.records:
        probe.metric_values.append((f"finetune/{r.dataset_id}/{r.task}", r.metric_name, r.value))
    last = probe.step_losses[-steps_per_epoch:]
    return setup, wall, result.model, sum(last) / len(last), None


_RUNNERS = {
    "pretrain_cycle": _pretrain_cycle,
    "lockstep_small": _lockstep_small,
    "downstream": _downstream,
}


def run_workload(workload: str, inputs: dict, work_root: str, tracer=None) -> Outcome:
    """One complete run: set-up, timed part, output checks.

    ``tracer`` (optional) is installed underneath the probe, so its spans
    exclude the probe's own checks, and it times the gauge kernel in a span
    of its own, so kernel time counts as no layer's self time.
    """
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    probe = Probe()
    if tracer is not None:
        tracer.install()
        probe.gauge._kernel = tracer.wrap("perfbench.gauge", probe.gauge._kernel)
    probe.install()
    try:
        try:
            setup, wall, model, last_loss, check = _RUNNERS[workload](inputs, probe, work)
        finally:
            probe.remove()
            if tracer is not None:
                tracer.remove()
        if check is not None:
            check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe.check()
    if probe.train_samples == 0 or probe.eval_images == 0:
        probe.problems.append("workload trained or evaluated nothing")
    return Outcome(
        setup_s=setup.calibrated,
        wall_s=wall.calibrated,
        train_s=probe.train.calibrated,
        train_samples=probe.train_samples,
        eval_s=probe.eval.calibrated,
        eval_images=probe.eval_images,
        raw={"setup_s": setup.raw, "wall_s": wall.raw, "train_s": probe.train.raw,
             "eval_s": probe.eval.raw},
        kernel_s=statistics.median(probe.gauge.kernel_times),
        digest=param_digest(model.graph.arrays()),
        last_epoch_loss=last_loss,
        problems=probe.problems,
    )
