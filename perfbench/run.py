"""cyclictrain benchmark: three training workloads, measured end to end.

Run from the root of a checkout::

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload pretrain_cycle --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload downstream --trace 1   # per-layer metrics

One workload runs in one single-threaded process (``OPENBLAS_NUM_THREADS=1``).
It repeats complete runs of the workload (set-up, timed part, output checks)
until ``--seconds`` have passed, and reports each metric as the median over
those runs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a run whose
outputs fail a check counts as failed.  With ``--trace 1`` every run is done
twice, untraced and traced, and the metrics are the per-layer ones.
See README.md in this directory.
"""

import os

# must precede the first numpy import, here and in every workload process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_program():
    """Import cyclictrain from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cyclictrain
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import cyclictrain from {src}: {e}")
    if src not in Path(cyclictrain.__file__).resolve().parents:
        raise SystemExit(f"perfbench: cyclictrain was imported from {cyclictrain.__file__}")


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"perfbench: cannot read {path}: {e}")


def info_fields() -> dict:
    """Recorded next to the metrics, never gated."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(outcomes, calibrated: bool = True) -> dict[str, float]:
    """Medians over the runs of one process; peak RSS is the process peak.

    Times are calibrated seconds (see ``workloads.Gauge``), or plain
    wall-clock seconds with ``calibrated=False``.
    """
    times = [vars(o) if calibrated else o.raw for o in outcomes]
    med = statistics.median
    return {
        "setup_s": med(t["setup_s"] for t in times),
        "wall_s": med(t["wall_s"] for t in times),
        "train_samples_per_s": med(o.train_samples / t["train_s"] for o, t in zip(outcomes, times)),
        "eval_images_per_s": med(o.eval_images / t["eval_s"] for o, t in zip(outcomes, times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def calibrated_layers(outcome, layer: dict[str, float]) -> dict[str, float]:
    """Scale a traced run's self times by that run's calibration factor."""
    factor = (outcome.setup_s + outcome.wall_s) / (outcome.raw["setup_s"] + outcome.raw["wall_s"])
    return {k: v * factor if k.endswith("_s") else v for k, v in layer.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repeat the workload until ``seconds`` have passed; return the report."""
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    outcomes, traced = [], []
    problems: list[str] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        o = workloads.run_workload(workload, inputs, str(OUT))
        outcomes.append(o)
        if trace:
            from tracer import Tracer

            tracer = Tracer(workload)
            t = workloads.run_workload(workload, inputs, str(OUT), tracer=tracer)
            if t.digest != o.digest:
                t.problems.append("traced run changed the final parameters")
            traced.append((t, tracer))
    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        problems.append(f"one seed gave {len(digests)} different final parameter sets")
    runs = outcomes + [t for t, _ in traced]
    for i, o in enumerate(runs):
        for p in o.problems:
            problems.append(f"run {i}: {p}")
    report = {
        "workload": workload,
        "seed": seed,
        "runs": len(outcomes),
        "digest": outcomes[0].digest,
        "last_epoch_loss": outcomes[0].last_epoch_loss,
        "kernel_ms": 1e3 * statistics.median(o.kernel_s for o in outcomes),
        "raw": end_to_end(outcomes, calibrated=False),
        "problems": problems,
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(bool(o.problems) for o in runs),
    }
    if not trace:
        report["metrics"] = end_to_end(outcomes)
        return report
    per_run = [calibrated_layers(t, tr.layer_metrics()) for t, tr in traced]
    layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    layer["trace.overhead_s"] = (statistics.median(t.wall_s for t, _ in traced)
                                 - statistics.median(o.wall_s for o in outcomes))
    report["metrics"] = layer
    run_id = f"{workload}-seed{seed}-{os.getpid()}-{int(time.time())}"
    trace_path = OUT / f"trace-{workload}.jsonl.gz"
    trace_path.unlink(missing_ok=True)
    for i, (_, tr) in enumerate(traced):
        tr.write(str(trace_path), run_id, i)
    report["trace_file"] = str(trace_path.relative_to(ROOT))
    return report


def print_report(report: dict, units: dict[str, str]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"runs {report['runs']} (median reported)")
    for name, value in report["metrics"].items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  gauge kernel {report['kernel_ms']:.4f} ms; uncalibrated: "
          + ", ".join(f"{k} {v:.4f}" for k, v in report["raw"].items()))
    print(f"  final-parameter digest {report['digest'][:16]}  "
          f"last epoch loss {report['last_epoch_loss']:.6f}")
    if "trace_file" in report:
        print(f"  spans written to {report['trace_file']}")
    for p in report["problems"]:
        print(f"  CHECK FAILED: {p}")


def run_one(args, contract: dict) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from tracer import metric_unit

        produced = {k: metric_unit(k) for k in report["metrics"]}
    else:
        produced = {m: units.get(m) for m in report["metrics"]}
    if produced != units:
        raise SystemExit(f"perfbench: metrics {produced} do not match BENCHMARK.json {units}")
    print_report(report, units)
    print("info " + json.dumps(info_fields(), sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


def run_all(args, workloads: list[str]) -> int:
    """Every workload in its own process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    parser.add_argument("--workload", choices=workloads + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long (complete runs only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
