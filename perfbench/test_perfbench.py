"""Tests of the benchmark itself, not of cyclictrain.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}


def _short_run(workload: str, seed: int) -> dict:
    """One untraced run of the workload: ``--seconds 0`` stops after the first."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _first_images(workload: str, seed: int) -> list:
    specs = workloads.make_inputs(workload, seed)["specs"]
    return [workloads.synthdata.generate_dataset(s)[0].image for s in specs]


def test_seed_changes_inputs_but_not_metric_names():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 1) == workloads.make_inputs(workload, 1)
        assert workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)
        for a, b in zip(_first_images(workload, 1), _first_images(workload, 2)):
            assert (a != b).any()
    first, second = _short_run("lockstep_small", 1), _short_run("lockstep_small", 2)
    assert _units(first) == _units(second) == END_TO_END


@pytest.mark.parametrize("workload", ["pretrain_cycle", "downstream"])
def test_short_run_prints_every_end_to_end_metric(workload):
    result = _short_run(workload, 3)
    assert _units(result) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_reached_by_some_workload():
    assert [m["name"] for m in CONTRACT["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    for name, bypassing in tracer.BYPASSED.items():
        assert name in tracer.SPANS or name in tracer.COUNTERS, name
        assert bypassing < set(workloads.WORKLOADS), name
