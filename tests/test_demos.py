"""Smoke test: every demo runs to completion.

They import public names from the package, so removing or renaming one
breaks a demo; running them here catches that.  Demo 04 pretrains and
evaluates, and demo 05 is the one that finetunes onto a dataset the model
has no heads for; they take a few seconds each.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_generate_data.py",
    "02_autodiff_and_gradcheck.py",
    "03_cycle_plan_and_freezing.py",
    "04_pretrain_and_evaluate.py",
    "05_finetune_head_only.py",
    "06_metrics_tour.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
