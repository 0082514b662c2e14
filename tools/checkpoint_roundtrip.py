"""Load a finished run's checkpoints and save them again, byte for byte.

For each of ``checkpoints/cycle_001``, ``checkpoints/cycle_002``,
``checkpoints/final`` and ``teacher_export`` under the run directory, the
tool loads the checkpoint into the config's model (as ``cyclictrain eval``
does), saves the model, the teacher and the optimizer it held, with its
counters, config hash and weights kind, into a temporary directory, and
compares every file of the two directories.  It prints one line per
checkpoint and exits 1 unless every file is byte-equal.

Run from the root of a checkout, after README's command block::

    python3 tools/checkpoint_roundtrip.py --config demos/run_config.json runs/demo
"""

import argparse
import filecmp
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cyclictrain.checkpoint import save_checkpoint  # noqa: E402
from cyclictrain.cli import _load_model_from_checkpoint  # noqa: E402
from cyclictrain.config import load_run_config  # noqa: E402
from cyclictrain.engine import TeacherState  # noqa: E402

CHECKPOINTS = ("checkpoints/cycle_001", "checkpoints/cycle_002", "checkpoints/final",
               "teacher_export")


def roundtrip(cfg, directory: str, out: str) -> list[str]:
    """The files of ``directory`` that differ from, or are missing in, its resave."""
    model, cp = _load_model_from_checkpoint(cfg, directory)
    teacher = None
    if cp.teacher_arrays is not None:
        teacher = TeacherState(params=cp.teacher_arrays, momentum=cp.teacher_momentum)
    save_checkpoint(out, model, teacher=teacher, optimizer=cp.optimizer, counters=cp.counters,
                    config_hash=cp.config_hash, weights_kind=cp.weights_kind)
    names = sorted(set(os.listdir(directory)) | set(os.listdir(out)))
    _, mismatch, errors = filecmp.cmpfiles(directory, out, names, shallow=False)
    return mismatch + errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--config", required=True, help="the run's JSON config")
    parser.add_argument("run_dir", help="the run's output directory")
    args = parser.parse_args(argv)
    cfg = load_run_config(args.config)
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for rel in CHECKPOINTS:
            differ = roundtrip(cfg, os.path.join(args.run_dir, rel),
                               os.path.join(scratch, rel.replace("/", "_")))
            failed |= bool(differ)
            print(f"{rel}: " + (f"differs in {', '.join(differ)}" if differ else "the same"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
