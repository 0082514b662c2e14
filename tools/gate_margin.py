"""How far the learning gates of acceptance criteria 09 and 10 clear their bounds.

Criterion 09 trains one seeded run and checks AUC >= 0.90, Dice >= 0.80 and
mAP40 >= 0.50 on the teacher export.  Both criteria are imported from
``tests/test_acceptance.py`` (``criterion_09_setup`` and
``criterion_10_loc_map``), so the study runs what the tests run.  It reruns
criterion 09 ``--runs`` times, run k with every non-zero initial weight
moved by one ulp (``np.nextafter``) in a direction drawn from
``RandomState(1000 + k)``, plus the unperturbed run.  Each run's teacher export is scored on the 40-image
test split and on a fresh 1000-image set
(``preset_cls_loc_seg(num_images=1000, seed=9303)``).  The study prints the
OpenBLAS kernels it ran on (``tools/blas_core.py``), then the
unperturbed value and the min / median / max of the perturbed runs per
metric, with how many runs fall below the gate.  Last come criterion 10's
runs at the test's seeds 0..4 and at seeds 5..9: per seed set, each arm's
mean and sd of mAP40 and their margin.

``--coretypes Haswell,SkylakeX`` repeats the study once per named kernel
path, each in its own process pool, whose workers start with
``OPENBLAS_CORETYPE`` set to that name.  Each worker reads ``blas_core``
itself, and every block of output names the kernels its workers ran on
(a name OpenBLAS does not know leaves it on the kernels it picks).

Run from the root of a checkout (a criterion 09 run takes about 60 s on a
2-vCPU Xeon VM and a criterion 10 run 2-4 s, each using up to two cores,
since conv2d's forward and backward use a second thread;
``--jobs`` runs that many at a time, one process each, and the 11
criterion 09 and 20 criterion 10 runs below took 10 minutes there)::

    python3 tools/gate_margin.py --runs 10 --jobs 2
    python3 tools/gate_margin.py --runs 1 --coretypes Haswell,SkylakeX

Every declared change to float summation order quotes this output beside
the parent's, for the same ``--runs``.
"""

import os

# must precede the first numpy import, here and in every worker process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from cyclictrain import synthdata  # noqa: E402
from cyclictrain.engine import (  # noqa: E402
    DatasetBundle,
    evaluate_dataset,
    export_teacher,
    prepare_bundles,
    run_pretraining,
)
from blas_core import blas_core  # noqa: E402
from test_acceptance import criterion_09_setup, criterion_10_loc_map  # noqa: E402

# (metric key, label, gate)
GATES = (
    ("test/cls", "AUC, test 40", 0.90),
    ("test/seg", "Dice, test 40", 0.80),
    ("test/loc", "mAP40, test 40", 0.50),
    ("held_out/cls", "AUC, held-out 1000", 0.90),
    ("held_out/seg", "Dice, held-out 1000", 0.80),
    ("held_out/loc", "mAP40, held-out 1000", 0.50),
)
HELD_OUT = synthdata.preset_cls_loc_seg(num_images=1000, seed=9303)


def perturb(model, k: int) -> None:
    """Move every non-zero parameter value one ulp, up or down as RandomState(1000 + k) draws."""
    rs = np.random.RandomState(1000 + k)
    for p in model.graph.parameters():
        data = p.tensor.data
        toward = np.where(rs.rand(*data.shape) < 0.5, -np.inf, np.inf)
        data[...] = np.where(data != 0.0, np.nextafter(data, toward), data)


def criterion_09_run(k):
    """Criterion 09's run, perturbed by ``k`` (None: as the test runs it): the
    worker's kernels and metric -> value."""
    specs, cfg, model = criterion_09_setup()
    if k is not None:
        perturb(model, k)
    result = run_pretraining(model, specs, cfg)
    exported = export_teacher(result.model, result.teacher)
    held_out = DatasetBundle(spec=HELD_OUT, train=[], val=[],
                             test=synthdata.generate_dataset(HELD_OUT))
    values = {}
    for split, bundle in (("test", prepare_bundles(specs, cfg)["labels_boxes_masks"]),
                          ("held_out", held_out)):
        for task, _, value in evaluate_dataset(result.model, bundle, weights=exported):
            values[f"{split}/{task}"] = value
    return blas_core(), values


def criterion_10_run(seed, enabled):
    """Criterion 10's run: the worker's kernels and its test-split loc mAP40."""
    return blas_core(), criterion_10_loc_map(seed, enabled)


def study(runs: int, jobs: int, coretype: str | None) -> None:
    """Run and print the study in one pool, its workers on ``coretype``'s kernels."""
    t0 = time.time()
    if coretype is not None:
        os.environ["OPENBLAS_CORETYPE"] = coretype  # the pool's workers inherit it
    # criterion 10's runs: seeds 0-9 with lock-release and the teacher, then without
    seeds, enabled = list(range(10)) * 2, [True] * 10 + [False] * 10
    # spawned workers import this file afresh, which sets their BLAS threads too
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        runs_09 = pool.map(criterion_09_run, [None] + list(range(runs)))
        runs_10 = pool.map(criterion_10_run, seeds, enabled)
        runs_09, runs_10 = list(runs_09), list(runs_10)
    kernels = sorted({core for core, _ in runs_09 + runs_10})
    (_, unperturbed), perturbed = runs_09[0], [values for _, values in runs_09[1:]]
    loc = [value for _, value in runs_10]

    asked = "" if coretype is None else f" (OPENBLAS_CORETYPE={coretype})"
    print(f"blas_core: {', '.join(kernels)}{asked}")
    print(f"criterion 09 on {'/'.join(kernels)}, {runs} perturbed runs "
          f"({time.time() - t0:.0f} s in all)")
    print(f"{'metric (gate)':<30} {'unperturbed':>11}  {'min':>6} {'median':>6} {'max':>6}"
          f"  below gate")
    for key, label, gate in GATES:
        values = [r[key] for r in perturbed]
        below = sum(v < gate for v in values)
        print(f"{f'{label} ({gate:.2f})':<30} {unperturbed[key]:>11.3f}  {min(values):>6.3f} "
              f"{statistics.median(values):>6.3f} {max(values):>6.3f}  {below}")
    for first in (0, 5):
        arms = [loc[first : first + 5], loc[10 + first : 15 + first]]
        (on, on_sd), (off, off_sd) = [(statistics.mean(a), statistics.stdev(a)) for a in arms]
        print(f"criterion 10, seeds {first}..{first + 4}: mean mAP40 with lock-release+teacher "
              f"{on:.3f} (sd {on_sd:.3f}) vs disabled {off:.3f} (sd {off_sd:.3f}), "
              f"margin {on - off:+.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="perturbed criterion 09 runs")
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    parser.add_argument("--coretypes", default=None,
                        help="comma-separated OPENBLAS_CORETYPE names, one study each "
                             "(default: one study on the kernels OpenBLAS picks)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.jobs < 1:
        parser.error("--runs and --jobs must be at least 1")
    coretypes = [None] if args.coretypes is None else args.coretypes.split(",")
    if not all(coretypes):
        parser.error("--coretypes takes names separated by single commas")
    for i, coretype in enumerate(coretypes):
        if i:
            print()
        study(args.runs, args.jobs, coretype)
    return 0


if __name__ == "__main__":
    sys.exit(main())
