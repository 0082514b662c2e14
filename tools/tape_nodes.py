"""How many tape nodes a benchmark workload records, and where it records them.

Runs one warm-up of ``perfbench/workloads.run_workload`` and then one counted
run of it in this process.  During the counted run ``autodiff._node``, which
every tape op calls to make its output, is wrapped from outside the program,
as perfbench's tracer and ``tools/peak_memory.py`` wrap ops, and unwrapped
afterwards.  Each node recorded with a backward closure is attributed to the
innermost function on its call stack that lives in ``cyclictrain.losses``,
``cyclictrain.model`` or ``cyclictrain.engine``.  The tool prints one row per
such function, most nodes first, then the total and the run's final-parameter
digest.  Every fused op counts as the one node it records; perfbench's
``autodiff.nodes_recorded`` counts only the ops its tracer binds by name.

Run from the root of a checkout (4–5 s per workload on a 2-vCPU Xeon VM)::

    python3 tools/tape_nodes.py --workload lockstep_small --seed 0
"""

import os

# must precede the first numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cyclictrain import autodiff  # noqa: E402
from workloads import WORKLOADS, Patcher, make_inputs, run_workload  # noqa: E402

# a recorded node counts for its innermost caller in one of these modules
CALLERS = ("cyclictrain.losses", "cyclictrain.model", "cyclictrain.engine")


def _caller(frame) -> str:
    while frame is not None:
        module = frame.f_globals.get("__name__")
        if module in CALLERS:
            return f"{module.rsplit('.', 1)[1]}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "(elsewhere)"


class NodeCount:
    """Nodes recorded with a backward, by their innermost caller in ``CALLERS``."""

    def __init__(self):
        self.by_caller = collections.Counter()
        self._patcher = Patcher()

    def _counted(self, original):
        def node(data, parents, bwd):
            out = original(data, parents, bwd)
            if out._bwd is not None:
                self.by_caller[_caller(sys._getframe(1))] += 1
            return out

        return node

    def install(self) -> None:
        self._patcher.function(autodiff, "_node", self._counted)

    def remove(self) -> None:
        self._patcher.restore()


def report(count: NodeCount) -> str:
    total = sum(count.by_caller.values())
    lines = [f"{'recorded by':<32} {'nodes':>8} {'share':>7}"]
    for caller, n in count.by_caller.most_common():
        lines.append(f"{caller:<32} {n:>8} {n / total:>7.1%}")
    lines.append(f"total {total}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed)
    work_root = tempfile.mkdtemp(prefix="tape_nodes-")
    count = NodeCount()
    try:
        warm = run_workload(args.workload, inputs, work_root)
        count.install()
        try:
            outcome = run_workload(args.workload, inputs, work_root)
        finally:
            count.remove()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    problems = warm.problems + outcome.problems
    if outcome.digest != warm.digest:
        problems.append("the counted run changed the final parameters")
    print(f"workload {args.workload}  seed {args.seed}  final-parameter digest {outcome.digest}")
    if not count.by_caller:
        problems.append("the counted run recorded no node")
    else:
        print(report(count))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
