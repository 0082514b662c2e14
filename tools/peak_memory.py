"""What sets a benchmark workload's peak memory: the arrays alive at its traced peak.

Runs one warm-up of ``perfbench/workloads.run_workload`` and then one more
run of it in this process under ``tracemalloc``.  During that run every tape
op in ``cyclictrain.autodiff``, the backward closure of every node an op
records, ``autodiff._forward_blocks_into`` (a run of conv2d forward
blocks, whose scratch is alive at its return) and ``autodiff._grad_w_into``
(the conv2d kernel gradient, whose patch matrix is alive at its return) are
wrapped; the last two may run on conv2d's worker thread.  They are wrapped
from outside the program, as perfbench's tracer does, and unwrapped
afterwards.  Whenever traced memory reaches a new high at the return of a
wrapped function, the tool takes a snapshot.  It prints the highest of those
highs, the function whose return it was, tracemalloc's own peak (which may
fall between two returns), and the allocation sites alive at the snapshot,
largest first, each with its innermost frames first (the wrappers' own
frames left out).  For the watched run, perfbench's gauge kernel, which only
calibrates times, returns its reference time at once: its Python loop
allocates ten thousand integers per call, and tracing them would take most
of the run.

Run from the root of a checkout (tracing makes a run five to ten times
slower: about half a minute for ``lockstep_small`` on one core)::

    python3 tools/peak_memory.py --workload pretrain_cycle --seed 0

Sizes are in MB of 2**20 bytes, as perfbench's ``peak_rss_mb``.  numpy
reports its array buffers to tracemalloc, so the figures cover the arrays
the program holds; the interpreter, the libraries and their caches, which
the process's resident set also counts, are not in them.
"""

import os

# must precede the first numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import linecache  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cyclictrain import autodiff  # noqa: E402
from workloads import REFERENCE_S, WORKLOADS, Gauge, Patcher, make_inputs, run_workload  # noqa: E402

# allocation sites printed, and frames traced per allocation
TOP_SITES = 8
FRAMES = 6
MB = 2**20


class PeakWatch:
    """Snapshots of traced memory at each new high seen at a wrapped function's return."""

    def __init__(self):
        self.high = 0
        self.where = None
        self.snapshot = None
        self._patcher = Patcher()
        # returns on conv2d's worker thread and on the calling thread race
        self._lock = threading.Lock()

    def _returned(self, name: str) -> None:
        with self._lock:
            current = tracemalloc.get_traced_memory()[0]
            if current > self.high:
                self.high, self.where = current, name
                self.snapshot = tracemalloc.take_snapshot()

    def _watched_bwd(self, op: str, closure):
        def bwd(g):
            out = closure(g)
            self._returned(f"autodiff.{op} backward")
            return out

        return bwd

    def _watched_op(self, op: str):
        def make(original):
            def watched(*args, **kwargs):
                out = original(*args, **kwargs)
                if out._bwd is not None:
                    out._bwd = self._watched_bwd(op, out._bwd)
                self._returned(f"autodiff.{op}")
                return out

            return watched

        return make

    def _watched(self, name: str):
        def make(original):
            def watched(*args, **kwargs):
                out = original(*args, **kwargs)
                self._returned(name)
                return out

            return watched

        return make

    def install(self) -> None:
        for name in autodiff.__all__:
            if name[0].islower() and name not in ("no_grad", "grad_check"):
                self._patcher.function(autodiff, name, self._watched_op(name))
        self._patcher.function(autodiff, "_forward_blocks_into",
                               self._watched("autodiff._forward_blocks_into"))
        self._patcher.function(autodiff, "_grad_w_into", self._watched("autodiff._grad_w_into"))
        self._patcher.method(Gauge, "_kernel", lambda original: lambda gauge: REFERENCE_S)

    def remove(self) -> None:
        self._patcher.restore()


def _where(frame) -> str:
    path = Path(frame.filename)
    if ROOT in path.parents:
        path = path.relative_to(ROOT)
    source = linecache.getline(frame.filename, frame.lineno).strip()
    return f"{path}:{frame.lineno}  {source}"


def report(watch: PeakWatch, traced_peak: int) -> str:
    lines = [f"peak at a hooked return: {watch.high / MB:.1f} MB, "
             f"at the return of {watch.where}",
             f"tracemalloc peak: {traced_peak / MB:.1f} MB",
             f"top {TOP_SITES} allocation sites alive at that return, innermost frames first:"]
    snapshot = watch.snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    for i, stat in enumerate(snapshot.statistics("traceback")[:TOP_SITES], 1):
        lines.append(f"{i:2d}. {stat.size / MB:6.2f} MB in {stat.count} blocks")
        lines.extend(f"      {_where(frame)}" for frame in reversed(stat.traceback)
                     if frame.filename != __file__)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed)
    work_root = tempfile.mkdtemp(prefix="peak_memory-")
    watch = PeakWatch()
    try:
        warm = run_workload(args.workload, inputs, work_root)
        watch.install()
        tracemalloc.start(FRAMES)
        try:
            outcome = run_workload(args.workload, inputs, work_root)
            traced_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            watch.remove()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    problems = warm.problems + outcome.problems
    if outcome.digest != warm.digest:
        problems.append("the watched run changed the final parameters")
    print(f"workload {args.workload}  seed {args.seed}  final-parameter digest {outcome.digest}")
    if watch.snapshot is None:
        problems.append("no hooked function returned")
    else:
        print(report(watch, traced_peak))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
