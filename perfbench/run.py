"""Reconstruction benchmark for rbmqst.

Run from the root of a source checkout (the package is imported from
./src, nothing needs installing):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

A run builds its workload's target and initial parameters (set-up), then
repeats whole rounds of reconstructions until --seconds have passed, and
checks every round's outputs against the independent dense reference in
reference.py. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` (reconstructions) and `metrics`:

  --trace 0  setup_s, epoch_ms, peak_rss_mb (no wrappers installed)
  --trace 1  per-layer metrics: the set-up and one final round run with
             wrappers around the package's functions (tracing.py); the
             other rounds run unwrapped and give the untraced epoch time
             the layer sum is compared with. Spans are written to
             .perfbench_out/trace-<workload>-seed<seed>.jsonl.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing


def _process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_sweep", "wide_sampled", "exact_enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs rounds, their checks, and keeps the totals."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds = 0
        self.attempted = self.failed = 0
        self.round_epoch_ms = []
        self.problems = []

    def one_round(self, tracer=None):
        r = self.rounds
        self.rounds += 1
        span = tracer.open(tracing.ROOT) if tracer else None
        try:
            rnd = self.workload.run_round(r)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            if tracer:
                tracer.close(span)
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        if rnd.epochs:
            self.round_epoch_ms.append(1e3 * rnd.wall_s / rnd.epochs)
        return rnd

    def check(self, rnd) -> None:
        if rnd is None or rnd.failed:
            return
        try:
            self.problems += self.workload.check(rnd)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"round {rnd.outdir.name}: check raised {exc!r}")

    def until(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.check(self.one_round())
            if time.perf_counter() - start >= seconds:
                return

    def epoch_ms(self) -> float:
        """Median over the rounds of a round's wall time per epoch."""
        return statistics.median(self.round_epoch_ms) if self.round_epoch_ms else float("nan")


def timed(workload, seconds: float) -> tuple[Runner, dict]:
    workload.setup()
    setup_s = _process_age()
    runner = Runner(workload)
    runner.until(seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "epoch_ms": (runner.epoch_ms(), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return runner, metrics


def traced(workload, seconds: float, trace_path: Path) -> tuple[Runner, dict]:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.run_id = "setup"
    workload.setup()
    tracer.run_id = None
    tracer.uninstall()

    runner = Runner(workload)
    runner.until(seconds)
    untraced_ms = runner.epoch_ms()

    tracer.install()
    tracer.run_id = "round"
    rnd = runner.one_round(tracer)
    tracer.run_id = None
    tracer.uninstall()
    runner.check(rnd)
    tracer.write(trace_path)
    if rnd is None or not rnd.epochs:
        return runner, {}

    metrics = tracing.layer_metrics(tracer, rnd.epochs, workload.enumerated(rnd))
    metrics["trace.untraced_epoch_ms"] = (untraced_ms, "ms")
    metrics["trace.gap_ms"] = (abs(untraced_ms - metrics["trace.layer_sum_ms"][0]), "ms")
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)
    return runner, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rbmqst" / "__init__.py").is_file():
        print("run from the root of an rbmqst checkout: src/rbmqst not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # At these shapes a second OpenBLAS thread only spins: it doubles CPU
    # time, leaves wall time as it is, and competes with the sweep's pool
    # threads for the two cores it was measured on.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import workloads

    out = root / ".perfbench_out"
    workdir = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
            runner, metrics = traced(workload, args.seconds, trace_path)
        else:
            runner, metrics = timed(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
