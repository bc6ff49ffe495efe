#!/usr/bin/env python3
"""The laxforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  laxforge is imported from `src/` of that
checkout (it need not be installed).  One client in one process sends one
CLI job at a time to `laxforge.cli.main(argv)` (a closed loop) and checks
every job against the known answers in `perfbench/golden.json`.

--trace 0 repeats passes over the job list while the next pass still fits
in S seconds (always at least one), takes each job's median over the
passes and prints the end-to-end metrics.  --trace 1 makes one untraced
pass, then one pass with the span recorder installed, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 0 means the run
completed (failed jobs are counted, not fatal); 2 means it could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
SETUP_RUNS = 7
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
from jobs import WORKLOADS, answer, make_jobs, run_job  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR",
                   help="only set up the run in WORKDIR and exit (times setup_s)")
    return p.parse_args(argv)


def import_cli():
    """laxforge.cli from the checkout's src/, or exit 2 if there is none."""
    src = ROOT / "src"
    if not (src / "laxforge" / "cli.py").is_file():
        print(f"error: no laxforge sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import laxforge.cli

    return laxforge.cli


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def setup(workload: str, seed: int, workdir: Path):
    """Everything a run does before its first job: import the CLI, load the
    known answers, generate the job list and its input files."""
    cli = import_cli()
    golden = load_golden()
    jobs = make_jobs(workload, seed, workdir)
    return cli, golden, jobs


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall time of SETUP_RUNS fresh processes that each start the
    interpreter, import laxforge.cli and generate the inputs."""
    times = []
    for i in range(SETUP_RUNS):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir)]
        try:
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, check=True)
            times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


class Pass:
    """Timings and verdicts of one pass over the job list."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.failed: list[str] = []
        self.bytes_out = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_pass(cli, jobs, golden: dict, pass_no: int, recorder=None) -> Pass:
    answers = golden["answers"]
    result = Pass()
    clock = time.perf_counter
    for job in jobs:
        gc.collect()
        if recorder is not None:
            recorder.job = job.name
        t0 = clock()
        outcome = run_job(cli, job, pass_no)
        result.times[job.name] = clock() - t0
        got, emitted = answer(job, outcome)
        result.bytes_out += emitted
        if answers.get(job.key) != got:
            result.failed.append(job.name)
            print(f"FAILED {job.name}: expected {answers.get(job.key)}, got {got}",
                  file=sys.stderr)
    return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args, cli, golden, jobs) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, jobs, golden, len(passes)))
        took = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + took > args.seconds:
            break
    medians = [statistics.median(p.times[j.name] for p in passes) for j in jobs]
    n = len(jobs)
    metrics = {
        "wall_s": (sum(medians), "s"),
        "job_s.p50": (nearest_rank(medians, 0.5), "s"),
        "job_s.p90": (nearest_rank(medians, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {n} jobs x {len(passes)} passes, "
          f"each job's time is its median over the passes")
    print(f"  wall_s      {metrics['wall_s'][0]:.4f} s (sum of {n} per-job medians)")
    print(f"  job_s.p50   {metrics['job_s.p50'][0]:.4f} s (n={n} jobs)")
    print(f"  job_s.p90   {metrics['job_s.p90'][0]:.4f} s (n={n} jobs, "
          f"{n - math.ceil(0.9 * n)} beyond)")
    print(f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
    return metrics, passes


def per_layer(args, cli, golden, jobs) -> tuple[dict, list[Pass]]:
    from tracer import Recorder

    plain = run_pass(cli, jobs, golden, 0)
    recorder = Recorder()
    recorder.install()
    try:
        traced = run_pass(cli, jobs, golden, 1, recorder)
    finally:
        recorder.uninstall()
        recorder.job = None
    metrics = recorder.layer_metrics()
    metrics["cli.bytes_out"] = (traced.bytes_out, "B")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(trace_path)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, one untraced and one "
          f"traced pass; {len(recorder.spans)} spans kept in {trace_path.name}")
    print(f"  untraced wall_s {plain.wall:.4f} s, traced wall_s {traced.wall:.4f} s")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    import_cli()
    setup_s = measure_setup(args) if args.trace == 0 else None
    workdir = OUT / f"work-{os.getpid()}"
    cwd = os.getcwd()
    try:
        cli, golden, jobs = setup(args.workload, args.seed, workdir)
        os.chdir(workdir)
        if args.trace:
            metrics, passes = per_layer(args, cli, golden, jobs)
        else:
            metrics, passes = end_to_end(args, cli, golden, jobs)
            metrics["setup_s"] = (setup_s, "s")
            print(f"  setup_s     {setup_s:.4f} s (median of {SETUP_RUNS} fresh processes)")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
