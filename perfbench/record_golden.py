#!/usr/bin/env python3
"""Record the benchmark's known answers into perfbench/golden.json.

    python3 perfbench/record_golden.py

Runs every job any seed can draw, once, through laxforge.cli.main from the
checkout's src/, and stores each job's answer (see jobs.answer).  The
golden table pins the program's outputs: re-record it only in a change
that says its artifacts or reports change.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import jobs as J  # noqa: E402
from run import GOLDEN, OUT, import_cli  # noqa: E402



def record(cli, job_list, answers: dict) -> None:
    for job in job_list:
        got, _ = J.answer(job, J.run_job(cli, job, 0))
        if answers.setdefault(job.key, got) != got:
            raise SystemExit(f"{job.name}: answer differs from an earlier job with key {job.key}")


def construct_jobs() -> list:
    """Every job a construct-ladder seed can draw, each key once."""
    out = {}
    for m, n in J.CONSTRUCT_LADDER:
        for s_eval, z, s_point in itertools.product(J.EVAL_S, J.POINT_Z, J.EVAL_S):
            for job in J.construct_jobs_for(m, n, s_eval, z, s_point):
                out.setdefault(job.name, job)
    return list(out.values())


def main() -> int:
    cli = import_cli()
    workdir = OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    answers: dict[str, dict] = {}
    try:
        os.chdir(workdir)
        record(cli, J.acceptance_base_jobs(), answers)
        record(cli, J.rep_file_jobs(workdir, J.negative_candidates()), answers)
        record(cli, [
            J.spectral_job(m, n, kind, k)
            for m, n in J.SPECTRAL_ALGEBRAS
            for kind in J.SPECTRAL_KINDS
            for k in range(J.SPECTRAL_SEED_RANGE)
        ], answers)
        construct = construct_jobs()
        record(cli, construct, answers)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    failing = [job.name for job in construct if answers[job.key]["exit"] != 0]
    if failing:
        raise SystemExit(f"construct-ladder jobs must succeed; these did not: {failing}")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {"commit": commit, "answers": answers}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
