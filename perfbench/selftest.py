#!/usr/bin/env python3
"""Self-test of the benchmark's checker and tracer, at a tiny size.

    python3 perfbench/selftest.py

For each workload it keeps the jobs of the smallest algebra in the seed-0
job list and asserts that:

* they all match the known answers;
* a deliberately wrong golden digest (construct-ladder) or relation count
  (the verify workloads) is caught and counted as failed, and nothing
  else is;
* two traced passes count Laurent products and matmul inner products and
  give the same deterministic counts.

It also checks that the recorder wraps `assemble_R` in every namespace
that holds it and puts every original back on uninstall.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import os
import re
import shutil
import sys

from run import OUT, import_cli, load_golden, run_pass
from jobs import WORKLOADS, make_jobs
from tracer import Recorder

COUNTS = (
    "qring.mul.calls",
    "qring.mul.coeff_products",
    "gradedmat.matmul.inner_products",
    "laxengine.assemble_R.calls",
    "verifier.relations_checked",
)


def tiny(jobs):
    def size(job):
        m, n = re.search(r"osp\((\d+)\|(\d+)\)", job.key).groups()
        return int(m) + int(n), int(n)

    smallest = min(size(j) for j in jobs)
    return [j for j in jobs if size(j) == smallest]


def tamper(golden: dict, jobs) -> tuple[dict, set[str]]:
    """A copy of golden with one digest and one relation count wrong."""
    bad = copy.deepcopy(golden)
    broken = set()
    for job in jobs:
        want = bad["answers"][job.key]
        if "sha256" in want and not any("sha256" in bad["answers"][k] for k in broken):
            want["sha256"] = want["sha256"][::-1]
            broken.add(job.key)
        elif want.get("reports") and not any("reports" in bad["answers"][k] for k in broken):
            want["reports"][0][2] += 1
            broken.add(job.key)
    return bad, broken


def check_workload(cli, golden: dict, workload: str) -> None:
    workdir = OUT / f"selftest-{os.getpid()}-{workload}"
    cwd = os.getcwd()
    try:
        jobs = tiny(make_jobs(workload, 0, workdir))
        os.chdir(workdir)
        good = run_pass(cli, jobs, golden, 0)
        assert not good.failed, f"{workload}: known answers not reproduced: {good.failed}"

        bad_golden, broken = tamper(golden, jobs)
        assert broken, f"{workload}: nothing to tamper with"
        bad = run_pass(cli, jobs, bad_golden, 1)
        caught = {j.key for j in jobs if j.name in bad.failed}
        assert caught == broken, f"{workload}: tampered {broken}, caught {caught}"
        failed_frac = len(bad.failed) / len(bad.times)
        assert failed_frac > 0

        runs = []
        for p in (2, 3):
            rec = Recorder()
            rec.install()
            try:
                run_pass(cli, jobs, golden, p, rec)
            finally:
                rec.uninstall()
            runs.append(rec.layer_metrics())
        counts = {k: runs[0][k][0] for k in COUNTS}
        assert counts == {k: runs[1][k][0] for k in COUNTS}, f"{workload}: counts differ"
        assert counts["qring.mul.calls"] > 0 and counts["gradedmat.matmul.inner_products"] > 0
        print(f"{workload}: {len(jobs)} jobs ok; tampered {sorted(broken)} caught, "
              f"failed_frac {failed_frac:.3f}; counts {counts}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def check_install() -> None:
    import laxforge
    import laxforge.cli
    import laxforge.laxengine
    import laxforge.qring

    original = laxforge.laxengine.assemble_R
    rec = Recorder()
    rec.install()
    try:
        holders = rec.installed["laxengine.assemble_R"]
        assert laxforge.cli.assemble_R is not original
        assert laxforge.qring.LaurentPoly.__rmul__ is laxforge.qring.LaurentPoly.__mul__
    finally:
        rec.uninstall()
    assert laxforge.cli.assemble_R is original and laxforge.assemble_R is original
    print(f"laxengine.assemble_R was wrapped in {len(holders)} namespaces: {holders}")


def main() -> int:
    cli = import_cli()
    golden = load_golden()
    check_install()
    for workload in WORKLOADS:
        check_workload(cli, golden, workload)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
