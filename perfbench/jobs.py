"""Workloads of the laxforge benchmark: seeded job lists of real CLI
invocations, in-process execution with captured output, and the known
answer each job must reproduce.

A job is one `laxforge` argv.  The program only ever sees that argv; the
seed decides which jobs exist and in what order.  Every job is checked:

* a `verify` job by its exit code, stderr, and each report's
  (check, status, relations_checked);
* a `generate`, `eval` or `spectral` job by its exit code and the sha256
  of every byte it emits (stdout, plus each artifact file generate names).

Jobs run with the working directory set to the run's work directory, so
every path a job sees or prints is relative and identical between runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

ACCEPTANCE = ((3, 0), (4, 0), (5, 0), (6, 0), (3, 2), (4, 2), (5, 2), (3, 4), (5, 4))
CONSTANT_SUITES = (
    "ybe",
    "lax-ybe",
    "intertwine",
    "delta",
    "qcom",
    "serre",
    "extra-serre",
    "appendix",
    "opposite",
    "path-independence",
)
SPECTRAL_ALGEBRAS = ((3, 0), (4, 0), (6, 0), (3, 2), (4, 2))
SPECTRAL_KINDS = ("untwisted", "twisted")
SPECTRAL_SEED_RANGE = 32  # sample seeds k are drawn from range(SPECTRAL_SEED_RANGE)
SPECTRAL_SEEDS_PER_KIND = 10
NEGATIVE_ALGEBRA = (5, 2)
NEGATIVE_CONTROLS = 3
# Seventeen rungs over 3 <= m <= 11 and n in {0, 2, ..., 10}, odd and even m.
CONSTRUCT_LADDER = (
    (3, 0), (5, 0), (7, 0), (9, 0), (11, 0),
    (4, 2), (6, 2), (8, 2), (10, 2),
    (3, 4), (5, 4), (7, 4),
    (4, 6), (6, 6),
    (3, 8), (5, 8),
    (3, 10),
)
# Exact rationals the seed draws from.  None is a pole of the spectral
# R-matrix for any rung: z > 0, z != 1 and z != q^k for the q = s^2 drawn.
EVAL_S = ("3/2", "2", "5/3", "7/4", "5/2")
POINT_Z = ("1/3", "2/5", "3/7", "5/6")

WORKLOADS = ("acceptance-symbolic", "spectral-sampled", "construct-ladder")


@dataclass(frozen=True)
class Job:
    name: str  # unique within a workload; used as the span job id
    key: str  # golden-table key; jobs with identical output share one
    argv: tuple[str, ...]  # "{pass}" is replaced by the pass number
    check: str  # "verify" | "digest"


def _alg(m: int, n: int) -> tuple[str, ...]:
    return ("--m", str(m), "--n", str(n))


def _tag(m: int, n: int) -> str:
    return f"osp({m}|{n})"


def _suite_args(suites) -> tuple[str, ...]:
    return tuple(a for s in suites for a in ("--suite", s))


# ---------------------------------------------------------------------------
# acceptance-symbolic
# ---------------------------------------------------------------------------


def negative_candidates() -> dict[str, dict]:
    """The uncorrupted osp(5|2) vector representation document ("clean")
    and every single-entry corruption of it, one e entry doubled
    ("bad-<label>-<entry index>")."""
    from laxforge.gradedmat import build_vector_rep
    from laxforge.qring import LaurentPoly
    from laxforge.superroot import build_algebra

    clean = build_vector_rep(build_algebra(*NEGATIVE_ALGEBRA)).to_json()
    out = {"clean": clean}
    for label in sorted(clean["e"]):
        for i, (r, c, text) in enumerate(clean["e"][label]):
            bad = json.loads(json.dumps(clean))
            bad["e"][label][i] = [r, c, str(LaurentPoly.parse(text) * 2)]
            out[f"bad-{label}-{i}"] = bad
    return out


def rep_file_jobs(workdir: Path, docs: dict[str, dict]) -> list[Job]:
    """Write each representation document under workdir/reps and return
    one ten-suite verify job per document."""
    m, n = NEGATIVE_ALGEBRA
    (workdir / "reps").mkdir(parents=True, exist_ok=True)
    jobs = []
    for tag, doc in docs.items():
        path = f"reps/{tag}.json"
        (workdir / path).write_text(json.dumps(doc))
        key = f"verify {_tag(m, n)} rep={tag} all-constant"
        argv = ("verify", *_alg(m, n), "--rep", path, *_suite_args(CONSTANT_SUITES))
        jobs.append(Job(key, key, argv, "verify"))
    return jobs


def acceptance_base_jobs() -> list[Job]:
    """One job per constant suite and one ten-suite job per algebra."""
    jobs = []
    for m, n in ACCEPTANCE:
        for suite in CONSTANT_SUITES:
            key = f"verify {_tag(m, n)} {suite}"
            jobs.append(Job(key, key, ("verify", *_alg(m, n), "--suite", suite), "verify"))
        key = f"verify {_tag(m, n)} all-constant"
        argv = ("verify", *_alg(m, n), *_suite_args(CONSTANT_SUITES))
        jobs.append(Job(key, key, argv, "verify"))
    return jobs


def _acceptance_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    candidates = negative_candidates()
    bad = sorted(tag for tag in candidates if tag != "clean")
    chosen = ["clean", *rng.sample(bad, NEGATIVE_CONTROLS)]
    jobs = acceptance_base_jobs() + rep_file_jobs(
        workdir, {tag: candidates[tag] for tag in chosen}
    )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spectral-sampled
# ---------------------------------------------------------------------------


def spectral_job(m: int, n: int, kind: str, k: int) -> Job:
    key = f"verify {_tag(m, n)} spectral-{kind} k={k}"
    argv = ("verify", *_alg(m, n), "--suite", f"spectral-{kind}",
            "--samples", "1", "--seed", str(k))
    return Job(key, key, argv, "verify")


def _spectral_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        spectral_job(m, n, kind, k)
        for m, n in SPECTRAL_ALGEBRAS
        for kind in SPECTRAL_KINDS
        for k in rng.sample(range(SPECTRAL_SEED_RANGE), SPECTRAL_SEEDS_PER_KIND)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# construct-ladder
# ---------------------------------------------------------------------------


def construct_jobs_for(m: int, n: int, s_eval: str, z: str, s_point: str) -> list[Job]:
    """The six jobs of one rung, in the order they must run: the first
    generate writes into the pass's empty cache directory, the second reads."""
    t = _tag(m, n)
    d = f"{m}_{n}"
    gen = ("generate", *_alg(m, n), "--out", f"out/{d}", "--cache-dir", f"cache/p{{pass}}/{d}")
    ev = f"eval {t} s={s_eval}"
    pt = f"spectral {t} twisted z={z} s={s_point}"
    return [
        Job(f"generate {t} cold", f"generate {t}", gen, "digest"),
        Job(f"generate {t} warm", f"generate {t}", gen, "digest"),
        Job(ev, ev, ("eval", *_alg(m, n), "--s", s_eval), "digest"),
        Job(f"spectral {t} untwisted", f"spectral {t} untwisted",
            ("spectral", *_alg(m, n), "--kind", "untwisted"), "digest"),
        Job(f"spectral {t} twisted", f"spectral {t} twisted",
            ("spectral", *_alg(m, n), "--kind", "twisted"), "digest"),
        Job(pt, pt, ("spectral", *_alg(m, n), "--kind", "twisted", "--z", z, "--s", s_point),
            "digest"),
    ]


def _construct_jobs(rng: random.Random) -> list[Job]:
    """Every rung, in seeded order, with seeded exact rationals for eval and
    the point evaluation.  The rungs are fixed: drawing the algebras made
    p50 and p90 move by about 10% between seeds on top of the run-to-run
    noise, because rungs of equal total cost split it differently between
    their jobs."""
    rungs = list(CONSTRUCT_LADDER)
    rng.shuffle(rungs)
    return [
        job
        for m, n in rungs
        for job in construct_jobs_for(
            m, n, rng.choice(EVAL_S), rng.choice(POINT_Z), rng.choice(EVAL_S)
        )
    ]


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The seeded job list of a workload.  Input files (representation
    documents) are written under workdir, along with the empty directories
    the jobs write into."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "cache").mkdir(exist_ok=True)
    (workdir / "out").mkdir(exist_ok=True)
    if workload == "acceptance-symbolic":
        return _acceptance_jobs(rng, workdir)
    if workload == "spectral-sampled":
        return _spectral_jobs(rng)
    if workload == "construct-ladder":
        return _construct_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Execution and checking
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str


def run_job(cli, job: Job, pass_no: int) -> Outcome:
    """Call cli.main on the job's argv with stdout and stderr captured.
    main is looked up on each call, so a traced run sees its wrapper.  An
    exception that escapes main is a wrong answer (exit -1), not a crash of
    the benchmark.  The caller times this call."""
    argv = [a.replace("{pass}", str(pass_no)) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue())


def answer(job: Job, outcome: Outcome) -> tuple[dict, int]:
    """The job's answer in golden-table form, and the bytes it emitted."""
    if job.check == "verify":
        reports = []
        if outcome.stdout:
            try:
                reports = [
                    [r["check"], r["status"], r["relations_checked"]]
                    for r in json.loads(outcome.stdout)["reports"]
                ]
            except (ValueError, KeyError, TypeError):
                reports = [["unparsable stdout", outcome.stdout[:200], None]]
        doc = {"exit": outcome.exit, "reports": reports, "stderr": outcome.stderr}
        return doc, len(outcome.stdout.encode())
    h = hashlib.sha256()
    data = outcome.stdout.encode()
    h.update(data)
    emitted = len(data)
    if job.argv[0] == "generate" and outcome.exit == 0:
        for line in outcome.stdout.splitlines():
            try:
                blob = Path(line).read_bytes()
            except OSError:
                blob = b"missing artifact " + line.encode()
            h.update(blob)
            emitted += len(blob)
    return {"exit": outcome.exit, "sha256": h.hexdigest()}, emitted
