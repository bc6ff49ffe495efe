"""Command-line front end: artifact generation, verification suites,
spectral matrices and exact evaluation, with a content-addressed cache.

Exit codes: 0 success, 1 a checked identity failed (witness printed),
2 usage or configuration error, or a spectral sampler that could not find
enough pole-free points.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .qring import PoleError
from .superroot import AlgebraError, build_algebra
from .gradedmat import (
    RelationError,
    SchemaError,
    build_vector_rep,
    load_representation,
    trivial_rep,
)
from .laxengine import (
    RTensor,
    assemble_R,
    extend_sigma,
    init_simple_sigma,
    opposite_R,
)
from . import verifier
from .spectral import (
    KINDS,
    SamplingError,
    SpectralRMatrix,
    build_spectral_R,
    check_spectral_ybe,
)


@dataclass
class JobConfig:
    m: int
    n: int
    rep_source: str  # "vector" | "trivial" | file path
    suites: list[str]
    kind: str
    s: Fraction | None
    z: Fraction | None
    samples: int
    seed: int
    out: str | None
    fmt: str
    cache_dir: str | None


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def _canonical_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, indent=1).encode() + b"\n"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_dir(cfg: JobConfig) -> Path | None:
    where = cfg.cache_dir or os.environ.get("LAXFORGE_CACHE")
    return Path(where) if where else None


def _fingerprint(alg, rep) -> str:
    doc = {"algebra": alg.to_json(), "representation": rep.to_json()}
    return hashlib.sha256(_canonical_bytes(doc)).hexdigest()


def _cache_fetch(cfg: JobConfig, key: str) -> bytes | None:
    root = _cache_dir(cfg)
    if root is None:
        return None
    path = root / f"{key}.json"
    return path.read_bytes() if path.exists() else None


def _cache_store(cfg: JobConfig, key: str, data: bytes) -> None:
    root = _cache_dir(cfg)
    if root is not None:
        _atomic_write(root / f"{key}.json", data)


def _load_rep(rep_source: str, alg):
    if rep_source == "vector":
        return build_vector_rep(alg)
    if rep_source == "trivial":
        return trivial_rep(alg)
    with open(rep_source) as fh:
        return load_representation(json.load(fh), alg)


class Context:
    """The constructions of one job on V (x) W, W given by `rep_source`.

    Each is built on first use and then kept, so a job builds each at most
    once: the algebra, W, its sigma-hat set and R on V (x) W; `vector`, the
    same constructions on the vector representation (this context itself
    when W is the vector representation), the opposite R and r(z) per kind.
    """

    def __init__(self, m: int, n: int, rep_source: str = "vector"):
        self.m, self.n, self.rep_source = m, n, rep_source
        self._spectral: dict[str, SpectralRMatrix] = {}

    @cached_property
    def alg(self):
        return build_algebra(self.m, self.n)

    @cached_property
    def rep(self):
        return _load_rep(self.rep_source, self.alg)

    @cached_property
    def sigma(self):
        return extend_sigma(init_simple_sigma(self.rep))

    @cached_property
    def r(self) -> RTensor:
        return assemble_R(self.sigma)

    @cached_property
    def vector(self) -> "Context":
        if self.rep.name == "vector":
            return self
        out = Context(self.m, self.n)
        out.alg = self.alg
        return out

    @cached_property
    def opposite_r(self) -> RTensor:
        return opposite_R(self.sigma)

    def spectral(self, kind: str) -> SpectralRMatrix:
        if kind not in self._spectral:
            self._spectral[kind] = build_spectral_R(self.sigma, self.r, kind)
        return self._spectral[kind]


# The suites in `--suite all` order: name -> (needs the vector
# representation, the check on a job's context).  The checks look every
# function up when they run, never at import.
SUITE_TABLE = {
    "ybe": (True, lambda c, cfg: verifier.check_ybe(c.vector.r)),
    "lax-ybe": (False, lambda c, cfg: verifier.check_lax_ybe(c.vector.r, c.r)),
    "intertwine": (
        True, lambda c, cfg: verifier.check_intertwining(c.vector.r, c.vector.rep)
    ),
    "delta": (
        True, lambda c, cfg: verifier.check_delta_property(c.vector.sigma, c.vector.r)
    ),
    "qcom": (False, lambda c, cfg: verifier.check_qcom(c.sigma)),
    "serre": (False, lambda c, cfg: verifier.check_qserre(c.rep)),
    "extra-serre": (False, lambda c, cfg: verifier.check_extra_serre(c.sigma)),
    "appendix": (False, lambda c, cfg: verifier.check_appendix(c.sigma)),
    "opposite": (
        True, lambda c, cfg: verifier.check_opposite(c.vector.r, c.vector.opposite_r)
    ),
    "path-independence": (
        False, lambda c, cfg: verifier.check_path_independence(c.sigma)
    ),
    **{
        f"spectral-{kind}": (False, lambda c, cfg, kind=kind: check_spectral_ybe(
            c.vector.spectral(kind), cfg.samples, cfg.seed))
        for kind in KINDS
    },
}


def _emit(cfg: JobConfig, data: bytes) -> None:
    if cfg.out:
        _atomic_write(Path(cfg.out), data)
    else:
        sys.stdout.write(data.decode())


def _rtensor_json(r: RTensor, alg, rep_name: str) -> dict:
    return {
        "algebra": {"m": alg.m, "n": alg.n},
        "rep_name": rep_name,
        "kind": r.kind,
        "dims": list(r.dims),
        "entries": [
            [row + 1, col + 1, str(v)]
            for (row, col), v in sorted(r.matrix.entries.items())
        ],
    }


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not an exact rational: {text!r} ({exc})") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(cfg: JobConfig) -> int:
    ctx = Context(cfg.m, cfg.n, cfg.rep_source)
    alg, rep = ctx.alg, ctx.rep
    fp = _fingerprint(alg, rep)
    out_dir = Path(cfg.out) if cfg.out else Path(".")

    artifacts = {
        f"sigma_{cfg.m}_{cfg.n}_{rep.name}.json": f"{fp}-sigma",
        f"r_{rep.name}_{cfg.m}_{cfg.n}.json": f"{fp}-r",
    }
    payloads: dict[str, bytes] = {}
    missing = []
    for name, key in artifacts.items():
        cached = _cache_fetch(cfg, key)
        if cached is None:
            missing.append(name)
        else:
            payloads[name] = cached
    if missing:
        fresh = {
            f"sigma_{cfg.m}_{cfg.n}_{rep.name}.json": _canonical_bytes(
                ctx.sigma.to_json()
            ),
            f"r_{rep.name}_{cfg.m}_{cfg.n}.json": _canonical_bytes(
                _rtensor_json(ctx.r, alg, rep.name)
            ),
        }
        for name in missing:
            payloads[name] = fresh[name]
            _cache_store(cfg, artifacts[name], fresh[name])
    for name, data in payloads.items():
        _atomic_write(out_dir / name, data)
        print(out_dir / name)
    return 0


def _run_suites(cfg: JobConfig) -> list[verifier.CheckReport]:
    ctx = Context(cfg.m, cfg.n, cfg.rep_source)
    rep = ctx.rep  # a bad algebra or W is reported before a bad suite name
    names = list(SUITE_TABLE) if cfg.suites == ["all"] else cfg.suites
    for name in names:
        if name not in SUITE_TABLE:
            raise SchemaError(
                f"unknown suite {name!r}; choose from {tuple(SUITE_TABLE)}"
            )
        if SUITE_TABLE[name][0] and rep.name != "vector":
            raise SchemaError(f"suite {name!r} requires the vector representation")
    return [SUITE_TABLE[name][1](ctx, cfg) for name in names]


def cmd_verify(cfg: JobConfig) -> int:
    if not cfg.suites:
        raise SchemaError("verify requires at least one suite")
    reports = _run_suites(cfg)
    if cfg.fmt == "json":
        doc = {"reports": [r.to_json() for r in reports]}
        _emit(cfg, _canonical_bytes(doc))
    else:
        lines = []
        for r in reports:
            tag = "vacuous" if r.vacuous else r.status
            lines.append(f"{r.check}: {tag} ({r.relations_checked} relations)")
            if r.witness:
                w = r.witness
                lines.append(
                    f"  witness: {w['relation']} at ({w['row']},{w['col']}): "
                    f"lhs = {w['lhs']}, rhs = {w['rhs']}"
                )
        _emit(cfg, ("\n".join(lines) + "\n").encode())
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_spectral(cfg: JobConfig) -> int:
    # r(z) lives on V (x) V whatever --rep names
    spec = Context(cfg.m, cfg.n).spectral(cfg.kind)
    if cfg.z is not None:
        s0 = cfg.s if cfg.s is not None else Fraction(2)
        mat = spec.evaluate(s0, cfg.z)
        doc = {
            "algebra": {"m": cfg.m, "n": cfg.n},
            "kind": cfg.kind,
            "s": str(s0),
            "z": str(cfg.z),
            "entries": [
                [r + 1, c + 1, str(v.evaluate(1))]
                for (r, c), v in sorted(mat.entries.items())
            ],
        }
    else:
        doc = spec.to_json()
    _emit(cfg, _canonical_bytes(doc))
    return 0


def cmd_eval(cfg: JobConfig) -> int:
    ctx = Context(cfg.m, cfg.n, cfg.rep_source)
    ctx.alg  # an invalid algebra is reported before an invalid s
    if cfg.s is None:
        raise SchemaError("eval requires --s")
    if abs(cfg.s) in (0, 1):
        raise SchemaError("--s must avoid 0 and +-1 so that q stays generic")
    r = ctx.r
    doc = {
        "algebra": {"m": cfg.m, "n": cfg.n},
        "rep_name": ctx.rep.name,
        "s": str(cfg.s),
        "dims": list(r.dims),
        "entries": [
            [row + 1, col + 1, str(v.evaluate(cfg.s))]
            for (row, col), v in sorted(r.matrix.entries.items())
        ],
    }
    _emit(cfg, _canonical_bytes(doc))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laxforge",
        description="Exact Lax operator and R-matrix construction for "
        "quantized orthosymplectic superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--rep", default="vector",
                       help="vector, trivial, or path to a representation file")
        p.add_argument("--out", help="output file (or directory for generate)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--cache-dir")

    g = sub.add_parser("generate", help="build and serialize sigma set and R-matrix")
    common(g)

    v = sub.add_parser("verify", help="run verification suites")
    common(v)
    v.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("spectral", help="build a spectral R-matrix")
    common(s)
    s.add_argument("--kind", choices=KINDS, required=True)
    s.add_argument("--s", dest="s_value")
    s.add_argument("--z", dest="z_value")

    e = sub.add_parser("eval", help="evaluate the constant R-matrix at exact s")
    common(e)
    e.add_argument("--s", dest="s_value", required=True)
    return parser


def _config(args: argparse.Namespace) -> JobConfig:
    if args.format == "text" and args.command != "verify":
        raise SchemaError(
            f"{args.command} writes JSON only; --format text applies to verify"
        )
    return JobConfig(
        m=args.m,
        n=args.n,
        rep_source=args.rep,
        suites=getattr(args, "suite", None) or ["all"],
        kind=getattr(args, "kind", "untwisted"),
        s=_parse_fraction(args.s_value) if getattr(args, "s_value", None) else None,
        z=_parse_fraction(args.z_value) if getattr(args, "z_value", None) else None,
        samples=getattr(args, "samples", 20),
        seed=getattr(args, "seed", 0),
        out=args.out,
        fmt=args.format,
        cache_dir=args.cache_dir,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "spectral": cmd_spectral,
        "eval": cmd_eval,
    }
    try:
        return commands[args.command](_config(args))
    except (
        AlgebraError, SchemaError, FileNotFoundError, ValueError, SamplingError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelationError, PoleError, AssertionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
