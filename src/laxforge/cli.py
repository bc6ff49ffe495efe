"""Command-line front end: artifact generation, verification suites,
spectral matrices and exact evaluation, with a content-addressed cache.

Exit codes: 0 success; 1 a checked identity failed (a relation of the
representation, or a suite's witness printed) or r(z) was evaluated at a
pole; 2 usage or configuration error, or a spectral sampler that could not
find enough pole-free points; 3 an internal error, a construction whose own
consistency check failed.
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
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path

from .qring import PoleError
from .superroot import AlgebraError, build_algebra
from .gradedmat import (
    RelationError,
    SchemaError,
    build_vector_rep,
    entry_triples,
    load_representation,
    trivial_rep,
)
from .laxengine import (
    ConstructionError,
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
    SpectralAtS,
    SpectralRMatrix,
    build_spectral_R,
    check_spectral_ybe,
    ints_at,
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


# how _json_text writes each scalar type
_SCALARS = {
    str: _ascii,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _json_text(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=1) writes it.
    json.dumps takes its pure-Python encoder for any indent; this writer
    joins each list of scalars in one step and escapes strings with the
    json module's encode_basestring_ascii.  Only str (also as keys), int,
    bool, None, list and dict are written; anything else raises TypeError.

    A dict, or a list of containers, that occurs more than once in doc
    (SpectralRMatrix.to_json shares one per term list) is written once per
    indentation: the memo lives for this call, while doc keeps its objects
    alive, and is keyed by id and indentation, since the same object at
    another depth has other text.  A list of scalars costs less to write
    again than to look up, so it is not kept."""
    return _write(doc, "", {})


def _write(doc, pad: str, memo: dict) -> str:
    """_json_text of doc on a line indented by `pad`, with the call's memo."""
    kind = type(doc)
    if kind is list:
        if not doc:
            return "[]"
        if type(doc[0]) is not list:
            inner = pad + " "
            try:
                body = (",\n" + inner).join([_SCALARS[type(x)](x) for x in doc])
                return f"[\n{inner}{body}\n{pad}]"
            except KeyError:  # a later item is a container, or not writable
                pass
    elif kind is dict:
        if not doc:
            return "{}"
    else:
        write = _SCALARS.get(kind)
        if write is None:
            raise TypeError(f"cannot write {kind.__name__} as JSON")
        return write(doc)
    key = (id(doc), pad)
    text = memo.get(key)
    if text is None:
        inner = pad + " "
        sep = ",\n" + inner
        if kind is dict:  # _ascii raises TypeError on a key that is not a str
            body = sep.join([
                f"{_ascii(k)}: {_write(doc[k], inner, memo)}" for k in sorted(doc)
            ])
            text = f"{{\n{inner}{body}\n{pad}}}"
        else:
            body = sep.join([_write(x, inner, memo) for x in doc])
            text = f"[\n{inner}{body}\n{pad}]"
        memo[key] = text
    return text


def _canonical_bytes(doc) -> bytes:
    return _json_text(doc).encode() + b"\n"


def _atomic_write(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path` and rename it over
    `path`.  mkstemp makes the file 0600 and the rename keeps that, so it is
    given 0666 less the umask first, the mode open() would have given it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_if_changed(path: Path, data: bytes) -> None:
    """_atomic_write, unless `path` already holds exactly `data` (same size,
    then same bytes): an unchanged file is left alone, mtime and all."""
    try:
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    except OSError:
        pass
    _atomic_write(path, data)


def _cache_dir(cfg: JobConfig) -> Path | None:
    where = cfg.cache_dir or os.environ.get("LAXFORGE_CACHE")
    return Path(where) if where else None


def _fingerprint(alg, rep) -> str:
    doc = {"algebra": alg.to_json(), "representation": rep.to_json()}
    return hashlib.sha256(_canonical_bytes(doc)).hexdigest()


def _cache_fetch(cfg: JobConfig, key: str) -> bytes | None:
    """The cached artifact under `key`, or None when there is none or its
    bytes do not match the sha256 stored beside it."""
    root = _cache_dir(cfg)
    if root is None:
        return None
    try:
        data = (root / f"{key}.json").read_bytes()
        digest = (root / f"{key}.sha256").read_text()
    except FileNotFoundError:
        return None
    return data if hashlib.sha256(data).hexdigest() == digest else None


def _cache_store(cfg: JobConfig, key: str, data: bytes) -> None:
    root = _cache_dir(cfg)
    if root is not None:
        digest = hashlib.sha256(data).hexdigest()
        _atomic_write(root / f"{key}.json", data)
        _atomic_write(root / f"{key}.sha256", digest.encode())


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
        "entries": entry_triples(r.matrix.entries),
    }


def _check_generic(s: Fraction) -> None:
    """The one rule for --s, in eval and in spectral --z."""
    if abs(s) in (0, 1):
        raise SchemaError("--s must avoid 0 and +-1 so that q stays generic")


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

    # file name -> (cache key, the document); each is built only on a miss
    artifacts = {
        f"sigma_{cfg.m}_{cfg.n}_{rep.name}.json": (
            f"{fp}-sigma", lambda: ctx.sigma.to_json()
        ),
        f"r_{rep.name}_{cfg.m}_{cfg.n}.json": (
            f"{fp}-r", lambda: _rtensor_json(ctx.r, alg, rep.name)
        ),
    }
    payloads: dict[str, bytes] = {}
    for name, (key, build) in artifacts.items():
        payloads[name] = _cache_fetch(cfg, key)
        if payloads[name] is None:
            payloads[name] = _canonical_bytes(build())
            _cache_store(cfg, key, payloads[name])
    for name, data in payloads.items():
        _write_if_changed(out_dir / name, data)
        print(out_dir / name)
    return 0


def _run_suites(cfg: JobConfig) -> list[verifier.CheckReport]:
    ctx = Context(cfg.m, cfg.n, cfg.rep_source)
    rep = ctx.rep  # a bad algebra or W is reported before a bad suite name
    # `all` stands for every suite in table order; each suite runs once
    names = list(dict.fromkeys(
        expanded
        for name in cfg.suites
        for expanded in (SUITE_TABLE if name == "all" else (name,))
    ))
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
    if cfg.rep_source != "vector":
        raise SchemaError(
            f"spectral builds r(z) on the vector representation only, "
            f"not on --rep {cfg.rep_source}"
        )
    ctx = Context(cfg.m, cfg.n)
    ctx.alg  # an invalid algebra is reported before an invalid s
    if cfg.s is not None:
        if cfg.z is None:
            raise SchemaError("spectral --s needs --z: it sets s at the point z")
        _check_generic(cfg.s)
    spec = ctx.spectral(cfg.kind)
    if cfg.z is not None:
        s0 = cfg.s if cfg.s is not None else Fraction(2)
        doc = {
            "algebra": {"m": cfg.m, "n": cfg.n},
            "kind": cfg.kind,
            "s": str(s0),
            "z": str(cfg.z),
            "entries": entry_triples(SpectralAtS(spec, s0).values(cfg.z)),
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
    _check_generic(cfg.s)
    r = ctx.r
    values = list(dict.fromkeys(r.matrix.entries.values()))  # each written once
    ints, c = ints_at(values, cfg.s)
    texts = {v: str(Fraction(x, c)) for v, x in zip(values, ints)}
    doc = {
        "algebra": {"m": cfg.m, "n": cfg.n},
        "rep_name": ctx.rep.name,
        "s": str(cfg.s),
        "dims": list(r.dims),
        "entries": entry_triples({key: texts[v] for key, v in r.matrix.entries.items()}),
    }
    _emit(cfg, _canonical_bytes(doc))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


S_HELP = "s = q^(1/2), an exact rational such as 3/2 or -5/3, not 0 or +-1"


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
    s.add_argument("--s", dest="s_value", help=f"with --z: {S_HELP} (default 2)")
    s.add_argument("--z", dest="z_value",
                   help="evaluate r(z) at this exact rational, such as 1/3 or -2/5")

    e = sub.add_parser("eval", help="evaluate the constant R-matrix at exact s")
    common(e)
    e.add_argument("--s", dest="s_value", required=True, help=S_HELP)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a value such as -5/3 as an option, so a negative value
    given after --s or --z is attached to it: --s -5/3 is read as --s=-5/3."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--s", "--z") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call in a process and kept:
    building it takes about a millisecond (argparse formats every argument
    as it is added), and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_negative_values(argv))
    commands = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "spectral": cmd_spectral,
        "eval": cmd_eval,
    }
    try:
        return commands[args.command](_config(args))
    except (AlgebraError, SchemaError, OSError, ValueError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelationError, PoleError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, ConstructionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
