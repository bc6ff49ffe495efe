"""Command-line front end: artifact generation, verification suites,
spectral matrices and exact evaluation, with a content-addressed cache.

Exit codes: 0 success; 1 a checked identity failed (a relation of the
representation, or a suite's witness printed) or r(z) was evaluated at a
pole; 2 usage or configuration error, or a spectral sampler that could not
find enough pole-free points; 3 an internal error: any other exception,
such as an induction pair with no admissible intermediate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
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


def _check_target(path: Path) -> None:
    """Refuse a target that exists and is not a regular file (a symlink is
    followed); it is looked at with stat, never opened."""
    if path.exists() and not path.is_file():
        raise SchemaError(f"{path} exists and is not a regular file; not replacing it")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write `data` to a temporary file beside the file `path` names (a
    symlink is followed) and rename it over that file, refusing one that is
    not regular (_check_target).  mkstemp makes it 0600 and the rename keeps
    that, so it is first given 0666 less the umask, the mode open() would
    have given it."""
    _check_target(path)
    path = path.resolve()
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


def _cache_dir(args: argparse.Namespace) -> Path | None:
    where = args.cache_dir or os.environ.get("LAXFORGE_CACHE")
    return Path(where) if where else None


def _fingerprint(alg, rep) -> str:
    doc = {"algebra": alg.to_json(), "representation": rep.to_json()}
    return hashlib.sha256(_canonical_bytes(doc)).hexdigest()


def _cache_fetch(args: argparse.Namespace, key: str) -> bytes | None:
    """The cached artifact under `key`, or None when there is none, when an
    entry is not a regular file (a FIFO would block the read), or when its
    bytes do not match the sha256 stored beside it."""
    root = _cache_dir(args)
    if root is None:
        return None
    data_path, digest_path = root / f"{key}.json", root / f"{key}.sha256"
    if not (data_path.is_file() and digest_path.is_file()):
        return None
    try:
        data = data_path.read_bytes()
        digest = digest_path.read_text()
    except FileNotFoundError:
        return None
    return data if hashlib.sha256(data).hexdigest() == digest else None


def _cache_store(args: argparse.Namespace, key: str, data: bytes) -> None:
    root = _cache_dir(args)
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
            self._spectral[kind] = build_spectral_R(self.alg, self.r, kind)
        return self._spectral[kind]


# The suites in `--suite all` order: name -> (needs the vector
# representation, the check on a job's context).  The checks look every
# function up when they run, never at import.
SUITE_TABLE = {
    "ybe": (True, lambda c, args: verifier.check_ybe(c.vector.r)),
    "lax-ybe": (False, lambda c, args: verifier.check_lax_ybe(c.vector.r, c.r)),
    "intertwine": (
        True, lambda c, args: verifier.check_intertwining(c.vector.r, c.vector.rep)
    ),
    "delta": (
        True, lambda c, args: verifier.check_delta_property(c.vector.sigma, c.vector.r)
    ),
    "qcom": (False, lambda c, args: verifier.check_qcom(c.sigma)),
    "serre": (False, lambda c, args: verifier.check_qserre(c.rep)),
    "extra-serre": (False, lambda c, args: verifier.check_extra_serre(c.sigma)),
    "appendix": (False, lambda c, args: verifier.check_appendix(c.sigma)),
    "opposite": (
        True, lambda c, args: verifier.check_opposite(c.vector.r, c.vector.opposite_r)
    ),
    "path-independence": (
        False, lambda c, args: verifier.check_path_independence(c.sigma)
    ),
    **{
        f"spectral-{kind}": (False, lambda c, args, kind=kind: check_spectral_ybe(
            c.vector.spectral(kind), args.samples, args.seed))
        for kind in KINDS
    },
}


def _emit(args: argparse.Namespace, data: bytes) -> None:
    if args.out:
        _atomic_write(Path(args.out), data)
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


def cmd_generate(args: argparse.Namespace) -> int:
    ctx = Context(args.m, args.n, args.rep)
    alg, rep = ctx.alg, ctx.rep
    fp = _fingerprint(alg, rep)
    out_dir = Path(args.out) if args.out else Path(".")

    # file name -> (cache key, the document); each is built only on a miss
    artifacts = {
        f"sigma_{args.m}_{args.n}_{rep.name}.json": (
            f"{fp}-sigma", lambda: ctx.sigma.to_json()
        ),
        f"r_{rep.name}_{args.m}_{args.n}.json": (
            f"{fp}-r", lambda: _rtensor_json(ctx.r, alg, rep.name)
        ),
    }
    for name in artifacts:  # a refused target leaves --out as it was
        _check_target(out_dir / name)
    payloads: dict[str, bytes] = {}
    for name, (key, build) in artifacts.items():
        payloads[name] = _cache_fetch(args, key)
        if payloads[name] is None:
            payloads[name] = _canonical_bytes(build())
            _cache_store(args, key, payloads[name])
    for name, data in payloads.items():
        _write_if_changed(out_dir / name, data)
        print(out_dir / name)
    return 0


def _run_suites(args: argparse.Namespace) -> list[verifier.CheckReport]:
    ctx = Context(args.m, args.n, args.rep)
    # a bad algebra or W is reported before a bad suite name
    on_v = ctx.rep.name == "vector"
    # `all` stands for every suite in table order that W allows: on W != V
    # it leaves out those that need V.  Each suite runs once.
    allowed = [name for name, (needs_v, _) in SUITE_TABLE.items() if on_v or not needs_v]
    names = list(dict.fromkeys(
        expanded
        for name in args.suite or ["all"]
        for expanded in (allowed if name == "all" else (name,))
    ))
    for name in names:
        if name not in SUITE_TABLE:
            raise SchemaError(
                f"unknown suite {name!r}; choose from {tuple(SUITE_TABLE)}"
            )
        if SUITE_TABLE[name][0] and not on_v:
            raise SchemaError(f"suite {name!r} requires the vector representation")
    return [SUITE_TABLE[name][1](ctx, args) for name in names]


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _run_suites(args)
    if args.format == "json":
        doc = {"reports": [r.to_json() for r in reports]}
        _emit(args, _canonical_bytes(doc))
    else:
        _emit(args, ("\n".join(r.to_text() for r in reports) + "\n").encode())
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_spectral(args: argparse.Namespace) -> int:
    s, z = args.s_value, args.z_value
    ctx = Context(args.m, args.n)
    ctx.alg  # an invalid algebra is reported before an invalid s
    if s is not None:
        if z is None:
            raise SchemaError("spectral --s needs --z: it sets s at the point z")
        _check_generic(s)
    spec = ctx.spectral(args.kind)
    if z is not None:
        s0 = s if s is not None else Fraction(2)
        doc = {
            "algebra": {"m": args.m, "n": args.n},
            "kind": args.kind,
            "s": str(s0),
            "z": str(z),
            "entries": entry_triples(SpectralAtS(spec, s0).values(z)),
        }
    else:
        doc = spec.to_json()
    _emit(args, _canonical_bytes(doc))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ctx = Context(args.m, args.n, args.rep)
    ctx.alg  # an invalid algebra is reported before an invalid s
    _check_generic(args.s_value)
    r = ctx.r
    values = list(dict.fromkeys(r.matrix.entries.values()))  # each written once
    ints, c = ints_at(values, args.s_value)
    texts = {v: str(Fraction(x, c)) for v, x in zip(values, ints)}
    doc = {
        "algebra": {"m": args.m, "n": args.n},
        "rep_name": ctx.rep.name,
        "s": str(args.s_value),
        "dims": list(r.dims),
        "entries": entry_triples({key: texts[v] for key, v in r.matrix.entries.items()}),
    }
    _emit(args, _canonical_bytes(doc))
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

    def common(p: argparse.ArgumentParser, rep: bool = True) -> None:
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        if rep:
            p.add_argument("--rep", default="vector",
                           help="vector, trivial, or path to a representation file")
        p.add_argument("--out", help="output file (or directory for generate)")

    g = sub.add_parser("generate", help="build and serialize sigma set and R-matrix")
    common(g)
    g.add_argument("--cache-dir")
    g.set_defaults(run=cmd_generate)

    v = sub.add_parser("verify", help="run verification suites")
    common(v)
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all' (repeatable)")
    v.add_argument("--samples", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(run=cmd_verify)

    s = sub.add_parser("spectral", help="build a spectral R-matrix")
    common(s, rep=False)
    s.add_argument("--kind", choices=KINDS, required=True)
    s.add_argument("--s", dest="s_value", help=f"with --z: {S_HELP} (default 2)")
    s.add_argument("--z", dest="z_value",
                   help="evaluate r(z) at this exact rational, such as 1/3 or -2/5")
    s.set_defaults(run=cmd_spectral)

    e = sub.add_parser("eval", help="evaluate the constant R-matrix at exact s")
    common(e)
    e.add_argument("--s", dest="s_value", required=True, help=S_HELP)
    e.set_defaults(run=cmd_eval)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call in a process and kept:
    building it takes about a millisecond (argparse formats every argument
    as it is added), and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_negative_values(argv))
    try:
        for dest in ("s_value", "z_value"):  # read before anything is built
            if getattr(args, dest, None) is not None:
                setattr(args, dest, _parse_fraction(getattr(args, dest)))
        return args.run(args)
    except (AlgebraError, SchemaError, OSError, ValueError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelationError, PoleError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: no handler above classes it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
