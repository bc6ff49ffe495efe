"""Span recorder for the traced benchmark run, installed from outside.

`Recorder.install()` wraps the public functions of every `laxforge.*`
module, plus the hot methods the benchmark reports on, by replacing each
function object in *every* module namespace and class that holds it (the
CLI imports `assemble_R` by name, so one function can live under several
names).  `uninstall()` puts the originals back.  Nothing under `src/` is
edited.

A span has a name (`<module>.<qualname>`), start, end, the span that
caused it and the id of the benchmark job it ran in.  Spans of the coarse
layers (cli, laxengine, verifier, spectral and the representation
builders) are kept in memory one by one and written out when the run
ends.  Leaf arithmetic (`LaurentPoly` products and sums, `bilinear`,
`graded_kron`, `@`, `qh_diag`, ...) runs millions of times a pass, so its
spans are folded into per-name totals as they close instead of being kept.
Every span, kept or folded, takes part in self time: a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

MODULES = ("qring", "superroot", "gradedmat", "laxengine", "verifier", "spectral", "cli")

# Methods wrapped besides the public module-level functions.
METHODS = {
    "qring": {"LaurentPoly": ("__mul__", "__add__"), "RatFunc": ("evaluate",)},
    "gradedmat": {"GradedMatrix": ("__matmul__",), "Representation": ("qh_diag",)},
    "spectral": {"SpectralRMatrix": ("evaluate",)},
}
# Private helpers wrapped for a counter the CLI does not expose.
PRIVATE = {"cli": ("_cache_fetch",)}

KEPT_MODULES = {"cli", "laxengine", "verifier", "spectral"}
KEPT_NAMES = {
    "superroot.build_algebra",
    "gradedmat.check_representation",
    "gradedmat.build_vector_rep",
    "gradedmat.load_representation",
    "gradedmat.trivial_rep",
}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.job: str | None = None
        # open frames: [id of the nearest kept span, time covered by children]
        self._stack: list[list] = [[None, 0.0]]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.installed: dict[str, list[str]] = {}  # span name -> where wrapped

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool, after=None, on_error=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                rec._next_id += 1
                frame = [rec._next_id, 0.0]
            else:
                frame = [parent[0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if keep:
                    spans.append((frame[0], parent[0], rec.job, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken at the layer boundaries ---------------------------

    def _after_mul(self, args, result) -> None:
        a, b = args
        n_b = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["qring.mul.coeff_products"] += len(a.terms) * n_b
        terms = getattr(result, "terms", None)
        if terms:
            self.counts["qring.mul.coeffs_out"] += len(terms)
            self.counts["qring.mul.nonint_coeffs_out"] += sum(
                1 for c in terms.values() if type(c) is Fraction and c.denominator != 1
            )

    def _after_matmul(self, args, result) -> None:
        a, b = args
        rows = Counter(r for (r, _) in b.entries)
        self.counts["gradedmat.matmul.inner_products"] += sum(
            rows[c] for (_, c) in a.entries
        )
        self.counts["gradedmat.matmul.out_nnz"] += len(result.entries)

    def _after_check(self, args, result) -> None:
        self.counts["verifier.relations_checked"] += result.relations_checked

    def _after_cache_fetch(self, args, result) -> None:
        self.counts["cli.cache.fetches"] += 1
        self.counts["cli.cache.hits"] += result is not None

    def _pole(self, exc) -> None:
        from laxforge.qring import PoleError

        if isinstance(exc, PoleError):
            self.counts["spectral.evaluate.pole_errors"] += 1

    def _hooks(self, name: str) -> dict:
        if name == "qring.LaurentPoly.__mul__":
            return {"after": self._after_mul}
        if name == "gradedmat.GradedMatrix.__matmul__":
            return {"after": self._after_matmul}
        if name == "cli._cache_fetch":
            return {"after": self._after_cache_fetch}
        if name == "spectral.SpectralRMatrix.evaluate":
            return {"on_error": self._pole}
        if name.startswith(("verifier.check_", "spectral.check_")):
            return {"after": self._after_check}
        return {}

    # -- installation -----------------------------------------------------

    def _targets(self, modules: dict) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, original function)."""
        targets = {}
        for short, mod in modules.items():
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += PRIVATE.get(short, ())
            for attr in names:
                obj = vars(mod)[attr]
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = vars(mod)[cls_name]
                for meth in methods:
                    obj = vars(cls)[meth]
                    targets[id(obj)] = (f"{short}.{cls_name}.{meth}", obj)
        return targets

    def install(self) -> None:
        modules = {m: importlib.import_module(f"laxforge.{m}") for m in MODULES}
        package = importlib.import_module("laxforge")
        wrappers = {}
        for key, (name, fn) in self._targets(modules).items():
            module = name.split(".", 1)[0]
            keep = module in KEPT_MODULES or name in KEPT_NAMES
            wrappers[key] = (name, self._wrap(name, fn, keep, **self._hooks(name)))
        holders = [package, *modules.values()]
        holders += [
            obj for mod in modules.values() for obj in vars(mod).values()
            if inspect.isclass(obj) and obj.__module__.startswith("laxforge.")
        ]
        for holder in dict.fromkeys(holders):
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers:
                    name, wrapper = wrappers[id(obj)]
                    self._patched.append((holder, attr, obj))
                    self.installed.setdefault(name, []).append(f"{holder.__name__}.{attr}")
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()
        self.installed.clear()

    # -- results ----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return calls, total, self_s

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        st, c = self.stat, self.counts
        out: dict[str, tuple[float, str]] = {}

        def calls(metric, span):
            out[metric] = (st(span)[0], "count")

        def total(metric, span):
            out[metric] = (st(span)[1], "s")

        def own(metric, span):
            out[metric] = (st(span)[2], "s")

        def share(metric, num, den):
            out[metric] = (num / den if den else 0.0, "ratio")

        calls("qring.mul.calls", "qring.LaurentPoly.__mul__")
        out["qring.mul.coeff_products"] = (c["qring.mul.coeff_products"], "count")
        own("qring.mul.self_s", "qring.LaurentPoly.__mul__")
        calls("qring.add.calls", "qring.LaurentPoly.__add__")
        own("qring.add.self_s", "qring.LaurentPoly.__add__")
        share("qring.nonint_coeff_share", c["qring.mul.nonint_coeffs_out"],
              c["qring.mul.coeffs_out"])
        calls("qring.ratfunc_eval.calls", "qring.RatFunc.evaluate")
        own("qring.ratfunc_eval.self_s", "qring.RatFunc.evaluate")

        calls("superroot.bilinear.calls", "superroot.bilinear")
        own("superroot.bilinear.self_s", "superroot.bilinear")
        total("superroot.build_algebra.s", "superroot.build_algebra")

        calls("gradedmat.matmul.calls", "gradedmat.GradedMatrix.__matmul__")
        out["gradedmat.matmul.inner_products"] = (
            c["gradedmat.matmul.inner_products"], "count")
        out["gradedmat.matmul.out_nnz"] = (c["gradedmat.matmul.out_nnz"], "count")
        own("gradedmat.matmul.self_s", "gradedmat.GradedMatrix.__matmul__")
        calls("gradedmat.kron.calls", "gradedmat.graded_kron")
        own("gradedmat.kron.self_s", "gradedmat.graded_kron")
        calls("gradedmat.qh_diag.calls", "gradedmat.Representation.qh_diag")
        own("gradedmat.qh_diag.self_s", "gradedmat.Representation.qh_diag")
        total("gradedmat.rep_check.s", "gradedmat.check_representation")

        calls("laxengine.extend_sigma.calls", "laxengine.extend_sigma")
        total("laxengine.extend_sigma.s", "laxengine.extend_sigma")
        calls("laxengine.assemble_R.calls", "laxengine.assemble_R")
        total("laxengine.assemble_R.s", "laxengine.assemble_R")
        total("laxengine.opposite_R.s", "laxengine.opposite_R")

        for suite in SUITE_FUNCTIONS:
            total(f"verifier.{suite}.s", f"verifier.check_{suite}")
        out["verifier.relations_checked"] = (c["verifier.relations_checked"], "count")

        calls("spectral.build.calls", "spectral.build_spectral_R")
        total("spectral.build.s", "spectral.build_spectral_R")
        calls("spectral.evaluate.calls", "spectral.SpectralRMatrix.evaluate")
        own("spectral.evaluate.self_s", "spectral.SpectralRMatrix.evaluate")
        share("spectral.evaluate.pole_share", c["spectral.evaluate.pole_errors"],
              st("spectral.SpectralRMatrix.evaluate")[0])
        own("spectral.ybe.self_s", "spectral.check_spectral_ybe")

        cli_self = sum(v[2] for k, v in self.stats.items() if k.startswith("cli."))
        out["cli.job.self_s"] = (cli_self, "s")
        share("cli.cache.hit_share", c["cli.cache.hits"], c["cli.cache.fetches"])
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans and the folded totals as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"stats": self.stats, "counts": self.counts}) + "\n")
            for span_id, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps([span_id, parent, job, name, t0, t1]) + "\n")


SUITE_FUNCTIONS = (
    "ybe",
    "lax_ybe",
    "intertwining",
    "delta_property",
    "qcom",
    "qserre",
    "extra_serre",
    "appendix",
    "opposite",
    "path_independence",
)
