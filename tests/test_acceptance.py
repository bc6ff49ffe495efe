"""Acceptance suite: the thirteen exact end-to-end criteria.

Each test prints one pass/fail line.  All comparisons are exact (Laurent
polynomials, rational functions, rationals); there are no tolerances.
"""

from fractions import Fraction
from functools import cache

from laxforge.qring import LaurentPoly
from laxforge.superroot import bilinear
from laxforge.gradedmat import (
    GradedMatrix,
    Representation,
    trivial_rep,
)
from laxforge.laxengine import (
    RTensor,
    SigmaSet,
    assemble_R,
    closed_form_sigma,
    extend_sigma,
    init_simple_sigma,
    opposite_R,
)
from laxforge.verifier import (
    check_appendix,
    check_delta_property,
    check_extra_serre,
    check_intertwining,
    check_lax_ybe,
    check_opposite,
    check_path_independence,
    check_qcom,
    check_qserre,
    check_ybe,
)
from laxforge.spectral import SpectralRMatrix, braces_matrix, check_spectral_ybe
from laxforge.cli import Context

ACCEPTANCE_SET = [
    (3, 0), (4, 0), (5, 0), (6, 0),
    (3, 2), (4, 2), (5, 2),
    (3, 4), (5, 4),
]

# one shared CLI context per algebra: each construction is built once
ctx = cache(Context)


def conclude(number, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {title}: {tag}{suffix}")
    assert ok, f"criterion {number} ({title}) failed{suffix}"


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_oracle():
    ok = True
    for (m, n) in ACCEPTANCE_SET:
        c = ctx(m, n)
        oracle = closed_form_sigma(c.alg)
        ok = ok and set(c.sigma.sigma) == set(oracle.sigma)
        ok = ok and all(
            c.sigma.sigma[p] == oracle.sigma[p] for p in oracle.sigma
        )
    conclude(1, "closed-form oracle equivalence", ok)


def test_criterion_02_anchor_values():
    s30 = ctx(3, 0).sigma
    s32 = ctx(3, 2).sigma
    p = LaurentPoly.parse
    ok = s30.sigma[(0, 1)].entries == {(0, 1): p("1"), (1, 2): p("-1*s^-1")}
    ok = ok and s30.sigma[(0, 2)].entries == {(0, 2): p("-1 + 1*s^2")}
    ok = ok and s32.sigma[(0, 1)].entries == {(0, 1): p("1"), (3, 4): p("-1*s^2")}
    ok = ok and s32.sigma[(0, 4)].entries == {(0, 4): p("1*s^-4 + 1*s^-2")}
    conclude(2, "hand-checkable anchor values", ok)


def test_criterion_03_yang_baxter():
    ok = all(check_ybe(ctx(m, n).r).status == "pass" for (m, n) in ACCEPTANCE_SET)
    conclude(3, "Yang-Baxter equation on V^3", ok)


def test_criterion_04_intertwining():
    ok = all(
        check_intertwining(ctx(m, n).r, ctx(m, n).rep).status == "pass"
        for (m, n) in ACCEPTANCE_SET
    )
    conclude(4, "intertwining for simple generators", ok)


def test_criterion_05_coproduct_identity():
    ok = all(
        check_delta_property(ctx(m, n).sigma, ctx(m, n).r).status == "pass"
        for (m, n) in ACCEPTANCE_SET
    )
    conclude(5, "coproduct identity (id x Delta)R = R13 R12", ok)


def test_criterion_06_opposite():
    ok = all(
        check_opposite(ctx(m, n).r, opposite_R(ctx(m, n).sigma)).status == "pass"
        for (m, n) in ACCEPTANCE_SET
    )
    conclude(6, "opposite R-matrix identities", ok)


def test_criterion_07_path_independence():
    reports = [check_path_independence(ctx(m, n).sigma) for (m, n) in ACCEPTANCE_SET]
    ok = all(r.status == "pass" for r in reports)
    conclude(7, "path independence of the recursion", ok,
             f"{sum(r.relations_checked for r in reports)} alternative routes")


def test_criterion_08_relation_suites():
    ok = True
    for (m, n) in ACCEPTANCE_SET:
        sigma = ctx(m, n).sigma
        ok = ok and check_appendix(sigma).status == "pass"
        ok = ok and check_qcom(sigma).status == "pass"
    conclude(8, "appendix tables and q-commutation relations", ok)


def test_criterion_09_serre_relations():
    ok = True
    active = 0
    for (m, n) in ACCEPTANCE_SET:
        report = check_qserre(ctx(m, n).rep)
        ok = ok and report.status == "pass"
        active += report.relations_checked
        ok = ok and check_extra_serre(ctx(m, n).sigma).status == "pass"
    ok = ok and active > 0
    extra = check_extra_serre(ctx(5, 4).sigma)
    ok = ok and extra.status == "pass" and extra.relations_checked == 2
    conclude(9, "standard and extra q-Serre relations", ok)


def test_criterion_10_specializations():
    ok = True
    one = Fraction(1)
    for (m, n) in ACCEPTANCE_SET:
        c = ctx(m, n)
        dim2 = c.r.matrix.dim
        numeric = {
            k: v.evaluate(one) for k, v in c.r.matrix.entries.items() if v.evaluate(one)
        }
        ok = ok and numeric == {(i, i): one for i in range(dim2)}
        for _, alpha in c.alg.simple_roots:
            ok = ok and bilinear(c.alg.rho, alpha) == bilinear(alpha, alpha) / 2
    conclude(10, "s = 1 identity limit and rho pairings", ok)


def test_criterion_11_spectral():
    ok = True
    for (m, n) in ACCEPTANCE_SET:
        c = ctx(m, n)
        ok = ok and braces_matrix(c.alg, c.sigma) == c.r.matrix
    for (m, n) in [(3, 2), (4, 2)]:
        for kind in ("untwisted", "twisted"):
            spec = ctx(m, n).spectral(kind)
            report = check_spectral_ybe(spec, samples=20, seed=2024)
            ok = ok and report.status == "pass" and report.relations_checked >= 20
    conclude(11, "spectral R-matrices and sampled spectral YBE", ok)


def _flip_r_entry(r: RTensor) -> RTensor:
    entries = dict(r.matrix.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1])
    entries[key] = -entries[key]
    return RTensor(r.dims, GradedMatrix(r.matrix.gradings, entries), r.kind,
                   r.gradings_v, r.gradings_w)


def _square_sigma_entry(ss: SigmaSet) -> SigmaSet:
    sigma = dict(ss.sigma)
    for pair in sorted(sigma):
        for rc, v in sorted(sigma[pair].entries.items()):
            if any(e != 0 for e in v.terms):
                patched = dict(sigma[pair].entries)
                patched[rc] = LaurentPoly({2 * e: c for e, c in v.terms.items()})
                sigma[pair] = GradedMatrix(sigma[pair].gradings, patched)
                return SigmaSet(rep=ss.rep, sigma=sigma, provenance=dict(ss.provenance))
    raise AssertionError("no exponent-bearing entry found")


def test_criterion_12_negative_controls():
    c = ctx(3, 2)
    r, sigma, rep = c.r, c.sigma, c.rep
    bad_r = _flip_r_entry(r)
    bad_sigma = _square_sigma_entry(sigma)

    failures = {
        "ybe": check_ybe(bad_r),
        "intertwining": check_intertwining(bad_r, rep),
        "delta_property": check_delta_property(sigma, r=bad_r),
        "opposite": check_opposite(r, _flip_r_entry(opposite_R(sigma))),
        "path_independence": check_path_independence(bad_sigma),
        # criterion 8's suite is the appendix tables plus q-commutation; the
        # mutation surfaces through the appendix half (the q-commutation
        # instances are structurally 0 = 0 in the vector representation)
        "relation_suite": check_appendix(bad_sigma),
    }

    # criterion 9's suite: standard Serre fails on a sign-flipped generator
    rep40 = ctx(4, 0).rep
    e = dict(rep40.e)
    m0 = e["i1"]
    rc, v = next(iter(sorted(m0.entries.items())))
    patched = dict(m0.entries)
    patched[rc] = -v
    e["i1"] = GradedMatrix(m0.gradings, patched)
    bad_rep = Representation(rep40.algebra, rep40.name, rep40.gradings,
                             rep40.weights, e, rep40.f)
    failures["serre"] = check_qserre(bad_rep)

    # criterion 11's suite: a sign-flipped spectral entry breaks the sampled YBE
    # (the entry is negated by extra pieces: each piece's weight on -2 times
    # its value there)
    spec = ctx(3, 0).spectral("untwisted")
    key = next(
        k for k in sorted(tuple(int(x) - 1 for x in doc_key.split(","))
                          for doc_key in spec.to_json()["entries"])
        if k[0] != k[1]
    )
    extra = tuple(
        (weight, GradedMatrix(spec.gradings, {key: mat.entries[key] * -2}))
        for weight, mat in spec.pieces
        if key in mat.entries
    )
    bad_spec = SpectralRMatrix(
        spec.algebra, spec.kind, spec.gradings, spec.den, spec.pieces + extra
    )
    failures["spectral"] = check_spectral_ybe(bad_spec, samples=3, seed=0)

    ok = all(rep_.status == "fail" and rep_.witness for rep_ in failures.values())
    conclude(12, "negative controls fail with witnesses", ok,
             ", ".join(sorted(failures)))


def test_criterion_13_mixed_lax_ybe():
    c = ctx(3, 2)
    rv = c.r
    trivial_sigma = extend_sigma(init_simple_sigma(trivial_rep(c.alg)))
    ok = check_lax_ybe(rv, assemble_R(trivial_sigma)).status == "pass"
    ok = ok and check_lax_ybe(rv, rv).status == "pass"
    conclude(13, "mixed Lax YBE for trivial and vector W", ok)
