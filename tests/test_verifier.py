import pytest

from laxforge.qring import LaurentPoly
from laxforge.superroot import build_algebra
from laxforge.gradedmat import GradedMatrix, build_vector_rep, trivial_rep
from laxforge.laxengine import (
    RTensor,
    SigmaSet,
    assemble_R,
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


def build(m, n):
    alg = build_algebra(m, n)
    rep = build_vector_rep(alg)
    return rep, extend_sigma(init_simple_sigma(rep))


def mutate_r(r, sign_flip=True):
    """Flip the sign of one off-diagonal entry."""
    entries = dict(r.matrix.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1])
    entries[key] = -entries[key]
    return RTensor(
        r.dims,
        GradedMatrix(r.matrix.gradings, entries),
        r.kind,
        r.gradings_v,
        r.gradings_w,
    )


def mutate_sigma(ss, pair=None):
    """Apply q -> q^2 to one exponent-bearing entry of one sigma value."""
    sigma = dict(ss.sigma)
    candidates = sorted(sigma) if pair is None else [pair]
    for p in candidates:
        for rc, v in sorted(sigma[p].entries.items()):
            if any(e != 0 for e in v.terms):
                doubled = LaurentPoly({2 * e: c for e, c in v.terms.items()})
                patched = dict(sigma[p].entries)
                patched[rc] = doubled
                sigma[p] = GradedMatrix(sigma[p].gradings, patched)
                return SigmaSet(rep=ss.rep, sigma=sigma, provenance=dict(ss.provenance))
    raise AssertionError("no mutable entry found")


# -- positive checks ---------------------------------------------------------


@pytest.mark.parametrize("mn", [(3, 0), (4, 0), (3, 2)])
def test_full_suite_passes(mn):
    rep, ss = build(*mn)
    r = assemble_R(ss)
    assert check_ybe(r).status == "pass"
    assert check_intertwining(r, rep).status == "pass"
    assert check_delta_property(ss, r).status == "pass"
    assert check_qcom(ss).status == "pass"
    assert check_appendix(ss).status == "pass"
    assert check_path_independence(ss).status == "pass"
    assert check_opposite(r, opposite_R(ss)).status == "pass"


def test_qserre_vacuous_for_single_root():
    rep, _ = build(3, 0)
    report = check_qserre(rep)
    assert report.status == "pass"
    assert report.vacuous
    assert report.to_json().get("vacuous") is True


def test_qserre_active_for_4_0():
    rep, _ = build(4, 0)
    report = check_qserre(rep)
    assert report.status == "pass"
    assert report.relations_checked == 2  # (i1, l) both ways, a_bc = 0


def test_extra_serre_vacuous_below_threshold():
    _, ss = build(3, 2)
    report = check_extra_serre(ss)
    assert report.status == "pass" and report.vacuous


def test_extra_serre_active_for_5_4():
    _, ss = build(5, 4)
    report = check_extra_serre(ss)
    assert report.status == "pass"
    assert report.relations_checked == 2


def test_lax_ybe_trivial_and_vector():
    alg = build_algebra(3, 2)
    _, ss = build(3, 2)
    rv = assemble_R(ss)
    sst = extend_sigma(init_simple_sigma(trivial_rep(alg)))
    assert check_lax_ybe(rv, assemble_R(sst)).status == "pass"
    assert check_lax_ybe(rv, rv).status == "pass"


def test_lax_ybe_rejects_dimension_mismatch():
    _, ss32 = build(3, 2)
    _, ss40 = build(4, 0)
    with pytest.raises(ValueError):
        check_lax_ybe(assemble_R(ss32), assemble_R(ss40))


def test_appendix_parity_gating():
    # even m exercises the even-m table, odd m the odd-m one; both suites
    # stay nonempty because the common table always applies
    _, even = build(4, 0)
    _, odd = build(3, 2)
    assert check_appendix(even).relations_checked > 0
    assert check_appendix(odd).relations_checked > 0


# -- negative controls -------------------------------------------------------


def test_ybe_fails_on_sign_flip():
    _, ss = build(3, 2)
    report = check_ybe(mutate_r(assemble_R(ss)))
    assert report.status == "fail"
    assert report.witness is not None
    assert {"relation", "row", "col", "lhs", "rhs"} <= set(report.witness)


def test_intertwining_fails_on_sign_flip():
    rep, ss = build(3, 2)
    report = check_intertwining(mutate_r(assemble_R(ss)), rep)
    assert report.status == "fail" and report.witness


def test_delta_property_fails_on_mutation():
    # the identity is bilinear in the first-slot elementary matrices, so a
    # sigma mutation shifts both sides equally; corrupt the R under test
    _, ss = build(3, 2)
    report = check_delta_property(ss, r=mutate_r(assemble_R(ss)))
    assert report.status == "fail" and report.witness


def test_appendix_and_path_independence_fail_on_mutation():
    _, ss = build(3, 2)
    bad = mutate_sigma(ss)
    assert check_appendix(bad).status == "fail"
    assert check_path_independence(bad).status == "fail"


def test_opposite_fails_on_mutation():
    _, ss = build(3, 0)
    r = assemble_R(ss)
    rt = opposite_R(ss)
    report = check_opposite(r, mutate_r(rt))
    assert report.status == "fail" and report.witness


def test_report_json_shape():
    _, ss = build(3, 0)
    doc = check_qcom(ss).to_json()
    assert doc["check"] == "qcom"
    assert doc["status"] == "pass"
    assert doc["relations_checked"] > 0
    assert "witness" not in doc
