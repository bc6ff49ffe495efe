import dataclasses
import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest

from laxforge import verifier
from laxforge.qring import LaurentPoly, q_power
from laxforge.superroot import bilinear, build_algebra
from laxforge.gradedmat import (
    GradedMatrix,
    build_vector_rep,
    embed_triple,
    kron_blocks,
    load_representation,
    pack,
    pack_stats,
    packing_bits,
    tensor_product,
    trivial_rep,
)
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
    delta_lhs,
)


def build(m, n):
    alg = build_algebra(m, n)
    rep = build_vector_rep(alg)
    return rep, extend_sigma(init_simple_sigma(rep))


def mutate_r(r, off_diagonal=True):
    """Flip the sign of the first off-diagonal entry, or of the first entry
    when `off_diagonal` is false (an R on V (x) trivial is diagonal)."""
    entries = dict(r.matrix.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1] or not off_diagonal)
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


def negate_first_entry(ss, pair):
    """ss with the first entry of sigma of `pair` negated."""
    entries = dict(ss.sigma[pair].entries)
    key = min(entries)
    entries[key] = -entries[key]
    flipped = GradedMatrix(ss.sigma[pair].gradings, entries)
    return SigmaSet(ss.rep, {**ss.sigma, pair: flipped}, dict(ss.provenance))


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


def test_ybe_and_lax_ybe_multiply_packed_ints(monkeypatch):
    # with integral coefficients both suites multiply ints only
    _, ss = build(3, 2)
    r = assemble_R(ss)

    def refuse(self, other):
        raise AssertionError("a Laurent polynomial was multiplied")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    assert check_ybe(r).status == "pass"
    assert check_lax_ybe(r, r).status == "pass"


def test_delta_property_multiplies_packed_ints(monkeypatch):
    # both sides of the delta identity are built and multiplied on ints
    _, ss = build(3, 2)
    r = assemble_R(ss)

    def refuse(self, other):
        raise AssertionError("a Laurent polynomial was multiplied")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    assert check_delta_property(ss, r).status == "pass"


@pytest.mark.parametrize(
    "mn", [(3, 0), (4, 0), (5, 0), (6, 0), (3, 2), (4, 2), (5, 2), (3, 4), (5, 4), (8, 6)]
)
def test_packed_delta_lhs_is_the_packed_symbolic_lhs(mn):
    _, ss = build(*mn)
    g, blocks = ss.algebra.gradings, ss.blocks
    lhs = delta_lhs(g, blocks)
    lo = min(pack_stats(m).lo for m in blocks.values())
    # pack is a ring map for any B, so the packed build is exactly pack(lhs)
    for bits in (3, 12):
        packed = delta_lhs(g, {key: pack(m, bits, lo) for key, m in blocks.items()})
        assert packed == pack(lhs, bits, 2 * lo)


def spy_on_pack(monkeypatch, calls):
    """Record (matrix, bits, lo) of every pack call the verifier makes."""
    from laxforge import verifier

    pack_real = verifier.pack

    def spy(m, bits, lo):
        calls.append((m, bits, lo))
        return pack_real(m, bits, lo)

    monkeypatch.setattr(verifier, "pack", spy)


def test_delta_packs_each_input_at_its_own_lowest_exponent(monkeypatch):
    # every block of R and R itself at one shift, R's own lowest exponent
    _, ss = build(5, 4)
    r = assemble_R(ss)
    calls = []
    spy_on_pack(monkeypatch, calls)
    assert check_delta_property(ss, r).status == "pass"
    kinds = {id(r.matrix): "R", **{id(m): "block" for m in ss.blocks.values()}}
    shifts = {}
    for m, _, lo in calls:
        shifts.setdefault(kinds[id(m)], set()).add(lo)
    assert pack_stats(r.matrix).lo == -8
    assert shifts == {"block": {-8}, "R": {-8}}
    assert len(calls) == len(ss.blocks) + 1


def test_delta_bound_counts_every_product_of_a_left_entry(monkeypatch):
    # every block of a hand-built R on an even V of dimension d is norm E^0_0:
    # entry (0,0),(0,0) of left block (d-1, 0) sums d products norm^2, and a
    # row of R holds d entries, so both sides reach d norm^2; B must exceed
    # the sum of their largest coefficients
    d, norm = 4, 3
    g = (0,) * d
    corner = GradedMatrix(g, {(0, 0): LaurentPoly.const(norm)})
    blocks = {(a, b): corner for a in range(d) for b in range(a + 1)}
    r = kron_blocks(g, g, blocks)
    sigma = SimpleNamespace(
        blocks=blocks, algebra=SimpleNamespace(gradings=g), rep=SimpleNamespace(gradings=g)
    )
    calls = []
    spy_on_pack(monkeypatch, calls)
    report = check_delta_property(sigma, RTensor((d, d), r, "lax", g, g))
    assert report.status == "pass"

    def largest(m):
        return max(max(map(abs, v.terms.values())) for v in m.entries.values())

    lhs = delta_lhs(g, blocks)
    rhs = embed_triple(r, "13", g, g, g) @ embed_triple(r, "12", g, g, g)
    assert largest(lhs) == largest(rhs) == d * norm**2
    assert calls and all(1 << bits > 2 * d * norm**2 for _, bits, _ in calls)


@pytest.mark.parametrize("suite, mn, packed", [
    ("ybe", (5, 4), 1),
    ("ybe", (8, 6), 1),
    ("intertwine", (5, 4), 17),
    ("intertwine", (8, 6), 29),
    ("delta", (5, 4), 46),
    ("delta", (8, 6), 105),
])
def test_each_input_is_packed_once(monkeypatch, suite, mn, packed):
    # ybe packs R once for all three factors; intertwine packs R and each
    # Delta(x) once, Delta^T(x) being the flip of the packed Delta(x); delta
    # packs R and each of its blocks once
    rep, ss = build(*mn)
    r = assemble_R(ss)
    checks = {
        "ybe": lambda: check_ybe(r),
        "intertwine": lambda: check_intertwining(r, rep),
        "delta": lambda: check_delta_property(ss, r),
    }
    calls = []
    spy_on_pack(monkeypatch, calls)
    assert checks[suite]().status == "pass"
    assert len(calls) == packed
    assert len({id(m) for m, _, _ in calls}) == packed


@pytest.mark.parametrize("mn", [(4, 2), (8, 6)])
def test_intertwine_bits_cover_every_relation(monkeypatch, mn):
    # one B for all relations: it must be at least what each relation's
    # own two products need; on these algebras Delta(e) and Delta(f) need
    # one bit more than Delta(q^(+-h/2))
    rep, ss = build(*mn)
    r = assemble_R(ss)
    calls = []
    spy_on_pack(monkeypatch, calls)
    assert check_intertwining(r, rep).status == "pass"
    (bits,) = {b for _, b, _ in calls}
    assert calls[0][0] is r.matrix
    sr = pack_stats(r.matrix)
    for dx, _, _ in calls[1:]:  # each Delta(x), in relation order
        sx = pack_stats(dx)
        assert bits >= packing_bits([sr, sx], [sx, sr])


@pytest.mark.parametrize("mn", [(3, 0), (3, 2), (4, 2), (5, 2)])
def test_lax_operator_on_v_tensor_v_is_the_delta_lhs(mn):
    # sigma-hat induced on V (x) V gives (id (x) Delta) R: the displayed
    # coproduct, which the delta suite only takes as given
    rep, ss = build(*mn)
    on_vv = extend_sigma(init_simple_sigma(tensor_product(rep, rep)))
    assert assemble_R(on_vv).matrix == delta_lhs(ss.algebra.gradings, ss.blocks)


def test_delta_passes_a_rescaled_sigma_that_v_tensor_v_rejects():
    # the delta identity holds for any block-triangular R, so a sigma-hat
    # with one recursed sigma_ba scaled by -q passes it; the lax operator
    # induced on V (x) V tells the two apart
    rep, ss = build(4, 2)
    pair = next(p for p, how in ss.provenance.items() if how.startswith("recursed"))
    bad = SigmaSet(rep, {**ss.sigma, pair: ss.sigma[pair].shifted(2, -1)}, ss.provenance)
    assert check_delta_property(bad, assemble_R(bad)).status == "pass"
    assert check_ybe(assemble_R(bad)).status == "fail"
    on_vv = extend_sigma(init_simple_sigma(tensor_product(rep, rep)))
    assert assemble_R(on_vv).matrix != delta_lhs(bad.algebra.gradings, bad.blocks)


@pytest.mark.parametrize("mn", [(4, 2), (4, 4), (5, 4)])
def test_each_ad_step_is_the_conjugation_by_q_h(monkeypatch, mn):
    # _ad takes q^h X q^-h as X shifted by the weights it is handed; the
    # conjugation by D = q^h written out catches a step handed a wrong one
    alg = build_algebra(*mn)
    v = build_vector_rep(alg)
    rep = load_representation(tensor_product(v, v).to_json(), alg)
    steps, ad = [], verifier._ad

    def spy(op, x):
        out = ad(op, x)
        steps.append((op, x, out))
        return out

    monkeypatch.setattr(verifier, "_ad", spy)
    assert check_qserre(rep).status == "pass"
    assert check_extra_serre(extend_sigma(init_simple_sigma(rep))).status == "pass"
    assert any(not out[0].is_zero() for *_, out in steps)
    for (a, wa, pa), (x, wx, px), out in steps:
        d, d_inv = rep.qh_diag(wa, 1), rep.qh_diag(wa, -1)
        sign = -1 if pa * px % 2 else 1
        assert out == (a @ x - (d @ x @ d_inv @ a).scale(sign), wa + wx, (pa + px) % 2)


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


def witness(relation, row, col, lhs, rhs):
    return {"relation": relation, "row": row, "col": col, "lhs": lhs, "rhs": rhs}


YBE = "R12 R13 R23 = R23 R13 R12"
LAX_YBE = "r12 R13 R23 = R23 R13 r12"


def test_ybe_fails_on_sign_flip():
    _, ss = build(3, 2)
    report = check_ybe(mutate_r(assemble_R(ss)))
    assert report.status == "fail"
    assert report.witness == witness(
        YBE, 26, 2, "1*s^-6 + -3*s^-2 + 2*s^2", "-1*s^-6 + 1*s^-2"
    )


def test_intertwining_fails_on_sign_flip():
    rep, ss = build(3, 2)
    report = check_intertwining(mutate_r(assemble_R(ss)), rep)
    assert report.status == "fail"
    assert report.witness == witness(
        "R Delta(e_s) = Delta^T(e_s) R", 1, 2, "-1*s^-3", "1*s^-3 + -2*s^1"
    )


def test_delta_property_fails_on_mutation():
    # the identity is bilinear in the first-slot elementary matrices, so a
    # sigma mutation shifts both sides equally; corrupt the R under test
    _, ss = build(3, 2)
    report = check_delta_property(ss, r=mutate_r(assemble_R(ss)))
    assert report.status == "fail"
    assert report.witness == witness(
        "(id (x) Delta) R = R13 R12", 26, 2, "1*s^-4 + -1", "-1*s^-4 + 1"
    )


def test_lax_ybe_fails_on_flipped_vector_lax_operator():
    _, ss = build(3, 2)
    rv = assemble_R(ss)
    report = check_lax_ybe(rv, mutate_r(rv))
    assert report.status == "fail"
    assert report.witness == witness(
        LAX_YBE, 36, 8, "-1*s^-4 + 2 + -1*s^4", "1*s^-4 + -2 + 1*s^4"
    )


def test_lax_ybe_fails_on_flipped_trivial_lax_operator():
    alg = build_algebra(3, 2)
    _, ss = build(3, 2)
    rw = assemble_R(extend_sigma(init_simple_sigma(trivial_rep(alg))))
    report = check_lax_ybe(assemble_R(ss), mutate_r(rw, off_diagonal=False))
    assert report.status == "fail"
    assert report.witness == witness(
        LAX_YBE, 9, 5, "-1*s^-2 + 1*s^2", "1*s^-2 + -1*s^2"
    )


def rescaled_vector_rep(alg):
    """The vector representation conjugated by diag(d_1, ..., d_dim) with
    rational d_i, read back through load_representation: an isomorphic
    module whose generator matrices have Fraction entries."""
    doc = build_vector_rep(alg).to_json()
    scale = [Fraction(i + 1, 2 + i % 3) for i in range(doc["dim"])]

    def conjugate(entries):
        return [
            [r, c, str(LaurentPoly.parse(text) * (scale[r - 1] / scale[c - 1]))]
            for r, c, text in entries
        ]

    doc["name"] = "rescaled"
    doc["e"] = {lab: conjugate(ent) for lab, ent in doc["e"].items()}
    doc["f"] = {lab: conjugate(ent) for lab, ent in doc["f"].items()}
    return load_representation(doc, alg)


def test_lax_ybe_with_fraction_coefficients():
    # a Fraction coefficient in R_W cannot be packed into an int, so the
    # suite compares the Laurent-polynomial products directly
    alg = build_algebra(3, 2)
    _, ss = build(3, 2)
    rv = assemble_R(ss)
    rw = assemble_R(extend_sigma(init_simple_sigma(rescaled_vector_rep(alg))))
    assert any(
        type(c) is not int for v in rw.matrix.entries.values() for c in v.terms.values()
    )
    assert check_lax_ybe(rv, rw).status == "pass"
    report = check_lax_ybe(rv, mutate_r(rw))
    assert report.status == "fail"
    assert report.witness == witness(
        LAX_YBE, 36, 8, "-2/3*s^-4 + 4/3 + -2/3*s^4", "2/3*s^-4 + -4/3 + 2/3*s^4"
    )


def test_appendix_and_path_independence_fail_on_mutation():
    _, ss = build(3, 2)
    bad = mutate_sigma(ss)
    assert check_appendix(bad).status == "fail"
    assert check_path_independence(bad).status == "fail"


@pytest.mark.parametrize("mn, formed", [((5, 4), 47), ((8, 6), 252)])
def test_appendix_and_path_independence_form_each_step_once(monkeypatch, mn, formed):
    # each (b, c, a) is formed at most once for the set, so a second run
    # forms only the appendix's commutator relations again
    _, ss = build(*mn)
    alg = ss.algebra
    real, calls = GradedMatrix.commutator, []

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(GradedMatrix, "commutator", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        assert check_appendix(ss).status == "pass"
        assert check_path_independence(ss).status == "pass"
        counts.append(len(calls))
    relations = (alg.l - 1) + (alg.k - 1) + (alg.n > 0)
    assert counts == [formed, relations]


@pytest.mark.parametrize("mn", [(3, 2), (4, 2), (5, 4), (6, 2), (4, 6)])
def test_own_steps_are_the_stored_sigma(mn):
    _, ss = build(*mn)
    labels = ss.algebra.labels
    recursed = 0
    for (b, a), prov in ss.provenance.items():
        if prov.startswith("recursed(via "):
            c = labels.index(prov[len("recursed(via "):-1])
            assert ss.step(b, c, a) is ss.sigma[(b, a)]
            recursed += 1
    assert recursed


def test_a_new_sigma_set_forms_its_own_steps():
    # a set made from another, by replace or by the constructor, starts
    # with no steps, so none formed from the old sigma is served
    _, ss = build(3, 2)
    assert check_path_independence(ss).status == "pass" and ss.steps
    sigma = mutate_sigma(ss).sigma
    for bad in (
        dataclasses.replace(ss, sigma=sigma),
        SigmaSet(ss.rep, sigma, ss.provenance),
    ):
        assert not bad.steps
        assert check_appendix(bad).status == "fail"
        assert check_path_independence(bad).status == "fail"


def sigma_on_v_tensor_v(m, n):
    """sigma-hat on V (x) V, and the same with the first entry of sigma of
    the s pair negated."""
    alg = build_algebra(m, n)
    v = build_vector_rep(alg)
    ss = extend_sigma(init_simple_sigma(tensor_product(v, v)))
    return ss, negate_first_entry(ss, alg.simple_pair("s"))


def test_qcom_and_appendix_fail_on_a_negated_entry_of_v_tensor_v():
    # on V and the trivial module every q-commutation relation is 0 = 0; on
    # V (x) V they are not, so the sign (-1)^(([a]+[b])([x]+[y])) matters
    good, bad = sigma_on_v_tensor_v(3, 2)
    assert check_qcom(good).to_text() == "qcom: pass (9 relations)"
    assert check_appendix(good).to_text() == "appendix: pass (20 relations)"
    assert check_qcom(bad).to_text() == (
        "qcom: fail (9 relations)\n"
        "  witness: qcom[s; mu1,i1] at (1,7): lhs = 2*s^-5, rhs = 0"
    )
    assert check_appendix(bad).to_text() == (
        "appendix: fail (20 relations)\n"
        "  witness: common: sigma(mu1,i2) via i1 at (1,3): lhs = -1*s^-2, rhs = 1*s^-2"
    )


def test_extra_serre_fails_on_a_negated_entry_of_v_tensor_v():
    # no single-entry corruption of a simple sigma on V is known to break
    # extra-Serre; on V (x) V one negated entry of sigma of the s pair does
    _, bad = sigma_on_v_tensor_v(5, 4)
    assert check_extra_serre(bad).to_text() == (
        "extra_serre: fail (2 relations)\n"
        "  witness: [A, [B, [A, C]_q]_q] = 0 (A isotropic) at (2,22): "
        "lhs = -2*s^-2, rhs = 0"
    )


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


# (count, sha256 of the ids joined by newlines) of the relations qcom and
# appendix compare, in order; recorded before the q-commutation loops of
# both suites became one helper
RELATION_IDS = {
    (3, 0): {
        "qcom": (1, "b4b1ce07adaf89d4274f9e6d0fa0cc0aa5b673accb1e4c60c82c8291c0f93c26"),
        "appendix": (3, "c610989b8c8fb117072d41518ce29c59b7f88f3f874d6e9eab52b0dfa47cd7b3"),
    },
    (4, 0): {
        "qcom": (7, "85bdcf46ed3e8d006c48bf11b9650715f9cc9aca0c5cfb42ff28cb90b71a8912"),
        "appendix": (12, "5c55234ff75631b8121b3f784d3d0f811a0a25db3c683bffdd3cb153a4cca33e"),
    },
    (3, 2): {
        "qcom": (9, "2fb2d3b355dbfe1dbf71b0e7fd534cf7e85bf402bfd34a6a64f5e15d09d8bf51"),
        "appendix": (20, "9b450a3b93fb951de5a890c18ed298110a246f4abcae4899d61d463f2b821f71"),
    },
    (4, 2): {
        "qcom": (25, "fd3186265d8fdffbe3f3be0af6fd4a5c39edc86d5df56d76937c88175910fddb"),
        "appendix": (45, "6a7404ca0231767edd1626da352db46ea00baf7aa181a791228d856aed5038ba"),
    },
    (5, 4): {
        "qcom": (91, "1602fc65829926adc3af2a268f9d7ef47aa2f6dd141f474f3295431c16912c8a"),
        "appendix": (144, "d3586d9e7af090016a1bdbb4edc654746b058475dae30dfc8b56d24867d20661"),
    },
    (6, 2): {
        "qcom": (69, "cbdfbcbb6c70ee22134f6cb55e87f99d5971cbe538dfd4fd2a476d5fad5c79b9"),
        "appendix": (112, "00555bb52a024791e6fe331f54e8b5d1f154c416c090b57d1746df5eb1d5d02a"),
    },
    (4, 6): {
        "qcom": (151, "b2092b6d933a8dada07204160ca09c1003287676a4b344280cec2e648d8c912c"),
        "appendix": (225, "b98fed3427edda38a95c14893434553ca367d5eea03454a2732a1a3afaff5334"),
    },
    (7, 4): {
        "qcom": (189, "df04be236a3b973f115b15319e961617c6fd2f603fddeebe877d22b038e22e31"),
        "appendix": (275, "a364e2cea44c67cc6bdc6502a6a599a4aae4a1b18aebe5dce5deb3c4339e8cf3"),
    },
}


@pytest.mark.parametrize("mn", sorted(RELATION_IDS))
def test_qcom_and_appendix_relation_ids_are_pinned(monkeypatch, mn):
    from laxforge import verifier

    _, ss = build(*mn)
    seen = []
    compare = verifier.CheckReport.expect_equal

    def spy(self, rel_id, lhs, rhs):
        seen.append(rel_id)
        compare(self, rel_id, lhs, rhs)

    monkeypatch.setattr(verifier.CheckReport, "expect_equal", spy)
    for name, check in (("qcom", check_qcom), ("appendix", check_appendix)):
        seen.clear()
        report = check(ss)
        assert report.status == "pass"
        digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
        assert (len(seen), digest) == RELATION_IDS[mn][name]
        assert report.relations_checked == len(seen)


# sha256 of the lines "<id>\t<str(lhs)>\t<str(rhs)>" the appendix suite
# compares, in order; recorded while every induction row still had its own
# hand-written q-power coefficients
APPENDIX_SIDES = {
    ((3, 0), "vector"): "e09e28fcf048e286306ee8d64aac6429953cd0eb32e064dc5334a47da6726a6f",
    ((4, 0), "vector"): "1a807b83d61b2d368baaaedd8d027a48a4855f1ac37e3b7cef6e2f3828b0f9fb",
    ((3, 2), "vector"): "1bf9307ce5c9d9595683324bfb2e806d38a44a0dd83d335813a99481c6be9eff",
    ((4, 2), "vector"): "6922557414e22d9c0397171098c7e643b8bb71840e58c378ea207a65553a7f27",
    ((5, 4), "vector"): "d3b5c1688b4649a1384ad7e55bc99bdcc2c01fb164cd99da107837a3787525a8",
    ((6, 2), "vector"): "8c6a7dab5f6663d05e20d6874249fe7fcd3ed7ee3c65b17fe60639393dfc3402",
    ((4, 6), "vector"): "2e7804ae408441269f21607c12120883f0ec3c3f4ed05a48abfe6ae1f7620830",
    ((7, 4), "vector"): "f59ebe0a2d37f85933bf663a82d4a1bda4b39496e0cde2724a56953ebd2b4d1c",
    ((4, 2), "trivial"): "034064cb3e237994ce43da00fd79b771c26632a79369721f49f0a4328a490bb8",
    ((7, 4), "trivial"): "fb1eaee0431dbf04efd2b73c2b1aeba0e49e717d71741e99fdcd438b996cac1c",
}


@pytest.mark.parametrize("mn, rep", sorted(APPENDIX_SIDES))
def test_appendix_compared_sides_are_pinned(monkeypatch, mn, rep):
    from laxforge import verifier

    alg = build_algebra(*mn)
    module = build_vector_rep(alg) if rep == "vector" else trivial_rep(alg)
    ss = extend_sigma(init_simple_sigma(module))
    seen = []
    compare = verifier.CheckReport.expect_equal

    def spy(self, rel_id, lhs, rhs):
        seen.append("\t".join((rel_id, str(lhs), str(rhs))))
        compare(self, rel_id, lhs, rhs)

    monkeypatch.setattr(verifier.CheckReport, "expect_equal", spy)
    assert check_appendix(ss).status == "pass"
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert digest == APPENDIX_SIDES[(mn, rep)]


def anchor_pair(alg, kind):
    """The simple pair each appendix chain is anchored at, written out from
    the layout: i1, mu1, s and the last even root l."""
    pe, po, bar, l = alg.pos_even, alg.pos_odd, alg.bar, alg.l
    if kind == "i":
        return pe(1), pe(2)
    if kind == "mu":
        return po(1), po(2)
    if kind == "s":
        return po(alg.k), pe(1)
    return (pe(l - 1), bar[pe(l)]) if alg.m == 2 * l else (pe(l), pe(l + 1))


# the appendix witness when the first entry of one chain's anchor sigma is
# negated, recorded before the chains took their anchors from simple_pair
@pytest.mark.parametrize("mn, kind, want", [
    ((5, 4), "i", witness("common: sigma(mu1,i2) via i1", 1, 4, "1", "-1")),
    ((5, 4), "mu", witness("common: sigma(mu1,i1) via mu2", 1, 3, "1", "-1")),
    ((5, 4), "s", witness("common: sigma(mu2,i2) via i1", 2, 4, "1", "-1")),
    ((5, 4), "l", witness("common: sigma(i1,i3) via i2", 3, 5, "1", "-1")),
    ((6, 2), "i", witness("common: sigma(mu1,i2) via i1", 1, 3, "1", "-1")),
    ((6, 2), "s", witness("common: sigma(mu1,i2) via i1", 1, 3, "1", "-1")),
    ((6, 2), "l", witness("common: sigma(i1,i4) via i2", 2, 5, "1", "-1")),
    ((4, 6), "i", witness("common: sigma(mu1,i2) via i1", 1, 5, "1", "-1")),
    ((4, 6), "mu", witness("common: sigma(mu1,mu3) via mu2", 1, 3, "1", "-1")),
    ((4, 6), "s", witness("common: sigma(mu3,i2) via i1", 3, 5, "1", "-1")),
    ((4, 6), "l", witness(
        "common: sigma(i1,bar(i1)) via bar(i2)", 4, 7,
        "-1*s^-2 + 1*s^2", "-1*s^-2 + -1*s^2",
    )),
    ((3, 2), "s", witness("common: sigma(mu1,i2) via i1", 1, 3, "1", "-1")),
    ((3, 2), "l", witness("common: sigma(mu1,i2) via i1", 1, 3, "1", "-1")),
])
def test_appendix_witness_of_a_flipped_anchor_is_pinned(mn, kind, want):
    _, ss = build(*mn)
    report = check_appendix(negate_first_entry(ss, anchor_pair(ss.algebra, kind)))
    assert report.status == "fail"
    assert report.relations_checked == RELATION_IDS[mn]["appendix"][0]
    assert report.witness == want


@pytest.mark.parametrize("label", ["s", "l", "mu1", "i1"])
def test_qcom_loop_scales_each_side_by_the_rule_of_its_simple_pair(label):
    # on the vector representation every q-commutation holds as 0 = 0, so
    # the sign (-1)^(([a]+[b])[alpha]) and the q-powers are seen only with
    # an operator whose products with sigma_ba do not vanish: with X = I the
    # sides are q^((alpha, e_b)) sigma_ba and +-q^(-(alpha, e_a)) sigma_ba
    from laxforge import verifier

    _, ss = build(5, 4)
    alg = ss.algebra
    g, w, alpha = alg.gradings, alg.weights, alg.root(label)
    seen = []

    class Spy(verifier.CheckReport):
        def expect_equal(self, rel_id, lhs, rhs):
            seen.append((rel_id, lhs, rhs))

    verifier._expect_qcom(Spy("spy"), ss, GradedMatrix.identity(g), label, "")
    assert len(seen) > 10
    for rel_id, lhs, rhs in seen:
        b, a = (alg.labels.index(x) for x in rel_id[:-1].split("; ")[1].split(","))
        odd = (g[a] + g[b]) * alg.root_parity(label) % 2
        shift = q_power(-bilinear(alpha, w[a]) - bilinear(alpha, w[b]))
        assert not lhs.is_zero()
        assert rhs == lhs.scale(-shift if odd else shift), rel_id
