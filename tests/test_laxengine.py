from fractions import Fraction

import pytest

from laxforge.qring import LaurentPoly, q_power
from laxforge.superroot import Weight, build_algebra, bilinear
from laxforge.gradedmat import GradedMatrix, build_vector_rep, trivial_rep
from laxforge.laxengine import (
    SigmaSet,
    admissible_intermediates,
    assemble_R,
    closed_form_sigma,
    extend_sigma,
    init_simple_sigma,
    opposite_R,
)
from laxforge.verifier import check_opposite


def vector_sigma(m, n):
    rep = build_vector_rep(build_algebra(m, n))
    return extend_sigma(init_simple_sigma(rep))


def poly(text):
    return LaurentPoly.parse(text)


def test_anchor_values_3_0():
    ss = vector_sigma(3, 0)
    # sigma_12 = E^1_2 - q^(-1/2) E^2_3
    assert ss.sigma[(0, 1)].entries == {(0, 1): poly("1"), (1, 2): poly("-1*s^-1")}
    # sigma_13 = (q - 1) E^1_3
    assert ss.sigma[(0, 2)].entries == {(0, 2): poly("-1 + 1*s^2")}


def test_anchor_values_3_2():
    ss = vector_sigma(3, 2)
    # sigma_{mu1,i1} = E^{mu1}_{i1} - q E^{i3}_{mu2}
    assert ss.sigma[(0, 1)].entries == {(0, 1): poly("1"), (3, 4): poly("-1*s^2")}
    # sigma_{mu1,mu2} = (q^-1 + q^-2) E^{mu1}_{mu2}
    assert ss.sigma[(0, 4)].entries == {(0, 4): poly("1*s^-4 + 1*s^-2")}


def test_simple_seeds_cover_table_pattern():
    ss = vector_sigma(4, 2)
    alg = ss.algebra
    simple = {p for p, tag in ss.provenance.items() if tag == "simple"}
    # one seeded pair per simple root plus its barred partner
    assert len(simple) == 2 * len(alg.simple_roots)
    forced = [p for p, tag in ss.provenance.items() if tag == "forced_zero"]
    assert forced == [(alg.pos_even(2), alg.bar[alg.pos_even(2)])]
    assert ss.sigma[forced[0]].is_zero()


def test_forced_zero_absent_for_odd_m():
    ss = vector_sigma(3, 2)
    assert "forced_zero" not in ss.provenance.values()


def test_every_extended_pair_is_filled():
    for (m, n) in [(3, 0), (4, 0), (3, 2), (4, 2)]:
        ss = vector_sigma(m, n)
        assert ss.is_complete()
        assert set(ss.sigma) == set(ss.algebra.extended_pairs())


def test_closed_form_oracle_matches_recursion():
    for (m, n) in [(3, 0), (4, 0), (3, 2)]:
        ss = vector_sigma(m, n)
        cf = closed_form_sigma(ss.algebra)
        assert set(ss.sigma) == set(cf.sigma)
        for pair in ss.sigma:
            assert ss.sigma[pair] == cf.sigma[pair], pair


def test_admissible_intermediates_exclude_barred_endpoints():
    alg = build_algebra(3, 2)
    # pair (mu1, mu2bar = position 4): intermediates are 1,2,3 minus bars 0,4
    assert admissible_intermediates(alg, 0, 4) == [1, 2, 3]
    # pair (i1, i3 = bar of i1): nothing excluded between
    assert admissible_intermediates(alg, 1, 3) == [2]


def test_assembled_r_is_weightless_and_even():
    ss = vector_sigma(3, 2)
    r = assemble_R(ss)
    assert r.dims == (5, 5)
    assert r.matrix.homogeneous_parity() == 0


def test_assemble_r_rejects_entry_that_breaks_weights():
    # one extra entry E^1_1 inside sigma_(b,a), b != a, lands in R at
    # ((a,1),(b,1)); q^(h_w) (x) q^(h_w) no longer commutes with R for the
    # first unit weight that separates e_a from e_b
    ss = vector_sigma(3, 2)
    alg = ss.algebra
    b, a = alg.extended_pairs()[0]
    sigma = dict(ss.sigma)
    sigma[(b, a)] = sigma[(b, a)] + GradedMatrix.elementary(0, 0, alg.gradings)
    bad = SigmaSet(rep=ss.rep, sigma=sigma, provenance=dict(ss.provenance))
    units = [Weight.eps_unit(i, alg.l, alg.k) for i in range(1, alg.l + 1)]
    units += [Weight.delta_unit(mu, alg.l, alg.k) for mu in range(1, alg.k + 1)]
    shift = alg.weights[b] - alg.weights[a]
    first = next(w for w in units if bilinear(w, shift) != 0)
    with pytest.raises(AssertionError, match="not weightless") as info:
        assemble_R(bad)
    assert str(info.value) == f"R is not weightless against weight {first}"


def test_trivial_rep_gives_identity_lax():
    alg = build_algebra(4, 2)
    rep = trivial_rep(alg)
    ss = extend_sigma(init_simple_sigma(rep))
    r = assemble_R(ss)
    assert r.matrix == GradedMatrix.identity(r.matrix.gradings)


def test_r_diagonal_carries_metric_exponents():
    ss = vector_sigma(3, 0)
    alg = ss.algebra
    r = assemble_R(ss)
    d = alg.dim
    for a in range(d):
        for b in range(d):
            expected = q_power(bilinear(alg.weights[a], alg.weights[b]))
            assert r.matrix.entries.get((a * d + b, a * d + b)) == expected


def test_opposite_r_consistency():
    # R^T = R^dagger = P R P, checked by the opposite suite
    for (m, n) in [(3, 0), (3, 2)]:
        ss = vector_sigma(m, n)
        rt = opposite_R(ss)
        assert rt.kind == "opposite"
        assert rt.matrix.homogeneous_parity() == 0
        report = check_opposite(assemble_R(ss), rt)
        assert report.status == "pass" and report.relations_checked == 2


def test_opposite_requires_vector_rep():
    alg = build_algebra(3, 2)
    ss = extend_sigma(init_simple_sigma(trivial_rep(alg)))
    with pytest.raises(ValueError):
        opposite_R(ss)


def test_sigma_specializes_to_classical_limit():
    # at s = 1 every sigma_ba degenerates to the undeformed generator image,
    # so entries evaluate to integers
    ss = vector_sigma(3, 2)
    for mat in ss.sigma.values():
        for v in mat.entries.values():
            assert v.evaluate(Fraction(1)).denominator == 1


def test_sigma_set_serialization_labels():
    ss = vector_sigma(3, 2)
    doc = ss.to_json()
    assert doc["algebra"] == {"m": 3, "n": 2}
    assert doc["rep_name"] == "vector"
    assert "mu1,i1" in doc["entries"]
    entry = doc["entries"]["mu1,i1"]
    assert entry["provenance"] == "simple"
    assert [1, 2, "1"] in entry["matrix"]
