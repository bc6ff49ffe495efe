import json
from fractions import Fraction
from operator import add, sub

import pytest

from laxforge.qring import LaurentPoly, q_minus_qinv, q_power
from laxforge.superroot import build_algebra, bilinear
from laxforge.gradedmat import (
    GradedMatrix,
    build_vector_rep,
    graded_kron,
    load_representation,
    tensor_product,
    trivial_rep,
)
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


def test_assembled_r_is_even_on_v_tensor_v():
    ss = vector_sigma(3, 2)
    r = assemble_R(ss)
    assert r.dims == (5, 5)
    assert r.matrix.homogeneous_parity() == 0


def off_weight(ss):
    """The first pair (b, a) of ss, with its entry, where sigma_ba does not
    shift weight by wt_b - wt_a; None when there is none.  extend_sigma
    does not check this: it follows from the seeds and the induction step,
    and the tests below prove it."""
    on_v = [w.eps + w.delta for w in ss.algebra.weights]
    for (b, a), mat in ss.sigma.items():
        bad = ss.rep.off_weight_entry(mat, tuple(map(sub, on_v[b], on_v[a])))
        if bad is not None:
            return (b, a), bad
    return None


def weight_breaking_entries(r, ss):
    """The entries of R on V (x) W whose row and column carry different
    total weights wt_a + wt_b.  q-powers never vanish, so R commutes with
    q^(h_w) (x) q^(h_w) for every weight w exactly when there are none."""
    on_v = [w.eps + w.delta for w in ss.algebra.weights]
    totals = [tuple(map(add, x, y)) for x in on_v for y in ss.rep.weight_coords]
    return [(i, c) for (i, c) in r.matrix.entries if totals[i] != totals[c]]


def test_a_seed_off_weight_fails_the_homogeneity_proof():
    partial = init_simple_sigma(build_vector_rep(build_algebra(3, 2)))
    alg = partial.algebra
    sigma = dict(partial.sigma)
    b, a = next(iter(sigma))
    sigma[(b, a)] = sigma[(b, a)] + GradedMatrix.elementary(0, 0, alg.gradings)
    bad = SigmaSet(rep=partial.rep, sigma=sigma, provenance=dict(partial.provenance))
    assert off_weight(extend_sigma(bad)) == ((b, a), (0, 0))


def test_an_entry_that_breaks_weights_fails_the_weightless_proof():
    # one extra entry E^1_1 inside sigma_(b,a), b != a, lands in R at
    # ((a,1),(b,1)), and nowhere else
    ss = vector_sigma(3, 2)
    alg = ss.algebra
    b, a = alg.extended_pairs()[0]
    sigma = dict(ss.sigma)
    sigma[(b, a)] = sigma[(b, a)] + GradedMatrix.elementary(0, 0, alg.gradings)
    bad = SigmaSet(rep=ss.rep, sigma=sigma, provenance=dict(ss.provenance))
    d = alg.dim
    assert weight_breaking_entries(assemble_R(bad), bad) == [(a * d, b * d)]


# every osp(m|n) with 3 <= m <= 11 and even n <= 10, and osp(13|12): the
# ladder on which V's and the trivial module's relations are proved
LADDER = [(m, n) for m in range(3, 12) for n in range(0, 11, 2)] + [(13, 12)]


@pytest.mark.parametrize("w", ["vector", "trivial"])
def test_sigma_hat_is_homogeneous_and_r_weightless_on_the_ladder(w):
    for mn in LADDER:
        alg = build_algebra(*mn)
        rep = build_vector_rep(alg) if w == "vector" else trivial_rep(alg)
        ss = extend_sigma(init_simple_sigma(rep))
        assert off_weight(ss) is None, mn
        assert not weight_breaking_entries(assemble_R(ss), ss), mn


@pytest.mark.parametrize("mn", [(3, 0), (3, 2), (4, 2)])
def test_sigma_hat_is_homogeneous_and_r_weightless_on_a_file_module(mn):
    alg = build_algebra(*mn)
    v = build_vector_rep(alg)
    rep = load_representation(json.loads(json.dumps(tensor_product(v, v).to_json())), alg)
    ss = extend_sigma(init_simple_sigma(rep))
    assert off_weight(ss) is None
    assert not weight_breaking_entries(assemble_R(ss), ss)


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


def _kron_sum(gv, gw, terms):
    """sum of graded_kron(E^a_b, m) over (a, b, m), as repeated matrix sums."""
    total = GradedMatrix.zeros(tuple((p + q) % 2 for p in gv for q in gw))
    for a, b, m in terms:
        total = total + graded_kron(GradedMatrix.elementary(a, b, gv), m)
    return total


@pytest.mark.parametrize("mn", [(3, 0), (4, 2), (3, 4)])
@pytest.mark.parametrize("w", ["vector", "trivial"])
def test_assemble_r_equals_sum_of_krons(mn, w):
    # R = sum_a E^a_a (x) q^(h_eps_a)
    #     + (q - q^-1) sum (-1)^[b] E^a_b (x) q^(h_eps_a) sigma_ba,
    # term by term with q^(h_eps_a) rebuilt for every term
    alg = build_algebra(*mn)
    rep = build_vector_rep(alg) if w == "vector" else trivial_rep(alg)
    ss = extend_sigma(init_simple_sigma(rep))
    g = alg.gradings
    terms = [(a, a, rep.qh_diag(alg.weights[a], 1)) for a in range(alg.dim)]
    for (b, a) in alg.extended_pairs():
        mat = rep.qh_diag(alg.weights[a], 1) @ ss.sigma[(b, a)]
        terms.append((a, b, mat.scale(q_minus_qinv() * (-1) ** g[b])))
    r = assemble_R(ss)
    assert r.matrix == _kron_sum(g, rep.gradings, terms)
    assert r.matrix.gradings == _kron_sum(g, rep.gradings, []).gradings


@pytest.mark.parametrize("mn", [(3, 0), (4, 2), (3, 4)])
def test_opposite_r_equals_sum_of_krons(mn):
    # R^T = sum q^(eps_a,eps_b) E^a_a (x) E^b_b
    #       + (q - q^-1) sum (-1)^[a] E^b_a (x) sigma~_ab
    alg = build_algebra(*mn)
    g, w, xi, bar = alg.gradings, alg.weights, alg.xi, alg.bar
    terms = []
    for a in range(alg.dim):
        for b in range(alg.dim):
            eb = GradedMatrix.elementary(b, b, g).scale(q_power(bilinear(w[a], w[b])))
            terms.append((a, a, eb))
    for (b, a) in alg.extended_pairs():
        sign = (-1) ** (g[a] * (g[a] + g[b]))
        coeff = q_power(bilinear(alg.rho, w[a] - w[b])) * (-sign * xi[a] * xi[b])
        tilde = GradedMatrix.elementary(a, b, g) + GradedMatrix(
            g, {(bar[b], bar[a]): coeff}
        )
        terms.append((b, a, tilde.scale(q_minus_qinv() * (-1) ** g[a])))
    assert opposite_R(vector_sigma(*mn)).matrix == _kron_sum(g, g, terms)


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


@pytest.mark.parametrize("text", [
    "1", "-3*s^-1", "1 + 1*s^4", "1/2 + -1/2*s^4", "2/3*s^-2 + 1 + 1/3*s^2 + 5*s^6",
])
@pytest.mark.parametrize("k", [-3, 0, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_times_qq_is_the_shifted_product_with_q_minus_qinv(text, k, sign):
    # exponents four apart meet in the product, and may cancel
    from laxforge.qring import _times_qq

    v = poly(text)
    want = v.shift(k, sign) * q_minus_qinv()
    got = _times_qq(v, k, sign)
    assert got == want and got.terms == want.terms
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


@pytest.mark.parametrize("mn", [(3, 0), (4, 2), (5, 4), (6, 2)])
def test_blocks_are_the_scaled_shifted_sigmas(mn):
    alg = build_algebra(*mn)
    for rep in (build_vector_rep(alg), trivial_rep(alg)):
        ss = extend_sigma(init_simple_sigma(rep))
        g, qq = alg.gradings, q_minus_qinv()
        want = {(a, a): qh for a, qh in enumerate(rep.qh_eps)}
        for (b, a) in alg.extended_pairs():
            if not ss.sigma[(b, a)].is_zero():
                diag = GradedMatrix.diagonal(rep.gradings, map(LaurentPoly.s_power, rep.pair2[a]))
                scaled = diag @ ss.sigma[(b, a)]
                want[(a, b)] = scaled.scale(-qq if g[b] % 2 else qq)
        assert ss.blocks == want
