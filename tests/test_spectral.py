import json
from fractions import Fraction

import pytest

from laxforge.qring import LaurentPoly, PoleError, RatFunc, q_power
from laxforge.superroot import bilinear, build_algebra
from laxforge.gradedmat import (
    GradedMatrix,
    build_vector_rep,
    graded_kron,
    graded_permutation,
)
from laxforge.laxengine import assemble_R, extend_sigma, init_simple_sigma
from laxforge import spectral
from laxforge.cli import Context
from laxforge.spectral import (
    SamplingError,
    SpectralAtS,
    SpectralRMatrix,
    braces_matrix,
    build_E_tensor,
    build_spectral_R,
    check_spectral_ybe,
    sigma_hat_diag,
)


def test_sigma_hat_diag_shapes():
    alg = build_algebra(3, 2)
    diag = sigma_hat_diag(alg)
    # even index: q^(1/2) E^a_a - q^(-1/2) E^abar_abar
    even = diag[alg.pos_even(1)]
    assert even.entries == {
        (1, 1): LaurentPoly({1: 1}),
        (3, 3): LaurentPoly({-1: -1}),
    }
    # odd index: norm (delta, delta) = -1 flips the exponents
    odd = diag[alg.pos_odd(1)]
    assert odd.entries == {
        (0, 0): LaurentPoly({-1: 1}),
        (4, 4): LaurentPoly({1: -1}),
    }
    # self-barred zero-weight index cancels
    assert diag[alg.pos_even(2)].is_zero()


def test_E_tensor_coefficients():
    alg = build_algebra(3, 0)
    e = build_E_tensor(alg)
    d = alg.dim
    # a = b = 1: coefficient 1 on E^1_1 (x) E^3_3
    assert e.entries[(0 * d + 2, 0 * d + 2)] == LaurentPoly.one()
    # (a, b) = (1, 3): coefficient q on E^1_3 (x) E^3_1
    assert e.entries[(0 * d + 2, 2 * d + 0)] == q_power(1)

    alg2 = build_algebra(3, 2)
    e2 = build_E_tensor(alg2)
    d2 = alg2.dim
    # a = b = mu1: (-1)^(1*1) xi^2 = -1 on E^{mu1}_{mu1} (x) E^{mu2}_{mu2}
    assert e2.entries[(0 * d2 + 4, 0 * d2 + 4)] == -LaurentPoly.one()


@pytest.mark.parametrize("mn", [(3, 2), (4, 2), (3, 4)])
def test_E_tensor_equals_sum_of_krons(mn):
    # the defining sum, term by term, against the one-dict build
    alg = build_algebra(*mn)
    g, w, xi, bar = alg.gradings, alg.weights, alg.xi, alg.bar
    total = GradedMatrix.zeros(tuple((p + q) % 2 for p in g for q in g))
    for a in range(alg.dim):
        for b in range(alg.dim):
            sign = (-1) ** (g[a] * g[b])
            coeff = q_power(bilinear(alg.rho, w[a] - w[b])) * (sign * xi[a] * xi[b])
            total = total + graded_kron(
                GradedMatrix.elementary(a, b, g),
                GradedMatrix.elementary(bar[a], bar[b], g),
            ).scale(coeff)
    e = build_E_tensor(alg)
    assert e.gradings == total.gradings
    assert e == total


@pytest.mark.parametrize("mn", [(3, 0), (4, 0), (3, 2)])
def test_braces_factor_equals_constant_r(mn):
    alg = build_algebra(*mn)
    sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    assert braces_matrix(alg, sigma) == assemble_R(sigma).matrix


@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_boundary_values_and_degrees(kind):
    alg = build_algebra(3, 2)
    c = Context(3, 2)
    spec = build_spectral_R(c.sigma, c.r, kind)  # asserts braces, r(1)=P, r(0)=q^-1 r
    for rf in spec.entries.values():
        dn, dd = rf.degrees()
        assert dn <= 2 and dd <= 2
    # numeric spot check of r(1) = P at a generic s
    p = graded_permutation(alg.gradings)
    mat = spec.evaluate(Fraction(3), Fraction(1))
    assert mat == p


def test_r_at_zero_is_qinv_times_constant_r():
    alg = build_algebra(3, 0)
    sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    r = assemble_R(sigma)
    spec = build_spectral_R(sigma, r, "untwisted")
    r_const = r.matrix
    s0 = Fraction(2)
    mat = spec.evaluate(s0, Fraction(0))
    qinv = Fraction(1, 4)  # q^-1 at s = 2
    for key, v in r_const.entries.items():
        assert mat.entries.get(key, LaurentPoly.zero()).evaluate(s0) == qinv * v.evaluate(s0)


def test_untwisted_finite_at_s_equal_one():
    # at s = 1 (q = 1) the z = 2 evaluation stays finite
    spec = Context(3, 0).spectral("untwisted")
    mat = spec.evaluate(Fraction(1), Fraction(2))
    assert mat.entries  # evaluation succeeded without a PoleError


def test_unknown_kind_rejected():
    c = Context(3, 0)
    with pytest.raises(ValueError):
        build_spectral_R(c.sigma, c.r, "affine")


@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_spectral_ybe_sampling(kind):
    report = check_spectral_ybe(Context(3, 2).spectral(kind), samples=5, seed=7)
    assert report.status == "pass"
    assert report.relations_checked == 5


def test_spectral_ybe_seed_determinism():
    spec = Context(3, 0).spectral("untwisted")
    a = check_spectral_ybe(spec, samples=3, seed=11)
    b = check_spectral_ybe(spec, samples=3, seed=11)
    assert a.to_json() == b.to_json()


def test_spectral_ybe_fails_on_mutated_entry():
    alg = build_algebra(3, 0)
    spec = Context(3, 0).spectral("untwisted")
    entries = dict(spec.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1])
    entries[key] = entries[key] * RatFunc.const(-1)
    bad = SpectralRMatrix(alg, spec.kind, spec.gradings, entries)
    report = check_spectral_ybe(bad, samples=3, seed=0)
    assert report.status == "fail" and report.witness
    # Values of the unscaled products: scaling the sampled matrices to
    # integers must never leak into the witness.
    assert json.dumps(report.witness, sort_keys=True) == json.dumps({
        "relation": "spectral YBE at s=28, z=-2/5, w=1/4",
        "row": 2,
        "col": 10,
        "lhs": "614655/6146561",
        "rhs": "-774057168581514795/7740611984655325141",
    }, sort_keys=True)


def test_evaluate_raises_at_pole():
    spec = Context(3, 0).spectral("untwisted")
    # untwisted pole at z = q^(m-n-2) = q; s = 2 puts it at z = 4
    with pytest.raises(PoleError):
        spec.evaluate(Fraction(2), Fraction(4))


def test_spectral_json_round_trip():
    spec = Context(3, 0).spectral("twisted")
    doc = spec.to_json()
    assert doc["kind"] == "twisted"
    some_key, some_val = next(iter(sorted(doc["entries"].items())))
    restored = RatFunc.from_json(some_val)
    r, c = (int(x) - 1 for x in some_key.split(","))
    assert restored == spec.entries[(r, c)]


def test_twisted_spectral_ybe_fails_on_mutated_entry():
    alg = build_algebra(3, 2)
    spec = Context(3, 2).spectral("twisted")
    entries = dict(spec.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1])
    entries[key] = entries[key] * RatFunc.const(-1)
    bad = SpectralRMatrix(alg, spec.kind, spec.gradings, entries)
    report = check_spectral_ybe(bad, samples=3, seed=0)
    assert report.status == "fail" and report.relations_checked == 3
    # recorded before sampling moved to integer products over a
    # re-indexed triple embedding
    assert json.dumps(report.witness, sort_keys=True) == json.dumps({
        "relation": "spectral YBE at s=28, z=-2/5, w=1/4",
        "row": 2,
        "col": 26,
        "lhs": "77405773526330670/7740611984655325141",
        "rhs": "-77408418136016430/7740611984655325141",
    }, sort_keys=True)


@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_evaluate_agrees_with_entrywise_ratfunc_values(kind):
    # one s-substitution shared across z values gives each entry's value,
    # also when a mutated entry no longer shares the common denominator
    alg = build_algebra(3, 2)
    spec = Context(3, 2).spectral(kind)
    entries = dict(spec.entries)
    key = next(k for k in sorted(entries) if k[0] != k[1])
    entries[key] = entries[key] / RatFunc((q_power(1), LaurentPoly.one()), (LaurentPoly.one(),))
    for matrix in (spec, SpectralRMatrix(alg, kind, spec.gradings, entries)):
        fixed = SpectralAtS(matrix, Fraction(5, 3))
        for z0 in (Fraction(-2, 5), Fraction(3), Fraction(1, 7)):
            want = {k: rf.evaluate(Fraction(5, 3), z0) for k, rf in matrix.entries.items()}
            assert fixed.values(z0) == {k: v for k, v in want.items() if v}
            assert matrix.evaluate(Fraction(5, 3), z0).entries == {
                k: LaurentPoly.const(v) for k, v in want.items() if v
            }


@pytest.mark.parametrize("shift", [(1,), (1, -1)])
def test_build_rejects_corrupted_constant_coefficient(monkeypatch, shift):
    # (1,) moves num(0) and num(1); (1, -1) moves num(0) only, so the
    # r(0) = q^-1 r comparison alone must catch it
    real = spectral.SpectralRMatrix

    def corrupted(**fields):
        spec = real(**fields)
        key = min(spec.entries)
        rf = spec.entries[key]
        num = list(rf.num) + [LaurentPoly.zero()] * (len(shift) - len(rf.num))
        for i, c in enumerate(shift):
            num[i] = num[i] + c
        spec.entries[key] = RatFunc(num, rf.den)
        return spec

    monkeypatch.setattr(spectral, "SpectralRMatrix", corrupted)
    expected = r"r\(1\) != P" if len(shift) == 1 else r"r\(0\) != q\^-1 r"
    with pytest.raises(AssertionError, match=expected):
        Context(3, 2).spectral("untwisted")


def test_sampling_reports_pole_exhaustion(monkeypatch):
    # untwisted pole z = q^(m-n-2) = q = 4 at s = 2, drawn every time
    monkeypatch.setattr(
        spectral, "_sample_point", lambda rng: (Fraction(2), Fraction(4), Fraction(1))
    )
    with pytest.raises(SamplingError, match="pole-free samples"):
        check_spectral_ybe(Context(3, 0).spectral("untwisted"), samples=2, seed=0)
