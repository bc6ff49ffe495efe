import json
from fractions import Fraction

import pytest

from laxforge.qring import LaurentPoly, PoleError, RatFunc, horner, q_power
from laxforge.superroot import bilinear, build_algebra
from laxforge.gradedmat import (
    GradedMatrix,
    build_vector_rep,
    graded_kron,
    graded_permutation,
    kron_blocks,
    lane_product,
    weight_lanes,
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
    ints_at,
    sigma_hat_diag,
)

from helpers import degrees, elementary


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
                elementary(a, b, g),
                elementary(bar[a], bar[b], g),
            ).scale(coeff)
    e = build_E_tensor(alg)
    assert e.gradings == total.gradings
    assert e == total


# every osp(m|n) with 3 <= m <= 11 and even n <= 10, and osp(13|12): the
# ladder on which V's relations are proved
LADDER = [(m, n) for m in range(3, 12) for n in range(0, 11, 2)] + [(13, 12)]


def test_build_E_tensor_is_kron_blocks():
    # build_E_tensor writes kron_blocks' sign out itself, which is faster;
    # its docstring's sum, block by block through kron_blocks
    for mn in LADDER:
        alg = build_algebra(*mn)
        g, w, xi, bar = alg.gradings, alg.weights, alg.xi, alg.bar
        blocks = {}
        for a in range(alg.dim):
            for b in range(alg.dim):
                sign = (-1) ** (g[a] * g[b]) * xi[a] * xi[b]
                coeff = q_power(bilinear(alg.rho, w[a] - w[b])) * sign
                blocks[(a, b)] = GradedMatrix(g, {(bar[a], bar[b]): coeff})
        assert build_E_tensor(alg) == kron_blocks(g, g, blocks), mn


@pytest.mark.parametrize("mn", LADDER)
def test_braces_factor_equals_constant_r(mn):
    # build_spectral_R does not compare them: the tests prove it here
    alg = build_algebra(*mn)
    sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    assert braces_matrix(alg, sigma) == assemble_R(sigma).matrix


def nonzero_keys(spec):
    """The positions of the nonzero entries of r(z), in sorted order."""
    return sorted(
        tuple(int(x) - 1 for x in key.split(","))
        for key in spec.to_json()["entries"]
    )


def flip_entry(spec, key):
    """spec with the entry at `key` negated, as extra pieces: for each piece
    holding that entry, its weight on -2 times the entry."""
    extra = tuple(
        (weight, GradedMatrix(spec.gradings, {key: mat.entries[key] * -2}))
        for weight, mat in spec.pieces
        if key in mat.entries
    )
    return SpectralRMatrix(
        spec.algebra, spec.kind, spec.gradings, spec.den, spec.pieces + extra
    )


@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_boundary_values_and_degrees(kind):
    alg = build_algebra(3, 2)
    c = Context(3, 2)
    spec = build_spectral_R(c.alg, c.r, kind)
    # three pieces (P, E, r) over one monic denominator, all of z-degree <= 2
    p = graded_permutation(alg.gradings)
    assert [mat for _, mat in spec.pieces] == [p, build_E_tensor(alg), c.r.matrix]
    assert spec.den[-1] == LaurentPoly.one()
    assert all(len(poly) <= 3 for poly in (spec.den, *(w for w, _ in spec.pieces)))
    for doc in spec.to_json()["entries"].values():
        dn, dd = degrees(RatFunc.from_json(doc))
        assert dn <= 2 and dd <= 2
    # numeric spot check of r(1) = P at a generic s
    mat = spec.evaluate(Fraction(3), Fraction(1))
    assert mat == p


def test_r_at_zero_is_qinv_times_constant_r():
    alg = build_algebra(3, 0)
    sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    r = assemble_R(sigma)
    spec = build_spectral_R(alg, r, "untwisted")
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
        build_spectral_R(c.alg, c.r, "affine")


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
    spec = Context(3, 0).spectral("untwisted")
    key = next(k for k in nonzero_keys(spec) if k[0] != k[1])
    bad = flip_entry(spec, key)
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
    values = spec.evaluate(Fraction(5, 3), Fraction(2, 7)).entries
    for some_key, some_val in sorted(doc["entries"].items()):
        restored = RatFunc.from_json(some_val)
        assert restored.to_json() == some_val
        r, c = (int(x) - 1 for x in some_key.split(","))
        assert restored.evaluate(Fraction(5, 3), Fraction(2, 7)) == values[(r, c)]


def test_twisted_spectral_ybe_fails_on_mutated_entry():
    spec = Context(3, 2).spectral("twisted")
    key = next(k for k in nonzero_keys(spec) if k[0] != k[1])
    bad = flip_entry(spec, key)
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
    # the structured values at one s-substitution against each entry's own
    # rational function as written to JSON, also with a flipped entry
    # carried as extra pieces
    s0 = Fraction(5, 3)
    for mn in [(3, 0), (4, 2), (3, 4), (6, 0)]:
        spec = Context(*mn).spectral(kind)
        key = next(k for k in nonzero_keys(spec) if k[0] != k[1])
        for matrix in (spec, flip_entry(spec, key)):
            entries = {
                tuple(int(x) - 1 for x in k.split(",")): RatFunc.from_json(doc)
                for k, doc in matrix.to_json()["entries"].items()
            }
            fixed = SpectralAtS(matrix, s0)
            for z0 in (Fraction(-2, 5), Fraction(3), Fraction(1, 7)):
                want = {k: rf.evaluate(s0, z0) for k, rf in entries.items()}
                want = {k: v for k, v in want.items() if v}
                assert fixed.values(z0) == want
                assert matrix.evaluate(s0, z0).entries == {
                    k: LaurentPoly.const(v) for k, v in want.items()
                }
        flipped = flip_entry(spec, key).to_json()["entries"]
        doc_key = f"{key[0] + 1},{key[1] + 1}"
        assert RatFunc.from_json(flipped[doc_key]) == -RatFunc.from_json(
            spec.to_json()["entries"][doc_key]
        )


def assert_boundary_values(spec):
    """z-degree at most 2, and r(1) = P and r(0) = q^-1 r on the weights of
    the pieces (P, E, r): at z = 1 only P's weight may survive, and it must
    equal den(1); at z = 0 only r's, equal to q^-1 den(0).  The comparisons
    are cross-multiplied: when m - n = 2 the untwisted pole sits at z = 1,
    and there the z = 1 comparison is 0 = 0.  build_spectral_R does not
    check these; test_boundary_values_hold_on_the_ladder proves them."""
    zero = LaurentPoly.zero()
    polys = [spec.den, *(w for w, _ in spec.pieces)]
    assert all(len(poly) <= 3 for poly in polys), "spectral entry exceeds z-degree 2"
    at0 = [poly[0] if poly else zero for poly in polys]
    at1 = [sum(poly, zero) for poly in polys]
    assert at1[1:] == [at1[0], zero, zero], "r(1) != P"
    assert at0[1:] == [zero, zero, q_power(-1) * at0[0]], "r(0) != q^-1 r"


@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_boundary_values_hold_on_the_ladder(kind):
    poles_at_one = 0
    for mn in LADDER:
        c = Context(*mn)
        spec = c.spectral(kind)
        p = graded_permutation(c.alg.gradings)
        assert [mat for _, mat in spec.pieces] == [p, build_E_tensor(c.alg), c.r.matrix], mn
        assert_boundary_values(spec)
        poles_at_one += not sum(spec.den, LaurentPoly.zero())
    # the untwisted pole z = q^(m-n-2) is z = 1 on the rungs with m - n = 2
    assert poles_at_one == (sum(m - n == 2 for m, n in LADDER) if kind == "untwisted" else 0)


@pytest.mark.parametrize("shift", [(1,), (1, -1)])
def test_a_corrupted_constant_coefficient_fails_the_boundary_proof(monkeypatch, shift):
    # (1,) moves a weight's values at z = 0 and z = 1; (1, -1) moves its
    # value at z = 0 only, so the r(0) = q^-1 r comparison alone must catch it
    real = spectral.SpectralRMatrix
    expected = r"^r\(1\) != P" if len(shift) == 1 else r"^r\(0\) != q\^-1 r"
    for corrupt in range(3):

        def corrupted(**fields):
            pieces = list(fields["pieces"])
            weight, mat = pieces[corrupt]
            weight = list(weight) + [LaurentPoly.zero()] * (len(shift) - len(weight))
            for i, c in enumerate(shift):
                weight[i] = weight[i] + c
            pieces[corrupt] = (tuple(weight), mat)
            return real(**{**fields, "pieces": tuple(pieces)})

        monkeypatch.setattr(spectral, "SpectralRMatrix", corrupted)
        with pytest.raises(AssertionError, match=expected):
            assert_boundary_values(Context(3, 2).spectral("untwisted"))


def test_a_sigma_hat_diag_entry_negated_breaks_the_braced_factor(monkeypatch):
    # the braced factor shares R's off-diagonal blocks, so its diagonal
    # blocks are what the comparison with R sees: one sign flipped there
    # must break it
    build = spectral.sigma_hat_diag

    def flipped(alg):
        diag = build(alg)
        a = next(a for a, m in enumerate(diag) if m.entries)
        key = min(diag[a].entries)
        entries = dict(diag[a].entries)
        entries[key] = -entries[key]
        diag[a] = GradedMatrix(diag[a].gradings, entries)
        return diag

    monkeypatch.setattr(spectral, "sigma_hat_diag", flipped)
    c = Context(5, 4)
    assert braces_matrix(c.alg, c.sigma) != c.r.matrix


def test_sampling_reports_pole_exhaustion(monkeypatch):
    # untwisted pole z = q^(m-n-2) = q = 4 at s = 2, drawn every time
    monkeypatch.setattr(
        spectral, "_sample_point", lambda rng: (Fraction(2), Fraction(4), Fraction(1))
    )
    with pytest.raises(SamplingError, match="pole-free samples"):
        check_spectral_ybe(Context(3, 0).spectral("untwisted"), samples=2, seed=0)


ACCEPTANCE = [(3, 0), (4, 0), (5, 0), (6, 0), (3, 2), (4, 2), (5, 2), (3, 4), (5, 4)]


def assert_int_values_scale_values(spec):
    """int_values and values against each piece evaluated term by term, at
    s0 < 0 and at s0 = 1/b."""
    for s0 in (Fraction(-5, 3), Fraction(1, 3), Fraction(-2), Fraction(-35, 4)):
        fixed = SpectralAtS(spec, s0)
        for z0 in (Fraction(-2, 5), Fraction(3), Fraction(-7, 9)):
            den = horner([c.evaluate(s0) for c in spec.den], z0)
            want = {}
            for weight, mat in spec.pieces:
                w = horner([c.evaluate(s0) for c in weight], z0)
                for key, v in mat.entries.items():
                    want[key] = want.get(key, 0) + w * v.evaluate(s0) / den
            want = {key: v for key, v in want.items() if v}
            ints, scale = fixed.int_values(z0)
            assert scale != 0
            assert all(type(v) is int for v in ints.values())
            assert {key: v / scale for key, v in ints.items()} == want
            assert fixed.values(z0) == want


def test_ints_at_are_one_int_constant_times_the_values():
    polys = [LaurentPoly({3: 2, 5: Fraction(-1, 6)}), LaurentPoly({-4: 7}),
             LaurentPoly.zero(), LaurentPoly({0: Fraction(5, 4)})]
    for s0 in (Fraction(-35, 4), Fraction(2, 9), 3, Fraction(-1, 2)):
        ints, c = ints_at(polys, s0)
        assert type(c) is int and c and all(type(x) is int for x in ints)
        assert [Fraction(x, c) for x in ints] == [p.evaluate(s0) for p in polys]
    # the exponent range is widened to hold 0, so that c is an int
    assert ints_at([LaurentPoly({2: 1})], 3) == ([9], 1)
    assert ints_at([LaurentPoly({2: 1})], Fraction(1, 3)) == ([1], 9)
    assert ints_at([LaurentPoly({-2: 1})], 3) == ([1], 9)


@pytest.mark.parametrize("mn", ACCEPTANCE)
@pytest.mark.parametrize("kind", ["untwisted", "twisted"])
def test_int_values_are_values_times_one_constant(mn, kind):
    assert_int_values_scale_values(Context(*mn).spectral(kind))


@pytest.mark.parametrize("mn", [(3, 0), (3, 2)])
def test_int_values_with_odd_lowest_exponent_and_fraction_coefficients(mn):
    # every piece built here has even exponents of s and int coefficients;
    # an extra piece with 2/3 s^-5 on one entry makes the lowest exponent
    # odd, so the sign of a negative s0 and the coefficient lcm both count
    spec = Context(*mn).spectral("untwisted")
    weight, _ = spec.pieces[1]
    extra = GradedMatrix(
        spec.gradings, {nonzero_keys(spec)[0]: LaurentPoly({-5: Fraction(2, 3), 1: 1})}
    )
    pieces = spec.pieces + ((weight, extra),)
    assert_int_values_scale_values(
        SpectralRMatrix(spec.algebra, spec.kind, spec.gradings, spec.den, pieces)
    )


def test_spectral_ybe_runs_no_matrix_product(monkeypatch):
    specs = [Context(3, 2).spectral(kind) for kind in ("untwisted", "twisted")]

    def refuse(self, other):
        raise AssertionError("GradedMatrix @ called")

    monkeypatch.setattr(GradedMatrix, "__matmul__", refuse)
    for spec in specs:
        report = check_spectral_ybe(spec, samples=5, seed=7)
        assert (report.status, report.relations_checked) == ("pass", 5)


def off_weight_spectral():
    """r(z) of osp(3|0) with one extra piece whose entry moves total weight."""
    spec = Context(3, 0).spectral("untwisted")
    d = spec.algebra.dim
    key = (0 * d + 0, 0 * d + 1)  # v_1 (x) v_2 -> v_1 (x) v_1
    assert key not in spec.pieces[0][1].entries
    weight, _ = spec.pieces[2]
    extra = GradedMatrix(spec.gradings, {key: LaurentPoly.one()})
    return SpectralRMatrix(
        spec.algebra, spec.kind, spec.gradings, spec.den, spec.pieces + ((weight, extra),)
    )


def test_spectral_ybe_fails_on_an_entry_off_its_weight_block():
    # an extra entry that moves total weight: lanes cannot compare it, so
    # the sample goes to the products on the unscaled values and fails
    report = check_spectral_ybe(off_weight_spectral(), samples=2, seed=0)
    assert report.status == "fail" and report.witness


def test_spectral_ybe_refuses_lanes_when_a_piece_crosses_weights(monkeypatch):
    # lanes repeat across weights: index 0 has weight 1 and index 1 weight
    # 0, both in lane 0, and a row of `a` reaching both packs to 0, so a
    # factor that moves weight could compare equal to zero
    lanes = weight_lanes([(1,), (0,)], [(0,)], [(0,)])
    assert lanes == [0, 0]
    a = GradedMatrix((0, 1), {(0, 0): 1, (0, 1): -1})
    zero = GradedMatrix.zeros((0, 1))
    assert lane_product([a], lanes, 4) == lane_product([zero], lanes, 4) == {}
    # the suite checks the pieces on V (x) V once and then never packs lanes
    calls = []
    monkeypatch.setattr(spectral, "lane_product", lambda *args: calls.append(args))
    report = check_spectral_ybe(off_weight_spectral(), samples=2, seed=0)
    assert calls == []
    assert report.status == "fail" and report.witness["relation"].startswith(
        "spectral YBE at"
    )
