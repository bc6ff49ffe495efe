import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
from hypothesis import given, strategies as st

from laxforge.qring import LaurentPoly, q_int
from laxforge.superroot import build_algebra
from laxforge.laxengine import assemble_R, extend_sigma, init_simple_sigma
from laxforge.gradedmat import (
    GradedMatrix,
    PackStats,
    RelationError,
    Representation,
    SchemaError,
    build_vector_rep,
    check_representation,
    embed_triple,
    flip_conjugate,
    graded_dagger,
    graded_kron,
    graded_permutation,
    kron_blocks,
    kron_gradings,
    lane_product,
    load_representation,
    pack,
    pack_stats,
    packing_bits,
    tensor_dagger,
    trivial_rep,
    weight_lanes,
)

G2 = (0, 1)  # one even, one odd position


def E(a, b, g=G2):
    return GradedMatrix.elementary(a, b, g)


def test_kron_koszul_mixed_product_law():
    # (x (x) y)(u (x) v) = (-1)^([y][u]) xu (x) yv on homogeneous factors
    for x in [E(0, 0), E(0, 1), E(1, 0), E(1, 1)]:
        for y in [E(0, 0), E(0, 1), E(1, 0), E(1, 1)]:
            for u in [E(0, 0), E(0, 1), E(1, 0), E(1, 1)]:
                for v in [E(0, 0), E(0, 1), E(1, 0), E(1, 1)]:
                    py = sum(G2[i] for rc in y.entries for i in rc) % 2
                    pu = sum(G2[i] for rc in u.entries for i in rc) % 2
                    sign = -1 if py * pu else 1
                    lhs = graded_kron(x, y) @ graded_kron(u, v)
                    rhs = graded_kron(x @ u, y @ v).scale(sign)
                    assert lhs == rhs


def test_graded_permutation_squares_to_identity():
    for g in [(0, 0), (0, 1), (1, 1, 0), (1, 0, 0, 1)]:
        p = graded_permutation(g)
        assert p @ p == GradedMatrix.identity(p.gradings)


def test_permutation_conjugates_kron():
    # P (x (x) y) P = (-1)^(([x])([y])) y (x) x on homogeneous x, y
    p = graded_permutation(G2)
    for x in [E(0, 1), E(1, 0), E(0, 0)]:
        for y in [E(0, 1), E(1, 0), E(1, 1)]:
            px = sum(G2[i] for rc in x.entries for i in rc) % 2
            py = sum(G2[i] for rc in y.entries for i in rc) % 2
            sign = -1 if px * py else 1
            assert p @ graded_kron(x, y) @ p == graded_kron(y, x).scale(sign)


def test_graded_dagger_rule():
    # (E^a_b)^dag = (-1)^([a]([a]+[b])) E^b_a
    assert graded_dagger(E(0, 0)) == E(0, 0)
    assert graded_dagger(E(0, 1)) == E(1, 0)  # [a]=0
    assert graded_dagger(E(1, 0)) == -E(0, 1)  # [a]=1, [a]+[b]=1
    assert graded_dagger(E(1, 1)) == E(1, 1)


def test_dagger_is_an_antihomomorphism():
    mats = [E(0, 1), E(1, 0), E(0, 0) + E(1, 1).scale(3)]
    for x in mats:
        for y in mats:
            px, py = x.homogeneous_parity(), y.homogeneous_parity()
            if px is None or py is None:
                continue
            sign = -1 if px * py else 1
            assert graded_dagger(x @ y) == (graded_dagger(y) @ graded_dagger(x)).scale(sign)


def test_tensor_dagger_is_factorwise():
    # (u (x) v)^dag = u^dag (x) v^dag, including on mixed-parity sums
    singles = [E(0, 1), E(1, 0), E(0, 0), E(1, 1)]
    for u in singles:
        for v in singles:
            lhs = tensor_dagger(graded_kron(u, v), G2, G2)
            rhs = graded_kron(graded_dagger(u), graded_dagger(v))
            assert lhs == rhs
    mixed = graded_kron(E(0, 1), E(1, 1)) + graded_kron(E(1, 0), E(0, 1))
    expected = graded_kron(graded_dagger(E(0, 1)), graded_dagger(E(1, 1))) + graded_kron(
        graded_dagger(E(1, 0)), graded_dagger(E(0, 1))
    )
    assert tensor_dagger(mixed, G2, G2) == expected
    # factors of the right dimension whose gradings do not give the matrix's
    with pytest.raises(ValueError):
        tensor_dagger(mixed, G2, (1, 0))


def test_bracket_is_graded_commutator():
    x, y = E(0, 1), E(1, 0)
    assert x.bracket(y, 1, 1) == x @ y + y @ x
    assert x.bracket(y, 0, 1) == x @ y - y @ x


# every osp(m|n) with 3 <= m <= 11 and even n <= 10, and osp(13|12)
LADDER = [(m, n) for m in range(3, 12) for n in range(0, 11, 2)] + [(13, 12)]


def test_vector_rep_passes_defining_relations():
    for (m, n) in LADDER:
        rep = build_vector_rep(build_algebra(m, n))
        check_representation(rep)  # raises on failure
        assert rep.dim == m + n


def test_trivial_rep_passes_defining_relations():
    # build_vector_rep and trivial_rep do not check their relations in a
    # job; these two tests are where they are proved
    for (m, n) in LADDER:
        rep = trivial_rep(build_algebra(m, n))
        check_representation(rep)
        assert rep.dim == 1


def test_vector_rep_raising_operators_raise_weight():
    alg = build_algebra(3, 2)
    rep = build_vector_rep(alg)
    for lab in alg.root_labels():
        alpha = alg.root(lab)
        for (r, c) in rep.e[lab].entries:
            assert rep.weights[r] - rep.weights[c] == alpha


def test_qh_diag_conjugation_scales_weight_vectors():
    alg = build_algebra(3, 2)
    rep = build_vector_rep(alg)
    alpha = alg.root("l")
    qh = rep.qh_diag(alpha, 1)
    qh_inv = rep.qh_diag(alpha, -1)
    assert qh @ qh_inv == GradedMatrix.identity(rep.gradings)


def test_trivial_rep_is_one_dimensional_and_silent():
    rep = trivial_rep(build_algebra(4, 2))
    assert rep.dim == 1
    assert all(mat.is_zero() for mat in rep.e.values())
    assert all(mat.is_zero() for mat in rep.f.values())


def test_load_representation_round_trip():
    alg = build_algebra(3, 2)
    rep = build_vector_rep(alg)
    doc = json.loads(json.dumps(rep.to_json()))
    loaded = load_representation(doc, alg)
    assert loaded.e == rep.e
    assert loaded.f == rep.f
    assert loaded.weights == rep.weights


def test_load_representation_rejects_sign_flip():
    alg = build_algebra(3, 2)
    doc = build_vector_rep(alg).to_json()
    label = next(iter(doc["e"]))
    row, col, text = doc["e"][label][0]
    flipped = str(-LaurentPoly.parse(text))
    doc["e"][label][0] = [row, col, flipped]
    with pytest.raises(RelationError):
        load_representation(doc, alg)


@pytest.mark.parametrize("kind, sign", [("e", "+"), ("f", "-")])
def test_load_representation_rejects_entry_off_weight(kind, sign):
    # a diagonal entry shifts no weight, so it breaks [h, e] and [h, f]
    alg = build_algebra(3, 2)
    doc = build_vector_rep(alg).to_json()
    label = sorted(doc[kind])[1]
    doc[kind][label].append([1, 1, "1"])
    with pytest.raises(RelationError) as info:
        load_representation(doc, alg)
    assert str(info.value) == (
        f"[h, {kind}_{label}] relation: entry (1,1) does not shift weight "
        f"by {sign}alpha_{label}"
    )


def test_load_representation_rejects_malformed_document():
    with pytest.raises(SchemaError):
        load_representation({"algebra": {"m": 3, "n": 2}}, build_algebra(3, 2))


def test_load_representation_rejects_wrong_algebra():
    doc = build_vector_rep(build_algebra(3, 2)).to_json()
    with pytest.raises(SchemaError):
        load_representation(doc, build_algebra(4, 0))


def _lax(rep):
    return assemble_R(extend_sigma(init_simple_sigma(rep))).matrix


@pytest.mark.parametrize("mn", [(3, 2), (4, 2), (3, 4)])
@pytest.mark.parametrize("w_name", ["trivial", "vector"])
def test_embed_triple_matches_permutation_conjugation(mn, w_name):
    # V (x) V (x) W: R on V (x) V in slots 12, the Lax matrix on V (x) W in
    # slots 13 and 23
    alg = build_algebra(*mn)
    v_rep = build_vector_rep(alg)
    w_rep = v_rep if w_name == "vector" else trivial_rep(alg)
    gv, gw = v_rep.gradings, w_rep.gradings
    rv, rw = _lax(v_rep), _lax(w_rep)
    iv, iw = GradedMatrix.identity(gv), GradedMatrix.identity(gw)
    p12 = graded_kron(graded_permutation(gv), iw)
    assert embed_triple(rv, "12", gv, gv, gw) == graded_kron(rv, iw)
    assert embed_triple(rw, "23", gv, gv, gw) == graded_kron(iv, rw)
    assert embed_triple(rw, "13", gv, gv, gw) == p12 @ graded_kron(iv, rw) @ p12
    if w_name == "vector":
        # the slot-13 form used by the coproduct check, P23 (R (x) I) P23
        p23 = graded_kron(iv, graded_permutation(gv))
        assert embed_triple(rv, "13", gv, gv, gv) == p23 @ graded_kron(rv, iv) @ p23


def test_embed_triple_signs_on_odd_operators():
    # odd and mixed-parity matrices, where the slot-13 sign depends on the
    # parity of the factor acting on slot 3
    g3 = (1, 0, 1)
    singles = [E(a, b) for a in range(2) for b in range(2)]
    ident2, ident3 = GradedMatrix.identity(G2), GradedMatrix.identity(g3)
    p12 = graded_kron(graded_permutation(G2), ident3)
    for x in singles:
        for y in [E(a, b, g3) for a in range(3) for b in range(3)]:
            m = graded_kron(x, y) + graded_kron(E(1, 0), E(2, 2, g3))
            assert embed_triple(m, "13", G2, G2, g3) == (
                p12 @ graded_kron(ident2, m) @ p12
            )
            assert embed_triple(m, "23", G2, G2, g3) == graded_kron(ident2, m)


def test_embed_triple_rejects_wrong_space():
    m = graded_kron(E(0, 1), E(1, 0))
    with pytest.raises(ValueError):
        embed_triple(m, "13", G2, G2, (0, 0, 1))


def test_matrix_algebra_on_scalar_entries():
    # evaluated matrices hold plain ints and Fractions
    x = GradedMatrix(G2, {(0, 1): 3, (1, 1): Fraction(1, 2)})
    y = GradedMatrix(G2, {(1, 0): 2, (1, 1): -Fraction(1, 2)})
    assert (x + y).entries == {(0, 1): 3, (1, 0): 2}
    assert (x @ y).entries == {(0, 0): 6, (0, 1): Fraction(-3, 2), (1, 0): 1,
                               (1, 1): Fraction(-1, 4)}
    assert graded_kron(x, y).entries[(1, 2)] == -6
    assert x == GradedMatrix(G2, {(0, 1): LaurentPoly.const(3),
                                  (1, 1): LaurentPoly.const(Fraction(1, 2))})
    with pytest.raises(TypeError):  # __eq__ without __hash__
        hash(x)


# entries of each exact type on a grading with odd positions, so that the
# Koszul signs of kron_blocks are exercised
G4 = (0, 1, 1, 0)
TYPED_ENTRIES = {
    int: {(0, 1): 3, (2, 1): -2, (3, 3): 5, (1, 2): 1},
    Fraction: {(0, 1): Fraction(3, 2), (2, 1): Fraction(-2, 5), (3, 3): Fraction(5, 7)},
    LaurentPoly: {(0, 1): LaurentPoly({-1: 2, 3: -1}), (2, 1): LaurentPoly.const(4),
                  (3, 3): LaurentPoly.s_power(2, -3)},
}


@pytest.mark.parametrize("kind", list(TYPED_ENTRIES))
@pytest.mark.parametrize("c", [-3, 1, Fraction(2, 3)])
def test_scale_keeps_the_entry_type(kind, c):
    m = GradedMatrix(G4, TYPED_ENTRIES[kind])
    scaled = m.scale(c)
    want = Fraction if kind is int and type(c) is Fraction else kind
    assert all(type(v) is want for v in scaled.entries.values())
    # the same values as scaling the Laurent-polynomial form of m
    as_poly = GradedMatrix(G4, {k: v * LaurentPoly.one() for k, v in m.entries.items()})
    assert scaled == as_poly.scale(LaurentPoly.const(c))
    assert m.scale(0).is_zero()


@pytest.mark.parametrize("kind", list(TYPED_ENTRIES))
def test_kron_blocks_keeps_the_entry_type(kind):
    m = GradedMatrix(G4, TYPED_ENTRIES[kind])
    gv = (1, 0, 1)
    blocks = {(0, 0): m, (0, 2): m.scale(-1), (1, 0): m, (2, 1): m, (2, 2): m.scale(2)}
    out = kron_blocks(gv, G4, blocks)
    assert all(type(v) is kind for v in out.entries.values())
    reference = GradedMatrix.zeros(out.gradings)
    for (a, b), block in blocks.items():
        reference = reference + graded_kron(GradedMatrix.elementary(a, b, gv), block)
    assert out == reference
    # the odd first-slot columns 0 and 2 flip the odd entries of their block
    assert out.entries[(1 * 4 + 0, 0 * 4 + 1)] == -m.entries[(0, 1)]
    assert out.entries[(2 * 4 + 3, 1 * 4 + 3)] == m.entries[(3, 3)]


# kron_blocks is the home of the tensor-product Koszul sign.  graded_kron,
# graded_permutation and spectral.build_E_tensor write it out themselves,
# which is faster, so each is pinned to its kron_blocks form.


@pytest.mark.parametrize("seed", range(10))
def test_graded_kron_is_kron_blocks(seed):
    # graded_kron(a, b) = sum over the entries v = a[k] of E_k (x) v b
    def home(a, b):
        return kron_blocks(a.gradings, b.gradings, {k: b.scale(v) for k, v in a.entries.items()})

    rng = random.Random(seed)
    a = random_laurent_matrix(rng, (1, 0, 1), nnz=5)
    b = random_laurent_matrix(rng, G4, nnz=8)
    assert graded_kron(a, b) == home(a, b)
    # packed int matrices: twice a and b have int coefficients (their
    # denominators are 1 or 2)
    pa, pb = (pack(m, 6, pack_stats(m).lo) for m in (a.scale(2), b.scale(2)))
    assert {type(v) for m in (pa, pb) for v in m.entries.values()} == {int}
    assert graded_kron(pa, pb) == home(pa, pb)


def test_graded_permutation_is_kron_blocks():
    # P = sum_{a,b} (-1)^[a] E^b_a (x) E^a_b
    for mn in LADDER:
        g = build_algebra(*mn).gradings
        blocks = {
            (b, a): E(a, b, g).scale(-1 if g[a] else 1)
            for a in range(len(g)) for b in range(len(g))
        }
        assert graded_permutation(g) == kron_blocks(g, g, blocks), mn


# -- Kronecker packing ----------------------------------------------------------

G3 = (0, 1, 0)
int_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(LaurentPoly)
matrices = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
    int_polys,
    max_size=5,
).map(lambda entries: GradedMatrix(G3, entries))
products = st.lists(matrices, min_size=1, max_size=3)


def packed_products_equal(lhs, rhs):
    """Whether the products of two factor lists agree with s = 2^B, B from
    packing_bits; each side is scaled to the lower of the two sides' s^lo."""
    stats = [[pack_stats(m) for m in side] for side in (lhs, rhs)]
    bits = packing_bits(*stats)
    shifts = [sum(f.lo for f in side) for side in stats]
    packed = []
    for side, st_side, shift in zip((lhs, rhs), stats, shifts):
        prod = reduce(matmul, (pack(m, bits, f.lo) for m, f in zip(side, st_side)))
        up = bits * (shift - min(shifts))
        packed.append({key: v << up for key, v in prod.entries.items()})
    return packed[0] == packed[1]


@given(products, products, st.sampled_from(("independent", "regrouped", "perturbed")),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-1, max_value=1))
def test_packed_products_agree_with_laurent_products(lhs, other, how, k, c):
    # the right side is drawn on its own, or equals the left product with
    # factors rescaled by s^k and s^-k, or differs from the left factors by
    # c s^k in one entry
    if how == "independent":
        rhs = other
    elif how == "regrouped":
        rhs = [m.scale(LaurentPoly.s_power(k)) for m in lhs[:1]] + lhs[1:]
        rhs[-1] = rhs[-1].scale(LaurentPoly.s_power(-k))
    else:
        rhs = [lhs[0] + GradedMatrix(G3, {(1, 2): LaurentPoly.s_power(k, c)}), *lhs[1:]]
    symbolic = reduce(matmul, lhs) == reduce(matmul, rhs)
    assert packed_products_equal(lhs, rhs) == symbolic


def test_packing_bits_separate_a_collision_one_bit_lower():
    # (a b)[0, 0] = 4 + 4 = 8 reaches its bound 1 * 4 * (two terms in a row
    # of a), and y = s; the sides are different Laurent polynomials that
    # agree at s = 8, so B must exceed 3 bits
    g = (0, 0)
    a = GradedMatrix(g, {(0, 0): LaurentPoly.one(), (0, 1): LaurentPoly.one()})
    b = GradedMatrix(g, {(0, 0): LaurentPoly.const(4), (1, 0): LaurentPoly.const(4)})
    y = GradedMatrix(g, {(0, 0): LaurentPoly.s_power(1)})
    bits = packing_bits([pack_stats(a), pack_stats(b)], [pack_stats(y)])

    def sides(n):
        # y is packed at lo = 0, below its lowest exponent 1, to match a b
        return pack(a, n, 0) @ pack(b, n, 0), pack(y, n, 0)

    assert a @ b != y
    lhs, rhs = sides(bits)
    assert lhs != rhs
    lhs, rhs = sides(bits - 1)
    assert lhs == rhs


def test_pack_stats_refuses_fraction_coefficients():
    half = GradedMatrix(G2, {(0, 1): LaurentPoly({2: Fraction(1, 2)})})
    assert pack_stats(half) is None
    m = GradedMatrix(G2, {(0, 1): LaurentPoly({-2: 3, 1: -1}), (0, 0): LaurentPoly.one()})
    stats = pack_stats(m)
    assert (stats.lo, stats.norm, stats.row) == (-2, 4, 2)
    assert pack(m, 4, stats.lo).entries == {(0, 1): 3 - (1 << 12), (0, 0): 1 << 8}


# -- weight lanes ---------------------------------------------------------------


def weight_preserving(rng, ca, cb, ga, gb):
    """A random int matrix on U_a (x) U_b that keeps total weight, from the
    weight coordinates and gradings of both factors."""
    totals = [tuple(map(sum, zip(x, y))) for x in ca for y in cb]
    entries = {
        (r, c): rng.randint(-5, 5)
        for r in range(len(totals))
        for c in range(len(totals))
        if totals[r] == totals[c] and rng.random() < 0.6
    }
    return GradedMatrix(tuple((p + q) % 2 for p in ga for q in gb), entries)


def lane_rows(m, lanes, bits):
    """The rows of m packed as lane_product packs them, entry by entry."""
    rows = {}
    for (r, c), v in m.entries.items():
        rows[r] = rows.get(r, 0) + (v << bits * lanes[c])
    return {r: x for r, x in rows.items() if x}


@pytest.mark.parametrize("seed", range(6))
def test_lane_product_equals_the_rows_of_the_product(seed):
    # V (x) V (x) W with V the vector module of osp(3|2) (two odd indices)
    # and W two-dimensional with an odd index; factors keep total weight
    rng = random.Random(seed)
    alg = build_algebra(3, 2)
    cv = [w.eps + w.delta for w in alg.weights]
    cw = [cv[0], cv[2]]
    gv, gw = alg.gradings, (1, 0)
    a = embed_triple(weight_preserving(rng, cv, cv, gv, gv), "12", gv, gv, gw)
    b = embed_triple(weight_preserving(rng, cv, cw, gv, gw), "13", gv, gv, gw)
    c = embed_triple(weight_preserving(rng, cv, cw, gv, gw), "23", gv, gv, gw)
    lanes = weight_lanes(cv, cv, cw)
    totals = [tuple(map(sum, zip(x, y, z))) for x in cv for y in cv for z in cw]
    assert len(lanes) == a.dim
    for total in set(totals):
        assert sorted(l for t, l in zip(totals, lanes) if t == total) == list(
            range(totals.count(total))
        )
    stats = [pack_stats(m) for m in (a, b, c)]
    assert all(st.lo == 0 for st in stats)
    bits = packing_bits(stats, stats[::-1])
    assert lane_product([a, b, c], lanes, bits) == lane_rows(a @ b @ c, lanes, bits)
    assert lane_product([c], lanes, bits) == lane_rows(c, lanes, bits)
    left, right = (lane_product(side, lanes, bits) for side in ([a, b, c], [c, b, a]))
    assert (left == right) == (a @ b @ c == c @ b @ a)


def test_pack_stats_of_int_matrices():
    m = GradedMatrix(G3, {(0, 1): -7, (0, 2): 3, (2, 2): 5})
    want = PackStats(lo=0, norm=7, row=2)
    assert pack_stats(m) == pack_stats(m.scale(LaurentPoly.one())) == want
    assert pack_stats(GradedMatrix(G3, {(0, 1): Fraction(1, 2)})) is None


def test_lane_width_below_packing_bits_collides():
    # one block of three lanes.  Row 0 is 2^w in lane 0 on the left and 1 in
    # lane 1 on the right: equal at lane width w.  Row 1 holds 2^(P-2) on
    # both sides, which raises packing_bits to P.  So for every P and every
    # width w below it there are sides that only packing_bits tells apart.
    lanes = weight_lanes([(0,)] * 3, [(0,)], [(0,)])
    g = (0, 1, 0)
    for top in range(2, 14):
        for w in range(1, top):
            extra = {(1, 0): 1 << top - 2} if top > w + 1 else {}
            lhs = GradedMatrix(g, {(0, 0): 1 << w, **extra})
            rhs = GradedMatrix(g, {(0, 1): 1, **extra})
            assert packing_bits([pack_stats(lhs)], [pack_stats(rhs)]) == top
            assert lane_product([lhs], lanes, w) == lane_product([rhs], lanes, w)
            assert lane_product([lhs], lanes, top) != lane_product([rhs], lanes, top)


# recorded before the entry lists were written by one function and the
# generators built from simple_pair
@pytest.mark.parametrize("mn, digest", [
    ((5, 4), "18a209f3b1af84c79a22a97085c4fa57aa6f01014f3f02e4ae2d62c34f346671"),
    ((4, 6), "97feecc581fcffcfd62f81bc03855e413a3d69e4066de210838cd29a690499ba"),
])
def test_vector_rep_json_bytes_are_pinned(mn, digest):
    from laxforge.cli import _canonical_bytes

    doc = build_vector_rep(build_algebra(*mn)).to_json()
    assert hashlib.sha256(_canonical_bytes(doc)).hexdigest() == digest


def spinor_doc():
    """A two-dimensional module of osp(4|0) with half-integer weights
    +-(1/2, 1/2): alpha_i1 = eps1 - eps2 acts by zero, alpha_l = eps1 + eps2
    by e_l = E^1_2 and f_l = E^2_1, so [e_l, f_l] = diag([1]_q, [-1]_q)."""
    half = ["1/2", "1/2"]
    return {
        "algebra": {"m": 4, "n": 0},
        "name": "spinor",
        "dim": 2,
        "gradings": [0, 0],
        "weights": [{"eps": half, "delta": []},
                    {"eps": ["-1/2", "-1/2"], "delta": []}],
        "e": {"i1": [], "l": [[1, 2, "1"]]},
        "f": {"i1": [], "l": [[2, 1, "1"]]},
    }


def test_qh_diag_on_fraction_weights_refuses_a_non_half_integer_pairing(tmp_path):
    from laxforge.cli import main
    from laxforge.superroot import Weight

    path = tmp_path / "spinor.json"
    path.write_text(json.dumps(spinor_doc()))
    rep = load_representation(json.loads(path.read_text()), build_algebra(4, 0))
    half = Fraction(1, 2)
    assert rep.weights[0] == Weight((half, half), ())
    # (eps_1, wt) = +-1/2 is a half-integer: q^(h_eps_1) = diag(s, s^-1)
    eps1 = Weight((1, 0), ())
    assert rep.qh_diag(eps1, 1).entries == {
        (0, 0): LaurentPoly({1: 1}), (1, 1): LaurentPoly({-1: 1})
    }
    assert rep.pair2[0] == [1, -1]
    # (eps_1 / 2, wt) = +-1/4 is not
    with pytest.raises(ValueError, match=r"q\^t needs a half-integer t, got 1/4"):
        rep.qh_diag(Weight((half, 0), ()), 1)
    # the construction and the Lax Yang-Baxter equation hold on it
    assert main(["verify", "--m", "4", "--n", "0", "--rep", str(path),
                 "--suite", "lax-ybe", "--suite", "qcom"]) == 0


def random_laurent_matrix(rng, g=G4, nnz=6):
    """Entries with a few terms each, Fraction coefficients among them, on
    a narrow exponent range so that products collide and cancel."""
    d = len(g)
    entries = {}
    for _ in range(nnz):
        terms = {rng.randint(-2, 2): Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                 for _ in range(rng.randint(1, 3))}
        entries[(rng.randrange(d), rng.randrange(d))] = LaurentPoly(terms)
    return GradedMatrix(g, entries)


@pytest.mark.parametrize("seed", range(20))
def test_commutator_and_shifted_equal_their_products(seed):
    rng = random.Random(seed)
    x, y = random_laurent_matrix(rng), random_laurent_matrix(rng)
    sign, k1, k2 = rng.choice((1, -1)), rng.randint(-3, 3), rng.randint(-3, 3)
    expected = (x @ y).scale(LaurentPoly.s_power(k1)) - (y @ x).scale(
        LaurentPoly.s_power(k2, sign)
    )
    got = x.commutator(y, sign, k1, k2)
    assert got == expected
    for v in got.entries.values():
        assert v and all(type(c) is int or c.denominator != 1 for c in v.terms.values())
    assert x.shifted(k1, sign) == x.scale(LaurentPoly.s_power(k1, sign))


def test_pack_stats_reads_every_entry_of_a_laurent_matrix():
    # the lowest exponent and the largest norm may sit in any entry, and a
    # Fraction coefficient or an int entry anywhere refuses packing
    entries = {(0, 0): LaurentPoly({3: 1}), (1, 2): LaurentPoly({-1: 2, 4: -5}),
               (2, 0): LaurentPoly({-4: 1}), (2, 1): LaurentPoly({0: -3})}
    assert pack_stats(GradedMatrix(G3, entries)) == PackStats(lo=-4, norm=7, row=2)
    for bad in (LaurentPoly({1: 1, 2: Fraction(1, 3)}), 4):
        assert pack_stats(GradedMatrix(G3, {**entries, (1, 1): bad})) is None


def first_bracket_failure(rep):
    """The first [e_a, f_b] relation that fails, in check_representation's
    order, with every bracket formed; None when all hold."""
    alg = rep.algebra
    for a in alg.root_labels():
        for b in alg.root_labels():
            lhs = rep.e[a].bracket(rep.f[b], alg.root_parity(a), alg.root_parity(b))
            rhs = GradedMatrix.zeros(rep.gradings)
            if a == b:
                diag = [q_int(int(x)) for x in rep.pairings(alg.root(a))]
                rhs = GradedMatrix.diagonal(rep.gradings, diag)
            if lhs != rhs:
                return f"[e_{a}, f_{b}] relation fails"
    return None


def direct_sum_with_itself(rep):
    """V (+) V, each generator acting on both copies."""
    d = rep.dim

    def twice(m):
        moved = {(r + d, c + d): v for (r, c), v in m.entries.items()}
        return GradedMatrix(rep.gradings * 2, {**m.entries, **moved})

    return dataclasses.replace(
        rep, gradings=rep.gradings * 2, weights=rep.weights * 2,
        e={lab: twice(m) for lab, m in rep.e.items()},
        f={lab: twice(m) for lab, m in rep.f.items()},
    )


@pytest.mark.parametrize("mn", [(3, 2), (5, 2), (4, 4), (6, 0)])
def test_check_representation_skips_only_brackets_that_are_zero(mn):
    # on V and on V (+) V with one entry doubled, or with one entry copied
    # from the first copy into the second (which keeps weights but lets
    # e_a f_b be nonzero while f_b e_a is not), check_representation names
    # the first failing bracket that forming every bracket names
    rep = build_vector_rep(build_algebra(*mn))
    vv = direct_sum_with_itself(rep)
    check_representation(vv)
    corrupted = []
    for kind in ("e", "f"):
        for lab, m in getattr(rep, kind).items():
            for (r, c), v in m.entries.items():
                for base, key, val in ((rep, (r, c), 2 * v), (vv, (r + rep.dim, c), v)):
                    mats = getattr(base, kind)
                    bad = GradedMatrix(base.gradings, {**mats[lab].entries, key: val})
                    corrupted.append(dataclasses.replace(base, **{kind: {**mats, lab: bad}}))
    for bad in corrupted:
        want = first_bracket_failure(bad)
        assert want is not None
        with pytest.raises(RelationError) as info:
            check_representation(bad)
        assert str(info.value) == want


def test_check_representation_forms_a_bracket_with_one_possible_product():
    # osp(4|0) on p, q, w, w' of weights (1, 0), (0, 1), (1, 2), (2, 1):
    # e_i1 = E_pq + E_w'w and f_i1 = E_qp + E_ww' satisfy
    # [e_i1, f_i1] = [h_i1]_q, and f_l = E_qw.  Then e_i1 f_l = E_pw while
    # f_l e_i1 = 0 by support, so [e_i1, f_l] != 0 must be the first
    # failure, before [e_l, f_l]
    from laxforge.superroot import Weight

    alg = build_algebra(4, 0)
    g = (0, 0, 0, 0)
    one = LaurentPoly.one()
    weights = tuple(Weight(w, ()) for w in ((1, 0), (0, 1), (1, 2), (2, 1)))
    rep = Representation(
        alg, "one-sided", g, weights,
        e={"i1": GradedMatrix(g, {(0, 1): one, (3, 2): one}), "l": GradedMatrix(g)},
        f={"i1": GradedMatrix(g, {(1, 0): one, (2, 3): one}),
           "l": GradedMatrix(g, {(1, 2): one})},
    )
    assert first_bracket_failure(rep) == "[e_i1, f_l] relation fails"
    with pytest.raises(RelationError, match=r"^\[e_i1, f_l\] relation fails$"):
        check_representation(rep)


@pytest.mark.parametrize("seed", range(10))
def test_flip_conjugate_is_p_x_p(seed):
    rng = random.Random(seed)
    g = (0, 1, 1)
    p = graded_permutation(g)
    x = random_laurent_matrix(rng, kron_gradings(g, g), nnz=12)
    assert flip_conjugate(x, g, g) == p @ x @ p


def test_flip_conjugate_swaps_kron_factors():
    # P (a (x) b) P = (-1)^([a][b]) b (x) a for a on U1 and b on U2 != U1
    g3 = (1, 0, 1)
    for a in [E(i, j) for i in range(2) for j in range(2)]:
        for b in [E(i, j, g3) for i in range(3) for j in range(3)]:
            pa = sum(G2[i] for rc in a.entries for i in rc) % 2
            pb = sum(g3[i] for rc in b.entries for i in rc) % 2
            sign = -1 if pa * pb else 1
            assert flip_conjugate(graded_kron(a, b), G2, g3) == graded_kron(b, a).scale(sign)
    with pytest.raises(ValueError):
        flip_conjugate(graded_kron(E(0, 1), E(1, 0)), G2, g3)


def tuple_sum_lanes(c1, c2, c3):
    """weight_lanes by summing the coordinate tuples of every index."""
    seen, lanes = Counter(), []
    for x in c1:
        for y in c2:
            for z in c3:
                total = tuple(a + b + c for a, b, c in zip(x, y, z))
                lanes.append(seen[total])
                seen[total] += 1
    return lanes


@pytest.mark.parametrize("mn", [(3, 0), (4, 2), (5, 4), (8, 6), (13, 12)])
def test_weight_lanes_equal_tuple_sums_on_the_vector_module(mn):
    cv = [w.eps + w.delta for w in build_algebra(*mn).weights]
    assert weight_lanes(cv, cv, cv) == tuple_sum_lanes(cv, cv, cv)


@pytest.mark.parametrize("seed", range(8))
def test_weight_lanes_equal_tuple_sums_on_hand_made_coordinates(seed):
    # coordinates in [-3, 3], factors of different sizes
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    c1, c2, c3 = (
        [tuple(rng.randint(-3, 3) for _ in range(width)) for _ in range(rng.randint(1, 7))]
        for _ in range(3)
    )
    assert weight_lanes(c1, c2, c3) == tuple_sum_lanes(c1, c2, c3)
    # totals that agree in a coordinate modulo any small base
    c = [(3, -3), (-3, 3), (0, 0), (2, -1), (-1, 2), (3, 3), (-3, -3)]
    assert weight_lanes(c, c[::-1], c) == tuple_sum_lanes(c, c[::-1], c)


def test_weight_lanes_refuse_a_fraction_coordinate():
    with pytest.raises(TypeError):
        weight_lanes([(0, 1)], [(Fraction(1, 2), 0)], [(0, 0)])


def test_lane_product_rejects_a_laurent_entry():
    lanes = weight_lanes([(0,)] * 3, [(0,)], [(0,)])
    ints = GradedMatrix(G3, {(0, 1): 2, (1, 2): -1})
    laurent = GradedMatrix(G3, {(2, 1): LaurentPoly({1: 1})})
    assert lane_product([ints, ints], lanes, 4) == lane_rows(ints @ ints, lanes, 4)
    for factors in ([laurent], [ints, laurent], [laurent, ints]):
        with pytest.raises(TypeError):
            lane_product(factors, lanes, 4)
