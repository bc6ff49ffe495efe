import dataclasses
from fractions import Fraction

import pytest

from laxforge.superroot import (
    AlgebraError,
    Weight,
    _check_invariants,
    bilinear,
    build_algebra,
)


F = Fraction


def test_rejects_small_m_and_odd_n():
    with pytest.raises(AlgebraError):
        build_algebra(2, 2)
    with pytest.raises(AlgebraError):
        build_algebra(1, 0)
    with pytest.raises(AlgebraError):
        build_algebra(3, 3)
    with pytest.raises(AlgebraError):
        build_algebra(4, -2)


def test_layout_3_2():
    alg = build_algebra(3, 2)
    assert alg.labels == ("mu1", "i1", "i2", "i3", "mu2")
    assert alg.gradings == (1, 0, 0, 0, 1)
    # xi is +1 on even indices and (-1)^mu on odd ones (mu2 sits at the end)
    assert alg.xi == (-1, 1, 1, 1, 1)
    assert alg.bar == (4, 3, 2, 1, 0)
    # weights: delta_1, eps_1, 0, -eps_1, -delta_1
    assert alg.weights[0] == Weight((F(0),), (F(1),))
    assert alg.weights[1] == Weight((F(1),), (F(0),))
    assert alg.weights[2].is_zero()
    assert alg.weights[4] == -alg.weights[0]


def test_layout_4_0():
    alg = build_algebra(4, 0)
    assert alg.labels == ("i1", "i2", "i3", "i4")
    assert alg.gradings == (0, 0, 0, 0)
    assert not any(w.is_zero() for w in alg.weights)
    assert alg.root_labels() == ("i1", "l")
    # D_2 = so(4): two orthogonal roots eps_1 -+ eps_2
    assert [[int(c) for c in row] for row in alg.cartan] == [[2, 0], [0, 2]]


def test_simple_roots_3_2():
    alg = build_algebra(3, 2)
    assert alg.root_labels() == ("s", "l")
    assert alg.root("s") == Weight((F(-1),), (F(1),))  # delta_1 - eps_1
    assert alg.root("l") == Weight((F(1),), (F(0),))  # eps_1
    assert alg.root_parity("s") == 1
    assert alg.root_parity("l") == 0


def test_bilinear_form_signature():
    alg = build_algebra(3, 2)
    eps = Weight.eps_unit(1, alg.l, alg.k)
    delta = Weight.delta_unit(1, alg.l, alg.k)
    assert bilinear(eps, eps) == 1
    assert bilinear(delta, delta) == -1
    assert bilinear(eps, delta) == 0


def test_rho_values():
    # rho = 1/2 sum (m - 2i) eps_i + 1/2 sum (n - m + 2 - 2mu) delta_mu
    alg = build_algebra(5, 4)
    assert alg.rho.eps == (F(3, 2), F(1, 2))
    assert alg.rho.delta == (F(-1, 2), F(-3, 2))
    for _, alpha in alg.simple_roots:
        assert bilinear(alg.rho, alpha) == bilinear(alpha, alpha) / 2


def test_extended_pairs_are_descending_weight():
    alg = build_algebra(3, 4)
    pairs = alg.extended_pairs()
    assert len(pairs) == alg.dim * (alg.dim - 1) // 2
    for (b, a) in pairs:
        assert b < a


def test_serialization_shape():
    alg = build_algebra(3, 2)
    doc = alg.to_json()
    assert doc["m"] == 3 and doc["n"] == 2
    assert doc["layout"] == ["mu1", "i1", "i2", "i3", "mu2"]
    assert doc["bar"] == [5, 4, 3, 2, 1]  # 1-based
    assert {r["label"] for r in doc["simple_roots"]} == {"s", "l"}


def test_weight_json_round_trip():
    w = Weight((F(1, 2), F(-3)), (F(0),))
    assert Weight.from_json(w.to_json()) == w


@pytest.mark.parametrize("mn", [(3, 2), (5, 4)])
def test_invariants_reject_a_simple_root_that_is_not_positive(mn):
    # -alpha_s is isotropic and orthogonal to rho like alpha_s, so only the
    # positivity check can catch it; the message was recorded before the
    # check compared coordinate tuples
    alg = build_algebra(*mn)
    roots = tuple((lab, -w if lab == "s" else w) for lab, w in alg.simple_roots)
    with pytest.raises(AssertionError) as info:
        _check_invariants(dataclasses.replace(alg, simple_roots=roots))
    assert str(info.value) == "alpha_s is not positive in the weight order"
    _check_invariants(alg)


@pytest.mark.parametrize("mn, first", [((3, 2), "s"), ((5, 4), "s"), ((4, 0), "i1")])
def test_invariants_reject_a_corrupted_bar_and_rho(mn, first):
    # the messages were recorded before the checks compared coordinate tuples
    alg = build_algebra(*mn)
    w = list(alg.weights)
    w[0], w[1] = w[1], w[0]
    shifted = Weight((alg.rho.eps[0] + F(1, 3),) + alg.rho.eps[1:], alg.rho.delta)
    for bad, message in (
        (dataclasses.replace(alg, weights=tuple(w)), "weight(bar) = -weight"),
        (dataclasses.replace(alg, rho=shifted), f"rho pairing fails on alpha_{first}"),
    ):
        with pytest.raises(AssertionError) as info:
            _check_invariants(bad)
        assert str(info.value) == message


# the seventeen rungs of the construct ladder: 3 <= m <= 11, n <= 10
LADDER = [
    (3, 0), (5, 0), (7, 0), (9, 0), (11, 0), (4, 2), (6, 2), (8, 2), (10, 2),
    (3, 4), (5, 4), (7, 4), (4, 6), (6, 6), (3, 8), (5, 8), (3, 10),
]


@pytest.mark.parametrize("mn", LADDER)
def test_simple_pair_realises_each_simple_root(mn):
    alg = build_algebra(*mn)
    for label in alg.root_labels():
        b, a = alg.simple_pair(label)
        assert b < a
        assert alg.weights[b] - alg.weights[a] == alg.root(label)
        # and no extended pair before it in order realises the root
        first = next(
            p for p in alg.extended_pairs()
            if alg.weights[p[0]] - alg.weights[p[1]] == alg.root(label)
        )
        assert (b, a) == first
    with pytest.raises(KeyError):
        alg.simple_pair("s" if alg.n == 0 else "x1")


# every osp(m|n) with 3 <= m <= 11 and even n <= 10: 54 algebras
ALL_SMALL = [(m, n) for m in range(3, 12) for n in range(0, 11, 2)]


@pytest.mark.parametrize("mn", ALL_SMALL)
def test_exponent_tables_are_twice_the_form(mn):
    alg = build_algebra(*mn)
    w = alg.weights
    assert alg.pair2 == tuple(
        tuple(2 * bilinear(wa, wb) for wb in w) for wa in w
    )
    assert alg.rho2 == tuple(2 * bilinear(alg.rho, wa) for wa in w)
    assert all(type(x) is int for row in alg.pair2 for x in row)
    assert all(type(x) is int for x in alg.rho2)


def test_exponent_tables_follow_a_replaced_rho_and_weights():
    # the tables are derived from weights and rho, never stored beside them
    alg = build_algebra(5, 4)
    rho = Weight(tuple(2 * a for a in alg.rho.eps), alg.rho.delta)
    moved = dataclasses.replace(alg, rho=rho)
    assert moved.rho2 == tuple(2 * bilinear(rho, wa) for wa in alg.weights)
    assert moved.rho2 != alg.rho2
    w = alg.weights[1:] + alg.weights[:1]
    swapped = dataclasses.replace(alg, weights=w)
    assert swapped.pair2 == tuple(tuple(2 * bilinear(a, b) for b in w) for a in w)
    assert swapped.pair2 != alg.pair2
