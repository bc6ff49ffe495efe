from fractions import Fraction

import pytest

from laxforge.superroot import (
    AlgebraError,
    Weight,
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
