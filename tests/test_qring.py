from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from laxforge.qring import (
    LaurentPoly,
    PoleError,
    RatFunc,
    _times_qq,
    dot,
    monomial,
    q_int,
    q_minus_qinv,
    q_power,
)


# the fractions in [-20, 20] with denominator at most 8, built from two
# integers: quicker to draw than st.fractions with bounds
coeffs = st.builds(Fraction, st.integers(-160, 160), st.integers(1, 8)).filter(
    lambda f: -20 <= f <= 20
)
polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), coeffs, max_size=5
).map(LaurentPoly)


# -- LaurentPoly ring axioms -------------------------------------------------


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(polys, polys)
def test_evaluation_is_a_homomorphism(a, b):
    s0 = Fraction(3, 2)
    assert (a + b).evaluate(s0) == a.evaluate(s0) + b.evaluate(s0)
    assert (a * b).evaluate(s0) == a.evaluate(s0) * b.evaluate(s0)


@given(polys)
def test_parse_str_round_trip(a):
    assert LaurentPoly.parse(str(a)) == a


def test_canonical_text_form():
    p = LaurentPoly({-2: Fraction(-1), 0: 3, 4: Fraction(1, 2)})
    assert str(p) == "-1*s^-2 + 3 + 1/2*s^4"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.const(Fraction(-5, 3))) == "-5/3"


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({3: 0, 1: 1}) == LaurentPoly({1: 1})
    assert not LaurentPoly({2: Fraction(0)})


def test_q_power_and_q_int():
    # q = s^2, so q^t lives at s-exponent 2t
    assert q_power(1) == LaurentPoly({2: 1})
    assert q_power(Fraction(-1, 2)) == LaurentPoly({-1: 1})
    assert q_minus_qinv() == LaurentPoly({2: 1, -2: -1})
    # [n]_q = (q^n - q^-n)/(q - q^-1)
    assert q_int(1) == LaurentPoly.one()
    assert q_int(2) == LaurentPoly({2: 1, -2: 1})
    assert q_int(3) == LaurentPoly({4: 1, 0: 1, -4: 1})
    assert q_int(-2) == -q_int(2)
    assert q_int(0) == LaurentPoly.zero()


def test_monomial_inverse():
    m = LaurentPoly.s_power(3, Fraction(2, 5))
    assert m.inverse() * m == LaurentPoly.one()
    with pytest.raises(ValueError):
        (LaurentPoly.one() + m).inverse()


def test_q_power_rejects_non_half_integer():
    with pytest.raises(ValueError):
        q_power(Fraction(1, 3))


# -- coefficient invariant ----------------------------------------------------
#
# Every stored coefficient is an int, or a Fraction whose denominator is not
# 1, and never a float.  Integral values may enter as int or as Fraction; the
# results must not depend on which.


def assert_canonical(p: LaurentPoly) -> None:
    for k, c in p.terms.items():
        assert type(k) is int
        assert c, f"zero coefficient stored at s^{k}"
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
            f"non-canonical coefficient {c!r} at s^{k}"
        )


def raw(terms: dict) -> LaurentPoly:
    """A polynomial whose terms are stored exactly as given, every value a
    Fraction, bypassing the constructor's normalisation."""
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = {k: Fraction(c) for k, c in terms.items() if c}
    return p


int_terms = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-20, max_value=20),
    max_size=5,
)
scalars = st.one_of(st.integers(min_value=-9, max_value=9), coeffs)


@given(int_terms, int_terms)
def test_int_and_fraction_backed_polys_agree(ta, tb):
    pairs = [
        (LaurentPoly(t), LaurentPoly({k: Fraction(c) for k, c in t.items()}), raw(t))
        for t in (ta, tb)
    ]
    (a_int, a_frac, a_raw), (b_int, b_frac, b_raw) = pairs
    for a in (a_frac, a_raw):
        assert a == a_int and hash(a) == hash(a_int) and str(a) == str(a_int)
        assert a.evaluate(Fraction(3, 2)) == a_int.evaluate(Fraction(3, 2))
        for b in (b_frac, b_raw):
            assert a + b == a_int + b_int
            assert a * b == a_int * b_int
            assert str(a * b) == str(a_int * b_int)
            assert hash(a + b) == hash(a_int + b_int)
    assert a_frac.terms == a_int.terms
    assert all(type(c) is int for c in a_frac.terms.values())


# -- the kept copies of dot's rule ----------------------------------------------
#
# dot is the home of the coefficient rule: terms summed per exponent, zero
# sums dropped, an integral Fraction stored as an int.  LaurentPoly.__mul__
# and the monomial branch of _times_qq write it out themselves, which is
# faster, so each is pinned to dot, coefficient types included.


def typed(p: LaurentPoly) -> dict:
    """The terms of p with each coefficient's type, so that 2 and
    Fraction(2) differ."""
    return {k: (type(c), c) for k, c in p.terms.items()}


@given(polys, polys, scalars)
@example(LaurentPoly({1: Fraction(1, 2)}), LaurentPoly({0: 2}), Fraction(4, 3))
def test_mul_is_dot(a, b, c):
    assert typed(a * b) == typed(dot(((a, b),)))
    assert typed(a * c) == typed(dot(((a, LaurentPoly.const(c)),)))


@pytest.mark.parametrize("c", [1, -3, Fraction(1, 2), Fraction(-5, 3)])
@pytest.mark.parametrize("e, k, sign", [(0, 0, 1), (-3, 4, -1), (5, -2, 1), (2, -1, -1)])
def test_times_qq_on_a_monomial_is_dot(c, e, k, sign):
    v = LaurentPoly({e: c})
    want = dot(((monomial(k + 2, sign), v), (monomial(k - 2, -sign), v)))
    assert typed(_times_qq(v, k, sign)) == typed(want)


@given(polys, polys, scalars)
def test_every_operation_keeps_coefficients_canonical(a, b, c):
    results = [a, b, a + b, a - b, -a, a * b, a * c, c * a, a + c, c - a]
    results += [a * a * b, (a + b) * (a - b), LaurentPoly.parse(str(a))]
    if a.is_monomial():
        results += [a.inverse(), a.inverse() * a]
    for p in results:
        assert_canonical(p)


def test_fraction_sums_and_products_fall_back_to_int():
    half = LaurentPoly({1: Fraction(1, 2), 0: Fraction(3, 4)})
    assert_canonical(half + half)
    assert (half + half).terms == {1: 1, 0: Fraction(3, 2)}
    assert type((half * 4).terms[1]) is int
    assert type((half * LaurentPoly.const(Fraction(4, 3))).terms[0]) is int
    assert LaurentPoly({2: Fraction(6, 3)}).terms == {2: 2}


def test_floats_are_refused():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly.one().evaluate(2.0)
    with pytest.raises(TypeError):
        q_power(0.5)


def test_evaluate_negative_power_is_exact():
    value = LaurentPoly.s_power(-3).evaluate(2)
    assert value == Fraction(1, 8) and type(value) is Fraction


def test_inverse_of_integer_monomial_is_exact():
    inv = LaurentPoly({3: 2}).inverse()
    assert str(inv) == "1/2*s^-3"
    assert_canonical(inv)
    assert_canonical(LaurentPoly({3: -1}).inverse())
    assert LaurentPoly({3: -1}).inverse().terms == {-3: -1}


def test_ratfunc_evaluate_at_int_point_is_exact():
    a = _rf([0, 1], [1, 0, 1])  # z / (1 + z^2)
    value = RatFunc((LaurentPoly.s_power(-2),), (LaurentPoly.one(),)).evaluate(2, 3)
    assert value == Fraction(1, 4) and type(value) is Fraction
    assert a.evaluate(1, 2) == Fraction(2, 5)


# -- RatFunc -----------------------------------------------------------------


def _rf(num_consts, den_consts):
    return RatFunc(
        [LaurentPoly.const(c) for c in num_consts],
        [LaurentPoly.const(c) for c in den_consts],
    )


def test_ratfunc_equality_by_cross_multiplication():
    # z / (1 + z) == 2z / (2 + 2z)
    assert _rf([0, 1], [1, 1]) == _rf([0, 2], [2, 2])
    assert _rf([0, 1], [1, 1]) != _rf([0, 1], [1, 2])


def test_ratfunc_pole_detection():
    a = _rf([1], [-1, 1])  # 1/(z - 1)
    with pytest.raises(PoleError):
        a.evaluate(Fraction(2), Fraction(1))
    assert a.evaluate(Fraction(2), Fraction(3)) == Fraction(1, 2)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc([LaurentPoly.one()], [LaurentPoly.zero()])


def test_ratfunc_json_round_trip():
    a = RatFunc([q_power(1), q_minus_qinv()], [LaurentPoly.one(), -q_power(-1)])
    assert RatFunc.from_json(a.to_json()) == a
