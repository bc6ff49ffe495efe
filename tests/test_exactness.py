"""Model-level exactness guard: no float anywhere in the constructed objects,
and every coefficient in canonical form (an int, or a Fraction whose
denominator is not 1)."""

from fractions import Fraction

import pytest

from laxforge.qring import LaurentPoly
from laxforge.superroot import Weight, bilinear, build_algebra
from laxforge.gradedmat import GradedMatrix, build_vector_rep
from laxforge.laxengine import assemble_R, extend_sigma, init_simple_sigma, opposite_R
from laxforge.spectral import (
    build_E_tensor,
    build_spectral_R,
    check_spectral_ybe,
    sigma_hat_diag,
)


def assert_scalar(c, where: str) -> None:
    assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (
        f"{where}: non-canonical scalar {c!r} ({type(c).__name__})"
    )


def assert_poly(p: LaurentPoly, where: str) -> None:
    assert isinstance(p, LaurentPoly), f"{where}: {type(p).__name__}"
    for k, c in p.terms.items():
        assert type(k) is int, f"{where}: exponent {k!r}"
        assert c, f"{where}: zero coefficient stored at s^{k}"
        assert_scalar(c, f"{where} at s^{k}")


def assert_matrix(mat: GradedMatrix, where: str) -> None:
    for key, v in mat.entries.items():
        assert_poly(v, f"{where}{key}")


def assert_weight(w: Weight, where: str) -> None:
    for i, c in enumerate(w.eps + w.delta):
        assert_scalar(c, f"{where} component {i}")


@pytest.mark.parametrize("m,n", [(3, 0), (4, 2), (5, 2)])
def test_no_float_and_canonical_coefficients(m, n):
    alg = build_algebra(m, n)
    for i, row in enumerate(alg.cartan):
        for j, c in enumerate(row):
            assert_scalar(c, f"cartan[{i}][{j}]")
    for p, w in enumerate(alg.weights):
        assert_weight(w, f"weight {p}")
    for lab, w in alg.simple_roots:
        assert_weight(w, f"alpha_{lab}")
    assert_weight(alg.rho, "rho")
    for w1 in (*alg.weights, alg.rho):
        for w2 in alg.weights:
            assert_scalar(bilinear(w1, w2), "bilinear")

    rep = build_vector_rep(alg)
    for lab in rep.e:
        assert_matrix(rep.e[lab], f"e_{lab}")
        assert_matrix(rep.f[lab], f"f_{lab}")
        assert_matrix(rep.qh_diag(alg.root(lab), Fraction(1, 2)), f"q^(h_{lab}/2)")
    sigma = extend_sigma(init_simple_sigma(rep))
    for pair, mat in sigma.sigma.items():
        assert_matrix(mat, f"sigma{pair}")
    assert_matrix(assemble_R(sigma).matrix, "R")
    assert_matrix(opposite_R(sigma).matrix, "opposite R")
    for a, mat in enumerate(sigma_hat_diag(alg)):
        assert_matrix(mat, f"sigma^{a}_{a}")
    assert_matrix(build_E_tensor(alg), "E")

    for kind in ("untwisted", "twisted"):
        spec = build_spectral_R(alg, assemble_R(sigma), kind)
        for i, c in enumerate(spec.den):
            assert_poly(c, f"{kind} r(z) den z^{i}")
        for p, (weight, mat) in enumerate(spec.pieces):
            for i, c in enumerate(weight):
                assert_poly(c, f"{kind} r(z) piece {p} weight z^{i}")
            assert_matrix(mat, f"{kind} r(z) piece {p}")
        sample = spec.evaluate(Fraction(3, 2), Fraction(2, 5))
        assert_matrix(sample, f"{kind} r(2/5)")
        assert any(type(v.terms[0]) is Fraction for v in sample.entries.values())
        assert check_spectral_ybe(spec, samples=1, seed=3).status == "pass"
