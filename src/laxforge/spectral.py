"""Spectral-parameter-dependent R-matrices for the vector representation.

Two Baxterized families are built from the constant vector R-matrix r:

    r(z) = [(q - q^-1) z / (q - z q^-1)] P
           - [(q - q^-1) z (z - 1) / ((q - q^-1 z) D)] E
           - [(z - 1) / (q - z q^-1)] r

with D = (z - q^(m-n-2)) for the untwisted family and D = (z + q^(m-n))
for the twisted one.  Entries are exact rational functions in z over the
Laurent ring in s = q^(1/2); the spectral Yang-Baxter equation is verified
by exact rational sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .qring import (
    LaurentPoly,
    ONE,
    PoleError,
    RatFunc,
    ZERO,
    _zadd,
    _zmul,
    _zneg,
    _zscale,
    q_minus_qinv,
    q_power,
)
from .superroot import AlgebraData, bilinear
from .gradedmat import GradedMatrix, graded_kron, graded_permutation
from .laxengine import (
    assemble_R,
    extend_sigma,
    init_simple_sigma,
    sigma_tilde,
)
from .verifier import CheckReport, _Suite


KINDS = ("untwisted", "twisted")


def sigma_hat_diag(alg: AlgebraData) -> list[GradedMatrix]:
    """The diagonal operators closing the braced factor of the spectral
    formula: sigma^a_a = q^((e_a,e_a)/2) E^a_a - q^(-(e_a,e_a)/2) E^abar_abar.

    For the self-barred zero-weight index the two terms cancel exactly.
    """
    out = []
    for a in range(alg.dim):
        half_norm = Fraction(bilinear(alg.weights[a], alg.weights[a]), 2)
        entries = {(a, a): q_power(half_norm)}
        key = (alg.bar[a], alg.bar[a])
        acc = entries.get(key, ZERO) - q_power(-half_norm)
        if acc:
            entries[key] = acc
        elif key in entries:
            del entries[key]
        out.append(GradedMatrix(alg.gradings, entries))
    return out


def build_E_tensor(alg: AlgebraData) -> GradedMatrix:
    """E = sum_{a,b} (-1)^([a][b]) xi_a xi_b q^((rho, e_a - e_b))
    E^a_b (x) E^abar_bbar on V (x) V."""
    g, w, xi, bar = alg.gradings, alg.weights, alg.xi, alg.bar
    total: GradedMatrix | None = None
    for a in range(alg.dim):
        for b in range(alg.dim):
            sign = -1 if (g[a] * g[b]) % 2 else 1
            coeff = q_power(bilinear(alg.rho, w[a] - w[b])) * (sign * xi[a] * xi[b])
            term = graded_kron(
                GradedMatrix.elementary(a, b, g),
                GradedMatrix.elementary(bar[a], bar[b], g),
            ).scale(coeff)
            total = term if total is None else total + term
    return total


def braces_matrix(alg: AlgebraData, sigma=None) -> GradedMatrix:
    """The braced factor of the spectral formula,

        I + (q^(1/2) - q^(-1/2)) sum_a (-1)^[a] E^a_a (x) sigma^a_a
          + (q - q^-1) sum_{e_a < e_b} (-1)^[b] E^a_b (x) sigma~_ba,

    which must coincide with the constant vector R-matrix."""
    if sigma is None:
        from .gradedmat import build_vector_rep

        sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    g = alg.gradings
    diag = sigma_hat_diag(alg)
    sqrt_diff = LaurentPoly({1: 1, -1: -1})  # q^(1/2) - q^(-1/2)
    total = graded_kron(GradedMatrix.identity(g), GradedMatrix.identity(g))
    for a in range(alg.dim):
        if diag[a].is_zero():
            continue
        sign = -1 if g[a] % 2 else 1
        total = total + graded_kron(
            GradedMatrix.elementary(a, a, g), diag[a].scale(sqrt_diff * sign)
        )
    qq = q_minus_qinv()
    for (b, a) in alg.extended_pairs():
        tilde = sigma_tilde(sigma, b, a)
        if tilde.is_zero():
            continue
        sign = -1 if g[b] % 2 else 1
        total = total + graded_kron(
            GradedMatrix.elementary(a, b, g), tilde.scale(qq * sign)
        )
    return total


@dataclass
class SpectralRMatrix:
    """Square matrix of exact rational functions in z on V (x) V."""

    algebra: AlgebraData
    kind: str
    gradings: tuple[int, ...]  # composite gradings of V (x) V
    entries: dict[tuple[int, int], RatFunc]

    @property
    def dim(self) -> int:
        return len(self.gradings)

    def evaluate(self, s0, z0) -> GradedMatrix:
        """Numeric matrix at an exact rational point, as constant entries."""
        out = {}
        for key, rf in self.entries.items():
            val = rf.evaluate(s0, z0)
            if val:
                out[key] = LaurentPoly.const(val)
        return GradedMatrix(self.gradings, out)

    def to_json(self) -> dict:
        return {
            "algebra": {"m": self.algebra.m, "n": self.algebra.n},
            "kind": self.kind,
            "dim": self.dim,
            "entries": {
                f"{r + 1},{c + 1}": self.entries[(r, c)].to_json()
                for (r, c) in sorted(self.entries)
            },
        }


def build_spectral_R(alg: AlgebraData, kind: str) -> SpectralRMatrix:
    """Assemble r(z) over the common denominator (q - q^-1 z) D, keeping
    every entry's z-degrees at most 2.  The braces identity, r(1) = P and
    r(0) = q^-1 r are all asserted before returning."""
    if kind not in KINDS:
        raise ValueError(f"unknown spectral kind {kind!r}")
    from .gradedmat import build_vector_rep

    sigma = extend_sigma(init_simple_sigma(build_vector_rep(alg)))
    r_const = assemble_R(sigma).matrix
    if braces_matrix(alg, sigma) != r_const:
        raise AssertionError("braced factor does not reproduce the constant R-matrix")

    gv = alg.gradings
    p = graded_permutation(gv)
    e_tensor = build_E_tensor(alg)

    qq = q_minus_qinv()
    # common denominator (q - q^-1 z) * D, as a z-polynomial
    lin = (q_power(1), -q_power(-1))  # q - q^-1 z
    if kind == "untwisted":
        d_pole = (-q_power(alg.m - alg.n - 2), ONE)  # z - q^(m-n-2)
    else:
        d_pole = (q_power(alg.m - alg.n), ONE)  # z + q^(m-n)
    den = _zmul(lin, d_pole)

    # numerator weights for each structural piece, over the common denominator
    z_poly = (ZERO, ONE)
    z_minus_1 = (-ONE, ONE)
    coeff_p = _zscale(_zmul(z_poly, d_pole), qq)  # (q-q^-1) z D
    coeff_e = _zneg(_zscale(_zmul(z_poly, z_minus_1), qq))  # -(q-q^-1) z (z-1)
    coeff_r = _zneg(_zmul(z_minus_1, d_pole))  # -(z-1) D

    entries: dict[tuple[int, int], RatFunc] = {}
    keys = set(p.entries) | set(e_tensor.entries) | set(r_const.entries)
    for key in keys:
        num: tuple = ()
        for coeff, mat in ((coeff_p, p), (coeff_e, e_tensor), (coeff_r, r_const)):
            val = mat.entries.get(key)
            if val is not None:
                num = _zadd(num, _zscale(coeff, val))
        if num:
            entries[key] = RatFunc(num, den)

    out = SpectralRMatrix(
        algebra=alg, kind=kind, gradings=p.gradings, entries=entries
    )
    _assert_boundary_values(out, p, r_const, den)
    for rf in out.entries.values():
        dn, dd = rf.degrees()
        if dn > 2 or dd > 2:
            raise AssertionError("spectral entry exceeds z-degree 2")
    return out


def _substitute_z(rf: RatFunc, z0: Fraction) -> tuple[LaurentPoly, LaurentPoly]:
    """Plug in a rational z, keeping s symbolic; returns (num, den)."""

    def horner(coeffs) -> LaurentPoly:
        acc = LaurentPoly.zero()
        for c in reversed(coeffs):
            acc = acc * z0 + c
        return acc

    return horner(rf.num), horner(rf.den)


def _assert_boundary_values(
    spec: SpectralRMatrix,
    p: GradedMatrix,
    r_const: GradedMatrix,
    common_den: tuple,
) -> None:
    """r(1) = P and r(0) = q^-1 r as cross-multiplied identities in the
    Laurent ring: num(z0) = target * den(z0).  When m - n = 2 the untwisted
    pole sits at z = 1 and every denominator vanishes there, so the z = 1
    comparison degenerates to 0 = 0; the identity only constrains points off
    the pole divisor."""
    qinv = q_power(-1)

    def horner(coeffs, z0) -> LaurentPoly:
        acc = LaurentPoly.zero()
        for c in reversed(coeffs):
            acc = acc * z0 + c
        return acc

    keys = set(spec.entries) | set(p.entries) | set(r_const.entries)
    for key in keys:
        rf = spec.entries.get(key)
        if rf is None:
            # the numerator cancelled identically; the entry is 0 over the
            # shared denominator
            num1 = num0 = LaurentPoly.zero()
            den1 = horner(common_den, Fraction(1))
            den0 = horner(common_den, Fraction(0))
        else:
            num1, den1 = _substitute_z(rf, Fraction(1))
            num0, den0 = _substitute_z(rf, Fraction(0))
        if num1 != p.entries.get(key, ZERO) * den1:
            raise AssertionError(f"r(1) != P at entry {key}")
        if num0 != r_const.entries.get(key, ZERO) * qinv * den0:
            raise AssertionError(f"r(0) != q^-1 r at entry {key}")


def _sample_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    s0 = Fraction(rng.choice((2, 3, 5, 7))) * Fraction(
        rng.randint(1, 4), rng.randint(1, 4)
    )
    if abs(s0) == 1:
        s0 += 1

    def small() -> Fraction:
        num = rng.randint(-6, 6)
        return Fraction(num if num else 1, rng.randint(1, 6))

    return s0, small(), small()


def _clear_denominators(mat: GradedMatrix) -> GradedMatrix:
    """A constant matrix times the lcm of its entries' denominators, so that
    every entry is an integer."""
    vals = {key: v.terms[0] for key, v in mat.entries.items()}
    lcm = math.lcm(*(c.denominator for c in vals.values()))
    if lcm == 1:
        return mat
    return GradedMatrix(
        mat.gradings,
        {
            key: LaurentPoly.const(c.numerator * (lcm // c.denominator))
            for key, c in vals.items()
        },
    )


def check_spectral_ybe(
    alg: AlgebraData,
    kind: str,
    samples: int = 20,
    seed: int = 0,
    matrix: SpectralRMatrix | None = None,
) -> CheckReport:
    """r12(z) r13(zw) r23(w) = r23(w) r13(zw) r12(z), evaluated exactly at
    pseudo-random rational (s0, z0, w0) triples off the pole divisor.

    Both sides are linear in each of r(z), r(zw) and r(w), so each sampled
    matrix is first scaled by the lcm of its denominators and the products
    run over integers; scaling by nonzero constants keeps the comparison an
    exact identity test.  A failing sample is recomputed unscaled, so the
    witness reports the entries of the unscaled products."""
    if samples < 1:
        raise ValueError("need at least one sample")
    spec = matrix if matrix is not None else build_spectral_R(alg, kind)
    suite = _Suite(f"spectral_ybe_{kind}")
    rng = random.Random(seed)
    gv = alg.gradings
    ident = GradedMatrix.identity(gv)
    p12 = graded_kron(graded_permutation(gv), ident)

    def ybe_sides(mz, mzw, mw):
        r12 = graded_kron(mz, ident)
        r23 = graded_kron(ident, mw)
        r13 = p12 @ graded_kron(ident, mzw) @ p12
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise PoleError(
                "could not find enough pole-free samples; retry with a new seed"
            )
        s0, z0, w0 = _sample_point(rng)
        try:
            mz = spec.evaluate(s0, z0)
            mzw = spec.evaluate(s0, z0 * w0)
            mw = spec.evaluate(s0, w0)
        except PoleError:
            continue
        lhs, rhs = ybe_sides(
            _clear_denominators(mz), _clear_denominators(mzw), _clear_denominators(mw)
        )
        if lhs != rhs:
            lhs, rhs = ybe_sides(mz, mzw, mw)
        suite.expect_equal(f"spectral YBE at s={s0}, z={z0}, w={w0}", lhs, rhs)
        done += 1
    return suite.report()
