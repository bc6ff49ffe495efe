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
    Scalar,
    ZERO,
    ZPoly,
    _canonical,
    _zadd,
    _zmul,
    _zneg,
    _zscale,
    _zstr,
    horner,
    q_minus_qinv,
    q_power,
)
from .superroot import AlgebraData, bilinear
from .gradedmat import GradedMatrix, embed_triple, graded_kron, graded_permutation
from .laxengine import RTensor, SigmaSet, sigma_tilde
from .verifier import CheckReport, _Suite


KINDS = ("untwisted", "twisted")


class SamplingError(RuntimeError):
    """The sampler drew too many points on the pole divisor to collect the
    requested number of samples; says nothing about the identity itself."""


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
    E^a_b (x) E^abar_bbar on V (x) V.

    Each (a, b) fills its own composite entry ((a, abar), (b, bbar)), so
    the terms are collected into one dict rather than summed, and
    (rho, e_a - e_b) is a difference of d pairings taken once."""
    g, xi, bar = alg.gradings, alg.xi, alg.bar
    rho_w = [bilinear(alg.rho, wa) for wa in alg.weights]
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for a in range(alg.dim):
        for b in range(alg.dim):
            sign = -1 if (g[a] * g[b]) % 2 else 1
            coeff = q_power(rho_w[a] - rho_w[b]) * (sign * xi[a] * xi[b])
            term = graded_kron(
                GradedMatrix.elementary(a, b, g),
                GradedMatrix.elementary(bar[a], bar[b], g),
            ).scale(coeff)
            entries.update(term.entries)
    return GradedMatrix(term.gradings, entries)


def braces_matrix(alg: AlgebraData, sigma: SigmaSet) -> GradedMatrix:
    """The braced factor of the spectral formula,

        I + (q^(1/2) - q^(-1/2)) sum_a (-1)^[a] E^a_a (x) sigma^a_a
          + (q - q^-1) sum_{e_a < e_b} (-1)^[b] E^a_b (x) sigma~_ba,

    which must coincide with the constant vector R-matrix; `sigma` is the
    sigma-hat set of the vector representation."""
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
        vals = SpectralAtS(self, s0).values(z0)
        return GradedMatrix(
            self.gradings, {key: LaurentPoly.const(v) for key, v in vals.items()}
        )

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


class SpectralAtS:
    """A SpectralRMatrix with s = s0 substituted, to be sampled at many z.

    Entries of r(z) repeat a few distinct fractions num/den, so each
    distinct one is kept once, with its z-coefficients evaluated at s0, and
    each distinct denominator is evaluated once per z (r(z) has a single
    shared one)."""

    __slots__ = ("dens", "pieces", "where")

    def __init__(self, spec: SpectralRMatrix, s0: Scalar):
        den_index: dict[ZPoly, int] = {}
        piece_index: dict[tuple[ZPoly, ZPoly], int] = {}
        self.dens: list[tuple[ZPoly, list[Fraction]]] = []
        self.pieces: list[tuple[list[Fraction], int]] = []  # (num at s0, den index)
        self.where: list[tuple[tuple[int, int], int]] = []  # (entry, piece index)
        for key, rf in spec.entries.items():
            i = piece_index.get((rf.num, rf.den))
            if i is None:
                j = den_index.get(rf.den)
                if j is None:
                    j = den_index[rf.den] = len(self.dens)
                    self.dens.append((rf.den, [c.evaluate(s0) for c in rf.den]))
                i = piece_index[(rf.num, rf.den)] = len(self.pieces)
                self.pieces.append(([c.evaluate(s0) for c in rf.num], j))
            self.where.append((key, i))

    def values(self, z0: Scalar) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries of r(z0); PoleError if a denominator vanishes."""
        z0 = Fraction(_canonical(z0))
        dvals = []
        for den, coeffs in self.dens:
            d = horner(coeffs, z0)
            if not d:
                raise PoleError(_zstr(den))
            dvals.append(d)
        pvals = [horner(coeffs, z0) / dvals[j] for coeffs, j in self.pieces]
        return {key: pvals[i] for key, i in self.where if pvals[i]}


def build_spectral_R(sigma: SigmaSet, r: RTensor, kind: str) -> SpectralRMatrix:
    """Assemble r(z) from the vector representation's sigma-hat set and its
    constant R-matrix r, over the common denominator (q - q^-1 z) D, keeping
    every entry's z-degrees at most 2.  The braces identity, r(1) = P and
    r(0) = q^-1 r are all asserted before returning."""
    if kind not in KINDS:
        raise ValueError(f"unknown spectral kind {kind!r}")
    alg = sigma.algebra
    r_const = r.matrix
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
    # RatFunc divides numerator and denominator by the leading denominator
    # coefficient (here the unit -q^-1); doing it once on the shared pieces
    # spares every entry its own rescaling
    inv = den[-1].inverse()
    den, coeff_p, coeff_e, coeff_r = (
        _zscale(c, inv) for c in (den, coeff_p, coeff_e, coeff_r)
    )

    entries: dict[tuple[int, int], RatFunc] = {}
    keys = set(p.entries) | set(e_tensor.entries) | set(r_const.entries)
    for key in keys:
        num: tuple = ()
        for coeff, mat in ((coeff_p, p), (coeff_e, e_tensor), (coeff_r, r_const)):
            val = mat.entries.get(key)
            if val is not None:
                term = _zscale(coeff, val)
                num = _zadd(num, term) if num else term
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


def _at_0_and_1(poly: ZPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """A z-polynomial's values at z = 0 and z = 1: its constant coefficient
    and the sum of its coefficients."""
    return (poly[0] if poly else ZERO), sum(poly, ZERO)


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
    keys = set(spec.entries) | set(p.entries) | set(r_const.entries)
    for key in keys:
        rf = spec.entries.get(key)
        if rf is None:
            # the numerator cancelled identically; the entry is 0 over the
            # shared denominator
            num0 = num1 = ZERO
            den0, den1 = _at_0_and_1(common_den)
        else:
            num0, num1 = _at_0_and_1(rf.num)
            den0, den1 = _at_0_and_1(rf.den)
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


def _integral(vals: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], int]:
    """Sampled entries times the lcm of their denominators: all integers."""
    lcm = math.lcm(*(v.denominator for v in vals.values()))
    return {key: v.numerator * (lcm // v.denominator) for key, v in vals.items()}


def check_spectral_ybe(
    spec: SpectralRMatrix, samples: int = 20, seed: int = 0
) -> CheckReport:
    """r12(z) r13(zw) r23(w) = r23(w) r13(zw) r12(z), evaluated exactly at
    pseudo-random rational (s0, z0, w0) triples off the pole divisor.

    Each sample substitutes s = s0 into r once and evaluates the result at
    z0, z0 w0 and w0.  Both sides are linear in each of r(z), r(zw) and
    r(w), so each sampled matrix is scaled by the lcm of its denominators
    and the products run over plain integers; scaling by nonzero constants
    keeps the comparison an exact identity test.  A failing sample is
    recomputed unscaled, so the witness reports the entries of the unscaled
    products.  Raises SamplingError if 50 * samples draws do not yield
    enough pole-free points."""
    if samples < 1:
        raise ValueError("need at least one sample")
    suite = _Suite(f"spectral_ybe_{spec.kind}")
    rng = random.Random(seed)
    gv = spec.algebra.gradings

    def ybe_sides(vz, vzw, vw):
        r12, r13, r23 = (
            embed_triple(GradedMatrix(spec.gradings, vals), slots, gv, gv, gv)
            for vals, slots in ((vz, "12"), (vzw, "13"), (vw, "23"))
        )
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    done = 0
    attempts = 0
    while done < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise SamplingError(
                "could not find enough pole-free samples; retry with a new seed"
            )
        s0, z0, w0 = _sample_point(rng)
        fixed = SpectralAtS(spec, s0)
        try:
            vz, vzw, vw = fixed.values(z0), fixed.values(z0 * w0), fixed.values(w0)
        except PoleError:
            continue
        lhs, rhs = ybe_sides(_integral(vz), _integral(vzw), _integral(vw))
        if lhs != rhs:
            lhs, rhs = ybe_sides(vz, vzw, vw)
        suite.expect_equal(f"spectral YBE at s={s0}, z={z0}, w={w0}", lhs, rhs)
        done += 1
    return suite.report()
