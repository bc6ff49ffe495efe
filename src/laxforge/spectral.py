"""Spectral-parameter-dependent R-matrices for the vector representation.

Two Baxterized families are built from the constant vector R-matrix r:

    r(z) = [(q - q^-1) z / (q - z q^-1)] P
           - [(q - q^-1) z (z - 1) / ((q - q^-1 z) D)] E
           - [(z - 1) / (q - z q^-1)] r

with D = (z - q^(m-n-2)) for the untwisted family and D = (z + q^(m-n))
for the twisted one.  r(z) is kept as it is built: the three constant
matrices P, E and r, each with a z-polynomial weight over the Laurent ring
in s = q^(1/2), over the one shared denominator (q - q^-1 z) D.  The
spectral Yang-Baxter equation is verified by exact rational sampling on
plain ints: ints_at takes Laurent polynomials at s0 = a/b to ints times one
constant, SpectralAtS takes r at s0 and z0 = p/q to an int matrix the same
way, and the two triple products are compared row by row, each row one
int inside its weight block (gradedmat.lane_product).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .qring import (
    LaurentPoly,
    ONE,
    PoleError,
    Scalar,
    ZERO,
    ZPoly,
    _canonical,
    _zmul,
    _zneg,
    _zscale,
    _zstr,
    _ztrim,
    dot,
    monomial,
    q_minus_qinv,
    q_power,
)
from .superroot import AlgebraData
from .gradedmat import (
    GradedMatrix,
    embed_triple,
    graded_permutation,
    kron_blocks,
    kron_gradings,
    lane_product,
    pack_stats,
    packing_bits,
    weight_codes,
    weight_lanes,
)
from .laxengine import RTensor, SigmaSet
from .verifier import CheckReport


KINDS = ("untwisted", "twisted")


class SamplingError(RuntimeError):
    """The sampler drew too many points on the pole divisor to collect the
    requested number of samples; says nothing about the identity itself."""


def sigma_hat_diag(alg: AlgebraData) -> list[GradedMatrix]:
    """The diagonal operators closing the braced factor of the spectral
    formula: sigma^a_a = q^((e_a,e_a)/2) E^a_a - q^(-(e_a,e_a)/2) E^abar_abar,
    the monomials s^(+-pair2[a][a] / 2).

    For the self-barred zero-weight index the two terms cancel exactly."""
    g, bar, pair2 = alg.gradings, alg.bar, alg.pair2
    out = []
    for a in range(alg.dim):
        h = pair2[a][a] // 2  # (e_a, e_a) is 0 or +-1
        entries = {} if bar[a] == a else {
            (a, a): monomial(h), (bar[a], bar[a]): monomial(-h, -1)
        }
        out.append(GradedMatrix._of(g, entries))
    return out


def build_E_tensor(alg: AlgebraData) -> GradedMatrix:
    """E = sum_{a,b} (-1)^([a][b]) xi_a xi_b q^((rho, e_a - e_b))
    E^a_b (x) E^abar_bbar on V (x) V.

    Each (a, b) gives one entry, the monomial s^(rho2[a] - rho2[b]) with
    graded_kron's sign (-1)^(([abar]+[bbar])[b]) on top, written directly."""
    g, xi, bar, rho2, d = alg.gradings, alg.xi, alg.bar, alg.rho2, alg.dim
    entries = {}
    for a in range(d):
        for b in range(d):
            odd = (g[a] * g[b] + (g[bar[a]] + g[bar[b]]) * g[b]) % 2
            sign = -xi[a] * xi[b] if odd else xi[a] * xi[b]
            entries[(a * d + bar[a], b * d + bar[b])] = monomial(rho2[a] - rho2[b], sign)
    return GradedMatrix._of(kron_gradings(g, g), entries)


def braces_matrix(alg: AlgebraData, sigma: SigmaSet) -> GradedMatrix:
    """The braced factor of the spectral formula,

        I + (q^(1/2) - q^(-1/2)) sum_a (-1)^[a] E^a_a (x) sigma^a_a
          + (q - q^-1) sum_{e_a < e_b} (-1)^[b] E^a_b (x) sigma~_ba,

    which must coincide with the constant vector R-matrix; `sigma` is the
    sigma-hat set of the vector representation and sigma~_ba is
    q^(h_eps_a) sigma_ba.  With I = sum_a E^a_a (x) I every term is one
    block E^a_b (x) (...); the off-diagonal blocks are R's own
    (SigmaSet.blocks), so the identity compares the diagonal ones."""
    g = alg.gradings
    ident = GradedMatrix.identity(g)
    sqrt_diff = LaurentPoly({1: 1, -1: -1})  # q^(1/2) - q^(-1/2)
    blocks = dict(sigma.blocks)
    for a, diag in enumerate(sigma_hat_diag(alg)):
        sign = -1 if g[a] % 2 else 1
        blocks[(a, a)] = ident + diag.scale(sqrt_diff * sign)
    return kron_blocks(g, g, blocks)


@dataclass
class SpectralRMatrix:
    """r(z) on V (x) V as constant matrices M_i with z-polynomial weights
    w_i over one shared denominator:

        r(z) = sum_i w_i(z) M_i / den(z),

    `pieces` holding the pairs (w_i, M_i); build_spectral_R gives the three
    pieces (P, E, r) in that order.  z-polynomials are tuples of LaurentPoly
    coefficients in ascending powers of z."""

    algebra: AlgebraData
    kind: str
    gradings: tuple[int, ...]  # composite gradings of V (x) V
    den: ZPoly
    pieces: tuple[tuple[ZPoly, GradedMatrix], ...]

    @property
    def dim(self) -> int:
        return len(self.gradings)

    def evaluate(self, s0, z0) -> GradedMatrix:
        """Numeric matrix at an exact rational point, as constant entries."""
        vals = SpectralAtS(self, s0).values(z0)
        return GradedMatrix(
            self.gradings, {key: LaurentPoly.const(v) for key, v in vals.items()}
        )

    @cached_property
    def entry_terms(self) -> tuple[list[LaurentPoly], list[tuple], list]:
        """The distinct values of the pieces' entries, worked out once for
        to_json and every SpectralAtS: the list of distinct values; the
        distinct term lists, each a tuple of (piece index, value index) for
        the pieces holding an entry; and each entry with the index of its
        term list, entries with the same values in every piece sharing one."""
        index: dict[LaurentPoly, int] = {}  # distinct entry value -> position
        # entry -> [(piece index, position of its value there)]
        terms: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, (_, mat) in enumerate(self.pieces):
            for key, v in mat.entries.items():
                terms.setdefault(key, []).append((i, index.setdefault(v, len(index))))
        sums: dict[tuple, int] = {}
        where = [(key, sums.setdefault(tuple(t), len(sums))) for key, t in terms.items()]
        return list(index), list(sums), where

    def to_json(self) -> dict:
        """Each nonzero entry as its numerator over the shared denominator
        (whose leading coefficient is 1).  Each distinct term list of
        entry_terms has its numerator formed once, coefficient by
        coefficient in one pass (qring.dot), and its {"num", "den"} object
        built once and shared by every entry with that term list, so the
        JSON writer writes it once (cli._json_text)."""
        values, sums, where = self.entry_terms
        width = max(len(w) for w, _ in self.pieces)
        weights = [w + (ZERO,) * (width - len(w)) for w, _ in self.pieces]
        den = [str(c) for c in self.den]
        ratios = []
        for t in sums:
            num = [str(x) for x in _ztrim(
                dot((weights[i][j], values[v]) for i, v in t) for j in range(width)
            )]
            ratios.append({"num": num, "den": den} if num else None)
        entries = {
            f"{r + 1},{c + 1}": ratios[j]
            for (r, c), j in where if ratios[j] is not None
        }
        return {
            "algebra": {"m": self.algebra.m, "n": self.algebra.n},
            "kind": self.kind,
            "dim": self.dim,
            "entries": entries,
        }


def ints_at(polys: list[LaurentPoly], s0: Scalar) -> tuple[list[int], int]:
    """Laurent polynomials p at s = s0 = a/b != 0 as the ints c p(s0), and
    the one nonzero int c = L b^hi a^-lo: [lo, hi] is the range of their
    exponents widened to hold 0, L the lcm of their coefficients'
    denominators.  Powers of a and b are computed once; no Fraction."""
    exps = [0, *(k for p in polys for k in p.terms)]
    lo, hi = min(exps), max(exps)
    lcm = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    a, b = _canonical(s0).as_integer_ratio()
    pa, pb = [1], [1]  # a^j and b^j for 0 <= j <= hi - lo
    for _ in range(hi - lo):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    ints = [
        sum(c.numerator * (lcm // c.denominator) * pa[k - lo] * pb[hi - k]
            for k, c in p.terms.items())
        for p in polys
    ]
    return ints, lcm * pb[hi] * pa[-lo]


class SpectralAtS:
    """A SpectralRMatrix with s = s0 substituted, to be sampled at many z.

    ints_at gives the coefficients of the denominator and the weights as
    ints times one constant, and each distinct entry value v as the int
    cv v(s0).  An entry at z is sum_i w_i(z) M_i[entry] / den(z), and
    entries whose values agree in every piece share that sum."""

    __slots__ = ("den", "zpolys", "cv", "sums", "where")

    def __init__(self, spec: SpectralRMatrix, s0: Scalar):
        self.den = spec.den
        values, sums, self.where = spec.entry_terms
        at_s0, self.cv = ints_at(values, s0)
        self.sums = [[(i, at_s0[j]) for i, j in t] for t in sums]
        zpolys = (spec.den, *(w for w, _ in spec.pieces))
        coeffs = iter(ints_at([c for w in zpolys for c in w], s0)[0])
        # the denominator, then each weight, as its int coefficients
        self.zpolys = [[next(coeffs) for _ in w] for w in zpolys]

    def int_values(self, z0: Scalar) -> tuple[dict[tuple[int, int], int], Fraction]:
        """The nonzero entries of r(z0) times one nonzero constant, as ints,
        and that constant; PoleError if the denominator vanishes.  For
        z0 = p/q each z-polynomial is taken in the homogenised int form
        sum_j c_j p^j q^(deg-j), deg the largest z-degree, so every sum is
        over ints and only the constant is a Fraction."""
        p, q = _canonical(z0).as_integer_ratio()
        deg = max(map(len, self.zpolys)) - 1
        pq = [p**j * q ** (deg - j) for j in range(deg + 1)]
        d, *w = [sum(map(mul, coeffs, pq)) for coeffs in self.zpolys]
        if not d:
            raise PoleError(_zstr(self.den))
        vals = [sum(w[i] * x for i, x in t) for t in self.sums]
        # divided by their gcd, the ints are as short as r(z0) allows
        g = math.gcd(*vals) or 1
        if g > 1:
            vals = [x // g for x in vals]
        ints = {key: vals[j] for key, j in self.where if vals[j]}
        return ints, Fraction(self.cv * d, g)

    def values(self, z0: Scalar) -> dict[tuple[int, int], Fraction]:
        """The nonzero entries of r(z0); PoleError if the denominator vanishes."""
        ints, scale = self.int_values(z0)
        # entries share few distinct values, so each is divided once
        unscaled = {v: v / scale for v in set(ints.values())}
        return {key: unscaled[v] for key, v in ints.items()}


def build_spectral_R(alg: AlgebraData, r: RTensor, kind: str) -> SpectralRMatrix:
    """Assemble r(z) for `alg` from the constant R-matrix r on its vector
    representation, over the common denominator (q - q^-1 z) D, every
    z-degree at most 2.  That the braced factor is r, that r(1) = P and
    r(0) = q^-1 r, and the degrees follow from these formulas alone; the
    tests prove them, and no job checks them."""
    if kind not in KINDS:
        raise ValueError(f"unknown spectral kind {kind!r}")

    qq = q_minus_qinv()
    # common denominator (q - q^-1 z) * D, as a z-polynomial
    lin = (q_power(1), -q_power(-1))  # q - q^-1 z
    if kind == "untwisted":
        d_pole = (-q_power(alg.m - alg.n - 2), ONE)  # z - q^(m-n-2)
    else:
        d_pole = (q_power(alg.m - alg.n), ONE)  # z + q^(m-n)
    den = _zmul(lin, d_pole)

    # the weight of each piece over the common denominator
    z_poly = (ZERO, ONE)
    z_minus_1 = (-ONE, ONE)
    w_p = _zscale(_zmul(z_poly, d_pole), qq)  # (q-q^-1) z D
    w_e = _zneg(_zscale(_zmul(z_poly, z_minus_1), qq))  # -(q-q^-1) z (z-1)
    w_r = _zneg(_zmul(z_minus_1, d_pole))  # -(z-1) D
    # divide through by the leading denominator coefficient (the unit
    # -q^-1), so that the denominator is monic
    inv = den[-1].inverse()
    den, w_p, w_e, w_r = (_zscale(c, inv) for c in (den, w_p, w_e, w_r))

    p = graded_permutation(alg.gradings)
    return SpectralRMatrix(
        algebra=alg,
        kind=kind,
        gradings=p.gradings,
        den=den,
        pieces=((w_p, p), (w_e, build_E_tensor(alg)), (w_r, r.matrix)),
    )


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


def check_spectral_ybe(spec: SpectralRMatrix, samples: int, seed: int) -> CheckReport:
    """r12(z) r13(zw) r23(w) = r23(w) r13(zw) r12(z), evaluated exactly at
    pseudo-random rational (s0, z0, w0) triples off the pole divisor.

    Both sides are linear in each factor, so each sample takes r at s0 and
    at z0, z0 w0 and w0 as int matrices, ints times one nonzero constant
    (SpectralAtS.int_values), and compares the products row by row, each
    row one int in its weight block (gradedmat.lane_product).  That needs
    every factor to keep total weight: it is checked once, by weight code,
    on the pieces P, E and r on V (x) V, where a sample's entries sit.
    Embedding keeps weight, norms and row counts, so the lane width comes
    from the samples on V (x) V.  A sample whose rows agree is recorded as
    equal (CheckReport.record); a failing one, or one whose pieces do not
    keep weight, is recomputed with `@` on the unscaled values and compared
    by CheckReport.expect_equal, so the witness shows their entries.  Once
    the report has its witness, each later sample is only counted.
    Raises SamplingError if 50 * samples draws do not yield enough
    pole-free points."""
    if samples < 1:
        raise ValueError("need at least one sample")
    report = CheckReport(f"spectral_ybe_{spec.kind}")
    rng = random.Random(seed)
    gv = spec.algebra.gradings
    coords = [w.eps + w.delta for w in spec.algebra.weights]
    lanes = weight_lanes(coords, coords, coords)
    codes = weight_codes(coords, coords, coords)[0]  # as weight_lanes codes V
    totals = [x + y for x in codes for y in codes]
    keeps_weight = all(
        totals[r] == totals[c] for _, mat in spec.pieces for r, c in mat.entries
    )

    def embedded(mats):
        return [embed_triple(m, at, gv, gv, gv) for m, at in zip(mats, ("12", "13", "23"))]

    def symbolic(fixed, points):
        r12, r13, r23 = embedded(
            [GradedMatrix._of(spec.gradings, fixed.values(x)) for x in points]
        )
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    def lanes_equal(ints) -> bool:
        mats = [GradedMatrix._of(spec.gradings, vals) for vals in ints]
        sz, szw, sw = map(pack_stats, mats)
        bits = packing_bits([sz, szw, sw], [sw, szw, sz])
        r12, r13, r23 = embedded(mats)
        lhs, rhs = [r12, r13, r23], [r23, r13, r12]
        return lane_product(lhs, lanes, bits) == lane_product(rhs, lanes, bits)

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
        points = (z0, z0 * w0, w0)
        try:
            ints = [fixed.int_values(x)[0] for x in points]
        except PoleError:
            continue
        rel_id = f"spectral YBE at s={s0}, z={z0}, w={w0}"
        if report.witness is not None or keeps_weight and lanes_equal(ints):
            report.record(rel_id, None)
        else:
            report.expect_equal(rel_id, *symbolic(fixed, points))
        done += 1
    return report
