"""Construction of the sigma-hat family and the Lax / R matrices.

The simple operators are seeded from the raising generators of the chosen
representation; every remaining pair (b, a) with eps_b > eps_a is filled by
the two-term induction relation

    sigma_ba = q^-(eps_b,eps_a) sigma_bc sigma_ca
               - q^-(eps_c,eps_c) (-1)^(([b]+[c])([a]+[c])) sigma_ca sigma_bc

through any intermediate c strictly between a and b with c not barred to
either endpoint.  Pairs are processed by increasing position gap, so both
factors always exist; the choice of intermediate is immaterial (verified
separately as path independence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qring import LaurentPoly, q_minus_qinv, q_power
from .superroot import AlgebraData, Weight, bilinear
from .gradedmat import GradedMatrix, Representation, graded_kron

HALF = Fraction(1, 2)


class ConstructionError(RuntimeError):
    """Internal ordering bug: a non-seeded pair has no admissible intermediate."""


@dataclass
class SigmaSet:
    """The complete family {sigma_ba : eps_b > eps_a} in one representation."""

    rep: Representation
    sigma: dict[tuple[int, int], GradedMatrix]
    provenance: dict[tuple[int, int], str]

    @property
    def algebra(self) -> AlgebraData:
        return self.rep.algebra

    def pair_weight(self, b: int, a: int) -> Weight:
        alg = self.algebra
        return alg.weights[b] - alg.weights[a]

    def pair_parity(self, b: int, a: int) -> int:
        alg = self.algebra
        return (alg.gradings[a] + alg.gradings[b]) % 2

    def is_complete(self) -> bool:
        return set(self.sigma) == set(self.algebra.extended_pairs())

    def to_json(self) -> dict:
        alg = self.algebra

        def key(pair: tuple[int, int]) -> str:
            return f"{alg.labels[pair[0]]},{alg.labels[pair[1]]}"

        return {
            "algebra": {"m": alg.m, "n": alg.n},
            "rep_name": self.rep.name,
            "entries": {
                key(p): {
                    "matrix": [
                        [r + 1, c + 1, str(v)]
                        for (r, c), v in sorted(self.sigma[p].entries.items())
                    ],
                    "provenance": self.provenance[p],
                }
                for p in sorted(self.sigma)
            },
        }


@dataclass
class RTensor:
    """An R-type matrix on a graded tensor product of two spaces."""

    dims: tuple[int, int]
    matrix: GradedMatrix
    kind: str  # lax | vector | opposite
    gradings_v: tuple[int, ...]
    gradings_w: tuple[int, ...]


def admissible_intermediates(alg: AlgebraData, b: int, a: int) -> list[int]:
    """Positions c with eps_b > eps_c > eps_a and c not barred to a or b."""
    return [c for c in range(b + 1, a) if c != alg.bar[a] and c != alg.bar[b]]


def induction_step(
    sigma_bc: GradedMatrix,
    sigma_ca: GradedMatrix,
    alg: AlgebraData,
    b: int,
    c: int,
    a: int,
) -> GradedMatrix:
    """One application of the two-term induction relation through c."""
    w = alg.weights
    g = alg.gradings
    coeff1 = q_power(-bilinear(w[b], w[a]))
    coeff2 = q_power(-bilinear(w[c], w[c]))
    sign = -1 if ((g[b] + g[c]) * (g[a] + g[c])) % 2 else 1
    first = (sigma_bc @ sigma_ca).scale(coeff1)
    second = (sigma_ca @ sigma_bc).scale(coeff2 * sign)
    return first - second


def init_simple_sigma(rep: Representation) -> SigmaSet:
    """Seed the simple pairs from the raising generators (Table-1 pattern)."""
    alg = rep.algebra
    sigma: dict[tuple[int, int], GradedMatrix] = {}
    prov: dict[tuple[int, int], str] = {}
    pe, po, bar = alg.pos_even, alg.pos_odd, alg.bar

    def seed(pair: tuple[int, int], mat: GradedMatrix) -> None:
        sigma[pair] = mat
        prov[pair] = "simple"

    def big_e(label: str, prefactor: Fraction) -> GradedMatrix:
        return rep.big_e(label).scale(q_power(prefactor))

    for i in range(1, alg.l):
        val = big_e(f"i{i}", HALF)  # q^(1/2) e_i q^(h_i/2)
        seed((pe(i), pe(i + 1)), val)
        seed((bar[pe(i + 1)], bar[pe(i)]), -val)
    if alg.m == 2 * alg.l:
        val = big_e("l", HALF)
        seed((pe(alg.l - 1), bar[pe(alg.l)]), val)
        seed((pe(alg.l), bar[pe(alg.l - 1)]), -val)
        sigma[(pe(alg.l), bar[pe(alg.l)])] = GradedMatrix.zeros(rep.gradings)
        prov[(pe(alg.l), bar[pe(alg.l)])] = "forced_zero"
    else:
        val = big_e("l", Fraction(0))  # e_l q^(h_l/2), no prefactor
        seed((pe(alg.l), pe(alg.l + 1)), val)
        seed((pe(alg.l + 1), bar[pe(alg.l)]), val.scale(q_power(HALF)).scale(-1))
    for mu in range(1, alg.k):
        val = big_e(f"mu{mu}", -HALF)  # q^(-1/2) e_mu q^(h_mu/2)
        seed((po(mu), po(mu + 1)), val)
        seed((bar[po(mu + 1)], bar[po(mu)]), val)
    if alg.n > 0:
        val = big_e("s", HALF)
        seed((po(alg.k), pe(1)), val)
        factor = q_power(-1) * ((-1) ** alg.k)
        seed((bar[pe(1)], bar[po(alg.k)]), val.scale(factor))
    return SigmaSet(rep=rep, sigma=sigma, provenance=prov)


def extend_sigma(partial: SigmaSet) -> SigmaSet:
    """Fill every extended pair by increasing position gap."""
    alg = partial.algebra
    sigma = dict(partial.sigma)
    prov = dict(partial.provenance)
    for gap in range(1, alg.dim):
        for b in range(alg.dim - gap):
            a = b + gap
            if (b, a) in sigma:
                continue
            mids = [c for c in admissible_intermediates(alg, b, a)
                    if (b, c) in sigma and (c, a) in sigma]
            if not mids:
                raise ConstructionError(
                    f"no admissible intermediate for pair "
                    f"({alg.labels[b]},{alg.labels[a]})"
                )
            c = mids[0]
            sigma[(b, a)] = induction_step(sigma[(b, c)], sigma[(c, a)], alg, b, c, a)
            prov[(b, a)] = f"recursed(via {alg.labels[c]})"
    out = SigmaSet(rep=partial.rep, sigma=sigma, provenance=prov)
    _check_weight_homogeneity(out)
    return out


def _check_weight_homogeneity(ss: SigmaSet) -> None:
    rep = ss.rep
    for (b, a), mat in ss.sigma.items():
        shift = ss.pair_weight(b, a)
        for (r, c) in mat.entries:
            if rep.weights[r] - rep.weights[c] != shift:
                raise AssertionError(
                    f"sigma({ss.algebra.labels[b]},{ss.algebra.labels[a]}) is not "
                    f"weight-homogeneous at entry ({r + 1},{c + 1})"
                )


def closed_form_sigma(alg: AlgebraData) -> SigmaSet:
    """Independent closed form on the vector representation:

        sigma_ba = q^-(eps_a,eps_b) E^b_a
                   - (-1)^([b]([a]+[b])) xi_a xi_b q^(eps_a,eps_a)
                     q^(rho, eps_a - eps_b) E^bar(a)_bar(b)
    """
    from .gradedmat import build_vector_rep

    rep = build_vector_rep(alg)
    g, w, xi, bar = alg.gradings, alg.weights, alg.xi, alg.bar
    sigma: dict[tuple[int, int], GradedMatrix] = {}
    prov: dict[tuple[int, int], str] = {}
    for (b, a) in alg.extended_pairs():
        entries: dict[tuple[int, int], LaurentPoly] = {}
        lead = q_power(-bilinear(w[a], w[b]))
        entries[(b, a)] = lead
        sign = -1 if (g[b] * (g[a] + g[b])) % 2 else 1
        coeff = q_power(
            bilinear(w[a], w[a]) + bilinear(alg.rho, w[a] - w[b])
        ) * (-sign * xi[a] * xi[b])
        key = (bar[a], bar[b])
        acc = entries.get(key, LaurentPoly.zero()) + coeff
        if acc:
            entries[key] = acc
        elif key in entries:
            del entries[key]
        sigma[(b, a)] = GradedMatrix(alg.gradings, entries)
        prov[(b, a)] = "closed_form"
    out = SigmaSet(rep=rep, sigma=sigma, provenance=prov)
    _check_weight_homogeneity(out)
    return out


def sigma_tilde(sigma: SigmaSet, b: int, a: int) -> GradedMatrix:
    """sigma~_ba = q^(h_eps_a) sigma_ba (vector representation form)."""
    qh = sigma.rep.qh_diag(sigma.algebra.weights[a], 1)
    return qh @ sigma.sigma[(b, a)]


def assemble_R(sigma: SigmaSet) -> RTensor:
    """The Lax / R matrix on V (x) W, W the representation of `sigma`:

        R = sum_a E^a_a (x) q^(h_eps_a)
            + (q - q^-1) sum_{eps_a < eps_b} (-1)^[b] E^a_b (x) q^(h_eps_a) sigma_ba
    """
    if not sigma.is_complete():
        raise ValueError("incomplete sigma set")
    alg = sigma.algebra
    gv = alg.gradings
    parts: list[GradedMatrix] = []
    for a in range(alg.dim):
        parts.append(
            graded_kron(
                GradedMatrix.elementary(a, a, gv),
                sigma.rep.qh_diag(alg.weights[a], 1),
            )
        )
    qq = q_minus_qinv()
    for (b, a) in alg.extended_pairs():
        mat = sigma.rep.qh_diag(alg.weights[a], 1) @ sigma.sigma[(b, a)]
        if mat.is_zero():
            continue
        sign = -1 if gv[b] % 2 else 1
        parts.append(
            graded_kron(GradedMatrix.elementary(a, b, gv), mat.scale(qq * sign))
        )
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    kind = "vector" if sigma.rep.name == "vector" else "lax"
    out = RTensor(
        dims=(alg.dim, sigma.rep.dim),
        matrix=total,
        kind=kind,
        gradings_v=alg.gradings,
        gradings_w=sigma.rep.gradings,
    )
    _check_weightless(out, sigma)
    return out


def _check_weightless(r: RTensor, sigma: SigmaSet) -> None:
    """R commutes with q^(h_w) (x) q^(h_w) for every Cartan weight w.

    That operator is diagonal with entry q^((w, wt_a) + (w, wt_b)) at
    composite index (a, b), and q-powers never vanish, so it commutes with
    R exactly when the exponents at the row and at the column of every
    nonzero entry of R agree."""
    alg = sigma.algebra
    basis = [Weight.eps_unit(i, alg.l, alg.k) for i in range(1, alg.l + 1)]
    basis += [Weight.delta_unit(mu, alg.l, alg.k) for mu in range(1, alg.k + 1)]
    for w in basis:
        exp_v = [bilinear(w, wa) for wa in alg.weights]
        exp_w = [bilinear(w, wb) for wb in sigma.rep.weights]
        exps = [a + b for a in exp_v for b in exp_w]
        for (i, j) in r.matrix.entries:
            if exps[i] != exps[j]:
                raise AssertionError(f"R is not weightless against weight {w}")


def opposite_R(sigma: SigmaSet) -> RTensor:
    """The opposite R-matrix on V (x) V (vector representation only):

        R^T = sum q^(eps_a,eps_b) E^a_a (x) E^b_b
              + (q - q^-1) sum_{eps_b > eps_a} (-1)^[a] E^b_a (x) sigma~_ab

    with sigma~_ab = E^a_b - (-1)^([a]([a]+[b])) xi_a xi_b
    q^(rho, eps_a - eps_b) E^bar(b)_bar(a).  Its equality with the graded
    dagger of R and with P R P is the `opposite` suite's to check.
    """
    if sigma.rep.name != "vector":
        raise ValueError("opposite_R is defined on the vector representation")
    alg = sigma.algebra
    g, w, xi, bar, gv = alg.gradings, alg.weights, alg.xi, alg.bar, alg.gradings
    parts: list[GradedMatrix] = []
    for a in range(alg.dim):
        for b in range(alg.dim):
            parts.append(
                graded_kron(
                    GradedMatrix.elementary(a, a, gv),
                    GradedMatrix.elementary(b, b, gv),
                ).scale(q_power(bilinear(w[a], w[b])))
            )
    qq = q_minus_qinv()
    for (b, a) in alg.extended_pairs():
        entries: dict[tuple[int, int], LaurentPoly] = {(a, b): LaurentPoly.one()}
        sign = -1 if (g[a] * (g[a] + g[b])) % 2 else 1
        coeff = q_power(bilinear(alg.rho, w[a] - w[b])) * (-sign * xi[a] * xi[b])
        key = (bar[b], bar[a])
        acc = entries.get(key, LaurentPoly.zero()) + coeff
        if acc:
            entries[key] = acc
        elif key in entries:
            del entries[key]
        tilde_ab = GradedMatrix(gv, entries)
        outer = -1 if g[a] % 2 else 1
        parts.append(
            graded_kron(GradedMatrix.elementary(b, a, gv), tilde_ab.scale(qq * outer))
        )
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return RTensor(
        dims=(alg.dim, alg.dim),
        matrix=total,
        kind="opposite",
        gradings_v=gv,
        gradings_w=gv,
    )
