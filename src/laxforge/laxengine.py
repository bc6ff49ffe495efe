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

Every q-power here is a monomial s^k with k read from an int table:
AlgebraData.pair2 and rho2 for weights of V, Representation.pair2 for a
weight of V against one of W.  The induction step is one fused pass
(GradedMatrix.commutator) with the shifts -pair2[b][a] and -pair2[c][c];
the seeds and q^(h_eps_a) sigma are shifts and shared monomials.  R's
blocks have one home, SigmaSet.blocks, which the spectral braced factor
and the delta suite share.  The weight checks of sigma and R compare
weights as coordinate tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .qring import monomial, q_minus_qinv
from .superroot import AlgebraData, Weight
from .gradedmat import (
    GradedMatrix,
    Representation,
    build_vector_rep,
    entry_triples,
    kron_blocks,
    pi_sigma,
)


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

    def is_complete(self) -> bool:
        return set(self.sigma) == set(self.algebra.extended_pairs())

    @cached_property
    def blocks(self) -> dict[tuple[int, int], GradedMatrix]:
        """R = sum E^a_b (x) B_ab as its nonzero blocks, keyed (a, b):
        B_aa = q^(h_eps_a), and B_ab = (q - q^-1)(-1)^[b] q^(h_eps_a) sigma_ba
        for eps_b > eps_a, each row r of sigma_ba shifted by 2 (wt_a, wt_r).
        assemble_R, the spectral braced factor and the delta suite read
        them."""
        g, pair2, sigma = self.algebra.gradings, self.rep.pair2, self.sigma
        qq = q_minus_qinv()
        neg = -qq
        out = {(a, a): qh for a, qh in enumerate(self.rep.qh_eps)}
        for (b, a) in self.algebra.extended_pairs():
            if not sigma[(b, a)].is_zero():
                t = sigma[(b, a)].shifted(rows=pair2[a])
                out[(a, b)] = t.scale(neg if g[b] % 2 else qq)
        return out

    def to_json(self) -> dict:
        alg = self.algebra

        def key(pair: tuple[int, int]) -> str:
            return f"{alg.labels[pair[0]]},{alg.labels[pair[1]]}"

        return {
            "algebra": {"m": alg.m, "n": alg.n},
            "rep_name": self.rep.name,
            "entries": {
                key(p): {
                    "matrix": entry_triples(self.sigma[p].entries),
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
    """One application of the two-term induction relation through c, as
    one fused pass: q^-(eps_b,eps_a) and q^-(eps_c,eps_c) are the shifts
    -pair2[b][a] and -pair2[c][c]."""
    g, pair2 = alg.gradings, alg.pair2
    sign = -1 if ((g[b] + g[c]) * (g[a] + g[c])) % 2 else 1
    return sigma_bc.commutator(sigma_ca, sign, -pair2[b][a], -pair2[c][c])


def init_simple_sigma(rep: Representation) -> SigmaSet:
    """Seed each simple pair (b, a) and its mirror (bar(a), bar(b)) from
    the raising generator E = e q^(h/2) of its root (Table-1 pattern):
    sigma_ba = q^t E and sigma_bar(a)bar(b) = c sigma_ba, with

        i and even-m l: t = 1/2, c = -1;   odd-m l: t = 0, c = -q^(1/2);
        mu: t = -1/2, c = 1;               s: t = 1/2, c = (-1)^k q^-1.

    Each is a shift: q^t by 2t, and c = +-s^j by j with its sign.
    For even m the pair (i_l, bar(i_l)) is zero."""
    alg, bar = rep.algebra, rep.algebra.bar
    sigma: dict[tuple[int, int], GradedMatrix] = {}
    for label in alg.root_labels():
        # (2t, the exponent j of c, the sign of c)
        if label == "s":
            two_t, j, sign = 1, -2, (-1) ** alg.k
        elif label.startswith("mu"):
            two_t, j, sign = -1, 0, 1
        elif label == "l" and alg.m % 2:
            two_t, j, sign = 0, 1, -1
        else:
            two_t, j, sign = 1, 0, -1
        b, a = alg.simple_pair(label)
        val = rep.big_e(label).shifted(two_t)
        sigma[(b, a)], sigma[(bar[a], bar[b])] = val, val.shifted(j, sign)
    prov = dict.fromkeys(sigma, "simple")
    if alg.m == 2 * alg.l:
        _, a = alg.simple_pair("l")
        sigma[(bar[a], a)] = GradedMatrix.zeros(rep.gradings)
        prov[(bar[a], a)] = "forced_zero"
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
    coords = [w.eps + w.delta for w in ss.algebra.weights]
    for (b, a), mat in ss.sigma.items():
        bad = ss.rep.off_weight_entry(mat, tuple(map(sub, coords[b], coords[a])))
        if bad is not None:
            r, c = bad
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
    pair2, rho2 = alg.pair2, alg.rho2
    sigma = {
        (b, a): pi_sigma(
            alg, b, a,
            lead=monomial(-pair2[a][b]),
            tail=monomial(pair2[a][a] + rho2[a] - rho2[b]),
        )
        for (b, a) in alg.extended_pairs()
    }
    prov = dict.fromkeys(sigma, "closed_form")
    out = SigmaSet(rep=build_vector_rep(alg), sigma=sigma, provenance=prov)
    _check_weight_homogeneity(out)
    return out


def assemble_R(sigma: SigmaSet) -> RTensor:
    """The Lax / R matrix on V (x) W, W the representation of `sigma`:

        R = sum_a E^a_a (x) q^(h_eps_a)
            + (q - q^-1) sum_{eps_a < eps_b} (-1)^[b] E^a_b (x) q^(h_eps_a) sigma_ba
    """
    if not sigma.is_complete():
        raise ValueError("incomplete sigma set")
    alg = sigma.algebra
    kind = "vector" if sigma.rep.name == "vector" else "lax"
    out = RTensor(
        dims=(alg.dim, sigma.rep.dim),
        matrix=kron_blocks(alg.gradings, sigma.rep.gradings, sigma.blocks),
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
    nonzero entry of R agree.  For the unit weights w = eps_i, delta_mu
    these exponents are, up to sign, the coordinates of wt_a + wt_b, so
    all units are compared at once on coordinate tuples; the first unit
    weight that any entry fails is named."""
    alg = sigma.algebra
    on_v = [w.eps + w.delta for w in alg.weights]
    totals = [tuple(map(add, x, y)) for x in on_v for y in sigma.rep.weight_coords]
    first = min(
        (
            next(j for j, (x, y) in enumerate(zip(totals[i], totals[c])) if x != y)
            for (i, c) in r.matrix.entries if totals[i] != totals[c]
        ),
        default=None,
    )
    if first is not None:
        if first < alg.l:
            w = Weight.eps_unit(first + 1, alg.l, alg.k)
        else:
            w = Weight.delta_unit(first - alg.l + 1, alg.l, alg.k)
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
    gv, rho2 = alg.gradings, alg.rho2
    # sum_b q^(eps_a,eps_b) E^b_b is q^(h_eps_a) on V
    blocks = {(a, a): qh for a, qh in enumerate(sigma.rep.qh_eps)}
    qq = q_minus_qinv()
    for (b, a) in alg.extended_pairs():
        tilde_ab = pi_sigma(alg, a, b, tail=monomial(rho2[a] - rho2[b]))
        outer = -1 if gv[a] % 2 else 1
        blocks[(b, a)] = tilde_ab.scale(qq * outer)
    return RTensor(
        dims=(alg.dim, alg.dim),
        matrix=kron_blocks(gv, gv, blocks),
        kind="opposite",
        gradings_v=gv,
        gradings_w=gv,
    )
