"""Construction of the sigma-hat family and the Lax / R matrices.

The simple operators are seeded from the raising generators of the chosen
representation; every remaining pair (b, a) with eps_b > eps_a is filled by
the two-term induction relation

    sigma_ba = q^-(eps_b,eps_a) sigma_bc sigma_ca
               - q^-(eps_c,eps_c) (-1)^(([b]+[c])([a]+[c])) sigma_ca sigma_bc

through any intermediate c strictly between a and b with c not barred to
either endpoint.  Pairs are processed by increasing position gap, so both
factors always exist; the choice of intermediate is immaterial (verified
separately as path independence).  Each step has one home,
SigmaSet.step, which keeps it under (b, c, a): the construction's own
step is the stored sigma_ba, and the appendix and path-independence
suites read the same table, so one job forms each step at most once.

Every q-power here is a monomial s^k with k read from an int table:
AlgebraData.pair2 and rho2 for weights of V, Representation.pair2 for a
weight of V against one of W.  The induction step is one fused pass
(GradedMatrix.commutator) with the shifts -pair2[b][a] and -pair2[c][c];
the seeds are shifts and shared monomials, and each entry of
(q - q^-1) q^(h_eps_a) sigma is one qring._times_qq.  R's
blocks have one home, SigmaSet.blocks, which the spectral braced factor
and the delta suite share.  That each sigma_ba shifts weight by
eps_b - eps_a, and so that R is weightless, follows from the seeds and the
induction step; the tests prove it, and no job checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .qring import _times_qq, monomial, q_minus_qinv
from .superroot import AlgebraData
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
    # the induction steps formed from this set's sigma, (b, c, a) -> the
    # step through c; every SigmaSet(...) and dataclasses.replace starts
    # it empty, so a step is never read against another sigma
    steps: dict[tuple[int, int, int], GradedMatrix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def algebra(self) -> AlgebraData:
        return self.rep.algebra

    def step(self, b: int, c: int, a: int) -> GradedMatrix:
        """The two-term induction relation for (b, a) through c, formed
        once and kept in `steps`: one fused pass, with q^-(eps_b,eps_a)
        and q^-(eps_c,eps_c) the shifts -pair2[b][a] and -pair2[c][c]."""
        out = self.steps.get((b, c, a))
        if out is None:
            g, pair2 = self.algebra.gradings, self.algebra.pair2
            sign = -1 if ((g[b] + g[c]) * (g[a] + g[c])) % 2 else 1
            out = self.steps[(b, c, a)] = self.sigma[(b, c)].commutator(
                self.sigma[(c, a)], sign, -pair2[b][a], -pair2[c][c]
            )
        return out

    def is_complete(self) -> bool:
        return set(self.sigma) == set(self.algebra.extended_pairs())

    @cached_property
    def blocks(self) -> dict[tuple[int, int], GradedMatrix]:
        """R = sum E^a_b (x) B_ab as its nonzero blocks, keyed (a, b):
        B_aa = q^(h_eps_a), and B_ab = (q - q^-1)(-1)^[b] q^(h_eps_a) sigma_ba
        for eps_b > eps_a.  Entry (r, c) of B_ab is
        +-(s^(k+2) - s^(k-2)) v for v = sigma_ba[r, c] and
        k = 2 (wt_a, wt_r) = pair2[a][r], formed by qring._times_qq, with
        no shifted or scaled matrix in between.
        assemble_R, the spectral braced factor and the delta suite read
        them."""
        g, pair2, sigma = self.algebra.gradings, self.rep.pair2, self.sigma
        out = {(a, a): qh for a, qh in enumerate(self.rep.qh_eps)}
        for (b, a) in self.algebra.extended_pairs():
            m = sigma[(b, a)]
            if m.entries:
                row, sign = pair2[a], -1 if g[b] % 2 else 1
                out[(a, b)] = GradedMatrix._of(m.gradings, {
                    (r, c): _times_qq(v, row[r], sign) for (r, c), v in m.entries.items()
                })
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
    # comparisons the verifier has made on this R, kept while the R lives
    # (one job) so that suites asserting the same identity share one
    checked: dict = field(default_factory=dict, repr=False, compare=False)


def admissible_intermediates(alg: AlgebraData, b: int, a: int) -> list[int]:
    """Positions c with eps_b > eps_c > eps_a and c not barred to a or b."""
    return [c for c in range(b + 1, a) if c != alg.bar[a] and c != alg.bar[b]]


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
    """Fill every extended pair by increasing position gap, each through
    SigmaSet.step, so the result keeps its own steps.  Both factors of a
    step through an admissible c have a smaller gap, so they are filled."""
    alg = partial.algebra
    out = SigmaSet(partial.rep, dict(partial.sigma), dict(partial.provenance))
    sigma, prov = out.sigma, out.provenance
    for gap in range(1, alg.dim):
        for b in range(alg.dim - gap):
            a = b + gap
            if (b, a) in sigma:
                continue
            mids = admissible_intermediates(alg, b, a)
            if not mids:
                raise ConstructionError(
                    f"no admissible intermediate for pair "
                    f"({alg.labels[b]},{alg.labels[a]})"
                )
            c = mids[0]
            sigma[(b, a)] = out.step(b, c, a)
            prov[(b, a)] = f"recursed(via {alg.labels[c]})"
    return out


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
    return SigmaSet(rep=build_vector_rep(alg), sigma=sigma, provenance=prov)


def assemble_R(sigma: SigmaSet) -> RTensor:
    """The Lax / R matrix on V (x) W, W the representation of `sigma`:

        R = sum_a E^a_a (x) q^(h_eps_a)
            + (q - q^-1) sum_{eps_a < eps_b} (-1)^[b] E^a_b (x) q^(h_eps_a) sigma_ba
    """
    if not sigma.is_complete():
        raise ValueError("incomplete sigma set")
    alg = sigma.algebra
    kind = "vector" if sigma.rep.name == "vector" else "lax"
    return RTensor(
        dims=(alg.dim, sigma.rep.dim),
        matrix=kron_blocks(alg.gradings, sigma.rep.gradings, sigma.blocks),
        kind=kind,
        gradings_v=alg.gradings,
        gradings_w=sigma.rep.gradings,
    )


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
