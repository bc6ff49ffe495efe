"""Executable property suites for the R-matrix and the sigma-hat family.

Every identity is checked exactly over the Laurent ring; a failing suite
reports the first offending relation together with the matrix position and
both entry values, so negative controls produce a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qring import LaurentPoly, ZERO, q_minus_qinv, q_power
from .superroot import Weight, bilinear
from .gradedmat import (
    GradedMatrix,
    Representation,
    embed_triple,
    graded_kron,
    graded_permutation,
    tensor_dagger,
)
from .laxengine import (
    RTensor,
    SigmaSet,
    admissible_intermediates,
    induction_step,
)


@dataclass
class CheckReport:
    """Outcome of one property suite."""

    check: str
    status: str  # "pass" | "fail"
    relations_checked: int
    witness: dict | None = None

    @property
    def vacuous(self) -> bool:
        return self.status == "pass" and self.relations_checked == 0

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "status": self.status,
            "relations_checked": self.relations_checked,
        }
        if self.vacuous:
            out["vacuous"] = True
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _first_diff(lhs: GradedMatrix, rhs: GradedMatrix):
    for key in sorted(set(lhs.entries) | set(rhs.entries)):
        a = lhs.entries.get(key, ZERO)
        b = rhs.entries.get(key, ZERO)
        if a != b:
            return key, a, b
    return None


class _Suite:
    """Accumulates exact matrix comparisons into a CheckReport."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.witness: dict | None = None

    def expect_equal(self, rel_id: str, lhs: GradedMatrix, rhs: GradedMatrix) -> None:
        self.count += 1
        if self.witness is None and lhs != rhs:
            (r, c), a, b = _first_diff(lhs, rhs)
            self.witness = {
                "relation": rel_id,
                "row": r + 1,
                "col": c + 1,
                "lhs": str(a),
                "rhs": str(b),
            }

    def report(self) -> CheckReport:
        status = "pass" if self.witness is None else "fail"
        return CheckReport(self.name, status, self.count, self.witness)


# ---------------------------------------------------------------------------
# Yang-Baxter checks
# ---------------------------------------------------------------------------


def check_ybe(r: RTensor) -> CheckReport:
    """R12 R13 R23 = R23 R13 R12 on V (x) V (x) V, exactly."""
    suite = _Suite("ybe")
    gv = r.gradings_v
    if r.gradings_w != gv:
        raise ValueError("check_ybe requires an R-matrix on V (x) V")
    r12, r13, r23 = (embed_triple(r.matrix, s, gv, gv, gv) for s in ("12", "13", "23"))
    suite.expect_equal("R12 R13 R23 = R23 R13 R12", r12 @ r13 @ r23, r23 @ r13 @ r12)
    return suite.report()


def check_lax_ybe(rv: RTensor, rw: RTensor) -> CheckReport:
    """r12 R13 R23 = R23 R13 r12 on V (x) V (x) W."""
    suite = _Suite("lax_ybe")
    gv, gw = rv.gradings_v, rw.gradings_w
    if rv.gradings_w != gv or rw.gradings_v != gv:
        raise ValueError("slot dimensions do not match: need rv on V(x)V, rw on V(x)W")
    r12 = embed_triple(rv.matrix, "12", gv, gv, gw)
    r13 = embed_triple(rw.matrix, "13", gv, gv, gw)
    r23 = embed_triple(rw.matrix, "23", gv, gv, gw)
    suite.expect_equal("r12 R13 R23 = R23 R13 r12", r12 @ r13 @ r23, r23 @ r13 @ r12)
    return suite.report()


# ---------------------------------------------------------------------------
# Intertwining and coproduct
# ---------------------------------------------------------------------------


def _coproduct(rep: Representation, label: str) -> dict[str, GradedMatrix]:
    """Matrices of Delta(e), Delta(f), Delta(q^(+-h/2)) on V (x) V."""
    alpha = rep.algebra.root(label)
    qp = rep.qh_diag(alpha, "1/2")
    qm = rep.qh_diag(alpha, "-1/2")
    return {
        "e": graded_kron(qp, rep.e[label]) + graded_kron(rep.e[label], qm),
        "f": graded_kron(qp, rep.f[label]) + graded_kron(rep.f[label], qm),
        "h+": graded_kron(qp, qp),
        "h-": graded_kron(qm, qm),
    }


def check_intertwining(r: RTensor, rep: Representation) -> CheckReport:
    """R Delta(x) = Delta^T(x) R for all simple e, f and Cartan half-powers.

    Delta^T is conjugation of Delta by the graded permutation.
    """
    suite = _Suite("intertwining")
    p = graded_permutation(rep.gradings)
    for label in rep.algebra.root_labels():
        for kind, dx in _coproduct(rep, label).items():
            suite.expect_equal(
                f"R Delta({kind}_{label}) = Delta^T({kind}_{label}) R",
                r.matrix @ dx,
                (p @ dx @ p) @ r.matrix,
            )
    return suite.report()


def _delta_sigma(sigma: SigmaSet, b: int, a: int) -> GradedMatrix:
    """Delta(sigma_ba) = sigma_ba (x) I + q^(h_b - h_a) (x) sigma_ba
    + (q - q^-1) sum_{b < c < a} (-1)^[c] q^(h_c - h_a) sigma_bc (x) sigma_ca.
    """
    rep = sigma.rep
    alg = sigma.algebra
    w = alg.weights
    ident = GradedMatrix.identity(rep.gradings)
    total = graded_kron(sigma.sigma[(b, a)], ident)
    total = total + graded_kron(rep.qh_diag(w[b] - w[a], 1), sigma.sigma[(b, a)])
    qq = q_minus_qinv()
    for c in range(b + 1, a):
        sign = -1 if alg.gradings[c] % 2 else 1
        left = rep.qh_diag(w[c] - w[a], 1) @ sigma.sigma[(b, c)]
        total = total + graded_kron(left, sigma.sigma[(c, a)]).scale(qq * sign)
    return total


def check_delta_property(sigma: SigmaSet, r: RTensor) -> CheckReport:
    """(id (x) Delta) R = R13 R12 with Delta(sigma_ba) from the displayed
    coproduct formula; a single exact identity on V (x) V (x) V.

    `r` is the R-matrix under test, normally the one assembled from `sigma`.
    """
    suite = _Suite("delta_property")
    rep = sigma.rep
    alg = sigma.algebra
    gv = rep.gradings
    qq = q_minus_qinv()

    parts = []
    for a in range(alg.dim):
        qh = rep.qh_diag(alg.weights[a], 1)
        parts.append(
            graded_kron(GradedMatrix.elementary(a, a, alg.gradings), graded_kron(qh, qh))
        )
    for (b, a) in alg.extended_pairs():
        qh = rep.qh_diag(alg.weights[a], 1)
        mat = graded_kron(qh, qh) @ _delta_sigma(sigma, b, a)
        if mat.is_zero():
            continue
        sign = -1 if alg.gradings[b] % 2 else 1
        parts.append(
            graded_kron(GradedMatrix.elementary(a, b, alg.gradings), mat.scale(qq * sign))
        )
    lhs = parts[0]
    for piece in parts[1:]:
        lhs = lhs + piece

    r12 = embed_triple(r.matrix, "12", gv, gv, gv)
    r13 = embed_triple(r.matrix, "13", gv, gv, gv)
    suite.expect_equal("(id (x) Delta) R = R13 R12", lhs, r13 @ r12)
    return suite.report()


# ---------------------------------------------------------------------------
# q-Serre relations
# ---------------------------------------------------------------------------


def _adjoint(
    rep: Representation,
    op: GradedMatrix,
    root: Weight,
    op_parity: int,
    x: GradedMatrix,
    x_parity: int,
) -> GradedMatrix:
    """ad op . x = op x - (-1)^([op][x]) (q^h x q^-h) op, h the root of op."""
    conj = rep.qh_diag(root, 1) @ x @ rep.qh_diag(root, -1)
    sign = -1 if (op_parity * x_parity) % 2 else 1
    return (op @ x) - (conj @ op).scale(sign)


def check_qserre(rep: Representation) -> CheckReport:
    """(ad E_b .)^(1 - a_bc) E_c = 0 for b != c with (alpha_b, alpha_b) != 0."""
    suite = _Suite("qserre")
    alg = rep.algebra
    labels = alg.root_labels()
    for bi, lb in enumerate(labels):
        if bilinear(alg.root(lb), alg.root(lb)) == 0:
            continue
        eb = rep.big_e(lb)
        pb = alg.root_parity(lb)
        for ci, lc in enumerate(labels):
            if lb == lc:
                continue
            a_bc = alg.cartan[bi][ci]
            power = int(1 - a_bc)
            x = rep.big_e(lc)
            px = alg.root_parity(lc)
            for _ in range(power):
                x = _adjoint(rep, eb, alg.root(lb), pb, x, px)
                px = (px + pb) % 2
            suite.expect_equal(
                f"(ad E_{lb} .)^{power} E_{lc} = 0",
                x,
                GradedMatrix.zeros(rep.gradings),
            )
    return suite.report()


def check_extra_serre(sigma: SigmaSet) -> CheckReport:
    """The two extra q-Serre relations tied to the isotropic root:

        [A, ad B . (ad A . C)] = 0  and  [A, ad C . (ad A . B)] = 0

    with A the isotropic simple operator, B the last odd-odd simple
    operator and C the first even-even one.  Needs k >= 2 and l >= 2;
    smaller algebras give a vacuous report.
    """
    suite = _Suite("extra_serre")
    alg = sigma.algebra
    if alg.k < 2 or alg.l < 2:
        return suite.report()
    rep = sigma.rep
    po, pe = alg.pos_odd, alg.pos_even

    def simple(pair: tuple[int, int]):
        mat = sigma.sigma[pair]
        root = alg.weights[pair[0]] - alg.weights[pair[1]]
        return mat, root, sigma.pair_parity(*pair)

    a_op = simple((po(alg.k), pe(1)))
    b_op = simple((po(alg.k - 1), po(alg.k)))
    c_op = simple((pe(1), pe(2)))
    zero = GradedMatrix.zeros(rep.gradings)

    for rel_id, mid in (
        ("[A, [B, [A, C]_q]_q] = 0 (A isotropic)", (b_op, c_op)),
        ("[A, [C, [A, B]_q]_q] = 0 (A isotropic)", (c_op, b_op)),
    ):
        middle, inner = mid
        x = _adjoint(rep, a_op[0], a_op[1], a_op[2], inner[0], inner[2])
        px = (a_op[2] + inner[2]) % 2
        x = _adjoint(rep, middle[0], middle[1], middle[2], x, px)
        px = (px + middle[2]) % 2
        suite.expect_equal(rel_id, a_op[0].bracket(x, a_op[2], px), zero)
    return suite.report()


# ---------------------------------------------------------------------------
# q-commutation, appendix relations, path independence, opposite
# ---------------------------------------------------------------------------


def check_qcom(sigma: SigmaSet) -> CheckReport:
    """q^((a_c, e_b)) sigma_ba E_c
       = (-1)^(([a]+[b])[c]) q^(-(a_c, e_a)) E_c sigma_ba
    whenever neither e_a - a_c nor e_b + a_c is a basis weight."""
    suite = _Suite("qcom")
    alg = sigma.algebra
    rep = sigma.rep
    w = alg.gradings, alg.weights
    g, weights = w
    wset = {(x.eps, x.delta) for x in weights}
    for label in alg.root_labels():
        alpha = alg.root(label)
        pc = alg.root_parity(label)
        ec = rep.big_e(label)
        for (b, a) in alg.extended_pairs():
            down = weights[a] - alpha
            up = weights[b] + alpha
            if (down.eps, down.delta) in wset or (up.eps, up.delta) in wset:
                continue
            sign = -1 if ((g[a] + g[b]) * pc) % 2 else 1
            lhs = (sigma.sigma[(b, a)] @ ec).scale(q_power(bilinear(alpha, weights[b])))
            rhs = (ec @ sigma.sigma[(b, a)]).scale(
                q_power(-bilinear(alpha, weights[a])) * sign
            )
            suite.expect_equal(
                f"qcom[{label}; {alg.labels[b]},{alg.labels[a]}]", lhs, rhs
            )
    return suite.report()


def check_appendix(sigma: SigmaSet) -> CheckReport:
    """Every induction and commutation relation from the three appendix
    tables, instantiated over its full index range."""
    suite = _Suite("appendix")
    alg = sigma.algebra
    S = sigma.sigma
    pe, po, bar = alg.pos_even, alg.pos_odd, alg.bar
    w, g = alg.weights, alg.gradings
    dim, l, k = alg.dim, alg.l, alg.k
    lab = alg.labels

    def q(t) -> LaurentPoly:
        return q_power(t)

    def two_term(rel, lhs_pair, c1, first, second, c2):
        """lhs = c1 * S[first] S[second] - c2 * S[second] S[first]."""
        rhs = (S[first] @ S[second]).scale(c1) - (S[second] @ S[first]).scale(c2)
        suite.expect_equal(rel, S[lhs_pair], rhs)

    # --- common relations (all m) --------------------------------------
    for i in range(1, l):
        ei, ei1 = pe(i), pe(i + 1)
        ai = alg.root(f"i{i}")
        for b in range(ei):
            two_term(
                f"common: sigma({lab[b]},i{i+1}) via i{i}",
                (b, ei1), LaurentPoly.one(), (b, ei), (ei, ei1), q(-1),
            )
        for a in range(bar[ei] + 1, dim):
            two_term(
                f"common: sigma(bar(i{i+1}),{lab[a]}) via bar(i{i})",
                (bar[ei1], a), LaurentPoly.one(), (bar[ei1], bar[ei]), (bar[ei], a), q(-1),
            )
        for b in range(bar[ei1]):
            if b == ei1:
                continue
            two_term(
                f"common: sigma({lab[b]},bar(i{i})) via bar(i{i+1})",
                (b, bar[ei]), q(bilinear(ai, w[b])), (b, bar[ei1]), (bar[ei1], bar[ei]), q(-1),
            )
        for a in range(ei1 + 1, dim):
            if a == bar[ei1]:
                continue
            two_term(
                f"common: sigma(i{i},{lab[a]}) via i{i+1}",
                (ei, a), q(-bilinear(ai, w[a])), (ei, ei1), (ei1, a), q(-1),
            )
        lhs = S[(ei1, bar[ei])] + S[(ei, bar[ei1])]
        x, y = S[(ei, ei1)], S[(ei1, bar[ei1])]
        suite.expect_equal(
            f"common: sigma(i{i+1},bar(i{i})) + sigma(i{i},bar(i{i+1})) "
            f"= q^-1 [sigma(i{i},i{i+1}), sigma(i{i+1},bar(i{i+1}))]",
            lhs, ((x @ y) - (y @ x)).scale(q(-1)),
        )
        for (b, a) in alg.extended_pairs():
            if a in (ei, bar[ei1]) or b in (ei1, bar[ei]):
                continue
            suite.expect_equal(
                f"common qcom[i{i}; {lab[b]},{lab[a]}]",
                (S[(b, a)] @ S[(ei, ei1)]).scale(q(bilinear(ai, w[b]))),
                (S[(ei, ei1)] @ S[(b, a)]).scale(q(-bilinear(ai, w[a]))),
            )

    for mu in range(1, k):
        om, om1 = po(mu), po(mu + 1)
        am = alg.root(f"mu{mu}")
        for nu in range(1, mu):
            two_term(
                f"common: sigma(mu{nu},mu{mu+1}) via mu{mu}",
                (po(nu), om1), LaurentPoly.one(), (po(nu), om), (om, om1), q(1),
            )
            two_term(
                f"common: sigma(bar(mu{mu+1}),bar(mu{nu})) via bar(mu{mu})",
                (bar[om1], bar[po(nu)]), LaurentPoly.one(),
                (bar[om1], bar[om]), (bar[om], bar[po(nu)]), q(1),
            )
        for b in range(bar[om1]):
            if b == om1:
                continue
            two_term(
                f"common: sigma({lab[b]},bar(mu{mu})) via bar(mu{mu+1})",
                (b, bar[om]), q(bilinear(am, w[b])), (b, bar[om1]), (bar[om1], bar[om]), q(1),
            )
        for a in range(om1 + 1, dim):
            if a == bar[om1]:
                continue
            two_term(
                f"common: sigma(mu{mu},{lab[a]}) via mu{mu+1}",
                (om, a), q(-bilinear(am, w[a])), (om, om1), (om1, a), q(1),
            )
        lhs = S[(om1, bar[om])] - S[(om, bar[om1])]
        x, y = S[(om1, bar[om1])], S[(om, om1)]
        suite.expect_equal(
            f"common: sigma(mu{mu+1},bar(mu{mu})) - sigma(mu{mu},bar(mu{mu+1})) "
            f"= q [sigma(mu{mu+1},bar(mu{mu+1})), sigma(mu{mu},mu{mu+1})]",
            lhs, ((x @ y) - (y @ x)).scale(q(1)),
        )
        for (b, a) in alg.extended_pairs():
            if a in (om, bar[om1]) or b in (om1, bar[om]):
                continue
            suite.expect_equal(
                f"common qcom[mu{mu}; {lab[b]},{lab[a]}]",
                (S[(b, a)] @ S[(om, om1)]).scale(q(bilinear(am, w[b]))),
                (S[(om, om1)] @ S[(b, a)]).scale(q(-bilinear(am, w[a]))),
            )

    if alg.n > 0:
        ok, e1 = po(k), pe(1)
        a_s = alg.root("s")
        for nu in range(1, k):
            two_term(
                f"common: sigma(mu{nu},i1) via mu{k}",
                (po(nu), e1), LaurentPoly.one(), (po(nu), ok), (ok, e1), q(1),
            )
            two_term(
                f"common: sigma(bar(i1),bar(mu{nu})) via bar(mu{k})",
                (bar[e1], bar[po(nu)]), LaurentPoly.one(),
                (bar[e1], bar[ok]), (bar[ok], bar[po(nu)]), q(1),
            )
        for a in range(e1 + 1, dim):
            if a == bar[e1]:
                continue
            sign = -1 if g[a] % 2 else 1
            two_term(
                f"common: sigma(mu{k},{lab[a]}) via i1",
                (ok, a), q(-bilinear(a_s, w[a])), (ok, e1), (e1, a), q(-1) * sign,
            )
        for b in range(bar[e1]):
            if b == e1:
                continue
            sign = -1 if g[b] % 2 else 1
            two_term(
                f"common: sigma({lab[b]},bar(mu{k})) via bar(i1)",
                (b, bar[ok]), q(bilinear(a_s, w[b])), (b, bar[e1]), (bar[e1], bar[ok]), q(-1) * sign,
            )
        lhs = S[(ok, bar[e1])] - S[(e1, bar[ok])].scale(q(1) * ((-1) ** k))
        x, y = S[(ok, e1)], S[(e1, bar[e1])]
        suite.expect_equal(
            f"common: sigma(mu{k},bar(i1)) - (-1)^k q sigma(i1,bar(mu{k})) "
            f"= q^-1 [sigma(mu{k},i1), sigma(i1,bar(i1))]",
            lhs, ((x @ y) - (y @ x)).scale(q(-1)),
        )
        for (b, a) in alg.extended_pairs():
            if a in (ok, bar[e1]) or b in (e1, bar[ok]):
                continue
            sign = -1 if (g[a] + g[b]) % 2 else 1
            suite.expect_equal(
                f"common qcom[s; {lab[b]},{lab[a]}]",
                (S[(b, a)] @ S[(ok, e1)]).scale(q(bilinear(a_s, w[b]))),
                (S[(ok, e1)] @ S[(b, a)]).scale(q(-bilinear(a_s, w[a])) * sign),
            )

    al = alg.root("l")
    if alg.m == 2 * l:
        # --- relations holding only for even m --------------------------
        el, el1 = pe(l), pe(l - 1)
        for b in range(el):
            two_term(
                f"even-m: sigma({lab[b]},bar(i{l-1})) via i{l}",
                (b, bar[el1]), q(bilinear(al, w[b])), (b, el), (el, bar[el1]), q(-1),
            )
        for b in range(el1):
            two_term(
                f"even-m: sigma({lab[b]},bar(i{l})) via i{l-1}",
                (b, bar[el]), LaurentPoly.one(), (b, el1), (el1, bar[el]), q(-1),
            )
        for a in range(bar[el1] + 1, dim):
            two_term(
                f"even-m: sigma(i{l},{lab[a]}) via bar(i{l-1})",
                (el, a), LaurentPoly.one(), (el, bar[el1]), (bar[el1], a), q(-1),
            )
        for a in range(bar[el] + 1, dim):
            two_term(
                f"even-m: sigma(i{l-1},{lab[a]}) via bar(i{l})",
                (el1, a), q(-bilinear(al, w[a])), (el1, bar[el]), (bar[el], a), q(-1),
            )
        for (b, a) in alg.extended_pairs():
            if a in (el, el1) or b in (bar[el1], bar[el]):
                continue
            suite.expect_equal(
                f"even-m qcom[l; {lab[b]},{lab[a]}]",
                (S[(b, a)] @ S[(el1, bar[el])]).scale(q(bilinear(al, w[b]))),
                (S[(el1, bar[el])] @ S[(b, a)]).scale(q(-bilinear(al, w[a]))),
            )
    else:
        # --- relations holding only for odd m ----------------------------
        el, mid = pe(l), pe(l + 1)
        for b in range(el):
            two_term(
                f"odd-m: sigma({lab[b]},i{l+1}) via i{l}",
                (b, mid), LaurentPoly.one(), (b, el), (el, mid), q(-1),
            )
        for b in range(mid):
            two_term(
                f"odd-m: sigma({lab[b]},bar(i{l})) via i{l+1}",
                (b, bar[el]), q(bilinear(al, w[b])), (b, mid), (mid, bar[el]),
                LaurentPoly.one(),
            )
        for a in range(mid + 1, dim):
            two_term(
                f"odd-m: sigma(i{l},{lab[a]}) via i{l+1}",
                (el, a), q(-bilinear(al, w[a])), (el, mid), (mid, a), LaurentPoly.one(),
            )
        for a in range(bar[el] + 1, dim):
            two_term(
                f"odd-m: sigma(i{l+1},{lab[a]}) via bar(i{l})",
                (mid, a), LaurentPoly.one(), (mid, bar[el]), (bar[el], a), q(-1),
            )
        for (b, a) in alg.extended_pairs():
            if a in (el, mid) or b in (mid, bar[el]):
                continue
            suite.expect_equal(
                f"odd-m qcom[l; {lab[b]},{lab[a]}]",
                (S[(b, a)] @ S[(el, mid)]).scale(q(bilinear(al, w[b]))),
                (S[(el, mid)] @ S[(b, a)]).scale(q(-bilinear(al, w[a]))),
            )
    return suite.report()


def check_path_independence(sigma: SigmaSet) -> CheckReport:
    """Every admissible intermediate for every recursed pair yields the
    same operator as the stored one."""
    suite = _Suite("path_independence")
    alg = sigma.algebra
    for (b, a) in alg.extended_pairs():
        if sigma.provenance[(b, a)] in ("simple", "forced_zero"):
            continue
        for c in admissible_intermediates(alg, b, a):
            alt = induction_step(
                sigma.sigma[(b, c)], sigma.sigma[(c, a)], alg, b, c, a
            )
            suite.expect_equal(
                f"sigma({alg.labels[b]},{alg.labels[a]}) via {alg.labels[c]}",
                alt,
                sigma.sigma[(b, a)],
            )
    return suite.report()


def check_opposite(r: RTensor, rt: RTensor) -> CheckReport:
    """R^T equals the factorwise graded conjugate of R and P R P."""
    suite = _Suite("opposite")
    gv = r.gradings_v
    suite.expect_equal(
        "R^T = R^dagger", rt.matrix, tensor_dagger(r.matrix, gv, gv)
    )
    p = graded_permutation(gv)
    suite.expect_equal("R^T = P R P", rt.matrix, p @ r.matrix @ p)
    return suite.report()
