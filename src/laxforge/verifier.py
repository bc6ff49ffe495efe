"""Executable property suites for the R-matrix and the sigma-hat family.

Every identity is checked exactly over the Laurent ring; a failing suite
reports the first offending relation together with the matrix position and
both entry values, so negative controls produce a concrete witness.

ybe, lax_ybe, intertwining and delta_property compare their products with
s = 2^B substituted (gradedmat.pack): each Laurent entry becomes one Python
int, and B is taken from a bound on the coefficients of both sides
(gradedmat.packing_bits), so the packed sides are equal exactly when the
Laurent-polynomial sides are.  No float, sample or tolerance is involved.
The delta suite's left side (id (x) Delta) R is built by delta_lhs from
sigma~ = q^(h_a) sigma_ba blocks, on packed ints with B from the a-priori
bound delta_lhs_bound, or on Laurent polynomials: one code path over the
inputs it is given.
When a coefficient is not an int, or when the packed sides differ, the
relation is compared on Laurent-polynomial entries, so a witness always
shows Laurent polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qring import LaurentPoly, ZERO, q_minus_qinv
from .superroot import Weight
from .gradedmat import (
    GradedMatrix,
    PackStats,
    Representation,
    embed_triple,
    graded_kron,
    graded_permutation,
    kron_blocks,
    kron_gradings,
    pack,
    pack_entry,
    pack_stats,
    packing_bits,
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

    def expect_products(self, rel_id: str, symbolic, packed) -> None:
        """expect_equal on two sides given by thunks.  `packed` gives them in
        a form that is equal exactly when the matrices are (packed ints, or
        the lane-packed rows of gradedmat.lane_product), or None when that
        form does not apply; `symbolic` gives them as matrices and is used
        when `packed` gives None or two different sides, so a witness
        always shows matrix entries."""
        sides = packed()
        if sides is not None and sides[0] == sides[1]:
            self.count += 1
        else:
            self.expect_equal(rel_id, *symbolic())

    def report(self) -> CheckReport:
        status = "pass" if self.witness is None else "fail"
        return CheckReport(self.name, status, self.count, self.witness)


# ---------------------------------------------------------------------------
# Yang-Baxter checks
# ---------------------------------------------------------------------------


def _ybe_suite(name: str, rel_id: str, rv: RTensor, rw: RTensor) -> CheckReport:
    """r12 R13 R23 = R23 R13 r12 on V (x) V (x) W, r = rv on V (x) V and
    R = rw on V (x) W; the Yang-Baxter equation is the case r = R, W = V."""
    suite = _Suite(name)
    gv, gw = rv.gradings_v, rw.gradings_w

    def sides(mv: GradedMatrix, mw: GradedMatrix):
        r12 = embed_triple(mv, "12", gv, gv, gw)
        r13 = embed_triple(mw, "13", gv, gv, gw)
        r23 = embed_triple(mw, "23", gv, gv, gw)
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    def packed():  # rw may be rv: it is then measured and packed once
        sv = pack_stats(rv.matrix)
        sw = sv if rw is rv else pack_stats(rw.matrix)
        if sv is None or sw is None:
            return None
        bits = packing_bits([sv, sw, sw], [sw, sw, sv])
        pv = pack(rv.matrix, bits, sv.lo)
        return sides(pv, pv if rw is rv else pack(rw.matrix, bits, sw.lo))

    suite.expect_products(rel_id, lambda: sides(rv.matrix, rw.matrix), packed)
    return suite.report()


def check_ybe(r: RTensor) -> CheckReport:
    """R12 R13 R23 = R23 R13 R12 on V (x) V (x) V, exactly."""
    if r.gradings_w != r.gradings_v:
        raise ValueError("check_ybe requires an R-matrix on V (x) V")
    return _ybe_suite("ybe", "R12 R13 R23 = R23 R13 R12", r, r)


def check_lax_ybe(rv: RTensor, rw: RTensor) -> CheckReport:
    """r12 R13 R23 = R23 R13 r12 on V (x) V (x) W."""
    gv = rv.gradings_v
    if rv.gradings_w != gv or rw.gradings_v != gv:
        raise ValueError("slot dimensions do not match: need rv on V(x)V, rw on V(x)W")
    return _ybe_suite("lax_ybe", "r12 R13 R23 = R23 R13 r12", rv, rw)


# ---------------------------------------------------------------------------
# Intertwining and coproduct
# ---------------------------------------------------------------------------


def _coproduct(rep: Representation, label: str) -> dict[str, GradedMatrix]:
    """Matrices of Delta(e), Delta(f), Delta(q^(+-h/2)) on V (x) V."""
    alpha = rep.algebra.root(label)
    qp = rep.qh_diag(alpha, Fraction(1, 2))
    qm = rep.qh_diag(alpha, Fraction(-1, 2))
    return {
        "e": graded_kron(qp, rep.e[label]) + graded_kron(rep.e[label], qm),
        "f": graded_kron(qp, rep.f[label]) + graded_kron(rep.f[label], qm),
        "h+": graded_kron(qp, qp),
        "h-": graded_kron(qm, qm),
    }


def check_intertwining(r: RTensor, rep: Representation) -> CheckReport:
    """R Delta(x) = Delta^T(x) R for all simple e, f and Cartan half-powers.

    Delta^T is conjugation of Delta by the graded permutation.  R and P are
    packed once, with one B that covers every Delta(x).
    """
    suite = _Suite("intertwining")
    p = graded_permutation(rep.gradings)
    relations = [
        (f"R Delta({kind}_{label}) = Delta^T({kind}_{label}) R", dx, pack_stats(dx))
        for label in rep.algebra.root_labels()
        for kind, dx in _coproduct(rep, label).items()
    ]

    def sides(rm: GradedMatrix, dx: GradedMatrix, pm: GradedMatrix):
        return rm @ dx, (pm @ dx @ pm) @ rm

    sr, sp = pack_stats(r.matrix), pack_stats(p)
    integral = sr is not None and all(sx is not None for _, _, sx in relations)
    if integral:
        bits = max(packing_bits([sr, sx], [sp, sx, sp, sr]) for _, _, sx in relations)
        pr, pp = pack(r.matrix, bits, sr.lo), pack(p, bits, sp.lo)
    for rel_id, dx, sx in relations:
        suite.expect_products(
            rel_id,
            lambda: sides(r.matrix, dx, p),
            lambda: sides(pr, pack(dx, bits, sx.lo), pp) if integral else None,
        )
    return suite.report()


def delta_lhs_bound(norm: int, dim: int) -> int:
    """A bound on the L1 norm of every entry of (id (x) Delta) R, from the
    largest L1 norm S of an entry of any sigma~_ba and d = dim V.

    The L1 norm (sum of absolute coefficients) is subadditive and
    submultiplicative, so it bounds every coefficient.  An entry of
    q^(h_a) is q^t with coefficient 1 (norm 1) and q - q^-1 has norm 2.
    In delta_lhs a diagonal block q^(h_a) (x) q^(h_a) has entries of norm
    1.  An entry of block (a, b) is (q - q^-1)(-1)^[b] times the sum of one
    entry of sigma~_ba (x) q^(h_a) (norm at most S), one of
    q^(h_b) (x) sigma~_ba (at most S) and, for each of the fewer than d
    indices c, (q - q^-1)(-1)^[c] times one entry of sigma~_bc (x)
    sigma~_ca (at most 2 S^2): at most 2 (2 S + 2 d S^2) in all."""
    return max(1, 2 * (2 * norm + 2 * dim * norm * norm))


def delta_lhs(
    g: tuple[int, ...],
    tilde: dict[tuple[int, int], GradedMatrix],
    hq: list[GradedMatrix],
    qq: LaurentPoly | int,
) -> GradedMatrix:
    """(id (x) Delta) R on V (x) V (x) V, from the displayed coproduct

        Delta(sigma_ba) = sigma_ba (x) I + q^(h_b - h_a) (x) sigma_ba
            + (q - q^-1) sum_{b < c < a} (-1)^[c] q^(h_c - h_a) sigma_bc (x) sigma_ca

    and R = sum_a E^a_a (x) q^(h_a) + (q - q^-1) sum (-1)^[b] E^a_b (x)
    q^(h_a) sigma_ba.  q^(h_a) (x) q^(h_a) is even and diagonal, so it
    moves into each factor of a tensor product; with
    sigma~_xy = q^(h_y) sigma_xy the blocks are

        (a, a): q^(h_a) (x) q^(h_a)
        (a, b): (q - q^-1)(-1)^[b] [sigma~_ba (x) q^(h_a) + q^(h_b) (x) sigma~_ba
                + (q - q^-1) sum_{b < c < a} (-1)^[c] sigma~_bc (x) sigma~_ca].

    g are the gradings of V, tilde[(b, a)] = sigma~_ba for every extended
    pair, hq[a] = q^(h_a) and qq = q - q^-1.  The inputs may be Laurent
    polynomials, or packed ints (gradedmat.pack) at shifts that put every
    term of a block at one power of N: with sigma~ packed at lo, hq at
    lo - 2 and qq at -2, the result is the left side packed at 2 lo - 4.
    """
    qq_tilde = {(c, a): t.scale(-qq if g[c] % 2 else qq) for (c, a), t in tilde.items()}
    blocks = [(a, a, graded_kron(h, h)) for a, h in enumerate(hq)]
    for (b, a), t in tilde.items():
        total = graded_kron(t, hq[a]) + graded_kron(hq[b], t)
        for c in range(b + 1, a):
            total = total + graded_kron(tilde[(b, c)], qq_tilde[(c, a)])
        blocks.append((a, b, total.scale(-qq if g[b] % 2 else qq)))
    gw = hq[0].gradings
    return kron_blocks(g, kron_gradings(gw, gw), blocks)


def check_delta_property(sigma: SigmaSet, r: RTensor) -> CheckReport:
    """(id (x) Delta) R = R13 R12 with Delta(sigma_ba) from the displayed
    coproduct formula (see delta_lhs); a single exact identity on
    V (x) V (x) V.

    `r` is the R-matrix under test, normally the one assembled from `sigma`.
    """
    suite = _Suite("delta_property")
    g, gv, tilde = sigma.algebra.gradings, sigma.rep.gradings, sigma.tilde
    qh = sigma.rep.qh_eps

    def r13_r12(m: GradedMatrix) -> GradedMatrix:
        return embed_triple(m, "13", gv, gv, gv) @ embed_triple(m, "12", gv, gv, gv)

    def packed():
        sr, sh = pack_stats(r.matrix), [pack_stats(m) for m in qh]
        st = [pack_stats(m) for m in tilde.values()]
        if sr is None or None in sh or None in st:
            return None
        norm = max((x.norm for x in st), default=0)
        bound = PackStats(lo=0, norm=delta_lhs_bound(norm, sigma.algebra.dim), row=1)
        bits = packing_bits([bound], [sr, sr])
        # sigma~ at lo, q^(h) and R at lo - 2: both sides come out at 2 lo - 4.
        # R assembled from sigma has lowest exponent min(q^(h), sigma~ - 2),
        # so R is packed at its own lowest exponent
        lo = min(sr.lo + 2, *(x.lo for x in st), *(x.lo + 2 for x in sh))
        lhs = delta_lhs(
            g,
            {pair: pack(t, bits, lo) for pair, t in tilde.items()},
            [pack(h, bits, lo - 2) for h in qh],
            pack_entry(q_minus_qinv(), bits, -2),
        )
        return lhs, r13_r12(pack(r.matrix, bits, lo - 2))

    suite.expect_products(
        "(id (x) Delta) R = R13 R12",
        lambda: (delta_lhs(g, tilde, qh, q_minus_qinv()), r13_r12(r.matrix)),
        packed,
    )
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
    """ad op . x = op x - (-1)^([op][x]) (q^h x q^-h) op, h the root of op:
    q^h x q^-h shifts entry (r, c) of x by 2 (root, wt_r) - 2 (root, wt_c)."""
    exps = rep.q_exponents(root, 1)
    conj = x.shifted(rows=exps, cols=[-e for e in exps])
    sign = -1 if (op_parity * x_parity) % 2 else 1
    return (op @ x) - (conj @ op).scale(sign)


def check_qserre(rep: Representation) -> CheckReport:
    """(ad E_b .)^(1 - a_bc) E_c = 0 for b != c with (alpha_b, alpha_b) != 0."""
    suite = _Suite("qserre")
    alg = rep.algebra
    labels = alg.root_labels()
    for bi, lb in enumerate(labels):
        if alg.cartan[bi][bi] == 0:  # (alpha_b, alpha_b) = 0
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

    def simple(label: str):
        pair = alg.simple_pair(label)
        return sigma.sigma[pair], alg.root(label), alg.root_parity(label)

    a_op = simple("s")
    b_op = simple(f"mu{alg.k - 1}")
    c_op = simple("i1")
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


def _expect_qcom(
    suite: _Suite, sigma: SigmaSet, op: GradedMatrix, label: str, prefix: str
) -> None:
    """The q-commutation of every sigma_ba with an operator X of weight
    alpha = wt(x) - wt(y), (x, y) the simple pair of `label`:

        q^((alpha, e_b)) sigma_ba X
            = (-1)^(([a]+[b])([x]+[y])) q^(-(alpha, e_a)) X sigma_ba

    for each extended pair (b, a) with a not in {x, bar(y)} and b not in
    {y, bar(x)}, as relation "<prefix>qcom[<label>; b,a]"."""
    alg = sigma.algebra
    g, pair2, bar, lab = alg.gradings, alg.pair2, alg.bar, alg.labels
    x, y = alg.simple_pair(label)
    odd = (g[x] + g[y]) % 2
    for (b, a) in alg.extended_pairs():
        if a in (x, bar[y]) or b in (y, bar[x]):
            continue
        sign = -1 if odd and (g[a] + g[b]) % 2 else 1
        s_ba = sigma.sigma[(b, a)]
        # q^((alpha, e_p)) is s^(pair2[x][p] - pair2[y][p])
        suite.expect_equal(
            f"{prefix}qcom[{label}; {lab[b]},{lab[a]}]",
            (s_ba @ op).shifted(pair2[x][b] - pair2[y][b]),
            (op @ s_ba).shifted(pair2[y][a] - pair2[x][a], sign),
        )


def check_qcom(sigma: SigmaSet) -> CheckReport:
    """q^((a_c, e_b)) sigma_ba E_c
       = (-1)^(([a]+[b])[c]) q^(-(a_c, e_a)) E_c sigma_ba
    for every simple root a_c, over the pairs _expect_qcom keeps: those
    where neither e_a - a_c nor e_b + a_c is a basis weight.  The appendix
    suite checks the same family with sigma of the simple pair in place of
    E_c, through the same loop."""
    suite = _Suite("qcom")
    for label in sigma.algebra.root_labels():
        _expect_qcom(suite, sigma, sigma.rep.big_e(label), label, "")
    return suite.report()


def check_appendix(sigma: SigmaSet) -> CheckReport:
    """Every induction and commutation relation from the three appendix
    tables, instantiated over its full index range.

    Each chain is anchored at the simple pair (x, y) of its root, and its
    induction rows are the construction's two-term relation (induction_step)
    at the anchor's four positions, with bx = bar(x) and by = bar(y):

        1: sigma(b, y) via x for b < x
        2: sigma(by, a) via bx for a > bx
        3: sigma(b, bx) via by for b < by, b != y
        4: sigma(x, a) via y for a > y, a != by

    in the order of the tables; in the odd chains (mu and s, x odd) each
    row-1 b is followed by the row-2 a = bar(b).  Every such row is also a
    path-independence row: over osp(m|n), 3 <= m <= 11, n <= 10, 3800 of
    the 6612 are the construction's own step for their pair.  The i, mu and
    s chains then state one commutator relation, and every chain ends with
    the q-commutation of every sigma_ba with the anchor, in the loop
    check_qcom uses (_expect_qcom)."""
    suite = _Suite("appendix")
    alg, S = sigma.algebra, sigma.sigma
    bar, lab, dim, l, k = alg.bar, alg.labels, alg.dim, alg.l, alg.k

    def name(p: int) -> str:
        return lab[p] if p <= bar[p] else f"bar({lab[bar[p]]})"

    def chain(label: str, prefix: str, order: tuple[int, ...], *commutator) -> None:
        """The rows of `label`'s chain in `order`, then the commutator
        relation (id, lhs, rhs) when given, then the q-commutations."""
        x, y = alg.simple_pair(label)
        bx, by, odd = bar[x], bar[y], alg.gradings[x]
        # (b, c, a, name of b, name of a): fixed positions by name(), the
        # free one by its label, but by name() in the odd chains' row 2
        rows = {
            1: [(b, x, y, lab[b], name(y)) for b in range(x)],
            2: [(by, bx, a, name(by), name(a) if odd else lab[a])
                for a in range(bx + 1, dim)],
            3: [(b, by, bx, lab[b], name(bx)) for b in range(by) if b != y],
            4: [(x, y, a, name(x), lab[a]) for a in range(y + 1, dim) if a != by],
        }
        if odd:
            rows[1] = [row for pair in zip(rows[1], rows[2][::-1]) for row in pair]
            rows[2] = []
        for b, c, a, nb, na in (row for i in order for row in rows[i]):
            suite.expect_equal(
                f"{prefix}: sigma({nb},{na}) via {name(c)}",
                S[(b, a)],
                induction_step(S[(b, c)], S[(c, a)], alg, b, c, a),
            )
        if commutator:
            suite.expect_equal(*commutator)
        _expect_qcom(suite, sigma, S[(x, y)], label, f"{prefix} ")

    # each commutator below has an even factor, so it is the plain u v - v u
    for i in range(1, l):
        ei, ei1 = alg.simple_pair(f"i{i}")
        chain(
            f"i{i}", "common", (1, 2, 3, 4),
            f"common: sigma(i{i+1},bar(i{i})) + sigma(i{i},bar(i{i+1})) "
            f"= q^-1 [sigma(i{i},i{i+1}), sigma(i{i+1},bar(i{i+1}))]",
            S[(ei1, bar[ei])] + S[(ei, bar[ei1])],
            S[(ei, ei1)].commutator(S[(ei1, bar[ei1])], 1, -2, -2),
        )
    for mu in range(1, k):
        om, om1 = alg.simple_pair(f"mu{mu}")
        chain(
            f"mu{mu}", "common", (1, 2, 3, 4),
            f"common: sigma(mu{mu+1},bar(mu{mu})) - sigma(mu{mu},bar(mu{mu+1})) "
            f"= q [sigma(mu{mu+1},bar(mu{mu+1})), sigma(mu{mu},mu{mu+1})]",
            S[(om1, bar[om])] - S[(om, bar[om1])],
            S[(om1, bar[om1])].commutator(S[(om, om1)], 1, 2, 2),
        )
    if alg.n > 0:
        ok, e1 = alg.simple_pair("s")
        chain(
            "s", "common", (1, 2, 4, 3),
            f"common: sigma(mu{k},bar(i1)) - (-1)^k q sigma(i1,bar(mu{k})) "
            f"= q^-1 [sigma(mu{k},i1), sigma(i1,bar(i1))]",
            S[(ok, bar[e1])] - S[(e1, bar[ok])].shifted(2, (-1) ** k),
            S[(ok, e1)].commutator(S[(e1, bar[e1])], 1, -2, -2),
        )
    if alg.m == 2 * l:
        chain("l", "even-m", (3, 1, 2, 4))
    else:
        chain("l", "odd-m", (1, 3, 4, 2))
    return suite.report()


def check_path_independence(sigma: SigmaSet) -> CheckReport:
    """Every admissible intermediate for every recursed pair yields the
    same operator as the stored one.  The appendix's induction rows are
    rows of this suite: over osp(m|n), 3 <= m <= 11, n <= 10, 3417 of its
    15615 rows are the construction's own step, against 3800 of the 6612
    appendix rows."""
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
