"""Executable property suites for the R-matrix and the sigma-hat family.

Every identity is checked exactly over the Laurent ring; a failing suite
reports the first offending relation together with the matrix position and
both entry values, so negative controls produce a concrete witness.

ybe, lax_ybe, intertwining and delta_property compare their products
through one function, _product_diffs.  It packs each input matrix once,
s = 2^B substituted (gradedmat.pack), so that each Laurent entry becomes one
Python int, all at one shift lo, the lowest exponent over the inputs.  B is
the largest that any of the relations needs by a bound on the coefficients
of its two sides (gradedmat.packing_bits), so packed sides are equal
exactly when the Laurent-polynomial sides are.  pack is a ring map, so a
side built from packed inputs is the packed side: Delta^T(x) is the flip of
the packed Delta(x), and the delta suite's left side (id (x) Delta) R is
built by delta_lhs from R's packed blocks (SigmaSet.blocks), as the matrix
coproduct Delta(B_ab) = sum_c B_cb (x) B_ac.  No float, sample or tolerance
is involved.  When a coefficient is not an int, or when the packed sides
differ, the relation is built again on the Laurent inputs, so a witness
always shows Laurent polynomials.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq

from .qring import ZERO
from .superroot import Weight
from .gradedmat import (
    GradedMatrix,
    PackStats,
    Representation,
    embed_triple,
    flip_conjugate,
    graded_kron,
    kron_blocks,
    kron_gradings,
    pack,
    pack_stats,
    packing_bits,
    tensor_dagger,
)
from .laxengine import RTensor, SigmaSet, admissible_intermediates


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
    """Where two matrices first differ, (key, lhs entry, rhs entry), or
    None when they are equal."""
    if lhs == rhs:
        return None
    for key in sorted(set(lhs.entries) | set(rhs.entries)):
        a = lhs.entries.get(key, ZERO)
        b = rhs.entries.get(key, ZERO)
        if a != b:
            return key, a, b
    return None


def _product_diffs(inputs: list[GradedMatrix], relations) -> list:
    """_first_diff of the two sides of each relation, in order.

    A relation is (build, sides): build(mats) gives its two sides from
    matrices in the places of `inputs`, and sides(stats) the PackStats of
    each side's factors, from those of `inputs`, for packing_bits.  Each
    input is packed once, at the lowest exponent over all inputs and with
    the largest B any relation needs, and every relation is built on the
    packed inputs.  A relation whose packed sides differ, or every relation
    when some coefficient is not an int, is built again on `inputs`."""
    stats = [pack_stats(m) for m in inputs]
    packed = None
    if None not in stats:
        bits = max(packing_bits(*sides(stats)) for _, sides in relations)
        lo = min(x.lo for x in stats)
        packed = [pack(m, bits, lo) for m in inputs]
    return [
        None if packed is not None and eq(*build(packed)) else _first_diff(*build(inputs))
        for build, _ in relations
    ]


class _Suite:
    """Accumulates exact matrix comparisons into a CheckReport."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.witness: dict | None = None

    def record(self, rel_id: str, diff) -> None:
        """Count one relation; `diff` is where its sides first differ,
        (key, lhs, rhs), or None when they are equal."""
        self.count += 1
        if self.witness is None and diff is not None:
            (r, c), a, b = diff
            self.witness = {
                "relation": rel_id,
                "row": r + 1,
                "col": c + 1,
                "lhs": str(a),
                "rhs": str(b),
            }

    def expect_equal(self, rel_id: str, lhs: GradedMatrix, rhs: GradedMatrix) -> None:
        if self.witness is None and lhs != rhs:
            self.record(rel_id, _first_diff(lhs, rhs))
        else:
            self.count += 1

    def report(self) -> CheckReport:
        status = "pass" if self.witness is None else "fail"
        return CheckReport(self.name, status, self.count, self.witness)


# ---------------------------------------------------------------------------
# Yang-Baxter checks
# ---------------------------------------------------------------------------


def _ybe_suite(name: str, rel_id: str, rv: RTensor, rw: RTensor) -> CheckReport:
    """r12 R13 R23 = R23 R13 r12 on V (x) V (x) W, r = rv on V (x) V and
    R = rw on V (x) W; the Yang-Baxter equation is the case r = R, W = V.

    When rw is rv (ybe, or lax_ybe with W = V) the two checks assert one
    identity, so its comparison is kept on rv (RTensor.checked) and made
    once however many suites ask; each still reports under its own name
    and relation id."""
    if rw is not rv:
        diff = _ybe_diff(rv, rw)
    elif "ybe" in rv.checked:
        diff = rv.checked["ybe"]
    else:
        diff = rv.checked["ybe"] = _ybe_diff(rv, rv)
    suite = _Suite(name)
    suite.record(rel_id, diff)
    return suite.report()


def _ybe_diff(rv: RTensor, rw: RTensor):
    """_first_diff of the two sides of _ybe_suite's identity."""
    gv, gw = rv.gradings_v, rw.gradings_w

    def build(m: list[GradedMatrix]):  # m[-1] is rw's matrix, or rv's when rw is rv
        r12 = embed_triple(m[0], "12", gv, gv, gw)
        r13 = embed_triple(m[-1], "13", gv, gv, gw)
        r23 = embed_triple(m[-1], "23", gv, gv, gw)
        return r12 @ r13 @ r23, r23 @ r13 @ r12

    def sides(s: list[PackStats]):
        return [s[0], s[-1], s[-1]], [s[-1], s[-1], s[0]]

    inputs = [rv.matrix] if rw is rv else [rv.matrix, rw.matrix]
    return _product_diffs(inputs, [(build, sides)])[0]


def check_ybe(r: RTensor) -> CheckReport:
    """R12 R13 R23 = R23 R13 R12 on V (x) V (x) V, exactly."""
    if r.gradings_w != r.gradings_v:
        raise ValueError("check_ybe requires an R-matrix on V (x) V")
    return _ybe_suite("ybe", "R12 R13 R23 = R23 R13 R12", r, r)


def check_lax_ybe(rv: RTensor, rw: RTensor) -> CheckReport:
    """r12 R13 R23 = R23 R13 r12 on V (x) V (x) W; with rw = rv it shares
    check_ybe's comparison (_ybe_suite)."""
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

    Delta^T(x) is P Delta(x) P for the graded permutation P, formed as a
    re-indexing (flip_conjugate) of Delta(x), packed or not.  R and every
    Delta(x) are packed once, with the largest B over the relations.
    """
    suite = _Suite("intertwining")
    g = rep.gradings
    rel_ids, inputs = [], [r.matrix]
    for label in rep.algebra.root_labels():
        for kind, dx in _coproduct(rep, label).items():
            rel_ids.append(f"R Delta({kind}_{label}) = Delta^T({kind}_{label}) R")
            inputs.append(dx)
    # P Delta(x) P has the entries, norms and row counts of Delta(x)
    relations = [
        (
            lambda m, i=i: (m[0] @ m[i], flip_conjugate(m[i], g, g) @ m[0]),
            lambda s, i=i: ([s[0], s[i]], [s[i], s[0]]),
        )
        for i in range(1, len(inputs))
    ]
    for rel_id, diff in zip(rel_ids, _product_diffs(inputs, relations)):
        suite.record(rel_id, diff)
    return suite.report()


def delta_lhs(
    g: tuple[int, ...], blocks: dict[tuple[int, int], GradedMatrix]
) -> GradedMatrix:
    """(id (x) Delta) R on V (x) V (x) V for R = sum E^a_b (x) B_ab, g the
    gradings of V and `blocks` R's nonzero blocks (SigmaSet.blocks).  In
    these blocks the displayed coproduct of sigma_ba is the matrix
    coproduct of an L-operator (Faddeev-Reshetikhin-Takhtajan),

        Delta(B_ab) = sum_{b <= c <= a} B_cb (x) B_ac,

    so block (a, b) of the left side is that sum over the c whose two
    blocks are nonzero.  The blocks may be Laurent polynomials, or ints
    packed at one shift lo (gradedmat.pack): every product then comes out
    at 2 lo."""
    gw = blocks[(0, 0)].gradings
    out = {}
    for a in range(len(g)):
        for b in range(a + 1):
            terms = [
                graded_kron(blocks[(c, b)], blocks[(a, c)])
                for c in range(b, a + 1)
                if (c, b) in blocks and (a, c) in blocks
            ]
            if terms:
                out[(a, b)] = sum(terms[1:], terms[0])
    return kron_blocks(g, kron_gradings(gw, gw), out)


def check_delta_property(sigma: SigmaSet, r: RTensor) -> CheckReport:
    """(id (x) Delta) R = R13 R12 with Delta from the displayed coproduct
    (see delta_lhs); a single exact identity on V (x) V (x) V.

    `r` is the R-matrix under test, normally the one assembled from `sigma`.
    Every block and R are packed at their shared lowest exponent lo (R's
    own when R is assembled from `sigma`), so both sides come out at 2 lo.
    An entry of the left side sums at most d = dim V products of two block
    entries, so packing_bits counts it as a two-factor product with row
    count d.  The identity holds for any block-lower-triangular even R, so
    it checks the Koszul signs of kron_blocks and graded_kron against
    embed_triple, not sigma-hat itself.
    """
    suite = _Suite("delta_property")
    g, gv, blocks = sigma.algebra.gradings, sigma.rep.gradings, sigma.blocks

    def build(m: list[GradedMatrix]):  # the blocks in their order, then R
        rhs = embed_triple(m[-1], "13", gv, gv, gv) @ embed_triple(m[-1], "12", gv, gv, gv)
        return delta_lhs(g, dict(zip(blocks, m))), rhs

    def sides(s: list[PackStats]):  # packing_bits reads norm and row only
        lhs = PackStats(lo=0, norm=max(x.norm for x in s[:-1]), row=len(g))
        return [lhs, lhs], [s[-1], s[-1]]

    diffs = _product_diffs([*blocks.values(), r.matrix], [(build, sides)])
    suite.record("(id (x) Delta) R = R13 R12", diffs[0])
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
    induction rows are the construction's two-term relation (SigmaSet.step)
    at the anchor's four positions, with bx = bar(x) and by = bar(y):

        1: sigma(b, y) via x for b < x
        2: sigma(by, a) via bx for a > bx
        3: sigma(b, bx) via by for b < by, b != y
        4: sigma(x, a) via y for a > y, a != by

    in the order of the tables; in the odd chains (mu and s, x odd) each
    row-1 b is followed by the row-2 a = bar(b).  Every such row is also a
    path-independence row, and both suites read their steps from the one
    table SigmaSet.steps, so a job forms each step at most once.  Over
    osp(m|n), 3 <= m <= 11, n <= 10, 3800 of the 6612 are the
    construction's own step for their pair: that step is the stored
    sigma_ba itself, so the row compares it with itself.  The i, mu and
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
                sigma.step(b, c, a),
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
    same operator as the stored one.  The steps are read from
    SigmaSet.steps, the table the construction and the appendix suite
    fill, so a job forms each at most once.  The appendix's induction rows
    are rows of this suite: over osp(m|n), 3 <= m <= 11, n <= 10, 3417 of
    its 15615 rows are the construction's own step, the stored sigma_ba
    itself, against 3800 of the 6612 appendix rows."""
    suite = _Suite("path_independence")
    alg = sigma.algebra
    for (b, a) in alg.extended_pairs():
        if sigma.provenance[(b, a)] in ("simple", "forced_zero"):
            continue
        for c in admissible_intermediates(alg, b, a):
            suite.expect_equal(
                f"sigma({alg.labels[b]},{alg.labels[a]}) via {alg.labels[c]}",
                sigma.step(b, c, a),
                sigma.sigma[(b, a)],
            )
    return suite.report()


def check_opposite(r: RTensor, rt: RTensor) -> CheckReport:
    """R^T equals the factorwise graded conjugate of R and P R P."""
    suite = _Suite("opposite")
    gv = r.gradings_v
    suite.expect_equal("R^T = R^dagger", rt.matrix, tensor_dagger(r.matrix, gv, gv))
    suite.expect_equal("R^T = P R P", rt.matrix, flip_conjugate(r.matrix, gv, gv))
    return suite.report()
