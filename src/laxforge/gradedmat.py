"""Sparse matrices over Laurent polynomials on a Z2-graded basis.

Entries are LaurentPoly values, or plain exact scalars (int or Fraction)
when a matrix has been evaluated at a point or packed; sums, products,
scale, equality, graded_kron and kron_blocks work on either, and a scalar
entry stays a scalar.

kron_blocks applies the tensor-product Koszul sign, which embed_triple's
slot 23 uses, and graded_dagger the conjugation sign, which tensor_dagger
re-signs.  graded_kron, graded_permutation and spectral.build_E_tensor
write the sign out for speed, each pinned by test_*_is_kron_blocks;
embed_triple's slots 12 and 13 and flip_conjugate (P m P) re-index with
signs of their own.  Ordinary matrix composition is ungraded.

On Laurent entries, a q-power is an exponent shift: `shifted` multiplies
by sign s^k, and `commutator` forms s^k1 xy - sign s^k2 yx, the graded
bracket, the induction step and the q-Serre ad step, in one pass with no
product matrices.  A Representation
pairs its weights with a weight through the coordinate columns of
superroot.form_columns, keeps q^(h_eps_a) for every index a of V
(`qh_eps`) and their exponent table (`pair2`), and writes each diagonal
with the shared monomials of qring.monomial.

`pack` turns a matrix over Z[s, s^-1] into a matrix of ints by Kronecker
substitution, s = 2^B; `packing_bits` picks a B for which two packed
products are equal exactly when the Laurent-polynomial products are.

The same substitution packs a row of an int matrix on U1 (x) U2 (x) U3 into
one int.  `weight_lanes` gives each index a lane, its position among the
indices of its total weight (told apart by int `weight_codes`);
`lane_product` returns each row of a product as sum_c x_c 2^(B lane(c)),
each entry placed by a shift.  When every factor keeps total weight, a row
of the product has entries only at indices of its row's weight, where lanes
are distinct, so with B from the same `packing_bits` two products are equal
exactly when their packed rows are.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Mapping

from .qring import LaurentPoly, ONE, Scalar, _canonical, dot, monomial, q_int, s_exponent
from .superroot import AlgebraData, Weight, form_columns, pair_with

HALF = Fraction(1, 2)


class RelationError(AssertionError):
    """A required algebra relation fails; the message names the relation."""


class SchemaError(ValueError):
    """A serialized document does not match its schema."""


class GradedMatrix:
    """Square sparse matrix over LaurentPoly with a per-position grading.

    Entries are stored in a dict {(row, col): nonzero LaurentPoly}; the
    grading vector travels with the matrix so tensor operations know the
    parities of both factors.
    """

    __slots__ = ("dim", "gradings", "entries")

    def __init__(
        self,
        gradings: tuple[int, ...],
        entries: Mapping[tuple[int, int], LaurentPoly] | None = None,
    ):
        self.gradings = tuple(gradings)
        self.dim = len(self.gradings)
        self.entries: dict[tuple[int, int], LaurentPoly] = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < self.dim and 0 <= c < self.dim):
                        raise IndexError(f"entry ({r},{c}) outside dim {self.dim}")
                    self.entries[(r, c)] = v

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, gradings: tuple[int, ...], entries: dict) -> "GradedMatrix":
        """The matrix with `entries` as given, not copied or checked: every
        value nonzero and every index inside dim."""
        res = cls.__new__(cls)
        res.gradings, res.dim, res.entries = gradings, len(gradings), entries
        return res

    @classmethod
    def zeros(cls, gradings: tuple[int, ...]) -> "GradedMatrix":
        return cls(gradings)

    @classmethod
    def identity(cls, gradings: tuple[int, ...]) -> "GradedMatrix":
        return cls(gradings, {(i, i): ONE for i in range(len(gradings))})

    @classmethod
    def elementary(cls, a: int, b: int, gradings: tuple[int, ...]) -> "GradedMatrix":
        """E^a_b: entry (a, b) equal to 1."""
        return cls(gradings, {(a, b): ONE})

    @classmethod
    def diagonal(cls, gradings: tuple[int, ...], diag) -> "GradedMatrix":
        return cls(gradings, {(i, i): v for i, v in enumerate(diag)})

    # -- plain (ungraded) matrix algebra -----------------------------------

    def _same_space(self, other: "GradedMatrix") -> None:
        if self.gradings != other.gradings:
            raise ValueError("graded spaces do not match")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._same_space(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            acc = out.get(key)
            if acc is None:
                out[key] = v
            else:
                acc = acc + v
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return self._of(self.gradings, out)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def __neg__(self) -> "GradedMatrix":
        return self._of(self.gradings, {k: -v for k, v in self.entries.items()})

    def scale(self, c: LaurentPoly | Scalar) -> "GradedMatrix":
        """c times every entry; int entries scaled by an int stay ints."""
        if not c:
            return GradedMatrix.zeros(self.gradings)
        return self._of(self.gradings, {k: v * c for k, v in self.entries.items()})

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._same_space(other)
        by_row: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], LaurentPoly] = {}
        for (r, c), v in self.entries.items():
            for c2, w in by_row.get(c, ()):
                key = (r, c2)
                acc = out.get(key)
                val = v * w if acc is None else acc + v * w
                if val:
                    out[key] = val
                elif acc is not None:
                    del out[key]
        return self._of(self.gradings, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.gradings == other.gradings and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        ent = ", ".join(f"({r},{c}): {v}" for (r, c), v in sorted(self.entries.items()))
        return f"GradedMatrix(dim={self.dim}, {{{ent}}})"

    # -- graded structure --------------------------------------------------

    def homogeneous_parity(self) -> int | None:
        """Common parity [r]+[c] of all entries, or None if mixed/empty."""
        parities = {
            (self.gradings[r] + self.gradings[c]) % 2 for (r, c) in self.entries
        }
        if len(parities) == 1:
            return parities.pop()
        return None

    def bracket(self, other: "GradedMatrix", parity_self: int, parity_other: int
                ) -> "GradedMatrix":
        """Graded commutator [x, y] = xy - (-1)^([x][y]) yx."""
        return self.commutator(other, -1 if (parity_self * parity_other) % 2 else 1)

    # -- over Q[s, s^-1]: q-powers as exponent shifts ------------------------

    def shifted(self, k: int = 0, sign: int = 1) -> "GradedMatrix":
        """sign s^k self for Laurent entries and sign = +-1: every exponent
        moved by k."""
        return self._of(
            self.gradings, {key: v.shift(k, sign) for key, v in self.entries.items()}
        )

    def commutator(
        self, other: "GradedMatrix", sign: int = 1, k1: int = 0, k2: int = 0
    ) -> "GradedMatrix":
        """s^k1 xy - sign s^k2 yx for x = self and y = other with Laurent
        entries, sign = +-1, in one pass: the term pairs of both products
        are collected per entry, the left factor shifted by s^k1 or
        -sign s^k2, and each entry is one qring.dot, so no product, scaled
        or difference matrix is built."""
        self._same_space(other)
        pairs: dict[tuple[int, int], list] = {}
        for x, y, k, sx in ((self, other, k1, 1), (other, self, k2, -sign)):
            by_row: dict[int, list] = {}
            for (r, c), v in y.entries.items():
                by_row.setdefault(r, []).append((c, v))
            for (r, c), v in x.entries.items():
                right = by_row.get(c)
                if right is None:
                    continue
                left = v.shift(k, sx)
                for c2, w in right:
                    out = pairs.get((r, c2))
                    if out is None:
                        out = pairs[(r, c2)] = []
                    out.append((left, w))
        entries = {}
        for key, out in pairs.items():
            p = dot(out)
            if p:
                entries[key] = p
        return self._of(self.gradings, entries)


# kron_gradings' memo: immutable tuples, one per pair of factor gradings a
# process meets (a few per algebra), so it is shared and never evicted.
_KRON_GRADINGS: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}


def kron_gradings(ga: tuple[int, ...], gb: tuple[int, ...]) -> tuple[int, ...]:
    """The gradings of A (x) B from those of A and B.  Building them takes
    dim(A) dim(B) steps whatever the number of nonzeros, so each is built
    once per pair of factor gradings and then looked up."""
    out = _KRON_GRADINGS.get((ga, gb))
    if out is None:
        out = _KRON_GRADINGS[(ga, gb)] = tuple((p + q) % 2 for p in ga for q in gb)
    return out


def graded_kron(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded tensor product with the Koszul sign.

    Entry rule: M[(r1,r2),(c1,c2)] = (-1)^(([r2]+[c2])*[c1]) A[r1,c1] B[r2,c2],
    which reproduces (x (x) y)(u (x) v) = (-1)^([y][u]) xu (x) yv on
    homogeneous elementary factors.
    """
    ga, gb = a.gradings, b.gradings
    db = b.dim
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for (r1, c1), va in a.entries.items():
        gc1 = ga[c1]
        for (r2, c2), vb in b.entries.items():
            sign = -1 if ((gb[r2] + gb[c2]) * gc1) % 2 else 1
            v = va * vb if sign > 0 else -(va * vb)
            entries[(r1 * db + r2, c1 * db + c2)] = v
    return GradedMatrix._of(kron_gradings(ga, gb), entries)


def kron_blocks(
    gv: tuple[int, ...],
    gw: tuple[int, ...],
    blocks: Mapping[tuple[int, int], GradedMatrix],
) -> GradedMatrix:
    """sum over (a, b) -> m in `blocks` of graded_kron(E^a_b, m), m on the
    space graded by gw.  The blocks do not overlap, so their entries are
    collected into one dict rather than summed.  Entry (r, c) of m goes to
    ((a, r), (b, c)) with graded_kron's sign (-1)^(([r]+[c])[b]) and is not
    multiplied, so it keeps its type."""
    dw = len(gw)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for (a, b), m in blocks.items():
        ra, cb, odd = a * dw, b * dw, gv[b] % 2
        for (r, c), v in m.entries.items():
            entries[(ra + r, cb + c)] = -v if odd and (gw[r] + gw[c]) % 2 else v
    return GradedMatrix._of(kron_gradings(gv, gw), entries)


def graded_permutation(gradings: tuple[int, ...]) -> GradedMatrix:
    """P(v_a (x) v_b) = (-1)^([a][b]) v_b (x) v_a on the doubled space."""
    d = len(gradings)
    entries = {}
    for a in range(d):
        for b in range(d):
            sign = -1 if (gradings[a] * gradings[b]) % 2 else 1
            entries[(b * d + a, a * d + b)] = monomial(0, sign)
    return GradedMatrix._of(kron_gradings(gradings, gradings), entries)


def embed_triple(
    m: GradedMatrix,
    slots: str,
    g1: tuple[int, ...],
    g2: tuple[int, ...],
    g3: tuple[int, ...],
) -> GradedMatrix:
    """m, an operator on the tensor product of two slots, acting on slots
    "12", "13" or "23" of U1 (x) U2 (x) U3 (gradings g1, g2, g3) and as the
    identity on the third.

    A pure re-indexing with Koszul signs, equal to graded_kron(m, I3),
    P12 graded_kron(I1, m) P12 and graded_kron(I1, m) respectively; for an
    entry of m with slot indices (x, y) -> (x', y') and free index k:

        12:  M[(x,y,k),(x',y',k)] = m[(x,y),(x',y')]
        13:  M[(x,k,y),(x',k,y')] = (-1)^([k]([y]+[y'])) m[(x,y),(x',y')]
        23:  M[(k,x,y),(k,x',y')] = (-1)^([k]([x]+[y]+[x']+[y'])) m[(x,y),(x',y')]
    """
    ga, gb = {"12": (g1, g2), "13": (g1, g3), "23": (g2, g3)}[slots]
    if m.gradings != kron_gradings(ga, gb):
        raise ValueError(f"matrix does not act on slots {slots} of the triple space")
    if slots == "23":
        return kron_blocks(g1, m.gradings, {(k, k): m for k in range(len(g1))})
    d2, d3 = len(g2), len(g3)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for (r, c), v in m.entries.items():
        if slots == "12":
            for k in range(d3):
                entries[(r * d3 + k, c * d3 + k)] = v
        else:
            x, y = divmod(r, d3)
            xc, yc = divmod(c, d3)
            odd = (g3[y] + g3[yc]) % 2
            for k, gk in enumerate(g2):
                entries[((x * d2 + k) * d3 + y, (xc * d2 + k) * d3 + yc)] = (
                    -v if odd and gk else v
                )
    return GradedMatrix._of(kron_gradings(kron_gradings(g1, g2), g3), entries)


def flip_conjugate(m: GradedMatrix, g1: tuple, g2: tuple) -> GradedMatrix:
    """P m P for m on U1 (x) U2 (gradings g1, g2), P the graded flip: the
    operator on U2 (x) U1 with (P m P)[(y,x),(y',x')] equal to
    (-1)^([x][y] + [x'][y']) m[(x,y),(x',y')], a re-indexing with Koszul
    signs and no product (P is graded_permutation(g1) when g1 = g2)."""
    if m.gradings != kron_gradings(g1, g2):
        raise ValueError("matrix does not act on U1 (x) U2")
    entries: dict[tuple[int, int], LaurentPoly] = {}
    for (r, c), v in m.entries.items():
        (x, y), (xc, yc) = divmod(r, len(g2)), divmod(c, len(g2))
        odd = (g1[x] * g2[y] + g1[xc] * g2[yc]) % 2
        entries[(y * len(g1) + x, yc * len(g1) + xc)] = -v if odd else v
    return GradedMatrix._of(kron_gradings(g2, g1), entries)


@dataclass(frozen=True)
class PackStats:
    """What the packing bound needs to know of one factor of a product."""

    lo: int  # lowest exponent of s in any entry (0 for the zero matrix)
    norm: int  # largest L1 norm of an entry
    row: int  # largest number of nonzero entries in a row


def pack_stats(m: GradedMatrix) -> PackStats | None:
    """The PackStats of a matrix over Z[s, s^-1], or of a matrix of ints
    (each entry v a constant: lo = 0, norm = |v|); None when some entry or
    coefficient is not an int, so that neither `pack` nor `lane_product`
    applies.  Laurent entries are read in one pass.  embed_triple only
    re-indexes and signs entries, so an embedded matrix has the stats of
    the matrix it embeds."""
    values = m.entries.values()
    if all(type(v) is int for v in values):
        lo, norm = 0, max(map(abs, values), default=0)
    else:
        lo, norm = None, 0
        for v in values:
            if type(v) is not LaurentPoly:
                return None
            n = 0
            for k, c in v.terms.items():
                if type(c) is not int:
                    return None
                n += abs(c)
                if lo is None or k < lo:
                    lo = k
            if n > norm:
                norm = n
    rows = Counter(r for r, _ in m.entries)
    return PackStats(lo=lo, norm=norm, row=max(rows.values(), default=0))


def packing_bits(*sides: list[PackStats]) -> int:
    """Bits B for comparing products of packed factors exactly.

    Each side A_1 ... A_t is given by its factors' stats.  An entry of the
    product sums at most prod_{i<t} row(A_i) index paths, each a product of
    entries with L1 norms at most norm(A_i), so every coefficient is at most
    C = prod_i norm(A_i) * prod_{i<t} row(A_i) in absolute value.  B makes
    2^B exceed the sum of the sides' C: their difference is then a Laurent
    polynomial with integer coefficients below N = 2^B in absolute value,
    and such a polynomial vanishes at s = N only when it is zero (its
    lowest nonzero coefficient is not divisible by N)."""
    total = 0
    for side in sides:
        bound = 1
        for i, f in enumerate(side):
            bound *= f.norm * (f.row if i < len(side) - 1 else 1)
        total += bound
    return max(1, total.bit_length())


def pack(m: GradedMatrix, bits: int, lo: int) -> GradedMatrix:
    """m over Z[s, s^-1] as a matrix of ints, each entry p as
    p(N) N^-lo = sum_k c_k 2^(bits (k - lo)), with N = 2^bits and lo at most
    the lowest exponent of s in m.  A product of packed factors is the
    packed product, with the factors' lo summed.  A monomial entry, as
    most are, is one shift."""
    out = {}
    for key, v in m.entries.items():
        terms = v.terms
        if len(terms) == 1:
            ((k, c),) = terms.items()
            out[key] = c << bits * (k - lo)
        else:
            out[key] = sum(c << bits * (k - lo) for k, c in terms.items())
    return GradedMatrix._of(m.gradings, out)


def weight_codes(*factors: list[tuple]) -> list[list[int]]:
    """Each factor's int weight coordinate tuples t as sum_i t_i N^i, where
    N = 2M + 1 and M is the sum of the factors' largest |coordinate|: a total
    of one tuple per factor (or per some factors) has coordinates in [-M, M],
    so its code, the sum of its parts' codes, tells it apart."""
    if any(type(x) is not int for c in factors for t in c for x in t):
        raise TypeError("weight codes need int coordinates")
    base = 2 * sum(max((abs(x) for t in c for x in t), default=0) for c in factors) + 1
    return [[sum(x * base**i for i, x in enumerate(t)) for t in c] for c in factors]


def weight_lanes(c1: list[tuple], c2: list[tuple], c3: list[tuple]) -> list[int]:
    """The lane of each index of U1 (x) U2 (x) U3, from the int weight
    coordinate tuples of the basis of each factor: the number of earlier
    indices with the same total weight c1[x] + c2[y] + c3[z] (compared by
    weight_codes), so lanes are distinct inside a weight and repeat across
    weights."""
    k1, k2, k3 = weight_codes(c1, c2, c3)
    seen: dict[int, int] = {}  # code of a total weight -> lanes handed out
    lanes = []
    for t in [x + y + z for x in k1 for y in k2 for z in k3]:
        lanes.append(seen.get(t, 0))
        seen[t] = lanes[-1] + 1
    return lanes


def lane_product(factors: list[GradedMatrix], lanes: list[int], bits: int) -> dict:
    """The nonzero rows of A_1 ... A_t, row r as sum_c x_c 2^(bits lane(c))
    over its entries x_c.

    The entries must be ints (TypeError otherwise).  Packing a row is
    linear, so each entry of the last factor is shifted into its column's
    lane and each earlier factor A then gives row r as the sum of v row[c]
    over its nonzeros v = A[r, c]; rows are kept in a list, zero where
    empty."""
    *head, last = factors
    shifts = [bits * lane for lane in lanes]
    rows = [0] * last.dim
    for (r, c), v in last.entries.items():
        rows[r] += v << shifts[c]
    for factor in reversed(head):
        out = [0] * last.dim
        for (r, c), v in factor.entries.items():
            out[r] += v * rows[c]
        rows = out
    if not set(map(type, rows)) <= {int}:
        raise TypeError("lane_product needs int entries")
    return {r: x for r, x in enumerate(rows) if x}


def graded_dagger(x: GradedMatrix) -> GradedMatrix:
    """Graded conjugation: (X^dag)[b,a] = (-1)^([a]([a]+[b])) X[a,b]."""
    g = x.gradings
    entries = {}
    for (a, b), v in x.entries.items():
        sign = -1 if (g[a] * (g[a] + g[b])) % 2 else 1
        entries[(b, a)] = v if sign > 0 else -v
    return GradedMatrix(g, entries)


def tensor_dagger(
    x: GradedMatrix, left: tuple[int, ...], right: tuple[int, ...]
) -> GradedMatrix:
    """Graded conjugation of an operator on a tensor product, applied
    factorwise: (u (x) v)^dag = u^dag (x) v^dag.

    On the composite matrix this is graded_dagger re-signed by the Koszul
    factor (-1)^([r1][r2] + [c1][c2]) of graded_kron's sign convention;
    without it, sums of mixed-parity simple tensors conjugate incorrectly.
    """
    if x.gradings != kron_gradings(left, right):
        raise ValueError("matrix does not act on the tensor product of the factors")
    d2, out = len(right), graded_dagger(x)
    for (c, r), v in out.entries.items():  # the factor term is symmetric in r, c
        (r1, r2), (c1, c2) = divmod(r, d2), divmod(c, d2)
        if (left[r1] * right[r2] + left[c1] * right[c2]) % 2:
            out.entries[(c, r)] = -v
    return out


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


@dataclass
class Representation:
    """A weight module given by matrices for the simple generators."""

    algebra: AlgebraData
    name: str
    gradings: tuple[int, ...]
    weights: tuple[Weight, ...]
    e: dict[str, GradedMatrix]
    f: dict[str, GradedMatrix]

    @property
    def dim(self) -> int:
        return len(self.gradings)

    @cached_property
    def weight_coords(self) -> list[tuple[Scalar, ...]]:
        """Each weight as one coordinate tuple, eps then delta."""
        return [w.eps + w.delta for w in self.weights]

    @cached_property
    def _columns(self) -> list[list[Scalar]]:
        return form_columns(self.weights, self.algebra.l, self.algebra.k)

    def off_weight_entry(
        self, mat: GradedMatrix, shift: tuple[Scalar, ...]
    ) -> tuple[int, int] | None:
        """The first nonzero entry (r, c) of `mat` with wt_r - wt_c != shift,
        or None when `mat` shifts every weight by `shift`.  Weights and the
        shift are compared as coordinate tuples (eps, then delta)."""
        coords = self.weight_coords
        for (r, c) in mat.entries:
            if tuple(map(sub, coords[r], coords[c])) != shift:
                return r, c
        return None

    def pairings(self, w: Weight) -> list[Scalar]:
        """(w, wt_b) for every index b."""
        return pair_with(w, self._columns)

    def q_exponents(self, w: Weight, t: Scalar) -> list[int]:
        """2t (w, wt_b) for every index b: the s-exponents of q^(t h_w).
        ValueError when some t (w, wt_b) is not a half-integer."""
        two_t = _canonical(2 * t)
        return [s_exponent(two_t * x) for x in self.pairings(w)]

    def qh_diag(self, w: Weight, t: Scalar) -> GradedMatrix:
        """Diagonal q^(t h_w): the monomial s^(2t (w, wt_b)) at position b."""
        return self._q_diagonal(self.q_exponents(w, t))

    def _q_diagonal(self, exponents: list[int]) -> GradedMatrix:
        return GradedMatrix._of(
            self.gradings, {(b, b): monomial(e) for b, e in enumerate(exponents)}
        )

    @cached_property
    def pair2(self) -> list[list[int]]:
        """2 (wt_a, wt_b) for every index a of V and b of this module: row a
        holds the s-exponents of q^(h_eps_a)."""
        return [self.q_exponents(w, 1) for w in self.algebra.weights]

    @cached_property
    def qh_eps(self) -> list[GradedMatrix]:
        """q^(h_eps_a) for every index a of V, in position order: R's
        diagonal blocks."""
        return [self._q_diagonal(row) for row in self.pair2]

    def big_e(self, label: str) -> GradedMatrix:
        """E_a = e_a q^(h_a / 2), the adjoint-friendly raising combination."""
        return self.e[label] @ self.qh_diag(self.algebra.root(label), HALF)

    def to_json(self) -> dict:
        return {
            "algebra": {"m": self.algebra.m, "n": self.algebra.n},
            "name": self.name,
            "dim": self.dim,
            "gradings": list(self.gradings),
            "weights": [w.to_json() for w in self.weights],
            "e": {lab: entry_triples(m.entries) for lab, m in self.e.items()},
            "f": {lab: entry_triples(m.entries) for lab, m in self.f.items()},
        }


def entry_triples(entries: Mapping[tuple[int, int], object]) -> list:
    """Sparse entries as the 1-based [row, col, str(value)] triples, in
    index order, that every JSON document writes; matrix_from_entries reads
    them back."""
    return [[r + 1, c + 1, str(v)] for (r, c), v in sorted(entries.items())]


def matrix_from_entries(entries: list, gradings: tuple[int, ...]) -> GradedMatrix:
    if not isinstance(entries, list):
        raise SchemaError(f"bad matrix entries {entries!r}: not a list of [row, col, value]")
    out: dict[tuple[int, int], LaurentPoly] = {}
    for item in entries:
        try:
            r, c, text = item
            if not (type(r) is type(c) is int and type(text) is str):
                raise TypeError("row and column must be integers, the value a string")
            key, val = (r - 1, c - 1), LaurentPoly.parse(text)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad matrix entry {item!r}: {exc}") from exc
        if not all(0 <= i < len(gradings) for i in key):
            raise SchemaError(f"bad matrix entry {item!r}: index outside 1..{len(gradings)}")
        if key in out:
            raise SchemaError(f"bad matrix entry {item!r}: its position is already set")
        out[key] = val
    return GradedMatrix(gradings, out)


def check_representation(rep: Representation) -> None:
    """Assert the defining relations on the simple-generator matrices.

    Checks weight homogeneity of every e_a / f_a (which encodes the Cartan
    relations), the graded bracket [e_a, f_b] = delta_ab [h_a]_q for every
    pair a, b, and nilpotency of the isotropic pair.  Raises RelationError
    naming the first violated one.  load_representation runs it on every
    file module; the built-in modules are proved by the tests.
    """
    alg = rep.algebra
    labels = alg.root_labels()
    if set(rep.e) != set(labels) or set(rep.f) != set(labels):
        raise SchemaError(
            f"generator labels {sorted(rep.e)} do not match roots {sorted(labels)}"
        )
    for lab in labels:
        alpha = alg.root(lab)
        up = alpha.eps + alpha.delta
        down = tuple(-x for x in up)
        for mat, shift, kind in ((rep.e[lab], up, "e"), (rep.f[lab], down, "f")):
            bad = rep.off_weight_entry(mat, shift)
            if bad is not None:
                r, c = bad
                raise RelationError(
                    f"[h, {kind}_{lab}] relation: entry ({r + 1},{c + 1}) does not "
                    f"shift weight by {'+' if kind == 'e' else '-'}alpha_{lab}"
                )
    for i, lab_a in enumerate(labels):
        pa = alg.root_parity(lab_a)
        for lab_b in labels:
            lhs = rep.e[lab_a].bracket(rep.f[lab_b], pa, alg.root_parity(lab_b))
            if lab_a == lab_b:
                diag = []
                for x in rep.pairings(alg.root(lab_a)):
                    if x.denominator != 1:
                        raise RelationError(
                            f"[e_{lab_a}, f_{lab_a}]: non-integer pairing {x}"
                        )
                    diag.append(q_int(int(x)))
                rhs = GradedMatrix.diagonal(rep.gradings, diag)
            else:
                rhs = GradedMatrix.zeros(rep.gradings)
            if lhs != rhs:
                raise RelationError(f"[e_{lab_a}, f_{lab_b}] relation fails")
        if alg.cartan[i][i] == 0:  # (alpha, alpha) = 0
            if not (rep.e[lab_a] @ rep.e[lab_a]).is_zero():
                raise RelationError(f"[e_{lab_a}, e_{lab_a}] = 0 fails")
            if not (rep.f[lab_a] @ rep.f[lab_a]).is_zero():
                raise RelationError(f"[f_{lab_a}, f_{lab_a}] = 0 fails")


def pi_sigma(
    alg: AlgebraData, a: int, b: int, lead: LaurentPoly = ONE, tail: LaurentPoly = ONE
) -> GradedMatrix:
    """The two-entry matrix of sigma shape on V, upper index a, lower index
    b (0-based positions):

        lead E^a_b - (-1)^([a]([a]+[b])) xi_a xi_b tail E^bar(b)_bar(a)

    With lead = tail = 1 it is the vector representation of the Cartan-Weyl
    generator; the closed-form sigma_ba and the opposite R's sigma~_ab are
    this shape with q-power coefficients.  The entries are summed, so they
    merge when the two positions coincide.
    """
    g = alg.gradings
    sign = -1 if (g[a] * (g[a] + g[b])) % 2 else 1
    coeff = tail * (-sign * alg.xi[a] * alg.xi[b])
    return GradedMatrix(g, {(a, b): lead}) + GradedMatrix(
        g, {(alg.bar[b], alg.bar[a]): coeff}
    )


def build_vector_rep(alg: AlgebraData) -> Representation:
    """The undeformed vector representation V.  Its relations are proved
    once by the tests over the whole osp(m|n) ladder, not in every job."""
    e: dict[str, GradedMatrix] = {}
    f: dict[str, GradedMatrix] = {}
    for lab in alg.root_labels():
        # e = pi(sigma_(b,a)) and f = (-1)^[b] pi(sigma_(a,b))
        b, a = alg.simple_pair(lab)
        e[lab] = pi_sigma(alg, b, a)
        f[lab] = -pi_sigma(alg, a, b) if alg.gradings[b] else pi_sigma(alg, a, b)
    return Representation(
        algebra=alg,
        name="vector",
        gradings=alg.gradings,
        weights=alg.weights,
        e=e,
        f=f,
    )


def trivial_rep(alg: AlgebraData) -> Representation:
    """One-dimensional module on which every generator acts by zero."""
    z = GradedMatrix((0,))
    labels = alg.root_labels()
    return Representation(
        algebra=alg,
        name="trivial",
        gradings=(0,),
        weights=(Weight.zero(alg.l, alg.k),),
        e={lab: z for lab in labels},
        f={lab: z for lab in labels},
    )


def tensor_product(w1: Representation, w2: Representation) -> Representation:
    """W1 (x) W2 by the coproduct e -> q^(h/2) (x) e + e (x) q^(-h/2), and f
    the same way, each q^(h/2) read from its own factor.  Index (i, j) has
    grading [i] + [j] and weight wt_i + wt_j, so its qh_diag is the Kronecker
    product of the factors' own."""
    alg = w1.algebra
    e, f = {}, {}
    for lab in alg.root_labels():
        alpha = alg.root(lab)
        qp, qm = w1.qh_diag(alpha, HALF), w2.qh_diag(alpha, -HALF)
        e[lab] = graded_kron(qp, w2.e[lab]) + graded_kron(w1.e[lab], qm)
        f[lab] = graded_kron(qp, w2.f[lab]) + graded_kron(w1.f[lab], qm)
    weights = tuple(x + y for x in w1.weights for y in w2.weights)
    gradings = kron_gradings(w1.gradings, w2.gradings)
    return Representation(alg, f"{w1.name}_x_{w2.name}", gradings, weights, e, f)


def load_representation(doc: dict, alg: AlgebraData) -> Representation:
    """Parse and validate a Representation document (see to_json for layout).
    m, n, dim, the gradings and the entry indices must be JSON integers (not
    bools), and the name a string usable as part of a file name.  A module
    that satisfies the relations (check_representation) and is named
    "vector" must also equal build_vector_rep's.  Else SchemaError."""
    try:
        m, n, dim = doc["algebra"]["m"], doc["algebra"]["n"], doc["dim"]
        for key, x in (("m", m), ("n", n), ("dim", dim)):
            if type(x) is not int:
                raise TypeError(f"{key} {x!r} is not an integer")
        name = doc["name"]
        gradings = tuple(doc["gradings"])
        weights = tuple(Weight.from_json(w) for w in doc["weights"])
        e_doc, f_doc = doc["e"], doc["f"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed representation document: {exc}") from exc
    if type(name) is not str or name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
        raise SchemaError(f"representation name {name!r} cannot be part of a file name")
    if (alg.m, alg.n) != (m, n):
        raise SchemaError(f"document is for osp({m}|{n}), expected osp({alg.m}|{alg.n})")
    if len(gradings) != dim or len(weights) != dim:
        raise SchemaError("gradings/weights length does not match dim")
    for g in gradings:
        if type(g) is not int or g not in (0, 1):
            raise SchemaError(f"grading {g!r} is not 0 or 1")
    for i, w in enumerate(weights):
        if (len(w.eps), len(w.delta)) != (alg.l, alg.k):
            raise SchemaError(
                f"weight {i + 1} has {len(w.eps)} eps and {len(w.delta)} delta "
                f"coordinates; osp({m}|{n}) needs {alg.l} and {alg.k}"
            )
    if not (isinstance(e_doc, dict) and isinstance(f_doc, dict)):
        raise SchemaError(
            "malformed representation document: e and f must map labels to entry lists"
        )
    e = {lab: matrix_from_entries(ent, gradings) for lab, ent in e_doc.items()}
    f = {lab: matrix_from_entries(ent, gradings) for lab, ent in f_doc.items()}
    rep = Representation(alg, name, gradings, weights, e, f)
    check_representation(rep)
    if name == "vector":  # the CLI takes a module named "vector" as V itself
        v = build_vector_rep(alg)
        if (gradings, weights, e, f) != (v.gradings, v.weights, v.e, v.f):
            raise SchemaError(
                f'a representation named "vector" must be the vector '
                f"representation of osp({m}|{n}) (gradings, weights, e and f); "
                f"this one differs, so give it another name"
            )
    return rep
