"""Combinatorial data of osp(m|n): gradings, bar map, metric signs,
weights, simple roots, Cartan matrix and the half-sum rho.

The basis is laid out in descending weight order:

    delta_1 > ... > delta_k > eps_1 > ... > eps_l > (0) > -eps_l > ...
    > -eps_1 > -delta_k > ... > -delta_1

so positions 1..k carry the odd indices mu = 1..k, positions k+1..k+m the
even indices i = 1..m, and positions k+m+1..N the odd indices mu = k+1..n.
All positions here are 0-based internally; serialization is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import sub
from typing import Sequence

from .qring import Scalar, _canonical


class AlgebraError(ValueError):
    """Invalid or unsupported (m, n)."""


@dataclass(frozen=True)
class Weight:
    """Exact weight: coefficients of eps_1..eps_l and delta_1..delta_k,
    each an int when integral and a Fraction otherwise."""

    eps: tuple[Scalar, ...]
    delta: tuple[Scalar, ...]

    @classmethod
    def zero(cls, l: int, k: int) -> "Weight":
        return cls((0,) * l, (0,) * k)

    @classmethod
    def eps_unit(cls, i: int, l: int, k: int, sign: int = 1) -> "Weight":
        eps = [0] * l
        eps[i - 1] = sign
        return cls(tuple(eps), (0,) * k)

    @classmethod
    def delta_unit(cls, mu: int, l: int, k: int, sign: int = 1) -> "Weight":
        delta = [0] * k
        delta[mu - 1] = sign
        return cls((0,) * l, tuple(delta))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            tuple(_canonical(a + b) for a, b in zip(self.eps, other.eps)),
            tuple(_canonical(a + b) for a, b in zip(self.delta, other.delta)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return self + (-other)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.eps), tuple(-a for a in self.delta))

    def is_zero(self) -> bool:
        return not any(self.eps) and not any(self.delta)

    def to_json(self) -> dict:
        return {"eps": [str(c) for c in self.eps], "delta": [str(c) for c in self.delta]}

    @classmethod
    def from_json(cls, doc: dict) -> "Weight":
        return cls(
            tuple(_canonical(Fraction(c)) for c in doc["eps"]),
            tuple(_canonical(Fraction(c)) for c in doc["delta"]),
        )


def bilinear(w1: Weight, w2: Weight) -> Scalar:
    """(eps_i, eps_j) = delta_ij, (delta_mu, delta_nu) = -delta_munu, mixed 0."""
    return _canonical(
        sum(a * b for a, b in zip(w1.eps, w2.eps))
        - sum(a * b for a, b in zip(w1.delta, w2.delta))
    )


def form_columns(weights: Sequence[Weight], l: int, k: int) -> list[list[Scalar]]:
    """Coordinate j of every weight, times (u_j, u_j) for the j-th unit u_j
    (1 for eps, -1 for delta): (w, x) is then sum_j w_j column_j[x] for
    each weight x of `weights`."""
    return [[x.eps[j] for x in weights] for j in range(l)] + [
        [-x.delta[j] for x in weights] for j in range(k)
    ]


def pair_with(w: Weight, columns: list[list[Scalar]]) -> list[Scalar]:
    """(w, x) for every weight x whose form_columns are `columns`, one pass
    over the column of each nonzero coordinate of w."""
    out = None
    for wj, col in zip(w.eps + w.delta, columns):
        if wj:
            term = col if wj == 1 else [wj * x for x in col]
            out = term if out is None else [x + y for x, y in zip(out, term)]
    if out is None:
        return [0] * len(columns[0])
    return [x if type(x) is int else _canonical(x) for x in out]


@dataclass(frozen=True)
class AlgebraData:
    """All index-level data of osp(m|n) in the canonical descending layout."""

    m: int
    n: int
    l: int
    k: int
    dim: int
    labels: tuple[str, ...]
    gradings: tuple[int, ...]
    bar: tuple[int, ...]  # position involution
    xi: tuple[int, ...]
    weights: tuple[Weight, ...]
    simple_roots: tuple[tuple[str, Weight], ...]
    cartan: tuple[tuple[Scalar, ...], ...]
    rho: Weight

    # -- the s-exponent tables: q-powers as exponent shifts ----------------

    @cached_property
    def _columns(self) -> list[list[Scalar]]:
        return form_columns(self.weights, self.l, self.k)

    @cached_property
    def pair2(self) -> tuple[tuple[int, ...], ...]:
        """2 (wt_a, wt_b) for all a, b: q^((wt_a, wt_b)) = s^pair2[a][b]."""
        return tuple(
            tuple([2 * x for x in pair_with(w, self._columns)]) for w in self.weights
        )

    @cached_property
    def rho2(self) -> tuple[int, ...]:
        """(2 rho, wt_a) for every a: q^((rho, wt_a)) = s^rho2[a]."""
        return tuple(_canonical(2 * x) for x in pair_with(self.rho, self._columns))

    # -- position bookkeeping -------------------------------------------

    def pos_even(self, i: int) -> int:
        """0-based position of even index i (1 <= i <= m)."""
        return self.k + i - 1

    def pos_odd(self, mu: int) -> int:
        """0-based position of odd index mu (1 <= mu <= n)."""
        return mu - 1 if mu <= self.k else self.m + mu - 1

    def root(self, label: str) -> Weight:
        for lab, w in self.simple_roots:
            if lab == label:
                return w
        raise KeyError(label)

    def root_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.simple_roots)

    def root_parity(self, label: str) -> int:
        # alpha_s = delta_k - eps_1 is the only odd simple root
        return 1 if label == "s" else 0

    def simple_pair(self, label: str) -> tuple[int, int]:
        """The positions (b, a), b above a, with wt(b) - wt(a) = alpha_label:
        the first such pair in extended_pairs order.  The simple generators
        and the anchors of the appendix chains sit there."""
        if label not in self.root_labels():
            raise KeyError(label)
        pe, po, l, k = self.pos_even, self.pos_odd, self.l, self.k
        if label == "s":
            return po(k), pe(1)
        if label == "l":
            if self.m == 2 * l:
                return pe(l - 1), self.bar[pe(l)]
            return pe(l), pe(l + 1)
        if label.startswith("mu"):
            return po(int(label[2:])), po(int(label[2:]) + 1)
        return pe(int(label[1:])), pe(int(label[1:]) + 1)

    def extended_pairs(self) -> list[tuple[int, int]]:
        """All ordered position pairs (b, a) with eps_b > eps_a.

        The layout is strictly descending in weight, so this is exactly the
        set of pairs with b before a; the differences realise the extended
        positive root system (positive roots plus the 2*eps_i).
        """
        return [(b, a) for b in range(self.dim) for a in range(b + 1, self.dim)]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "layout": list(self.labels),
            "gradings": list(self.gradings),
            "bar": [p + 1 for p in self.bar],
            "xi": list(self.xi),
            "simple_roots": [
                {"label": lab, **w.to_json()} for lab, w in self.simple_roots
            ],
            "cartan": [[str(c) for c in row] for row in self.cartan],
            "rho": self.rho.to_json(),
        }


def _rho(m: int, n: int, l: int, k: int) -> Weight:
    eps = tuple(_canonical(Fraction(m - 2 * i, 2)) for i in range(1, l + 1))
    delta = tuple(
        _canonical(Fraction(n - m + 2 - 2 * mu, 2)) for mu in range(1, k + 1)
    )
    return Weight(eps, delta)


def _simple_roots(m: int, n: int, l: int, k: int) -> list[tuple[str, Weight]]:
    roots: list[tuple[str, Weight]] = []
    for mu in range(1, k):
        roots.append(
            (f"mu{mu}", Weight.delta_unit(mu, l, k) + Weight.delta_unit(mu + 1, l, k, -1))
        )
    if n > 0:
        roots.append(("s", Weight.delta_unit(k, l, k) + Weight.eps_unit(1, l, k, -1)))
    for i in range(1, l):
        roots.append(
            (f"i{i}", Weight.eps_unit(i, l, k) + Weight.eps_unit(i + 1, l, k, -1))
        )
    if m == 2 * l:
        alpha_l = Weight.eps_unit(l - 1, l, k) + Weight.eps_unit(l, l, k)
    else:
        alpha_l = Weight.eps_unit(l, l, k)
    roots.append(("l", alpha_l))
    return roots


def build_algebra(m: int, n: int) -> AlgebraData:
    """Construct all combinatorial data for osp(m|n), m > 2, n even >= 0."""
    if m <= 2:
        raise AlgebraError(f"m = {m}: this root system is only valid for m > 2")
    if n < 0 or n % 2 != 0:
        raise AlgebraError(f"n = {n}: n must be a nonnegative even integer")

    l, k = m // 2, n // 2
    dim = m + n

    labels: list[str] = []
    gradings: list[int] = []
    xi: list[int] = []
    weights: list[Weight] = []

    def odd_weight(mu: int) -> Weight:
        return (
            Weight.delta_unit(mu, l, k)
            if mu <= k
            else Weight.delta_unit(n + 1 - mu, l, k, -1)
        )

    def even_weight(i: int) -> Weight:
        if i <= l:
            return Weight.eps_unit(i, l, k)
        if m == 2 * l + 1 and i == l + 1:
            return Weight.zero(l, k)
        return Weight.eps_unit(m + 1 - i, l, k, -1)

    for mu in range(1, k + 1):
        labels.append(f"mu{mu}")
        gradings.append(1)
        xi.append((-1) ** mu)
        weights.append(odd_weight(mu))
    for i in range(1, m + 1):
        labels.append(f"i{i}")
        gradings.append(0)
        xi.append(1)
        weights.append(even_weight(i))
    for mu in range(k + 1, n + 1):
        labels.append(f"mu{mu}")
        gradings.append(1)
        xi.append((-1) ** mu)
        weights.append(odd_weight(mu))

    # bar pairs each position with the one carrying the opposite weight;
    # in this layout that is simply reversal.
    bar = tuple(dim - 1 - p for p in range(dim))

    roots = _simple_roots(m, n, l, k)
    root_columns = form_columns([w for _, w in roots], l, k)
    cartan = []
    for i, (_, ab) in enumerate(roots):
        # 2 (ab, ac) / (ab, ab) for every root ac, or (ab, ac) when ab is
        # isotropic; a Fraction only when the quotient is not an int
        row = pair_with(ab, root_columns)
        norm = row[i]
        cartan.append(tuple(
            (2 * x // norm if not 2 * x % norm else Fraction(2 * x, norm)) if norm else x
            for x in row
        ))

    alg = AlgebraData(
        m=m,
        n=n,
        l=l,
        k=k,
        dim=dim,
        labels=tuple(labels),
        gradings=tuple(gradings),
        bar=bar,
        xi=tuple(xi),
        weights=tuple(weights),
        simple_roots=tuple(roots),
        cartan=tuple(cartan),
        rho=_rho(m, n, l, k),
    )
    _check_invariants(alg)
    return alg


def _check_invariants(alg: AlgebraData) -> None:
    """The layout's invariants, with weights compared and paired as
    coordinate tuples, so that no Weight is built per index."""
    coords = [w.eps + w.delta for w in alg.weights]
    for p in range(alg.dim):
        assert alg.bar[alg.bar[p]] == p, "bar must be an involution"
        negated = tuple(-a for a in coords[p])
        assert coords[alg.bar[p]] == negated, "weight(bar) = -weight"
    # zero weight appears exactly once, for odd m, and is self-barred
    zeros = [p for p, w in enumerate(alg.weights) if w.is_zero()]
    if alg.m % 2 == 1:
        assert len(zeros) == 1 and alg.bar[zeros[0]] == zeros[0]
    else:
        assert not zeros
    # nonzero weights pairwise distinct
    nz = [(w.eps, w.delta) for w in alg.weights if not w.is_zero()]
    assert len(nz) == len(set(nz)), "nonzero weights must be pairwise distinct"
    # 2 (rho, alpha) = (alpha, alpha) on every simple root, paired on the
    # coordinates with 2 rho, integral on every layout built here
    signs = (1,) * alg.l + (-1,) * alg.k  # (eps_i, eps_i) = 1, (delta, delta) = -1

    def form(x: tuple, y: tuple) -> Scalar:
        return sum(s * a * b for s, a, b in zip(signs, x, y))

    two_rho = tuple(_canonical(2 * a) for a in alg.rho.eps + alg.rho.delta)
    for lab, alpha in alg.simple_roots:
        a = alpha.eps + alpha.delta
        assert form(two_rho, a) == form(a, a), f"rho pairing fails on alpha_{lab}"
    # every simple root is positive: realized as eps_b - eps_a, b above a,
    # at its simple pair
    for lab, alpha in alg.simple_roots:
        b, a = alg.simple_pair(lab)
        realized = tuple(map(sub, coords[b], coords[a]))
        assert b < a and realized == alpha.eps + alpha.delta, (
            f"alpha_{lab} is not positive in the weight order"
        )
