"""Exact coefficient arithmetic.

Laurent polynomials in s = q^(1/2) over arbitrary-precision rationals,
and univariate rational functions in the spectral variable z whose
coefficients are Laurent polynomials.  Everything here is exact; there
is no floating-point mode.

Coefficient invariant: every stored coefficient is an ``int``, or a
``Fraction`` whose denominator is not 1, and never a float.  Integral
values stay on Python's fast int arithmetic.  ``dot`` is where a sum or
product is normalised (an integral ``Fraction`` becomes an int): sums,
z-products and _times_qq go through it, and ``LaurentPoly.__mul__`` and
_times_qq's monomial branch, kept for speed, are pinned to it by tests.
Equality, hashing and the text form do not depend on the representation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# an exact rational as str writes an int or a Fraction: no zero denominator
RATIONAL = r"-?\d+(?:/0*[1-9]\d*)?"


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""

    def __init__(self, denominator: str):
        super().__init__(f"evaluation at a pole: denominator {denominator} vanishes")
        self.denominator = denominator


def _canonical(c) -> Scalar:
    """c as an int when it is integral, else as a Fraction; floats are refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


class LaurentPoly:
    """An element of Q[s, s^-1], stored as {exponent: nonzero coefficient}.

    q is identified with s^2, so q^t for half-integer t is the exact
    monomial s^(2t).
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        clean: dict[int, Scalar] = {}
        if terms:
            for k, c in terms.items():
                c = _canonical(c)
                if c:
                    clean[int(k)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: Scalar) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def s_power(cls, k: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls({k: coeff})

    # -- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is LaurentPoly:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        """The hash of the terms, worked out on the first call and kept:
        a LaurentPoly is never changed once built."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return dot(((self, ONE), (other, ONE)))  # a + b = a 1 + b 1

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else LaurentPoly.const(-other))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            out = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    k = ka + kb
                    v = out.get(k, 0) + ca * cb
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        elif isinstance(other, (int, Fraction)):
            c = _canonical(other)
            if not c:
                return LaurentPoly.zero()
            out = {k: v * c for k, v in self.terms.items()}
        else:
            return NotImplemented
        for k, v in out.items():
            if type(v) is not int and v.denominator == 1:
                out[k] = v.numerator
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def shift(self, k: int, sign: int = 1) -> "LaurentPoly":
        """The product with sign * s^k, sign = +-1: every exponent moved by
        k, every coefficient times sign."""
        if not k and sign > 0:
            return self
        res = LaurentPoly.__new__(LaurentPoly)
        if sign > 0:
            res.terms = {e + k: c for e, c in self.terms.items()}
        else:
            res.terms = {e + k: -c for e, c in self.terms.items()}
        return res

    # -- queries -------------------------------------------------------

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "LaurentPoly":
        """Inverse of a monomial; only monomials are units of Q[s, s^-1]."""
        if not self.is_monomial():
            raise ValueError(f"not invertible in Q[s, s^-1]: {self}")
        ((k, c),) = self.terms.items()
        return LaurentPoly({-k: Fraction(1, c)})

    def evaluate(self, s0: Scalar) -> Fraction:
        """Exact value at s = s0; s0 must be nonzero (negative exponents)."""
        s0 = Fraction(_canonical(s0))
        if not s0:
            raise ValueError("cannot evaluate a Laurent polynomial at s = 0")
        return sum((c * s0 ** k for k, c in self.terms.items()), Fraction(0))

    # -- canonical text form --------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            parts.append(str(c) if k == 0 else f"{c}*s^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    _TERM_RE = re.compile(rf"^({RATIONAL})(?:\*s\^(-?\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form, e.g. '-1*s^-2 + 3 + 1/2*s^4'."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[int, Fraction] = {}
        for part in text.split(" + "):
            m = cls._TERM_RE.match(part.strip())
            if m is None:
                raise ValueError(f"malformed Laurent term: {part!r}")
            coeff = Fraction(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 0
            if exp in terms:
                raise ValueError(f"duplicate exponent {exp} in {text!r}")
            if coeff:
                terms[exp] = coeff
        return cls(terms)


# Frequently used elements.
ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()

# monomial's shared objects, (k, sign) -> sign * s^k: a few hundred per
# process, so they are kept and never evicted.
_MONOMIALS: dict[tuple[int, int], LaurentPoly] = {(0, 1): ONE}


def monomial(k: int, sign: int = 1) -> LaurentPoly:
    """sign * s^k, sign = +-1, as one shared object per (k, sign).  Like
    every LaurentPoly it is never changed once built."""
    out = _MONOMIALS.get((k, sign))
    if out is None:
        out = _MONOMIALS[(k, sign)] = LaurentPoly.__new__(LaurentPoly)
        out.terms = {k: sign}
    return out


def dot(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of a b over the pairs (a, b), in one pass: every term is
    added at its exponent into one dict, and no product or partial sum is
    built."""
    sums: dict[int, Scalar] = {}
    for a, b in pairs:
        terms = b.terms.items()
        for ea, ca in a.terms.items():
            for eb, cb in terms:
                sums[ea + eb] = sums.get(ea + eb, 0) + ca * cb
    # zero sums dropped, integral Fractions stored as ints
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = {
        k: c if type(c) is int or c.denominator != 1 else c.numerator
        for k, c in sums.items() if c
    }
    return res


def _times_qq(v: LaurentPoly, k: int, sign: int) -> LaurentPoly:
    """sign (s^(k+2) - s^(k-2)) v = sign s^k (q - q^-1) v for sign = +-1 and
    v nonzero, one dot; a monomial v, as most entries of sigma on V are,
    gets its two terms four apart directly, which is faster (a test pins it)."""
    if len(v.terms) == 1:
        ((e, c),) = v.terms.items()
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {e + k + 2: sign * c, e + k - 2: -sign * c}
        return res
    return dot(((monomial(k + 2, sign), v), (monomial(k - 2, -sign), v)))


def s_exponent(two_t: Scalar) -> int:
    """2t as an int: the exponent k of q^t = s^k.  ValueError when t is not
    a half-integer."""
    if type(two_t) is not int:
        two_t = _canonical(two_t)
        if type(two_t) is not int:
            raise ValueError(f"q^t needs a half-integer t, got {two_t / 2}")
    return two_t


def q_power(t: Scalar) -> LaurentPoly:
    """q^t as the shared monomial s^(2t); t must be a half-integer."""
    return monomial(s_exponent(2 * t))


def q_minus_qinv() -> LaurentPoly:
    """q - q^-1 = s^2 - s^-2."""
    return LaurentPoly({2: 1, -2: -1})


def q_int(n: int) -> LaurentPoly:
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1), exactly."""
    if n == 0:
        return LaurentPoly.zero()
    sign = 1 if n > 0 else -1
    n = abs(n)
    # [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)
    return LaurentPoly({2 * e: sign for e in range(1 - n, n, 2)})


# ---------------------------------------------------------------------------
# Rational functions in z over Q[s, s^-1]
# ---------------------------------------------------------------------------

ZPoly = tuple  # tuple[LaurentPoly, ...], ascending powers of z


def _ztrim(coeffs: Iterable[LaurentPoly]) -> ZPoly:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zmul(a: ZPoly, b: ZPoly) -> ZPoly:
    """The product of two polynomials in z: one dot per z-degree."""
    return _ztrim(
        dot((a[i], b[d - i]) for i in range(max(0, d - len(b) + 1), min(d + 1, len(a))))
        for d in range(len(a) + len(b) - 1)
    )


def _zneg(a: ZPoly) -> ZPoly:
    return tuple(-c for c in a)


def _zscale(a: ZPoly, c: LaurentPoly) -> ZPoly:
    return _ztrim(x * c for x in a)


def horner(coeffs, x: Scalar) -> Scalar:
    """The polynomial with the given ascending coefficients, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _zstr(a: ZPoly) -> str:
    if not a:
        return "0"
    return " ; ".join(f"z^{i}: {c}" for i, c in enumerate(a) if c)


class RatFunc:
    """A fraction of polynomials in z with LaurentPoly coefficients, as
    read from an entry of a spectral R-matrix's JSON: it compares, negates,
    gives its z-degrees and evaluates exactly, and has no field arithmetic.

    Normalization is best effort (common z-power and monomial content are
    cancelled); equality never relies on canonical form and is decided by
    cross-multiplication instead.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[LaurentPoly], den: Iterable[LaurentPoly]):
        num = _ztrim(num)
        den = _ztrim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: ZPoly, den: ZPoly) -> tuple[ZPoly, ZPoly]:
        if not num:
            return (), (ONE,)
        # cancel a common power of z
        shift = 0
        while shift < len(num) and shift < len(den) and not num[shift] and not den[shift]:
            shift += 1
        if shift:
            num = num[shift:]
            den = den[shift:]
        # make the leading denominator coefficient 1 when it is a unit
        lead = den[-1]
        if lead.is_monomial() and lead != ONE:
            inv = lead.inverse()
            num = _zscale(num, inv)
            den = _zscale(den, inv)
        return num, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        # a/b == c/d  iff  a*d == c*b
        return _zmul(self.num, other.den) == _zmul(other.num, self.den)

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = _zneg(self.num)
        out.den = self.den
        return out

    # -- evaluation -------------------------------------------------------

    def evaluate(self, s0: Scalar, z0: Scalar) -> Fraction:
        """Exact rational value at (s, z) = (s0, z0); pole raises PoleError."""
        z0 = Fraction(_canonical(z0))
        dval = horner([c.evaluate(s0) for c in self.den], z0)
        if not dval:
            raise PoleError(_zstr(self.den))
        return horner([c.evaluate(s0) for c in self.num], z0) / dval

    # -- degrees / display --------------------------------------------------

    def degrees(self) -> tuple[int, int]:
        """(numerator z-degree, denominator z-degree); zero numerator gives -1."""
        return len(self.num) - 1, len(self.den) - 1

    def __str__(self) -> str:
        return f"({_zstr(self.num)}) / ({_zstr(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)})"

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}

    @classmethod
    def from_json(cls, doc: dict) -> "RatFunc":
        return cls(
            [LaurentPoly.parse(t) for t in doc["num"]],
            [LaurentPoly.parse(t) for t in doc["den"]],
        )
