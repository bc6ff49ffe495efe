"""Small constructors and predicates that only the tests use."""
from __future__ import annotations

from laxforge.gradedmat import GradedMatrix
from laxforge.qring import ONE, LaurentPoly, RatFunc, Scalar


def s_power(k: int, coeff: Scalar = 1) -> LaurentPoly:
    """coeff s^k."""
    return LaurentPoly({k: coeff})


def homogeneous_parity(m: GradedMatrix) -> int | None:
    """Common parity [r]+[c] of all entries of m, or None if mixed/empty."""
    parities = {(m.gradings[r] + m.gradings[c]) % 2 for (r, c) in m.entries}
    if len(parities) == 1:
        return parities.pop()
    return None


def elementary(a: int, b: int, gradings: tuple[int, ...]) -> GradedMatrix:
    """E^a_b: entry (a, b) equal to 1."""
    return GradedMatrix(gradings, {(a, b): ONE})


def degrees(rf: RatFunc) -> tuple[int, int]:
    """(numerator z-degree, denominator z-degree) of rf; a zero numerator
    gives -1."""
    return len(rf.num) - 1, len(rf.den) - 1
