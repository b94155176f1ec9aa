"""Generating polynomials of the k-absolute length and verdicts on
their coefficient sequences, plus the dihedral closed form and the
type-A reflection-slice count.

All arithmetic is exact integer arithmetic.
"""
from __future__ import annotations

from math import comb

from .errors import DomainError
from .orders import AbsoluteLengthTable
from .records import Frozen

__all__ = [
    "CoeffVector", "gen_poly", "is_log_concave", "is_unimodal",
    "DihedralFormulaRecord", "dihedral_formula_poly", "count_t_k_type_A",
]


class CoeffVector(Frozen):
    _fields = ("coeffs", "truncated")

    def __init__(self, coeffs: tuple[int, ...], truncated: bool = False):
        if coeffs and coeffs[-1] == 0:
            raise DomainError("coefficient vector not in canonical form")
        self._set(coeffs=coeffs,        # index = exponent; trailing coefficient nonzero
                  truncated=truncated)  # derived from an incomplete ball

    @staticmethod
    def of(seq, truncated: bool = False) -> "CoeffVector":
        coeffs = list(seq)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return CoeffVector(tuple(coeffs), truncated=truncated)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def total(self) -> int:
        return sum(self.coeffs)


def gen_poly(table: AbsoluteLengthTable) -> CoeffVector:
    """Coefficient c_i = number of elements at distance i from the
    identity; flagged as truncated unless the whole group is present."""
    counts = [0] * (max(table.lk) + 1)
    for d in table.lk:
        counts[d] += 1
    return CoeffVector.of(counts, truncated=not table.ball.is_complete_group)


def is_log_concave(v: CoeffVector) -> bool:
    """c_i^2 >= c_{i-1} c_{i+1} for interior i, and no internal zeros."""
    c = v.coeffs
    if any(x == 0 for x in c):  # canonical form: any zero is internal
        return False
    return all(c[i] * c[i] >= c[i - 1] * c[i + 1] for i in range(1, len(c) - 1))


def is_unimodal(v: CoeffVector) -> bool:
    c = v.coeffs
    if not c:
        return True
    i = 0
    while i + 1 < len(c) and c[i] <= c[i + 1]:
        i += 1
    while i + 1 < len(c) and c[i] >= c[i + 1]:
        i += 1
    return i == len(c) - 1


class DihedralFormulaRecord(Frozen):
    _fields = ("m", "k", "pi", "a", "b", "poly")

    def __init__(self, m: int, k: int, pi: int, a: int, b: int, poly: CoeffVector):
        self._set(m=m, k=k,
                  pi=pi,  # m mod (2k+1)
                  a=a,    # coefficient at exponent D+1
                  b=b,    # coefficient at exponent D+2
                  poly=poly)


def dihedral_formula_poly(m: int, k: int) -> DihedralFormulaRecord:
    """Closed-form distance generating polynomial of the dihedral group
    of order 2m, for slice parameter k with 2k+1 < m (and the boundary
    case 2k+1 = m for even m, which cannot occur; see below).

    At 2k+1 = m (m odd) the closed form degenerates: the linear term
    and the a-term collide at exponent 1 and the formula no longer sums
    to the group order, so that single case is rejected; the
    distance table itself (which equals absolute length there) remains
    available through the graph machinery.
    """
    if m < 2:
        raise DomainError("m must be >= 2")
    if k < 0:
        raise DomainError("k must be >= 0")
    h = 2 * k + 1
    if h > m:
        raise DomainError(f"2k+1 = {h} exceeds m = {m}")
    if h == m:
        raise DomainError(
            f"closed form degenerates at 2k+1 = m = {m} (exponent collision); "
            "compute the polynomial from the distance table instead")
    pi = m - h * (m // h)
    D = (m - 1) // h
    a = 2 * k + pi + (h if pi == 0 else 0)
    b = 2 * k if pi == 0 else pi - 1
    coeffs = [0] * (D + 3)
    coeffs[0] = 1
    coeffs[1] += 2 * (k + 1)
    for i in range(2, D + 1):
        coeffs[i] += 2 * h
    coeffs[D + 1] += a
    coeffs[D + 2] += b
    return DihedralFormulaRecord(m=m, k=k, pi=pi, a=a, b=b,
                                 poly=CoeffVector.of(coeffs))


def count_t_k_type_A(n: int, k: int) -> int:
    """Number of reflections of the symmetric group S_n with length at
    most 2k+1: C(n,2) - C(n-k-1,2)."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if k < 0:
        raise DomainError("k must be >= 0")
    return comb(n, 2) - comb(max(n - k - 1, 0), 2)
