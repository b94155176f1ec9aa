"""Coxeter matrices: validation, named types, text parsing.

Generators are indexed 0..rank-1.  The matrix entry 0 stands for the
infinite bond (no relation between the two generators); every other
entry is the literal order m(s, t) of the product st.
"""
from __future__ import annotations

import re
from math import prod

from .records import Frozen

INF = 0  # matrix encoding of an infinite bond


class MatrixError(ValueError):
    """Raised for malformed or invalid Coxeter matrix input."""


class CoxeterMatrix(Frozen):
    """An immutable, validated Coxeter matrix.  `name` is shown by repr
    but left out of `==` and the hash."""

    _fields = ("rank", "entries", "name")

    def __init__(self, rank: int, entries: tuple[tuple[int, ...], ...],
                 name: str | None = None):
        if rank < 1:
            raise MatrixError("rank must be a positive integer")
        if len(entries) != rank or any(len(r) != rank for r in entries):
            raise MatrixError(f"entries must form a {rank}x{rank} array")
        for i in range(rank):
            if entries[i][i] != 1:
                raise MatrixError(f"diagonal entry ({i},{i}) is {entries[i][i]}, must be 1")
            for j in range(rank):
                if entries[i][j] != entries[j][i]:
                    raise MatrixError(f"entry ({i},{j}) is not symmetric")
                if i != j and entries[i][j] != INF and entries[i][j] < 2:
                    raise MatrixError(
                        f"off-diagonal entry ({i},{j}) is {entries[i][j]}, must be >= 2 or inf"
                    )
        self._set(rank=rank, entries=entries, name=name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rank == other.rank and self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, self.entries))

    def m(self, i: int, j: int) -> int:
        """Bond order m(s_i, s_j); 0 means infinity."""
        return self.entries[i][j]

    @property
    def generators(self) -> range:
        return range(self.rank)

    def is_finite_bond(self, i: int, j: int) -> bool:
        return self.entries[i][j] != INF

    def to_json_dict(self) -> dict:
        return {"matrix": [list(r) for r in self.entries], "inf_token": INF}

    def __str__(self):
        rows = []
        for r in self.entries:
            rows.append(" ".join("inf" if x == INF else str(x) for x in r))
        return "; ".join(rows)


def from_rows(rows, name: str | None = None) -> CoxeterMatrix:
    entries = tuple(tuple(int(x) for x in r) for r in rows)
    return CoxeterMatrix(rank=len(entries), entries=entries, name=name)


def _from_edges(rank: int, edges: dict[tuple[int, int], int], name: str) -> CoxeterMatrix:
    rows = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = 1
    for (i, j), m in edges.items():
        rows[i][j] = m
        rows[j][i] = m
    return from_rows(rows, name=name)


def _path(rank: int, labels, name: str) -> CoxeterMatrix:
    edges = {(i, i + 1): labels[i] for i in range(rank - 1)}
    return _from_edges(rank, edges, name)


# Degrees of the basic invariants of the finite irreducible types
# (Humphreys, Reflection Groups and Coxeter Groups, Table 3.1):
# |W| is their product and the longest element has length sum(d - 1).
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
          8: (2, 8, 12, 14, 18, 20, 24, 30)}.get,
    "F": {4: (2, 6, 8, 12)}.get,
    "G": {2: (2, 6)}.get,
    "H": {3: (2, 6, 10), 4: (2, 12, 20, 30)}.get,
}


def named_matrix(name: str) -> CoxeterMatrix:
    """Expand a standard type name (A3, B4, D5, E6-8, F4, G2, H3, H4,
    I2(m), I2(inf), and affine variants affA2, affB3, affC2, affD4,
    affF4, affG2) into its Coxeter matrix."""
    text = name.strip()
    m = re.fullmatch(r"I2\((\d+|inf)\)", text, flags=re.IGNORECASE)
    if m:
        order = INF if m.group(1).lower() == "inf" else int(m.group(1))
        if order != INF and order < 2:
            raise MatrixError(f"I2({order}): dihedral bond must be >= 2 or inf")
        return from_rows([[1, order], [order, 1]], name=f"I2({m.group(1).lower()})")

    aff = False
    body = text
    if text.lower().startswith("aff"):
        aff = True
        body = text[3:]
    elif text.endswith("~"):
        aff = True
        body = text[:-1]
    m = re.fullmatch(r"([A-Ha-h])(\d+)", body)
    if not m:
        raise MatrixError(f"unrecognized type name {name!r}")
    letter, n = m.group(1).upper(), int(m.group(2))
    key = f"{'aff' if aff else ''}{letter}{n}"

    if not aff:
        if letter == "A" and n >= 1:
            return _path(n, [3] * (n - 1), key)
        if letter == "B" and n >= 2:
            # generator 0 is the short-root end: m(s0, s1) = 4
            return _path(n, [4] + [3] * (n - 2), key)
        if letter == "C" and n >= 2:
            return _path(n, [4] + [3] * (n - 2), key)
        if letter == "D" and n >= 4:
            edges = {(0, 2): 3, (1, 2): 3}
            for i in range(2, n - 1):
                edges[(i, i + 1)] = 3
            return _from_edges(n, edges, key)
        if letter == "E" and n in (6, 7, 8):
            # node 0 hangs off node 3 of the path 1-2-...-(n-1)
            edges = {(0, 3): 3}
            for i in range(1, n - 1):
                edges[(i, i + 1)] = 3
            return _from_edges(n, edges, key)
        if letter == "F" and n == 4:
            return _path(4, [3, 4, 3], key)
        if letter == "G" and n == 2:
            return _path(2, [6], key)
        if letter == "H" and n in (3, 4):
            return _path(n, [5] + [3] * (n - 2), key)
    else:
        if letter == "A" and n == 1:
            return from_rows([[1, INF], [INF, 1]], name=key)
        if letter == "A" and n >= 2:
            edges = {(i, (i + 1) % (n + 1)): 3 for i in range(n + 1)}
            return _from_edges(n + 1, edges, key)
        if letter == "C" and n >= 2:
            return _path(n + 1, [4] + [3] * (n - 2) + [4], key)
        if letter == "B" and n >= 3:
            edges = {(0, 2): 3, (1, 2): 3}
            for i in range(2, n - 1):
                edges[(i, i + 1)] = 3
            edges[(n - 1, n)] = 4
            return _from_edges(n + 1, edges, key)
        if letter == "D" and n >= 4:
            edges = {(0, 2): 3, (1, 2): 3, (n - 1, n): 3, (n - 1, n - 2): 3}
            for i in range(2, n - 2):
                edges[(i, i + 1)] = 3
            return _from_edges(n + 1, edges, key)
        if letter == "G" and n == 2:
            return _path(3, [6, 3], key)
        if letter == "F" and n == 4:
            return _path(5, [3, 3, 4, 3], key)
    raise MatrixError(f"unrecognized or unsupported type name {name!r}")


def _degrees(matrix: CoxeterMatrix) -> tuple[int, ...] | None:
    """Degrees of a finite named type (I2(m): 2 and m), else None."""
    name = matrix.name
    if name is None:
        return None
    m = re.fullmatch(r"I2\((\d+)\)", name)
    if m:
        return (2, int(m.group(1)))
    m = re.fullmatch(r"([A-H])(\d+)", name)
    if not m:
        return None
    found = _DEGREES[m.group(1)](int(m.group(2)))
    return None if found is None else tuple(found)


def group_order(matrix: CoxeterMatrix) -> int | None:
    """|W| for recognized finite named types, else None."""
    degs = _degrees(matrix)
    return None if degs is None else prod(degs)


def longest_length(matrix: CoxeterMatrix) -> int | None:
    """Length of the longest element for recognized finite named types,
    else None."""
    degs = _degrees(matrix)
    return None if degs is None else sum(d - 1 for d in degs)


def parse_coxeter_matrix(spec: str) -> CoxeterMatrix:
    """Parse either a named type or an explicit matrix.

    Explicit form: rows separated by ';', entries by whitespace, the
    token 'inf' for an infinite bond, e.g. "1 3; 3 1".  Numeric zero is
    rejected (an off-diagonal entry must be >= 2 or 'inf').
    """
    text = spec.strip()
    if not text:
        raise MatrixError("empty matrix specification")
    if ";" not in text:
        tokens = text.split()
        if len(tokens) == 1 and tokens[0] != "1":
            return named_matrix(text)
        # single-row explicit input: only the 1x1 identity "1" is legal
    rows = []
    for chunk in text.split(";"):
        tokens = chunk.split()
        if not tokens:
            raise MatrixError("empty row in matrix specification")
        row = []
        for tok in tokens:
            if tok.lower() == "inf":
                row.append(INF)
            elif tok.isdigit():
                if int(tok) == 0:
                    raise MatrixError(
                        "entry 0 is not a valid bond order; off-diagonal "
                        "entries must be >= 2, or 'inf' for an infinite bond")
                row.append(int(tok))
            else:
                raise MatrixError(f"malformed matrix token {tok!r}")
        rows.append(row)
    if len({len(r) for r in rows}) != 1 or len(rows[0]) != len(rows):
        raise MatrixError("matrix rows must be square")
    return from_rows(rows)


def matrix_from_json_dict(obj: dict) -> CoxeterMatrix:
    inf_token = obj.get("inf_token", INF)
    rows = [[INF if x == inf_token else x for x in r] for r in obj["matrix"]]
    return from_rows(rows)
