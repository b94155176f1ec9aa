"""Serialization: ball JSON round-trip and deterministic DOT/JSON/CSV
exports for posets, arc graphs, length tables and reports.

Infinity entries of a Coxeter matrix are encoded as 0 in JSON, declared
by a top-level "inf_token": 0 field.  All exports order nodes by id, so
outputs are byte-stable for a given object.
"""
from __future__ import annotations

import json

from .ball import BOUNDARY, GroupBall, enumerate_ball
from .errors import DomainError, ResourceError
from .matrices import CoxeterMatrix
from .posets import Poset

__all__ = [
    "ball_to_json_dict", "ball_from_json_dict", "poset_to_json_dict",
    "poset_from_json_dict", "poset_to_dot", "omega_to_json_dict",
    "omega_to_dot", "lk_table_to_csv", "curvature_to_csv",
    "curvature_to_json_dict", "sperner_to_csv",
]


# -- group balls --------------------------------------------------------------


def ball_to_json_dict(ball: GroupBall) -> dict:
    return {
        "schema": 1,
        "inf_token": 0,
        "matrix": [list(row) for row in ball.matrix.entries],
        "radius": ball.radius,
        "elements": [{"id": w, "word": list(word), "length": length}
                     for w, (word, length) in enumerate(zip(ball.words, ball.lengths))],
        # cayley[w][s] = id of s*w (left multiplication), -1 at the boundary
        "cayley": [list(row) for row in ball.left],
    }


def ball_from_json_dict(data: dict) -> GroupBall:
    """Inverse of `ball_to_json_dict`, the ids in any order that keeps the
    identity at 0.  The file is checked against the ball `enumerate_ball`
    gives for its matrix and radius, whose tables are taken, renumbered:
    DomainError unless each record holds the ShortLex word and the length
    of a distinct element, the identity has id 0, and `cayley` is that
    ball's left table under the file's ids."""
    if not isinstance(data, dict) or data.get("inf_token", 0) != 0:
        raise DomainError("not a ball, or an unsupported infinity token")
    try:
        matrix = CoxeterMatrix(len(data["matrix"]), tuple(map(tuple, data["matrix"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"no Coxeter matrix: {exc}") from None
    radius, records, cayley = data.get("radius"), data.get("elements"), data.get("cayley")
    if type(radius) is not int or radius < 0:
        raise DomainError(f"radius {radius!r} is not an integer >= 0")
    if not (isinstance(records, list) and isinstance(cayley, list)):
        raise DomainError("elements and cayley must be lists")
    try:
        ref = enumerate_ball(matrix, radius, cap=len(records) + 1)
    except ResourceError:
        raise DomainError(f"{len(records)} element records for a larger ball") from None
    n = len(ref)
    if len(records) != n or len(cayley) != n:
        raise DomainError(f"{len(records)} records and {len(cayley)} cayley rows for {n} elements")
    where = {tuple(word): w for w, word in enumerate(ref.words)}
    new = [None] * n  # new[w]: the file's id of the element w of `ref`
    for d in records:
        try:
            i, word, w = d["id"], d["word"], where.get(tuple(d["word"]))
        except (KeyError, TypeError):
            raise DomainError(f"element record {d!r} needs an id and a word") from None
        if w is None:
            raise DomainError(f"word {word} is no ShortLex word of the ball")
        if new[w] is not None:
            raise DomainError(f"word {word} has two records")
        if d.get("length") != ref.lengths[w]:
            raise DomainError(f"word {word} has length {ref.lengths[w]}, not {d.get('length')!r}")
        if type(i) is not int or not 0 <= i < n:
            raise DomainError(f"id {i!r} of word {word} is not in 0..{n - 1}")
        new[w] = i
    if sorted(new) != list(range(n)):
        raise DomainError("two records share an id")
    if new[0] != 0:
        raise DomainError(f"the identity has id {new[0]}, not 0")
    old = sorted(range(n), key=new.__getitem__)  # old[i]: the element with the file's id i

    def renumbered(table):
        return [[x if x == BOUNDARY else new[x] for x in table[w]] for w in old]

    left = renumbered(ref.left)
    for i, row in enumerate(cayley):
        if row != left[i]:
            raise DomainError(f"cayley row {i} is not the left table of the ball")
    return GroupBall(matrix, radius, [ref.words[w] for w in old],
                     [ref.lengths[w] for w in old], renumbered(ref.right), left,
                     [new[ref.inv[w]] for w in old], ref.is_complete_group)


# -- posets -------------------------------------------------------------------


def _jsonable(label):
    if isinstance(label, (tuple, frozenset)):
        return sorted(map(_jsonable, label)) if isinstance(label, frozenset) \
            else [_jsonable(x) for x in label]
    if isinstance(label, bytes):
        return list(label)
    return label


def poset_to_json_dict(poset: Poset) -> dict:
    out = {
        "schema": 1,
        "nodes": [_jsonable(x) for x in poset.nodes],
        "covers": [[i, j] for i, j in poset.covers],
    }
    if poset.rank is not None:
        out["rank"] = list(poset.rank)
    if poset.metadata:
        out["metadata"] = {k: _jsonable(v) for k, v in poset.metadata.items()}
    return out


def poset_from_json_dict(data: dict) -> Poset:
    """Inverse of `poset_to_json_dict`.  DomainError unless the nodes and
    covers are lists, each node label can be hashed, every cover joins
    two node indices, a rank list has one integer per node, metadata is
    an object, and the covers have no cycle and are the covers of the
    order they generate."""
    nodes, covers, rank = data.get("nodes"), data.get("covers"), data.get("rank")
    metadata, seq = data.get("metadata"), (list, tuple)
    if not (isinstance(nodes, seq) and isinstance(covers, seq)):
        raise DomainError("nodes and covers must be lists")
    if not (rank is None or isinstance(rank, seq) and all(type(r) is int for r in rank)):
        raise DomainError("rank must be a list of integers")
    if not isinstance(metadata, (dict, type(None))):
        raise DomainError("metadata must be an object")
    nodes = [tuple(x) if isinstance(x, list) else x for x in nodes]
    try:
        set(nodes)
    except TypeError as exc:
        raise DomainError(f"a node label cannot be hashed: {exc}") from None
    n = len(nodes)
    for c in covers:
        if (not isinstance(c, seq) or len(c) != 2
                or not all(type(i) is int and 0 <= i < n for i in c) or c[0] == c[1]):
            raise DomainError(f"cover {_jsonable(c)} does not join two of the {n} nodes")
    covers = [tuple(c) for c in covers]
    if rank is not None and len(rank) != n:
        raise DomainError(f"rank list has {len(rank)} entries for {n} nodes")
    poset = Poset.from_relation(nodes, covers, rank=rank, metadata=metadata)
    reduced = set(poset.covers)
    for c in covers:
        if c not in reduced:
            raise DomainError(f"cover {list(c)} is implied by the other covers")
    return poset


def _dot_quote(s) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


def poset_to_dot(poset: Poset, label_fn=None) -> str:
    """Hasse diagram as DOT, bottom-up, with rank layering when ranks
    are attached."""
    lab = label_fn or (lambda x: x)
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, x in enumerate(poset.nodes):
        lines.append(f"  n{i} [label={_dot_quote(lab(x))}];")
    for i, j in poset.covers:
        lines.append(f"  n{i} -> n{j};")
    if poset.rank is not None:
        by_rank: dict[int, list[int]] = {}
        for i, r in enumerate(poset.rank):
            by_rank.setdefault(r, []).append(i)
        for r in sorted(by_rank):
            group = " ".join(f"n{i};" for i in by_rank[r])
            lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- arc graphs ---------------------------------------------------------------


def omega_to_json_dict(graph) -> dict:
    return {
        "schema": 1,
        "x_set": sorted(graph.x_set),
        "arcs": [[a, b, t] for a, b, t in graph.arcs],
        "boundary_skips": graph.boundary_skips,
    }


def omega_to_dot(graph, label_fn=None) -> str:
    ball = graph.ball
    lab = label_fn or (lambda w: "".join(str(c) for c in ball.word(w)) or "e")
    arcs = graph.arcs
    used = sorted({a for a, _b, _t in arcs} | {b for _a, b, _t in arcs})
    lines = ["digraph omega {", "  rankdir=BT;"]
    for w in used:
        lines.append(f"  n{w} [label={_dot_quote(lab(w))}];")
    for a, b, t in arcs:
        lines.append(f"  n{a} -> n{b} [label={_dot_quote(lab(t))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- tabular reports ----------------------------------------------------------


def _csv(rows, header) -> str:
    """CSV lines joined by "," and ended by "\n".  Every field is an int
    or a plain word, which the csv module would not quote either."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def lk_table_to_csv(table) -> str:
    ball = table.ball
    rows = [(w, ball.length(w), table.lk[w]) for w in range(len(ball))]
    return _csv(rows, ("id", "length", "lk"))


def curvature_to_csv(report) -> str:
    rows = [(x, y, kappa.numerator, kappa.denominator)
            for x, y, kappa in report.kappas()]
    return _csv(rows, ("x", "y", "kappa_num", "kappa_den"))


def curvature_to_json_dict(report) -> dict:
    return {
        "schema": 1,
        "convention": report.convention,
        "edges": [{"x": x, "y": y,
                   "kappa": [kappa.numerator, kappa.denominator]}
                  for x, y, kappa in report.kappas()],
        "errors": [{"x": x, "y": y, "message": m} for x, y, m in report.errors],
    }


def sperner_to_csv(report) -> str:
    rows = [(r.h, r.flow_value, r.top_rank_sum, "pass" if r.ok else "fail")
            for r in report.rows]
    return _csv(rows, ("h", "flow_value", "top_rank_sum", "verdict"))
