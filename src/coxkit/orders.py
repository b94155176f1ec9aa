"""Reflection-labelled directed graphs on a ball, the induced
intermediate orders, k-absolute length, and the k-absolute order.

All constructions are ball-restricted.  Chains of the intermediate
orders are strictly length-increasing, so reachability between two
elements of the ball never depends on anything outside it; the graph
still records how many arcs were dropped at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ball import GroupBall
from .errors import DomainError, IncompleteSliceError, OutOfBallError
from .posets import Poset
from .reflections import ReflectionTable, t_k_set

__all__ = [
    "OmegaGraph", "AbsoluteLengthTable", "omega_graph", "intermediate_poset",
    "bruhat_poset", "k_absolute_length_all", "k_absolute_poset",
    "refinement_chain_check", "RefinementReport",
]


@dataclass
class OmegaGraph:
    ball: GroupBall
    x_set: frozenset[int]
    arcs: list            # (a, b, t) with b = t*a and l(b) > l(a)
    boundary_skips: int   # products t*a that left the ball


def omega_graph(ball: GroupBall, x_set) -> OmegaGraph:
    """Arcs a -> t*a for t in the set, whenever length strictly
    increases and both ends are in the ball."""
    xs = frozenset(x_set)
    arcs = []
    skips = 0
    for t in sorted(xs):
        for a in range(len(ball)):
            try:
                b = ball.multiply(t, a)
            except OutOfBallError:
                skips += 1
                continue
            if ball.length(b) > ball.length(a):
                arcs.append((a, b, t))
    arcs.sort()
    return OmegaGraph(ball=ball, x_set=xs, arcs=arcs, boundary_skips=skips)


def intermediate_poset(ball: GroupBall, x_set) -> Poset:
    """Reachability order of the arc graph, on all ball elements.

    Complete for every pair inside the ball: each chain step increases
    length, so witnessing chains cannot leave the ball.
    """
    g = omega_graph(ball, x_set)
    pairs = [(a, b) for a, b, _t in g.arcs]
    rank = [ball.length(w) for w in range(len(ball))]
    return Poset.from_relation(
        list(range(len(ball))), pairs, rank=rank,
        metadata={"kind": "intermediate-order", "x_size": len(g.x_set),
                  "boundary_skips": g.boundary_skips})


def bruhat_poset(ball: GroupBall, table: ReflectionTable) -> Poset:
    """Bruhat order on all ball elements, ranked by length.

    On a complete group this is the reachability order of the arc graph
    over all reflections (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.1).  A truncated ball can miss the witnessing reflection:
    in I2(inf) at radius 2, s < st needs sts, of length 3.  There every
    pair is tested with `bruhat_leq`.
    """
    n = len(ball)
    if ball.is_complete_group:
        pairs = [(a, b) for a, b, _t in omega_graph(ball, table.reflections).arcs]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n)
                 if u != v and ball.bruhat_leq(u, v)]
    return Poset.from_relation(
        list(range(n)), pairs, rank=[ball.length(w) for w in range(n)],
        metadata={"kind": "bruhat"})


@dataclass
class AbsoluteLengthTable:
    ball: GroupBall
    k: int
    lk: list[int]                 # distance from the identity in the arc graph
    witness_pred: list[int]       # BFS predecessor (smallest id), -1 at source
    witness_arc: list[int]        # reflection used to enter each node, -1 at source


def k_absolute_length_all(table: ReflectionTable, k: int) -> AbsoluteLengthTable:
    """BFS distances from the identity along the k-sliced arc graph."""
    ball = table.ball
    tk = t_k_set(table, k)  # raises when the slice is incomplete
    g = omega_graph(ball, tk)
    succ = [[] for _ in range(len(ball))]
    for a, b, t in g.arcs:
        succ[a].append((b, t))
    n = len(ball)
    dist = [-1] * n
    pred = [-1] * n
    arc = [-1] * n
    dist[ball.identity] = 0
    frontier = [ball.identity]
    while frontier:
        nxt = []
        for a in sorted(frontier):
            for b, t in succ[a]:
                if dist[b] == -1:
                    dist[b] = dist[a] + 1
                    pred[b] = a
                    arc[b] = t
                    nxt.append(b)
        frontier = nxt
    if any(d == -1 for d in dist):
        raise IncompleteSliceError(
            "arc graph does not reach the whole ball; slice incomplete")
    return AbsoluteLengthTable(ball=ball, k=k, lk=dist,
                               witness_pred=pred, witness_arc=arc)


def k_absolute_poset(table: AbsoluteLengthTable) -> Poset:
    """The order u below v iff lk(v) = lk(u) + lk(v u^-1), ranked by lk.

    On a complete group, lk is the word metric of T_k: the distance from
    the identity in the Cayley graph of left multiplication by T_k
    (undirected, as reflections are involutions).  This is checked by one
    BFS, and then the order is generated by the unit steps u -> t u with
    t in T_k and lk(t u) = lk(u) + 1, which are exactly its covers.
    Proof: the graph distance is d(u, v) = lk(v u^-1), so u is below v
    iff u lies on a geodesic from e to v.  Along a geodesic from u to v
    each step raises lk by at most 1 and d(u, v) steps raise it by
    d(u, v), so every step is a unit step.  Conversely, m unit steps from
    u to v give lk(v) = lk(u) + m, with d(u, v) <= m by the path and
    d(u, v) >= m by the triangle inequality.  A unit step raises the
    rank by 1, so nothing lies strictly inside it.  (For the directed
    Bruhat-graph distance at k = max, see Dyer, Proc. AMS 129, 2001.)

    On a truncated ball, and on a complete group whose lk fails the
    check, every pair is tested.  Pairs with l(u) + l(v) > radius cannot
    certify v u^-1 and are counted in metadata["flagged_pairs"].
    """
    ball = table.ball
    pairs = _unit_steps(ball, table.lk) if ball.is_complete_group else None
    flagged = 0
    if pairs is None:
        pairs, flagged = _pairs_by_definition(ball, table.lk)
    return Poset.from_relation(
        list(range(len(ball))), pairs, rank=table.lk,
        metadata={"kind": "k-absolute-order", "k": table.k,
                  "flagged_pairs": flagged})


def _unit_steps(ball: GroupBall, lk) -> list | None:
    """The pairs (u, t u) with lk(t u) = lk(u) + 1 for t in T = {t :
    lk(t) = 1}, read off one BFS from the identity over left
    multiplication by T; None unless that BFS gives the distances lk.
    On a table from `k_absolute_length_all`, T is T_k: each reflection
    is one arc above the identity."""
    n = len(ball)
    tk = [t for t in range(n) if lk[t] == 1]
    dist = [-1] * n
    dist[ball.identity] = 0
    frontier = [ball.identity]
    pairs = []
    while frontier:
        nxt = []
        for u in frontier:
            d = dist[u] + 1
            for t in tk:
                v = ball.multiply(t, u)
                if dist[v] == -1:
                    dist[v] = d
                    nxt.append(v)
                if dist[v] == d:
                    pairs.append((u, v))
        frontier = nxt
    return pairs if dist == lk else None


def _pairs_by_definition(ball: GroupBall, lk):
    """Every pair (u, v) with lk(v) = lk(u) + lk(v u^-1) that the ball
    certifies, and the number of pairs it cannot certify."""
    n = len(ball)
    pairs = []
    flagged = 0
    for u in range(n):
        iu = ball.inverse(u)
        lu = ball.length(u)
        for v in range(n):
            if u == v:
                continue
            if not ball.is_complete_group and lu + ball.length(v) > ball.radius:
                flagged += 1
                continue
            try:
                d = ball.multiply(v, iu)
            except OutOfBallError:
                flagged += 1
                continue
            if lk[v] == lk[u] + lk[d]:
                pairs.append((u, v))
    return pairs, flagged


@dataclass
class RefinementReport:
    ok: bool
    containments: list = field(default_factory=list)  # (a, b, holds)
    equals_bruhat_at: int | None = None


def refinement_chain_check(table: ReflectionTable, k_max: int,
                           intermediate: list[Poset] | None = None,
                           bruhat: Poset | None = None) -> RefinementReport:
    """Containment of the intermediate orders as k grows, ending inside
    Bruhat order: relation(k=a) is a subset of relation(k=b) for a <= b,
    and the largest tested order sits inside Bruhat.

    `intermediate[k]` (k = 0..k_max) and `bruhat` are those posets, if
    they are already built.  All of them have the ball ids 0..n-1 as
    nodes, so the relations are compared on their up-set bitmasks.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    ball = table.ball
    if intermediate is None:
        intermediate = [intermediate_poset(ball, t_k_set(table, k))
                        for k in range(k_max + 1)]
    if bruhat is None:
        bruhat = bruhat_poset(ball, table)
    ups = [p.up for p in intermediate[:k_max + 1]]
    top = bruhat.up

    def contained(a, b):
        return all(x & ~y == 0 for x, y in zip(a, b))

    rows = []
    ok = True
    for a in range(k_max):
        holds = contained(ups[a], ups[a + 1])
        rows.append((a, a + 1, holds))
        ok = ok and holds
    holds = contained(ups[k_max], top)
    rows.append((k_max, "bruhat", holds))
    ok = ok and holds
    equals_at = next((k for k in range(k_max + 1) if ups[k] == top), None)
    return RefinementReport(ok=ok, containments=rows, equals_bruhat_at=equals_at)
