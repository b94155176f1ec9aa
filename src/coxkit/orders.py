"""Reflection-labelled directed graphs on a ball, the induced
intermediate orders, k-absolute length, and the k-absolute order.

All constructions are ball-restricted.  Chains of the intermediate
orders are strictly length-increasing, so reachability between two
elements of the ball never depends on anything outside it; the graph
still records how many arcs were dropped at the boundary.

Each ball keeps one `ArcTable` (`arc_table`): the rows t*a, each built
once, when first read, and the arc graph of a set X (`OmegaGraph`,
from `omega_graph`) is a view of the rows of X, so every reader of the
ball shares them.

The covers of an intermediate order are certified, not closed: every
arc raises length, so a unit arc a -> t*a, l(t*a) = l(a) + 1, is a
cover, and when every longer arc lies in the closure of the unit arcs,
the unit arcs are all the covers.  One sweep down the lengths tests
that, holding the up-sets of two lengths at a time (`_unit_covers`);
where it fails, the order is closed from every arc.
"""
from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain

from .ball import BOUNDARY, GroupBall
from .errors import DomainError, IncompleteSliceError
from .posets import Poset
from .records import Record
from .reflections import ReflectionTable, t_k_set

__all__ = [
    "OmegaGraph", "ArcTable", "AbsoluteLengthTable", "arc_table", "omega_graph",
    "intermediate_poset", "bruhat_poset", "k_absolute_length_all",
    "k_absolute_poset", "refinement_chain_check", "RefinementReport",
]


class OmegaGraph(Record):
    """The arc graph of a set X on a ball, stored as its rows: rows[t][a]
    is the id of t*a for t in X (in increasing order), or BOUNDARY where
    t*a lies outside the ball.  The arcs are a -> t*a where l(t*a) > l(a).
    The rows are those of `table`, which also sorts each t's arcs by the
    length of their tails; `table` is left out of `==` and repr."""

    _fields = ("ball", "x_set", "rows", "boundary_skips")

    def __init__(self, ball: GroupBall, x_set: frozenset[int],
                 rows: dict[int, list[int]], boundary_skips: int, table: ArcTable):
        self.ball = ball
        self.x_set = x_set
        self.rows = rows
        self.boundary_skips = boundary_skips  # products t*a that left the ball
        self.table = table

    @property
    def arcs(self) -> list:
        """The sorted (a, b, t) with b = t*a in the ball and l(b) > l(a),
        derived from the rows on each read."""
        length = self.ball.lengths
        return sorted((a, b, t) for t, row in self.rows.items()
                      for a, b in enumerate(row)
                      if b >= 0 and length[b] > length[a])


class ArcTable:
    """The rows t*a of a ball, each built when first read and kept with
    its boundary skips and its arcs sorted by rise.  The arc graph of any
    set X is a view of it (`graph`), so the readers of many sets, such
    as the T_k slices or the order ideals of `coxkit check`, build each
    row once.  One table is kept on each ball (`arc_table`).  No reader
    mutates what the table holds.  The lengths and the ids of each length
    are the ball's own (`GroupBall.lengths`, `GroupBall.levels`)."""

    def __init__(self, ball: GroupBall):
        self.ball = ball
        self.rows: dict[int, list[int]] = {}
        self.skips: dict[int, int] = {}
        self._rises: dict[int, tuple[list, list]] = {}

    @cached_property
    def _steps(self):
        """(a, a s, s, 2 radius - l(a)) for the ids a but the identity,
        by length, s the last letter of a's ShortLex word."""
        ball = self.ball
        right, words = ball.right, ball.words
        return [(a, right[a][words[a][-1]], words[a][-1], 2 * ball.radius - la)
                for la, level in enumerate(ball.levels[1:], 1) for a in level]

    def row(self, t: int) -> list[int]:
        """row[a] = t*a, or BOUNDARY where t*a lies outside the ball.

        Each entry is one step from an earlier one: with s the last
        letter of a's ShortLex word, t*a = (t*(a s)) s, and a s is one
        shorter than a, so the ids are visited by length (a ball read
        from JSON may number them in any order).  The step is a
        right-table lookup, or `GroupBall._times` where t*(a s) or t*a
        lies beyond the radius, so the row holds ids beyond the radius
        too and no product is walked.  An entry becomes BOUNDARY once
        l(t*a) + l(a) > 2 radius: an extension a' = a s_1 ... s_j in the
        ball has j <= radius - l(a), so l(t*a') >= l(t*a) - j > radius,
        and the entries of every extension are BOUNDARY in turn.  When
        the row is done, the ids beyond the radius become BOUNDARY too.
        Each entry outside the ball is one boundary skip.  The row of a
        generator s is column s of the left table, s*a = left[a][s],
        BOUNDARY exactly where s*a leaves the ball, with no step taken.
        """
        if t not in self.rows:
            self.rows[t], self.skips[t] = self._build(t)
        return self.rows[t]

    def _build(self, t):
        ball = self.ball
        if ball.lengths[t] == 1:
            s = ball.words[t][0]
            row = [r[s] for r in ball.left]
            return row, row.count(BOUNDARY)
        n = len(ball)
        right = ball.right
        times, beyond = ball._times, ball._lengths  # beyond[x - n] = l(x)
        skips = 0
        row = [BOUNDARY] * n  # row[a] = t*a, or BOUNDARY once it cannot return
        row[ball.identity] = t
        for a, a_s, s, reach in self._steps:
            x = row[a_s]
            if x >= n:
                b = times(x, s)
            elif x == BOUNDARY:
                skips += 1
                continue
            else:
                b = right[x][s]
                if b == BOUNDARY:
                    b = times(x, s)
            if b >= n:
                skips += 1
                if beyond[b - n] > reach:
                    b = BOUNDARY
            row[a] = b
        if not ball.is_complete_group:
            row = [BOUNDARY if b >= n else b for b in row]
        return row, skips

    def rises(self, t: int) -> tuple[list, list]:
        """(unit, longer): unit[l] lists the ids a of length l whose arc
        a -> t*a is a unit arc, l(t*a) = l + 1, and longer[l] those with
        l(t*a) > l + 1; built on first read."""
        if t not in self._rises:
            row, length = self.row(t), self.ball.lengths
            unit, longer = [], []
            for la, level in enumerate(self.ball.levels):
                unit.append([a for a in level if row[a] >= 0 and length[row[a]] == la + 1])
                longer.append([a for a in level if row[a] >= 0 and length[row[a]] > la + 1])
            self._rises[t] = unit, longer
        return self._rises[t]

    def graph(self, x_set) -> OmegaGraph:
        """The arc graph of the set: its rows, and their skips summed."""
        xs = frozenset(x_set)
        rows = {t: self.row(t) for t in sorted(xs)}
        return OmegaGraph(ball=self.ball, x_set=xs, rows=rows,
                          boundary_skips=sum(self.skips[t] for t in xs), table=self)


def arc_table(ball: GroupBall) -> ArcTable:
    """The ball's one `ArcTable`, made on first use and kept on the ball."""
    if ball._arcs is None:
        ball._arcs = ArcTable(ball)
    return ball._arcs


def omega_graph(ball: GroupBall, x_set) -> OmegaGraph:
    """The rows t*a for t in the set, every a in the ball: a view of the
    ball's table (`arc_table`), whose rows are built on first read."""
    return arc_table(ball).graph(x_set)


def intermediate_poset(ball: GroupBall, x_set) -> Poset:
    """Reachability order of the arc graph, on all ball elements.

    Complete for every pair inside the ball: each chain step increases
    length, so witnessing chains cannot leave the ball.

    The covers are certified by a sweep over the unit arcs a -> t*a,
    l(t*a) = l(a) + 1 (see `_unit_covers`), and the poset is built from
    them with no closure; its up-sets are made from the covers only if
    a reader asks.  Where the certificate fails, the order is closed
    from every arc (`Poset.from_relation`).  So the theorem that these
    orders are graded by length is tested here, not assumed.
    """
    g = omega_graph(ball, x_set)
    rank = ball.lengths
    metadata = {"kind": "intermediate-order", "x_size": len(g.x_set),
                "boundary_skips": g.boundary_skips}
    nodes = list(range(len(ball)))
    covers = _unit_covers(g)
    if covers is not None:
        return Poset(nodes, covers, rank=rank, metadata=metadata)
    pairs = [(a, b) for row in g.rows.values() for a, b in enumerate(row)
             if b >= 0 and rank[b] > rank[a]]
    return Poset.from_relation(nodes, pairs, rank=rank, metadata=metadata)


def _unit_covers(g: OmegaGraph):
    """The unit arcs (a, b), l(b) = l(a) + 1, of the graph, if every longer
    arc lies in the order they generate; otherwise None.

    The certificate.  Every arc raises length, so every relation of the
    order does, and nothing lies strictly between the ends of a unit
    arc: each is a cover.  If every longer arc lies in the closure U* of
    the unit arcs, the order is U*, and its covers are exactly the unit
    arcs, since each cover of a closure is one of its generating pairs.
    A longer arc outside U* makes the answer None.

    The sweep takes the lengths from the top down.  The up-set in U* of
    a node a is a and the up-sets of its unit successors, one length
    higher; each longer arc a -> b is tested against it when it is made.
    Then the level above is dropped, so two levels of up-sets are held
    at a time.  With no longer arc there is nothing to test.  The arcs
    of each t are read off the table sorted by rise and tail length
    (`ArcTable.rises`), so the sweep reads only arcs.
    """
    table, levels = g.table, g.ball.levels
    arcs = [(row, *table.rises(t)) for t, row in g.rows.items()]
    covers = [(a, row[a]) for row, unit, _longer in arcs for level in unit for a in level]
    if not any(any(longer) for _row, _unit, longer in arcs):
        return covers
    above = {}
    for la in reversed(range(len(levels))):
        here = {a: 1 << a for a in levels[la]}
        for row, unit, _longer in arcs:
            for a in unit[la]:
                here[a] |= above[row[a]]
        for row, _unit, longer in arcs:
            for a in longer[la]:
                if not here[a] >> row[a] & 1:
                    return None
        above = here
    return covers


def bruhat_poset(ball: GroupBall) -> Poset:
    """Bruhat order on all ball elements, ranked by length, from its
    covers.

    For s the smallest left descent of v, the elements covered by v are
    s v, and s u for each u covered by s v with l(s u) = l(u) + 1.
    Proof: by the subword property (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, 2.2.2) the covers of v are the one-letter deletions
    of any fixed reduced word of v that have length l(v) - 1.  Take a
    word s w with w a reduced word of s v.  Deleting the s gives s v.
    Deleting a letter of w gives s u with u a deletion of w, of length
    l(v) - 1 iff l(u) = l(v) - 2 and l(s u) = l(u) + 1; and the
    deletions u of w with l(u) = l(v) - 2 are exactly the elements
    covered by s v (2.2.2 again, for the word w).

    Every cover lies in the ball, which is a lower set of Bruhat order,
    so this holds on truncated balls too.  The ids are visited by
    length (`GroupBall.levels`), since a ball read from JSON may number
    them in any order, and s is the first letter of v's ShortLex word.
    The pairs found are the covers, so the poset is built from them
    with no closure.
    """
    n = len(ball)
    rank, left, words = ball.lengths, ball.left, ball.words
    below = [()] * n  # the elements each id covers
    covers = []
    for v in chain.from_iterable(ball.levels[1:]):
        s = words[v][0]
        sv = left[v][s]
        below[v] = [sv] + [left[u][s] for u in below[sv]
                           if rank[left[u][s]] > rank[u]]
        covers += [(u, v) for u in below[v]]
    return Poset(list(range(n)), covers, rank=rank, metadata={"kind": "bruhat"})


class AbsoluteLengthTable(Record):
    _fields = ("ball", "k", "lk", "witness_pred", "witness_arc")

    def __init__(self, ball: GroupBall, k: int, lk: list[int],
                 witness_pred: list[int], witness_arc: list[int]):
        self.ball = ball
        self.k = k
        self.lk = lk                      # distance from the identity in the arc graph
        self.witness_pred = witness_pred  # BFS predecessor (smallest id), -1 at source
        self.witness_arc = witness_arc    # reflection used to enter each node, -1 at source


def k_absolute_length_all(table: ReflectionTable, k: int) -> AbsoluteLengthTable:
    """BFS distances from the identity along the k-sliced arc graph, read
    off its rows.  Of the frontier, the smallest id is taken first, and
    it enters each new node b by its one arc, t = b a^-1."""
    ball = table.ball
    tk = t_k_set(table, k)  # raises when the slice is incomplete
    rows = list(omega_graph(ball, tk).rows.items())
    n, length = len(ball), ball.lengths
    dist = [-1] * n
    pred = [-1] * n
    arc = [-1] * n
    dist[ball.identity] = 0
    frontier = [ball.identity]
    while frontier:
        nxt = []
        for a in sorted(frontier):
            for t, row in rows:
                b = row[a]
                if b >= 0 and dist[b] == -1 and length[b] > length[a]:
                    dist[b] = dist[a] + 1
                    pred[b] = a
                    arc[b] = t
                    nxt.append(b)
        frontier = nxt
    if any(d == -1 for d in dist):
        raise IncompleteSliceError(
            "arc graph does not reach the whole ball; slice incomplete")
    return AbsoluteLengthTable(ball=ball, k=k, lk=dist, witness_pred=pred,
                               witness_arc=arc)


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
    rank by 1, so nothing lies strictly inside it.  So the unit steps
    are passed to the poset as its covers, with no closure.  (For the
    directed Bruhat-graph distance at k = max, see Dyer, Proc. AMS 129,
    2001.)

    On a truncated ball the definition is tested on each pair with
    l(u) + l(v) <= radius, the pairs whose v u^-1 the ball certifies;
    the others are only counted, in metadata["flagged_pairs"].  On a
    complete group whose lk fails the check, every pair is tested.  Each
    product v u^-1 is one table lookup (see `_pairs_by_definition`).
    """
    ball = table.ball
    nodes = list(range(len(ball)))
    metadata = {"kind": "k-absolute-order", "k": table.k, "flagged_pairs": 0}
    steps = _unit_steps(ball, table.lk) if ball.is_complete_group else None
    if steps is not None:
        return Poset(nodes, steps, rank=table.lk, metadata=metadata)
    pairs, metadata["flagged_pairs"] = _pairs_by_definition(ball, table.lk)
    return Poset.from_relation(nodes, pairs, rank=table.lk, metadata=metadata)


def _unit_steps(ball: GroupBall, lk) -> list | None:
    """The pairs (u, t u) with lk(t u) = lk(u) + 1 for t in T = {t :
    lk(t) = 1}, read off one BFS from the identity over left
    multiplication by T; None unless that BFS gives the distances lk.
    The products t u are read off the ball's table (`arc_table`), whose
    rows have no BOUNDARY entry on a complete group; for lk from
    `k_absolute_length_all`, T is T_k, and its rows are already built."""
    n = len(ball)
    products = [arc_table(ball).row(t) for t in range(n) if lk[t] == 1]
    dist = [-1] * n
    dist[ball.identity] = 0
    frontier = [ball.identity]
    pairs = []
    while frontier:
        nxt = []
        for u in frontier:
            d = dist[u] + 1
            for row in products:
                v = row[u]
                if dist[v] == -1:
                    dist[v] = d
                    nxt.append(v)
                if dist[v] == d:
                    pairs.append((u, v))
        frontier = nxt
    return pairs if dist == lk else None


def _pairs_by_definition(ball: GroupBall, lk):
    """Every pair (u, v) with lk(v) = lk(u) + lk(v u^-1) that the ball
    certifies, and the number of pairs it cannot certify.

    On a truncated ball the pairs with l(u) + l(v) <= radius are the
    certifiable ones, and only they are visited: the v are taken in
    order of length, up to radius - l(u), and the rest of u's pairs are
    counted from the number of ids of each length.  The products come
    from one table lookup each: with s the first letter of v's ShortLex
    word, v u^-1 = s ((s v) u^-1), and s v is one shorter than v, so its
    product is already known.  It stays in the table, since l((s v) u^-1)
    <= l(v) - 1 + l(u) < radius.  On a complete group every pair is
    visited.
    """
    n, length, words = len(ball), ball.lengths, ball.words
    left, inv = ball.left, ball.inv
    steps = [(v, left[v][words[v][0]], words[v][0])
             for v in chain.from_iterable(ball.levels[1:])]
    truncated = not ball.is_complete_group
    below = list(accumulate(ball.rank_sizes()))  # ids of length <= r
    # reach[l]: how many of the v are visited for a u of length l
    reach = [below[min(ball.radius - lu, len(below) - 1)] if truncated else n
             for lu in range(len(below))]
    e = ball.identity
    lke = lk[e]
    prod = [0] * n  # prod[v] = v u^-1
    pairs = []
    flagged = 0
    for u in range(n):
        m = reach[length[u]]
        if truncated:  # the pairs left out, u itself not among them
            flagged += n - m - (2 * length[u] > ball.radius)
        lku = lk[u]
        prod[e] = iu = inv[u]
        if u != e and lke == lku + lk[iu]:
            pairs.append((u, e))
        for v, sv, s in steps[:m - 1]:
            prod[v] = d = left[prod[sv]][s]
            if lk[v] == lku + lk[d] and v != u:
                pairs.append((u, v))
    return pairs, flagged


class RefinementReport(Record):
    _fields = ("ok", "containments", "equals_bruhat_at")

    def __init__(self, ok: bool, containments: list | None = None,
                 equals_bruhat_at: int | None = None):
        self.ok = ok
        self.containments = [] if containments is None else containments  # (a, b, holds)
        self.equals_bruhat_at = equals_bruhat_at


def refinement_chain_check(table: ReflectionTable, k_max: int,
                           bruhat: Poset | None = None) -> RefinementReport:
    """Containment of the intermediate orders as k grows, ending inside
    Bruhat order (`bruhat`, if it is already built): relation(k - 1) is
    a subset of relation(k) for each k <= k_max, and relation(k_max) of
    Bruhat order; and the least k whose relation is Bruhat order.

    Decided on the slices X_k and one arc graph, that of X_{k_max}, with
    no poset of any slice.  The arcs of slice k are its rows a -> t*a, t
    in X_k, so X_{k-1} <= X_k makes every arc of slice k - 1 one of
    slice k.  Each arc raises length, so it is a Bruhat relation
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Def. 2.1.1); the
    arcs of X_{k_max} with l(t*a) = l(a) + 1 are tested to be covers of
    `bruhat`, which catches a poset that is not Bruhat order.  Bruhat
    order is the closure of its covers (2.2), and in relation(k) a
    relation between adjacent lengths is a single arc, labelled v*u^-1.
    So relation(k) is Bruhat order iff every cover is a unit arc whose
    label lies in X_k, and the least such k is (max l(label) - 1) // 2;
    None when some cover is no unit arc of X_{k_max}, or the last row
    fails.  The unit arcs are distinct pairs, so they are the covers
    when each is one and there are as many.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    ball = table.ball
    xs = [t_k_set(table, k) for k in range(k_max + 1)]  # the first incomplete raises
    rows = [(k - 1, k, xs[k - 1] <= xs[k]) for k in range(1, k_max + 1)]
    if bruhat is None:
        bruhat = bruhat_poset(ball)
    g = omega_graph(ball, xs[-1])
    n = len(ball)
    covers = {u * n + v for u, v in bruhat.covers}
    inside, units, top = True, 0, 1
    for t, row in g.rows.items():
        unit = [a * n + row[a] for level in g.table.rises(t)[0] for a in level]
        if unit:
            inside = inside and covers.issuperset(unit)
            units += len(unit)
            top = max(top, ball.length(t))
    rows.append((k_max, "bruhat", inside))
    equals_at = (top - 1) // 2 if inside and units == len(covers) else None
    return RefinementReport(ok=all(holds for _a, _b, holds in rows),
                            containments=rows, equals_bruhat_at=equals_at)
