"""Generic finite-poset algorithms: closure/reduction, gradedness,
antichain families (Greene-Kleitman via min-cost flow), order complexes
and shellability search, isomorphism, and the noncrossing-partition
lattice.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations, islice

from .errors import DomainError, ResourceError
from .flows import MinCostFlow
from .records import Record


class Poset:
    """Finite poset over hashable node labels.

    Stored as the list of nodes and the Hasse (cover) edges as index
    pairs; the reflexive up-set bitmasks and the cover adjacency lists
    are built from the covers when first read, and kept.  An optional
    rank list and a metadata dict describe how the poset was built.
    """

    def __init__(self, nodes, covers, rank=None, metadata=None, _up=None):
        self.nodes = list(nodes)
        covers = sorted(covers)  # then drop the duplicates, adjacent once sorted
        self.covers = covers[:1] + [c for b, c in zip(covers, islice(covers, 1, None))
                                     if c != b]
        self.rank = list(rank) if rank is not None else None
        self.metadata = dict(metadata or {})
        self._index = {x: i for i, x in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise DomainError("duplicate node labels")
        self.n = len(self.nodes)
        self._up = _up  # up[i] = bitmask of j >= i (reflexive)
        self._down = None
        self._up_adj = None  # up_adj[i] = the covers of i, by index
        self._down_adj = None
        self._gains = None  # chain gains, see _chain_gains

    # -- construction ---------------------------------------------------

    @classmethod
    def from_relation(cls, nodes, leq_pairs, rank=None, metadata=None) -> "Poset":
        """Build from the full (or generating) set of strict index pairs
        (i, j) meaning node i < node j.  Self pairs are ignored and a cycle
        raises DomainError."""
        nodes = list(nodes)
        succ = [[] for _ in nodes]
        for i, j in leq_pairs:
            if i != j:
                succ[i].append(j)
        return cls._from_successors(nodes, succ, rank, metadata)

    @classmethod
    def _from_closed(cls, nodes, up, rank=None, metadata=None) -> "Poset":
        """Build from reflexive, transitively closed up-set bitmasks (bit
        j of up[i] set iff node i <= node j).

        When the ids are a linear extension (bit i is the lowest bit of
        up[i], for every i), the covers of i are peeled off its up-set.
        The lowest bit j left is minimal in what is left, and what was
        cleared lies above a cover found before, so not below j: i < j is
        a cover.  Then the bits of up[j] are cleared, and so on.  A cover
        is never cleared before it is taken, as no other cover lies below
        it.  That is one big-int operation per cover, and the up-sets are
        kept.  Other ids go through `_close`.
        """
        if any(m & -m != 1 << i for i, m in enumerate(up)):
            succ = [_bits(m ^ (1 << i)) for i, m in enumerate(up)]
            return cls._from_successors(nodes, succ, rank, metadata)
        covers = []
        for i, m in enumerate(up):
            m ^= 1 << i
            while m:
                j = (m & -m).bit_length() - 1
                covers.append((i, j))
                m &= ~up[j]
        return cls(nodes, covers, rank=rank, metadata=metadata, _up=up)

    @classmethod
    def _from_successors(cls, nodes, succ, rank=None, metadata=None) -> "Poset":
        up, covers = _close(succ)
        return cls(nodes, covers, rank=rank, metadata=metadata, _up=up)

    # -- relation -------------------------------------------------------

    @property
    def up(self):
        if self._up is None:
            self._up = _close(self.up_adj())[0]
        return self._up

    @property
    def down(self):
        if self._down is None:
            down = [0] * self.n
            up = self.up
            for i in range(self.n):
                m = up[i]
                while m:
                    j = (m & -m).bit_length() - 1
                    down[j] |= 1 << i
                    m &= m - 1
            self._down = down
        return self._down

    def index(self, label):
        return self._index[label]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def relation_pairs(self) -> frozenset:
        """All strict pairs (label_i, label_j) with i < j in the order."""
        out = []
        up = self.up
        for i in range(self.n):
            m = up[i] & ~(1 << i)
            while m:
                j = (m & -m).bit_length() - 1
                out.append((self.nodes[i], self.nodes[j]))
                m &= m - 1
        return frozenset(out)

    def minimals(self):
        """The elements no cover enters, in index order."""
        above = {j for _i, j in self.covers}
        return [i for i in range(self.n) if i not in above]

    def maximals(self):
        """The elements no cover leaves, in index order."""
        below = {i for i, _j in self.covers}
        return [i for i in range(self.n) if i not in below]

    def up_adj(self):
        """The upper covers of each node, by increasing index; built once
        and shared by every caller, so not to be mutated."""
        if self._up_adj is None:
            adj = [[] for _ in range(self.n)]
            for i, j in self.covers:
                adj[i].append(j)
            self._up_adj = adj
        return self._up_adj

    def down_adj(self):
        """The lower covers of each node, by increasing index; built once
        and shared like `up_adj`."""
        if self._down_adj is None:
            adj = [[] for _ in range(self.n)]
            for i, j in self.covers:
                adj[j].append(i)
            self._down_adj = adj
        return self._down_adj

    # -- derived posets ---------------------------------------------------

    def subposet(self, indices) -> "Poset":
        """Induced subposet; covers recomputed for the induced relation,
        which is the restriction of the closed up-sets."""
        indices = sorted(indices)
        pos = {x: 1 << k for k, x in enumerate(indices)}
        keep = sum(1 << x for x in pos)
        up = self.up
        sub_up = []
        for a in indices:
            m = up[a] & keep
            bits = 0
            while m:
                low = m & -m
                bits |= pos[low.bit_length() - 1]
                m ^= low
            sub_up.append(bits)
        rank = [self.rank[i] for i in indices] if self.rank is not None else None
        return Poset._from_closed([self.nodes[i] for i in indices], sub_up,
                                  rank=rank, metadata=self.metadata)

    def interval(self, u, v) -> "Poset":
        """Closed interval [u, v] as an induced subposet (labels)."""
        i, j = self.index(u), self.index(v)
        if not self.leq(i, j):
            raise DomainError(f"{u!r} and {v!r} are not comparable in this order")
        members = self.up[i] & self.down[j]
        idx = _bits(members)
        return self.subposet(idx)

    def components(self):
        """Connected components of the Hasse diagram, as index lists."""
        adj = [[] for _ in range(self.n)]
        for i, j in self.covers:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def topological_order(self):
        return _topological_order(self.up_adj())


def _topological_order(succ):
    """Kahn's algorithm on successor lists, first in first out from the
    sources in index order; DomainError on a cycle."""
    indeg = [0] * len(succ)
    for s in succ:
        for j in s:
            indeg[j] += 1
    order = [i for i, d in enumerate(indeg) if d == 0]
    for x in order:  # the list is the queue: it grows while it is read
        for j in succ[x]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != len(succ):
        raise DomainError("relation has a cycle; not a partial order")
    return order


def _close(succ):
    """(up, covers): the reflexive up-set bitmasks and the cover pairs of
    the order generated by the successor lists (j in succ[i] means
    i < j), in one pass.

    The nodes are swept in reverse topological order, so the up-sets of
    a node's successors are known when it is reached.  Its successors
    are taken in topological order: one that an earlier one reaches is
    no cover and adds nothing to the up-set, and any other is a cover,
    since only an earlier successor can reach it.  So the up-set is the
    node and the union of its covers' up-sets, and the covers are the
    transitive reduction (Aho, Garey and Ullman, SIAM J. Comput. 1,
    1972).  Every cover is a generating pair, since a longer path from i
    to j passes through an element between them.
    """
    order = _topological_order(succ)
    pos = [0] * len(succ)
    for p, x in enumerate(order):
        pos[x] = p
    up = [0] * len(succ)
    covers = []
    for i in reversed(order):
        acc = 1 << i
        for j in sorted(succ[i], key=pos.__getitem__):
            if not acc >> j & 1:
                covers.append((i, j))
                acc |= up[j]
        up[i] = acc
    return up, covers


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


# -- gradedness -------------------------------------------------------------


class GradedReport(Record):
    _fields = ("ok", "bad_covers")

    def __init__(self, ok: bool, bad_covers: list | None = None):
        self.ok = ok
        self.bad_covers = [] if bad_covers is None else bad_covers


def check_graded(poset: Poset, rank_fn) -> GradedReport:
    """Check that every cover edge raises rank_fn by exactly 1.

    Covers of any interval of a poset are covers of the poset itself,
    so this single condition also makes every maximal chain of every
    interval saturated with respect to rank_fn.
    """
    bad = []
    for i, j in poset.covers:
        if rank_fn(poset.nodes[j]) - rank_fn(poset.nodes[i]) != 1:
            bad.append((poset.nodes[i], poset.nodes[j]))
    return GradedReport(ok=not bad, bad_covers=bad)


def is_graded(poset: Poset) -> bool:
    """Whether all maximal chains (minimal to maximal element) have the
    same length, i.e. some rank function grades the poset."""
    if poset.n == 0:
        return True
    order = poset.topological_order()
    dadj = poset.down_adj()
    lo = [0] * poset.n
    hi = [0] * poset.n
    for x in order:
        if dadj[x]:
            lo[x] = 1 + min(lo[y] for y in dadj[x])
            hi[x] = 1 + max(hi[y] for y in dadj[x])
    if any(lo[x] != hi[x] for x in range(poset.n)):
        return False
    tops = {hi[x] for x in poset.maximals()}
    return len(tops) <= 1


# -- order ideals -----------------------------------------------------------


def order_ideals(poset: Poset):
    """All down-closed subsets, as frozensets of indices.

    A depth-first search over the elements in topological order, each
    excluded before it is included; path[k] says whether the k-th is in.
    """
    order = poset.topological_order()
    dadj = poset.down_adj()
    n = len(order)
    current = set()
    path = []
    while True:
        path.extend([False] * (n - len(path)))
        yield frozenset(current)
        # back up to the last excluded element that may be included
        while path:
            x = order[len(path) - 1]
            if path[-1]:
                current.remove(x)
                path.pop()
            elif all(y in current for y in dadj[x]):
                current.add(x)
                path[-1] = True
                break
            else:
                path.pop()
        else:
            return


def is_order_ideal(poset: Poset, indices) -> bool:
    s = set(indices)
    down = poset.down
    for x in s:
        m = down[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if y not in s:
                return False
    return True


# -- maximum h-families (Greene-Kleitman) -----------------------------------


def _h_family_flow(poset: Poset, h: int):
    """The chain network on the Hasse diagram, with chain-start cost h.
    Returns (mcf, s, t).

    Element i has an in-node i and an out-node n + i, joined by a
    counted arc (capacity 1, cost -1) and an uncounted pass-through arc
    (capacity n, cost 0).  Each cover i < j gives an arc n + i -> j
    (capacity n, cost 0); a chain starts at a minimal element (s -> i,
    cost h) and ends at a maximal one (n + i -> t, cost 0).  A unit of
    flow is a maximal chain that counts some of its elements, so a flow
    of k units counts at most c_k elements, the most that k chains can
    cover, and reaches it.  Capacity n stands for unbounded: the flows
    run here have at most n units, as all units but the last count two
    elements or more.
    """
    n = poset.n
    mcf = MinCostFlow(2 * n + 2)
    s, t = 2 * n, 2 * n + 1
    has_lower = [False] * n
    has_upper = [False] * n
    for i in range(n):
        mcf.add_edge(i, n + i, 1, -1)     # counting an element gains 1
        mcf.add_edge(i, n + i, n, 0)      # passing through it gains nothing
    for i, j in poset.covers:
        mcf.add_edge(n + i, j, n, 0)
        has_upper[i] = has_lower[j] = True
    for i in range(n):
        if not has_lower[i]:
            mcf.add_edge(s, i, n, h)      # starting a chain costs h
        if not has_upper[i]:
            mcf.add_edge(n + i, t, n, 0)
    return mcf, s, t


def _chain_gains(poset: Poset) -> list:
    """The gains g_1 >= g_2 >= ... >= 2 of the successive shortest paths
    on the chain network with chain-start cost 0, one unit at a time:
    c_k = g_1 + ... + g_k.  Computed once per poset and kept on it."""
    if poset._gains is None:
        mcf, s, t = _h_family_flow(poset, 0)
        gains = []
        while True:
            flow, cost = mcf.run(s, t, max_flow=1)
            if flow == 0 or -cost <= 1:
                break
            gains.append(-cost)
        poset._gains = gains
    return poset._gains


def max_h_family_value(poset: Poset, h: int) -> int:
    """Maximum size of a union of h antichains.

    Greene-Kleitman duality gives it as min over k of n - c_k + h*k,
    and c_k is concave in k (Frank, J. Combin. Theory B 29, 1980), so it
    is n - sum(max(g - h, 0)) over the chain gains g, which one
    successive-shortest-path run gives for every h at once.
    """
    if h < 1:
        raise DomainError("h must be >= 1")
    return poset.n - sum(g - h for g in _chain_gains(poset) if g > h)


def max_h_family(poset: Poset, h: int):
    """(size, witness) for the largest union of h antichains.

    The witness is a list of nonempty antichains of node labels, read
    off the potentials of a min-cost flow on the chain network with
    chain-start cost h.
    """
    if h < 1:
        raise DomainError("h must be >= 1")
    n = poset.n
    mcf, s, t = _h_family_flow(poset, h)
    flow, cost = mcf.run(s, t, stop_on_nonnegative=True)
    value = n + cost
    # A return arc t -> s with cost 0 carrying the flow turns it into a
    # min-cost circulation.  Its residual is one arc s -> t of cost 0
    # and capacity flow; with it the residual network has no negative
    # cycle, reaches every node from s, and the shortest distances d
    # from s give potentials p = -d.
    mcf.add_edge(s, t, flow, 0)
    d, _ = mcf.shortest_paths(s)
    # Frank (J. Combin. Theory B 29, 1980): the elements x with
    # p(x_in) < p(x_out) form a maximum h-family, and each level set
    # {x : p(x_in) = c} is an antichain.  The arcs of capacity n are
    # never full, so p does not fall along pass-through and cover arcs:
    # -h <= p(x_in) <= p(x_out) <= 0 for every x, and p(y_in) >= p(x_out)
    # whenever x < y.  Each unit of flow climbs from -h to 0 by at most
    # 1 per counted element, so it puts h of its elements in the family,
    # and with the uncounted ones that is n + cost elements.
    families = [[] for _ in range(h)]
    for x in range(n):
        a = -d[x]
        if a < -d[n + x]:
            families[a + h].append(poset.nodes[x])
    witness = [f for f in families if f]
    size = sum(len(f) for f in witness)
    if size != value:
        raise RuntimeError(f"internal error: h-family witness has {size} "
                           f"elements, the flow value is {value}")
    return value, witness


class SpernerRow(Record):
    _fields = ("h", "flow_value", "top_rank_sum", "ok")

    def __init__(self, h: int, flow_value: int, top_rank_sum: int, ok: bool):
        self.h = h
        self.flow_value = flow_value
        self.top_rank_sum = top_rank_sum
        self.ok = ok


class SpernerReport(Record):
    _fields = ("ok", "rows")

    def __init__(self, ok: bool, rows: list):
        self.ok = ok
        self.rows = rows


def strong_sperner_check(poset: Poset, weaker=None) -> SpernerReport:
    """For every h, the largest union of h antichains must equal the sum
    of the h largest rank-level sizes.

    `weaker` may be a poset on the same nodes whose every cover is a
    relation of `poset`.  If its chain gains make it strongly Sperner
    for the rank levels of `poset`, the rows follow with no flow: every
    antichain of `poset` is one of `weaker`, so d_h(poset) <= d_h(weaker)
    = the sum of the h largest levels; and each level is an antichain of
    `poset`, which is graded, so d_h(poset) >= that sum (Greene and
    Kleitman, J. Combin. Theory A 20, 1976).  Otherwise the flows decide.
    """
    if poset.rank is None:
        raise DomainError("strong Sperner check needs a graded poset with ranks")
    ranks, nodes = poset.rank, poset.nodes
    bad = [(nodes[i], nodes[j]) for i, j in poset.covers if ranks[j] - ranks[i] != 1]
    if bad:
        raise DomainError(f"poset is not graded by the given rank: {bad[:3]}")
    tops = list(accumulate(sorted(Counter(ranks).values(), reverse=True)))
    if weaker is not None and _certifies(weaker, poset, tops):
        values = tops
    else:
        values = [max_h_family_value(poset, h) for h in range(1, len(tops) + 1)]
    rows = [SpernerRow(h, v, top, v == top)
            for h, (v, top) in enumerate(zip(values, tops), 1)]
    return SpernerReport(ok=all(r.ok for r in rows), rows=rows)


def _certifies(weaker: Poset, poset: Poset, tops) -> bool:
    """Whether `weaker` is on the nodes of `poset`, each of its covers is
    a relation of `poset`, and its h-family values, read off its chain
    gains as in `max_h_family_value`, are `tops`."""
    if weaker.nodes != poset.nodes:
        return False
    up = poset.up
    if not all(up[i] >> j & 1 for i, j in weaker.covers):
        return False
    n, gains = weaker.n, _chain_gains(weaker)
    return all(n - sum(g - h for g in gains if g > h) == top
               for h, top in enumerate(tops, 1))


# -- order complexes and shellability ----------------------------------------


class OrderComplex(Record):
    _fields = ("vertices", "facets")

    def __init__(self, vertices: list, facets: list):
        self.vertices = vertices
        self.facets = facets  # list of frozensets of vertices (maximal chains)


def order_complex(poset: Poset, bottom=None, top=None) -> OrderComplex:
    """Order complex of the OPEN interval (bottom, top), read off the
    covers: no up-set is built.

    bottom and top are labels; each defaults to the unique minimal or
    maximal element, and DomainError is raised if there is none, or if
    bottom is not below top.  The members are the elements that bottom
    reaches and that reach top along covers; the vertices are those
    strictly between, in index order, and the facets are the cover
    paths from bottom to top without their endpoints, found by a
    depth-first search that takes the last path on its stack first and
    pushes successors by increasing index.
    """
    b = _only(poset.minimals()) if bottom is None else poset.index(bottom)
    t = _only(poset.maximals()) if top is None else poset.index(top)
    succ = poset.up_adj()
    below_top = _reach(poset.down_adj(), t)
    if b not in below_top:
        raise DomainError(f"{poset.nodes[b]!r} and {poset.nodes[t]!r} are "
                          "not comparable in this order")
    inside = _reach(succ, b, below_top) - {b, t}
    nodes = poset.nodes
    facets = []
    stack = [[a] for a in succ[b] if a in inside]
    while stack:
        chain = stack.pop()
        ups = [y for y in succ[chain[-1]] if y in inside]
        if ups:
            stack.extend(chain + [y] for y in ups)
        else:  # top covers the end of the chain
            facets.append(frozenset(nodes[i] for i in chain))
    return OrderComplex(vertices=[nodes[i] for i in sorted(inside)],
                        facets=facets)


def _only(extremes):
    if len(extremes) != 1:
        raise DomainError("order_complex expects a bounded interval poset")
    return extremes[0]


def _reach(adj, start, within=None):
    """The set of nodes reached from start along adj, staying inside
    within (a set) when it is given."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and (within is None or y in within):
                seen.add(y)
                stack.append(y)
    return seen


class ShellingVerdict(Record):
    _fields = ("status", "order")

    def __init__(self, status: str, order: list | None = None):
        self.status = status  # "shellable" | "not_shellable" | "inconclusive"
        self.order = order


def _shelling_tables(facets):
    """(rows, near) for the distinct facets, as sets of facet indices
    (bit g for facet g).  rows[f] lists, for each vertex v of F (facet
    f), the facets G with F - G = {v} and holds[v], the facets that
    contain v; near[g] is the set of facets F with |F - G| = 1.

    A facet G of F's size with F - G = {v} is F - v + w: it shares the
    ridge F - v with F.  So one pass that groups the facets by their
    ridges (vertex bitmasks) gives the same-size part of each row.  The
    facets of other sizes, none when the complex is pure, are found as
    those that hold every other vertex of F and not v: the AND of the
    prefix and the suffix of F's holds around v, less holds[v].  When
    the complex is pure, |F - G| = 1 is symmetric, so near[f] is the
    union of F's row."""
    m = len(facets)
    vertex = {}
    members = [[vertex.setdefault(v, len(vertex)) for v in f] for f in facets]
    holds = [0] * len(vertex)
    size = {}  # facet size -> the facets of that size
    ridges = {}  # vertex mask of F - v -> the facets that have that ridge
    masks = []
    for f, vs in enumerate(members):
        bit, mask = 1 << f, 0
        for v in vs:
            holds[v] |= bit
            mask |= 1 << v
        masks.append(mask)
        size[len(vs)] = size.get(len(vs), 0) | bit
        for v in vs:
            ridge = mask ^ 1 << v
            ridges[ridge] = ridges.get(ridge, 0) | bit
    every = (1 << m) - 1
    rows, adjacent = [], []
    for f, vs in enumerate(members):
        bit, mask = 1 << f, masks[f]
        hs = [holds[v] for v in vs]
        across = [ridges[mask ^ 1 << v] ^ bit for v in vs]  # the G of F's size
        other = every ^ size[len(vs)]  # the facets of other sizes
        if other:
            prefix = list(accumulate(hs[:-1], int.__and__, initial=other))
            suffix = list(accumulate(reversed(hs[1:]), int.__and__, initial=other))[::-1]
            across = [a | pre & suf & ~h for a, pre, suf, h in zip(across, prefix, suffix, hs)]
        rows.append(list(zip(across, hs)))
        union = 0
        for a in across:
            union |= a
        adjacent.append(union)
    if len(size) == 1:
        return rows, adjacent
    near = [0] * m
    for f, union in enumerate(adjacent):
        for g in _bits(union):
            near[g] |= 1 << f
    return rows, near


def shellability(complex: OrderComplex, facet_cap: int = 5000,
                 node_budget: int = 500_000) -> ShellingVerdict:
    """Search for a (possibly nonpure) shelling order: every added facet
    must meet the union of its predecessors in a nonempty pure
    codimension-1 subcomplex of itself.

    Sets of facets are int bitmasks (bit f for facet f).  For a facet F
    and the facets G used so far, let W(F) be the set of vertices v of F
    with F - G = {v} for some G: F meets that G in the wall F - v.  F
    may follow the used facets iff W(F) is nonempty and no used facet
    contains W(F).  This is the wall test itself: the walls F - v with v
    in W(F) are where F meets the used facets in codimension 1, and F & G
    lies in the wall F - v iff v is not in G, so F & G lies in one of
    them iff G does not contain W(F); a used G that contains F (a
    duplicate, or a larger facet) contains W(F) too, as W(F) lies in F.

    holds[v] is the set of facets that contain vertex v.  For each
    vertex v of F, `_shelling_tables` gives the facets G with
    F - G = {v}, so a test reads the used facets against one such set
    per vertex of F, and ANDs the holds of the walls it finds, in
    O(|F|) big-int operations.

    W(F) is empty unless some used G has |F - G| = 1, so only the
    frontier, the unused facets in near[g] for some used g (near[g] is
    the set of facets F with |F - G| = 1), is tested, by increasing
    index; the frontier of each depth is kept on a stack, pushed on each
    add and popped on each undo.  A facet outside it fails the test, so
    the search visits the same nodes in the same order.
    """
    facets = list(dict.fromkeys(complex.facets))
    m = len(facets)
    if m > facet_cap:
        raise ResourceError(f"facet count {m} exceeds cap {facet_cap}")
    if m <= 1:
        return ShellingVerdict("shellable", order=list(facets))
    rows, near = _shelling_tables(facets)

    def can_add(f, used_set):
        held = used_set  # the used facets that contain the walls found
        for across, h in rows[f]:
            if used_set & across:
                held &= h
                if not held:
                    return True
        return False

    dead: set[int] = set()
    nodes = 0

    def search(first):
        """Depth-first search for a shelling that starts with first.
        stack[d] is the next facet to try once d + 1 facets are placed;
        a state whose facet set (bit f for facet f) is in dead is not
        searched again."""
        nonlocal nodes
        used, used_set = [first], 1 << first
        frontier = [near[first]]  # frontier[d]: near[g] over the used g
        stack: list[int] = []
        while True:
            if len(used) == m:
                return used
            if used_set in dead:
                if not stack:
                    return None
                used_set ^= 1 << used.pop()
                frontier.pop()
            else:
                nodes += 1
                if nodes > node_budget:
                    raise ResourceError("shelling search budget exceeded")
                stack.append(0)
            while True:  # advance the deepest open state, or backtrack
                # the unused frontier facets from index stack[-1] on
                todo = frontier[-1] & ~used_set & -(1 << stack[-1])
                f = None
                while todo:
                    g = (todo & -todo).bit_length() - 1
                    if can_add(g, used_set):
                        f = g
                        break
                    todo ^= 1 << g
                if f is not None:
                    stack[-1] = f + 1
                    used.append(f)
                    used_set |= 1 << f
                    frontier.append(frontier[-1] | near[f])
                    break
                stack.pop()
                dead.add(used_set)
                if not stack:
                    return None
                used_set ^= 1 << used.pop()
                frontier.pop()

    # any facet may start a shelling, so each is tried as a root
    try:
        for first in sorted(range(m), key=lambda f: -len(facets[f])):
            order = search(first)
            if order is not None:
                return ShellingVerdict("shellable", order=[facets[i] for i in order])
    except ResourceError:
        return ShellingVerdict("inconclusive")
    return ShellingVerdict("not_shellable")


# -- isomorphism --------------------------------------------------------------


def _invariants(p: Poset, rounds: int = 2):
    uadj, dadj = p.up_adj(), p.down_adj()
    up, down = p.up, p.down
    inv = [(len(uadj[i]), len(dadj[i]),
            bin(up[i]).count("1"), bin(down[i]).count("1")) for i in range(p.n)]
    for _ in range(rounds):
        inv = [(inv[i],
                tuple(sorted(inv[j] for j in uadj[i])),
                tuple(sorted(inv[j] for j in dadj[i]))) for i in range(p.n)]
    return inv


def is_isomorphism(p: Poset, q: Poset, f) -> bool:
    """Whether f, a mapping from p-labels to q-labels, is an isomorphism
    of p onto q: a bijection of the nodes that maps the covers of p onto
    the covers of q.  Each order is the reflexive transitive closure of
    its covers, so such a map preserves and reflects the order."""
    try:
        image = [q.index(f[x]) for x in p.nodes]
    except KeyError:
        return False
    covers = set(q.covers)
    return (len(set(image)) == q.n == p.n and len(p.covers) == len(covers)
            and all((image[i], image[j]) in covers for i, j in p.covers))


def poset_isomorphic(p: Poset, q: Poset, size_cap: int = 5000):
    """(verdict, bijection) where the bijection maps p-labels to
    q-labels; backtracking with invariant refinement.  Where a candidate
    map is at hand, `is_isomorphism` checks it without a search."""
    if p.n != q.n:
        return False, None
    if p.n > size_cap:
        raise ResourceError(f"poset size {p.n} exceeds isomorphism cap {size_cap}")
    pi, qi = _invariants(p), _invariants(q)
    if sorted(pi) != sorted(qi):
        return False, None
    candidates = [[j for j in range(q.n) if qi[j] == pi[i]] for i in range(p.n)]
    order = sorted(range(p.n), key=lambda i: len(candidates[i]))
    p_up, q_up = p.up_adj(), q.up_adj()
    p_dn, q_dn = p.down_adj(), q.down_adj()
    p_up_sets = [set(a) for a in p_up]
    p_dn_sets = [set(a) for a in p_dn]
    q_up_sets = [set(a) for a in q_up]
    q_dn_sets = [set(a) for a in q_dn]
    mapping = [-1] * p.n
    used = [False] * q.n
    nxt = [0] * p.n  # next candidate to try for order[k]
    k = 0
    while 0 <= k < p.n:
        i = order[k]
        if mapping[i] != -1:  # back from a dead end: undo the last choice
            used[mapping[i]] = False
            mapping[i] = -1
        cands = candidates[i]
        c = nxt[k]
        while c < len(cands):
            j = cands[c]
            c += 1
            # cover relation must match exactly on already-mapped nodes
            if not used[j] and all(
                    (mapping[x] in q_up_sets[j]) == (x in p_up_sets[i])
                    and (mapping[x] in q_dn_sets[j]) == (x in p_dn_sets[i])
                    for x in order[:k]):
                mapping[i] = j
                used[j] = True
                break
        nxt[k] = c
        if mapping[i] == -1:
            nxt[k] = 0
            k -= 1
        else:
            k += 1
    if k == p.n:
        return True, {p.nodes[i]: q.nodes[mapping[i]] for i in range(p.n)}
    return False, None


# -- noncrossing partitions ----------------------------------------------------


class NCLattice(Record):
    _fields = ("n", "elements", "poset")

    def __init__(self, n: int, elements: list, poset: Poset):
        self.n = n
        self.elements = elements  # frozensets of frozensets (blocks)
        self.poset = poset        # refinement order: finer <= coarser


def _is_noncrossing(blocks) -> bool:
    blist = [sorted(b) for b in blocks]
    for (b1, b2) in combinations(blist, 2):
        for a, c in combinations(b1, 2):
            # crossing iff some element of b2 is inside (a, c) and some outside
            inside = any(a < x < c for x in b2)
            outside = any(x < a or x > c for x in b2)
            if inside and outside:
                return False
    return True


def nc_lattice(n: int) -> NCLattice:
    """Noncrossing set partitions of {1..n} under refinement."""
    if not 1 <= n <= 10:
        raise DomainError("nc_lattice supports 1 <= n <= 10")
    parts: list[frozenset] = []

    def gen(k, blocks):
        if k > n:
            fs = frozenset(frozenset(b) for b in blocks)
            if _is_noncrossing(blocks):
                parts.append(fs)
            return
        for b in blocks:
            b.append(k)
            gen(k + 1, blocks)
            b.pop()
        blocks.append([k])
        gen(k + 1, blocks)
        blocks.pop()

    gen(1, [])
    index = {p: i for i, p in enumerate(parts)}
    # covers: merge two blocks, if still noncrossing
    pairs = []
    for p in parts:
        blocks = list(p)
        for b1, b2 in combinations(blocks, 2):
            merged = [b for b in blocks if b not in (b1, b2)] + [b1 | b2]
            if _is_noncrossing([sorted(b) for b in merged]):
                q = frozenset(frozenset(b) for b in merged)
                pairs.append((index[p], index[q]))
    rank = [n - len(p) for p in parts]
    poset = Poset.from_relation(parts, pairs, rank=rank,
                                metadata={"kind": "noncrossing-partitions", "n": n})
    return NCLattice(n=n, elements=parts, poset=poset)


def is_meet_semilattice(poset: Poset) -> bool:
    """Whether every pair of nodes has a greatest lower bound, read off
    the pairs of upper covers of a common node.

    Proof.  A finite P with n >= 2 is a meet semilattice iff it has a
    bottom and every two elements with a common upper bound have a join
    (the meet of x and y is the join of their lower bounds, and the join
    of x and y is the meet of their upper bounds).  That is, P with a top
    1 adjoined is a lattice.  A finite bounded poset is a lattice iff
    every two elements covering a common element have a join (Bjorner,
    Edelman and Ziegler, Discrete Comput. Geom. 5, 1990, Lemma 2.1).
    The adjoined 1 covers only maximal elements, which have no other
    cover, so the pairs to test are the upper covers x, y of a node of
    P.  Their join is 1 when U = up[x] & up[y] is empty; otherwise it is
    the least element of U, if there is one.  A least element lies
    strictly below every other element of U, so it has the least height
    (the longest cover chain from below); so U has a least element iff
    the up-set of any one element of least height contains U.
    """
    n = poset.n
    if n <= 1:
        return True
    if len(poset.minimals()) != 1:
        return False
    up, succ = poset.up, poset.up_adj()
    height = [0] * n
    for i in poset.topological_order():
        for j in succ[i]:
            height[j] = max(height[j], height[i] + 1)
    layers = [0] * (max(height) + 1)
    for i, h in enumerate(height):
        layers[h] |= 1 << i
    for covers in succ:
        for a, x in enumerate(covers):
            for y in covers[a + 1:]:
                common = up[x] & up[y]
                if not common:
                    continue
                # x and y are incomparable: U lies above both
                for layer in layers[max(height[x], height[y]) + 1:]:
                    low = common & layer
                    if low:
                        break
                if common & ~up[low.bit_length() - 1]:
                    return False
    return True
