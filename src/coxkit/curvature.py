"""Exploratory Ollivier-Ricci curvature of arc graphs, with exact
rational arithmetic.

Convention (fixed, recorded in report metadata): the underlying graph
is undirected, the measure at a vertex is uniform on its neighbors
(idleness 0), the cost is the shortest-path metric, and
kappa(x, y) = 1 - W1(mu_x, mu_y).  No published value is asserted; all
expected values in the tests come from independent small-instance
oracles.

The edges of one `curvature_spectrum` call share a `_GraphCache`: each
vertex's boundary verdict is computed once per graph, and each transport
problem, up to the order of its rows and columns, is solved once.  On a
complete group whose X holds only involutions of odd length, the graph
is vertex-transitive, and one transport problem per t in X gives every
edge.

When every element of X has odd length (every set of reflections, so
every T_k slice), every arc joins lengths of opposite parity, so the
distance between a neighbour u of x and a neighbour v of y, for an edge
{x, y}, is odd and at most 3, through x and y: 1 if u and v are
adjacent and 3 otherwise.  The cost matrices are then read off the
neighbour sets, and a distance ball (a radius-3 BFS) is built only for
an X with an element of even length.

A problem whose cost matrix is square with entries 1 and 3 is solved as
a maximum matching on the entries 1, seeded greedily (see `_solve`).
Every edge of an arc graph of reflections with supports of one size
gives one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ball import GroupBall
from .errors import DomainError, OutOfBallError
from .flows import MinCostFlow

CONVENTION = {
    "graph": "undirected",
    "measure": "uniform-on-neighbors",
    "idleness": 0,
    "cost": "shortest-path",
    "kappa": "1 - W1",
}

__all__ = ["CurvatureRecord", "CurvatureReport", "undirected_adjacency",
           "ollivier_ricci_edge", "wasserstein_1", "curvature_spectrum",
           "CONVENTION"]


@dataclass
class CurvatureRecord:
    """The curvature kappa of the edge {x, y} and an optimal transport
    plan, (u, v) -> Fraction mass."""

    x: int
    y: int
    kappa: Fraction
    transport_plan: dict


class CurvatureReport:
    """Curvature of a batch of edges: a `CurvatureRecord` for each edge
    solved, (x, y, message) in `errors` for each edge refused, and the
    convention.

    On a complete group whose arc graph is the Cayley graph of X (see
    `curvature_spectrum`), `classes` lists (t, kappa, multiplicity) for
    each t in X: the multiplicity edges {x, t x} all take kappa(e, t).
    The edge count, the extremes and the histogram read the classes,
    `kappas` reads them with the rows, and `records` is built on first
    read, from the classes' solved plans.  Elsewhere `classes` is None
    and everything reads the records.
    """

    def __init__(self, records, errors, classes=None, rows=None):
        self._records = records  # a list, or a function that builds it
        self.errors = errors
        self.convention = dict(CONVENTION)
        self.classes = classes
        self._rows = rows

    @property
    def records(self) -> list:
        if callable(self._records):
            self._records = self._records()
        return self._records

    def kappas(self) -> list:
        """(x, y, kappa) for each solved edge, in the order of `records`."""
        if self.classes is None:
            return [(r.x, r.y, r.kappa) for r in self.records]
        kappa = {t: k for t, k, _m in self.classes}
        return [(x, y, kappa[t]) for x, y, t in _cayley_edges(self._rows)]

    def _weighted(self):
        """(kappa, number of edges) pairs covering every solved edge."""
        if self.classes is not None:
            return [(kappa, m) for _t, kappa, m in self.classes]
        return [(r.kappa, 1) for r in self.records]

    def edge_count(self) -> int:
        return sum(m for _kappa, m in self._weighted())

    def kappa_min(self):
        return min((kappa for kappa, _m in self._weighted()), default=None)

    def kappa_max(self):
        return max((kappa for kappa, _m in self._weighted()), default=None)

    def histogram(self):
        out: dict[Fraction, int] = {}
        for kappa, m in self._weighted():
            out[kappa] = out.get(kappa, 0) + m
        return dict(sorted(out.items()))


def undirected_adjacency(graph) -> dict[int, set[int]]:
    """Neighbor sets of the arc graph with orientation forgotten."""
    adj: dict[int, set[int]] = {}
    for a, b, _t in graph.arcs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _bfs_distances(adj, source, depth_cap):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and d < depth_cap:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def wasserstein_1(supports_x, supports_y, dist_fn) -> tuple[Fraction, dict]:
    """Exact W1 between uniform measures on two support sets, via an
    integer-scaled transportation network.  Returns (W1, plan)."""
    p, q = len(supports_x), len(supports_y)
    if p == 0 or q == 0:
        raise DomainError("empty support")
    scale = lcm(p, q)
    mcf = MinCostFlow(p + q + 2)
    s, t = p + q, p + q + 1
    mids = {}
    for i in range(p):
        mcf.add_edge(s, i, scale // p, 0)
    for j in range(q):
        mcf.add_edge(p + j, t, scale // q, 0)
    for i, u in enumerate(supports_x):
        for j, v in enumerate(supports_y):
            d = dist_fn(u, v)
            if d is None:
                raise DomainError(f"no path between supports {u} and {v}")
            mids[(i, j)] = mcf.add_edge(i, p + j, scale, d)
    flow, cost = mcf.run(s, t, max_flow=scale)
    if flow != scale:
        raise DomainError("transportation problem infeasible")
    plan = {}
    for (i, j), e in mids.items():
        f = mcf.edge_flow(e)
        if f:
            plan[(supports_x[i], supports_y[j])] = Fraction(f, scale)
    return Fraction(cost, scale), plan


class _GraphCache:
    """What the edges of one graph share: the undirected adjacency, on a
    truncated ball each vertex's margin verdict (one radius-4 BFS), and
    the solved transport problems.

    When every element of X has odd length, the cost between a neighbour
    u of x and a neighbour v of y is 1 if v is a neighbour of u and 3
    otherwise (see the module docstring), so no distance is searched.
    Only an X with an element of even length needs each vertex's
    distance ball of radius 3 (`distances`, one BFS per vertex).

    W1 between uniform measures depends only on the p x q cost matrix
    and not on the order of its rows and columns, so the key of a
    problem is its matrix with the rows and the columns sorted; the
    stored plan is mapped back through the two permutations.  The memo
    pays on truncated balls, where every edge is solved (affA2 at radius
    40, k = 1: 2 solves instead of 4,095, and half the time), and on
    complete groups too, where only the edges {e, t} reach here: the
    check-suite batch of the benchmark (A3, B3, A4, H3) solves 62 of its
    141 problems.
    """

    def __init__(self, graph, adj):
        self.adj = adj
        self.balls: dict[int, dict[int, int]] = {}
        self.short: dict[int, int | None] = {}
        self.plans: dict[tuple, tuple[Fraction, dict]] = {}
        self.ball = ball = graph.ball
        self.odd = all(ball.length(t) % 2 for t in graph.x_set)
        self.margin = None
        if not ball.is_complete_group:
            self.margin = max((ball.length(t) for t in graph.x_set), default=0)

    def distances(self, u):
        d = self.balls.get(u)
        if d is None:
            d = self.balls[u] = _bfs_distances(self.adj, u, 3)
        return d

    def short_of_margin(self, x):
        """The first node within distance 4 of x, in BFS order, whose
        neighborhood may reach past the radius; None if there is none."""
        if x not in self.short:
            ball, margin = self.ball, self.margin
            self.short[x] = next(
                (v for v in _bfs_distances(self.adj, x, 4)
                 if ball.length(v) + margin > ball.radius), None)
        return self.short[x]

    def costs(self, nx, ny):
        """costs[i][j] = d(nx[i], ny[j]) for the neighbours nx of x and
        ny of y, an edge: read off the neighbour sets when X is odd, and
        off the distance balls otherwise, None past distance 3."""
        if self.odd:
            adj = self.adj
            return [[1 if v in near else 3 for v in ny]
                    for near in (adj[u] for u in nx)]
        return [[d.get(v) for v in ny] for d in (self.distances(u) for u in nx)]

    def transport(self, nx, ny):
        costs = self.costs(nx, ny)
        if any(None in row for row in costs):
            # raises DomainError naming the pair; nothing is cached
            return wasserstein_1(nx, ny, lambda u, v: self.distances(u).get(v))
        # Sort rows by their multisets of entries, then columns by theirs
        # with ties read down the sorted rows, then rows again with ties
        # read along the sorted columns.  A multiset does not depend on
        # the order of the other side, so most relabellings of one
        # problem meet at one key.
        cols = list(zip(*costs))
        row_sig = [sorted(row) for row in costs]
        col_sig = [sorted(col) for col in cols]
        rp = sorted(range(len(nx)), key=row_sig.__getitem__)
        cp = sorted(range(len(ny)),
                    key=lambda j: (col_sig[j], list(map(cols[j].__getitem__, rp))))
        rp.sort(key=lambda i: (row_sig[i], list(map(costs[i].__getitem__, cp))))
        key = tuple(tuple(map(costs[i].__getitem__, cp)) for i in rp)
        hit = self.plans.get(key)
        if hit is None:
            hit = self.plans[key] = _solve(key)
        w1, plan = hit
        return w1, {(nx[rp[i]], ny[cp[j]]): m for (i, j), m in plan.items()}


def _solve(costs) -> tuple[Fraction, dict]:
    """W1 and an optimal plan, (i, j) -> mass, between uniform measures on
    the rows and the columns of the cost matrix.

    A square matrix whose entries are all 1 or 3 is a matching problem,
    and every matrix of an arc graph of reflections is one when its
    supports have the same size (see the module docstring).  For uniform
    measures on p points each, some optimal plan is a permutation
    (Birkhoff), and one that uses nu entries 1 costs (3p - 2 nu) / p.
    So W1 = (3p - 2 nu) / p with nu a maximum matching on the entries 1,
    and the plan is the matching with the unmatched rows paired to the
    unmatched columns at cost 3.

    The entries 1 are matched greedily first, row by row.  A perfect
    greedy matching is maximum, and no flow is run; otherwise it seeds
    the matching network, and `MinCostFlow.run` augments from it.  That
    is exact: every cost on the network is 0, so any flow is of least
    cost for its value.  Every other matrix is solved by
    `wasserstein_1`.
    """
    p = len(costs)
    if p != len(costs[0]) or not {c for row in costs for c in row} <= {1, 3}:
        return wasserstein_1(range(p), range(len(costs[0])),
                             lambda i, j: costs[i][j])
    ones = [[j for j, c in enumerate(row) if c == 1] for row in costs]
    pairs, taken = [], set()
    for i, js in enumerate(ones):
        for j in js:
            if j not in taken:
                taken.add(j)
                pairs.append((i, j))
                break
    if len(pairs) < p:
        mcf = MinCostFlow(2 * p + 2)
        s, t = 2 * p, 2 * p + 1
        source = [mcf.add_edge(s, i, 1, 0) for i in range(p)]
        sink = [mcf.add_edge(p + j, t, 1, 0) for j in range(p)]
        edges = {(i, j): mcf.add_edge(i, p + j, 1, 0)
                 for i, js in enumerate(ones) for j in js}
        for i, j in pairs:
            mcf.push((source[i], edges[i, j], sink[j]))
        mcf.run(s, t)
        pairs = [ij for ij, e in edges.items() if mcf.edge_flow(e)]
    rows_left = sorted(set(range(p)).difference(i for i, _j in pairs))
    cols_left = sorted(set(range(p)).difference(j for _i, j in pairs))
    mass = Fraction(1, p)
    return (Fraction(3 * p - 2 * len(pairs), p),
            {ij: mass for ij in pairs + list(zip(rows_left, cols_left))})


def ollivier_ricci_edge(graph, x: int, y: int,
                        adj: dict[int, set[int]] | None = None,
                        cache: _GraphCache | None = None) -> CurvatureRecord:
    """Curvature of the undirected edge {x, y}.

    On a truncated ball, every node within distance 4 of x must have a
    fully known neighborhood (its length plus the longest reflection in
    the slice must fit inside the radius); otherwise the metric could be
    contaminated by missing arcs and the edge is rejected.

    `cache` is the per-graph state that `curvature_spectrum` shares
    between edges; an edge called alone builds its own.
    """
    if cache is None:
        cache = _GraphCache(graph, adj if adj is not None
                            else undirected_adjacency(graph))
    adj = cache.adj
    if y not in adj.get(x, ()):
        raise DomainError(f"({x},{y}) is not an edge")
    if cache.margin is not None:
        v = cache.short_of_margin(x)
        if v is not None:
            raise OutOfBallError(
                f"edge ({x},{y}) is too close to the ball boundary for "
                f"exact curvature (node {v} lacks margin {cache.margin})")
    w1, plan = cache.transport(sorted(adj[x]), sorted(adj[y]))
    return CurvatureRecord(x=x, y=y, kappa=1 - w1, transport_plan=plan)


def curvature_spectrum(graph) -> CurvatureReport:
    """Curvature of every undirected edge of the graph; per-edge failures
    are collected, not raised.  The edges share one `_GraphCache`, which
    lives as long as this call.

    On a complete group the arc graph is the Cayley graph of left
    multiplication by X, and right multiplication by x is an automorphism
    of it that maps the edge {e, t} to {x, t x}; Ollivier's curvature is
    defined by the graph metric alone (J. Funct. Anal. 256, 2009), so
    automorphisms keep it.  So each t in X gets one transport problem, on
    {e, t}, and every edge {x, t x} takes its curvature and its plan
    moved by x.  The report then carries one class per t and builds its
    records only when they are read.  A truncated ball is not closed
    under right multiplication, so there every edge is solved on its
    own, with the margin rule of `ollivier_ricci_edge`; so is every edge
    of a graph that is not such a Cayley graph (see `_cayley_rows`).
    """
    rows = _cayley_rows(graph)
    if rows is not None:
        cache = _GraphCache(graph, _RowAdjacency(rows))
        translate = _RightTranslation(graph, cache, rows)
        half = len(graph.ball) // 2  # the edges {x, t x} of one t
        classes = [(t, translate.solve(t)[0], half) for t in rows]
        return CurvatureReport(records=translate.all_records, errors=[],
                               classes=classes, rows=rows)
    cache = _GraphCache(graph, undirected_adjacency(graph))
    records, errors = [], []
    for x, y in sorted((x, y) for x, nb in cache.adj.items() for y in nb if x < y):
        try:
            records.append(ollivier_ricci_edge(graph, x, y, cache=cache))
        except (DomainError, OutOfBallError) as exc:
            errors.append((x, y, str(exc)))
    return CurvatureReport(records=records, errors=errors)


def _cayley_rows(graph):
    """The rows of the graph, rows[t][a] = t a, if its ball is a complete
    group and every t in X is an involution of odd length; otherwise None.

    Then the undirected arc graph is the Cayley graph of left
    multiplication by X, and right multiplication by any x is an
    automorphism of it.  Proof: the sign of W is a homomorphism, so
    l(t a) = l(t) + l(a) mod 2, and l(t) odd gives l(t a) != l(a): of
    the pair {a, t a}, one is the longer, so the pair is exactly one
    arc.  As t t = e, the pair of t a is the same pair.  So the edges
    are the pairs {a, t a} for t in X and a in W, |W|/2 for each t, and
    right multiplication by x maps the edge {a, t a} to the edge
    {a x, t a x}, bijectively.  Both conditions are needed: the
    involution s0 s2 of A3 (even length) has arcs only on the pairs
    whose lengths differ, and so does t = e (none).
    """
    ball = graph.ball
    if not (isinstance(ball, GroupBall) and ball.is_complete_group):
        return None
    e = ball.identity
    if all(row[t] == e and ball.length(t) % 2 for t, row in graph.rows.items()):
        return graph.rows
    return None


def _cayley_edges(rows):
    """(x, y, t) for each edge {x, y = t x} of the Cayley graph of the
    rows, sorted: each edge is read once, at its end with the smaller
    id."""
    return sorted((a, b, t) for t, row in rows.items()
                  for a, b in enumerate(row) if a < b)


class _RowAdjacency:
    """The neighbour sets {t a : t in X} of the Cayley graph, each built
    from the rows when first asked for: a transport problem on {e, t}
    reads only the vertices near e and t."""

    def __init__(self, rows):
        self.rows = list(rows.values())
        self.known: dict[int, set[int]] = {}

    def get(self, a, _default=None):
        nb = self.known.get(a)
        if nb is None:
            nb = self.known[a] = {row[a] for row in self.rows}
        return nb

    __getitem__ = get


class _RightTranslation:
    """The edges {x, t x} of an arc graph on a complete group, from the
    solved edge {e, t}.  rows[t][a] = t a, from `_cayley_rows`."""

    def __init__(self, graph, cache, rows):
        self.graph, self.cache, self.rows = graph, cache, rows
        self.identity = graph.ball.identity
        self.base: dict[int, tuple[Fraction, list]] = {}

    def solve(self, t):
        """kappa(e, t) and its plan as (t1, t2, mass): mass moves from
        t1 e to t2 t."""
        if t not in self.base:
            e = self.identity
            rec = ollivier_ricci_edge(self.graph, e, t, cache=self.cache)
            at_e = {row[e]: s for s, row in self.rows.items()}
            at_t = {row[t]: s for s, row in self.rows.items()}
            plan = rec.transport_plan.items()
            self.base[t] = rec.kappa, [(at_e[u], at_t[v], m)
                                       for (u, v), m in plan]
        return self.base[t]

    def all_records(self) -> list:
        """A record for every edge, in the order of `_cayley_edges`: the
        edge {x, y} with y = t x is the image of {e, t} under right
        multiplication by x, so t1 e -> t1 x and t2 t -> t2 y."""
        rows = self.rows
        out = []
        for x, y, t in _cayley_edges(rows):
            kappa, plan = self.solve(t)
            out.append(CurvatureRecord(x, y, kappa, {
                (rows[t1][x], rows[t2][y]): m for t1, t2, m in plan}))
        return out
