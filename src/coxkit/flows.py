"""Integer min-cost flow: the one solver behind the strong Sperner check,
the Greene-Kleitman h-family witnesses and the exact Wasserstein-1
distance of the curvature module.

The poset layer runs it on one chain network per poset, built on the
Hasse diagram: unit augmentations give the chain gains, from which
every Greene-Kleitman number follows, and the potentials of one more
run give an h-family witness.  The strong Sperner check runs the flows
only on the posets that no contained, strongly Sperner poset on the
same nodes certifies.  The curvature layer runs it at most
once per distinct transport problem of a graph: on a square matrix of
entries 1 and 3, where a maximum matching on the entries 1 gives W1,
as a matching network with all costs 0, seeded (`push`) with a greedy
matching and run only when that matching is not perfect; on any other
matrix, as a transportation network.

All capacities and costs are integers, so optima are exact.
"""
from __future__ import annotations

from collections import deque


class MinCostFlow:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx

    def shortest_paths(self, s: int):
        """(dist, prev_edge): SPFA distances from s over the arcs with
        residual capacity, and the last arc of each shortest path.  The
        residual network must have no negative cycle."""
        INFD = float("inf")
        dist = [INFD] * self.n
        inq = [False] * self.n
        prev_edge = [-1] * self.n
        head, to, cap, cost = self.head, self.to, self.cap, self.cost
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            inq[u] = False
            du = dist[u]
            for e in head[u]:
                if cap[e] > 0:
                    v = to[e]
                    nd = du + cost[e]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = e
                        if not inq[v]:
                            inq[v] = True
                            q.append(v)
        return dist, prev_edge

    def run(self, s: int, t: int, max_flow: int | None = None,
            stop_on_nonnegative: bool = False) -> tuple[int, int]:
        """Successive shortest augmenting paths.  Returns (flow, cost).

        With stop_on_nonnegative, augmentation stops once the cheapest
        path cost is >= 0 (global cost minimum over all flow values).
        """
        flow = 0
        total_cost = 0
        while max_flow is None or flow < max_flow:
            dist, prev_edge = self.shortest_paths(s)
            if dist[t] == float("inf"):
                break
            if stop_on_nonnegative and dist[t] >= 0:
                break
            push = float("inf") if max_flow is None else max_flow - flow
            v = t
            while v != s:
                e = prev_edge[v]
                push = min(push, self.cap[e])
                v = self.to[e ^ 1]
            v = t
            while v != s:
                e = prev_edge[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                v = self.to[e ^ 1]
            flow += push
            total_cost += push * dist[t]
        return flow, total_cost

    def push(self, path) -> None:
        """Push one unit along the path, a list of edge ids from
        `add_edge`, each with residual capacity."""
        cap = self.cap
        for e in path:
            cap[e] -= 1
            cap[e ^ 1] += 1

    def edge_flow(self, idx: int) -> int:
        return self.cap[idx ^ 1]
