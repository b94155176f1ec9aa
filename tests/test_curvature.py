from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import DomainError, OutOfBallError, enumerate_ball, named_matrix
from coxkit.matrices import longest_length
from coxkit import curvature
from coxkit.curvature import (CONVENTION, curvature_spectrum,
                              ollivier_ricci_edge, undirected_adjacency,
                              wasserstein_1)
from coxkit.flows import MinCostFlow
from coxkit.orders import omega_graph
from coxkit.reflections import reflections_in_ball, t_k_set
from coxkit.serialize import curvature_to_csv, curvature_to_json_dict

from oracles import brute_w1


def _stub_graph(edges):
    """A graph object backed by an explicit edge list (complete-group
    ball stub, so no boundary-margin checks apply).  Its X is {0}, of
    length 0: an even length, so distances are searched, not read off
    the parity of the arcs."""
    ball = SimpleNamespace(is_complete_group=True, length=lambda w: 0)
    arcs = [(a, b, 0) for a, b in edges]
    return SimpleNamespace(ball=ball, arcs=arcs, x_set=frozenset({0}))


def test_triangle_curvature():
    g = _stub_graph([(0, 1), (1, 2), (0, 2)])
    rec = ollivier_ricci_edge(g, 0, 1)
    assert rec.kappa == Fraction(1, 2)


def test_complete_graph_k4():
    g = _stub_graph([(a, b) for a in range(4) for b in range(a + 1, 4)])
    for x in range(4):
        for y in range(x + 1, 4):
            assert ollivier_ricci_edge(g, x, y).kappa == Fraction(2, 3)


def test_cycle_c4_is_flat():
    g = _stub_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    report = curvature_spectrum(g)
    assert not report.errors
    assert all(r.kappa == 0 for r in report.records)


def test_single_edge():
    g = _stub_graph([(0, 1)])
    assert ollivier_ricci_edge(g, 0, 1).kappa == 0


def test_transport_plan_is_a_coupling():
    g = _stub_graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    adj = undirected_adjacency(g)
    rec = ollivier_ricci_edge(g, 1, 2)
    nx, ny = sorted(adj[1]), sorted(adj[2])
    row = {u: Fraction(0) for u in nx}
    col = {v: Fraction(0) for v in ny}
    for (u, v), mass in rec.transport_plan.items():
        assert mass > 0
        row[u] += mass
        col[v] += mass
    assert all(m == Fraction(1, len(nx)) for m in row.values())
    assert all(m == Fraction(1, len(ny)) for m in col.values())


def test_curvature_symmetric():
    g = _stub_graph([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)])
    for a, b, _t in g.arcs:
        assert (ollivier_ricci_edge(g, a, b).kappa
                == ollivier_ricci_edge(g, b, a).kappa)


def test_not_an_edge_rejected():
    g = _stub_graph([(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        ollivier_ricci_edge(g, 0, 2)


def test_wasserstein_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(25):
        p = rng.randrange(1, 5)
        q = rng.randrange(1, 5)
        costs = [[rng.randrange(0, 6) for _ in range(q)] for _ in range(p)]
        w1, plan = wasserstein_1(list(range(p)), list(range(100, 100 + q)),
                                 lambda u, v: costs[u][v - 100])
        assert w1 == brute_w1(p, q, costs)
        assert sum(plan.values()) == 1


def test_wasserstein_rejects_unreachable():
    with pytest.raises(DomainError):
        wasserstein_1([0], [1], lambda u, v: None)
    with pytest.raises(DomainError):
        wasserstein_1([], [1], lambda u, v: 1)


def test_spectrum_on_finite_ball(ball_a3, table_a3):
    graph = omega_graph(ball_a3, t_k_set(table_a3, 0))
    report = curvature_spectrum(graph)
    assert not report.errors
    assert len(report.records) == len({(min(a, b), max(a, b))
                                       for a, b, _t in graph.arcs})
    assert report.convention == CONVENTION
    assert report.kappa_min() <= report.kappa_max()
    assert sum(report.histogram().values()) == len(report.records)


def test_boundary_edges_rejected_on_truncated_ball():
    ball = enumerate_ball(named_matrix("I2(inf)"), 6)
    table = reflections_in_ball(ball)
    graph = omega_graph(ball, t_k_set(table, 0))
    report = curvature_spectrum(graph)
    assert report.errors  # edges near the boundary are refused
    near_top = [(x, y) for x, y, _m in report.errors
                if max(ball.length(x), ball.length(y)) + 1 > ball.radius - 4]
    assert near_top
    identity_edges = [r for r in report.records if ball.identity in (r.x, r.y)]
    for r in identity_edges:
        assert r.kappa == 0  # the infinite path is flat at its center


def _all_distances(adj):
    """Unbounded BFS from every vertex."""
    out = {}
    for s in adj:
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        out[s] = dist
    return out


def _graphs():
    for name in ("A3", "B3", "A4"):
        matrix = named_matrix(name)
        ball = enumerate_ball(matrix, longest_length(matrix))
        table = reflections_in_ball(ball)
        top = max(ball.length(t) for t in table.reflections)
        for k in range((top - 1) // 2 + 1):
            yield omega_graph(ball, t_k_set(table, k))
    ball = enumerate_ball(named_matrix("I2(inf)"), 6)
    table = reflections_in_ball(ball)
    for k in range(3):
        yield omega_graph(ball, t_k_set(table, k))


def test_curvature_matches_uncached():
    # every edge of every slice against its own transport problem on a
    # distance matrix built here; on the truncated ball, against the
    # margin rule read off the same matrix
    for graph in _graphs():
        ball = graph.ball
        adj = undirected_adjacency(graph)
        dist = _all_distances(adj)
        report = curvature_spectrum(graph)
        edges = sorted({(min(a, b), max(a, b)) for a, b, _t in graph.arcs})
        margin = max(ball.length(t) for t in graph.x_set)
        records = iter(report.records)
        errors = iter(report.errors)
        for x, y in edges:
            short = [v for v, d in dist[x].items() if d <= 4
                     and ball.length(v) + margin > ball.radius]
            if short and not ball.is_complete_group:
                ex, ey, message = next(errors)
                assert (ex, ey) == (x, y)
                assert any(f"node {v} lacks margin {margin})" in message
                           for v in short)
                continue
            rec = next(records)
            assert (rec.x, rec.y) == (x, y)
            nx, ny = sorted(adj[x]), sorted(adj[y])
            w1, _plan = wasserstein_1(nx, ny, lambda u, v: dist[u][v])
            assert rec.kappa == 1 - w1
            # the plan is a coupling of the two measures with cost W1
            row = {u: Fraction(0) for u in nx}
            col = {v: Fraction(0) for v in ny}
            for (u, v), mass in rec.transport_plan.items():
                assert mass > 0
                row[u] += mass
                col[v] += mass
            assert all(m == Fraction(1, len(nx)) for m in row.values())
            assert all(m == Fraction(1, len(ny)) for m in col.values())
            assert sum(m * dist[u][v]
                       for (u, v), m in rec.transport_plan.items()) == w1
        assert next(records, None) is None and next(errors, None) is None


def test_convention_is_fixed():
    assert CONVENTION["idleness"] == 0
    assert CONVENTION["kappa"] == "1 - W1"
    assert CONVENTION["measure"] == "uniform-on-neighbors"


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "I2(7)"])
def test_right_translation_matches_each_edge_alone(name):
    # on a complete group every edge takes kappa and plan from {e, t}
    # moved by right multiplication; each must agree with the edge
    # solved on its own, and each plan must be an optimal coupling
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    table = reflections_in_ball(ball)
    top = max(ball.length(t) for t in table.reflections)
    for k in range((top - 1) // 2 + 1):
        graph = omega_graph(ball, t_k_set(table, k))
        adj = undirected_adjacency(graph)
        dist = _all_distances(adj)
        report = curvature_spectrum(graph)
        edges = sorted({(min(a, b), max(a, b)) for a, b, _t in graph.arcs})
        assert not report.errors
        assert [(r.x, r.y) for r in report.records] == edges
        # the eager move: mass from t1 e to t2 t goes from t1 x to t2 y,
        # that is from u x to v x for the plan (u, v) of the edge {e, t}
        labels = {(min(a, b), max(a, b)): t for a, b, t in graph.arcs}
        assert ball.identity == 0
        base = {labels[r.x, r.y]: r.transport_plan
                for r in report.records if r.x == ball.identity}
        for rec in report.records:
            x = rec.x
            assert rec.transport_plan == {
                (ball.multiply(u, x), ball.multiply(v, x)): m
                for (u, v), m in base[labels[rec.x, rec.y]].items()}
        for rec in report.records:
            alone = ollivier_ricci_edge(graph, rec.x, rec.y, adj=adj)
            assert rec.kappa == alone.kappa, (name, k, rec.x, rec.y)
            row = {u: Fraction(0) for u in adj[rec.x]}
            col = {v: Fraction(0) for v in adj[rec.y]}
            for (u, v), mass in rec.transport_plan.items():
                assert mass > 0
                row[u] += mass
                col[v] += mass
            assert set(row.values()) == {Fraction(1, len(row))}
            assert set(col.values()) == {Fraction(1, len(col))}
            assert sum(m * dist[u][v] for (u, v), m
                       in rec.transport_plan.items()) == 1 - rec.kappa


@pytest.mark.parametrize("word,edges", [pytest.param((), 0, id="e"),
                                        pytest.param((0, 2), 6, id="s0s2")])
def test_even_involutions_take_the_edge_path(ball_a3, word, edges):
    # t = e and t = s0 s2 are involutions of even length: the pairs
    # {a, t a} of equal length carry no arc, so the graph is no Cayley
    # graph of left multiplication by t, and every edge is solved alone
    graph = omega_graph(ball_a3, {ball_a3.id_of_word(word)})
    report = curvature_spectrum(graph)
    adj = undirected_adjacency(graph)
    assert report.classes is None and not report.errors
    assert report.edge_count() == len(report.records) == edges
    for rec in report.records:
        assert rec.kappa == ollivier_ricci_edge(graph, rec.x, rec.y, adj=adj).kappa


def test_an_odd_involution_that_is_no_reflection_takes_the_class_path(ball_b3,
                                                                      table_b3):
    # w0 of B3 is central, of length 9 and no reflection: odd length is
    # what makes each pair {a, w0 a} one arc, so the graph is the Cayley
    # graph of left multiplication by w0, and one solve gives every edge
    w0 = max(range(len(ball_b3)), key=ball_b3.length)
    assert ball_b3.length(w0) == 9 and w0 not in table_b3.reflections
    graph = omega_graph(ball_b3, {w0})
    report = curvature_spectrum(graph)
    adj = undirected_adjacency(graph)
    assert [(t, m) for t, _kappa, m in report.classes] == [(w0, 24)]
    assert not report.errors and len(report.records) == 24
    for rec in report.records:
        alone = ollivier_ricci_edge(graph, rec.x, rec.y, adj=adj)
        assert rec.kappa == alone.kappa == report.classes[0][1]


def test_exports_build_no_record(monkeypatch, ball_a3, table_a3):
    # the spectrum and both exports read the classes and the rows; only
    # reading `records` builds them, once
    built = []
    all_records = curvature._RightTranslation.all_records
    monkeypatch.setattr(curvature._RightTranslation, "all_records",
                        lambda self: built.append(1) or all_records(self))
    graph = omega_graph(ball_a3, t_k_set(table_a3, 1))
    report = curvature_spectrum(graph)
    json_dict = curvature_to_json_dict(report)
    csv_text = curvature_to_csv(report)
    assert not built
    assert len(json_dict["edges"]) == csv_text.count("\n") - 1 == len(graph.arcs)
    records = report.records
    assert len(built) == 1 and report.records is records
    assert report.kappas() == [(r.x, r.y, r.kappa) for r in records]
    assert len(built) == 1


def _complete_slices(name):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    table = reflections_in_ball(ball)
    top = max(ball.length(t) for t in table.reflections)
    for k in range((top - 1) // 2 + 1):
        yield k, omega_graph(ball, t_k_set(table, k))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "I2(7)"])
def test_classes_match_the_edge_records(name):
    # the class report (one kappa per t in X) agrees on every summary
    # with the edges solved one by one, as the edge path solves them, and
    # its kappas, read off the classes, are those of its records
    for k, graph in _complete_slices(name):
        report = curvature_spectrum(graph)
        edges = sorted({(min(a, b), max(a, b)) for a, b, _t in graph.arcs})
        cache = curvature._GraphCache(graph, undirected_adjacency(graph))
        alone = [(x, y, ollivier_ricci_edge(graph, x, y, cache=cache).kappa)
                 for x, y in edges]
        assert [t for t, _kappa, _m in report.classes] == sorted(graph.x_set)
        n = len(graph.ball)
        assert all(m == n // 2 for _t, _kappa, m in report.classes)
        assert report.edge_count() == len(edges) == len(graph.arcs)
        assert report.kappas() == alone, (name, k)
        kappas = [kappa for _x, _y, kappa in alone]
        assert report.kappa_min() == min(kappas)
        assert report.kappa_max() == max(kappas)
        assert report.histogram() == {
            kappa: kappas.count(kappa) for kappa in sorted(set(kappas))}
        assert [(r.x, r.y, r.kappa) for r in report.records] == alone


def test_a_set_with_no_involution_takes_the_edge_path(ball_a3):
    # left multiplication by the Coxeter element c = s0 s1 s2 raises the
    # length of half of S4, as a reflection does, but c is no involution:
    # its arcs are no Cayley graph of right translations
    c = ball_a3.id_of_word([0, 1, 2])
    graph = omega_graph(ball_a3, {c})
    assert 2 * len(graph.arcs) == len(ball_a3)
    report = curvature_spectrum(graph)
    adj = undirected_adjacency(graph)
    assert report.classes is None and not report.errors
    assert report.edge_count() == len(graph.arcs)
    for rec in report.records:
        assert rec.kappa == ollivier_ricci_edge(graph, rec.x, rec.y, adj=adj).kappa


def test_reading_records_solves_nothing_again(monkeypatch, ball_a3, table_a3):
    # the records of a class report come from the solved plans: reading
    # them calls neither the public spectrum nor the edge solver
    graph = omega_graph(ball_a3, t_k_set(table_a3, 2))
    calls = []
    for name in ("curvature_spectrum", "ollivier_ricci_edge", "wasserstein_1"):
        fn = getattr(curvature, name)
        monkeypatch.setattr(curvature, name,
                            lambda *a, fn=fn, name=name, **kw:
                            calls.append(name) or fn(*a, **kw))
    report = curvature.curvature_spectrum(graph)
    solved = len(calls)
    assert calls.count("ollivier_ricci_edge") == len(graph.x_set)
    assert len(report.records) == report.edge_count() == len(graph.arcs)
    assert len(calls) == solved


def _coupling_cost(costs, plan):
    """The cost of the plan, checked to be a coupling of the uniform
    measures on the rows and the columns."""
    p, q = len(costs), len(costs[0])
    rows, cols = [Fraction(0)] * p, [Fraction(0)] * q
    for (i, j), mass in plan.items():
        assert mass > 0
        rows[i] += mass
        cols[j] += mass
    assert rows == [Fraction(1, p)] * p and cols == [Fraction(1, q)] * q
    return sum(mass * costs[i][j] for (i, j), mass in plan.items())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda p: st.lists(
    st.lists(st.sampled_from([1, 3]), min_size=p, max_size=p),
    min_size=p, max_size=p)))
def test_a_square_matrix_of_ones_and_threes_is_a_matching(costs):
    p = len(costs)
    w1, plan = curvature._solve(costs)
    assert w1 == wasserstein_1(range(p), range(p), lambda i, j: costs[i][j])[0]
    assert _coupling_cost(costs, plan) == w1


def test_other_matrices_take_the_general_path(monkeypatch):
    calls = []
    general = curvature.wasserstein_1
    monkeypatch.setattr(curvature, "wasserstein_1",
                        lambda *a: calls.append(a) or general(*a))
    for costs in ([[1, 3, 1], [3, 1, 1]], [[0, 1], [1, 2]], [[1, 2], [3, 1]]):
        w1, plan = curvature._solve(costs)
        assert w1 == brute_w1(len(costs), len(costs[0]), costs)
        assert _coupling_cost(costs, plan) == w1
    assert len(calls) == 3
    assert curvature._solve([[1, 3], [3, 1]])[0] == 1
    assert len(calls) == 3


def _oracle_costs(adj, nx, ny, balls):
    """The cost matrix between nx and ny by radius-3 BFS, one ball per
    row vertex, kept in balls."""
    for u in nx:
        if u not in balls:
            balls[u] = curvature._bfs_distances(adj, u, 3)
    return [[balls[u][v] for v in ny] for u in nx]


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "B4"])
def test_every_class_edge_is_a_matching_problem(name):
    # reflections have odd length, so the cost matrix of each edge {e, t}
    # is read off the neighbour sets; it is that of the BFS, square with
    # entries 1 and 3, and the matching gives the W1 of the general solver
    for _k, graph in _complete_slices(name):
        cache = curvature._GraphCache(graph, curvature._RowAdjacency(graph.rows))
        assert cache.odd
        balls = {}
        nx = sorted(cache.adj[graph.ball.identity])
        for t in graph.rows:
            ny = sorted(cache.adj[t])
            costs = cache.costs(nx, ny)
            assert costs == _oracle_costs(cache.adj, nx, ny, balls)
            assert len(nx) == len(ny)
            assert {c for row in costs for c in row} <= {1, 3}
            w1, plan = curvature._solve(costs)
            assert w1 == wasserstein_1(range(len(nx)), range(len(ny)),
                                       lambda i, j: costs[i][j])[0]
            assert _coupling_cost(costs, plan) == w1


@pytest.mark.parametrize("name,radius", [("affA2", 12), ("affC2", 10), ("B3", 4)])
def test_every_truncated_edge_cost_is_the_bfs_distance(name, radius):
    # on a truncated ball the arcs still join lengths of opposite parity,
    # so every edge's costs read off the neighbour sets are the distances
    # of the BFS, margin or not
    ball = enumerate_ball(named_matrix(name), radius)
    table = reflections_in_ball(ball)
    for k in range((radius + 1) // 2):  # the slices 2k + 1 <= radius
        graph = omega_graph(ball, t_k_set(table, k))
        adj = undirected_adjacency(graph)
        cache = curvature._GraphCache(graph, adj)
        assert cache.odd
        balls = {}
        for x, y in sorted({(min(a, b), max(a, b)) for a, b, _t in graph.arcs}):
            nx, ny = sorted(adj[x]), sorted(adj[y])
            assert cache.costs(nx, ny) == _oracle_costs(adj, nx, ny, balls), (k, x, y)


def _bfs_radii(monkeypatch):
    """The depth cap of each `_bfs_distances` call from here on."""
    radii = []
    bfs = curvature._bfs_distances
    monkeypatch.setattr(curvature, "_bfs_distances",
                        lambda adj, u, cap: radii.append(cap) or bfs(adj, u, cap))
    return radii


def test_an_odd_set_searches_no_distance(monkeypatch, ball_b3, table_b3):
    # the class path on a complete group, and the edge path on a
    # truncated ball, where only the radius-4 margin BFS runs
    radii = _bfs_radii(monkeypatch)
    report = curvature_spectrum(omega_graph(ball_b3, t_k_set(table_b3, 1)))
    assert report.classes is not None and radii == []
    ball = enumerate_ball(named_matrix("affA2"), 12)
    report = curvature_spectrum(omega_graph(ball, t_k_set(reflections_in_ball(ball), 0)))
    assert report.classes is None and report.records and report.errors
    assert radii and set(radii) == {4}


@pytest.mark.parametrize("words,edges", [
    pytest.param([(0, 2)], 6, id="s0s2"),
    pytest.param([(0, 2), (1,)], 18, id="s0s2+s1")])
def test_an_even_involution_still_searches_distances(monkeypatch, ball_a3,
                                                     words, edges):
    # s0 s2 of A3 has length 2: its arcs join lengths of one parity, so
    # the costs are distances of the BFS, with s1 in X as well
    radii = _bfs_radii(monkeypatch)
    graph = omega_graph(ball_a3, {ball_a3.id_of_word(w) for w in words})
    adj = undirected_adjacency(graph)
    assert not curvature._GraphCache(graph, adj).odd
    report = curvature_spectrum(graph)
    assert report.classes is None and len(report.records) == edges
    assert 3 in radii


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda p: st.lists(
    st.lists(st.sampled_from([1, 3]), min_size=p, max_size=p),
    min_size=p, max_size=p)))
def test_the_seeded_matching_is_exact(costs):
    _check_seeded_matching(costs)


@pytest.mark.parametrize("costs", [
    [[1, 1], [1, 3]],
    [[1, 1, 3], [1, 3, 3], [3, 1, 1]],
    [[1, 1, 1], [1, 3, 3], [1, 3, 3]],
    [[3, 3], [3, 3]],
])
def test_the_seeded_matching_when_greedy_is_not_maximum(costs):
    assert _greedy_size(costs) < len(costs)
    _check_seeded_matching(costs)


def _greedy_size(costs):
    """The size of the matching of each row to its first free column of
    entry 1."""
    taken = set()
    for row in costs:
        free = [j for j, c in enumerate(row) if c == 1 and j not in taken]
        taken.update(free[:1])
    return len(taken)


def _check_seeded_matching(costs):
    # W1 is that of the brute force, the plan a coupling of that cost,
    # and the flow runs once only when the greedy matching is not
    # perfect, from it: one search per augmentation past the greedy
    # matching, and one that finds no path
    runs, searches = [], []
    run, search = MinCostFlow.run, MinCostFlow.shortest_paths
    MinCostFlow.run = lambda self, *a, **kw: runs.append(1) or run(self, *a, **kw)
    MinCostFlow.shortest_paths = (lambda self, s: searches.append(1)
                                  or search(self, s))
    try:
        w1, plan = curvature._solve(costs)
    finally:
        MinCostFlow.run, MinCostFlow.shortest_paths = run, search
    p = len(costs)
    assert w1 == brute_w1(p, p, costs)
    assert _coupling_cost(costs, plan) == w1
    greedy, nu = _greedy_size(costs), (3 * p - w1 * p) / 2
    assert len(runs) == (0 if greedy == p else 1)
    assert len(searches) == (0 if greedy == p else nu - greedy + 1)
