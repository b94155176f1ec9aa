from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxkit import DomainError, enumerate_ball, named_matrix
from coxkit import posets as posets_mod
from coxkit.cli import main
from coxkit.matrices import longest_length
from coxkit.orders import (intermediate_poset, k_absolute_length_all,
                           k_absolute_poset)
from coxkit.posets import (Poset, check_graded, is_graded, is_isomorphism,
                           is_meet_semilattice, is_order_ideal, max_h_family,
                           max_h_family_value, nc_lattice, OrderComplex,
                           order_complex, order_ideals, poset_isomorphic,
                           shellability, strong_sperner_check)
from coxkit.projections import phi_k_image_poset
from coxkit.reflections import reflections_in_ball, t_k_set, t_order_poset

from oracles import (brute_closure, brute_covers, brute_is_meet_semilattice,
                     brute_max_h_family, brute_shellable, is_shelling_order,
                     is_union_of_h_antichains, reference_order_complex,
                     reference_shellability, reference_shelling_tables)


def _chain(n):
    return Poset.from_relation(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def _antichain(n):
    return Poset.from_relation(list(range(n)), [])


def _boolean(n):
    nodes = list(range(1 << n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b and a & b == a]
    return Poset.from_relation(nodes, pairs,
                               rank=[bin(a).count("1") for a in nodes])


def _random_poset(n, density, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return Poset.from_relation(list(range(n)), pairs)


def test_covers_drop_transitive_edges():
    # self pairs are ignored
    p = Poset.from_relation([0, 1, 2, 3], [(0, 1), (1, 1), (1, 2), (0, 2), (3, 3)])
    assert p.covers == [(0, 1), (1, 2)]
    assert p.up == [0b0111, 0b0110, 0b0100, 0b1000]
    assert p.leq(0, 2) and p.lt(0, 2) and not p.leq(2, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20)
       .flatmap(lambda covers: st.permutations(covers + covers[::2])))
def test_covers_are_stored_sorted_once(covers):
    # the constructor takes covers as given, unsorted and repeated
    assert Poset(range(6), covers).covers == sorted(set(covers))


@st.composite
def _messy_dags(draw, graded=False):
    """A DAG on shuffled labels, given as generating pairs with
    duplicates, self pairs and redundant transitive pairs mixed in.
    With graded, nodes get levels 0..3 and generating pairs go up one
    level, so every cover does: (n, pairs, levels)."""
    n = draw(st.integers(0, 12))
    if graded:
        rank = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rank[j] == rank[i] + 1 and draw(st.integers(0, 2)) > 0]
    else:
        rank = draw(st.permutations(range(n)))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rank[i] < rank[j] and draw(st.integers(0, 3)) == 0]
    closure = sorted(brute_closure(n, pairs))
    pairs += draw(st.lists(st.sampled_from(closure), max_size=8)) if closure else []
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    pairs += [(i, i) for i in draw(st.sets(st.integers(0, n - 1)))] if n else []
    if graded:
        return n, draw(st.permutations(pairs)), rank
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_messy_dags(), st.randoms(use_true_random=False))
def test_from_relation_covers_match_brute_force(dag, rng):
    n, pairs = dag
    p = Poset.from_relation(list(range(n)), pairs)
    less = brute_closure(n, pairs)
    assert p.covers == sorted(brute_covers(less))
    assert set(p.relation_pairs()) == less
    keep = sorted(rng.sample(range(n), rng.randrange(n + 1)))
    sub = p.subposet(keep)
    induced = {(keep.index(i), keep.index(j)) for i, j in less
               if i in keep and j in keep}
    assert sub.covers == sorted(brute_covers(induced))


@settings(max_examples=300, deadline=None)
@given(_messy_dags(), st.randoms(use_true_random=False))
def test_subposet_matches_brute_force(dag, rng):
    # the subposet reads the restricted up-sets; its covers and up-sets
    # must be those of the induced relation, on labels and ranks
    n, pairs = dag
    p = Poset.from_relation([f"v{i}" for i in range(n)], pairs,
                            rank=[i % 3 for i in range(n)])
    less = brute_closure(n, pairs)
    keep = rng.sample(range(n), rng.randrange(n + 1))
    sub = p.subposet(keep)
    keep.sort()
    at = {x: k for k, x in enumerate(keep)}
    induced = {(at[i], at[j]) for i, j in less if i in at and j in at}
    assert sub.nodes == [f"v{i}" for i in keep]
    assert sub.rank == [i % 3 for i in keep]
    assert sub.covers == sorted(brute_covers(induced))
    assert sub.up == [(1 << a) | sum(1 << b for a2, b in induced if a2 == a)
                      for a in range(len(keep))]


@settings(max_examples=300, deadline=None)
@given(_messy_dags())
def test_up_sets_built_from_covers_match_brute_force(dag):
    # a poset given only its covers builds its up-sets on first read;
    # its topological order is a linear extension of the order
    n, pairs = dag
    less = brute_closure(n, pairs)
    p = Poset(list(range(n)), brute_covers(less))
    assert p._up is None
    assert p.up == [(1 << i) | sum(1 << j for i2, j in less if i2 == i)
                    for i in range(n)]
    order = p.topological_order()
    assert sorted(order) == list(range(n))
    at = {x: k for k, x in enumerate(order)}
    assert all(at[i] < at[j] for i, j in less)


@st.composite
def _closed_dags(draw):
    """Reflexive closed up-set bitmasks of a random DAG whose ids are a
    linear extension, and a permutation of the ids: (n, up, perm)."""
    n = draw(st.integers(0, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(0, 3)) == 0]
    less = brute_closure(n, pairs)
    up = [(1 << i) | sum(1 << j for i2, j in less if i2 == i) for i in range(n)]
    return n, up, draw(st.permutations(range(n)))


def _counting_close(monkeypatch):
    calls = []
    close = posets_mod._close

    def counted(succ):
        calls.append(len(succ))
        return close(succ)

    monkeypatch.setattr(posets_mod, "_close", counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(_closed_dags())
def test_from_closed_peels_in_id_order_and_closes_otherwise(dag):
    # in id order the covers are peeled off the up-sets with no call of
    # _close; renumbered against the order, the closure pass runs; both
    # give what _close gives on the same successor lists
    n, up, perm = dag
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_close(mp)
        for ids in (list(range(n)), perm):
            moved = [0] * n
            for i, m in enumerate(up):
                moved[ids[i]] = sum(1 << ids[j] for j in range(n) if m >> j & 1)
            succ = [[j for j in range(n) if j != i and m >> j & 1]
                    for i, m in enumerate(moved)]
            want_up, want_covers = posets_mod._close(succ)
            calls.clear()
            p = Poset._from_closed([f"v{i}" for i in range(n)], moved,
                                   rank=list(range(n)), metadata={"m": 1})
            against = any(moved[i] >> j & 1 for i in range(n) for j in range(i))
            assert calls == ([n] if against else [])
            assert p.covers == sorted(want_covers)
            assert p.up == want_up == moved
            assert p.rank == list(range(n)) and p.metadata == {"m": 1}


def test_from_closed_rejects_a_cycle():
    with pytest.raises(DomainError):
        Poset._from_closed([0, 1], [0b11, 0b11])


@pytest.mark.parametrize("name", ["A3", "H3"])
def test_phi_image_posets_are_peeled(monkeypatch, name):
    # the image tuples are sorted and each strictly greater tuple is
    # lexicographically later, so no image poset goes through _close
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    table = reflections_in_ball(ball)
    top = max(ball.length(t) for t in table.reflections)
    orders = [intermediate_poset(ball, t_k_set(table, k))
              for k in range((top - 1) // 2 + 1)]
    for order in orders:
        assert order.up  # the orders' own up-sets, built here
    calls = _counting_close(monkeypatch)
    for order in orders:
        image = phi_k_image_poset(ball, order)
        assert image.n and image.covers
    assert calls == []


def test_from_relation_rejects_cycles():
    with pytest.raises(DomainError):
        Poset.from_relation([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        Poset.from_relation([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 1)])


def test_order_ideals_counts_and_validity():
    assert len(list(order_ideals(_chain(5)))) == 6
    assert len(list(order_ideals(_antichain(4)))) == 16
    diamond = Poset.from_relation([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3), (2, 3)])
    ideals = list(order_ideals(diamond))
    assert len(ideals) == 6
    assert all(is_order_ideal(diamond, ideal) for ideal in ideals)
    # exhaustive cross-check on a random 10-node poset
    p = _random_poset(10, 0.3, seed=4)
    brute = sum(1 for r in range(p.n + 1) for c in combinations(range(p.n), r)
                if is_order_ideal(p, c))
    assert len(set(order_ideals(p))) == brute


def test_order_ideals_long_chain():
    # one level of search per element, so no recursion limit applies
    assert sum(1 for _ in order_ideals(_chain(1200))) == 1201


def test_is_graded():
    assert is_graded(_chain(4))
    assert is_graded(_boolean(3))
    lopsided = Poset.from_relation([0, 1, 2, 3], [(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)])
    assert is_graded(lopsided)  # diamond again
    uneven = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert is_graded(uneven)
    broken = Poset.from_relation([0, 1, 2, 3], [(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)])
    # two maximal chains 0<1<2 and 0<3<2 same length: graded
    assert is_graded(broken)
    bad = Poset.from_relation([0, 1, 2, 3], [(0, 1), (1, 3), (0, 3), (0, 2)])
    # chains 0<1<3 and 0<2 end at different heights on different maximals
    assert not is_graded(Poset.from_relation(
        [0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (0, 3), (3, 2)][:3] + [(0, 2)]))
    del bad


def test_check_graded_reports_bad_covers():
    p = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2)])
    rank = {0: 0, 1: 1, 2: 3}
    rep = check_graded(p, lambda x: rank[x])
    assert not rep.ok and rep.bad_covers == [(1, 2)]


def _weak_order(name):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    return ball, intermediate_poset(ball, t_k_set(reflections_in_ball(ball), 0))


@pytest.mark.parametrize("maker,seed", [
    ("nc4", 0), ("boolean4", 0), ("chain", 0), ("antichain", 0),
    ("random", 1), ("random", 2), ("random", 3), ("random16", 9),
    ("weak_i26", 0), ("weak_a4", 0), ("weak_b4", 0),
])
def test_h_family_flow_matches_bruteforce(maker, seed, ball_a2, table_a2):
    level_sizes = None
    if maker == "nc4":
        p = nc_lattice(4).poset
    elif maker == "boolean4":
        p = _boolean(4)
    elif maker == "chain":
        p = _chain(7)
    elif maker == "antichain":
        p = _antichain(6)
    elif maker == "weak_i26":
        p = intermediate_poset(ball_a2, t_k_set(table_a2, 0))
    elif maker in ("weak_a4", "weak_b4"):
        ball, p = _weak_order(maker[-2:].upper())
        level_sizes = sorted(ball.rank_sizes(), reverse=True)
    elif maker == "random16":
        p = _random_poset(16, 0.3, seed)
    else:
        p = _random_poset(14, 0.25, seed)
    for h in range(1, 5):
        value = max_h_family_value(p, h)
        if level_sizes is None:
            assert value == brute_max_h_family(p, h), (maker, h)
        else:
            # too large for the brute-force search.  h rank levels form an
            # h-family, so the h largest give a lower bound, which the
            # flow meets on these weak orders (strong Sperner property)
            assert value == sum(level_sizes[:h]), (maker, h)
        got, witness = max_h_family(p, h)
        assert got == value
        assert witness is not None
        assert is_union_of_h_antichains(p, witness, h)
        assert sum(len(f) for f in witness) == value


@settings(max_examples=300, deadline=None)
@given(_messy_dags(), st.integers(1, 5))
def test_h_family_witness_matches_brute_force(dag, h):
    n, pairs = dag
    p = Poset.from_relation(list(range(n)), pairs)
    value, witness = max_h_family(p, h)
    assert value == brute_max_h_family(p, h)
    assert is_union_of_h_antichains(p, witness, h)
    assert sum(len(f) for f in witness) == value


@settings(max_examples=200, deadline=None)
@given(_messy_dags(graded=True))
def test_strong_sperner_rows_match_brute_force(dag):
    n, pairs, levels = dag
    p = Poset.from_relation(list(range(n)), pairs, rank=levels)
    rep = strong_sperner_check(p)
    sizes = sorted(Counter(levels).values(), reverse=True)
    assert [row.h for row in rep.rows] == list(range(1, len(sizes) + 1))
    for row in rep.rows:
        assert row.flow_value == brute_max_h_family(p, row.h)
        assert row.top_rank_sum == sum(sizes[:row.h])
        assert row.ok == (row.flow_value == row.top_rank_sum)
    assert rep.ok == all(row.ok for row in rep.rows)
    for h in range(len(sizes) + 1, n + 2):
        assert max_h_family_value(p, h) == n == brute_max_h_family(p, h)


def test_strong_sperner_positive():
    rep = strong_sperner_check(_boolean(4))
    assert rep.ok
    assert [row.flow_value for row in rep.rows] == sorted(
        [row.top_rank_sum for row in rep.rows])


def test_strong_sperner_negative():
    # rank levels 1,3,2 but four mutually incomparable nodes
    p = Poset.from_relation(
        ["a", "b1", "b2", "b3", "c", "d"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
        rank=[0, 1, 1, 1, 2, 2])
    rep = strong_sperner_check(p)
    assert not rep.ok
    assert rep.rows[0].flow_value == 4 and rep.rows[0].top_rank_sum == 3


def test_strong_sperner_requires_graded():
    p = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2), (0, 2)], rank=[0, 1, 3])
    with pytest.raises(DomainError):
        strong_sperner_check(p)
    # the message names the labels of the first three bad covers
    p = Poset.from_relation(["a", "b", "c", "d", "e"], [(0, 1), (0, 2), (0, 3), (0, 4)],
                            rank=[0, 2, 2, 2, 2])
    with pytest.raises(DomainError) as caught:
        strong_sperner_check(p)
    assert str(caught.value) == ("poset is not graded by the given rank: "
                                 "[('a', 'b'), ('a', 'c'), ('a', 'd')]")


@pytest.mark.parametrize("name,radius", [
    ("A3", None), ("B3", None), ("A4", None), ("H3", None), ("B4", None),
    ("D4", None), ("affA2", 8), ("affC2", 10)])
def test_certified_rows_equal_the_flows_on_every_slice(name, radius):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, radius or longest_length(matrix))
    table = reflections_in_ball(ball)
    k_max = (max(map(ball.length, table.reflections)) - 1) // 2
    slices = [intermediate_poset(ball, t_k_set(table, k))
              for k in range(k_max + 1)]
    weaker = slices[0]
    assert strong_sperner_check(weaker).ok
    for k, poset in enumerate(slices[1:], 1):
        certified = strong_sperner_check(poset, weaker=weaker)
        assert poset._gains is None, k  # no flow ran
        assert certified == strong_sperner_check(poset), k
        if poset.n <= 24:
            for row in certified.rows:
                assert row.flow_value == brute_max_h_family(poset, row.h), k


def _levels_1_3_2(extra=()):
    # rank levels 1, 3, 2; without the extra covers b2, b3, c and d are
    # four mutually incomparable nodes
    return Poset.from_relation(
        ["a", "b1", "b2", "b3", "c", "d"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), *extra],
        rank=[0, 1, 1, 1, 2, 2])


def test_a_weaker_poset_that_is_not_contained_takes_the_flows():
    sperner = _levels_1_3_2([(2, 4), (3, 5)])
    assert strong_sperner_check(sperner).ok
    # the strongly Sperner poset holds covers the other one lacks, so it
    # proves nothing about it
    rep = strong_sperner_check(_levels_1_3_2(), weaker=sperner)
    assert not rep.ok
    assert rep.rows[0].flow_value == 4 and rep.rows[0].top_rank_sum == 3
    # a poset on other nodes is not read either
    other = Poset.from_relation(list(range(6)), sperner.covers, rank=sperner.rank)
    assert strong_sperner_check(other).ok and sperner._gains is not None
    sperner._gains = None
    assert strong_sperner_check(sperner, weaker=other).ok
    assert sperner._gains is not None


def test_a_weaker_poset_that_is_not_strongly_sperner_takes_the_flows(monkeypatch):
    weaker, poset = _levels_1_3_2(), _levels_1_3_2([(2, 4), (3, 5)])
    assert not strong_sperner_check(weaker).ok
    calls = []
    real = posets_mod.max_h_family_value
    monkeypatch.setattr(posets_mod, "max_h_family_value",
                        lambda p, h: calls.append((p, h)) or real(p, h))
    rep = strong_sperner_check(poset, weaker=weaker)
    assert rep.ok and [row.flow_value for row in rep.rows] == [3, 5, 6]
    assert [h for p, h in calls if p is poset] == [1, 2, 3]


def test_order_complex_cube():
    complex = order_complex(_boolean(3))
    assert len(complex.vertices) == 6
    assert all(len(f) == 2 for f in complex.facets)
    assert len(complex.facets) == 6  # hexagon
    verdict = shellability(complex)
    assert verdict.status == "shellable"
    assert brute_shellable(complex.facets)


def test_order_complex_needs_bounds():
    with pytest.raises(DomainError):
        order_complex(_antichain(3))


def test_order_complex_trivial_interval():
    complex = order_complex(_chain(2))
    assert complex.facets == [] and complex.vertices == []
    assert shellability(complex).status == "shellable"
    # one element is its own bottom and top
    assert order_complex(_chain(1)) == OrderComplex(vertices=[], facets=[])
    assert order_complex(_chain(3), 1, 1) == OrderComplex(vertices=[], facets=[])


@settings(max_examples=300, deadline=None)
@given(_messy_dags())
def test_order_complex_matches_the_interval_route(dag):
    # every comparable pair gives the vertices and facets, in order, of
    # the route through the closed interval as a subposet; an
    # incomparable pair is refused
    n, pairs = dag
    less = brute_closure(n, pairs)
    labels = [f"v{i}" for i in range(n)]
    p = Poset.from_relation(labels, pairs)
    for i in range(n):
        for j in range(n):
            u, v = labels[i], labels[j]
            if i == j or (i, j) in less:
                vertices, facets = reference_order_complex(p, u, v)
                complex = order_complex(p, u, v)
                assert complex.vertices == vertices and complex.facets == facets
                # the interval as a poset of its own, with default bounds
                assert order_complex(p.interval(u, v)) == complex
            else:
                with pytest.raises(DomainError):
                    order_complex(p, u, v)


@settings(max_examples=300, deadline=None)
@given(_messy_dags())
def test_extremes_are_read_off_the_covers(dag):
    n, pairs = dag
    less = brute_closure(n, pairs)
    p = Poset(list(range(n)), brute_covers(less))
    assert p.minimals() == [i for i in range(n)
                            if not any(b == i for _a, b in less)]
    assert p.maximals() == [i for i in range(n)
                            if not any(a == i for a, _b in less)]
    assert p._up is None  # no up-set was built


def test_cover_adjacency_is_built_once():
    p = _random_poset(10, 0.3, 7)
    assert p.up_adj() is p.up_adj()
    assert p.down_adj() is p.down_adj()
    assert p.up_adj() == [[j for i, j in p.covers if i == x] for x in range(p.n)]
    assert p.down_adj() == [[i for i, j in p.covers if j == x] for x in range(p.n)]


def test_cover_adjacency_is_not_changed_by_the_checks(monkeypatch, capsys):
    # every poset the A4 checks build, read through its kept adjacency,
    # still holds the lists its covers give: no caller mutated them
    built = []
    init = Poset.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Poset, "__init__", recording_init)
    code = main(["check", "--type", "A4",
                 "--checks", "graded,sperner,phi,shellability"])
    capsys.readouterr()
    assert code == 0
    read = [p for p in built if p._up_adj is not None or p._down_adj is not None]
    assert read
    for p in read:
        fresh = Poset(p.nodes, p.covers)
        if p._up_adj is not None:
            assert p._up_adj == fresh.up_adj()
        if p._down_adj is not None:
            assert p._down_adj == fresh.down_adj()


@pytest.mark.parametrize("facets,expected", [
    ([{1, 2, 3}, {3, 4, 5}], False),          # two triangles at a vertex
    ([{1, 2}, {3, 4}], False),                # disconnected edges
    ([{1, 2}, {2, 3}], True),                 # path
    ([{1, 2, 3}, {3, 4}], True),              # nonpure: triangle + pendant
    ([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}], True),
    ([{1, 2}, {2, 3}, {1, 3}], True),         # hollow triangle
])
def test_shellability_matches_bruteforce(facets, expected):
    complex_facets = [frozenset(f) for f in facets]
    verdict = shellability(
        type("C", (), {"vertices": sorted(set().union(*facets)),
                       "facets": complex_facets})())
    assert (verdict.status == "shellable") == expected
    assert brute_shellable(complex_facets) == expected
    if verdict.status == "shellable":
        assert is_shelling_order(verdict.order)


def test_shellability_on_random_interval_complexes():
    rng = random.Random(5)
    for trial in range(12):
        verts = list(range(6))
        facets = {frozenset(rng.sample(verts, rng.choice([2, 2, 3])))
                  for _ in range(rng.randrange(2, 6))}
        facets = [f for f in facets
                  if not any(f < g for g in facets)]
        verdict = shellability(
            type("C", (), {"vertices": verts, "facets": facets})())
        assert verdict.status in ("shellable", "not_shellable")
        assert (verdict.status == "shellable") == brute_shellable(facets), facets


def test_shellability_of_a_long_path():
    # 1100 facets: deeper than the interpreter's recursion limit, below
    # facet_cap
    facets = [frozenset((i, i + 1)) for i in range(1100)]
    verdict = shellability(OrderComplex(vertices=list(range(1101)), facets=facets))
    assert verdict.status == "shellable"
    assert is_shelling_order(verdict.order)


def _check_suite_complexes(name):
    """The order complexes whose shellability `coxkit check` reports on
    the named finite group: [e, c] for each Coxeter element c, in the
    intermediate and the k-absolute order of each k."""
    ball = enumerate_ball(named_matrix(name), longest_length(named_matrix(name)))
    table = reflections_in_ball(ball)
    top = (max(ball.length(t) for t in table.reflections) - 1) // 2
    for k in range(top + 1):
        for poset in (intermediate_poset(ball, t_k_set(table, k)),
                      k_absolute_poset(k_absolute_length_all(table, k))):
            for c in ball.coxeter_elements():
                # the check's own path: a c not above e is refused
                try:
                    complex = order_complex(poset, ball.identity, c)
                except DomainError:
                    assert not poset.leq(ball.identity, c)
                    continue
                assert (complex.vertices, complex.facets) == (
                    reference_order_complex(poset, ball.identity, c))
                yield complex


def test_shellability_matches_the_frozenset_search_on_check_suite_intervals():
    count = 0
    for name in ("A3", "B3", "A4", "H3"):
        for complex in _check_suite_complexes(name):
            verdict = shellability(complex)
            assert ((verdict.status, verdict.order)
                    == reference_shellability(complex.facets)), name
            facets = list(dict.fromkeys(complex.facets))
            assert len({len(f) for f in facets}) <= 1  # pure: near by ridges alone
            assert (posets_mod._shelling_tables(facets)
                    == reference_shelling_tables(facets)), name
            count += 1
    assert count == 176


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.frozensets(st.integers(0, 6), min_size=3, max_size=3), max_size=10),
    st.lists(st.frozensets(st.integers(0, 6), max_size=4), max_size=10)))
@example([frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({1, 2, 3})])  # nested, repeated
@example([frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}), frozenset({3, 4, 5})])
@example([frozenset(), frozenset({1})])
def test_shelling_tables_match_the_holds_reference(facets):
    # the same-size part of each row read off the ridges gives the rows
    # and near of the holds alone, on pure and non-pure facet lists
    facets = list(dict.fromkeys(facets))
    assert posets_mod._shelling_tables(facets) == reference_shelling_tables(facets)


_LABELS = st.sampled_from([0, 1, 2, 3, "a", "b", (0, 1), frozenset({5})])


def _facets(*sets):
    return [frozenset(f) for f in sets]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(_LABELS, min_size=0, max_size=4), max_size=8),
       st.integers(min_value=1, max_value=30))
# a facet inside another: W(F) lies in the larger facet
@example(_facets({1, 2, 3}, {1, 2}), 30)
@example(_facets({1, 2}, {1, 2, 3}), 30)
@example(_facets({1, 2, 3}, {2, 3, 4}, {2, 3}), 30)   # walls of both
@example(_facets({1, 2, 3}, {3, 4, 5}, {3}), 30)      # two triangles at a vertex
@example(_facets({1, 2}, {2, 3}, {1, 2, 3, 4}), 30)   # a path in a tetrahedron
@example(_facets({1, 2}, set(), {2, 3}), 30)          # the empty facet
@example(_facets(set(), {1}), 30)
def test_shellability_matches_the_frozenset_search(facets, budget):
    # lists may repeat a facet, hold the empty facet or nest one facet in
    # another; vertex labels need not be integers
    complex = OrderComplex(vertices=list(set().union(*facets)), facets=facets)
    for node_budget in (budget, 500_000):
        verdict = shellability(complex, node_budget=node_budget)
        assert ((verdict.status, verdict.order)
                == reference_shellability(facets, node_budget))
    if len(set(facets)) <= 6:
        assert (verdict.status == "shellable") == brute_shellable(facets)


def test_shellability_budget_runs_out_at_the_same_node():
    # two disjoint paths: not shellable, after a search from every root
    facets = [frozenset((i, i + 1)) for i in (0, 1, 2, 3, 10, 11, 12, 13)]
    complex = OrderComplex(vertices=list(set().union(*facets)), facets=facets)
    statuses = set()
    for budget in range(1, 80):
        verdict = shellability(complex, node_budget=budget)
        assert ((verdict.status, verdict.order)
                == reference_shellability(facets, budget)), budget
        statuses.add(verdict.status)
    assert statuses == {"inconclusive", "not_shellable"}


def _is_connected(edges):
    reached = set(edges[0]) if edges else set()
    grown = True
    while grown:
        grown = False
        for e in edges:
            if e & reached and not e <= reached:
                reached |= e
                grown = True
    return all(e <= reached for e in edges)


def test_a_graph_is_shelled_without_tables_iff_connected(monkeypatch):
    # every graph with at most 6 edges on at most 5 vertices, its edges in
    # two orders: the verdict, the order and the budget at which the
    # search gives up are those of the frozenset search, and a connected
    # graph builds no shelling tables
    tables, build = [], posets_mod._shelling_tables
    monkeypatch.setattr(posets_mod, "_shelling_tables",
                        lambda facets: tables.append(facets) or build(facets))
    edges = [frozenset(e) for e in combinations(range(5), 2)]
    graphs = 0
    for m in range(7):
        for graph in combinations(edges, m):
            connected = _is_connected(graph)
            for facets in (list(graph), list(graph)[::-1]):
                complex = OrderComplex(vertices=sorted(set().union(*facets)),
                                       facets=facets)
                for budget in range(1, m + 2):
                    tables.clear()
                    verdict = shellability(complex, node_budget=budget)
                    assert ((verdict.status, verdict.order)
                            == reference_shellability(facets, budget)), facets
                    if m >= 2:
                        assert bool(tables) != connected
                    if connected:
                        assert verdict.status == (
                            "inconclusive" if m - 1 > budget else "shellable")
                    else:
                        assert verdict.status != "shellable"
            graphs += 1
    assert graphs == sum(len(list(combinations(edges, m))) for m in range(7)) == 848


def test_is_isomorphism_rejects_what_is_no_isomorphism():
    chain = _chain(3)
    assert is_isomorphism(chain, chain, {0: 0, 1: 1, 2: 2})
    # not injective: two elements of an antichain sent to one
    assert not is_isomorphism(_antichain(2), _antichain(2), {0: 0, 1: 0})
    # drops a cover: 1 < 2 goes to two incomparable elements
    vee = Poset.from_relation([0, 1, 2], [(0, 1), (0, 2)])
    assert not is_isomorphism(chain, vee, {0: 0, 1: 1, 2: 2})
    # the image has an extra cover: 0 < 2 is a cover of vee only
    one_cover = Poset.from_relation([0, 1, 2], [(0, 1)])
    assert not is_isomorphism(one_cover, vee, {0: 0, 1: 1, 2: 2})
    # not defined on every element, or onto labels q does not have
    assert not is_isomorphism(chain, chain, {0: 0, 1: 1})
    assert not is_isomorphism(chain, chain, {0: 0, 1: 1, 2: 7})


@pytest.mark.parametrize("name,pairs", [("A3", 73), ("B3", 161), ("H3", 418)])
def test_coset_maps_decide_component_isomorphism_as_the_search(name, pairs):
    # under --ideal all, the graded check tries x -> x m from the
    # identity's component onto the one whose shortest element is m
    ball = enumerate_ball(named_matrix(name), longest_length(named_matrix(name)))
    tpos = t_order_poset(reflections_in_ball(ball))
    verdicts = []
    for ideal in order_ideals(tpos):
        poset = intermediate_poset(ball, {tpos.nodes[i] for i in ideal})
        comps = poset.components()
        base = poset.subposet(comps[0])
        for comp in comps[1:]:
            m = min(comp, key=ball.length)
            sub = poset.subposet(comp)
            verdicts.append((
                is_isomorphism(base, sub, {x: ball.multiply(x, m) for x in comps[0]}),
                poset_isomorphic(base, sub)[0]))
    assert verdicts == [(True, True)] * pairs


def test_poset_isomorphic_relabels():
    p = _random_poset(12, 0.3, seed=7)
    rng = random.Random(1)
    perm = list(range(12))
    rng.shuffle(perm)
    q = Poset.from_relation(
        [f"n{perm[i]}" for i in range(12)],
        [(i, j) for i in range(12) for j in range(12) if i != j and p.leq(i, j)])
    ok, bij = poset_isomorphic(p, q)
    assert ok and is_isomorphism(p, q, bij)
    for i in range(p.n):
        for j in range(p.n):
            assert p.leq(i, j) == q.leq(q.index(bij[p.nodes[i]]),
                                        q.index(bij[p.nodes[j]]))


def test_poset_isomorphic_long_chains():
    # deeper than the interpreter's recursion limit, below size_cap
    ok, bij = poset_isomorphic(_chain(1500), _chain(1500))
    assert ok and all(bij[i] == i for i in range(1500))


def test_poset_not_isomorphic():
    ok, bij = poset_isomorphic(_chain(4), _antichain(4))
    assert not ok and bij is None
    ok, _ = poset_isomorphic(_chain(4), _chain(5))
    assert not ok
    # same degree data, different structure: hexagon vs two triangles
    hexagon = Poset.from_relation(
        list(range(6)), [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])
    triangles = Poset.from_relation(
        list(range(6)), [(0, 3), (0, 4), (1, 3), (1, 4), (2, 5), (2, 5)])
    ok, _ = poset_isomorphic(hexagon, triangles)
    assert not ok


def test_nc_lattice_catalan():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, c in catalan.items():
        nc = nc_lattice(n)
        assert len(nc.elements) == c
        assert nc.poset.n == c
    with pytest.raises(DomainError):
        nc_lattice(0)
    with pytest.raises(DomainError):
        nc_lattice(11)


def test_nc_lattice_structure():
    nc = nc_lattice(4)
    p = nc.poset
    assert check_graded(p, lambda x: 4 - len(x)).ok
    assert is_graded(p)
    assert is_meet_semilattice(p)
    assert len(p.minimals()) == 1 and len(p.maximals()) == 1


def test_is_meet_semilattice():
    assert is_meet_semilattice(_boolean(3))
    assert is_meet_semilattice(_chain(5))
    assert not is_meet_semilattice(_antichain(2))
    bowtie = Poset.from_relation(
        [0, 1, 2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_meet_semilattice(bowtie)
    # a bottom under the bowtie: 2 and 3 have two maximal lower bounds
    bowtie = Poset.from_relation(
        [0, 1, 2, 3, 4], [(4, 0), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_meet_semilattice(bowtie)
    assert is_meet_semilattice(_antichain(1)) and is_meet_semilattice(_antichain(0))


@st.composite
def _orders_with_or_without_bottom(draw):
    """A random order on shuffled ids, given as generating pairs, with a
    bottom under every other node or not: (n, pairs)."""
    n = draw(st.integers(0, 10))
    rank = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(n)
             if rank[i] < rank[j] and draw(st.integers(0, 2)) == 0]
    if n and draw(st.booleans()):
        bottom = rank.index(0)
        pairs += [(bottom, j) for j in range(n) if j != bottom]
    return n, pairs


@settings(max_examples=500, deadline=None)
@given(_orders_with_or_without_bottom())
def test_meet_semilattice_matches_every_pair(order):
    # the cover-pair test against the meet of every pair
    n, pairs = order
    p = Poset.from_relation(list(range(n)), pairs)
    assert is_meet_semilattice(p) == brute_is_meet_semilattice(p)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "B4", "D4"])
def test_meet_semilattice_on_k_absolute_orders(name):
    matrix = named_matrix(name)
    table = reflections_in_ball(enumerate_ball(matrix, longest_length(matrix)))
    top = max(table.ball.length(t) for t in table.reflections)
    for k in range((top - 1) // 2 + 1):
        poset = k_absolute_poset(k_absolute_length_all(table, k))
        assert is_meet_semilattice(poset) == brute_is_meet_semilattice(poset), k
