from __future__ import annotations

import dataclasses
import random
import sys
from functools import cached_property

import pytest

from coxkit import (IncompleteSliceError, OutOfBallError, checks, enumerate_ball,
                    named_matrix, orders, parse_coxeter_matrix)
from coxkit.ball import BOUNDARY, GroupBall
from coxkit.matrices import longest_length
from coxkit.orders import (ArcTable, _pairs_by_definition, arc_table, bruhat_poset,
                           intermediate_poset, k_absolute_length_all,
                           k_absolute_poset, omega_graph,
                           refinement_chain_check)
from coxkit.posets import check_graded
from coxkit.projections import phi_k_image_poset, projection_map
from coxkit.reflections import max_k, reflections_in_ball, t_k_set, t_order_poset
from coxkit.serialize import ball_from_json_dict, ball_to_json_dict

from models import longest_first
from oracles import (brute_closure, brute_covers, brute_k_absolute_covers,
                     brute_k_absolute_pairs, brute_omega_graph, perm_of_word,
                     reference_arc_row, refinement_by_relation_pairs,
                     t_k_word_metric)


def _complete(name):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    return ball, reflections_in_ball(ball)


def _brute_force_covers(poset):
    less = {(poset.index(a), poset.index(b)) for a, b in poset.relation_pairs()}
    return sorted(brute_covers(less))


def _cycles(perm):
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return count


def test_omega_graph_arcs(ball_b3, table_b3):
    g = omega_graph(ball_b3, t_k_set(table_b3, 1))
    assert g.boundary_skips == 0  # complete group: nothing leaves the ball
    for a, b, t in g.arcs:
        assert ball_b3.multiply(t, a) == b
        assert ball_b3.length(b) > ball_b3.length(a)


def test_omega_graph_truncated_skips():
    ball = enumerate_ball(named_matrix("B3"), 4)
    table = reflections_in_ball(ball)
    g = omega_graph(ball, t_k_set(table, 0))
    assert g.boundary_skips > 0


def _ball_case(spec, radius, renumber=False, name=None):
    tag = f"{name or spec}-{radius}" + ("-longest-first" if renumber else "")
    return pytest.param(spec, radius, renumber, id=tag)


def _ball(spec, radius, renumber):
    matrix = parse_coxeter_matrix(spec)
    ball = enumerate_ball(matrix, longest_length(matrix) if radius is None
                          else radius)
    return longest_first(ball) if renumber else ball


@pytest.mark.parametrize("spec,radius,renumber", [
    _ball_case("A3", None), _ball_case("B3", None),
    # truncated balls, where products leave the table
    _ball_case("B3", 4), _ball_case("affC2", 12),
    _ball_case("1 3 inf; 3 1 3; inf 3 1", 10, name="hyperbolic"),
    # ids out of length order, as a ball read from JSON may have them
    _ball_case("B3", 9, True), _ball_case("A3", None, True),
    _ball_case("B3", 4, True), _ball_case("affC2", 12, True),
    _ball_case("1 3 inf; 3 1 3; inf 3 1", 10, True, name="hyperbolic")])
def test_omega_graph_matches_multiply_on_every_pair(spec, radius, renumber):
    # the rows t*a are table lookups; the reference multiplies each pair.
    # The rows are the graph's only stored form: rows[t][a] = t*a where
    # the product stays in the ball, BOUNDARY where it leaves; the arcs
    # read off them are the arcs of the definition
    ball = _ball(spec, radius, renumber)
    table = reflections_in_ball(ball)

    def product(t, a):
        try:
            return ball.multiply(t, a)
        except OutOfBallError:
            return BOUNDARY

    for x_set in (t_k_set(table, 0), t_k_set(table, 1), table.reflections):
        g = omega_graph(ball, x_set)
        assert list(g.rows) == sorted(x_set)
        for t, row in g.rows.items():
            assert row == [product(t, a) for a in range(len(ball))], t
        arcs, skips = brute_omega_graph(ball, x_set)
        assert g.arcs == arcs
        assert g.boundary_skips == skips
        assert (skips > 0) == (not ball.is_complete_group)


@pytest.mark.parametrize("spec,radius", [
    ("B3", 4), ("affC2", 12),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 10, id="hyperbolic-10")])
def test_omega_graph_follows_rows_past_the_radius(spec, radius, monkeypatch):
    # rows beyond the radius are one `_times` step each: no product is
    # multiplied or walked, and the graph is still the one of the pairs,
    # also for a set with elements of even length
    ball = _ball(spec, radius, False)
    table = reflections_in_ball(ball)
    some = random.Random(radius).sample(range(len(ball)), min(40, len(ball)))
    slices = (t_k_set(table, 0), t_k_set(table, 1), table.reflections, some)
    expected = [brute_omega_graph(ball, x_set) for x_set in slices]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(GroupBall, "multiply", counted(GroupBall.multiply))
    monkeypatch.setattr(GroupBall, "_walk", counted(GroupBall._walk))
    graphs = [omega_graph(ball, x_set) for x_set in slices]
    assert calls == []
    assert [(g.arcs, g.boundary_skips) for g in graphs] == expected


@pytest.mark.parametrize("form", ["enumerated", "json", "longest-first"])
@pytest.mark.parametrize("spec,radius", [
    ("B3", None), ("H3", None), ("B4", None), ("affC2", 12),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 10, id="hyperbolic-10"),
    ("affA3", 8)])
def test_generator_rows_are_columns_of_the_left_table(spec, radius, form):
    # the row of a generator s is s*a = left[a][s], with a skip for each
    # BOUNDARY entry: what the step build gives, with no step taken, also
    # on a ball read back from JSON in any numbering
    ball = _ball(spec, radius, form == "longest-first")
    if form == "json":
        ball = ball_from_json_dict(ball_to_json_dict(ball))
    table = ArcTable(ball)
    for g in ball.right[ball.identity]:
        row = table.row(g)
        assert (row, table.skips[g]) == reference_arc_row(ball, g)
    assert "_steps" not in vars(table)


@pytest.mark.parametrize("spec,radius", [
    ("B3", None), ("affC2", 12),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 10, id="hyperbolic-10")])
def test_a_k0_intermediate_poset_takes_no_step(spec, radius, monkeypatch):
    # T_0 is the generators, whose rows are left-table columns: the step
    # list is never built, and `_times` never runs; k = 1 builds it once
    ball = _ball(spec, radius, False)
    table = reflections_in_ball(ball)
    built, steps = [], ArcTable._steps.func
    counted = cached_property(lambda arcs: built.append(arcs) or steps(arcs))
    counted.__set_name__(ArcTable, "_steps")
    monkeypatch.setattr(ArcTable, "_steps", counted)
    times = []
    monkeypatch.setattr(GroupBall, "_times", lambda self, x, s: times.append(x))
    intermediate_poset(ball, t_k_set(table, 0))
    assert built == times == []
    monkeypatch.undo()
    monkeypatch.setattr(ArcTable, "_steps", counted)
    intermediate_poset(ball, t_k_set(table, 1))
    assert built == [arc_table(ball)]


def test_every_reader_of_a_ball_shares_its_rows(monkeypatch):
    # the arc graph, the intermediate orders, the k-absolute lengths and
    # orders and the refinement chain all read the ball's one table:
    # each reflection's row is built once, and the k-absolute order
    # multiplies nothing
    ball, table = _complete("B3")
    built, multiplied = [], []
    build, multiply = ArcTable._build, GroupBall.multiply
    monkeypatch.setattr(ArcTable, "_build",
                        lambda arcs, t: built.append(t) or build(arcs, t))
    monkeypatch.setattr(GroupBall, "multiply",
                        lambda *a: multiplied.append(a) or multiply(*a))
    k_max = max_k(table)
    omega_graph(ball, t_k_set(table, 1))
    for k in range(k_max + 1):
        intermediate_poset(ball, t_k_set(table, k))
    for k in range(k_max + 1):
        alt = k_absolute_length_all(table, k)
        before = len(multiplied)
        k_absolute_poset(alt)
        assert len(multiplied) == before
    assert refinement_chain_check(table, k_max).ok
    assert sorted(built) == sorted(table.reflections)


def _locals_on_return(func, call):
    """The locals of each call of `func` as it returns, over `call()`."""
    seen = []

    def profile(frame, event, _arg):
        if event == "return" and frame.f_code is func.__code__:
            seen.append(dict(frame.f_locals))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def test_readers_share_the_balls_lengths_and_levels():
    # the arc table, the orders, the projection tables, the pairs of the
    # k-absolute order and the check run hold the ball's own lists, not
    # copies; the arc table keeps none of its own
    ball = enumerate_ball(named_matrix("affC2"), 7)
    table = reflections_in_ball(ball)
    x_set = t_k_set(table, 1)
    for func, name, shared, call in [
            (ArcTable.rises, "length", ball.lengths,
             lambda: intermediate_poset(ball, x_set)),
            (intermediate_poset, "rank", ball.lengths,
             lambda: intermediate_poset(ball, x_set)),
            (orders._unit_covers, "levels", ball.levels,
             lambda: intermediate_poset(ball, x_set)),
            (bruhat_poset, "rank", ball.lengths, lambda: bruhat_poset(ball)),
            (projection_map, "length", ball.lengths,
             lambda: projection_map(ball, [0, 2], "Q")),
            (k_absolute_length_all, "length", ball.lengths,
             lambda: k_absolute_length_all(table, 1)),
            (_pairs_by_definition, "length", ball.lengths,
             lambda: k_absolute_poset(k_absolute_length_all(table, 0)))]:
        frames = _locals_on_return(func, call)
        assert frames and all(f[name] is shared for f in frames), func.__name__
    assert not hasattr(ArcTable, "length") and not hasattr(ArcTable, "levels")
    assert checks._Group(ball).length is ball.lengths


def test_k0_is_left_weak_order(ball_a3, table_a3):
    # reachability along length-increasing left multiplication by
    # generators is exactly l(v) = l(u) + l(v u^-1)
    poset = intermediate_poset(ball_a3, t_k_set(table_a3, 0))
    ball = ball_a3
    for u in range(len(ball)):
        iu = ball.inverse(u)
        for v in range(len(ball)):
            expected = (ball.length(v)
                        == ball.length(u) + ball.length(ball.multiply(v, iu)))
            assert poset.leq(poset.index(u), poset.index(v)) == expected


def test_full_slice_gives_bruhat_s4(ball_a3, table_a3):
    poset = intermediate_poset(ball_a3, t_k_set(table_a3, 2))
    ball = ball_a3
    for u in range(len(ball)):
        for v in range(len(ball)):
            assert poset.leq(poset.index(u), poset.index(v)) == ball.bruhat_leq(u, v)


def test_l0_is_coxeter_length(ball_a3, table_a3, ball_b3, table_b3):
    for ball, table in ((ball_a3, table_a3), (ball_b3, table_b3)):
        lk = k_absolute_length_all(table, 0).lk
        assert lk == [ball.length(w) for w in range(len(ball))]


def test_lmax_is_absolute_length_s4(ball_a3, table_a3):
    # with the full reflection set, the graph distance from the identity
    # counts n minus the number of cycles of the permutation
    lk = k_absolute_length_all(table_a3, 2).lk
    for w in range(len(ball_a3)):
        perm = perm_of_word(ball_a3.word(w), 4)
        assert lk[w] == 4 - _cycles(perm)


def test_lk_monotone_in_k(ball_b3, table_b3):
    tables = [k_absolute_length_all(table_b3, k) for k in range(5)]
    for a, b in zip(tables, tables[1:]):
        assert all(x >= y for x, y in zip(a.lk, b.lk))


def test_witness_paths(ball_a3, table_a3):
    t = k_absolute_length_all(table_a3, 1)
    ball = ball_a3
    for v in range(len(ball)):
        steps = 0
        x = v
        while x != ball.identity:
            p, r = t.witness_pred[x], t.witness_arc[x]
            assert ball.multiply(r, p) == x
            assert ball.length(x) > ball.length(p)
            x = p
            steps += 1
        assert steps == t.lk[v]


def test_k_absolute_poset_basics(ball_a3, table_a3):
    t = k_absolute_length_all(table_a3, 1)
    poset = k_absolute_poset(t)
    assert poset.metadata["flagged_pairs"] == 0
    e = poset.index(ball_a3.identity)
    for i in range(poset.n):
        assert poset.leq(e, i)
        assert poset.leq(i, i)
        if poset.lt(e, i):
            assert t.lk[poset.nodes[i]] > 0


def test_k1_maximal_elements_s4(ball_a3, table_a3):
    t = k_absolute_length_all(table_a3, 1)
    poset = k_absolute_poset(t)
    maximal = [i for i in range(poset.n)
               if not any(poset.lt(i, j) for j in range(poset.n))]
    got = {tuple(ball_a3.word(poset.nodes[i])): t.lk[poset.nodes[i]]
           for i in maximal}
    assert got == {(0, 2, 1): 3, (1, 0, 2): 3, (0, 1, 0, 2, 1, 0): 4}


def test_refinement_chain_s4(table_a3):
    report = refinement_chain_check(table_a3, 2)
    assert report.ok
    assert report.equals_bruhat_at == 2
    assert all(holds for _a, _b, holds in report.containments)


def test_refinement_chain_b3(table_b3):
    report = refinement_chain_check(table_b3, 4)
    assert report.ok
    assert report.equals_bruhat_at is not None


@pytest.mark.parametrize("name,radius", [("A3", None), ("B3", None), ("H3", None),
                                         ("A4", None), ("B3", 4), ("I2(inf)", 6)])
def test_refinement_chain_matches_relation_pairs(name, radius):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix) if radius is None
                          else radius)
    table = reflections_in_ball(ball)
    slices = [intermediate_poset(ball, t_k_set(table, k))
              for k in range((min(ball.radius, max(
                  ball.length(t) for t in table.reflections)) - 1) // 2 + 1)]
    bruhat = bruhat_poset(ball)
    for k_max in range(len(slices)):
        want = refinement_by_relation_pairs(slices[:k_max + 1], bruhat)
        for rep in (refinement_chain_check(table, k_max),
                    refinement_chain_check(table, k_max, bruhat)):
            assert (rep.ok, rep.containments, rep.equals_bruhat_at) == want
    # the weak order (slice 0) standing in for Bruhat order: the last
    # slice's arcs that are no weak covers are found
    k_top = len(slices) - 1
    rep = refinement_chain_check(table, k_top, slices[0])
    assert slices[0].covers != slices[-1].covers
    assert rep.containments[-1] == (k_top, "bruhat", False)
    assert not rep.ok and rep.equals_bruhat_at is None


def test_incomplete_slice_raises():
    ball = enumerate_ball(named_matrix("I2(inf)"), 5)
    table = reflections_in_ball(ball)
    with pytest.raises(IncompleteSliceError):
        k_absolute_length_all(table, 3)


def test_flagged_pairs_on_truncated_ball():
    # the pairs u != v with l(u) + l(v) > radius, counted by length
    ball = enumerate_ball(named_matrix("B3"), 4)
    table = reflections_in_ball(ball)
    poset = k_absolute_poset(k_absolute_length_all(table, 0))
    sizes = ball.rank_sizes()
    flagged = sum(a * (b - (i == j))
                  for i, a in enumerate(sizes) for j, b in enumerate(sizes)
                  if i + j > ball.radius)
    assert flagged == 408
    assert poset.metadata["flagged_pairs"] == flagged


def _truncated_case(spec, radius, renumber, k, name=None):
    tag = (f"{name or spec}-{radius}" + ("-longest-first" if renumber else "")
           + f"-k{k}")
    return pytest.param(spec, radius, renumber, k, id=tag)


@pytest.mark.parametrize("spec,radius,renumber,k", [
    _truncated_case(spec, radius, renumber, k, name)
    for spec, radius, name in [
        ("B3", 4, None), ("H3", 7, None), ("affA3", 8, None),
        ("affC2", 12, None), ("affG2", 12, None), ("I2(inf)", 30, None),
        ("1 3 inf; 3 1 3; inf 3 1", 8, "hyperbolic")]
    for renumber in (False, True) for k in (0, 1)])
def test_k_absolute_pairs_on_truncated_balls_match_definition(
        spec, radius, renumber, k):
    # only the certifiable pairs are visited, one table lookup per
    # product; the reference walks every pair with `multiply`
    ball = enumerate_ball(parse_coxeter_matrix(spec), radius)
    if renumber:
        ball = longest_first(ball)
    alt = k_absolute_length_all(reflections_in_ball(ball), k)
    pairs, flagged = _pairs_by_definition(ball, alt.lk)
    want, want_flagged = brute_k_absolute_pairs(ball, alt.lk)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(want)
    assert flagged == want_flagged > 0
    assert k_absolute_poset(alt).metadata["flagged_pairs"] == flagged


@pytest.mark.parametrize("name,ks", [
    ("A3", None), ("B3", None), ("H3", None), ("A4", None), ("B4", None),
    ("D4", None), ("I2(7)", None), ("A5", (0, 1))])
def test_k_absolute_poset_matches_definition(name, ks):
    # lk is the word metric of T_k, and the unit steps give the covers of
    # the order tested pair by pair (ks None: every k up to the full set)
    ball, table = _complete(name)
    k_max = max_k(table)
    n = len(ball)
    for k in ks or range(k_max + 1):
        tk = t_k_set(table, k)
        alt = k_absolute_length_all(table, k)
        assert alt.lk == t_k_word_metric(ball, tk)
        poset = k_absolute_poset(alt)
        assert poset.nodes == list(range(n))
        assert set(poset.covers) == brute_k_absolute_covers(ball, tk)
        assert poset.rank == alt.lk
        assert poset.metadata == {"kind": "k-absolute-order", "k": k,
                                  "flagged_pairs": 0}


def test_k_absolute_poset_without_a_word_metric(ball_a3, table_a3):
    # an lk that is not a word metric gets the order tested pair by pair
    ball = ball_a3
    n = len(ball)
    alt = k_absolute_length_all(table_a3, 1)
    lk = list(alt.lk)
    lk[max(range(n), key=ball.length)] += 1
    poset = k_absolute_poset(dataclasses.replace(alt, lk=lk))
    less, _flagged = brute_k_absolute_pairs(ball, lk)
    expected = brute_covers(brute_closure(n, less))
    assert set(poset.covers) == expected
    assert expected != set(k_absolute_poset(alt).covers)
    assert poset.rank == lk
    assert poset.metadata["flagged_pairs"] == 0


@pytest.mark.parametrize("spec,radius", [("A3", 6), ("B3", 4), ("affC2", 7)])
def test_pairs_by_definition_for_any_lk(spec, radius):
    # the pair test is the definition for any function lk, the pairs
    # (u, e) included: here lk(e) = lk(u) + lk(u^-1) for many u
    ball = enumerate_ball(named_matrix(spec), radius)
    lk = [w % 3 for w in range(len(ball))]
    pairs, flagged = _pairs_by_definition(ball, lk)
    want, want_flagged = brute_k_absolute_pairs(ball, lk)
    assert pairs == want
    assert any(v == ball.identity for _u, v in want)
    assert flagged == want_flagged


def test_interval_poset(ball_a3, table_a3):
    poset = intermediate_poset(ball_a3, t_k_set(table_a3, 2))
    w0 = max(range(len(ball_a3)), key=ball_a3.length)
    whole = poset.interval(ball_a3.identity, w0)
    assert whole.n == poset.n
    s = ball_a3.id_of_word((0,))
    st = ball_a3.id_of_word((0, 1))
    small = poset.interval(s, st)
    assert sorted(small.nodes) == sorted([s, st])


@pytest.mark.parametrize("name", ["A4", "B4", "H3"])
def test_poset_covers_match_brute_force(name):
    ball, table = _complete(name)
    k_max = max_k(table)
    posets = [t_order_poset(table), k_absolute_poset(k_absolute_length_all(table, 1))]
    for k in range(k_max + 1):
        inter = intermediate_poset(ball, t_k_set(table, k))
        posets += [inter, phi_k_image_poset(ball, inter)]
    for poset in posets:
        assert poset.covers == _brute_force_covers(poset)


@pytest.mark.parametrize("spec,radius,renumber", [
    _ball_case("A3", None), _ball_case("B3", None), _ball_case("H3", None),
    _ball_case("I2(inf)", 2), _ball_case("B3", 4),
    # truncated balls with 5-bonds, an affine and a hyperbolic type
    _ball_case("H3", 7), _ball_case("I2(5)", 4), _ball_case("affC2", 7),
    _ball_case("1 3 inf; 3 1 3; inf 3 1", 6, name="hyperbolic"),
    # ids out of length order, as a ball read from JSON may have them
    _ball_case("B3", 9, True), _ball_case("B3", 4, True)])
def test_bruhat_poset_matches_bruhat_leq(spec, radius, renumber):
    ball = _ball(spec, radius, renumber)
    poset = bruhat_poset(ball)
    n = len(ball)
    less = {(u, v) for u in range(n) for v in range(n)
            if u != v and ball.bruhat_leq(u, v)}
    assert poset.nodes == list(range(n))
    assert set(poset.relation_pairs()) == less
    assert poset.covers == sorted(brute_covers(less))
    assert poset.rank == [ball.length(w) for w in range(n)]
    assert poset.metadata == {"kind": "bruhat"}


@pytest.mark.parametrize("spec,radius,renumber", [
    _ball_case("B3", 4), _ball_case("affC2", 7),
    _ball_case("1 3 inf; 3 1 3; inf 3 1", 6, name="hyperbolic"),
    _ball_case("B3", 9, True)])
def test_weak_order_covers_are_its_arcs(spec, radius, renumber):
    # at k = 0 every arc raises length by 1, so the arcs are taken as
    # the covers with no closure; the reference closes and reduces them
    ball = _ball(spec, radius, renumber)
    x_set = t_k_set(reflections_in_ball(ball), 0)
    poset = intermediate_poset(ball, x_set)
    n = len(ball)
    less = brute_closure(n, [(a, b) for a, b, _t in omega_graph(ball, x_set).arcs])
    assert poset.covers == sorted(brute_covers(less))
    assert set(poset.relation_pairs()) == less
    assert poset.rank == [ball.length(w) for w in range(n)]


def _complete_slices(table):
    """t_k_set(table, k) for k = 0, 1, ... up to the first incomplete one."""
    slices = []
    for k in range(max_k(table) + 1):
        try:
            slices.append(t_k_set(table, k))
        except IncompleteSliceError:
            break
    return slices


@pytest.mark.parametrize("spec,radius,renumber", [
    _ball_case("A3", None), _ball_case("B3", None), _ball_case("H3", None),
    _ball_case("A4", None), _ball_case("B4", None),
    _ball_case("B3", 4), _ball_case("affC2", 7),
    # ids out of length order, as a ball read from JSON may have them
    _ball_case("B3", 9, True), _ball_case("affC2", 7, True)])
def test_the_sweep_gives_the_closure_of_every_slice(spec, radius, renumber):
    # every long arc lies in the closure of the unit arcs, so the unit
    # arcs are the covers, and the poset keeps no up-sets until one is
    # read; both agree with the closure of every arc
    ball = _ball(spec, radius, renumber)
    n = len(ball)
    slices = _complete_slices(reflections_in_ball(ball))
    assert len(slices) > 1
    for x_set in slices:
        g = omega_graph(ball, x_set)
        poset = intermediate_poset(ball, x_set)
        assert poset._up is None
        less = brute_closure(n, [(a, b) for a, b, _t in g.arcs])
        assert poset.covers == sorted(brute_covers(less))
        assert poset.up == [(1 << i) | sum(1 << j for j in range(n) if (i, j) in less)
                            for i in range(n)]
        assert poset.rank == [ball.length(w) for w in range(n)]


def with_extra_arc(build, t, a, b):
    """`ArcTable._build` with the entry a of row t set to b."""
    def patched(table, u):
        row, skips = build(table, u)
        if u == t:
            row = row[:a] + [b] + row[a + 1:]
        return row, skips
    return patched


def test_a_long_arc_outside_the_unit_closure_closes_every_arc(monkeypatch):
    # s0 -> s1 s2 s1 rises by 2 and lies outside the closure of the unit
    # arcs: the certificate fails, and the order is closed from every arc.
    # The ball is built here, since it keeps the patched row
    ball, table = _complete("A3")
    s0, b = ball.id_of_word([0]), ball.id_of_word([1, 2, 1])
    assert not ball.bruhat_leq(s0, b)
    monkeypatch.setattr(ArcTable, "_build", with_extra_arc(ArcTable._build, s0, s0, b))
    for k in range(max_k(table) + 1):
        g = omega_graph(ball, t_k_set(table, k))
        assert g.rows[s0][s0] == b  # was s0 s0 = e: no arc
        poset = intermediate_poset(ball, g.x_set)
        assert poset._up is not None  # closed by Poset.from_relation
        less = brute_closure(len(ball), [(a, c) for a, c, _t in g.arcs])
        assert (s0, b) in poset.covers
        assert poset.covers == sorted(brute_covers(less))


def test_unit_steps_read_the_rows(monkeypatch):
    # the k-absolute order of a complete group multiplies nothing: its
    # unit steps read t u off the ball's rows, and they are the covers
    # of the definition
    ball, table = _complete("A4")
    for k in range(max_k(table) + 1):
        alt = k_absolute_length_all(table, k)
        calls = []
        monkeypatch.setattr(GroupBall, "multiply",
                            lambda *a: calls.append(a) or ball.right[0][0])
        poset = k_absolute_poset(alt)
        assert calls == []
        monkeypatch.undo()
        assert set(poset.covers) == brute_k_absolute_covers(ball, t_k_set(table, k))


@pytest.mark.parametrize("name,k,covers", [
    ("B5", 0, 9600), ("B5", 1, 15360), ("F4", 0, 2304), ("F4", 1, 3648),
    ("H4", 0, 28800)])
def test_intermediate_orders_graded_by_length(name, k, covers):
    # the intermediate orders are graded by Coxeter length; for k = 0
    # (left weak order) each element has one cover per generator, up or
    # down, so there are n * rank / 2 covers
    ball, table = _complete(name)
    poset = intermediate_poset(ball, t_k_set(table, k))
    assert check_graded(poset, ball.length).ok
    assert len(poset.covers) == covers
    if k == 0:
        assert covers == len(ball) * ball.matrix.rank // 2
