from __future__ import annotations

import random
from itertools import chain, combinations

import pytest

from coxkit import DomainError, ResourceError, enumerate_ball, named_matrix
from coxkit.matrices import longest_length
from coxkit.orders import intermediate_poset
from coxkit.posets import is_isomorphism, poset_isomorphic
from coxkit.projections import (SelfMapTable, is_order_preserving,
                                parabolic_decompose, phi_k_image_poset,
                                project_PJ, project_QJ, projection_map,
                                projection_monoid)
from coxkit.reflections import reflections_in_ball, t_k_set

from models import longest_first
from oracles import brute_covers


def _subsets(gens):
    gens = sorted(gens)
    return chain.from_iterable(combinations(gens, r) for r in range(len(gens) + 1))


def _bruhat_poset(ball, table):
    k = (max(ball.length(t) for t in table.reflections) - 1) // 2
    return intermediate_poset(ball, t_k_set(table, k))


def _in_parabolic(ball, w, J):
    return set(ball.word(w)) <= set(J)


def test_decomposition_laws(ball_a3, ball_b3):
    for ball in (ball_a3, ball_b3):
        for J in _subsets(ball.matrix.generators):
            for w in range(len(ball)):
                d = parabolic_decompose(ball, w, J, "right")
                assert ball.multiply(d.coset_rep, d.parabolic_part) == w
                assert (ball.length(d.coset_rep) + ball.length(d.parabolic_part)
                        == ball.length(w))
                assert _in_parabolic(ball, d.parabolic_part, J)
                assert not (ball.right_descents(d.coset_rep) & set(J))

                d = parabolic_decompose(ball, w, J, "left")
                assert ball.multiply(d.parabolic_part, d.coset_rep) == w
                assert (ball.length(d.coset_rep) + ball.length(d.parabolic_part)
                        == ball.length(w))
                assert _in_parabolic(ball, d.parabolic_part, J)
                assert not (ball.left_descents(d.coset_rep) & set(J))


def test_projection_is_coset_minimum(ball_a3):
    ball = ball_a3
    for J in _subsets(ball.matrix.generators):
        wj = [u for u in range(len(ball)) if _in_parabolic(ball, u, J)]
        for w in range(len(ball)):
            p = project_PJ(ball, w, J)
            assert project_PJ(ball, p, J) == p
            assert all(ball.length(p) <= ball.length(ball.multiply(w, u))
                       for u in wj)
            q = project_QJ(ball, w, J)
            assert all(ball.length(q) <= ball.length(ball.multiply(u, w))
                       for u in wj)


def test_pj_preserves_bruhat(ball_a3, table_a3, ball_b3, table_b3):
    for ball, table in ((ball_a3, table_a3), (ball_b3, table_b3)):
        poset = _bruhat_poset(ball, table)
        for J in _subsets(ball.matrix.generators):
            report = is_order_preserving(projection_map(ball, J, "P"), poset)
            assert report.ok, (J, report.violations)


@pytest.mark.parametrize("k", [0, 1, 4])
def test_order_preservation_tests_every_cover(ball_b3, table_b3, k):
    # random self-maps that fix about half the elements and identify
    # some: the covers skipped as fixed or identified are never violations
    poset = intermediate_poset(ball_b3, t_k_set(table_b3, k))
    rng = random.Random(k)
    n = len(ball_b3)
    for _ in range(50):
        images = [w if rng.random() < 0.5 else rng.randrange(n) for w in range(n)]
        report = is_order_preserving(SelfMapTable("f", tuple(images)), poset)
        expected = [(u, v) for u, v in poset.covers
                    if not poset.leq(images[u], images[v])]
        assert report.violations == expected and report.ok == (not expected)


def test_qj_breaks_weak_order_in_a2(ball_a2, table_a2):
    # Q^J need not preserve the weak order: with J = {1},
    # ts -> s and sts -> st, but s is not weakly below st
    ball = ball_a2
    poset = intermediate_poset(ball, t_k_set(table_a2, 0))
    report = is_order_preserving(projection_map(ball, [1], "Q"), poset)
    assert not report.ok
    words = {(tuple(ball.word(u)), tuple(ball.word(v)))
             for u, v in report.violations}
    assert ((1, 0), (0, 1, 0)) in words
    report = is_order_preserving(projection_map(ball, [0], "Q"), poset)
    assert not report.ok
    words = {(tuple(ball.word(u)), tuple(ball.word(v)))
             for u, v in report.violations}
    assert ((0, 1), (0, 1, 0)) in words


def test_phi_image_isomorphic_to_bruhat(ball_a2, table_a2, ball_a3, table_a3):
    ball_a4 = enumerate_ball(named_matrix("A4"), 10)
    for ball, table in ((ball_a2, table_a2), (ball_a3, table_a3),
                        (ball_a4, reflections_in_ball(ball_a4))):
        bruhat = _bruhat_poset(ball, table)
        image = phi_k_image_poset(ball, bruhat)
        ok, bijection = poset_isomorphic(image, bruhat)
        assert ok
        assert len(bijection) == len(ball)
        assert is_isomorphism(image, bruhat, bijection)
        # phi itself, the candidate the check suite tries before searching
        gens = ball.matrix.generators
        maps = [projection_map(ball, [s for s in gens if s != i], "P")
                for i in gens]
        phi = {w: tuple(m(w) for m in maps) for w in range(len(ball))}
        assert is_isomorphism(bruhat, image, phi)


def test_projection_monoid_a2(ball_a2, table_a2):
    ball = ball_a2
    gens = [projection_map(ball, [s], "P") for s in ball.matrix.generators]
    report = projection_monoid(ball, gens)
    assert report.size == 6
    assert report.idempotent
    assert report.braid_ok
    bruhat = _bruhat_poset(ball, table_a2)
    assert all(is_order_preserving(g, bruhat).ok for g in gens)


def test_projection_monoid_a3(ball_a3, table_a3):
    ball = ball_a3
    gens = [projection_map(ball, [s], "P") for s in ball.matrix.generators]
    report = projection_monoid(ball, gens)
    assert report.idempotent and report.braid_ok
    # 0-Hecke monoid of S4: one idempotent-generated map per element
    assert report.size == 24


def test_braid_ok_needs_a_single_projection_for_every_generator(ball_a3):
    # maps that are not single projections are not attributed to any s,
    # and an s without its P^{s} leaves its braid relations unchecked
    ball = ball_a3
    P = lambda J: projection_map(ball, J, "P")
    report = projection_monoid(ball, [P([0, 1]), P([2])])
    assert (report.size, report.idempotent, report.braid_ok) == (7, True, False)
    report = projection_monoid(ball, [P([0]), P([0]).compose(P([2])), P([2])])
    assert (report.size, report.idempotent, report.braid_ok) == (4, True, False)
    report = projection_monoid(ball, [P([0]), P([1]), P([2]), P([0, 1])])
    assert (report.size, report.idempotent, report.braid_ok) == (24, True, True)


def _closure_size(gens):
    """Every composite of the maps, by brute force."""
    n = len(gens[0].images)
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        frontier = [h for h in {tuple(g.images[x] for x in f)
                                for f in frontier for g in gens} if h not in seen]
        seen.update(frontier)
    return len(seen)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "B4", "F4"])
def test_monoid_size_certificate_matches_the_closure(name):
    # one P^{s} per s: the size is read off the orbit of w0, past any
    # cap; with one map twice the certificate does not apply, and the
    # closure runs under its cap
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    gens = [projection_map(ball, [s], "P") for s in matrix.generators]
    report = projection_monoid(ball, gens, cap=1)
    assert (report.size, report.idempotent, report.braid_ok) == (len(ball), True, True)
    assert projection_monoid(ball, gens + gens[:1]).size == len(ball)
    with pytest.raises(ResourceError):
        projection_monoid(ball, gens + gens[:1], cap=len(ball) - 1)
    if len(ball) <= 384:
        assert _closure_size(gens) == len(ball)


def test_mutated_generator_takes_the_closure(ball_b3):
    # P^{0} with one moved element fixed instead is still idempotent but
    # no single projection: braid_ok is false and the closure decides
    ball = ball_b3
    gens = [projection_map(ball, [s], "P") for s in ball.matrix.generators]
    images = list(gens[0].images)
    w = next(w for w in range(len(ball)) if images[w] != w)
    images[w] = w
    gens[0] = SelfMapTable("mutated", tuple(images))
    report = projection_monoid(ball, gens)
    assert report.idempotent and not report.braid_ok
    assert report.size == _closure_size(gens) != len(ball)
    with pytest.raises(ResourceError):
        projection_monoid(ball, gens, cap=len(ball) - 1)


def test_errors(ball_a2):
    with pytest.raises(DomainError):
        projection_map(ball_a2, [0], "X")
    with pytest.raises(DomainError):
        parabolic_decompose(ball_a2, 0, [5])
    with pytest.raises(DomainError):
        parabolic_decompose(ball_a2, 0, [0], side="up")
    truncated = enumerate_ball(named_matrix("I2(inf)"), 3)
    with pytest.raises(DomainError):
        phi_k_image_poset(truncated, _bruhat_poset(
            truncated, reflections_in_ball(truncated)))


@pytest.mark.parametrize("name,radius", [("A3", None), ("B3", None), ("H3", None),
                                         ("A4", None), ("B3", 4)])
def test_projection_map_matches_descent_stripping(name, radius):
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix) if radius is None
                          else radius)
    for J in _subsets(matrix.generators):
        p = projection_map(ball, J, "P")
        q = projection_map(ball, J, "Q")
        assert p.images == tuple(project_PJ(ball, w, J) for w in range(len(ball)))
        assert q.images == tuple(project_QJ(ball, w, J) for w in range(len(ball)))
        label = ",".join(map(str, J))
        assert (p.descriptor, q.descriptor) == (f"P^{{{label}}}", f"Q^{{{label}}}")
    with pytest.raises(DomainError):
        projection_map(ball, [matrix.rank], "P")


@pytest.mark.parametrize("name,radius", [("B3", 9), ("B3", 4)])
def test_projection_map_on_ids_out_of_length_order(name, radius):
    ball = enumerate_ball(named_matrix(name), radius)
    n = len(ball)
    shuffled = longest_first(ball)
    assert shuffled.length(1) == max(ball.lengths)
    for J in _subsets(shuffled.matrix.generators):
        p = projection_map(shuffled, J, "P")
        q = projection_map(shuffled, J, "Q")
        assert p.images == tuple(project_PJ(shuffled, w, J) for w in range(n))
        assert q.images == tuple(project_QJ(shuffled, w, J) for w in range(n))


@pytest.mark.parametrize("name", ["A3", "B3", "A4"])
def test_phi_image_covers_match_brute_force(name):
    # the image tuples under the componentwise order, compared pair by
    # pair in each intermediate order, reduced by the brute-force oracle
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, longest_length(matrix))
    table = reflections_in_ball(ball)
    gens = list(matrix.generators)
    top = max(ball.length(t) for t in table.reflections)
    tuples = sorted({tuple(project_PJ(ball, w, [s for s in gens if s != i])
                           for i in gens) for w in range(len(ball))})
    for k in range((top - 1) // 2 + 1):
        order = intermediate_poset(ball, t_k_set(table, k))
        image = phi_k_image_poset(ball, order)
        assert image.nodes == tuples
        less = {(i, j) for i, a in enumerate(tuples) for j, b in enumerate(tuples)
                if i != j and all(order.leq(x, y) for x, y in zip(a, b))}
        assert image.covers == sorted(brute_covers(less))
        assert set(image.relation_pairs()) == {(tuples[i], tuples[j])
                                               for i, j in less}
