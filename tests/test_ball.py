from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from functools import cached_property

import pytest

from coxkit import (OutOfBallError, ResourceError, enumerate_ball,
                    named_matrix, normal_form, parse_coxeter_matrix,
                    reflections_in_ball)
from coxkit.ball import BOUNDARY, GroupBall, _bonds
from coxkit.checks import run_checks
from coxkit.matrices import longest_length
from coxkit.orders import (arc_table, bruhat_poset, intermediate_poset,
                           k_absolute_length_all, k_absolute_poset)
from coxkit.reflections import t_k_set

from models import longest_first, model_ball, model_for
from oracles import (braid_normal_form, bruhat_subword_leq, perm_of_word,
                     reference_copy, reference_enumerate_ball,
                     reference_is_descent, reference_walk)


def _ball_signature(ball):
    return (
        len(ball),
        ball.words,
        ball.lengths,
        ball.right,
        ball.left,
        ball.inv,
        ball.is_complete_group,
        [ball.left_descents(w) for w in range(len(ball))],
        [ball.right_descents(w) for w in range(len(ball))],
    )


@pytest.mark.parametrize("name,radius", [("A3", 6), ("B3", 9)]
                         + [(f"I2({m})", m) for m in range(2, 9)]
                         + [("A4", 10), ("B4", 16), ("D4", 12), ("D5", 20)])
def test_backend_equivalence(name, radius):
    # the engine agrees edge for edge with a ball searched in the model
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, radius)
    assert _ball_signature(ball) == _ball_signature(model_ball(matrix, radius))
    assert ball.is_complete_group


def test_backend_equivalence_truncated():
    for name, radius in [("B3", 4), ("A5", 7), ("B4", 9), ("D4", 5),
                         ("D5", 8), ("I2(7)", 4), ("I2(inf)", 8)]:
        matrix = named_matrix(name)
        ball = enumerate_ball(matrix, radius)
        assert _ball_signature(ball) == _ball_signature(model_ball(matrix, radius))
        assert not ball.is_complete_group


@pytest.mark.parametrize("spec,radius", [
    ("H3", 15), ("affA2", 8), ("affC2", 8),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 8, id="hyperbolic-8"), ("F4", 10),
    ("B3", 0)])
def test_engine_matches_word_kernel(spec, radius):
    # types without a model: every in-table edge w -> w*s is the ShortLex
    # form the braid-move oracle gives for word(w) + s, every left entry
    # the one of s + word(w) (BOUNDARY when that is longer than the
    # radius), and the inverse the one of the reversed word
    matrix = parse_coxeter_matrix(spec)
    ball = enumerate_ball(matrix, radius)
    ids = {ball.word(w): w for w in range(len(ball))}

    def id_of(word):
        form = bytes(braid_normal_form(matrix, word))
        assert form in ids or len(form) > radius
        return ids.get(form, BOUNDARY)

    assert ball.word(ball.identity) == b""
    for w in range(len(ball)):
        word = ball.word(w)
        assert ball.length(w) == len(word)
        assert ball.inv[w] == id_of(word[::-1])
        for s in matrix.generators:
            assert ball.left[w][s] == id_of(bytes([s]) + word)
            ws = ball.right[w][s]
            if ws == BOUNDARY:
                assert ball.length(w) == radius
                continue
            assert ball.word(ws) == bytes(braid_normal_form(matrix, word + bytes([s])))
            assert ball.right[ws][s] == w
    assert all(ball.id_of_word(ball.word(w)) == w for w in range(len(ball)))


# |W| and the length of the longest element (Humphreys, Reflection Groups
# and Coxeter Groups, 2.11 and 3.7)
NAMED_ORDERS = {
    "A1": (2, 1), "A5": (720, 15), "A7": (40320, 28), "B2": (8, 4),
    "B6": (46080, 36), "C3": (48, 9), "D4": (192, 12), "D6": (23040, 30),
    "E6": (51840, 36), "F4": (1152, 24), "G2": (12, 6), "H3": (120, 15),
    "H4": (14400, 60), "I2(5)": (10, 5),
}


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_named_types_close_at_group_order(name):
    from coxkit.matrices import group_order
    order, top = NAMED_ORDERS[name]
    matrix = named_matrix(name)
    assert (group_order(matrix), longest_length(matrix)) == (order, top)
    ball = enumerate_ball(matrix, top)
    assert ball.is_complete_group
    assert len(ball) == order
    assert ball.rank_sizes()[-1] == 1 and len(ball.rank_sizes()) == top + 1


def test_rank_sizes_s4(ball_a3):
    assert ball_a3.rank_sizes() == [1, 3, 5, 6, 5, 3, 1]
    assert len(ball_a3) == 24


def test_infinite_dihedral_ball():
    ball = enumerate_ball(named_matrix("I2(inf)"), 5)
    assert len(ball) == 11  # 1 + 2 per positive length
    assert not ball.is_complete_group
    assert ball.rank_sizes() == [1, 2, 2, 2, 2, 2]


def test_group_axioms_on_ball(ball_b3):
    ball = ball_b3
    rng = random.Random(7)
    ids = list(range(len(ball)))
    for _ in range(200):
        u, v = rng.choice(ids), rng.choice(ids)
        uv = ball.multiply(u, v)
        assert ball.multiply(ball.inverse(u), uv) == v
    for w in ids:
        assert ball.multiply(w, ball.inverse(w)) == ball.identity
        assert ball.inverse(ball.inverse(w)) == w
        assert ball.length(ball.inverse(w)) == ball.length(w)


def test_multiply_out_of_ball():
    ball = enumerate_ball(named_matrix("I2(inf)"), 3)
    tops = [w for w in range(len(ball)) if ball.length(w) == 3]
    with pytest.raises(OutOfBallError):
        ball.multiply(tops[0], tops[0] if ball.inverse(tops[0]) != tops[0]
                      else tops[1])


def test_descents_match_length(ball_b3):
    ball = ball_b3
    for w in range(len(ball)):
        for s in ball.matrix.generators:
            ws = ball.right[w][s]
            assert ws != BOUNDARY
            assert (s in ball.right_descents(w)) == (ball.length(ws) < ball.length(w))
            sw = ball.left[w][s]
            assert (s in ball.left_descents(w)) == (ball.length(sw) < ball.length(w))


def test_id_of_word(ball_a3):
    ball = ball_a3
    assert ball.id_of_word(()) == ball.identity
    w = ball.id_of_word((0, 1, 1, 0, 2))  # unreduced input is fine
    assert ball.word(w) == bytes(normal_form(ball.matrix, (0, 1, 1, 0, 2)))
    small = enumerate_ball(named_matrix("A3"), 2)
    with pytest.raises(OutOfBallError):
        small.id_of_word((0, 1, 2))


def test_bruhat_matches_subword_oracle_a3(ball_a3):
    ball = ball_a3
    n = len(ball)
    for u in range(n):
        for v in range(n):
            assert ball.bruhat_leq(u, v) == bruhat_subword_leq(ball, u, v), \
                (ball.word(u), ball.word(v))


def test_bruhat_matches_subword_oracle_b3_sample(ball_b3):
    ball = ball_b3
    rng = random.Random(23)
    ids = list(range(len(ball)))
    for _ in range(250):
        u, v = rng.choice(ids), rng.choice(ids)
        assert ball.bruhat_leq(u, v) == bruhat_subword_leq(ball, u, v)


def test_bruhat_leq_deep_in_the_infinite_dihedral_group():
    # in I2(inf), u < v iff l(u) < l(v); the descent recursion runs
    # l(v) steps deep, past the interpreter's recursion limit
    ball = enumerate_ball(named_matrix("I2(inf)"), 1100)
    by_length = {}
    for w in range(len(ball)):
        by_length.setdefault(ball.length(w), []).append(w)
    tops = by_length[1100]
    assert ball.bruhat_leq(0, tops[0])
    for v in tops:
        for length in (0, 1, 2, 549, 550, 1099, 1100):
            for u in by_length[length]:
                assert ball.bruhat_leq(u, v) == (length < 1100 or u == v)
                assert ball.bruhat_leq(v, u) == (u == v)


def test_bruhat_lifting_property(ball_a3):
    # for s a left descent of v: u <= v iff min(u, su) <= sv
    ball = ball_a3
    for v in range(len(ball)):
        for s in ball.left_descents(v):
            sv = ball.left[v][s]
            for u in range(len(ball)):
                su = ball.left[u][s]
                if ball.length(su) < ball.length(u):
                    expected = ball.bruhat_leq(su, sv)
                else:
                    expected = ball.bruhat_leq(u, sv)
                assert ball.bruhat_leq(u, v) == expected


def test_bruhat_on_permutations(ball_a3):
    # cross-check against the one-line-notation characterization on S4:
    # u <= v iff sorted top-left submatrix counts dominate
    ball = ball_a3
    perms = {w: perm_of_word(ball.word(w), 4) for w in range(len(ball))}

    def dominance_leq(pu, pv):
        for i in range(1, 5):
            a = sorted(pu[:i])
            b = sorted(pv[:i])
            if any(x > y for x, y in zip(a, b)):
                return False
        return True

    for u in range(len(ball)):
        for v in range(len(ball)):
            assert ball.bruhat_leq(u, v) == dominance_leq(perms[u], perms[v])


def test_coxeter_elements(ball_a3, ball_b3):
    for ball in (ball_a3, ball_b3):
        cs = ball.coxeter_elements()
        rank = ball.matrix.rank
        assert cs
        for c in cs:
            word = ball.word(c)
            assert len(word) == rank and set(word) == set(range(rank))


def test_element_cap():
    with pytest.raises(ResourceError):
        enumerate_ball(named_matrix("A3"), 6, cap=10)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        enumerate_ball(named_matrix("A3"), -1)


def test_infinite_dihedral_backends_agree():
    matrix = named_matrix("I2(inf)")
    ball = enumerate_ball(matrix, 6)
    assert _ball_signature(ball) == _ball_signature(model_ball(matrix, 6))


def test_id_of_word_crossing_the_boundary():
    # a word that leaves the table and comes back still names its element
    ball = enumerate_ball(named_matrix("I2(inf)"), 2)
    assert ball.id_of_word((0, 1, 0, 0, 1, 0)) == ball.identity
    assert ball.id_of_word((0, 1, 0, 0)) == ball.id_of_word((0, 1))
    with pytest.raises(OutOfBallError):
        ball.id_of_word((0, 1, 0))
    for letters in ((0, -1), (2,)):
        with pytest.raises(ValueError):
            ball.id_of_word(letters)


def _model_product(model, ball, u, v):
    x = model.identity
    for a in ball.word(u) + ball.word(v):
        x = model.mult(x, model.gens[a])
    return x


@pytest.mark.parametrize("name,radius", [("A3", 3), ("B3", 4), ("D4", 5), ("I2(7)", 4),
                                         ("I2(inf)", 5), ("A5", 14), ("B4", 15)])
def test_multiply_across_the_boundary(name, radius):
    # every product of two elements of a truncated ball, against the model:
    # in the ball iff the model's product has a word of length <= radius
    matrix = named_matrix(name)
    ball = enumerate_ball(matrix, radius)
    model = model_for(matrix)
    ids = {_model_product(model, ball, w, 0): w for w in range(len(ball))}
    rng = random.Random(5)
    n = len(ball)
    pairs = ([(u, v) for u in range(n) for v in range(n)] if n <= 100
             else [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)])
    if name == "A5":  # s * (s w0): the product is w0, one past the radius
        w0s = max(range(n), key=ball.length)
        s = min(ball.right_descents(w0s) ^ frozenset(matrix.generators))
        pairs.append((ball.id_of_word((s,)), ball.inverse(w0s)))
    outside = 0
    for u, v in pairs:
        want = ids.get(_model_product(model, ball, u, v))
        if want is None:
            outside += 1
            with pytest.raises(OutOfBallError):
                ball.multiply(u, v)
        else:
            assert ball.multiply(u, v) == want
    assert outside
    if model.order:  # elements met beyond the radius are stored once each
        assert len(ball) + len(ball._rows) <= model.order


@pytest.mark.parametrize("spec,radius", [
    ("H3", 7), ("affA2", 5), pytest.param("1 3 inf; 3 1 3; inf 3 1", 5, id="hyperbolic-5")])
def test_multiply_across_the_boundary_matches_word_kernel(spec, radius):
    matrix = parse_coxeter_matrix(spec)
    ball = enumerate_ball(matrix, radius)
    index = {ball.word(w): w for w in range(len(ball))}
    for u in range(len(ball)):
        for v in range(len(ball)):
            want = index.get(bytes(braid_normal_form(matrix, ball.word(u) + ball.word(v))))
            if want is None:
                with pytest.raises(OutOfBallError):
                    ball.multiply(u, v)
            else:
                assert ball.multiply(u, v) == want


def _reduced_word(ball, x):
    """A reduced word of x, in the ball or beyond it: its smallest right
    descent peeled off until the identity (a descent step creates
    nothing)."""
    out = []
    while x != ball.identity:
        s = next(s for s in ball.matrix.generators if reference_is_descent(ball, x, s))
        out.append(s)
        x = ball._times(x, s)
    return tuple(reversed(out))


@pytest.mark.parametrize("spec,radius", [
    ("B3", 4), ("affC2", 10), ("I2(inf)", 20),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 8, id="hyperbolic-8")])
def test_walk_stops_before_it_creates(spec, radius):
    # the walk that checks the descent mask before an ascent gives the
    # verdicts and products of the loop that steps first, on its own
    # copy of the ball, and never holds more elements beyond the radius
    matrix = parse_coxeter_matrix(spec)
    ball, ref = enumerate_ball(matrix, radius), enumerate_ball(matrix, radius)
    rng = random.Random(radius)
    stopped = 0
    for _ in range(1500):
        x = rng.randrange(len(ball))
        letters = bytes(rng.randrange(matrix.rank) for _ in range(rng.randrange(2 * radius)))
        limit = rng.randrange(radius + 1)
        got, want = ball._walk(x, letters, limit), reference_walk(ref, x, letters, limit)
        assert (got is None) == (want is None), (x, letters, limit)
        if got is not None:
            assert _reduced_word(ball, got) == _reduced_word(ref, want)
        stopped += got is None
        assert len(ball._rows) <= len(ref._rows)
    assert stopped
    assert len(ball._rows) < len(ref._rows)


def _tables(ball):
    return ball.right, ball.left, ball.inv, ball.words


def _beyond(ball):
    """A copy of the state beyond the radius."""
    return ([list(r) for r in ball._rows], list(ball._lengths), list(ball._descents),
            dict(ball._rim))


@pytest.mark.parametrize("name", ["A5", "D5", "B5", "F4", "H4", "E6"])
def test_engine_matches_the_per_letter_engine_on_complete_groups(name):
    matrix = named_matrix(name)
    top = longest_length(matrix)
    assert _tables(enumerate_ball(matrix, top)) == _tables(reference_enumerate_ball(matrix, top))


BEYOND = [pytest.param("1 3 inf; 3 1 3; inf 3 1", 14, id="hyperbolic-14"),
          ("affC2", 12), ("affG2", 12), ("I2(inf)", 30), ("affA3", 8), ("B4", 7),
          ("H3", 9)]


def _reads(ball, seed):
    """The same reads past the radius on any ball: the reflections and
    their arc rows, walks from random ids, and ShortLex words of random
    words; what each returns, and the state beyond the radius after
    each kind of read."""
    matrix, radius = ball.matrix, ball.radius
    rng = random.Random(seed)
    table = reflections_in_ball(ball)
    arcs = arc_table(ball)
    out = [table.reflections, [arcs.row(t) for t in table.reflections]]
    out.append(_beyond(ball))
    for _ in range(300):
        x = rng.randrange(len(ball))
        letters = bytes(rng.randrange(matrix.rank) for _ in range(rng.randrange(2 * radius)))
        out.append(ball._walk(x, letters, rng.randrange(2 * radius + 1)))
    out.append(_beyond(ball))
    for _ in range(100):
        out.append(ball._shortlex(bytes(rng.randrange(matrix.rank)
                                        for _ in range(rng.randrange(3 * radius)))))
    out.append(_beyond(ball))
    return out


@pytest.mark.parametrize("spec,radius", BEYOND)
def test_engine_matches_the_per_letter_engine_beyond_the_radius(spec, radius):
    # the tables, and every product, verdict and word read past the radius
    # with the elements met there, ids and all, in the order the ball
    # numbers them and with its ids renumbered longest first
    matrix = parse_coxeter_matrix(spec)
    ball = enumerate_ball(matrix, radius)
    ref = reference_enumerate_ball(matrix, radius)
    assert _tables(ball) == _tables(ref)
    assert _reads(ball, radius) == _reads(ref, radius)
    renumbered = longest_first(enumerate_ball(matrix, radius))
    assert _reads(renumbered, radius) == _reads(reference_copy(renumbered), radius)


@pytest.mark.parametrize("spec,radius", BEYOND)
def test_normal_form_matches_the_per_letter_engine(spec, radius):
    # normal_form walks on a radius-0 ball; the reference does the same
    # walk letter by letter and leaves the same elements behind
    matrix = parse_coxeter_matrix(spec)
    rng = random.Random(radius)
    for _ in range(40):
        word = bytes(rng.randrange(matrix.rank) for _ in range(rng.randrange(3 * radius)))
        ball, ref = enumerate_ball(matrix, 0), reference_enumerate_ball(matrix, 0)
        got = ball._shortlex(word)
        assert got == ref._shortlex(word) == bytes(normal_form(matrix, word))
        assert _beyond(ball) == _beyond(ref)


def test_bonds_are_built_once_per_matrix():
    matrix = parse_coxeter_matrix("1 3 inf; 3 1 3; inf 3 1")
    _bonds.cache_clear()
    for i in range(100):
        normal_form(matrix, (0, 1, 2) * (i % 7))
    assert _bonds.cache_info().misses == 1
    # a matrix equal in its entries is the same matrix to the cache
    a, b = enumerate_ball(matrix, 3), enumerate_ball(parse_coxeter_matrix(str(matrix)), 5)
    assert a._bonds is b._bonds
    assert _bonds.cache_info().misses == 1


# every ball the tests renumber with `longest_first`
RENUMBERED = [
    ("A3", None), ("B3", None), ("H3", None), ("A4", None), ("B4", None),
    ("F4", None), ("D5", None), ("B3", 0), ("B3", 1), ("B3", 4), ("B3", 5),
    ("B4", 7), ("H3", 7), ("H3", 9), ("I2(5)", 3), ("I2(7)", 5), ("I2(8)", 5),
    ("I2(inf)", 30), ("affA2", 8), ("affA3", 8), ("affC2", 7), ("affC2", 10),
    ("affC2", 12), ("affG2", 10), ("affG2", 12),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 8, id="hyperbolic-8"),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 10, id="hyperbolic-10"),
    pytest.param("1 3 inf; 3 1 3; inf 3 1", 14, id="hyperbolic-14"),
    pytest.param("1 4 inf; 4 1 3; inf 3 1", 8, id="cycle-4-3-inf-8"),
    pytest.param("1 4 4; 4 1 4; 4 4 1", 8, id="cycle-4-4-4-8"),
    pytest.param("1 5 3; 5 1 3; 3 3 1", 7, id="hyp533-7"),
    pytest.param("1 5 2; 5 1 3; 2 3 1", 9, id="hyp523-9")]


@pytest.mark.parametrize("spec,radius", RENUMBERED)
def test_levels_and_first_letters_with_any_numbering(spec, radius):
    # levels is a stable sort of the ids by length and rank_sizes a
    # count of each length; the first letter of each ShortLex word is the
    # smallest left descent, which Bruhat order reads.  Both as built and
    # renumbered longest first
    matrix = parse_coxeter_matrix(spec)
    ball = enumerate_ball(matrix, longest_length(matrix) if radius is None else radius)
    for b in (ball, longest_first(ball)):
        n = len(b)
        assert [w for level in b.levels for w in level] == sorted(range(n), key=b.length)
        assert all(b.length(w) == lw for lw, level in enumerate(b.levels) for w in level)
        counts = Counter(b.lengths)
        assert b.rank_sizes() == [counts[lw] for lw in range(max(counts) + 1)]
        assert all(b.words[v][0] == min(b.left_descents(v)) for v in range(1, n))


def test_levels_hold_no_int_of_their_own():
    # each id in `levels` is the object the inverse table holds, so on E6
    # (51,840 ids, nearly all past the small-int cache) the levels take
    # little more than their list pointers; an int object would be 28 B
    matrix = named_matrix("E6")
    ball = enumerate_ball(matrix, longest_length(matrix))
    tracemalloc.start()
    try:
        levels = ball.levels
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / len(ball) < 10
    assert [list(level) for level in levels] == [
        [w for w in range(len(ball)) if ball.length(w) == lw] for lw in range(37)]


def test_levels_are_built_once_per_ball_and_not_for_normal_forms(monkeypatch):
    # every reader of a ball reads its one `levels`; the radius-0 balls
    # of normal_form never build it
    built, build = [], GroupBall.levels.func
    levels = cached_property(lambda ball: built.append(ball) or build(ball))
    levels.__set_name__(GroupBall, "levels")
    monkeypatch.setattr(GroupBall, "levels", levels)
    matrix = named_matrix("B3")
    for word in ([0, 1, 0, 1, 0], [2, 1, 2, 1, 0, 0], [1] * 7, [2, 1, 0] * 4):
        normal_form(matrix, word)
    assert built == []
    ball = enumerate_ball(matrix, longest_length(matrix))
    run_checks(ball, ["graded", "projections", "refinement", "monoid"])
    bruhat_poset(ball)
    assert ball.rank_sizes() == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]
    truncated = enumerate_ball(named_matrix("affC2"), 7)
    table = reflections_in_ball(truncated)
    for k in (0, 1):
        k_absolute_poset(k_absolute_length_all(table, k))
        intermediate_poset(truncated, t_k_set(table, k))
    assert built == [ball, truncated]
