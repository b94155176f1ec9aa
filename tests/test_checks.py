"""The W_J data `coxkit.checks` holds for a run: the composite
certificate of P^J, the per-slice order test of each single P^{s}, the
per-J graded lists, and the one loop over the order ideals; that
`refinement` builds no slice poset; and the diagram automorphisms, by
which `shellability` and the loop over the ideals decide each orbit
once."""
from __future__ import annotations

import copy
from collections import Counter
from itertools import chain, combinations

import pytest

from coxkit import checks, enumerate_ball, named_matrix
from coxkit.ball import BOUNDARY
from coxkit.checks import run_checks
from coxkit.errors import DomainError
from coxkit.matrices import longest_length
from coxkit.orders import intermediate_poset, k_absolute_length_all, k_absolute_poset
from coxkit.posets import Poset, ShellingVerdict, check_graded, order_complex, shellability
from coxkit.projections import SelfMapTable, is_order_preserving, projection_map
from coxkit.reflections import max_k, reflections_in_ball, t_k_set
from oracles import reference_ideal_records


def _ball(name, radius=None):
    matrix = named_matrix(name)
    return enumerate_ball(matrix, radius or longest_length(matrix))


def _subsets(gens):
    gens = sorted(gens)
    return chain.from_iterable(combinations(gens, r) for r in range(len(gens) + 1))


@pytest.mark.parametrize("name,radius", [
    ("A3", None), ("B3", None), ("H3", None), ("A4", None), ("B4", None),
    ("A3", 3), ("B3", 4), ("H3", 7), ("affC2", 7), ("affA2", 6)])
def test_every_p_j_is_the_composite_of_its_singles(name, radius):
    # truncated balls included: the singles strip descents inside the ball
    ball = _ball(name, radius)
    group = checks._Group(ball)
    for J in _subsets(ball.matrix.generators):
        if len(J) >= 2:
            assert group.composite(J), J
            # the certificate compares with the table of projection_map
            assert group.projection(J, "P").images == \
                projection_map(ball, J, "P").images


def _moved(monkeypatch, J, w, x):
    """projection_map with the image of w under P^J moved to x."""
    build = checks.projections.projection_map

    def patched(ball, K, kind="P"):
        table = build(ball, K, kind)
        if kind == "P" and tuple(sorted(K)) == J:
            images = list(table.images)
            images[w] = x
            table = SelfMapTable(table.descriptor, tuple(images))
        return table

    monkeypatch.setattr(checks.projections, "projection_map", patched)
    return patched


def _direct_failures(ball, table_of, poset_of):
    """The failure rows of `projections` over the T_k slices, each P^J
    tested on its own."""
    table, rows = reflections_in_ball(ball), []
    for k in range(max_k(table) + 1):
        X = t_k_set(table, k)
        poset = poset_of(ball, X)
        for J in _subsets(ball.matrix.generators):
            rep = is_order_preserving(table_of(ball, J, "P"), poset)
            if not rep.ok:
                rows.append({"X_size": len(X), "J": list(J),
                             "violations": rep.violations[:5]})
    return rows


@pytest.mark.parametrize("J", [(1,), (0, 1), (0, 2), (0, 1, 2)])
def test_a_broken_table_is_caught_through_the_fallback(monkeypatch, J):
    # the image of s, the first generator in J, is moved from e to the top
    # element: for a single the slice's own order test fails, for |J| >= 2
    # the composite no longer matches; either way the direct test reports
    # the violations
    ball = _ball("A3")
    w0 = max(range(len(ball)), key=ball.length)
    patched = _moved(monkeypatch, J, ball.right[ball.identity][J[0]], w0)
    expected = _direct_failures(ball, patched, intermediate_poset)
    assert expected and {tuple(row["J"]) for row in expected} == {J}
    got = run_checks(ball, ["projections"])["projections"]
    assert got == {"ok": False, "maps_checked": 8 * 3, "failures": expected}
    if len(J) >= 2:
        assert not checks._Group(ball).composite(J)


def test_an_order_a_single_breaks_is_tested_for_every_j(monkeypatch):
    # on the right weak order in place of each slice, the singles fail,
    # so every P^J is tested on its own although its certificate holds
    ball = _ball("A3")

    def right_weak(ball, X):
        return Poset(range(len(ball)), [
            (w, x) for w, row in enumerate(ball.right) for x in row
            if x != BOUNDARY and ball.length(x) > ball.length(w)])

    expected = _direct_failures(ball, projection_map, right_weak)
    assert {len(row["J"]) for row in expected} == {1, 2}
    monkeypatch.setattr(checks.orders, "intermediate_poset", right_weak)
    got = run_checks(ball, ["projections"])["projections"]
    assert got == {"ok": False, "maps_checked": 8 * 3, "failures": expected}


def test_projections_and_monoid_test_each_single_once_per_slice(monkeypatch):
    # 4 order tests per slice, shared by both checks, where every P^J was
    # once tested on its own (16 + 4)
    calls = []
    test = checks.projections.is_order_preserving

    def counted(table, poset):
        calls.append(table.descriptor)
        return test(table, poset)

    monkeypatch.setattr(checks.projections, "is_order_preserving", counted)
    ball = _ball("A4")
    slices = max_k(reflections_in_ball(ball)) + 1
    out = run_checks(ball, ["projections", "monoid"])
    assert out["projections"]["ok"] and out["monoid"]["ok"]
    assert out["projections"]["maps_checked"] == 16 * slices
    assert len(calls) == 4 * slices
    assert sorted(set(calls)) == [f"P^{{{s}}}" for s in range(4)]


@pytest.mark.parametrize("ideal", ["tk", "all"])
def test_graded_counts_minimal_representatives_off_one_q_table_per_j(monkeypatch, ideal):
    # the w with no left descent in J are the fixed points of the table
    # of Q^J, which graded builds once per J for its ranks: no descent
    # set is read
    ball = _ball("B3")
    calls, tables, js = [], [], set()
    build, graded = checks.projections.projection_map, checks._Group.graded

    def built(ball, J, kind="P"):
        tables.append((frozenset(J), kind))
        return build(ball, J, kind)

    def recorded(group, J):
        js.add(J)
        return graded(group, J)

    monkeypatch.setattr(ball, "left_descents", calls.append)
    monkeypatch.setattr(checks.projections, "projection_map", built)
    monkeypatch.setattr(checks._Group, "graded", recorded)
    out = run_checks(ball, ["graded"], ideal=ideal)["graded"]
    assert out["ok"]
    assert calls == []
    assert Counter(J for J, kind in tables if kind == "Q") == Counter(js)
    # on the T_k slices J = S throughout; over the ideals it varies
    assert (len(js) == 1) == (ideal == "tk")
    assert out["ideals_checked"] > len(js)


@pytest.mark.parametrize("ideal", ["tk", "all"])
def test_graded_failures_match_check_graded(monkeypatch, ideal):
    # an extra cover e < w0 in every poset breaks both the rank and the
    # length grading; the reports are those check_graded gives
    ball = _ball("A3")
    w0 = max(range(len(ball)), key=ball.length)
    build, built = checks.orders.intermediate_poset, []

    def broken(*args):
        poset = build(*args)
        poset = Poset(poset.nodes, poset.covers + [(ball.identity, w0)],
                      rank=poset.rank)
        built.append((args[1], poset))
        return poset

    monkeypatch.setattr(checks.orders, "intermediate_poset", broken)
    failures = run_checks(ball, ["graded"], ideal=ideal)["graded"]["failures"]
    expected = []
    for X, poset in built:
        J = frozenset(s for s in ball.matrix.generators
                      if ball.right[ball.identity][s] in X)
        qj = projection_map(ball, J, "Q")
        rep = check_graded(poset, lambda w: ball.length(w) - ball.length(qj(w)))
        if not rep.ok:
            expected.append({"X_size": len(X), "bad_covers": rep.bad_covers[:5]})
        gaps = check_graded(poset, ball.length).bad_covers
        if gaps:
            expected.append({"X_size": len(X), "length_gap_cover": list(gaps[0])})
    got = [f for f in failures if "bad_covers" in f or "length_gap_cover" in f]
    assert expected and got == expected


def test_every_ideal_builds_its_poset_once(monkeypatch):
    # graded and projections share one loop over the order ideals
    calls = []
    build = checks.orders.intermediate_poset

    def counted(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(checks.orders, "intermediate_poset", counted)
    ball = _ball("B3")
    out = run_checks(ball, ["graded", "projections"], ideal="all")
    ideals = out["graded"]["ideals_checked"]
    assert out["graded"]["ok"] and out["projections"]["ok"]
    assert out["projections"]["maps_checked"] == 8 * ideals
    assert len(calls) == ideals == len(set(calls))


@pytest.mark.parametrize("name,radius", [("A4", None), ("affC2", 7)])
def test_refinement_builds_no_slice_poset_and_no_closure(monkeypatch, name, radius):
    # the chain is decided on the reflection sets and one arc graph; with
    # another check, the walk still builds each slice it hands over once
    calls = {"intermediate_poset": 0, "_close": 0}

    def counted(module, fn):
        inner = getattr(module, fn)

        def wrapper(*args):
            calls[fn] += 1
            return inner(*args)
        monkeypatch.setattr(module, fn, wrapper)

    counted(checks.orders, "intermediate_poset")
    counted(checks.posets, "_close")
    ball = _ball(name, radius)
    assert run_checks(ball, ["refinement"])["refinement"]["ok"]
    assert calls == {"intermediate_poset": 0, "_close": 0}
    if name == "A4":
        out = run_checks(ball, ["graded", "refinement"], ks=[2])
        assert out["graded"]["ok"] and out["refinement"]["ok"]
        assert calls["intermediate_poset"] == 1


@pytest.mark.parametrize("name,names,ideal", [
    ("A4", ["graded", "projections"], "all"),
    ("B3", list(checks.ALL_CHECKS), "tk")])
def test_each_row_is_built_once_per_run(monkeypatch, name, names, ideal):
    # every slice or order ideal, and refinement's arc graph, read the
    # ball's one arc table
    built = []
    build = checks.orders.ArcTable._build

    def counted(table, t):
        built.append(t)
        return build(table, t)

    monkeypatch.setattr(checks.orders.ArcTable, "_build", counted)
    ball = _ball(name)
    out = run_checks(ball, names, ideal=ideal)
    assert all(out[n]["ok"] for n in names)
    assert sorted(built) == sorted(reflections_in_ball(ball).reflections)


@pytest.mark.parametrize("name,radius", [("A4", None), ("affC2", 7)])
def test_graded_closes_no_order(monkeypatch, name, radius):
    # the covers of every slice are certified by the unit-arc sweep
    calls = []
    close = checks.posets._close
    monkeypatch.setattr(checks.posets, "_close",
                        lambda succ: calls.append(len(succ)) or close(succ))
    out = run_checks(_ball(name, radius), ["graded"])["graded"]
    assert out["ok"] and out["ideals_checked"] > 1
    assert calls == []


def test_a_long_arc_outside_the_unit_closure_fails_graded(monkeypatch):
    # one extra arc s0 -> s1 s2 s1 (rise 2, not a Bruhat relation) in
    # the row of s0: no slice's unit arcs certify it, so each slice is
    # closed from every arc, and graded reports the bad cover as the
    # closure of every arc gives it
    ball = _ball("A3")
    s0, b = ball.id_of_word([0]), ball.id_of_word([1, 2, 1])
    build = checks.orders.ArcTable._build

    def extra(table, t):
        row, skips = build(table, t)
        if t == s0:
            row = row[:s0] + [b] + row[s0 + 1:]  # was s0 s0 = e: no arc
        return row, skips

    monkeypatch.setattr(checks.orders.ArcTable, "_build", extra)
    closed = []
    from_relation = Poset.from_relation.__func__

    def counted(cls, nodes, pairs, **kw):
        pairs = list(pairs)
        closed.append(pairs)
        return from_relation(cls, nodes, pairs, **kw)

    monkeypatch.setattr(Poset, "from_relation", classmethod(counted))
    failures = run_checks(ball, ["graded"])["graded"]["failures"]
    monkeypatch.undo()
    table = reflections_in_ball(ball)
    assert len(closed) == max_k(table) + 1
    expected = []
    for k, pairs in enumerate(closed):
        X = t_k_set(table, k)
        assert (s0, b) in pairs and len(pairs) == 1 + len(ball) * len(X) // 2
        bad = check_graded(Poset.from_relation(range(len(ball)), pairs),
                           ball.length).bad_covers
        assert (s0, b) in bad
        expected += [{"X_size": len(X), "bad_covers": bad[:5]},
                     {"X_size": len(X), "length_gap_cover": list(bad[0])}]
    assert failures == expected


@pytest.mark.parametrize("name,radius,count", [
    ("A3", None, 1), ("A5", None, 1), ("D5", None, 1), ("E6", None, 1),
    ("F4", None, 1), ("I2(5)", None, 1), ("affC2", 7, 1), ("D4", None, 5),
    ("affA2", 6, 5), ("affA3", 6, 7), ("B3", None, 0), ("B4", None, 0),
    ("H3", None, 0), ("H4", None, 0)])
def test_diagram_automorphisms_are_certified_on_the_ball(name, radius, count):
    ball = _ball(name, radius)
    autos = checks._Group(ball).automorphisms
    assert len(autos) == count
    for phi in autos:
        # a permutation of the ids that keeps lengths and maps the
        # generators onto the generators
        assert sorted(phi) == list(range(len(ball)))
        assert [ball.length(phi[w]) for w in range(len(ball))] == ball.lengths
        gens = [ball.right[ball.identity][s] for s in ball.matrix.generators]
        assert sorted(phi[g] for g in gens) == sorted(gens)


def test_a_wrong_table_certifies_no_automorphism(monkeypatch):
    # w0 s0 moved to w0 s1 in the top row of A4's right table: every
    # interval is then shelled, where the intact ball shells one Coxeter
    # element of each of its 4 orbits
    ball = _ball("A4")
    slices = max_k(reflections_in_ball(ball)) + 1
    calls, search = [], checks.posets.shellability
    monkeypatch.setattr(checks.posets, "shellability",
                        lambda cx: calls.append(cx) or search(cx))
    intact = run_checks(ball, ["shellability"])["shellability"]["intervals"]
    assert len(intact) == 8 * slices * 2 and len(calls) == 4 * slices * 2
    broken = copy.copy(ball)
    broken.right = [row[:] for row in ball.right]
    w0 = max(range(len(ball)), key=ball.length)
    broken.right[w0][0] = ball.right[w0][1]
    assert checks._Group(broken).automorphisms == []
    calls.clear()
    rows = run_checks(broken, ["shellability"])["shellability"]["intervals"]
    assert len(rows) == len(calls) == 8 * slices * 2


def test_an_inconclusive_interval_is_not_passed_on(monkeypatch):
    # the interval [e, c], c the first Coxeter element of A3, is forced
    # inconclusive: its image under the flip is searched, and the rest
    # of the orbits are still decided once
    ball = _ball("A3")
    c = ball.coxeter_elements()[0]
    (phi,) = checks._Group(ball).automorphisms
    searched = []
    build, search = checks.posets.order_complex, checks.posets.shellability

    def recorded(poset, bottom, top):
        searched.append(top)
        return build(poset, bottom, top)

    monkeypatch.setattr(checks.posets, "order_complex", recorded)
    monkeypatch.setattr(checks.posets, "shellability", lambda cx: (
        ShellingVerdict("inconclusive") if searched[-1] == c else search(cx)))
    rows = run_checks(ball, ["shellability"])["shellability"]["intervals"]
    slices = max_k(reflections_in_ball(ball)) + 1
    for k in range(slices):
        for flavor in ("intermediate", "absolute"):
            status = {tuple(r["coxeter_element"]): r["status"] for r in rows
                      if r["k"] == k and r["order"] == flavor}
            assert status[tuple(ball.word(c))] == "inconclusive"
            assert status[tuple(ball.word(phi[c]))] == "shellable"
    assert phi[c] != c and Counter(searched)[phi[c]] == 2 * slices
    # 4 Coxeter elements in 3 orbits, one of them searched twice
    assert len(searched) == 4 * 2 * slices


@pytest.mark.parametrize("name,radius", [
    ("A3", None), ("A4", None), ("D4", None), ("B3", None), ("affA2", 8)])
def test_shellability_rows_are_each_intervals_own_status(name, radius):
    ball = _ball(name, radius)
    table = reflections_in_ball(ball)
    expected = []
    for k in range(max_k(table) + 1):
        orders = (("intermediate", intermediate_poset(ball, t_k_set(table, k))),
                  ("absolute", k_absolute_poset(k_absolute_length_all(table, k))))
        for flavor, poset in orders:
            for c in ball.coxeter_elements():
                try:
                    interval = order_complex(poset, ball.identity, c)
                except DomainError:
                    continue
                expected.append({"k": k, "order": flavor,
                                 "coxeter_element": list(ball.word(c)),
                                 "status": shellability(interval).status})
    assert run_checks(ball, ["shellability"])["shellability"]["intervals"] == expected


@pytest.mark.parametrize("name,radius", [
    ("A3", None), ("A4", None), ("D4", None), ("B3", None), ("affC2", 7),
    ("affA2", 6)])
def test_ideal_records_match_a_loop_over_every_ideal(monkeypatch, name, radius):
    # an image of an ideal that passed adds its counts, cut components
    # included, and builds no poset
    ball = _ball(name, radius)
    names = ["graded", "projections"]
    expected = reference_ideal_records(ball, names)
    built = []
    build = checks.orders.intermediate_poset
    monkeypatch.setattr(checks.orders, "intermediate_poset",
                        lambda *args: built.append(args[1]) or build(*args))
    assert run_checks(ball, names, ideal="all") == expected
    ideals = expected["graded"]["ideals_checked"]
    if checks._Group(ball).automorphisms:
        assert len(built) < ideals
    else:
        assert len(built) == ideals


def test_a_component_with_an_extra_cover_is_not_isomorphic():
    # X = the reflections of W_J, J = {0, 1}, in A3: the components are
    # the 4 cosets W_J m; one extra cover in the second makes the map
    # x -> x m one to one and cover-preserving, but not onto its covers
    ball = _ball("A3")
    X = frozenset(ball.id_of_word(w) for w in ([0], [1], [0, 1, 0]))
    poset = intermediate_poset(ball, X)
    comps = poset.components()
    assert len(comps) == 4 and comps[0][0] == ball.identity
    assert checks._components_isomorphic(ball, poset, comps)
    bottom, top = min(comps[1], key=ball.length), max(comps[1], key=ball.length)
    extra = Poset(poset.nodes, poset.covers + [(bottom, top)])
    assert extra.components() == comps
    assert not checks._components_isomorphic(ball, extra, comps)
