from __future__ import annotations

import csv
import io
import json

import pytest

from coxkit import DomainError, enumerate_ball, named_matrix
from coxkit.curvature import curvature_spectrum
from coxkit.matrices import longest_length
from coxkit.orders import intermediate_poset, k_absolute_length_all, omega_graph
from coxkit.posets import Poset, SpernerReport, SpernerRow, strong_sperner_check
from coxkit.reflections import reflections_in_ball, t_k_set
from coxkit.serialize import (ball_from_json_dict, ball_to_json_dict,
                              curvature_to_csv, lk_table_to_csv, omega_to_dot,
                              omega_to_json_dict, poset_from_json_dict,
                              poset_to_dot, poset_to_json_dict, sperner_to_csv)


def _ball_signature(ball):
    return (len(ball), ball.words, ball.lengths, ball.right, ball.left,
            ball.inv, ball.is_complete_group, ball.radius,
            ball.matrix.entries)


def test_ball_round_trip_complete(ball_b3):
    data = json.loads(json.dumps(ball_to_json_dict(ball_b3)))
    again = ball_from_json_dict(data)
    assert _ball_signature(again) == _ball_signature(ball_b3)
    # the restored ball is fully usable
    assert again.bruhat_leq(0, len(again) - 1)


def test_ball_round_trip_truncated():
    ball = enumerate_ball(named_matrix("I2(inf)"), 5)
    again = ball_from_json_dict(json.loads(json.dumps(ball_to_json_dict(ball))))
    assert _ball_signature(again) == _ball_signature(ball)
    assert not again.is_complete_group
    # and the infinity entry survives the 0 encoding
    assert again.matrix.m(0, 1) == named_matrix("I2(inf)").m(0, 1)
    # products across the boundary work on the restored ball too
    assert again.id_of_word((0, 1, 0, 1, 0, 1, 1, 0)) == ball.id_of_word((0, 1, 0, 1))


def test_ball_json_rejects_corruption(ball_a2):
    data = ball_to_json_dict(ball_a2)
    data["elements"][2]["length"] = 5
    with pytest.raises(DomainError):
        ball_from_json_dict(data)
    data = ball_to_json_dict(ball_a2)
    data["inf_token"] = 7
    with pytest.raises(DomainError):
        ball_from_json_dict(data)


def _identity_not_at_0(data):
    # ids 0 and 1 swapped everywhere, so the file is a consistent
    # renumbering but for the place of the identity
    swap = {0: 1, 1: 0}
    for d in data["elements"]:
        d["id"] = swap.get(d["id"], d["id"])
    rows = data["cayley"]
    rows[0], rows[1] = rows[1], rows[0]
    data["cayley"] = [[swap.get(x, x) for x in row] for row in rows]


@pytest.mark.parametrize("fault", [
    lambda d: d["cayley"].pop(),
    _identity_not_at_0,
    lambda d: d["elements"][4].update(word=d["elements"][3]["word"]),
    lambda d: d.update(radius=-1),
    lambda d: d.update(radius="3"),
    lambda d: d.pop("elements"),
    lambda d: d["cayley"][2].pop(),
    lambda d: d["elements"][1].update(word=[5]),
    lambda d: d["elements"][5].update(word=[1, 0, 1]),
    lambda d: d["cayley"][3].reverse(),
], ids=["cayley-missing-row", "identity-not-at-0", "repeated-word",
        "negative-radius", "string-radius", "no-elements", "short-cayley-row",
        "letter-out-of-range", "word-not-shortlex", "cayley-row-wrong"])
def test_ball_json_refuses_what_is_not_a_ball(ball_a2, fault):
    # each file is read against the ball of its matrix and radius; the
    # untouched file reads back
    data = ball_to_json_dict(ball_a2)
    assert _ball_signature(ball_from_json_dict(data)) == _ball_signature(ball_a2)
    fault(data)
    with pytest.raises(DomainError):
        ball_from_json_dict(data)


def test_poset_round_trip():
    p = Poset.from_relation(["a", "b", "c", "d"],
                            [(0, 1), (0, 2), (1, 3), (2, 3)],
                            rank=[0, 1, 1, 2], metadata={"kind": "diamond"})
    q = poset_from_json_dict(json.loads(json.dumps(poset_to_json_dict(p))))
    assert q.nodes == p.nodes
    assert q.covers == p.covers
    assert q.rank == p.rank
    assert q.metadata["kind"] == "diamond"
    assert q.relation_pairs() == p.relation_pairs()


def test_poset_dot_deterministic():
    p = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2)], rank=[0, 1, 2])
    dot = poset_to_dot(p)
    assert dot == poset_to_dot(p)
    assert dot.startswith("digraph poset {")
    assert "n0 -> n1;" in dot and "n1 -> n2;" in dot
    assert "rank=same" in dot
    quoted = poset_to_dot(p, label_fn=lambda x: f'say "{x}"')
    assert '\\"' in quoted


def test_empty_poset_dot():
    p = Poset.from_relation([], [])
    assert poset_to_dot(p) == "digraph poset {\n  rankdir=BT;\n}\n"


def test_omega_exports(ball_a2, table_a2):
    g = omega_graph(ball_a2, t_k_set(table_a2, 0))
    data = omega_to_json_dict(g)
    assert data["boundary_skips"] == 0
    assert sorted(tuple(a) for a in data["arcs"]) == sorted(
        (a, b, t) for a, b, t in g.arcs)
    dot = omega_to_dot(g)
    assert dot == omega_to_dot(g)
    assert '[label="e"]' in dot
    assert dot.count("->") == len(g.arcs)


def test_lk_csv(ball_a2, table_a2):
    table = k_absolute_length_all(table_a2, 0)
    csv_text = lk_table_to_csv(table)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "id,length,lk"
    assert len(lines) == len(ball_a2) + 1
    assert lines[1] == "0,0,0"


def test_sperner_csv(ball_a2, table_a2):
    from coxkit.orders import intermediate_poset
    poset = intermediate_poset(ball_a2, t_k_set(table_a2, 1))
    report = strong_sperner_check(poset)
    csv_text = sperner_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "h,flow_value,top_rank_sum,verdict"
    assert all(line.endswith(",pass") for line in lines[1:])


def _csv_module(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


@pytest.mark.parametrize("spec", ["A3", "H3"])
def test_csv_exports_match_the_csv_module(spec):
    # the exports join their fields by hand; the csv module is the reference
    matrix = named_matrix(spec)
    ball = enumerate_ball(matrix, longest_length(matrix))
    table = reflections_in_ball(ball)
    tk = t_k_set(table, 1)
    lk = k_absolute_length_all(table, 1)
    assert lk_table_to_csv(lk) == _csv_module(
        ("id", "length", "lk"), [(w, ball.length(w), lk.lk[w]) for w in range(len(ball))])
    report = curvature_spectrum(omega_graph(ball, tk))
    kappas = [(x, y, kappa.numerator, kappa.denominator) for x, y, kappa in report.kappas()]
    assert curvature_to_csv(report) == _csv_module(
        ("x", "y", "kappa_num", "kappa_den"), kappas)
    header = ("h", "flow_value", "top_rank_sum", "verdict")
    sperner = strong_sperner_check(intermediate_poset(ball, tk))
    failing = SpernerReport(False, [*sperner.rows, SpernerRow(4, 5, 6, False)])
    for rep in (sperner, failing):
        assert sperner_to_csv(rep) == _csv_module(
            header, [(r.h, r.flow_value, r.top_rank_sum, "pass" if r.ok else "fail")
                     for r in rep.rows])
