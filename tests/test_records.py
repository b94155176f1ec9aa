"""The record classes: construction, equality, hashing, immutability and
repr, and what `import coxkit.cli` loads."""
from __future__ import annotations

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxkit import DomainError, enumerate_ball, named_matrix
from coxkit.curvature import CurvatureRecord
from coxkit.matrices import CoxeterMatrix, MatrixError, from_rows
from coxkit.orders import (AbsoluteLengthTable, OmegaGraph, RefinementReport,
                           arc_table, omega_graph)
from coxkit.polynomials import CoeffVector, DihedralFormulaRecord
from coxkit.posets import (GradedReport, NCLattice, OrderComplex, Poset,
                           ShellingVerdict, SpernerReport, SpernerRow)
from coxkit.projections import (MonoidReport, OrderPreservationReport,
                                ParabolicDecomposition, SelfMapTable)
from coxkit.reflections import ReflectionTable

SRC = Path(__file__).resolve().parents[1] / "src"

A2_ROWS = ((1, 3), (3, 1))
BALL = enumerate_ball(named_matrix("A2"), 3)
POLY = CoeffVector((1, 3, 2))

# one positional argument list for each record class, in field order
RECORDS = [
    (CoxeterMatrix, (2, A2_ROWS, "A2")),
    (GradedReport, (False, [(0, 1)])),
    (SpernerRow, (1, 4, 3, False)),
    (SpernerReport, (True, [SpernerRow(1, 3, 3, True)])),
    (OrderComplex, ([1, 2], [frozenset({1}), frozenset({2})])),
    (ShellingVerdict, ("shellable", [0, 1])),
    (NCLattice, (1, [frozenset()], Poset([0], []))),
    (ParabolicDecomposition, (3, frozenset({0}), "right", 2, 1)),
    (SelfMapTable, ("P^{0}", (0, 0, 2))),
    (OrderPreservationReport, (False, [(0, 1)])),
    (MonoidReport, (6, True, True)),
    (OmegaGraph, (BALL, frozenset({1}), {1: [1]}, 0, arc_table(BALL))),
    (AbsoluteLengthTable, (BALL, 0, [0, 1], [-1, 0], [-1, 1])),
    (RefinementReport, (True, [(0, 1, True)], 1)),
    (CoeffVector, ((1, 2), True)),
    (DihedralFormulaRecord, (5, 1, 2, 3, 4, POLY)),
    (CurvatureRecord, (0, 1, Fraction(1, 2), {(0, 1): Fraction(1)})),
    (ReflectionTable, (BALL, (1, 2))),
]


@pytest.mark.parametrize("cls,args", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_keyword_and_positional_construction_agree(cls, args):
    names = list(inspect.signature(cls).parameters)
    assert len(names) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    for name, value in zip(names, args):
        assert getattr(by_position, name) is value
    assert repr(by_position) == repr(by_keyword)
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, args) if n in cls._fields)
    assert repr(by_position) == f"{cls.__name__}({fields})"
    assert by_position != object()


def test_coxeter_matrix_equality_and_hash_ignore_the_name():
    named, plain = from_rows(A2_ROWS, name="A2"), from_rows(A2_ROWS)
    assert named == plain and hash(named) == hash(plain)
    assert len({named, plain, named_matrix("A2")}) == 1
    assert named != from_rows(((1, 4), (4, 1)))
    assert repr(named) == "CoxeterMatrix(rank=2, entries=((1, 3), (3, 1)), name='A2')"


def test_frozen_records_refuse_assignment_and_hash_by_value():
    for record, field in [(named_matrix("A2"), "rank"), (named_matrix("A2"), "name"),
                          (POLY, "coeffs"), (POLY, "truncated"),
                          (DihedralFormulaRecord(5, 1, 2, 3, 4, POLY), "poly")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert hash(CoeffVector((1, 3, 2))) == hash(POLY)
    again = DihedralFormulaRecord(5, 1, 2, 3, 4, CoeffVector((1, 3, 2)))
    assert {again: 1}[DihedralFormulaRecord(5, 1, 2, 3, 4, POLY)] == 1


def test_mutable_records_are_not_hashable():
    for cls, args in RECORDS:
        if cls not in (CoxeterMatrix, CoeffVector, DihedralFormulaRecord):
            with pytest.raises(TypeError):
                hash(cls(*args))


def test_validation_in_the_constructor():
    with pytest.raises(MatrixError, match="not symmetric"):
        CoxeterMatrix(2, ((1, 3), (2, 1)))
    with pytest.raises(DomainError, match="canonical form"):
        CoeffVector((1, 0))


def test_default_lists_are_not_shared():
    for cls, attr in [(GradedReport, "bad_covers"),
                      (OrderPreservationReport, "violations"),
                      (RefinementReport, "containments")]:
        first, second = cls(True), cls(True)
        assert getattr(first, attr) == [] and getattr(first, attr) is not getattr(second, attr)
        getattr(first, attr).append((0, 1))
        assert getattr(cls(True), attr) == []
    assert RefinementReport(True).equals_bruhat_at is None
    assert ShellingVerdict("inconclusive").order is None
    assert CoeffVector((1,)).truncated is False


def test_omega_graph_table_is_left_out_of_eq_and_repr(table_a2):
    graph = omega_graph(table_a2.ball, frozenset(table_a2.reflections))
    other = OmegaGraph(graph.ball, graph.x_set, graph.rows, graph.boundary_skips, None)
    assert other == graph
    assert repr(other) == repr(graph)
    assert "table" not in repr(graph)


def test_import_of_the_cli_loads_no_code_generation_modules():
    # -S keeps the .pth imports of site-packages out of sys.modules
    code = ("import sys, coxkit.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', "
            "'tokenize', 'copy', 'csv') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == []
