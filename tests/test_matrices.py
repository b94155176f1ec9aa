from __future__ import annotations

import pytest

from coxkit import INF, CoxeterMatrix, named_matrix, parse_coxeter_matrix
from coxkit.matrices import (MatrixError, from_rows, longest_length,
                             matrix_from_json_dict)


def test_named_types_validate():
    for name in ("A1", "A3", "B4", "C3", "D4", "E6", "E7", "E8", "F4", "G2",
                 "H3", "H4", "I2(5)", "I2(inf)", "affA2", "affC2", "affG2"):
        m = named_matrix(name)
        assert m.rank >= 1


def test_b_type_convention():
    b3 = named_matrix("B3")
    assert b3.m(0, 1) == 4
    assert b3.m(1, 2) == 3
    assert b3.entries == named_matrix("C3").entries


def test_i2_variants():
    assert named_matrix("I2(7)").m(0, 1) == 7
    assert named_matrix("I2(inf)").m(0, 1) == INF
    with pytest.raises(MatrixError):
        named_matrix("I2(1)")


def test_unknown_name_rejected():
    for bad in ("Z3", "E5", "F5", "H5", "D3", "B1", ""):
        with pytest.raises(MatrixError):
            named_matrix(bad)


def test_parse_explicit():
    m = parse_coxeter_matrix("1 3; 3 1")
    assert m.rank == 2 and m.m(0, 1) == 3
    m = parse_coxeter_matrix("1 inf; inf 1")
    assert m.m(0, 1) == INF


def test_parse_named_passthrough():
    assert parse_coxeter_matrix("A3").entries == named_matrix("A3").entries


def test_parse_rejects_zero_token():
    with pytest.raises(MatrixError):
        parse_coxeter_matrix("1 3; 3 0")


def test_parse_rejects_malformed():
    for bad in ("", "1 3; 3", "1 x; x 1", "2 3; 3 1", "1 3; 4 1", "1 1; 1 1"):
        with pytest.raises(MatrixError):
            parse_coxeter_matrix(bad)


def test_validation():
    with pytest.raises(MatrixError):
        CoxeterMatrix(rank=0, entries=())
    with pytest.raises(MatrixError):
        from_rows([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(MatrixError):
        from_rows([[2, 3], [3, 1]])  # bad diagonal


def test_longest_lengths():
    expected = {"A3": 6, "A5": 15, "B3": 9, "B4": 16, "D4": 12, "E6": 36,
                "F4": 24, "H3": 15, "H4": 60, "I2(7)": 7, "I2(12)": 12}
    for name, value in expected.items():
        assert longest_length(named_matrix(name)) == value
    assert longest_length(named_matrix("I2(inf)")) is None
    assert longest_length(parse_coxeter_matrix("1 3; 3 1")) is None


def test_e_types_branch_at_node_3():
    # E_n is the path 1-2-...-(n-1) with node 0 attached to node 3;
    # attached to node 2 it would be D_n
    for n in (6, 7, 8):
        e = named_matrix(f"E{n}")
        assert e.entries != named_matrix(f"D{n}").entries
        assert [j for j in range(n) if e.m(0, j) == 3] == [3]


def test_json_round_trip():
    m = named_matrix("B3")
    again = matrix_from_json_dict(m.to_json_dict())
    assert again.entries == m.entries
    inf = named_matrix("I2(inf)")
    assert matrix_from_json_dict(inf.to_json_dict()).m(0, 1) == INF
