import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import TruthTable, half_adder_truth_table, parse_truth_table
from qhckit.errors import InvalidParameter, ParseError, ValidationError
from qhckit.gates import half_adder_closed_form
from qhckit.serialize import emit_matrix, emit_truth_table, parse_matrix

from oracles import orbit_permutation

HALF_ADDER_DOC = """\
{
  "inputs": 2,
  "output_qubits": 2,
  "rows": [
    {"in": "00", "out": "00"},
    {"in": "01", "out": "01"},
    {"in": "10", "out": "01"},
    {"in": "11", "out": "11"}
  ]
}
"""


def test_parse_half_adder_document():
    table = parse_truth_table(HALF_ADDER_DOC)
    assert table == half_adder_truth_table()


def test_truth_table_round_trip():
    table = half_adder_truth_table()
    assert parse_truth_table(emit_truth_table(table)) == table
    assert emit_truth_table(table) == HALF_ADDER_DOC


def test_missing_row_names_the_absent_input():
    doc = HALF_ADDER_DOC.replace('    {"in": "10", "out": "01"},\n', "")
    with pytest.raises(ValidationError, match="10"):
        parse_truth_table(doc)


def test_non_bit_output_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_truth_table(HALF_ADDER_DOC.replace('"out": "11"', '"out": "2x"'))


def test_duplicate_row_is_a_validation_error():
    doc = HALF_ADDER_DOC.replace('{"in": "10", "out": "01"}', '{"in": "01", "out": "01"}')
    with pytest.raises(ValidationError, match="duplicate"):
        parse_truth_table(doc)


def test_wrong_width_is_a_validation_error():
    with pytest.raises(ValidationError, match="row 3"):
        parse_truth_table(HALF_ADDER_DOC.replace('"in": "11"', '"in": "111"'))
    with pytest.raises(ValidationError, match="expected 2"):
        parse_truth_table(HALF_ADDER_DOC.replace('"out": "11"', '"out": "1"'))


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: "not json",
        lambda d: "[1, 2]",
        lambda d: d.replace('"inputs": 2', '"inputs": "2"'),
        lambda d: d.replace('"inputs": 2,\n', ""),
        lambda d: d.replace('{"in": "00", "out": "00"}', "7"),
        lambda d: '{"inputs": 2, "output_qubits": 2, "rows": 3}',
    ],
)
def test_malformed_documents_are_parse_errors(mangle):
    with pytest.raises(ParseError):
        parse_truth_table(mangle(HALF_ADDER_DOC))


def test_nan_literal_rejected():
    with pytest.raises(ParseError):
        parse_matrix('{"dim": 1, "entries": [[{"re": NaN, "im": 0}]]}')


def test_matrix_json_round_trip_is_exact():
    matrix = half_adder_closed_form(0.3, 0.4)
    again = parse_matrix(emit_matrix(matrix, "json"))
    assert np.array_equal(matrix, again)


def test_four_cycle_matrix_emits_plain_zeros_and_ones():
    four_cycle = orbit_permutation((0, 1, 2, 3), 4)
    doc = emit_matrix(four_cycle, "json")
    parsed = parse_matrix(doc)
    assert np.array_equal(parsed, four_cycle)
    values = {
        part
        for row in json.loads(doc)["entries"]
        for cell in row
        for part in (cell["re"], cell["im"])
    }
    assert values == {0.0, 1.0}


def test_half_adder_json_first_column():
    parsed = parse_matrix(emit_matrix(half_adder_closed_form(1, 0), "json"))
    assert np.max(np.abs(parsed[:, 0] - np.array([0, 1, 0, 0]))) < 1e-12


def test_csv_identity():
    lines = emit_matrix(np.eye(4), "csv").splitlines()
    assert lines == ["1+0i,0+0i,0+0i,0+0i"] * 1 + [
        "0+0i,1+0i,0+0i,0+0i",
        "0+0i,0+0i,1+0i,0+0i",
        "0+0i,0+0i,0+0i,1+0i",
    ]


def test_csv_cells():
    matrix = np.array([[0.5 - 0.25j, -2 + 1j], [1e-3 + 0j, complex(1, -0.0)]])
    lines = emit_matrix(matrix, "csv").splitlines()
    assert lines[0] == "0.5-0.25i,-2+1i"
    assert lines[1] == "0.001+0i,1+0i"


def test_emit_matrix_rejects_bad_arguments():
    with pytest.raises(InvalidParameter):
        emit_matrix(np.eye(2), "yaml")
    with pytest.raises(InvalidParameter):
        emit_matrix(np.zeros((2, 3)))
    with pytest.raises(InvalidParameter):
        emit_matrix(np.array([[np.nan]]))


@pytest.mark.parametrize(
    "doc",
    [
        '{"dim": 2, "entries": [[{"re": 0, "im": 0}]]}',
        '{"dim": 1, "entries": [[{"re": 0}]]}',
        '{"dim": 1, "entries": [[{"re": "0", "im": 0}]]}',
        '{"dim": 0, "entries": []}',
        '{"entries": []}',
        "[]",
    ],
)
def test_parse_matrix_rejects_bad_documents(doc):
    with pytest.raises(ParseError):
        parse_matrix(doc)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        min_size=4,
        max_size=4,
    )
)
def test_matrix_round_trip_arbitrary_floats(cells):
    matrix = np.array([complex(re, im) for re, im in cells]).reshape(2, 2)
    again = parse_matrix(emit_matrix(matrix, "json"))
    assert np.array_equal(matrix, again)


def test_emit_truth_table_sorts_rows():
    rows = {(1, 1): "11", (0, 0): "00", (1, 0): "01", (0, 1): "01"}
    text = emit_truth_table(TruthTable(2, 2, rows))
    order = [line.split('"')[3] for line in text.splitlines() if '"in"' in line]
    assert order == ["00", "01", "10", "11"]
