import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import QhcError, TruthTable, half_adder_truth_table, parse_truth_table, serialize
from qhckit.errors import InvalidParameter, ParseError, ValidationError
from qhckit.gates import half_adder_closed_form
from qhckit.linalg import cycle_spectrum, exp_from_spectrum, hermitian_generator
from qhckit.serialize import emit_matrix, emit_truth_table, matrix_text

from oracles import (
    emit_matrix_oracle,
    emit_truth_table_oracle,
    matrix_document_oracle,
    orbit_permutation,
    parse_truth_table_oracle,
    read_matrix,
)

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


@pytest.mark.parametrize("k", [1, 20])
@pytest.mark.parametrize("layout", ["one line", "emitted header"])
def test_a_document_without_rows_misses_its_first_row(k, layout):
    # At k = 20 the empty key field starts 16 bytes into the reader's 8-byte
    # pad, so the reader must return before it views that field.
    if layout == "one line":
        doc = f'{{"inputs": {k}, "output_qubits": 1, "rows": []}}'
    else:  # the grid reader matches the header, then leaves the document to the decoder
        doc = f'{{\n  "inputs": {k},\n  "output_qubits": 1,\n  "rows": [\n\n  ]\n}}\n'
    with pytest.raises(ValidationError, match=f"^missing input row '{'0' * k}'$"):
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


@pytest.mark.parametrize("doc", ["5", "null", "true", '"x"', "[]"])
def test_a_document_that_is_not_an_object_is_a_parse_error(doc):
    # Without the check, "field not in doc" raises TypeError on a number or a
    # literal and finds no field in a string or an array.
    for document in (doc, doc.encode()):
        with pytest.raises(ParseError, match="^expected a JSON object, got "):
            parse_truth_table(document)


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_bytes_are_utf8_without_a_byte_order_mark(encoding):
    # json.loads guesses the encoding of bytes and takes all three; a
    # document in bytes must be UTF-8, as a table file must.
    data = HALF_ADDER_DOC.encode(encoding)
    assert json.loads(data) == json.loads(HALF_ADDER_DOC)
    for document in (data, bytearray(data)):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            parse_truth_table(document)


# Python refuses to convert an integer literal longer than int_max_str_digits
# (4,300 by default).
HUGE_COUNT = "9" * 5001


@pytest.mark.parametrize(
    "parse, doc",
    [(parse_truth_table, f'{{"inputs": {HUGE_COUNT}, "output_qubits": 2, "rows": []}}')],
    ids=["truth-table"],
)
def test_an_integer_too_long_to_convert_is_a_parse_error(parse, doc):
    with pytest.raises(ParseError, match="invalid JSON"):
        parse(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_parse_errors(literal):
    # Plain json.loads accepts the literal in an extra field; the reader must not.
    text = HALF_ADDER_DOC.replace('"rows"', f'"note": {literal}, "rows"')
    assert json.loads(text)["rows"] == json.loads(HALF_ADDER_DOC)["rows"]
    with pytest.raises(ParseError) as info:
        parse_truth_table(text)
    assert str(info.value) == f"non-finite literal {literal!r} is not allowed"


def test_matrix_json_round_trip_is_exact():
    matrix = half_adder_closed_form(0.3, 0.4)
    again = read_matrix(emit_matrix(matrix, "json"))
    assert np.array_equal(matrix, again)


def test_four_cycle_matrix_emits_plain_zeros_and_ones():
    four_cycle = orbit_permutation((0, 1, 2, 3), 4)
    doc = emit_matrix(four_cycle, "json")
    parsed = read_matrix(doc)
    assert np.array_equal(parsed, four_cycle)
    values = {
        part
        for row in json.loads(doc)["entries"]
        for cell in row
        for part in (cell["re"], cell["im"])
    }
    assert values == {0.0, 1.0}


def test_half_adder_json_first_column():
    parsed = read_matrix(emit_matrix(half_adder_closed_form(1, 0), "json"))
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
    # matrix_text refuses on the call itself, before any chunk is drawn.
    for writer in (emit_matrix, matrix_text):
        with pytest.raises(InvalidParameter):
            writer(np.eye(2), "yaml")
        with pytest.raises(InvalidParameter):
            writer(np.zeros((2, 3)))
        with pytest.raises(InvalidParameter):
            writer(np.array([[np.nan]]))


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
    again = read_matrix(emit_matrix(matrix, "json"))
    assert np.array_equal(matrix, again)


def test_emit_truth_table_sorts_rows():
    rows = {(1, 1): "11", (0, 0): "00", (1, 0): "01", (0, 1): "01"}
    text = emit_truth_table(TruthTable(2, 2, rows))
    order = [line.split('"')[3] for line in text.splitlines() if '"in"' in line]
    assert order == ["00", "01", "10", "11"]


def test_emit_parse_emit_is_byte_identical_at_twelve_inputs():
    # A non-symmetric table: row i maps to (i * 2654435761) mod 8.
    rows = {
        bits: format(i * 2654435761 % 8, "03b")
        for i, bits in enumerate(itertools.product((0, 1), repeat=12))
    }
    built = TruthTable(12, 3, rows)
    text = emit_truth_table(built)
    parsed = parse_truth_table(text)
    assert parsed == built
    assert emit_truth_table(parsed) == text
    assert emit_truth_table(parse_truth_table(emit_truth_table(parsed))) == text
    assert text.count("\n") == 2**12 + 6


# Values an "in" or "out" field may take: bit strings of several widths
# ("01" next to "1"), empty strings, other text and non-strings.
FIELD_VALUES = st.one_of(
    st.text(alphabet="01", max_size=4),
    st.sampled_from(["", "2", "0a", " 1", "1\n", "\u0661", "\uff10", "0\x00"]),
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.sampled_from(["0", "1"]), max_size=2),
    st.dictionaries(st.sampled_from(["in", "out"]), st.just("0"), max_size=1),
)
NON_OBJECTS = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.text(alphabet="01", max_size=2),
    st.lists(st.just("0"), max_size=2),
)
HEADER_EDITS = st.sampled_from(
    [None] * 40 + [
        ("inputs", 0), ("inputs", 65), ("inputs", "2"), ("inputs", True), ("inputs", 1.0),
        ("output_qubits", 0), ("output_qubits", 21), ("output_qubits", None), ("rows", {}),
    ]
)


@st.composite
def truth_table_documents(draw):
    """A complete table's document with 0-4 edits that may break it."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    labels = st.text(alphabet="01", min_size=n, max_size=n)
    rows = [{"in": format(i, f"0{k}b"), "out": draw(labels)} for i in range(2**k)]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(
            st.sampled_from(["in", "out", "width", "drop", "non-object", "remove", "copy", "extra"])
        )
        at = draw(st.integers(0, len(rows)))
        if edit == "extra":
            rows.insert(at, {"in": draw(FIELD_VALUES), "out": draw(FIELD_VALUES)})
        elif at == len(rows):
            continue
        elif edit == "non-object":
            rows[at] = draw(NON_OBJECTS)
        elif edit == "remove":
            del rows[at]
        elif edit == "copy":
            rows.insert(draw(st.integers(0, len(rows))), rows[at])
        elif not isinstance(rows[at], dict):
            continue
        elif edit in ("in", "out"):
            rows[at] = {**rows[at], edit: draw(FIELD_VALUES)}
        elif edit == "width":
            field = draw(st.sampled_from(["in", "out"]))
            rows[at] = {**rows[at], field: draw(st.text(alphabet="01", min_size=1, max_size=4))}
        else:  # drop a field
            dropped = draw(st.sampled_from(["in", "out"]))
            rows[at] = {f: v for f, v in rows[at].items() if f != dropped}
    doc = {"inputs": k, "output_qubits": n, "rows": rows}
    header = draw(HEADER_EDITS)
    if header is not None:
        doc[header[0]] = header[1]
    return json.dumps(doc)


def outcome(parse, text):
    try:
        return parse(text)
    except QhcError as exc:
        return type(exc), str(exc)


def parsed_alike(text):
    """parse_truth_table's outcome for a document, the same from its str, bytes and bytearray.

    The byte forms of a document the grid reads never reach the JSON decoder.
    """
    want = outcome(parse_truth_table, text)
    gridded = serialize._read_emitted_layout(text) is not None
    data = text.encode()
    for document in (data, bytearray(data)):
        with mock.patch.object(serialize, "_read_json", wraps=serialize._read_json) as decoder:
            assert outcome(parse_truth_table, document) == want
        assert decoder.called is not gridded, (type(document), gridded)
    return want


@settings(max_examples=400, deadline=None)
@given(truth_table_documents())
def test_parser_matches_the_row_by_row_oracle(text):
    want = outcome(parse_truth_table_oracle, text)
    got = parsed_alike(text)
    if isinstance(got, TruthTable):
        k, n, rows, labels_by_weight = want
        assert (got.input_count, got.output_qubits, dict(got.rows)) == (k, n, rows)
        assert got.labels_by_weight == labels_by_weight
        assert got == TruthTable(k, n, rows)
    else:
        assert got == want


@pytest.mark.parametrize(
    "rows, match",
    [
        # A parse fault in a later row wins over a width fault in an earlier one.
        ([("1", "00"), ("01", "01"), ("10", 7)], "row 2: 'out' must be"),
        # So does a duplicate; "1" and "01" are different inputs.
        ([("1", "00"), ("01", "01"), ("01", "01")], "row 2: duplicate input row '01'"),
        ([("00", "00"), ("1", "01"), ("01", "01")], r"row 1: input \(1,\) is not 2 bits"),
        # A fault in the "in" field of a row is named before one in its "out".
        ([("00", "00"), ("0x", "x")], "row 1: 'in' must be"),
    ],
)
def test_first_fault_in_document_order_wins(rows, match):
    doc = json.dumps(
        {"inputs": 2, "output_qubits": 2, "rows": [{"in": i, "out": o} for i, o in rows]}
    )
    with pytest.raises(QhcError, match=match):
        parse_truth_table(doc)
    with pytest.raises(QhcError, match=match):
        parse_truth_table_oracle(doc)


# Faults for the last rows of a one-line k = 12, N = 3 document.
LAST_ROW_FAULTS = {
    "not-an-object": lambda row: 7,
    "non-string-in": lambda row: {**row, "in": 12},
    "bad-out": lambda row: {**row, "out": "01x"},
    "duplicate-input": lambda row: {**row, "in": "0" * 12},
    "thirteen-bit-input": lambda row: {**row, "in": row["in"] + "0"},
    "two-bit-label": lambda row: {**row, "out": "01"},
}


@pytest.mark.parametrize(
    "faults",
    [(name,) for name in LAST_ROW_FAULTS]
    + [("thirteen-bit-input", "bad-out"), ("two-bit-label", "duplicate-input")],
    ids="-then-".join,
)
def test_the_row_walk_reaches_the_last_row(faults):
    # The last fault goes in the last row.  Of two, the later row's fault
    # is one checked sooner, so it wins.
    rows = [{"in": format(i, "012b"), "out": format(i % 8, "03b")} for i in range(2**12)]
    for at, name in enumerate(faults, len(rows) - len(faults)):
        rows[at] = LAST_ROW_FAULTS[name](rows[at])
    text = json.dumps({"inputs": 12, "output_qubits": 3, "rows": rows})
    want = outcome(parse_truth_table_oracle, text)
    assert want[1].startswith("row 4095: "), want
    assert outcome(parse_truth_table, text) == want


def table_with_labels(k, n, labels):
    rows = itertools.product((0, 1), repeat=k)
    return TruthTable(k, n, {bits: format(label, f"0{n}b") for bits, label in zip(rows, labels)})


def split_rows(text):
    """An emitted document as its header, its row lines and its footer."""
    head, bracket, rest = text.partition("[\n")
    body, bracket_end, tail = rest.rpartition("\n  ]")
    return head + bracket, body.split(",\n"), bracket_end + tail


def join_rows(head, rows, tail):
    return head + ",\n".join(rows) + tail


@pytest.mark.parametrize("shuffle", [False, True])
def test_emitted_layout_is_read_without_the_json_decoder(monkeypatch, shuffle):
    # The grid reads exactly the bytes emit_truth_table writes; the same rows
    # in another order are left to the decoder, which reads the same table.
    def no_decoder(text):
        raise AssertionError("the JSON decoder ran")

    if not shuffle:
        monkeypatch.setattr(serialize, "_load_json", no_decoder)
    rng = np.random.default_rng(7)
    for k, n in itertools.product(range(1, 13), range(1, 4)):
        table = table_with_labels(k, n, rng.integers(0, 2**n, 2**k).tolist())
        head, rows, tail = split_rows(emit_truth_table(table))
        if shuffle:
            rows = rng.permutation(rows).tolist()
        text = join_rows(head, rows, tail)
        in_order = text == emit_truth_table(table)
        assert (serialize._read_emitted_layout(text) is None) == (not in_order)
        parsed = parsed_alike(text)
        assert parsed == table and parsed.labels_by_weight == table.labels_by_weight


def anywhere(draw, text, chars=None):
    """A position in the text, uniform over it or over the given characters."""
    positions = [at for at, char in enumerate(text) if chars is None or char in chars]
    return draw(st.randoms(use_true_random=False)).choice(positions or [0])


def flip_a_bit(draw, text):
    at = anywhere(draw, text)
    return text[:at] + chr(ord(text[at]) ^ 1 << draw(st.integers(0, 6))) + text[at + 1 :]


def change_whitespace(draw, text):
    at = anywhere(draw, text, " \n")
    return text[:at] + draw(st.sampled_from(["", "  ", "\t", "\n", " \n"])) + text[at + 1 :]


def escape_a_zero(draw, text):
    at = anywhere(draw, text, "0")
    return text[:at] + "\\u0030" + text[at + 1 :] if text[at] == "0" else text


def lead_a_count_with_zero(draw, text):
    field = draw(st.sampled_from(['"inputs": ', '"output_qubits": ']))
    return text.replace(field, field + "0", 1)


def insert_non_ascii(draw, text):
    at = anywhere(draw, text)
    return text[:at] + draw(st.sampled_from(["\u00e9", "\u0660", "\u00a0", "\ufeff"])) + text[at:]


TEXT_EDITS = [
    flip_a_bit,
    change_whitespace,
    escape_a_zero,
    lead_a_count_with_zero,
    insert_non_ascii,
    lambda draw, text: text.replace("\n", "\r\n"),
]


@st.composite
def edited_emitted_documents(draw):
    """An emitted table, rows maybe shuffled, with up to two row edits and two text edits."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    labels = draw(st.lists(st.integers(0, 2**n - 1), min_size=2**k, max_size=2**k))
    head, rows, tail = split_rows(emit_truth_table(table_with_labels(k, n, labels)))
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "repeat", "extra field"]))
        at = draw(st.integers(0, len(rows) - 1))
        if edit == "drop" and len(rows) > 1:
            del rows[at]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[at])
        elif edit == "extra field":
            rows[at] = rows[at][:-1] + ', "note": 1}'
    text = join_rows(head, rows, tail)
    for _ in range(draw(st.integers(0, 2))):
        text = draw(st.sampled_from(TEXT_EDITS))(draw, text)
    return text


def oracle_outcome(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return ParseError, f"invalid JSON: {exc}"
    return outcome(parse_truth_table_oracle, text)


def assert_matches_the_oracle(text):
    want, got = oracle_outcome(text), parsed_alike(text)
    if isinstance(got, TruthTable):
        k, n, rows, labels_by_weight = want
        assert (got.input_count, got.output_qubits, dict(got.rows)) == (k, n, rows)
        assert got.labels_by_weight == labels_by_weight
    else:
        assert got == want


@settings(max_examples=400, deadline=None)
@given(edited_emitted_documents())
def test_edited_emitted_documents_match_the_row_by_row_oracle(text):
    assert_matches_the_oracle(text)


def test_every_changed_byte_of_an_emitted_document_matches_the_oracle():
    # Each edit keeps the length, so only the byte checks stand between the
    # edited document and the grid reader.
    head, rows, tail = split_rows(emit_truth_table(table_with_labels(2, 2, [0, 1, 1, 3])))
    text = join_rows(head, rows[::-1], tail)
    for at, char in enumerate(text):
        for new in [chr(ord(char) ^ 1 << bit) for bit in range(7)] + ["\u0660"]:
            assert_matches_the_oracle(text[:at] + new + text[at + 1 :])


@pytest.mark.parametrize("shuffle", [False, True])
def test_changed_bytes_at_block_boundaries_match_the_oracle(shuffle):
    # The grid reader checks whole rows a block at a time; the edits sit on
    # each block's first and last byte, inside the partial last block, and
    # in the last row's separator slot, where the footer starts.
    head, rows, tail = split_rows(emit_truth_table(table_with_labels(11, 2, np.arange(2**11) % 4)))
    if shuffle:
        rows = np.random.default_rng(11).permutation(rows).tolist()
    text = join_rows(head, rows, tail)
    stride = len(rows[0]) + len(",\n")
    block = serialize._BLOCK_BYTES // stride * stride
    body = len(rows) * stride - len(",\n")
    starts = range(len(head), len(head) + body, block)
    assert len(starts) >= 3 and body % block, "need three blocks and a partial last one"
    last = starts[-1] + (body - starts[-1]) // stride // 2 * stride
    row = rows[(last - len(head)) // stride]
    at = [a for start in starts for a in (start, min(start + block, len(head) + body) - 1)]
    first_in, last_out = row.index('"in": "') + len('"in": "'), len(row) - len('"}') - 1
    at += [last + row.index('"in"'), last + first_in, last + last_out]
    at += [len(head) + body, len(head) + body + 1]
    for position in at:
        for bit in range(7):
            changed = chr(ord(text[position]) ^ 1 << bit)
            assert_matches_the_oracle(text[:position] + changed + text[position + 1 :])


def decoded(text):
    """The table the JSON decoder reads from a document."""
    return TruthTable(*serialize._read_json(text))


def field_span(row, name):
    """Where the bits of a row line's "in" or "out" field start and end."""
    start = row.index(f'"{name}": "') + len(name) + len('"": "')
    return start, row.index('"', start)


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 15, 16, 17])
def test_changed_bytes_at_chunk_boundaries(k, shuffle):
    # Keys and labels are read eight bit bytes per word; the edits flip the
    # first and last bit of each word, in the first and last row.  The
    # row-by-row oracle takes seconds per document from k = 15 on, so there a
    # changed input must leave the document to the decoder, which the other
    # tests hold to the oracle, and a changed output must change one label bit.
    # Shuffled rows are the decoder's alone, which reads the same words of
    # the joined keys and labels.
    rng = np.random.default_rng(k)
    for n in [1, 7, 8, 9] + [20] * (k <= 4):
        labels = rng.integers(0, 2**n, 2**k).tolist()
        head, ordered, tail = split_rows(emit_truth_table_oracle(k, n, labels))
        rows = rng.permutation(ordered).tolist() if shuffle else ordered
        text = join_rows(head, rows, tail)
        assert (serialize._read_emitted_layout(text) is None) == (rows != ordered)
        parsed, want = parse_truth_table(text), decoded(text)
        assert (parsed.input_count, parsed.output_qubits) == (k, n)
        assert np.array_equal(parsed.label_indices, want.label_indices)
        assert parsed.labels_by_weight == want.labels_by_weight
        stride = len(rows[0]) + len(",\n")
        for index in (0, len(rows) - 1):
            row, at = rows[index], len(head) + index * stride
            key = row[slice(*field_span(row, "in"))]
            for name in ("in", "out"):
                start, end = field_span(row, name)
                words = range(start, end, 8)
                for offset in sorted({b for w in words for b in (w, min(w + 8, end) - 1)}):
                    flip = chr(ord(row[offset]) ^ 1)
                    changed = text[: at + offset] + flip + text[at + offset + 1 :]
                    if k < 15:
                        assert_matches_the_oracle(changed)
                    elif name == "in":
                        assert serialize._read_emitted_layout(changed) is None
                    else:
                        flipped = want.label_indices.copy()
                        flipped[int(key, 2)] ^= 1 << (end - 1 - offset)
                        assert np.array_equal(parse_truth_table(changed).label_indices, flipped)


@pytest.mark.parametrize("k, n", [(7, 9), (8, 8), (9, 7), (15, 9), (16, 8), (17, 7), (3, 20)])
def test_every_source_reads_the_same_packed_columns(k, n):
    # Keys and labels joined without gaps are read eight bits per word too:
    # a field spans one, two or three words, and the last row's word reads
    # past its field into the padding.
    rng = np.random.default_rng(k)
    labels = rng.integers(0, 2**n, 2**k)
    emitted = parse_truth_table(emit_truth_table_oracle(k, n, labels.tolist()))
    assert np.array_equal(emitted.label_indices, labels)
    # Both other sources list the rows in one shuffled order.
    order = rng.permutation(2**k).tolist()
    keys = list(itertools.product((0, 1), repeat=k))
    outs = [format(label, f"0{n}b") for label in labels[order].tolist()]
    rows = [{"in": format(i, f"0{k}b"), "out": out} for i, out in zip(order, outs)]
    one_line = json.dumps({"inputs": k, "output_qubits": n, "rows": rows})
    assert serialize._read_emitted_layout(one_line) is None
    built = TruthTable(k, n, {keys[i]: out for i, out in zip(order, outs)})
    for table in (built, parse_truth_table(one_line)):
        assert np.array_equal(table.label_indices, emitted.label_indices)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_counting_order_shuffled_and_repeated_keys_match_the_oracle(k, n, seed, data):
    # Keys in counting order are read by the grid reader; any other order, or
    # a repeated key, leaves the document to the decoder, which names the row.
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2**n, 2**k).tolist()
    head, rows, tail = split_rows(emit_truth_table_oracle(k, n, labels))
    at, source = data.draw(st.lists(st.integers(0, 2**k - 1), min_size=2, max_size=2, unique=True))
    start, end = field_span(rows[at], "in")
    repeated = rows.copy()
    repeated[at] = rows[at][:start] + rows[source][start:end] + rows[at][end:]
    for layout in (rows, rng.permutation(rows).tolist(), repeated):
        text = join_rows(head, layout, tail)
        assert (serialize._read_emitted_layout(text) is None) == (layout != rows)
        want, got = outcome(parse_truth_table_oracle, text), parsed_alike(text)
        if isinstance(got, TruthTable):
            _, _, oracle_rows, labels_by_weight = want
            keys = itertools.product((0, 1), repeat=k)
            assert got.label_indices.tolist() == [int(oracle_rows[bits], 2) for bits in keys]
            assert got.labels_by_weight == labels_by_weight
        else:
            assert got == want


def test_the_grid_layout_cache_is_bounded_and_read_only():
    # More shapes than the cache holds: it stays at its maxsize, and nothing
    # it keeps can be written through.
    layout = serialize._grid_layout
    shapes = list(itertools.product(range(1, 7), range(1, 5)))
    assert len(shapes) > layout.cache_info().maxsize
    for k, n in shapes:
        parse_truth_table(emit_truth_table_oracle(k, n, [0] * 2**k))
        assert layout.cache_info().currsize <= layout.cache_info().maxsize
        hits = layout.cache_info().hits
        *_, expected, mask = layout(k, n)
        assert layout.cache_info().hits == hits + 1
        assert not (expected.flags.writeable or mask.flags.writeable)


def test_an_over_cap_count_is_refused_alike_in_both_layouts():
    # The grid holds no cap: it reads 21-bit labels, and TruthTable refuses
    # the count with the decoder's message.  An input count above 64 cannot
    # match the grid's length, so that document goes to the decoder.
    text = (
        '{\n  "inputs": 2,\n  "output_qubits": 21,\n  "rows": [\n'
        + ",\n".join(f'    {{"in": "{i:02b}", "out": "{i:021b}"}}' for i in range(4))
        + "\n  ]\n}\n"
    )
    assert serialize._read_emitted_layout(text) is not None
    refused = (ValidationError, "output qubit count must be 1 to 20, got 21")
    for document in (text, json.dumps(json.loads(text))):
        assert outcome(parse_truth_table, document) == refused
        assert outcome(parse_truth_table_oracle, document) == refused
    text = HALF_ADDER_DOC.replace('"inputs": 2', '"inputs": 65')
    assert serialize._read_emitted_layout(text) is None
    refused = (ValidationError, "input count must be 1 to 64, got 65")
    assert outcome(parse_truth_table, text) == outcome(parse_truth_table_oracle, text) == refused


def test_emitted_table_is_read_in_less_than_two_and_a_half_times_its_length():
    # The encoded text is one copy of the document; no temporary of the
    # byte checks may grow with it.
    text = emit_truth_table(table_with_labels(14, 3, np.arange(2**14) % 8))
    tracemalloc.start()
    try:
        parse_truth_table(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), (peak, len(text))


def test_matrix_emission_holds_one_row_of_cells_at_a_time():
    # 65,536 cells: one object per cell, all held at once, would peak at
    # several times the text.
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            size = len(emit_matrix(matrix, fmt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The text itself, the row lines it is joined from, and one row.
        assert peak < 3 * size, (fmt, peak, size)


def _signed_zeros(rng, matrix):
    """``matrix`` with about a fifth of its real and imaginary parts set to -0.0."""
    matrix = np.array(matrix, dtype=complex)
    matrix.real[rng.random(matrix.shape) < 0.2] = -0.0
    matrix.imag[rng.random(matrix.shape) < 0.2] = -0.0
    return matrix


def _writer_matrices(kind):
    """One kind of matrix at d = 1..64, or a cycle's H and U(s) for L = 1, 2, 3, 4 and 7."""
    rng = np.random.default_rng(7)
    if kind == "orbit":
        for orbit, dim in [((0,), 1), ((0,), 4), ((0, 1), 2), ((0, 1, 3), 4), ((0, 2, 1, 3), 4),
                           ((0, 1, 3, 5, 6, 2, 4), 8), ((0, 1, 3, 5, 6, 2, 4), 32)]:
            spectrum = cycle_spectrum(orbit, dim)
            yield hermitian_generator(spectrum)
            for s in (0.3, 1, 2.5, 1e15 + 0.5, -0.7, 5e-324):
                yield exp_from_spectrum(spectrum, s)
        return
    if kind == "empty":
        yield np.zeros((0, 0))
        return
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 24, 32, 48, 64):
        dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sparse = dense * (rng.random((d, d)) < 0.2)
        yield {
            "dense": lambda: dense,
            "sparse": lambda: sparse,
            "signed zeros": lambda: _signed_zeros(rng, np.zeros((d, d))),
            "sparse with signed zeros": lambda: _signed_zeros(rng, sparse),
            "extremes": lambda: np.where(rng.random((d, d)) < 0.5, 5e-324 - 1e308j, -1e308 + 0j),
            "tiny": lambda: rng.standard_normal((d, d)) * 1e-300,
            "integer": lambda: rng.integers(-3, 4, (d, d)),
            "identity": lambda: np.eye(d),
            "fortran order": lambda: np.asfortranarray(sparse),
            "transposed": lambda: dense.T,
            "strided": lambda: _signed_zeros(rng, rng.standard_normal((2 * d, 2 * d)))[::2, 1::2],
        }[kind]()


@pytest.mark.parametrize(
    "kind",
    [
        "dense", "sparse", "signed zeros", "sparse with signed zeros", "extremes", "tiny",
        "integer", "identity", "fortran order", "transposed", "strided", "empty", "orbit",
    ],
)
def test_matrix_writers_match_the_per_cell_oracle(kind):
    # The writers format only cells with a bit set and share one zero cell;
    # the oracle builds a dict per cell.  A -0.0 part must still read -0.0.
    # The nested layout is json.dumps's text of the oracle two objects deep.
    for matrix in _writer_matrices(kind):
        for fmt in ("json", "csv"):
            assert emit_matrix(matrix, fmt) == emit_matrix_oracle(matrix, fmt), (kind, fmt)
        nested = json.dumps({"unitary": {"matrix": matrix_document_oracle(matrix)}}, indent=2)
        text = "".join(matrix_text(matrix, "nested"))
        assert '{\n  "unitary": {\n    "matrix": ' + text + "\n  }\n}" == nested, kind


def test_matrix_text_streams_every_layout_a_row_at_a_time():
    # U(0.3) of a 7-state orbit at d = 512: 505 of its rows hold one cell
    # each, and its three layouts are about 26 MB of text.
    unitary = exp_from_spectrum(cycle_spectrum((0, 1, 3, 5, 6, 2, 4), 512), 0.3)
    size = 0
    tracemalloc.start()
    try:
        for fmt in ("json", "csv", "nested"):
            for chunk in matrix_text(unitary, fmt):
                size += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 16 * 2**20 and peak < 2**20, (size, peak)
