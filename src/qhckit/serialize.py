"""Document formats: truth-table JSON and matrix JSON/CSV.

Truth tables travel as line-oriented JSON so diffs stay readable:

    {
      "inputs": 2,
      "output_qubits": 2,
      "rows": [
        {"in": "00", "out": "00"},
        {"in": "01", "out": "01"}
      ]
    }

A document of exactly the bytes emit_truth_table writes, str or bytes, is read
as one byte grid checked a block at a time against ASCII template rows cached
per (inputs, output_qubits).  That check, the header pattern and the footer
match every byte, so the grid needs no ASCII pre-scan.  The JSON decoder
reads any other document, bytes as strict UTF-8.  Both give counting-order labels.

Matrices are written, never read, as {"dim": d, "entries": [[{"re": x,
"im": y}, ...], ...]} in row-major order, or as CSV: one row per line of
"a+bi" cells, for spreadsheets.  Parts are shortest round-trip decimals, so
json.loads gets every entry back bit-exactly.  One walk streams every layout
a row at a time, formatting only cells with a bit set: zeros share one cell.

A malformed truth-table document raises ParseError; a structurally sound
one whose rows break the truth-table invariants raises ValidationError.
Both carry row-level positions.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterator
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import InvalidParameter, ParseError, ValidationError
from .synth import TruthTable, check_row, check_sizes, counting_order

# The layout emit_truth_table writes, and the one parse_truth_table reads
# without a JSON decoder: the header, then one row line per input in counting
# order, joined by the separator, then the footer.
_HEADER = '{\n  "inputs": %d,\n  "output_qubits": %d,\n  "rows": [\n'
_ROW = '    {"in": "%s", "out": "%s"}'
_SEPARATOR = ",\n"
_FOOTER = "\n  ]\n}\n"
# Counts without a leading zero, short enough that int() cannot fail on them.
_HEADER_PATTERN = re.compile(re.escape(_HEADER).replace("%d", "([1-9][0-9]{0,2})").encode())
# The grid reader checks rows about this many bytes at a time, so that each
# block and its temporaries stay in cache and none grows with the document.
_BLOCK_BYTES = 32 * 1024


def _load_json(text: str | bytes) -> Any:
    try:
        # Strict JSON of strict UTF-8: no NaN/Infinity literal anywhere, no UTF-16 or UTF-32.
        text = text if isinstance(text, str) else text.decode()
        return json.loads(text, parse_constant=_reject_constant)
    # ValueError: a UnicodeDecodeError, a JSONDecodeError, or an integer past int_max_str_digits.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _reject_constant(name: str) -> None:
    raise ParseError(f"non-finite literal {name!r} is not allowed")


def parse_truth_table(text: str | bytes) -> TruthTable:
    """Parse and validate a truth-table document: a str, bytes or bytearray."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ParseError(f"expected a str, bytes or bytearray document, got {type(text).__name__}")
    parsed = _read_emitted_layout(text)
    inputs, output_qubits, labels = parsed if parsed is not None else _read_json(text)
    return TruthTable(inputs, output_qubits, labels)


def _read_emitted_layout(text: str | bytes) -> tuple[int, int, np.ndarray] | None:
    """Counts and labels of a document of exactly the bytes emit_truth_table writes, else None.

    Its row lines have one length, so the rows are one byte grid.  Labels
    come back only when the keys run 0..2^k-1 in order; counts are not
    capped here, as TruthTable refuses an over-cap one with the decoder's
    error.  Any other document, valid or not, is left to the decoder: a str
    with a lone surrogate too, whose surrogatepass bytes the grid refuses.
    """
    data = text.encode(errors="surrogatepass") if isinstance(text, str) else text
    header = _HEADER_PATTERN.match(data)
    if header is None:
        return None
    k, n = map(int, header.groups())
    first = header.end()
    count, stride, ins, outs, expected, mask = _grid_layout(k, n)
    rows_end = first + count * stride - len(_SEPARATOR)
    if len(data) != rows_end + len(_FOOTER) or not data.endswith(_FOOTER.encode()):
        return None
    diff = np.empty_like(expected)
    # The last row's separator slot holds the start of the footer, matched above.
    body = np.frombuffer(data, np.uint8, rows_end - first, first)
    for at in range(0, len(body), len(diff)):
        block = body[at : at + len(diff)]
        out = diff[: len(block)]
        np.bitwise_xor(block, expected[: len(block)], out=out)
        if np.count_nonzero(np.bitwise_and(out, mask[: len(block)], out=out)):
            return None
    keys = _read_bits(data, first + ins.start, stride, k, count)
    if not np.array_equal(keys, np.arange(count, dtype=np.uint64)):
        return None
    return k, n, _read_bits(data, first + outs.start, stride, n, count)


@lru_cache(maxsize=16)
def _grid_layout(k: int, n: int) -> tuple[int, int, slice, slice, np.ndarray, np.ndarray]:
    """Row count and stride, key and label slices, and read-only template and mask blocks."""
    template = np.frombuffer((_ROW % ("0" * k, "0" * n) + _SEPARATOR).encode(), np.uint8)
    lead, middle, _ = _ROW.split("%s")
    ins = slice(len(lead), len(lead) + k)
    outs = slice(ins.stop + len(middle), ins.stop + len(middle) + n)
    # A bit byte may differ from the template's '0' in its lowest bit only,
    # every other byte not at all.
    fixed = np.full(len(template), 0xFF, np.uint8)
    fixed[ins] = fixed[outs] = 0xFE
    expected, mask = (np.tile(row, _BLOCK_BYTES // len(template)) for row in (template, fixed))
    expected.setflags(write=False)
    mask.setflags(write=False)
    return 2**k, len(template), ins, outs, expected, mask


def _read_json(text: str | bytes) -> tuple[int, int, np.ndarray]:
    """Counts and counting-order labels of any document, by the JSON decoder; raises on a fault."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    for field in ("inputs", "output_qubits", "rows"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    for field in ("inputs", "output_qubits"):
        if not isinstance(doc[field], int) or isinstance(doc[field], bool):
            raise ParseError(f"{field!r} must be an integer, got {doc[field]!r}")
    if not isinstance(doc["rows"], list):
        raise ParseError("'rows' must be an array")

    # Each row in turn: its shape, its "in" and then "out" value, then a repeated
    # input; the first fault in document order wins.  Caps come next, then the
    # first row whose input or label has the wrong width.
    k, n = doc["inputs"], doc["output_qubits"]
    sources, targets, seen, misfit = [], [], set(), None
    for position, item in enumerate(doc["rows"]):
        if not (isinstance(item, dict) and "in" in item and "out" in item):
            raise ParseError(f"row {position}: expected an object with 'in' and 'out'")
        source, target = item["in"], item["out"]
        if not isinstance(source, str) or not source or source.strip("01"):
            raise _bad_value(position, "in", source)
        if not isinstance(target, str) or not target or target.strip("01"):
            raise _bad_value(position, "out", target)
        if source in seen:
            raise ValidationError(f"row {position}: duplicate input row '{source}'")
        seen.add(source)
        sources.append(source)
        targets.append(target)
        if (len(source) != k or len(target) != n) and misfit is None:
            misfit = position
    check_sizes(k, n)
    if misfit is not None:
        check_row(misfit, tuple(map(int, sources[misfit])), targets[misfit], k, n)
    # _read_bits reads up to 7 bytes past the last row's field.
    keys = _read_bits(("".join(sources) + "\0" * 8).encode(), 0, k, k, len(sources))
    labels = _read_bits(("".join(targets) + "\0" * 8).encode(), 0, n, n, len(targets))
    return k, n, counting_order(k, keys, labels)


def _bad_value(position: int, field: str, value: Any) -> ParseError:
    return ParseError(f"row {position}: {field!r} must be a nonempty string of 0/1, got {value!r}")


# Eight '0'/'1' bytes read as one little-endian word: their low bits, masked
# out and multiplied by _GATHER, land in the top byte with the first byte's
# bit highest, and no partial products carry into one another.
_BIT_BYTES = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x8040201008040201)


def _read_bits(data: bytes, start: int, stride: int, width: int, count: int) -> np.ndarray:
    """Each of ``count`` rows' bit field read as a binary number, most significant bit first.

    The field starts at byte ``start`` of the first row, and each row's at
    ``stride`` bytes past the one before; it is read eight bytes per word.
    A word may reach up to 7 bytes past the field, so at least 7 bytes must
    follow the last row's field in ``data`` (an emitted document has 9 or
    more after any field).  The bits of those bytes land below the field's
    and are shifted out.
    """
    values = np.empty(count, np.uint64)
    if not count:
        return values
    scratch = np.empty(count, np.uint64) if width > 8 else None
    for at in range(0, width, 8):
        size = min(8, width - at)
        word = np.ndarray(count, "<u8", data, start + at, (stride,))
        chunk = values if at == 0 else scratch
        np.bitwise_and(word, _BIT_BYTES, out=chunk)
        np.multiply(chunk, _GATHER, out=chunk)
        np.right_shift(chunk, np.uint64(64 - size), out=chunk)
        if at:
            np.left_shift(values, np.uint64(size), out=values)
            np.bitwise_or(values, chunk, out=values)
    return values


def emit_truth_table(table: TruthTable) -> str:
    """Serialize a table with rows in counting order, one per line."""
    k, n = table.input_count, table.output_qubits
    keys = map("".join, itertools.product("01", repeat=k))
    rows = map(_ROW.__mod__, zip(keys, table.rows.labels()))
    return _HEADER % (k, n) + _SEPARATOR.join(rows) + _FOOTER


def _csv_cell(parts: tuple[float, float]) -> str:
    """Cell text "a+bi": shortest round-trip parts, "1" for 1.0 and "0" for either zero."""
    re, im = ("0" if x == 0.0 else repr(x).removesuffix(".0") for x in (parts[0], abs(parts[1])))
    return re + ("-" if parts[1] < 0.0 else "+") + im + "i"


# Each matrix layout: the head (of "%(dim)d"), the text of an (re, im) cell,
# the row (of its cells joined by the cell separator), the separators between
# cells and between rows, the tail, and the tail after no rows.  "nested" is
# the "json" layout's object as json.dumps(indent=2) writes it two objects deep.
_MATRIX_LAYOUTS = {
    "json": ('{\n  "dim": %(dim)d,\n  "entries": [', '{"re": %r, "im": %r}'.__mod__,
             "\n    [%s]", ", ", ",", "\n  ]\n}\n", "\n  ]\n}\n"),
    "csv": ("", _csv_cell, "%s\n", ",", "", "", ""),
    "nested": ('{\n      "dim": %(dim)d,\n      "entries": [',
               '{\n            "re": %r,\n            "im": %r\n          }'.__mod__,
               "\n        [\n          %s\n        ]", ",\n          ", ",",
               "\n      ]\n    }", "]\n    }"),
}


def matrix_text(matrix: np.ndarray, fmt: str = "json") -> Iterator[str]:
    """The text of a complex matrix as 'json', 'csv' or 'nested', yielded one row at a time.

    The matrix and the format are checked on the call, before the first chunk.
    """
    try:
        matrix = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError) as exc:  # [["a"]], ragged rows, ...
        raise InvalidParameter(f"matrix entries must be complex numbers: {exc}") from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameter(f"matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InvalidParameter("matrix entries must be finite")
    if fmt not in _MATRIX_LAYOUTS:
        raise InvalidParameter(f"unknown matrix format {fmt!r}")
    head, cell, row, cell_sep, row_sep, tail, empty_tail = _MATRIX_LAYOUTS[fmt]

    def rows() -> Iterator[str]:
        yield head % {"dim": len(matrix)}
        zero = cell((0.0, 0.0))
        for i, (re_row, im_row) in enumerate(zip(matrix.real, matrix.imag)):
            cells = [zero] * len(re_row)
            # Bits, not values: a -0.0 part is set, so it is written as -0.0.
            at = np.flatnonzero(re_row.view(np.int64) | im_row.view(np.int64))
            for j, parts in zip(at.tolist(), zip(re_row[at].tolist(), im_row[at].tolist())):
                cells[j] = cell(parts)
            yield (row_sep if i else "") + row % cell_sep.join(cells)
        yield tail if len(matrix) else empty_tail

    return rows()


def emit_matrix(matrix: np.ndarray, fmt: str = "json") -> str:
    """The whole text of ``matrix_text(matrix, fmt)`` as one string."""
    return "".join(matrix_text(matrix, fmt))
