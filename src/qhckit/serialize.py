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

Matrices use {"dim": d, "entries": [[{"re": x, "im": y}, ...], ...]} in
row-major order.  Real and imaginary parts are written as shortest
round-trip decimals, so emit followed by parse reproduces the matrix
bit-exactly.  The CSV variant writes one row per line with "a+bi" cells
and is meant for spreadsheets, not round-tripping.

Malformed structure raises ParseError; structurally sound documents whose
rows break the truth-table invariants raise ValidationError.  Both carry
row-level positions.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import InvalidParameter, ParseError, ValidationError
from .synth import TruthTable, format_bits

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _load_json(text: str) -> Any:
    try:
        # Reject the non-standard NaN/Infinity literals up front; they
        # would silently break the bit-exact round-trip contract.
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _reject_constant(name: str) -> None:
    raise ParseError(f"non-finite literal {name!r} is not allowed")


def parse_truth_table(text: str) -> TruthTable:
    """Parse and validate a truth-table document."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object, got {type(doc).__name__}")
    for field in ("inputs", "output_qubits", "rows"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    inputs = doc["inputs"]
    output_qubits = doc["output_qubits"]
    if not isinstance(inputs, int) or isinstance(inputs, bool):
        raise ParseError(f"'inputs' must be an integer, got {inputs!r}")
    if not isinstance(output_qubits, int) or isinstance(output_qubits, bool):
        raise ParseError(f"'output_qubits' must be an integer, got {output_qubits!r}")
    if not isinstance(doc["rows"], list):
        raise ParseError("'rows' must be an array")

    rows: dict[tuple[int, ...], str] = {}
    for position, item in enumerate(doc["rows"]):
        if not isinstance(item, dict) or "in" not in item or "out" not in item:
            raise ParseError(f"row {position}: expected an object with 'in' and 'out'")
        source, target = item["in"], item["out"]
        for field, value in (("in", source), ("out", target)):
            if not isinstance(value, str) or not value or value.strip("01"):
                raise ParseError(
                    f"row {position}: {field!r} must be a nonempty string of 0/1, got {value!r}"
                )
        # Widths are checked once, by TruthTable, which names the same position.
        key = tuple(source.encode().translate(_BIT_BYTES))
        if key in rows:
            raise ValidationError(f"row {position}: duplicate input row '{source}'")
        rows[key] = target
    return TruthTable(input_count=inputs, output_qubits=output_qubits, rows=rows)


def emit_truth_table(table: TruthTable) -> str:
    """Serialize a table with sorted rows, one per line."""
    lines = [
        "{",
        f'  "inputs": {table.input_count},',
        f'  "output_qubits": {table.output_qubits},',
        '  "rows": [',
    ]
    rows = sorted(table.rows.items())
    for position, (bits, label) in enumerate(rows):
        entry = json.dumps({"in": format_bits(bits), "out": label})
        comma = "," if position + 1 < len(rows) else ""
        lines.append(f"    {entry}{comma}")
    lines += ["  ]", "}", ""]
    return "\n".join(lines)


def _real_text(value: float) -> str:
    if value == 0.0:
        return "0"
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _csv_cell(cell: dict[str, float]) -> str:
    re, im = cell["re"], cell["im"]
    sign = "-" if im < 0.0 else "+"
    return f"{_real_text(re)}{sign}{_real_text(abs(im))}i"


def matrix_document(matrix: np.ndarray) -> dict[str, Any]:
    """The JSON matrix layout as an object; every emitted matrix goes through it."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameter(f"matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InvalidParameter("matrix entries must be finite")
    return {
        "dim": matrix.shape[0],
        "entries": [
            [{"re": float(e.real), "im": float(e.imag)} for e in row] for row in matrix
        ],
    }


def emit_matrix(matrix: np.ndarray, fmt: str = "json") -> str:
    """Serialize a complex matrix as 'json' or 'csv', one row per line."""
    doc = matrix_document(matrix)
    if fmt == "csv":
        return "\n".join(",".join(_csv_cell(c) for c in row) for row in doc["entries"]) + "\n"
    if fmt != "json":
        raise InvalidParameter(f"unknown matrix format {fmt!r}")
    lines = ["{", f'  "dim": {doc["dim"]},', '  "entries": [']
    for r, cells in enumerate(doc["entries"]):
        comma = "," if r + 1 < doc["dim"] else ""
        lines.append(f"    {json.dumps(cells)}{comma}")
    lines += ["  ]", "}", ""]
    return "\n".join(lines)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the JSON matrix format back into a complex array."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ParseError("expected a JSON object with 'dim' and 'entries'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"'entries' must be an array of {dim} rows")
    matrix = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"entries row {r}: expected {dim} cells")
        for c, cell in enumerate(row):
            if not isinstance(cell, dict) or "re" not in cell or "im" not in cell:
                raise ParseError(f"entries[{r}][{c}]: expected an object with 're' and 'im'")
            re, im = cell["re"], cell["im"]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
                raise ParseError(f"entries[{r}][{c}]: 're' and 'im' must be numbers")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(f"entries[{r}][{c}]: entries must be finite")
            matrix[r, c] = complex(re, im)
    return matrix
