"""Independent reference implementations used to check the package.

Everything here is deliberately naive: permutation matrices are scattered
entry by entry, candidate permutations are enumerated exhaustively with
itertools, and expected outputs are computed by walking trajectories one
step at a time.  None of it calls into the package's own linear algebra,
so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import json
from numbers import Integral

import numpy as np

from qhckit import TruthTable
from qhckit.errors import InitialStateMismatch, NonEmbeddable, ParseError, ValidationError
from qhckit.synth import MAX_INPUTS, MAX_OUTPUT_QUBITS, RowCheck


def permutation_matrix(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix of the permutation sending basis index i to perm[i]."""
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=complex)
    for source, target in enumerate(perm):
        m[target, source] = 1.0
    return m


def orbit_permutation(orbit: tuple[int, ...], dim: int) -> np.ndarray:
    """Matrix cycling the orbit indices in order and fixing the rest."""
    perm = list(range(dim))
    for step, index in enumerate(orbit):
        perm[index] = orbit[(step + 1) % len(orbit)]
    return permutation_matrix(tuple(perm))


def orbit_column_fft(angles: np.ndarray, s: float) -> np.ndarray:
    """Orbit column of ``U(s)`` by numpy's FFT, with ``s`` reduced mod L first."""
    length = len(angles)
    return np.fft.fft(np.exp(1j * np.fmod(s, length) * angles)) / length


def read_matrix(text: str) -> np.ndarray:
    """A matrix document read back by strict ``json.loads``, NaN and Infinity refused."""
    doc = json.loads(text, parse_constant=_reject_constant)
    matrix = np.array([[complex(c["re"], c["im"]) for c in row] for row in doc["entries"]])
    assert matrix.shape == (doc["dim"], doc["dim"])
    return matrix


def matrix_document_oracle(matrix) -> dict:
    """The JSON matrix layout as an object, one {"re": x, "im": y} dict per cell."""
    matrix = np.asarray(matrix, dtype=complex)
    cells = [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in matrix]
    return {"dim": len(matrix), "entries": cells}


def emit_matrix_oracle(matrix, fmt: str) -> str:
    """A matrix's JSON text (json.dumps of each row's cell dicts) or CSV text, cell by cell."""
    cells = matrix_document_oracle(matrix)["entries"]
    if fmt == "csv":
        return "".join(",".join(map(_csv_cell_oracle, row)) + "\n" for row in cells)
    lines = ["{", f'  "dim": {len(cells)},', '  "entries": [']
    lines += [f"    {json.dumps(row)}," for row in cells]
    if cells:
        lines[-1] = lines[-1][:-1]  # no comma after the last row
    return "\n".join([*lines, "  ]", "}", ""])


def _csv_cell_oracle(cell: dict) -> str:
    def part(x: float) -> str:  # shortest repr, "1" for 1.0 and "0" for either zero
        text = "0" if x == 0 else repr(x)
        return text[:-2] if text.endswith(".0") else text

    return part(cell["re"]) + ("-" if cell["im"] < 0 else "+") + part(abs(cell["im"])) + "i"


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite literal {name}")


def weight_table(weight_labels: tuple[str, ...], input_count: int) -> TruthTable:
    """Symmetric table whose weight-w inputs all map to weight_labels[w]."""
    rows = {
        bits: weight_labels[sum(bits)]
        for bits in itertools.product((0, 1), repeat=input_count)
    }
    return TruthTable(
        input_count=input_count, output_qubits=len(weight_labels[0]), rows=rows
    )


def all_symmetric_tables(max_inputs: int, max_qubits: int):
    """Every symmetric table with k <= max_inputs and N <= max_qubits."""
    for input_count in range(1, max_inputs + 1):
        for qubits in range(1, max_qubits + 1):
            labels = [format(i, f"0{qubits}b") for i in range(2**qubits)]
            for assignment in itertools.product(labels, repeat=input_count + 1):
                yield weight_table(tuple(assignment), input_count)


def satisfying_permutations(table: TruthTable) -> list[tuple[int, ...]]:
    """All permutations P with P^weight(x) e0 = e_target for every row x.

    Brute force over the full symmetric group of the output space; feasible
    because the spaces of interest have at most four basis states.
    """
    targets_by_weight: dict[int, int] = {}
    for bits, label in table.rows.items():
        weight, target = sum(bits), int(label, 2)
        if targets_by_weight.setdefault(weight, target) != target:
            return []
    found = []
    for perm in itertools.permutations(range(table.dim)):
        position = 0
        ok = targets_by_weight[0] == 0
        for weight in range(1, table.input_count + 1):
            position = perm[position]
            if targets_by_weight[weight] != position:
                ok = False
                break
        if ok:
            found.append(perm)
    return found


def shortest_orbit(weight_labels: tuple[str, ...], output_qubits: int) -> tuple[int, ...]:
    """Shortest orbit from 0 putting weight w's label at position w mod L.

    Tries every length from 1 to min(k + 1, 2^N), smallest first.
    """
    targets = [int(label, 2) for label in weight_labels]
    if targets[0] != 0:
        raise InitialStateMismatch(f"weight-0 label is {weight_labels[0]}")
    for length in range(1, min(len(targets), 2**output_qubits) + 1):
        orbit = targets[:length]
        if len(set(orbit)) == length and all(
            target == orbit[w % length] for w, target in enumerate(targets)
        ):
            return tuple(orbit)
    raise NonEmbeddable(f"no orbit through {weight_labels}")


def parse_truth_table_oracle(text: str):
    """Parse a truth-table document one row at a time, as the package once did.

    Returns ``(input_count, output_qubits, rows, labels_by_weight)`` or
    raises the error the package must raise, with the same message.  The
    document must be valid JSON without NaN or Infinity.
    """
    doc = json.loads(text)
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
    rows = {}
    for position, item in enumerate(doc["rows"]):
        if not isinstance(item, dict) or "in" not in item or "out" not in item:
            raise ParseError(f"row {position}: expected an object with 'in' and 'out'")
        source, target = item["in"], item["out"]
        for field, value in (("in", source), ("out", target)):
            if not isinstance(value, str) or not value or value.strip("01"):
                raise ParseError(
                    f"row {position}: {field!r} must be a nonempty string of 0/1, got {value!r}"
                )
        key = tuple(int(c) for c in source)
        if key in rows:
            raise ValidationError(f"row {position}: duplicate input row '{source}'")
        rows[key] = target
    return (inputs, output_qubits, rows, validate_rows_oracle(inputs, output_qubits, rows))


def emit_truth_table_oracle(input_count: int, output_qubits: int, labels) -> str:
    """The emitted layout of a table, one row line formatted at a time.

    ``labels[i]`` is the basis index of the label of input row i, in
    counting order.
    """
    rows = [
        '    {"in": "%s", "out": "%s"}'
        % (format(position, f"0{input_count}b"), format(label, f"0{output_qubits}b"))
        for position, label in enumerate(labels)
    ]
    head = '{\n  "inputs": %d,\n  "output_qubits": %d,\n  "rows": [\n' % (
        input_count,
        output_qubits,
    )
    return head + ",\n".join(rows) + "\n  ]\n}\n"


def validate_rows_oracle(input_count: int, output_qubits: int, rows: dict):
    """``labels_by_weight`` of a table given as a dict, checked one row at a time.

    Raises the ``ValidationError`` the package must raise, with the same message.
    This is the row-by-row check ``TruthTable`` ran before it read columns,
    with one difference: a bit that is not an integer, as in (1.0, 0), makes
    the key "not k bits", where the old check failed with a bare TypeError.
    """
    if not 1 <= input_count <= MAX_INPUTS:
        raise ValidationError(f"input count must be 1 to {MAX_INPUTS}, got {input_count}")
    if not 1 <= output_qubits <= MAX_OUTPUT_QUBITS:
        raise ValidationError(
            f"output qubit count must be 1 to {MAX_OUTPUT_QUBITS}, got {output_qubits}"
        )
    by_weight = [set() for _ in range(input_count + 1)]
    for position, (key, label) in enumerate(rows.items()):
        if not (
            isinstance(key, tuple)
            and len(key) == input_count
            and all(isinstance(bit, Integral) for bit in key)
            and {0, 1}.issuperset(key)
        ):
            raise ValidationError(f"row {position}: input {key!r} is not {input_count} bits")
        if not isinstance(label, str) or label.strip("01") or len(label) != output_qubits:
            raise ValidationError(
                f"row {position}: bad output label {label!r}; expected {output_qubits} bits"
            )
        by_weight[sum(key)].add(label)
    if len(rows) < 2**input_count:
        missing = next(
            bits for bits in itertools.product((0, 1), repeat=input_count) if bits not in rows
        )
        raise ValidationError(f"missing input row '{''.join(map(str, missing))}'")
    return tuple(map(frozenset, by_weight))


def row_checks_oracle(orbit: tuple[int, ...], table: TruthTable) -> tuple[RowCheck, ...]:
    """Every row's check, in sorted row order, from exact permutation powers."""
    dim = table.dim
    step = orbit_permutation(orbit, dim).real
    checks = []
    for bits, expected in sorted(table.rows.items()):
        state = np.linalg.matrix_power(step, sum(bits))[:, 0]
        target = np.zeros(dim)
        target[int(expected, 2)] = 1.0
        obtained = format(int(np.argmax(state)), f"0{table.output_qubits}b")
        checks.append(RowCheck(bits, expected, obtained, float(np.max(np.abs(state - target)))))
    return tuple(checks)
