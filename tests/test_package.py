import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qhckit
from qhckit.errors import (
    InitialStateMismatch,
    InvalidOrbit,
    InvalidParameter,
    ParseError,
    ValidationError,
)
from qhckit.gates import (
    MAX_GRID_POINTS,
    GateKind,
    builtin_kind,
    cross_validate,
    full_adder_truth_table,
)
from qhckit.linalg import cycle_spectrum
from qhckit.report import resource_report
from qhckit.serialize import emit_matrix, matrix_text, parse_truth_table
from qhckit.sim import decode, evaluate_continuous
from qhckit.synth import (
    QhcGate,
    analyze_symmetry,
    find_cycle,
    qubit_count,
    synthesize,
    verify,
)


def test_star_import_matches_all():
    # A name left in __all__ after its definition is deleted fails the import.
    exec("from qhckit import *", {})
    assert len(qhckit.__all__) == len(set(qhckit.__all__))


def library_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_and_imports_all(capsys):
    code = library_example()
    exec(code, {})
    assert capsys.readouterr().out
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "qhckit"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(qhckit.__all__)


FULL_ADDER = full_adder_truth_table()
FULL_ADDER_GATE = synthesize(FULL_ADDER)

ENTRY_POINT_FAULTS = {
    "emit_matrix-text-cell": (lambda: emit_matrix([["a"]]), InvalidParameter),
    "emit_matrix-ragged": (lambda: emit_matrix([[1, 2], [3]]), InvalidParameter),
    # Refused on the call, before the stream yields its first chunk.
    "matrix_text-text-cell": (lambda: matrix_text([["a"]]), InvalidParameter),
    **{
        f"parse_truth_table-{name}": (lambda doc=doc: parse_truth_table(doc), ParseError)
        for name, doc in (("none", None), ("int", 5), ("list", []))
    },
    "decode-text-amplitudes": (lambda: decode(["a", "b"]), InvalidParameter),
    "cross_validate-kind-by-name": (lambda: cross_validate("half-adder", 10), InvalidParameter),
    "cross_validate-text-grid": (
        lambda: cross_validate(GateKind.HALF_ADDER, "10"), InvalidParameter
    ),
    "cross_validate-fractional-grid": (
        lambda: cross_validate(GateKind.HALF_ADDER, 2.5), InvalidParameter
    ),
    # Refused by the count, before the grid is allocated (10**12 points are 7.28 TiB).
    **{
        f"cross_validate-grid-{name}": (
            lambda grid=grid: cross_validate(GateKind.HALF_ADDER, grid), InvalidParameter
        )
        for name, grid in (("over-cap", MAX_GRID_POINTS + 1), ("10**12", 10**12))
    },
    # An orbit with no length: refused before it is read.
    "cycle_spectrum-none-orbit": (lambda: cycle_spectrum(None, 4), InvalidOrbit),
    "cycle_spectrum-generator-orbit": (
        lambda: cycle_spectrum((i for i in range(2)), 4), InvalidOrbit
    ),
    # An orbit with no order: its iteration order would pick the cycle's direction.
    **{
        f"cycle_spectrum-{name}-orbit": (
            lambda orbit=orbit: cycle_spectrum(orbit, 16), InvalidOrbit
        )
        for name, orbit in (
            ("set", {0, 9, 3}),
            ("frozenset", frozenset({0, 1})),
            ("dict", {9: 1, 0: 1}),
            ("dict-keys", {0: 1}.keys()),
        )
    },
    **{
        f"QhcGate-input-count-{count}": (
            lambda count=count: QhcGate(FULL_ADDER_GATE.cycle, count), InvalidParameter
        )
        for count in (-1, 0, "x")
    },
    "synthesize-none-table": (lambda: synthesize(None), ValidationError),
    "verify-none-table": (lambda: verify(FULL_ADDER_GATE, None), ValidationError),
    "verify-cycle-as-gate": (lambda: verify(FULL_ADDER_GATE.cycle, FULL_ADDER), InvalidParameter),
    "evaluate_continuous-none-gate": (lambda: evaluate_continuous(None, (1, 0)), InvalidParameter),
    "find_cycle-no-outputs": (lambda: find_cycle(()), InitialStateMismatch),
    "find_cycle-not-iterable": (lambda: find_cycle(5), ValidationError),
    "find_cycle-bare-string": (lambda: find_cycle("01"), ValidationError),
    # Each table reader refuses a non-table itself, before it reads the table.
    **{
        f"{call.__name__}-none-table": (lambda call=call: call(None), ValidationError)
        for call in (analyze_symmetry, qubit_count, builtin_kind, resource_report)
    },
    "QhcGate-none-cycle": (lambda: QhcGate(None, 2), InvalidParameter),
    "cycle_spectrum-0-d-array-orbit": (lambda: cycle_spectrum(np.array(5), 4), InvalidOrbit),
}


@pytest.mark.parametrize("fault", ENTRY_POINT_FAULTS)
def test_library_entry_points_raise_typed_errors(fault):
    call, error = ENTRY_POINT_FAULTS[fault]
    with pytest.raises(error):
        call()
