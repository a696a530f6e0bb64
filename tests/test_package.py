import ast
import re
from pathlib import Path

import pytest

import qhckit
from qhckit.errors import InitialStateMismatch, InvalidParameter
from qhckit.gates import GateKind, cross_validate
from qhckit.serialize import emit_matrix, matrix_document
from qhckit.sim import decode
from qhckit.synth import find_cycle


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


ENTRY_POINT_FAULTS = {
    "emit_matrix-text-cell": (lambda: emit_matrix([["a"]]), InvalidParameter),
    "emit_matrix-ragged": (lambda: emit_matrix([[1, 2], [3]]), InvalidParameter),
    "matrix_document-text-cell": (lambda: matrix_document([["a"]]), InvalidParameter),
    "decode-text-amplitudes": (lambda: decode(["a", "b"]), InvalidParameter),
    "cross_validate-kind-by-name": (lambda: cross_validate("half-adder", 10), InvalidParameter),
    "cross_validate-text-grid": (
        lambda: cross_validate(GateKind.HALF_ADDER, "10"), InvalidParameter
    ),
    "cross_validate-fractional-grid": (
        lambda: cross_validate(GateKind.HALF_ADDER, 2.5), InvalidParameter
    ),
    "find_cycle-no-outputs": (lambda: find_cycle(()), InitialStateMismatch),
}


@pytest.mark.parametrize("fault", ENTRY_POINT_FAULTS)
def test_library_entry_points_raise_typed_errors(fault):
    call, error = ENTRY_POINT_FAULTS[fault]
    with pytest.raises(error):
        call()
