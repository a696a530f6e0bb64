import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import TruthTable, full_adder_truth_table, half_adder_truth_table, synthesize
from qhckit.cli import MAX_GRID_POINTS, main
from qhckit.serialize import emit_truth_table, parse_matrix

NON_SYMMETRIC_DOC = """\
{
  "inputs": 2,
  "output_qubits": 2,
  "rows": [
    {"in": "00", "out": "00"},
    {"in": "01", "out": "01"},
    {"in": "10", "out": "10"},
    {"in": "11", "out": "11"}
  ]
}
"""


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse errors
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def half_table_file(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(emit_truth_table(half_adder_truth_table()), encoding="utf-8")
    return str(path)


def test_synth_reports_the_cycle(half_table_file, capsys):
    code, out, _ = run_cli(["synth", "--table", half_table_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cycle"] == {"dim": 4, "length": 3, "orbit": [0, 1, 3]}
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["max_deviation"] <= 1e-9


def test_synth_emits_generator_and_unitary(half_table_file, tmp_path, capsys):
    h_file = tmp_path / "h.json"
    code, out, _ = run_cli(
        ["synth", "--table", half_table_file, "--emit-h", str(h_file), "--emit-u", "1.0"],
        capsys,
    )
    assert code == 0
    h = parse_matrix(h_file.read_text(encoding="utf-8"))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    doc = json.loads(out)
    assert doc["unitary"]["parameter"] == 1.0
    matrix = doc["unitary"]["matrix"]
    exact = synthesize(half_adder_truth_table()).unitary(1.0)
    assert np.array_equal(parse_matrix(json.dumps(matrix)), exact)
    column = [row[0] for row in matrix["entries"]]
    reals = [cell["re"] for cell in column]
    assert np.max(np.abs(np.array(reals) - [0, 1, 0, 0])) < 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite literal {name}")


@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_huge_parameters_give_finite_json(command, half_table_file, capsys):
    argv = {
        "synth": ["synth", "--table", half_table_file, "--emit-u", "1e308"],
        "simulate": ["simulate", "--gate", "half-adder", "--inputs", "1e300,1e300"],
    }[command]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    # Both sums are whole numbers, so the gate acts as a power of its cycle.
    if command == "synth":
        magnitudes = np.abs(parse_matrix(json.dumps(doc["unitary"]["matrix"])))
        assert np.max(np.abs(magnitudes - np.round(magnitudes))) < 1e-9
    else:
        assert doc["is_basis"] is True


@pytest.mark.parametrize("command", ["synth", "simulate", "verify"])
def test_bad_tolerance_exits_2(command, half_table_file, capsys):
    base = {
        "synth": ["synth", "--table", half_table_file],
        "simulate": ["simulate", "--gate", "half-adder", "--inputs", "1,0"],
        "verify": ["verify", "--gate", "half-adder"],
    }[command]
    for value in ("nan", "inf", "-1e-9", "x"):
        code, _, err = run_cli([*base, f"--tolerance={value}"], capsys)
        assert code == 2
        assert "tolerance" in err


def test_synth_emits_csv_generator(half_table_file, tmp_path, capsys):
    h_file = tmp_path / "h.csv"
    code, _, _ = run_cli(
        ["synth", "--table", half_table_file, "--emit-h", str(h_file), "--emit", "csv"],
        capsys,
    )
    assert code == 0
    lines = h_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert all(len(line.split(",")) == 4 for line in lines)
    assert all("i" in cell for line in lines for cell in line.split(","))


def test_simulate_builtin_full_adder(capsys):
    code, out, _ = run_cli(["simulate", "--gate", "full-adder", "--inputs", "1,1,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "10"
    assert doc["is_basis"] is True
    assert doc["sum"] == 2.0
    assert abs(doc["probabilities"][2] - 1.0) < 1e-9


def test_simulate_table_file(half_table_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "--gate", half_table_file, "--inputs", "1,1"], capsys
    )
    assert code == 0
    assert json.loads(out)["label"] == "11"


def test_simulate_real_inputs_reach_superposition(capsys):
    code, out, _ = run_cli(["simulate", "--gate", "half-adder", "--inputs", "0.5,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["is_basis"] is False
    assert doc["label"] is None
    assert abs(sum(doc["probabilities"]) - 1.0) < 1e-10


def test_simulate_wrong_arity_exits_2(capsys):
    code, _, err = run_cli(["simulate", "--gate", "half-adder", "--inputs", "1,0,1"], capsys)
    assert code == 2
    assert "error" in err


def test_simulate_rejects_non_numeric_inputs(capsys):
    code, _, err = run_cli(["simulate", "--gate", "half-adder", "--inputs", "1,x"], capsys)
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize("gate", ["half-adder", "full-adder"])
def test_verify_builtin_gates(gate, capsys):
    code, out, _ = run_cli(["verify", "--gate", gate], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["truth_table"]["max_deviation"] <= 1e-9
    assert doc["cross_validation"]["max_difference"] <= 1e-9
    assert doc["cross_validation"]["grid_points"] == 101


def test_verify_rejects_unknown_gate(capsys):
    code, _, err = run_cli(["verify", "--gate", "adder"], capsys)
    assert code == 2
    assert "invalid choice" in err


def test_verify_rejects_degenerate_grid(capsys):
    code, _, err = run_cli(["verify", "--gate", "half-adder", "--grid", "1"], capsys)
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("grid", [str(MAX_GRID_POINTS + 1), "1000000000", "-5"])
def test_verify_rejects_grid_outside_bounds_before_running(grid, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("cross_validate ran")

    monkeypatch.setattr("qhckit.cli.cross_validate", never)
    code, _, err = run_cli(["verify", "--gate", "half-adder", "--grid", grid], capsys)
    assert code == 2
    assert "--grid" in err


def test_verify_accepts_grid_at_the_cap(capsys, monkeypatch):
    monkeypatch.setattr("qhckit.cli.cross_validate", lambda kind, grid: 0.0)
    code, out, _ = run_cli(
        ["verify", "--gate", "full-adder", "--grid", str(MAX_GRID_POINTS)], capsys
    )
    assert code == 0
    assert json.loads(out)["cross_validation"]["grid_points"] == MAX_GRID_POINTS


def test_report_full_adder(tmp_path, capsys):
    path = tmp_path / "full.json"
    path.write_text(emit_truth_table(full_adder_truth_table()), encoding="utf-8")
    code, out, _ = run_cli(["report", "--table", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    schemes = {row["scheme"]: row for row in doc["schemes"]}
    assert schemes["qhc"]["qubits"] == 2
    assert schemes["toffoli-cnot-full"]["qubits"] == 4
    assert schemes["fredkin-full"]["qubits"] == 5
    assert schemes["fredkin-full"]["gate_count"] == 5


def test_malformed_table_exits_2_with_row_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(
        '{"inputs": 2, "output_qubits": 2, "rows": [{"in": "00", "out": "00"}]}',
        encoding="utf-8",
    )
    code, _, err = run_cli(["report", "--table", str(path)], capsys)
    assert code == 2
    assert "01" in err


@pytest.mark.parametrize("flag", ["--emit-u", "--emit-h"])
def test_dense_matrix_above_the_cap_exits_2(flag, tmp_path, capsys):
    # N = 12: synth and verify need no dense matrix, --emit-u/--emit-h do.
    table = TruthTable(1, 12, {(0,): "0" * 12, (1,): "0" * 11 + "1"})
    path = tmp_path / "wide.json"
    path.write_text(emit_truth_table(table), encoding="utf-8")
    h_file = tmp_path / "H.json"
    value = "0.5" if flag == "--emit-u" else str(h_file)
    code, out, err = run_cli(["synth", "--table", str(path), flag, value], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds the cap of 2048" in err
    assert not h_file.exists()


@pytest.mark.parametrize(
    "field, value, match",
    [("inputs", 65, "input count must be 1 to 64"), ("output_qubits", 21, "output qubit count")],
)
def test_table_size_caps_exit_2(field, value, match, tmp_path, capsys):
    doc = json.loads(emit_truth_table(half_adder_truth_table()))
    doc[field] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["synth", "--table", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert match in err


# Arbitrary JSON, with integers kept small enough (plus the cap values) that
# no document can ask for a huge allocation even without the caps.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.sampled_from([64, 65, 20, 21])
    | st.floats()
    | st.text(alphabet="01", max_size=4)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(["inputs", "output_qubits", "rows", "in", "out"]),
    row=st.integers(0, 3),
    value=JSON_VALUES,
)
def test_malformed_documents_exit_with_a_documented_code(scratch_file, field, row, value):
    doc = json.loads(emit_truth_table(half_adder_truth_table()))
    if field in ("in", "out"):
        doc["rows"][row][field] = value
    else:
        doc[field] = value
    scratch_file.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["synth", "--table", str(scratch_file)])
    assert code in (0, 1, 2)
    in_range = isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= 64
    if field == "inputs" and not in_range:
        assert code == 2


UNREADABLE_TABLES = {
    "missing": None,
    "not-utf8": b"\xff\xfe{}",
    "deep-json": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("content", UNREADABLE_TABLES)
@pytest.mark.parametrize("command", ["synth", "simulate", "report"])
def test_missing_file_exits_2(command, content, tmp_path, capsys):
    path = tmp_path / "t.json"
    if UNREADABLE_TABLES[content] is not None:
        path.write_bytes(UNREADABLE_TABLES[content])
    argv = {
        "synth": ["synth", "--table", str(path)],
        "simulate": ["simulate", "--gate", str(path), "--inputs", "0,1"],
        "report": ["report", "--table", str(path)],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_symmetric_table_exits_1(tmp_path, capsys):
    path = tmp_path / "xor.json"
    path.write_text(NON_SYMMETRIC_DOC, encoding="utf-8")
    code, _, err = run_cli(["synth", "--table", str(path)], capsys)
    assert code == 1
    assert "error" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qhckit", "verify", "--gate", "half-adder"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True
