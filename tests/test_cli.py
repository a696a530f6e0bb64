import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhckit
from qhckit import TruthTable, full_adder_truth_table, half_adder_truth_table, synthesize, verify
from qhckit.cli import MAX_GRID_POINTS, main
from qhckit.errors import DimensionError, InvalidOrbit
from qhckit.serialize import emit_truth_table

from oracles import read_matrix

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
    h = read_matrix(h_file.read_text(encoding="utf-8"))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    doc = json.loads(out)
    assert doc["generator_file"] == str(h_file)
    assert doc["unitary"]["parameter"] == 1.0
    matrix = doc["unitary"]["matrix"]
    exact = synthesize(half_adder_truth_table()).unitary(1.0)
    assert np.array_equal(read_matrix(json.dumps(matrix)), exact)
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
        magnitudes = np.abs(read_matrix(json.dumps(doc["unitary"]["matrix"])))
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


def test_crlf_table_file_synthesizes_like_the_lf_file(half_table_file, tmp_path, capsys):
    # Not the emitted bytes, so the JSON decoder reads it in place of the byte grid.
    crlf = tmp_path / "half-crlf.json"
    crlf.write_bytes(Path(half_table_file).read_bytes().replace(b"\n", b"\r\n"))
    lf_code, lf_out, _ = run_cli(["synth", "--table", half_table_file], capsys)
    code, out, err = run_cli(["synth", "--table", str(crlf)], capsys)
    assert (code, out, err) == (lf_code, lf_out, "") and code == 0


def test_synth_emits_csv_generator(half_table_file, tmp_path, capsys):
    h_file = tmp_path / "h.csv"
    code, out, _ = run_cli(
        ["synth", "--table", half_table_file, "--emit-h", str(h_file), "--emit", "csv"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["generator_file"] == str(h_file)
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


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(inputs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=3))
@example(inputs=[0.7, 0.2, 0.1])
@example(inputs=[1e308, 1e308, -1e308])
@example(inputs=[0.0, -0.0])
def test_simulate_does_not_depend_on_the_order_of_the_inputs(inputs):
    # The gate sees only the sum; every ordering must print the same bytes,
    # apart from the inputs it echoes back in the order given.
    gate = {2: "half-adder", 3: "full-adder"}[len(inputs)]
    # Keyed by the inputs' text: 0.0 == -0.0, so float keys would merge two orders.
    runs = {
        tuple(map(repr, order)): (
            order,
            run_main(["simulate", "--gate", gate, "--inputs=" + ",".join(map(repr, order))]),
        )
        for order in itertools.permutations(inputs)
    }
    code, out, err = runs[tuple(map(repr, inputs))][1]
    for order, (got_code, got_out, got_err) in runs.values():
        assert (got_code, got_err) == (code, err)
        if out:
            doc = {**json.loads(out), "inputs": list(order)}
            assert got_out == json.dumps(doc, indent=2, allow_nan=False) + "\n"
        else:
            assert got_out == ""


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


@pytest.mark.parametrize("gate", ["half-adder", "full-adder"])
def test_verify_failure_exits_1(gate, capsys):
    # At tolerance 0 the truth table still passes, but the closed form and the
    # synthesized gate differ by rounding.
    code, out, err = run_cli(["verify", "--gate", gate, "--tolerance", "0"], capsys)
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["passed"] is False and doc["truth_table"]["passed"] is True
    assert doc["cross_validation"]["max_difference"] > 0
    assert err == f"error: verification failed for {gate}\n"


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


def test_verify_accepts_the_smallest_grid(capsys):
    code, out, _ = run_cli(["verify", "--gate", "half-adder", "--grid", "2"], capsys)
    assert code == 0
    assert json.loads(out)["cross_validation"]["grid_points"] == 2


def test_verify_passes_at_a_gap_equal_to_its_tolerance(capsys, monkeypatch):
    monkeypatch.setattr("qhckit.cli.cross_validate", lambda kind, grid: 1e-9)
    code, out, _ = run_cli(["verify", "--gate", "half-adder", "--tolerance", "1e-9"], capsys)
    assert (code, json.loads(out)["passed"]) == (0, True)


def test_synth_exits_1_when_verification_fails(half_table_file, capsys, monkeypatch):
    # synthesize returns only gates that verify at any tolerance the command
    # line takes; the library's verify fails every report at a negative one.
    monkeypatch.setattr(
        "qhckit.cli.verify", lambda gate, table, tolerance: verify(gate, table, tolerance=-1.0)
    )
    code, out, _ = run_cli(["synth", "--table", half_table_file], capsys)
    assert (code, json.loads(out)["verification"]["passed"]) == (1, False)


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


@pytest.mark.parametrize("k", [1, 20])
def test_a_table_without_rows_exits_2(k, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(f'{{"inputs": {k}, "output_qubits": 1, "rows": []}}', encoding="utf-8")
    code, out, err = run_cli(["synth", "--table", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: missing input row '{'0' * k}'\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_refused_unitary_parameter_writes_no_generator_file(value, half_table_file, capsys):
    h_file = Path(half_table_file).with_name("H.json")
    argv = ["synth", "--table", half_table_file, "--emit-h", str(h_file), f"--emit-u={value}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert sorted(path.name for path in h_file.parent.iterdir()) == ["half.json"]


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
    # Longer than Python's int_max_str_digits, so int() refuses it.
    "huge-count": b'{"inputs": ' + b"9" * 5001 + b', "output_qubits": 2, "rows": []}',
    # Plain json.loads accepts these non-standard literals; the reader must not.
    **{
        f"{literal}-literal": emit_truth_table(half_adder_truth_table())
        .replace('"rows"', f'"note": {literal}, "rows"')
        .encode()
        for literal in ("NaN", "Infinity", "-Infinity")
    },
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


# Flag values for the whole-CLI property: non-finite, huge, empty, non-ASCII
# and ordinary numbers and lists.
CLI_VALUES = [
    "nan", "inf", "-inf", "1e308", "-1e308", "9" * 5000, "", "é", "π,1", "0", "1", "-1",
    "0.5", "2", "7", "1,0", "1,1,0", "0.5,0.25", "1e300,1e300", "1e308,1e308",
    "1e308,1e308,-1e308", "nan,0", "1,0,1,1", "json",
]


# Traced peak of one main() call in the whole-CLI property: twice the largest
# seen over 4,000 draws from its pool (237,684 B, reading "[" * 100_000).
MAIN_PEAK_BYTES = 480_000


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Table files with N <= 3, each document's bytes, and room for outputs."""
    root = tmp_path_factory.mktemp("cli")
    rows = {bits: format(3 * sum(bits) % 8, "03b") for bits in itertools.product((0, 1), repeat=3)}
    half = emit_truth_table(half_adder_truth_table())
    four = {bits: format(sum(bits) % 5, "03b") for bits in itertools.product((0, 1), repeat=4)}
    head, _, rest = emit_truth_table(TruthTable(4, 3, four)).partition("[\n")
    body, _, tail = rest.rpartition("\n  ]")
    lines = np.random.default_rng(4).permutation(body.split(",\n")).tolist()
    shuffled = head + "[\n" + ",\n".join(lines) + "\n  ]" + tail
    documents = {
        "half.json": half.encode(),
        "full.json": emit_truth_table(full_adder_truth_table()).encode(),
        "weight.json": emit_truth_table(TruthTable(3, 3, rows)).encode(),
        "xor.json": NON_SYMMETRIC_DOC.encode(),
        "one-line.json": json.dumps(json.loads(half)).encode(),
        "not-utf8.json": b"\xff" + half.encode(),
        "deep.json": b"[" * 100_000,
        "over-cap.json": half.replace('"inputs": 2', '"inputs": 65').encode(),
        "huge-count.json": half.replace('"inputs": 2', '"inputs": ' + "9" * 5001).encode(),
        "shuffled.json": shuffled.encode(),
    }
    for name, content in documents.items():
        (root / name).write_bytes(content)
    tables = [str(root / name) for name in (*documents, "mutated.json", "missing.json")]
    return root, list(documents.values()), [*tables, str(root)]


@st.composite
def cli_argv(draw, tables, outputs):
    """argv from the four subcommands; a flag is left out one time in five."""
    table = st.sampled_from(tables)

    def value(*usual):  # three times in four a value the flag usually takes
        return st.sampled_from((usual, usual, usual, CLI_VALUES)).flatmap(st.sampled_from)

    gate = value("half-adder", "full-adder")
    command = draw(st.sampled_from(["synth", "simulate", "verify", "report"]))
    flags = {
        "synth": [
            ("--table", table),
            ("--emit-h", st.sampled_from(outputs)),
            ("--emit", value("json", "csv")),
            ("--emit-u", value("0.3", "1")),
            ("--tolerance", value("1e-9", "0")),
        ],
        "simulate": [
            ("--gate", gate | table),
            ("--inputs", value("1,0", "0.5,0.25", "1,1,0")),
            ("--tolerance", value("1e-6")),
        ],
        "verify": [("--gate", gate), ("--grid", value("2", "7")), ("--tolerance", value("1e-9"))],
        "report": [("--table", table)],
    }[command]
    argv = [command]
    for flag, values in flags:
        if draw(st.sampled_from((True, True, True, True, False))):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_main_keeps_the_exit_code_contract(cli_files, data):
    root, documents, tables = cli_files
    base = bytearray(data.draw(st.sampled_from(documents)))
    base[data.draw(st.integers(0, len(base) - 1))] = data.draw(st.integers(0, 255))
    (root / "mutated.json").write_bytes(base)
    argv = data.draw(cli_argv(tables, [str(root / "h.out"), str(root)]))
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:  # argparse refuses the command line
                assert exit_.code == 2
                code = 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAIN_PEAK_BYTES, (argv, peak)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage:"))
    elif code == 0 or out.getvalue():
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        # Every result is json.dumps(indent=2) text, the streamed --emit-u matrix too.
        assert code != 0 or out.getvalue() == json.dumps(doc, indent=2) + "\n", argv
    else:  # a table that admits no gate: a diagnostic and no result
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("error", [InvalidOrbit, DimensionError])
def test_every_package_error_exits_with_a_documented_code(
    error, half_table_file, capsys, monkeypatch
):
    def refuse(table):
        raise error("refused")

    monkeypatch.setattr("qhckit.cli.synthesize", refuse)
    code, out, err = run_cli(["synth", "--table", half_table_file], capsys)
    assert (code, out, err) == (2, "", "error: refused\n")


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


IMPORT_PROBE = """
import contextlib, io, json, sys
from qhckit.cli import main

table, h_file = sys.argv[1:]
commands = [
    ["simulate", "--gate", table, "--inputs", "0.5,0.25"],
    ["synth", "--table", table, "--emit-h", h_file],
    ["verify", "--gate", "full-adder"],
    ["report", "--table", table],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
imported = [name for name in ("numpy.fft", "numpy.ma") if name in sys.modules]
print(json.dumps({"codes": codes, "imported": imported}))
"""


def test_commands_import_neither_numpy_fft_nor_numpy_ma(half_table_file, tmp_path):
    # Each costs a fresh process milliseconds of import time, and no command
    # needs one: orbit columns use a cached DFT, and TruthTable avoids np.unique.
    source = str(Path(qhckit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, half_table_file, str(tmp_path / "h.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert json.loads(result.stdout) == {"codes": [0, 0, 0, 0], "imported": []}
