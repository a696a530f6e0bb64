"""End-to-end acceptance checks.

Each test prints one summary line (visible under ``pytest -s``) so the
whole contract can be eyeballed at once; the assertion carries the same
verdict.  Tolerances are part of the contract and are not loosened here.
"""

import itertools
import json
import math

import numpy as np
import scipy.linalg

from qhckit import TruthTable, full_adder_truth_table, half_adder_truth_table, synthesize, verify
from qhckit.cli import main
from qhckit.errors import SynthesisError
from qhckit.gates import (
    GateKind,
    cross_validate,
    full_adder_closed_form,
    half_adder_closed_form,
)
from qhckit.linalg import cycle_spectrum, exp_from_spectrum, hermitian_generator
from qhckit.report import Scheme, resource_report
from qhckit.serialize import emit_matrix
from qhckit.synth import qubit_count

from oracles import (
    all_symmetric_tables,
    orbit_permutation,
    permutation_matrix,
    read_matrix,
    satisfying_permutations,
)

E = np.eye(4, dtype=complex)


def _conclude(label: str, problems: list[str]) -> None:
    verdict = "PASS" if not problems else "FAIL"
    print(f"[acceptance] {label}: {verdict}")
    assert not problems, f"{label}: " + "; ".join(problems)


def test_criterion_1_half_adder_truth_table():
    problems = []
    table = half_adder_truth_table()
    for (a, b), label in sorted(table.rows.items()):
        state = half_adder_closed_form(a, b) @ E[:, 0]
        probability = abs(state[int(label, 2)]) ** 2
        if not probability >= 1 - 1e-9:
            problems.append(f"({a},{b}) missed {label}: p={probability}")
    _conclude("half-adder truth table", problems)


def test_criterion_2_full_adder_truth_table():
    problems = []
    table = full_adder_truth_table()
    for bits, label in sorted(table.rows.items()):
        state = full_adder_closed_form(*bits) @ E[:, 0]
        probability = abs(state[int(label, 2)]) ** 2
        if not probability >= 1 - 1e-9:
            problems.append(f"{bits} missed {label}: p={probability}")
    # (1,1,0) must land on 10 ...
    if table.rows[(1, 1, 0)] != "10":
        problems.append("built-in table does not send (1,1,0) to 10")
    # ... and the competing value 11 must fail, documenting the conflict
    # between the two output conventions found for this row
    state = full_adder_closed_form(1, 1, 0) @ E[:, 0]
    if abs(state[3]) ** 2 >= 1 - 1e-9:
        problems.append("(1,1,0) unexpectedly reached 11")
    altered_rows = dict(table.rows)
    altered_rows[(1, 1, 0)] = "11"
    altered = TruthTable(3, 2, altered_rows)
    report = verify(synthesize(table), altered)
    wrong = [row.inputs for row in report.rows if row.obtained != row.expected]
    if report.passed or wrong != [(1, 1, 0)]:
        problems.append(f"altered-row check failed at rows {wrong}")
    _conclude("full-adder truth table with the (1,1,0) -> 10 row", problems)


def test_criterion_3_four_cycle_algebra():
    problems = []
    r = orbit_permutation((0, 1, 2, 3), 4)
    if np.max(np.abs(np.linalg.matrix_power(r, 4) - E)) > 1e-12:
        problems.append("R^4 != I")
    if np.max(np.abs(r.conj().T @ r - E)) > 1e-12:
        problems.append("R not unitary")
    h = hermitian_generator(cycle_spectrum((0, 1, 2, 3), 4))
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        problems.append("H not Hermitian")
    spectrum = cycle_spectrum((0, 1, 2, 3), 4)
    if np.max(np.abs(exp_from_spectrum(spectrum, 1.0) - r)) > 1e-12:
        problems.append("exp(-iH) != R (spectral route)")
    if np.max(np.abs(scipy.linalg.expm(-1j * h) - r)) > 1e-12:
        problems.append("exp(-iH) != R (scipy route)")
    if sorted(spectrum.angles) != sorted([0.0, math.pi / 2, math.pi, -math.pi / 2]):
        problems.append(f"eigenangles not exact: {sorted(spectrum.angles)}")
    _conclude("four-cycle algebra R, H = i log R, exact eigenangles", problems)


def test_criterion_4_closed_form_vs_spectral():
    problems = []
    for kind, closed, orbit in (
        (GateKind.HALF_ADDER, lambda s: half_adder_closed_form(s, 0), (0, 1, 3)),
        (GateKind.FULL_ADDER, lambda s: full_adder_closed_form(s, 0, 0), (0, 1, 2, 3)),
    ):
        gap = cross_validate(kind, 101)
        if gap > 1e-9:
            problems.append(f"{kind.value} grid gap {gap}")
        # independent spot check through scipy's matrix exponential
        h = hermitian_generator(cycle_spectrum(orbit, 4))
        for s in np.linspace(0.0, float(len(orbit)), 7):
            reference = scipy.linalg.expm(-1j * s * h)
            if np.max(np.abs(closed(float(s)) - reference)) > 1e-9:
                problems.append(f"{kind.value} scipy mismatch at s={s}")
    _conclude("closed forms match exp(-isH) on 101-point grids", problems)


def test_criterion_5_synthesis_round_trip():
    problems = []
    for table, closed in (
        (half_adder_truth_table(), lambda bits: half_adder_closed_form(*bits)),
        (full_adder_truth_table(), lambda bits: full_adder_closed_form(*bits)),
    ):
        gate = synthesize(table)
        for bits in table.rows:
            gap = np.max(np.abs(gate.unitary(float(sum(bits))) - closed(bits)))
            if gap > 1e-9:
                problems.append(f"synthesized gate differs at {bits}: {gap}")
        if not verify(gate, table).passed:
            problems.append(f"round-trip verify failed for {table.input_count} inputs")
    checked = 0
    for table in all_symmetric_tables(3, 2):
        witnesses = satisfying_permutations(table)
        try:
            gate = synthesize(table)
        except SynthesisError:
            gate = None
        if (gate is not None) != bool(witnesses):
            problems.append(
                f"embeddability disagreement on weights "
                f"{[table.rows[k] for k in sorted(table.rows)]}"
            )
            continue
        if gate is not None:
            u1 = gate.unitary(1.0)
            if min(np.max(np.abs(u1 - permutation_matrix(p))) for p in witnesses) > 1e-9:
                problems.append("U(1) matches no brute-force witness")
        checked += 1
    if checked != 364:
        problems.append(f"expected 364 exhaustive tables, saw {checked}")
    _conclude("synthesis round-trip and exhaustive brute-force agreement", problems)


def test_criterion_6_property_suites():
    problems = []
    rng = np.random.default_rng(101)
    closed_forms = {
        "half-adder": lambda s: half_adder_closed_form(s, 0),
        "full-adder": lambda s: full_adder_closed_form(s, 0, 0),
    }
    for name, closed in closed_forms.items():
        for s in rng.uniform(-8, 8, size=100):
            m = closed(float(s))
            if np.max(np.abs(m.conj().T @ m - E)) > 1e-12:
                problems.append(f"{name} unitarity fails at s={s}")
                break
    for table in (half_adder_truth_table(), full_adder_truth_table()):
        gate = synthesize(table)
        for s1, s2 in rng.uniform(-4, 4, size=(50, 2)):
            gap = np.max(np.abs(gate.unitary(s1) @ gate.unitary(s2) - gate.unitary(s1 + s2)))
            if gap > 1e-10:
                problems.append(f"group law fails at ({s1},{s2}): {gap}")
                break
    for a, b, shift in rng.uniform(-3, 3, size=(20, 3)):
        half_gap = np.max(
            np.abs(half_adder_closed_form(a, b) - half_adder_closed_form(a + shift, b - shift))
        )
        full_gap = np.max(
            np.abs(
                full_adder_closed_form(a, shift, b)
                - full_adder_closed_form(a + shift, 0.0, b)
            )
        )
        if half_gap > 1e-12 or full_gap > 1e-12:
            problems.append(f"sum-only dependence fails near ({a},{b},{shift})")
            break
    _conclude("unitarity, group law, and sum-only properties", problems)


def test_criterion_7_resource_report():
    problems = []
    half = {r.scheme: r for r in resource_report(half_adder_truth_table())}
    if half[Scheme.QHC].qubits != 2 or half[Scheme.TOFFOLI_CNOT_HALF].qubits != 3:
        problems.append("half-adder qubit comparison wrong")
    full = {r.scheme: r for r in resource_report(full_adder_truth_table())}
    if (
        full[Scheme.QHC].qubits != 2
        or full[Scheme.TOFFOLI_CNOT_FULL].qubits != 4
        or full[Scheme.FREDKIN_FULL].qubits != 5
    ):
        problems.append("full-adder qubit comparison wrong")
    rng = np.random.default_rng(103)
    for _ in range(20):
        input_count = int(rng.integers(1, 4))
        qubits = int(rng.integers(1, 3))
        rows = {
            bits: format(int(rng.integers(0, 2**qubits)), f"0{qubits}b")
            for bits in itertools.product((0, 1), repeat=input_count)
        }
        table = TruthTable(input_count, qubits, rows)
        distinct = len(set(rows.values()))
        smallest = 0
        while 2**smallest < distinct:
            smallest += 1
        if qubit_count(table) != smallest:
            problems.append(f"qubit_count({distinct} outputs) != {smallest}")
    _conclude("resource comparisons and output-qubit counting", problems)


def test_criterion_8_cli_contract(tmp_path, capsys):
    problems = []
    code = main(["verify", "--gate", "full-adder"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    if code != 0:
        problems.append(f"verify exit code {code}")
    if doc["truth_table"]["max_deviation"] > 1e-9:
        problems.append("verify deviation above 1e-9")
    broken = tmp_path / "broken.json"
    broken.write_text(
        '{"inputs": 2, "output_qubits": 2, "rows": [{"in": "00", "out": "00"}]}',
        encoding="utf-8",
    )
    code = main(["synth", "--table", str(broken)])
    err = capsys.readouterr().err
    if code != 2:
        problems.append(f"malformed table exit code {code}")
    if "01" not in err:
        problems.append("diagnostic does not name the missing row")
    rng = np.random.default_rng(107)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    four_cycle = orbit_permutation((0, 1, 2, 3), 4)
    for candidate in (matrix, four_cycle, half_adder_closed_form(0.3, 0.1)):
        if not np.array_equal(read_matrix(emit_matrix(candidate, "json")), candidate):
            problems.append("matrix JSON round-trip not bit-exact")
    _conclude("CLI exit codes, diagnostics, and matrix round-trip", problems)
