from qhckit import TruthTable, full_adder_truth_table, half_adder_truth_table
from qhckit.report import Scheme, resource_report


def test_half_adder_report():
    rows = resource_report(half_adder_truth_table())
    assert [r.scheme for r in rows] == [Scheme.QHC, Scheme.TOFFOLI_CNOT_HALF]
    qhc, baseline = rows
    assert (qhc.qubits, qhc.hilbert_dim, qhc.gate_count) == (2, 4, 1)
    assert qhc.citation is None
    assert (baseline.qubits, baseline.hilbert_dim) == (3, 8)
    assert baseline.gate_count is None
    assert "Vedral" in baseline.citation
    assert all(r.hilbert_dim == 2**r.qubits for r in rows)


def test_full_adder_report():
    rows = resource_report(full_adder_truth_table())
    assert [r.scheme for r in rows] == [
        Scheme.QHC,
        Scheme.TOFFOLI_CNOT_FULL,
        Scheme.FREDKIN_FULL,
    ]
    assert (rows[0].qubits, rows[0].gate_count) == (2, 1)
    assert (rows[1].qubits, rows[1].hilbert_dim) == (4, 16)
    assert (rows[2].qubits, rows[2].hilbert_dim, rows[2].gate_count) == (5, 32, 5)
    assert "Moutinho" in rows[2].citation
    assert all(r.hilbert_dim == 2**r.qubits for r in rows)


def test_constant_zero_table_gets_no_baselines():
    table = TruthTable(1, 1, {(0,): "0", (1,): "0"})
    rows = resource_report(table)
    assert len(rows) == 1
    assert rows[0].scheme is Scheme.QHC
    assert (rows[0].qubits, rows[0].hilbert_dim, rows[0].gate_count) == (0, 1, 1)


def test_unrecognized_table_gets_only_the_qhc_row():
    table = TruthTable(2, 1, {(0, 0): "0", (0, 1): "1", (1, 0): "1", (1, 1): "0"})
    rows = resource_report(table)
    assert [r.scheme for r in rows] == [Scheme.QHC]
    assert rows[0].qubits == 1


def test_scheme_values_are_stable():
    assert {s.value for s in Scheme} == {
        "qhc",
        "toffoli-cnot-half",
        "toffoli-cnot-full",
        "fredkin-full",
    }
