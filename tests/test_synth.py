import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import (
    TruthTable,
    evaluate_continuous,
    full_adder_truth_table,
    half_adder_truth_table,
    synthesize,
    verify,
)
from qhckit.errors import (
    DimensionError,
    InitialStateMismatch,
    InvalidOrbit,
    NonEmbeddable,
    NotSymmetric,
    SynthesisError,
    ValidationError,
)
from qhckit.linalg import cycle_spectrum
from qhckit.synth import (
    QhcGate,
    RowCheck,
    analyze_symmetry,
    find_cycle,
    index_to_label,
    label_to_index,
    qubit_count,
)

from oracles import (
    orbit_permutation,
    permutation_matrix,
    satisfying_permutations,
    shortest_orbit,
    weight_table,
)


def test_truth_table_requires_all_rows():
    with pytest.raises(ValidationError, match="missing input row '10'"):
        TruthTable(2, 1, {(0, 0): "0", (0, 1): "1", (1, 1): "0"})


def test_missing_row_check_does_not_enumerate_all_inputs():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="missing input row '000000000000000000'"):
            TruthTable(18, 2, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_truth_table_rejects_bad_labels():
    with pytest.raises(ValidationError, match="row 1: bad output label '0'; expected 2 bits"):
        TruthTable(1, 2, {(0,): "00", (1,): "0"})
    with pytest.raises(ValidationError, match="row 1"):
        TruthTable(1, 1, {(0,): "0", (1,): "x"})
    with pytest.raises(ValidationError, match=r"row 0: input \(0, 1\) is not 1 bits"):
        TruthTable(1, 1, {(0, 1): "0", (1,): "1"})
    with pytest.raises(ValidationError):
        TruthTable(0, 1, {(): "0"})
    with pytest.raises(ValidationError, match="row 0: bad output label 0; expected 1 bits"):
        TruthTable(1, 1, {(0,): 0, (1,): 1})


@pytest.mark.parametrize(
    "inputs, qubits, match",
    [(65, 1, "input count must be 1 to 64"), (10**6, 1, "input count"), (1, 21, "output qubit")],
)
def test_size_caps_reject_before_reading_rows(inputs, qubits, match):
    rows = {(0,): "0" * qubits, (1,): "1" * qubits} if inputs == 1 else {}
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=match):
            TruthTable(inputs, qubits, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_size_caps_admit_their_limits():
    with pytest.raises(ValidationError, match="missing input row"):
        TruthTable(64, 1, {})
    table = TruthTable(1, 20, {(0,): "0" * 20, (1,): "0" * 19 + "1"})
    assert synthesize(table).dim == 2**20


def test_labels_by_weight_groups_rows():
    table = TruthTable(2, 2, {(0, 0): "00", (0, 1): "01", (1, 0): "10", (1, 1): "11"})
    assert table.labels_by_weight == (frozenset({"00"}), frozenset({"01", "10"}), frozenset({"11"}))
    assert half_adder_truth_table().labels_by_weight == tuple(
        frozenset({label}) for label in ("00", "01", "11")
    )
    # The profile is derived: it is neither a constructor argument nor compared.
    assert "labels_by_weight" not in repr(table)
    assert table == TruthTable(2, 2, dict(table.rows))


def test_label_round_trip():
    for bits in (1, 2, 3):
        for index in range(2**bits):
            assert label_to_index(index_to_label(index, bits)) == index
    assert label_to_index("10") == 2
    assert index_to_label(1, 2) == "01"


def test_truth_table_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'TruthTable'"):
        hash(half_adder_truth_table())


def test_analyze_symmetry_on_half_adder():
    assert analyze_symmetry(half_adder_truth_table()) == ("00", "01", "11")


def test_analyze_symmetry_rejects_weight_conflict():
    table = TruthTable(2, 2, {(0, 0): "00", (0, 1): "01", (1, 0): "10", (1, 1): "11"})
    assert analyze_symmetry(table) is None


def test_find_cycle_half_and_full():
    assert find_cycle(analyze_symmetry(half_adder_truth_table())) == (0, 1, 3)
    assert find_cycle(analyze_symmetry(full_adder_truth_table())) == (0, 1, 2, 3)
    assert synthesize(half_adder_truth_table()).length == 3
    assert synthesize(full_adder_truth_table()).length == 4


def test_find_cycle_rejections():
    with pytest.raises(NotSymmetric):
        find_cycle(None)
    with pytest.raises(InitialStateMismatch):
        find_cycle(("01", "00"))
    # weight-1 and weight-2 outputs coincide but differ from weight 0:
    # the walk would need to stall, which no permutation does
    with pytest.raises(NonEmbeddable):
        find_cycle(("00", "01", "01"))


def test_find_cycle_constant_table_gives_identity():
    assert find_cycle(("0", "0")) == (0,)
    gate = synthesize(TruthTable(1, 1, {(0,): "0", (1,): "0"}))
    assert gate.cycle.orbit == (0,) and gate.length == 1
    assert np.max(np.abs(gate.unitary(0.8) - np.eye(2))) < 1e-12


def test_find_cycle_wraps_shorter_period():
    # weights 0,1,2 map to 00,01,00: a two-cycle traversed one and a half times
    assert find_cycle(("00", "01", "00")) == (0, 1)


@settings(max_examples=300, deadline=None)
@given(qubits=st.integers(1, 6), input_count=st.integers(1, 40), data=st.data())
def test_find_cycle_matches_the_shortest_orbit_oracle(qubits, input_count, data):
    # Walk a random orbit from 0, then overwrite up to two weights at random.
    dim = 2**qubits
    others = data.draw(st.permutations(range(1, dim)))
    length = data.draw(st.integers(1, min(input_count + 1, dim)))
    orbit = (0, *others[: length - 1])
    targets = [orbit[w % length] for w in range(input_count + 1)]
    for _ in range(data.draw(st.integers(0, 2))):
        targets[data.draw(st.integers(0, input_count))] = data.draw(st.integers(0, dim - 1))
    labels = tuple(index_to_label(t, qubits) for t in targets)
    try:
        expected = shortest_orbit(labels, qubits)
    except SynthesisError as exc:
        with pytest.raises(type(exc)):
            find_cycle(labels)
    else:
        assert find_cycle(labels) == expected


def test_synthesized_permutation_matches_oracle():
    for table in (half_adder_truth_table(), full_adder_truth_table()):
        gate = synthesize(table)
        expected = orbit_permutation(gate.cycle.orbit, gate.dim)
        assert np.array_equal(gate.unitary(1.0), expected)


def test_gate_rejects_orbit_not_starting_at_zero():
    # state(s) is U(s) applied to index 0, so the orbit must start there.
    with pytest.raises(InvalidOrbit, match="start at index 0"):
        QhcGate(cycle_spectrum((2, 0, 1, 3), 4), input_count=2)
    assert QhcGate(cycle_spectrum((0, 1, 3), 4), input_count=2).length == 3


def test_verify_passes_builtin_tables():
    for table in (half_adder_truth_table(), full_adder_truth_table()):
        report = verify(synthesize(table), table)
        assert report.passed
        assert report.max_deviation < 1e-12


def test_verify_flags_exactly_the_altered_row():
    table = full_adder_truth_table()
    altered = dict(table.rows)
    altered[(1, 1, 0)] = "11"
    bad = TruthTable(3, 2, altered)
    report = verify(synthesize(table), bad)
    assert not report.passed
    failures = [row.inputs for row in report.rows if row.obtained != row.expected]
    assert failures == [(1, 1, 0)]


def test_verify_scores_a_label_off_the_orbit():
    # '10' (index 2) is off the half adder's orbit (0, 1, 3), at weight 0.
    rows = dict(half_adder_truth_table().rows)
    rows[(0, 0)] = "10"
    report = verify(synthesize(half_adder_truth_table()), TruthTable(2, 2, rows))
    assert not report.passed and report.max_deviation == 1.0
    assert report.rows[0] == RowCheck((0, 0), "10", "00", 1.0)
    assert all(row.deviation == 0.0 for row in report.rows[1:])


def test_verify_dimension_mismatch():
    gate = synthesize(half_adder_truth_table())
    table = TruthTable(1, 1, {(0,): "0", (1,): "1"})
    with pytest.raises(DimensionError):
        verify(gate, table)


def test_generator_is_hermitian():
    gate = synthesize(half_adder_truth_table())
    h = gate.generator
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_identity_table_synthesizes_as_a_swap():
    table = TruthTable(1, 1, {(0,): "0", (1,): "1"})
    gate = synthesize(table)
    assert gate.cycle.orbit == (0, 1)
    assert np.max(np.abs(gate.unitary(1.0) - np.array([[0, 1], [1, 0]]))) < 1e-12


def test_gate_is_periodic_in_its_cycle_length():
    rng = np.random.default_rng(31)
    for table in (half_adder_truth_table(), full_adder_truth_table()):
        gate = synthesize(table)
        for s in rng.uniform(-5, 5, size=10):
            gap = np.max(np.abs(gate.unitary(s + gate.length) - gate.unitary(s)))
            assert gap < 1e-10


def test_qubit_count():
    assert qubit_count(half_adder_truth_table()) == 2
    assert qubit_count(full_adder_truth_table()) == 2
    assert qubit_count(TruthTable(1, 1, {(0,): "0", (1,): "0"})) == 0
    assert qubit_count(TruthTable(1, 1, {(0,): "0", (1,): "1"})) == 1


@settings(max_examples=150, deadline=None)
@given(
    input_count=st.integers(1, 3),
    qubits=st.integers(1, 2),
    data=st.data(),
)
def test_synthesis_agrees_with_brute_force(input_count, qubits, data):
    labels = data.draw(
        st.tuples(
            *[st.integers(0, 2**qubits - 1) for _ in range(input_count + 1)]
        ).map(lambda t: tuple(format(i, f"0{qubits}b") for i in t))
    )
    table = weight_table(labels, input_count)
    witnesses = satisfying_permutations(table)
    try:
        gate = synthesize(table)
    except SynthesisError:
        assert witnesses == []
        return
    assert witnesses
    report = verify(gate, table)
    assert report.passed and report.max_deviation == 0.0
    power = orbit_permutation(gate.cycle.orbit, gate.dim)
    for r in range(-5, 6):
        exact = np.linalg.matrix_power(power, r % gate.length)
        assert np.array_equal(gate.unitary(float(r)), exact)
    s = data.draw(st.floats(-8, 8))
    assert np.max(np.abs(gate.state(s) - gate.unitary(s)[:, 0])) < 1e-12
    u1 = gate.unitary(1.0)
    gaps = [np.max(np.abs(u1 - permutation_matrix(perm))) for perm in witnesses]
    assert min(gaps) < 1e-9


def test_large_register_needs_no_dense_matrix():
    # N = 12 gives d = 4096; one dense complex U would take 256 MiB.
    labels = tuple(index_to_label(i, 12) for i in (0, 1, 4095, 2048))
    table = weight_table(labels, 3)
    tracemalloc.start()
    try:
        gate = synthesize(table)
        report = verify(gate, table)
        outcome = evaluate_continuous(gate, (1.0, 0.5, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and len(report.rows) == 8
    assert outcome.label is None and abs(sum(outcome.probabilities) - 1.0) < 1e-10
    assert peak < 16 * 2**20


def test_verify_on_a_large_register_stays_on_the_orbit():
    # N = 20 gives d = 2^20; one complex state vector alone is 16 MiB.
    labels = tuple(index_to_label(i, 20) for i in (0, 5, 2**20 - 1, 7, 2**19, 3, 0))
    table = weight_table(labels, 6)
    gate = synthesize(table)
    tracemalloc.start()
    try:
        report = verify(gate, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and len(report.rows) == 64
    assert peak < 2**20
