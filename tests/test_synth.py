import dataclasses
import gc
import itertools
import json
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import (
    QhcError,
    TruthTable,
    evaluate_continuous,
    full_adder_truth_table,
    half_adder_truth_table,
    parse_truth_table,
    synthesize,
    verify,
)
from qhckit.errors import (
    DimensionError,
    InitialStateMismatch,
    InvalidOrbit,
    InvalidParameter,
    NonEmbeddable,
    NotSymmetric,
    SynthesisError,
    ValidationError,
)
from qhckit.linalg import cycle_spectrum, orbit_column
from qhckit.serialize import emit_truth_table
from qhckit.synth import (
    MAX_INPUTS,
    VERIFY_TOLERANCE,
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
    row_checks_oracle,
    satisfying_permutations,
    shortest_orbit,
    validate_rows_oracle,
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
    with pytest.raises(ValidationError, match=r"row 1: input \(1\.0, 0\) is not 2 bits"):
        TruthTable(2, 1, {(0, 0): "0", (1.0, 0): "1", (0, 1): "1", (1, 1): "0"})
    assert TruthTable(1, 1, {(False,): "0", (True,): "1"}).rows == {(0,): "0", (1,): "1"}


def test_dict_keys_take_bits_of_any_integer_type():
    rows = {(np.int8(0), False): "0", (np.uint64(0), 1): "1", (True, np.int64(0)): "1"}
    table = TruthTable(2, 1, {**rows, (np.int32(1), np.uint8(1)): "0"})
    assert dict(table.rows) == {(0, 0): "0", (0, 1): "1", (1, 0): "1", (1, 1): "0"}
    for bit in (np.float64(1.0), np.str_("1"), Fraction(1)):
        with pytest.raises(ValidationError, match=r"row 3: input .* is not 2 bits"):
            TruthTable(2, 1, {**rows, (bit, 1): "0"})


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


def test_gates_are_hashable_values():
    gate = synthesize(half_adder_truth_table())
    twin = synthesize(half_adder_truth_table())
    assert gate == twin and hash(gate) == hash(twin)
    assert {gate, twin} == {gate} and twin in {gate}
    assert synthesize(full_adder_truth_table()) not in {gate}
    assert QhcGate(cycle_spectrum((0, 1, 3), 4), 2) == gate


@pytest.mark.parametrize("length", [0, 1, 3, 5, 8])
def test_a_label_array_of_the_wrong_length_is_refused(length):
    with pytest.raises(ValidationError, match=f"expected 4 labels in counting order, got {length}"):
        TruthTable(2, 2, np.zeros(length, np.uint64))


def test_a_label_array_in_counting_order_is_the_table():
    for dtype in (np.uint64, np.int8, np.uint16, np.int64):
        labels = np.array([0, 1, 1, 3], dtype)
        table = TruthTable(2, 2, labels)
        assert table == half_adder_truth_table()
        assert table.label_indices.dtype == np.uint32 and not table.label_indices.flags.writeable
        assert labels.flags.writeable  # the caller's array is copied, not frozen


@pytest.mark.parametrize(
    "inputs, qubits, rows, match",
    [
        (2.0, 1, {}, "input count must be 1 to 64, got 2.0"),
        ("2", 1, {}, "input count must be 1 to 64, got '2'"),
        (2, 1.0, {}, "output qubit count must be 1 to 20, got 1.0"),
        (2, 1, [0, 1, 1, 0], "rows must be a mapping or array, got list"),
        (2, 1, None, "rows must be a mapping or array, got NoneType"),
        (2, 1, np.array([0.0, 1.0, 1.0, 0.0]), "labels must be 1-D ints, got 1-D float64"),
        (2, 1, np.array([True, False, False, True]), "labels must be 1-D ints, got 1-D bool"),
        (2, 1, np.array([[0, 1], [1, 0]]), "labels must be 1-D ints, got 2-D int64"),
        (2, 1, np.array([0, 3, 3, 0]), "label indices must be 0 to 1"),
        (2, 1, np.array([0, 1, 1, -1]), "label indices must be 0 to 1"),
        (2, 2, np.array([0, 1, 1, 2**32], np.int64), "label indices must be 0 to 3"),
        (2, 2, np.array([0, 1, 1, -128], np.int8), "label indices must be 0 to 3"),
    ],
)
def test_every_bad_argument_is_a_validation_error(inputs, qubits, rows, match):
    with pytest.raises(ValidationError, match=f"^{re.escape(match)}$"):
        TruthTable(inputs, qubits, rows)


def test_row_checks_are_frozen_dataclasses():
    # The benchmark's checker builds a wrong row with dataclasses.replace.
    report = verify(synthesize(half_adder_truth_table()), half_adder_truth_table())
    check = report.rows[1]
    assert check == RowCheck((0, 1), "01", "01", 0.0)
    assert dataclasses.astuple(check) == ((0, 1), "01", "01", 0.0)
    assert repr(check) == "RowCheck(inputs=(0, 1), expected='01', obtained='01', deviation=0.0)"
    assert hash(check) == hash(((0, 1), "01", "01", 0.0))
    assert dataclasses.replace(check, obtained="10") == RowCheck((0, 1), "01", "10", 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.deviation = 1.0


def test_table_rows_are_the_one_row_source():
    table = weight_table(("000", "001", "101", "011", "000"), 4)
    rows = table.rows
    walked = list(rows.walk())
    assert [bits for bits, _ in walked] == list(itertools.product((0, 1), repeat=4))
    assert [rows.row(i) for i in range(-16, 16)] == walked + walked
    assert list(rows.labels()) == [label for _, label in walked]
    for outside in (16, -17):
        with pytest.raises(IndexError):
            rows.row(outside)
    # Report rows, positional reads and the writer never build the dict behind the mapping.
    report = verify(synthesize(table), table)
    assert tuple(report.rows) == tuple(report.rows[i] for i in range(16))
    emit_truth_table(table)
    assert "_rows" not in vars(rows)
    assert list(rows.items()) == walked and "_rows" in vars(rows)


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
    with pytest.raises(InitialStateMismatch, match="all-zero state, got '01'$"):
        find_cycle(("01", "00"))
    # weight-1 and weight-2 outputs coincide but differ from weight 0:
    # the walk would need to stall, which no permutation does
    with pytest.raises(NonEmbeddable):
        find_cycle(("00", "01", "01"))
    # Labels that are not bit strings, which int(label, 2) would refuse or misread.
    for label in ("ab", None, " 1", "1_1", "", 1):
        with pytest.raises(ValidationError, match=re.escape(f"weight 1: output {label!r} ")):
            find_cycle(("00", label))
    # No sequence at all, and a bare string, which would read as one label per character.
    for outputs in (5, "01"):
        with pytest.raises(ValidationError, match="outputs must be a sequence of labels"):
            find_cycle(outputs)


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


def test_gate_input_count_is_one_to_max_inputs():
    # A table's input count has the same range, so every synthesized gate is admitted.
    cycle = cycle_spectrum((0, 1, 3), 4)
    assert [QhcGate(cycle, count).input_count for count in (1, MAX_INPUTS)] == [1, MAX_INPUTS]
    for count in (MAX_INPUTS + 1, 2.0, None):
        with pytest.raises(InvalidParameter, match=f"^gate takes 1 to {MAX_INPUTS} inputs"):
            QhcGate(cycle, count)


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
    # Weight 2 lands in the orbit's last slot; '10' there still deviates by 1.
    rows = dict(half_adder_truth_table().rows)
    rows[(1, 1)] = "10"
    report = verify(synthesize(half_adder_truth_table()), TruthTable(2, 2, rows))
    assert report.rows[3] == RowCheck((1, 1), "10", "11", 1.0)


def replay_every_weight(gate, table):
    """Each row's check in counting order, the gate evolved once per row, plus passed and worst."""
    orbit, n = gate.cycle.orbit, table.output_qubits
    checks = []
    for bits, label in table.rows.items():
        column = orbit_column(gate.cycle, sum(bits))
        target = np.zeros(len(orbit) + 1)
        target[orbit.index(int(label, 2)) if int(label, 2) in orbit else len(orbit)] = 1.0
        deviation = float(np.max(np.abs(np.append(column, 0.0) - target)))
        obtained = index_to_label(orbit[int(np.argmax(np.abs(column)))], n)
        checks.append(RowCheck(bits, label, obtained, deviation))
    worst = max(check.deviation for check in checks)
    passed = worst <= VERIFY_TOLERANCE and all(c.expected == c.obtained for c in checks)
    return tuple(checks), passed, worst


@pytest.mark.parametrize(
    "weight_labels, length",
    [
        (("0", "0", "0", "0"), 1),
        (("0", "1", "0", "1", "0"), 2),
        (("00", "01", "11", "00", "01", "11"), 3),
        (("000", "001", "101", "011", "010"), 5),  # k + 1
    ],
)
def test_verify_matches_a_replay_of_every_weight(weight_labels, length):
    k = len(weight_labels) - 1
    table = weight_table(weight_labels, k)
    gate = synthesize(table)
    assert gate.length == length
    # The gate gets two rows wrong: the first of weight 1 and the last.
    n, rows = table.output_qubits, {}
    for bits in ((0,) * (k - 1) + (1,), (1,) * k):
        rows[bits] = index_to_label(label_to_index(table.rows[bits]) ^ (2**n - 1), n)
    altered = TruthTable(k, n, {**table.rows, **rows})
    for checked, passes in ((table, True), (altered, False)):
        report = verify(gate, checked)
        checks, passed, worst = replay_every_weight(gate, checked)
        assert tuple(report.rows) == checks
        assert (report.passed, report.max_deviation) == (passed, worst)
        assert passed is passes


@st.composite
def mismatched_pairs(draw):
    """A gate synthesized from one table, and a second complete table with the same N.

    The second table may have another k and L; a few of its rows are then
    relabelled at random, which may leave it non-symmetric or off the orbit.
    """
    n = draw(st.integers(1, 3))
    labels = [index_to_label(i, n) for i in range(2**n)]

    def on_orbit(k, orbit):
        return weight_table(tuple(labels[orbit[w % len(orbit)]] for w in range(k + 1)), k)

    def random_orbit(k):
        length = draw(st.integers(1, min(k + 1, 2**n)))
        return (0, *draw(st.permutations(range(1, 2**n)))[: length - 1])

    gate = synthesize(on_orbit(draw(st.integers(1, 6)), random_orbit(draw(st.integers(1, 6)))))
    k = draw(st.integers(1, 6))
    orbit = gate.cycle.orbit if draw(st.booleans()) else random_orbit(k)
    table = on_orbit(k, orbit)
    bits = st.tuples(*[st.integers(0, 1)] * k)
    changes = draw(st.dictionaries(bits, st.sampled_from(labels), max_size=3))
    return gate, TruthTable(k, n, {**table.rows, **changes})


@settings(max_examples=300, deadline=None)
@given(pair=mismatched_pairs())
def test_verify_matches_the_float_oracles_on_mismatched_pairs(pair):
    gate, table = pair
    report = verify(gate, table)
    assert tuple(report.rows) == row_checks_oracle(gate.cycle.orbit, table)
    checks, passed, worst = replay_every_weight(gate, table)
    assert tuple(report.rows) == checks
    assert (report.passed, report.max_deviation) == (passed, worst)


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, 2.0])
def test_a_wrong_label_fails_at_any_tolerance(tolerance):
    table = full_adder_truth_table()
    gate = synthesize(table)
    wrong = TruthTable(3, 2, {**table.rows, (0, 1, 1): "00"})
    assert verify(gate, wrong, tolerance).passed is False
    # A negative or NaN tolerance fails even the table the gate was built from.
    assert verify(gate, table, tolerance).passed is (tolerance == 2.0)


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


KEYS = st.one_of(
    st.tuples(*[st.integers(0, 1)] * 2),
    st.lists(st.sampled_from([0, 1, True, False, 1.0]), max_size=3).map(tuple),
    st.lists(st.sampled_from([0, 1, 2, -1, "1", None]), min_size=1, max_size=2).map(tuple),
    st.sampled_from(["01", 3, None, frozenset({0, 1})]),
)
LABELS = st.one_of(
    st.text(alphabet="01", max_size=3), st.sampled_from(["2", "0b", 1, None, b"01"])
)


@settings(max_examples=300, deadline=None)
@given(
    input_count=st.integers(1, 2),
    output_qubits=st.integers(1, 2),
    rows=st.dictionaries(KEYS, LABELS, max_size=5),
)
def test_dict_constructor_matches_the_row_by_row_oracle(input_count, output_qubits, rows):
    try:
        want = validate_rows_oracle(input_count, output_qubits, rows)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            TruthTable(input_count, output_qubits, rows)
        assert str(got.value) == str(exc)
        return
    table = TruthTable(input_count, output_qubits, rows)
    assert table.labels_by_weight == want
    assert dict(table.rows) == rows and len(table.rows) == 2**input_count


def test_rows_are_a_read_only_view_in_counting_order():
    rows = {(1, 1): "11", (0, 0): "00", (1, 0): "01", (0, 1): "10"}
    table = TruthTable(2, 2, rows)
    assert list(table.rows) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert table.rows == rows and table.rows[(0, 1)] == "10"
    assert table.label_indices.tolist() == [0, 2, 1, 3]
    with pytest.raises(TypeError):
        table.rows[(0, 0)] = "01"
    with pytest.raises(ValueError):
        table.label_indices[0] = 1
    assert TruthTable(2, 2, table.rows) == table != TruthTable(2, 2, {**rows, (0, 0): "01"})
    # Its rows read, a table is still freed by reference counting alone.
    reference = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert reference() is None
    finally:
        gc.enable()


def pipeline_excess_peak(text: str) -> int:
    """Memory that parsing, then synthesis plus verification, add at their peaks, summed.

    Parsing is measured above the peak of ``json.loads`` alone, the rest
    above the memory the parsed table holds.
    """
    tracemalloc.start()
    try:
        json.loads(text)
        _, floor = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table = parse_truth_table(text)
        held, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = verify(synthesize(table), table)
        assert report.passed and report.max_deviation == 0.0
        assert len(table.rows) == len(report.rows) == 2**16
        _, verify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (parse_peak - floor) + (verify_peak - held)


def test_unread_rows_are_never_built():
    # k = 16: weight w maps to w mod 32.  The package adds about 5.5 MiB to
    # the document's own 19.5 MiB, nearly all while parsing; the row-by-row
    # parser with eager rows added 13 MiB there and 11 MiB more in verify.
    # Built eagerly, the 2^16 rows of the table or of the report each add
    # about 10 MiB or more.
    rows = [
        {"in": "".join(bits), "out": format(bits.count("1") % 32, "05b")}
        for bits in itertools.product("01", repeat=16)
    ]
    text = json.dumps({"inputs": 16, "output_qubits": 5, "rows": rows})
    assert pipeline_excess_peak(text) < 11 * 2**20


def test_report_rows_stream():
    # Reading every row once, as a caller checking each replayed row does,
    # holds one row at a time: about 0.5 MiB at k = 16, where a cached tuple
    # of the 2^16 checks peaks near 18 MiB.
    labels = tuple(format(w % 32, "05b") for w in range(17))
    table = weight_table(labels, 16)
    report = verify(synthesize(table), table)
    # Traced from here on, so the peak is counted above what is already held.
    tracemalloc.start()
    try:
        for row in report.rows:
            want = labels[sum(row.inputs)]
            assert row.expected == want and row.obtained == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


TABLES_TO_REPLAY = {
    "half adder": (half_adder_truth_table(), None),
    "full adder": (full_adder_truth_table(), None),
    # A k=4, N=3 table on the orbit (0, 1, 5, 3).
    "k=4": (weight_table(("000", "001", "101", "011", "000"), 4), None),
    # Rows the gate gets wrong: one on the orbit, one off it.
    "altered": (full_adder_truth_table(), {(1, 1, 0): "11", (0, 0, 0): "10"}),
}


@pytest.mark.parametrize("name", TABLES_TO_REPLAY)
def test_lazy_report_rows_match_the_eager_oracle(name):
    table, changes = TABLES_TO_REPLAY[name]
    gate = synthesize(table)
    if changes:
        table = TruthTable(table.input_count, table.output_qubits, {**table.rows, **changes})
    report = verify(gate, table)
    eager = row_checks_oracle(gate.cycle.orbit, table)
    rows = report.rows
    assert len(rows) == len(eager) == 2**table.input_count
    assert tuple(rows) == eager and rows == eager and eager == rows
    assert repr(rows) == repr(eager)
    assert [rows[i] for i in range(-len(rows), len(rows))] == list(eager + eager)
    for outside in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[outside]
    assert rows[1:-1] == eager[1:-1] and rows[::-3] == eager[::-3]
    odd = RowCheck((9,), "x", "y", 0.5)
    assert rows[:-1] + (odd,) == eager[:-1] + (odd,)
    replaced = dataclasses.replace(report, rows=rows[:-1] + (odd,))
    assert replaced.rows[-1] is odd and replaced.passed == report.passed
    assert hash(report) == hash(dataclasses.replace(report, rows=eager))
    assert report.passed == (changes is None)
    assert report.max_deviation == max(check.deviation for check in eager)
