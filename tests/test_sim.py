import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import evaluate_continuous, full_adder_truth_table, half_adder_truth_table, synthesize
from qhckit.errors import DimensionError, InvalidParameter, NonUnitaryError
from qhckit.gates import full_adder_closed_form, half_adder_closed_form
from qhckit.linalg import unitarity_defect
from qhckit.sim import UNITARITY_TOLERANCE, DecodedOutcome, apply, decode, input_sum
from qhckit.synth import index_to_label

from oracles import orbit_column_fft, orbit_permutation, weight_table


def all_zeros(dim):
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    return state


def test_apply_basics():
    e0 = all_zeros(4)
    assert np.array_equal(apply(np.eye(4), e0), e0)
    out = apply(half_adder_closed_form(1, 1), e0)
    assert np.max(np.abs(out - np.array([0, 0, 0, 1], dtype=complex))) < 1e-12
    e3 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.max(np.abs(apply(orbit_permutation((0, 1, 2, 3), 4), e3) - e0)) == 0
    # Nested lists are array-likes too; the state comes back complex.
    out = apply([[0, 1], [1, 0]], [1, 0])
    assert out.dtype == complex and out.tolist() == [0, 1]


def test_apply_rejects_bad_operands():
    e0 = all_zeros(4)
    with pytest.raises(DimensionError):
        apply(np.eye(3), e0)
    with pytest.raises(DimensionError):
        apply(np.zeros((4, 3)), e0)
    with pytest.raises(NonUnitaryError):
        apply(np.ones((4, 4)), e0)
    # A defect equal to the tolerance is still accepted: the gram's off-diagonal is exact.
    skewed = np.array([[1.0, 0.0], [UNITARITY_TOLERANCE, 1.0]])
    assert unitarity_defect(skewed) == UNITARITY_TOLERANCE
    assert apply(skewed, [1, 0]).tolist() == [1, UNITARITY_TOLERANCE]


def test_apply_preserves_norm():
    rng = np.random.default_rng(29)
    gate = synthesize(full_adder_truth_table())
    for _ in range(100):
        u = gate.unitary(rng.uniform(-6, 6))
        state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state /= np.linalg.norm(state)
        assert abs(np.linalg.norm(apply(u, state)) - 1.0) < 1e-10


def test_decode_basis_state():
    outcome = decode(np.array([0, 1, 0, 0], dtype=complex))
    assert outcome.is_basis and outcome.label == "01"
    assert outcome.probabilities == (0.0, 1.0, 0.0, 0.0)


def test_decode_balanced_superposition():
    state = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)
    outcome = decode(state)
    assert not outcome.is_basis and outcome.label is None
    assert np.max(np.abs(np.array(outcome.probabilities) - (0.5, 0.5, 0, 0))) < 1e-12


def test_decode_continuous_full_adder_point():
    gate = synthesize(full_adder_truth_table())
    outcome = evaluate_continuous(gate, (0.5, 0.0, 0.0))
    assert not outcome.is_basis
    expected = (4 + 2 * math.sqrt(2)) / 16
    assert abs(outcome.probabilities[0] - expected) < 1e-12
    assert abs(sum(outcome.probabilities) - 1.0) < 1e-10


def test_decode_rejects_bad_states():
    with pytest.raises(InvalidParameter):
        decode(np.array([1, 1, 0, 0], dtype=complex))
    with pytest.raises(DimensionError):
        decode(np.array([1, 0, 0], dtype=complex))
    with pytest.raises(DimensionError):
        decode(np.eye(4, dtype=complex))


@pytest.mark.parametrize(
    "state",
    [
        [math.nan, 0, 0, 0],
        [math.inf, 0, 0, 0],
        [0, -math.inf, 0, 0],
        [complex(1, math.nan), 0, 0, 0],
        # Finite, but |a|^2 overflows to inf.
        [1e200, 0, 0, 0],
        [0, 1e155 + 1e155j, 0, 0],
    ],
)
def test_decode_rejects_non_finite_states(state):
    with pytest.raises(InvalidParameter, match="not normalized"):
        decode(np.array(state, dtype=complex))


TOLERANCE_READERS = {
    "evaluate_continuous": lambda tolerance: evaluate_continuous(
        synthesize(half_adder_truth_table()), (1.0, 0.0), tolerance=tolerance
    ),
    # Not normalized: the tolerance is checked before the norm.
    "decode": lambda tolerance: decode(np.array([1, 1, 0, 0]), tolerance=tolerance),
}


@pytest.mark.parametrize(
    "tolerance, refused",
    [
        *[(bad, True) for bad in ("x", "0.1", None, 1j, math.nan, -1.0, -5e-324, math.inf)],
        pytest.param(10**400, True, id="10**400"),
        *[(good, False) for good in (0, 0.0, 1e-300, Fraction(1, 3), np.float64(0.5), 1e308)],
    ],
)
@pytest.mark.parametrize("reader", sorted(TOLERANCE_READERS))
def test_readers_take_only_a_finite_real_tolerance_at_least_zero(reader, tolerance, refused):
    read = TOLERANCE_READERS[reader]
    if refused:
        with pytest.raises(InvalidParameter, match="tolerance must be a finite real number >= 0"):
            read(tolerance)
    elif reader == "decode":
        with pytest.raises(InvalidParameter, match="not normalized"):
            read(tolerance)
    else:
        assert read(tolerance).label == "01"


def test_evaluate_boolean_rows_for_both_gates():
    for table in (half_adder_truth_table(), full_adder_truth_table()):
        gate = synthesize(table)
        for bits, label in sorted(table.rows.items()):
            outcome = evaluate_continuous(gate, bits)
            assert outcome.is_basis
            assert outcome.label == label


def test_evaluate_equal_sums_agree():
    gate = synthesize(half_adder_truth_table())
    probs_a = evaluate_continuous(gate, (0.5, 0.5)).probabilities
    probs_b = evaluate_continuous(gate, (1.0, 0.0)).probabilities
    assert np.max(np.abs(np.array(probs_a) - probs_b)) < 1e-12


def test_evaluate_validates_inputs():
    gate = synthesize(half_adder_truth_table())
    with pytest.raises(InvalidParameter):
        evaluate_continuous(gate, (1.0,))
    with pytest.raises(InvalidParameter):
        evaluate_continuous(gate, (1.0, math.nan))
    # Not real numbers, or not a sequence of them.
    for inputs in (["a", 0], 0.5, [1j, 0], [None, 0]):
        with pytest.raises(InvalidParameter, match="real numbers"):
            evaluate_continuous(gate, inputs)
    assert evaluate_continuous(gate, ["0.5", 0.25]) == evaluate_continuous(gate, [0.5, 0.25])


def test_parameters_too_large_for_a_float_are_invalid():
    gate = synthesize(half_adder_truth_table())
    for call in (
        lambda: gate.unitary(10**400),
        lambda: evaluate_continuous(gate, [10**400, 0]),
    ):
        with pytest.raises(InvalidParameter, match="too large"):
            call()


def test_input_sum_is_exact_whatever_the_order():
    # fsum overflows on 1e308 + 1e308 before it reaches the negative term;
    # the exact sum is a float, and every order must give it.
    for values in ([1e308, 1e308, -1e308], [1e308, 1e308, -1.7e308]):
        want = float(sum(map(Fraction, values)))
        for order in itertools.permutations(values):
            assert input_sum(order) == want
    with pytest.raises(InvalidParameter, match="overflows"):
        input_sum([1e308, 1e308])


# Every reader of real gate inputs, each given up to three of them (the half
# adder two) with zeros for the rest; the first two also read a generator.
FULL_ADDER = synthesize(full_adder_truth_table())
READERS = {
    "input_sum": (3, input_sum),
    "evaluate_continuous": (3, lambda xs: evaluate_continuous(FULL_ADDER, xs)),
    "input_sum-generator": (3, lambda xs: input_sum(x for x in xs)),
    "evaluate_continuous-generator": (
        3, lambda xs: evaluate_continuous(FULL_ADDER, (x for x in xs))
    ),
    "half_adder_closed_form": (2, lambda xs: half_adder_closed_form(*xs)),
    "full_adder_closed_form": (3, lambda xs: full_adder_closed_form(*xs)),
}
REFUSED = [
    (None,), ("abc",), (1j,), (10**400,), (math.inf,), (-math.inf,), (math.nan,),
    (math.inf, -math.inf),
    (1e308, 1e308, -math.inf),  # non-finite, though a running sum overflows first
]
# Accepted forms, each with the plain floats it must read as.
ACCEPTED = [
    (("0.5", "0.25"), (0.5, 0.25)),
    ((Fraction(1, 2), Fraction(1, 4)), (0.5, 0.25)),
    ((np.float64(0.5), 0.25), (0.5, 0.25)),
    ((True, 0.25), (1.0, 0.25)),
    ((1e308, 1e308, -1e308), (1e308, 1e308, -1e308)),
]


@pytest.mark.parametrize(
    "reader, inputs, plain",
    [
        (name, inputs, plain)
        for name, (count, _) in READERS.items()
        for inputs, plain in [*((bad, None) for bad in REFUSED), *ACCEPTED]
        if len(inputs) <= count
    ],
)
def test_every_reader_reads_real_inputs_through_input_sum(reader, inputs, plain):
    count, read = READERS[reader]
    if plain is None:
        # Named as a bad input, not as an overflowing sum, even where a running sum overflows.
        with pytest.raises(InvalidParameter, match="must be finite"):
            read((*inputs, *[0] * (count - len(inputs))))
        return
    got = read((*inputs, *[0] * (count - len(inputs))))
    want = read((*plain, *[0.0] * (count - len(plain))))
    assert np.array_equal(got, want) if reader.endswith("closed_form") else got == want


def _near_integer_sum(input_count):
    """Inputs whose sum lies within 1e-7 of an integer."""
    return st.tuples(
        st.lists(st.floats(-10, 10), min_size=input_count - 1, max_size=input_count - 1),
        st.integers(-3 * input_count, 3 * input_count),
        st.floats(-1e-7, 1e-7),
    ).map(lambda parts: [*parts[0], parts[1] + parts[2] - sum(parts[0])])


@settings(max_examples=300, deadline=None)
@given(qubits=st.integers(1, 10), input_count=st.integers(1, 8), data=st.data())
def test_orbit_readout_matches_the_dense_decode(qubits, input_count, data):
    dim = 2**qubits
    length = data.draw(st.integers(1, min(input_count + 1, dim)))
    others = data.draw(
        st.lists(st.integers(1, dim - 1), min_size=length - 1, max_size=length - 1, unique=True)
    )
    orbit = (0, *others)
    labels = tuple(index_to_label(orbit[w % length], qubits) for w in range(input_count + 1))
    gate = synthesize(weight_table(labels, input_count))
    inputs = data.draw(
        st.one_of(
            st.lists(st.floats(-50, 50), min_size=input_count, max_size=input_count),
            _near_integer_sum(input_count),
        )
    )
    outcome = evaluate_continuous(gate, inputs)
    state = np.zeros(dim, dtype=complex)
    state[list(orbit)] = orbit_column_fft(gate.cycle.angles, sum(inputs))
    dense = decode(state)
    assert outcome.label == dense.label
    assert len(outcome.probabilities) == dim
    assert np.max(np.abs(np.array(outcome.probabilities) - dense.probabilities)) <= 1e-12


def test_large_register_label_reads_only_the_orbit():
    # N = 20 gives d = 2^20: a d-entry float array alone is 8 MiB.
    labels = tuple(index_to_label(i, 20) for i in (0, 5, 2**20 - 1, 7, 2**19, 3, 0))
    gate = synthesize(weight_table(labels, 6))
    tracemalloc.start()
    try:
        outcome = evaluate_continuous(gate, (0.5, 0.25, 1.0, 0.0, 0.0, 0.0))
        label = outcome.label
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert label is None and peak < 2**20
    probabilities = outcome.probabilities
    assert len(probabilities) == 2**20
    assert abs(math.fsum(probabilities) - 1.0) < 1e-10


def test_decoded_outcome_contract():
    gate = synthesize(half_adder_truth_table())
    # 0.5 + 0.25 == 0.25 + 0.5: the same state, read twice.
    first, second = (evaluate_continuous(gate, x) for x in ((0.5, 0.25), (0.25, 0.5)))
    assert first == second  # neither has been read yet
    unread = evaluate_continuous(gate, (0.5, 0.25))
    text = repr(unread)
    probabilities = first.probabilities
    assert type(probabilities) is tuple and len(probabilities) == 4
    assert all(type(p) is float for p in probabilities)
    eager = DecodedOutcome(probabilities=probabilities, label=None)
    assert text == f"DecodedOutcome(probabilities={probabilities!r}, label=None)" == repr(eager)
    assert eager == evaluate_continuous(gate, (0.75, 0.0)) == unread
    assert evaluate_continuous(gate, (0.75, 0.0)) == eager
    assert hash(evaluate_continuous(gate, (0.75, 0.0))) == hash(eager) == hash(unread)
    assert len({first, second, eager, unread}) == 1
    assert evaluate_continuous(gate, (0.5, 0.0)) != eager
    sharp = evaluate_continuous(gate, (1, 1))
    assert sharp.label == "11" and sharp.is_basis
    assert sharp != DecodedOutcome(probabilities=(0.0, 0.0, 0.0, 1.0), label=None)
    for outcome in (evaluate_continuous(gate, (0.5, 0.25)), eager):
        for name in ("probabilities", "label"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(outcome, name, None)
    swapped = dataclasses.replace(evaluate_continuous(gate, (0.5, 0.25)), label="00")
    assert swapped.probabilities == probabilities and swapped.label == "00"
    with pytest.raises(AttributeError, match="margin"):
        evaluate_continuous(gate, (0.5, 0.25)).margin
