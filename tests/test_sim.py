import math

import numpy as np
import pytest

from qhckit import evaluate_continuous, full_adder_truth_table, half_adder_truth_table, synthesize
from qhckit.errors import DimensionError, InvalidParameter, NonUnitaryError
from qhckit.gates import half_adder_closed_form
from qhckit.sim import apply, decode

from oracles import orbit_permutation


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


def test_apply_rejects_bad_operands():
    e0 = all_zeros(4)
    with pytest.raises(DimensionError):
        apply(np.eye(3), e0)
    with pytest.raises(DimensionError):
        apply(np.zeros((4, 3)), e0)
    with pytest.raises(NonUnitaryError):
        apply(np.ones((4, 4)), e0)


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
