import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhckit import TruthTable, full_adder_truth_table, gates, half_adder_truth_table, synthesize
from qhckit.errors import InvalidParameter
from qhckit.gates import (
    BUILTINS,
    MAX_GRID_POINTS,
    GateKind,
    builtin_kind,
    cross_validate,
    full_adder_closed_form,
    half_adder_closed_form,
)
from qhckit.linalg import cycle_spectrum, exp_from_spectrum, hermitian_generator
from qhckit.sim import input_sum

from oracles import orbit_permutation

E = np.eye(4, dtype=complex)


def test_half_adder_boolean_columns():
    assert np.max(np.abs(half_adder_closed_form(0, 0) - E)) < 1e-12
    assert np.max(np.abs(half_adder_closed_form(1, 0)[:, 0] - E[:, 1])) < 1e-12
    assert np.max(np.abs(half_adder_closed_form(0, 1)[:, 0] - E[:, 1])) < 1e-12
    assert np.max(np.abs(half_adder_closed_form(1, 1)[:, 0] - E[:, 3])) < 1e-12


def test_full_adder_boolean_columns():
    assert np.max(np.abs(full_adder_closed_form(0, 0, 0) - E)) < 1e-12
    assert np.max(np.abs(full_adder_closed_form(1, 0, 0)[:, 0] - E[:, 1])) < 1e-12
    assert np.max(np.abs(full_adder_closed_form(1, 1, 0)[:, 0] - E[:, 2])) < 1e-12
    assert np.max(np.abs(full_adder_closed_form(1, 1, 1)[:, 0] - E[:, 3])) < 1e-12


def test_full_adder_is_circulant():
    m = full_adder_closed_form(0.3, 0.4, 0.1)
    for r in range(4):
        for c in range(4):
            assert m[r, c] == m[(r + 1) % 4, (c + 1) % 4]


def test_closed_forms_are_unitary():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, g = rng.uniform(-4, 4, size=3)
        for m in (half_adder_closed_form(a, b), full_adder_closed_form(a, g, b)):
            gram = m.conj().T @ m
            assert np.max(np.abs(gram - E)) < 1e-12


def test_sum_only_dependence():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, b, shift = rng.uniform(-3, 3, size=3)
        lhs = half_adder_closed_form(a, b)
        rhs = half_adder_closed_form(a - shift, b + shift)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        g = rng.uniform(-3, 3)
        lhs = full_adder_closed_form(a, g, b)
        rhs = full_adder_closed_form(a + shift, g - shift, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_half_adder_fixes_basis_index_two():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = half_adder_closed_form(*rng.uniform(-5, 5, size=2))
        assert np.array_equal(m[2, :], E[2, :])
        assert np.array_equal(m[:, 2], E[:, 2])


def test_periodicity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = rng.uniform(-2, 2)
        half_gap = half_adder_closed_form(s, 0) - half_adder_closed_form(s + 3, 0)
        full_gap = full_adder_closed_form(s, 0, 0) - full_adder_closed_form(s + 4, 0, 0)
        assert np.max(np.abs(half_gap)) < 1e-12
        assert np.max(np.abs(full_gap)) < 1e-12


def test_full_adder_sum_does_not_depend_on_the_order_of_the_parameters():
    # 1e308 + 1e308 overflows on the way to the exact sum, about 3e307.
    values = (1e308, 1e308, -1.7e308)
    matrices = [full_adder_closed_form(*order) for order in itertools.permutations(values)]
    assert all(np.array_equal(m, matrices[0]) for m in matrices)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=3))
@example(values=[6e307, 0.0, 0.0])  # pi * s overflows unless s is reduced first
@example(values=[5e307, 0.0])
@example(values=[1e15 + 0.5, 0.0, 0.0])  # 0.135 off before the reduction
@example(values=[1e15 + 0.5, 0.0])
@example(values=[1e12 + 0.25, 0.0])
@example(values=[1e308, 1e308])  # the exact sum overflows
def test_closed_forms_match_the_spectral_gate_at_every_finite_sum(values):
    kind, closed_form = {
        2: (GateKind.HALF_ADDER, half_adder_closed_form),
        3: (GateKind.FULL_ADDER, full_adder_closed_form),
    }[len(values)]
    try:
        s = input_sum(values)
    except InvalidParameter:
        with pytest.raises(InvalidParameter):
            closed_form(*values)
        return
    gate = synthesize(BUILTINS[kind].truth_table())
    gap = np.max(np.abs(closed_form(*values) - exp_from_spectrum(gate.cycle, s)))
    assert gap <= 1e-9, (values, gap)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(InvalidParameter):
        half_adder_closed_form(bad, 0)
    with pytest.raises(InvalidParameter):
        full_adder_closed_form(0, bad, 0)


def test_four_cycle_generator_matches_expm():
    h = hermitian_generator(cycle_spectrum((0, 1, 2, 3), 4))
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    r = orbit_permutation((0, 1, 2, 3), 4)
    assert np.max(np.abs(scipy.linalg.expm(-1j * h) - r)) < 1e-12


def test_cross_validate_grids():
    assert cross_validate(GateKind.HALF_ADDER, 101) <= 1e-9
    assert cross_validate(GateKind.FULL_ADDER, 101) <= 1e-9
    # two points sample s = 0 and s = L where both routes give the identity
    assert cross_validate(GateKind.FULL_ADDER, 2) < 1e-12
    with pytest.raises(InvalidParameter):
        cross_validate(GateKind.HALF_ADDER, 1)


class GridBuilt(Exception):
    """Raised by the spy in place of building a grid."""


def test_cross_validate_refuses_a_grid_before_building_it(monkeypatch):
    built = []

    def spy(start, stop, num):
        built.append(num)
        raise GridBuilt

    monkeypatch.setattr(gates.np, "linspace", spy)
    for grid in (2, MAX_GRID_POINTS):
        with pytest.raises(GridBuilt):
            cross_validate(GateKind.FULL_ADDER, grid)
    assert built == [2, MAX_GRID_POINTS]
    # 10**12 points would be a 7.28 TiB array: refused by the count alone.
    for grid in (1, MAX_GRID_POINTS + 1, 10**12):
        with pytest.raises(InvalidParameter, match=f"2 to {MAX_GRID_POINTS} points"):
            cross_validate(GateKind.FULL_ADDER, grid)
    assert built == [2, MAX_GRID_POINTS]


def test_builtin_truth_tables():
    half = half_adder_truth_table()
    assert half.rows == {(0, 0): "00", (0, 1): "01", (1, 0): "01", (1, 1): "11"}
    full = full_adder_truth_table()
    assert full.input_count == 3 and full.output_qubits == 2
    for bits, label in full.rows.items():
        assert label == format(sum(bits), "02b")


@pytest.mark.parametrize(
    "kind, orbit",
    [
        pytest.param(GateKind.HALF_ADDER, (0, 1, 3), id="half-adder"),
        pytest.param(GateKind.FULL_ADDER, (0, 1, 2, 3), id="full-adder"),
    ],
)
def test_builtin_registry_is_consistent(kind, orbit):
    table = BUILTINS[kind].truth_table()
    assert synthesize(table).cycle.orbit == orbit
    assert builtin_kind(table) is kind


def test_builtin_kind_rejects_an_altered_full_adder():
    rows = dict(full_adder_truth_table().rows)
    rows[(1, 1, 0)] = "11"
    assert builtin_kind(TruthTable(3, 2, rows)) is None
