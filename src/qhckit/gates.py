"""The built-in adder gates and their cross-check against spectral synthesis.

Two reference gates act on a two qubit register: a half adder driven by two
Boolean inputs and a full adder driven by three.  ``BUILTINS`` defines each
one by its output label per input weight, which fixes the truth table, and
by its closed-form 4x4 matrix of the input sum; the published layouts they
are costed against are ``report.BASELINES``.  Both gates depend on their
inputs only through the sum, which ``sim.input_sum`` reads and checks, so
the formulas accept arbitrary finite real parameters and interpolate
smoothly between the Boolean points; the sum is reduced modulo the period
(3 or 4) before any trigonometry, so every finite sum keeps full accuracy.

The same gates arise a second way, by synthesizing each truth table.
``cross_validate`` compares the closed form with the synthesized gate on a
parameter grid; they share no code, so agreement checks the orbit that
``find_cycle`` derives and its spectrum rather than restating a tautology.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import InvalidParameter
from .linalg import exp_from_spectrum
from .sim import input_sum
from .synth import TruthTable, analyze_symmetry, find_cycle, synthesize


class GateKind(enum.Enum):
    """The two built-in reference gates."""

    HALF_ADDER = "half-adder"
    FULL_ADDER = "full-adder"


def half_adder_closed_form(alpha: float, beta: float) -> np.ndarray:
    """Half-adder unitary on two qubits, evaluated from its explicit formula.

    At Boolean inputs it walks the all-zero state along 00 -> 01 -> 11;
    basis state 10 (index 2) is left exactly invariant for every parameter
    choice.  The matrix is real and unitary for all finite inputs: ``stay``
    is the diagonal amplitude, and forward and backward hops between cycled
    states differ by the antisymmetric ``circulation``.
    """
    theta = 2.0 * math.pi * math.fmod(input_sum((alpha, beta)), 3.0) / 3.0
    stay = (2.0 * math.cos(theta) + 1.0) / 3.0
    exchange = (1.0 - math.cos(theta)) / 3.0
    circulation = math.sin(theta) / math.sqrt(3.0)
    forward = exchange + circulation
    backward = exchange - circulation
    return np.array(
        [
            [stay, backward, 0.0, forward],
            [forward, stay, 0.0, backward],
            [0.0, 0.0, 1.0, 0.0],
            [backward, forward, 0.0, stay],
        ],
        dtype=complex,
    )


def full_adder_closed_form(alpha: float, gamma: float, beta: float) -> np.ndarray:
    """Full-adder unitary on two qubits, evaluated from its explicit formula.

    The matrix is circulant: entry (r, c) depends only on (r - c) mod 4, so
    four complex weights fill all sixteen entries.  At Boolean inputs it
    advances the all-zero state along 00 -> 01 -> 10 -> 11 -> 00, one step
    per asserted input.
    """
    s = math.fmod(input_sum((alpha, gamma, beta)), 4.0)
    phase = complex(math.cos(math.pi * s), math.sin(math.pi * s))
    cos_half = math.cos(math.pi * s / 2.0)
    sin_half = math.sin(math.pi * s / 2.0)
    w0 = (phase + 2.0 * cos_half + 1.0) / 4.0
    w1 = (2.0 * sin_half - phase + 1.0) / 4.0
    w2 = (phase - 2.0 * cos_half + 1.0) / 4.0
    w3 = (-2.0 * sin_half - phase + 1.0) / 4.0
    return np.array(
        [
            [w0, w3, w2, w1],
            [w1, w0, w3, w2],
            [w2, w1, w0, w3],
            [w3, w2, w1, w0],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class Builtin:
    """One built-in gate: its truth table and closed form.

    ``weight_labels[w]`` is the output label of every input with exactly
    ``w`` ones; ``closed_form(s)`` is the gate's matrix at input sum ``s``.
    """

    weight_labels: tuple[str, ...]
    closed_form: Callable[[float], np.ndarray]

    def truth_table(self) -> TruthTable:
        input_count = len(self.weight_labels) - 1
        rows = {
            bits: self.weight_labels[sum(bits)]
            for bits in itertools.product((0, 1), repeat=input_count)
        }
        return TruthTable(
            input_count=input_count, output_qubits=len(self.weight_labels[0]), rows=rows
        )


BUILTINS: dict[GateKind, Builtin] = {
    GateKind.HALF_ADDER: Builtin(
        weight_labels=("00", "01", "11"),
        closed_form=lambda s: half_adder_closed_form(s, 0.0),
    ),
    GateKind.FULL_ADDER: Builtin(
        weight_labels=("00", "01", "10", "11"),
        closed_form=lambda s: full_adder_closed_form(s, 0.0, 0.0),
    ),
}
# Derived from the labels, not stated: qhcbench's oracle test reads these names.
HALF_ADDER_ORBIT = find_cycle(BUILTINS[GateKind.HALF_ADDER].weight_labels)
FULL_ADDER_ORBIT = find_cycle(BUILTINS[GateKind.FULL_ADDER].weight_labels)

MAX_GRID_POINTS = 10**5  # most points cross_validate takes: it builds the whole grid at once
VERIFY_TOLERANCE = 1e-9  # the acceptance bar on cross_validate's gap; the command line's default


def builtin_kind(table: TruthTable) -> GateKind | None:
    """The built-in gate whose truth table equals ``table``, if any."""
    outputs = analyze_symmetry(table)
    return next((kind for kind, b in BUILTINS.items() if b.weight_labels == outputs), None)


def cross_validate(kind: GateKind, grid_points: int) -> float:
    """Worst entrywise gap between a closed form and its spectral twin.

    Sweeps the parameter sum over ``grid_points`` uniform samples of one
    full period [0, L] (L = 3 for the half adder, 4 for the full adder) and
    compares the explicit matrix formula against the gate synthesized from
    the truth table.  Agreement within ``VERIFY_TOLERANCE`` is the acceptance bar.
    """
    if not isinstance(kind, GateKind):
        raise InvalidParameter(f"unknown gate kind {kind!r}")
    if not (isinstance(grid_points, Integral) and 2 <= grid_points <= MAX_GRID_POINTS):
        raise InvalidParameter(f"grid must be 2 to {MAX_GRID_POINTS} points, got {grid_points!r}")
    builtin = BUILTINS[kind]
    gate = synthesize(builtin.truth_table())
    grid = np.linspace(0.0, float(gate.length), grid_points).tolist()
    gaps = (builtin.closed_form(s) - exp_from_spectrum(gate.cycle, s) for s in grid)
    return max(float(np.max(np.abs(gap))) for gap in gaps)


def half_adder_truth_table() -> TruthTable:
    """Two-input table: output label per weight is 00, 01, 11."""
    return BUILTINS[GateKind.HALF_ADDER].truth_table()


def full_adder_truth_table() -> TruthTable:
    """Three-input table: the output counts asserted inputs in binary."""
    return BUILTINS[GateKind.FULL_ADDER].truth_table()
