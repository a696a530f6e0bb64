"""Closed-form adder gates and their cross-check against spectral synthesis.

Two reference gates are provided as explicit 4x4 matrix formulas over a two
qubit register: a half adder driven by two Boolean inputs and a full adder
driven by three.  Both depend on their inputs only through the sum, so the
formulas accept arbitrary real parameters and interpolate smoothly between
the Boolean points.

The same gates arise a second way, by exponentiating the generator of a
basis cycle (``linalg.cycle_spectrum``).  ``cross_validate`` compares the
two constructions on a parameter grid; they share no code, so agreement is
a real consistency check rather than a tautology.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter
from .linalg import cycle_spectrum, exp_from_spectrum, hermitian_generator
from .synth import TruthTable

HALF_ADDER_ORBIT = (0, 1, 3)
FULL_ADDER_ORBIT = (0, 1, 2, 3)

# Output label per input weight; index w holds the label for weight w.
HALF_ADDER_WEIGHT_LABELS = ("00", "01", "11")
FULL_ADDER_WEIGHT_LABELS = ("00", "01", "10", "11")


class GateKind(enum.Enum):
    """The two built-in reference gates."""

    HALF_ADDER = "half-adder"
    FULL_ADDER = "full-adder"


def _require_finite(**named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise InvalidParameter(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class HalfAdderCoefficients:
    """Real amplitudes filling the half-adder matrix at one parameter sum.

    ``stay`` is the diagonal amplitude, ``exchange`` the symmetric part of
    the hop between cycled states, and ``circulation`` the antisymmetric
    part that sets the hop's direction.  Forward hops get
    ``exchange + circulation``, backward hops ``exchange - circulation``.
    """

    stay: float
    exchange: float
    circulation: float

    def __post_init__(self) -> None:
        # Columns of the assembled matrix are unit vectors only if the
        # diagonal and the two hop weights keep this affine relation.
        if abs(self.stay + 2.0 * self.exchange - 1.0) > 1e-9:
            raise InvalidParameter(
                f"stay + 2*exchange must equal 1, got {self.stay + 2.0 * self.exchange}"
            )


def half_adder_coefficients(alpha: float, beta: float) -> HalfAdderCoefficients:
    """Coefficients of the half-adder form; a function of ``alpha + beta`` only."""
    _require_finite(alpha=alpha, beta=beta)
    theta = 2.0 * math.pi * (alpha + beta) / 3.0
    return HalfAdderCoefficients(
        stay=(2.0 * math.cos(theta) + 1.0) / 3.0,
        exchange=(1.0 - math.cos(theta)) / 3.0,
        circulation=math.sin(theta) / math.sqrt(3.0),
    )


def half_adder_closed_form(alpha: float, beta: float) -> np.ndarray:
    """Half-adder unitary on two qubits, evaluated from its explicit formula.

    At Boolean inputs it walks the all-zero state along 00 -> 01 -> 11;
    basis state 10 (index 2) is left exactly invariant for every parameter
    choice.  The matrix is real and unitary for all finite inputs.
    """
    c = half_adder_coefficients(alpha, beta)
    forward = c.exchange + c.circulation
    backward = c.exchange - c.circulation
    return np.array(
        [
            [c.stay, backward, 0.0, forward],
            [forward, c.stay, 0.0, backward],
            [0.0, 0.0, 1.0, 0.0],
            [backward, forward, 0.0, c.stay],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class FullAdderCoefficients:
    """Trigonometric ingredients of the full-adder matrix at one parameter sum.

    ``phase`` is the unit complex number at angle pi times the sum;
    ``cos_half``/``sin_half`` evaluate the half-angle pi*s/2 and
    ``cos_full``/``sin_full`` the full angle pi*s.  The pair
    (cos_full, sin_full) recombines to ``phase``; both appear separately in
    the matrix formula, and the redundancy is kept so each can be checked
    against the other.
    """

    phase: complex
    cos_half: float
    sin_half: float
    cos_full: float
    sin_full: float

    def __post_init__(self) -> None:
        if abs(abs(self.phase) - 1.0) > 1e-9:
            raise InvalidParameter(f"phase must lie on the unit circle, got {self.phase}")
        if abs(complex(self.cos_full, self.sin_full) - self.phase) > 1e-9:
            raise InvalidParameter("cos_full + i*sin_full must recombine to phase")


def full_adder_coefficients(alpha: float, gamma: float, beta: float) -> FullAdderCoefficients:
    """Coefficients of the full-adder form; a function of the input sum only."""
    _require_finite(alpha=alpha, gamma=gamma, beta=beta)
    s = alpha + gamma + beta
    half_angle = math.pi * s / 2.0
    full_angle = math.pi * s
    return FullAdderCoefficients(
        phase=complex(math.cos(full_angle), math.sin(full_angle)),
        cos_half=math.cos(half_angle),
        sin_half=math.sin(half_angle),
        cos_full=math.cos(full_angle),
        sin_full=math.sin(full_angle),
    )


def full_adder_closed_form(alpha: float, gamma: float, beta: float) -> np.ndarray:
    """Full-adder unitary on two qubits, evaluated from its explicit formula.

    The matrix is circulant: entry (r, c) depends only on (r - c) mod 4, so
    four complex weights fill all sixteen entries.  At Boolean inputs it
    advances the all-zero state along 00 -> 01 -> 10 -> 11 -> 00, one step
    per asserted input.
    """
    c = full_adder_coefficients(alpha, gamma, beta)
    rebuilt = complex(c.cos_full, c.sin_full)
    w0 = (c.phase + 2.0 * c.cos_half + 1.0) / 4.0
    w1 = (2.0 * c.sin_half - rebuilt + 1.0) / 4.0
    w2 = (c.phase - 2.0 * c.cos_half + 1.0) / 4.0
    w3 = (-2.0 * c.sin_half - rebuilt + 1.0) / 4.0
    return np.array(
        [
            [w0, w3, w2, w1],
            [w1, w0, w3, w2],
            [w2, w1, w0, w3],
            [w3, w2, w1, w0],
        ],
        dtype=complex,
    )


def four_cycle_matrix() -> np.ndarray:
    """Permutation matrix cycling all four basis states: 0 -> 1 -> 2 -> 3 -> 0."""
    return np.array(
        [
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def four_cycle_generator() -> np.ndarray:
    """Hermitian generator of the four-state cycle via its exact spectrum.

    Equals i times the principal logarithm of ``four_cycle_matrix()``;
    exponentiating it at parameter 1 recovers the permutation.
    """
    return hermitian_generator(cycle_spectrum(FULL_ADDER_ORBIT, 4))


def _closed_form_of(kind: GateKind) -> Callable[[float], np.ndarray]:
    if kind is GateKind.HALF_ADDER:
        return lambda s: half_adder_closed_form(s, 0.0)
    return lambda s: full_adder_closed_form(s, 0.0, 0.0)


def _orbit_of(kind: GateKind) -> tuple[int, ...]:
    return HALF_ADDER_ORBIT if kind is GateKind.HALF_ADDER else FULL_ADDER_ORBIT


def cross_validate(kind: GateKind, grid_points: int) -> float:
    """Worst entrywise gap between a closed form and its spectral twin.

    Sweeps the parameter sum over ``grid_points`` uniform samples of one
    full period [0, L] (L = 3 for the half adder, 4 for the full adder) and
    compares the explicit matrix formula against the exponential built from
    the cycle spectrum.  Agreement within 1e-9 is the acceptance bar.
    """
    if grid_points < 2:
        raise InvalidParameter(f"grid needs at least 2 points, got {grid_points}")
    orbit = _orbit_of(kind)
    closed_form = _closed_form_of(kind)
    spectrum = cycle_spectrum(orbit, 4)
    worst = 0.0
    for s in np.linspace(0.0, float(len(orbit)), grid_points):
        gap = np.abs(closed_form(float(s)) - exp_from_spectrum(spectrum, float(s)))
        worst = max(worst, float(np.max(gap)))
    return worst


def _weight_table(input_count: int, weight_labels: tuple[str, ...]) -> TruthTable:
    rows = {
        bits: weight_labels[sum(bits)]
        for bits in itertools.product((0, 1), repeat=input_count)
    }
    return TruthTable(
        input_count=input_count, output_qubits=len(weight_labels[0]), rows=rows
    )


def half_adder_truth_table() -> TruthTable:
    """Two-input table: output label per weight is 00, 01, 11."""
    return _weight_table(2, HALF_ADDER_WEIGHT_LABELS)


def full_adder_truth_table() -> TruthTable:
    """Three-input table: the output counts asserted inputs in binary."""
    return _weight_table(3, FULL_ADDER_WEIGHT_LABELS)


def truth_table_for(kind: GateKind) -> TruthTable:
    if kind is GateKind.HALF_ADDER:
        return half_adder_truth_table()
    return full_adder_truth_table()
