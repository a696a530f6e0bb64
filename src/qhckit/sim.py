"""Statevector evaluation and computational-basis readout.

Measurement is modeled deterministically through exact probabilities.  The
gates this package produces send Boolean inputs to basis states outright,
so sampling shots would only blur an answer that is already exact; for
continuous inputs the full probability list is reported instead and no
readout convention is imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, InvalidParameter, NonUnitaryError
from .linalg import unitarity_defect
from .synth import QhcGate, index_to_label

# Matrices applied to states must be unitary to this entrywise defect.
UNITARITY_TOLERANCE = 1e-9
# Probability margin under which a state still counts as one basis state.
BASIS_TOLERANCE = 1e-6
# States must be normalized to this accuracy before decoding.
NORM_TOLERANCE = 1e-10


def apply(unitary: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Evolve a state by a unitary, refusing norm-distorting matrices."""
    unitary = np.asarray(unitary)
    state = np.asarray(state, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        raise DimensionError(f"operator is not square: shape {unitary.shape}")
    if state.shape != (unitary.shape[0],):
        raise DimensionError(
            f"state shape {state.shape} does not match operator dimension {unitary.shape[0]}"
        )
    defect = unitarity_defect(unitary)
    # Written with `not <=` so a NaN defect is also rejected.
    if not defect <= UNITARITY_TOLERANCE:
        raise NonUnitaryError(f"operator has unitarity defect {defect:.3e}")
    return unitary @ state


@dataclass(frozen=True)
class DecodedOutcome:
    """Readout of a state: a basis label when sharp, probabilities always.

    ``label`` is the big-endian bit string of the dominant basis state when
    its probability reaches the decoding threshold, else None.
    """

    probabilities: tuple[float, ...]
    label: str | None

    @property
    def is_basis(self) -> bool:
        return self.label is not None


def decode(state: np.ndarray, tolerance: float = BASIS_TOLERANCE) -> DecodedOutcome:
    """Read a normalized state in the computational basis.

    Returns a basis label when a single probability is at least
    ``1 - tolerance``; otherwise only the probability list is filled in.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise DimensionError(f"state must be a vector, got shape {state.shape}")
    size = state.shape[0]
    bits = (size - 1).bit_length()
    if size < 2 or 2**bits != size:
        raise DimensionError(f"state length {size} is not a power of two")
    probabilities = np.abs(state) ** 2
    total = float(probabilities.sum())
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise InvalidParameter(f"state is not normalized: |psi|^2 = {total}")
    top = int(np.argmax(probabilities))
    label = None
    if probabilities[top] >= 1.0 - tolerance:
        label = index_to_label(top, bits)
    return DecodedOutcome(probabilities=tuple(float(p) for p in probabilities), label=label)


def evaluate_continuous(
    gate: QhcGate, inputs: Sequence[float], tolerance: float = BASIS_TOLERANCE
) -> DecodedOutcome:
    """Drive a gate with real-valued inputs and decode the result.

    The gate sees its inputs only through their sum, which becomes the
    evolution parameter applied to the all-zeros state.  Boolean inputs
    reproduce the synthesized truth table as sharp basis outcomes; anything
    else generally lands in a superposition.
    """
    values = [float(x) for x in inputs]
    if len(values) != gate.input_count:
        raise InvalidParameter(
            f"gate takes {gate.input_count} inputs, got {len(values)}"
        )
    if not all(math.isfinite(x) for x in values):
        raise InvalidParameter(f"inputs must be finite, got {values}")
    return decode(gate.state(sum(values)), tolerance)
