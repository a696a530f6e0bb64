"""Statevector evaluation and computational-basis readout.

Measurement is modeled deterministically through exact probabilities.  The
gates this package produces send Boolean inputs to basis states outright,
so sampling shots would only blur an answer that is already exact; for
continuous inputs the full probability list is reported instead and no
readout convention is imposed.  ``input_sum`` reads every real input a gate
is driven with, here and in the closed forms, and refuses the bad ones.

The readout works on a state's support: a gate's output lies on its orbit,
so the norm check and the label read only the L orbit probabilities, read
from the orbit's closed-form kernel with no amplitude formed, and the d-entry
probability list is built the first time it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, InvalidParameter, NonUnitaryError
from .linalg import orbit_probabilities, unitarity_defect
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
    ``probabilities`` holds one float per basis state; an outcome read from
    a state's support builds it from the support's probabilities when it is
    first read.
    """

    probabilities: tuple[float, ...]
    label: str | None

    @property
    def is_basis(self) -> bool:
        return self.label is not None

    def __getattr__(self, name: str) -> tuple[float, ...]:
        # Reached only while ``probabilities`` is unset: spread the support's
        # probabilities over all d basis states, once.
        if name != "probabilities":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dim, support, on_support = self._support
        probabilities = np.zeros(dim)
        probabilities[np.asarray(support)] = on_support
        object.__setattr__(self, "probabilities", tuple(probabilities.tolist()))
        return self.probabilities


def _read_out(
    dim: int, support: Sequence[int], probabilities: Sequence[float], total: float, top: int,
    tolerance: float,
) -> DecodedOutcome:
    """Decode a d-entry state from its probabilities on ``support``, their sum and argmax."""
    try:
        if not 0.0 <= tolerance < math.inf:  # also false for NaN
            raise ValueError
        threshold = 1.0 - tolerance
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, -1.0, inf, 10**400, ...
        raise InvalidParameter("tolerance must be a finite real number >= 0") from None
    # Written with `not <=` so a NaN norm is also rejected.
    if not abs(total - 1.0) <= NORM_TOLERANCE:
        raise InvalidParameter(f"state is not normalized: |psi|^2 = {total}")
    label = None
    if probabilities[top] >= threshold:
        label = index_to_label(int(support[top]), (dim - 1).bit_length())
    outcome = DecodedOutcome.__new__(DecodedOutcome)
    vars(outcome).update(label=label, _support=(dim, support, probabilities))
    return outcome


def decode(state: np.ndarray, tolerance: float = BASIS_TOLERANCE) -> DecodedOutcome:
    """Read a normalized state in the computational basis.

    Returns a basis label when a single probability is at least
    ``1 - tolerance``; otherwise only the probability list is filled in.
    """
    try:
        state = np.asarray(state, dtype=complex)
    except (TypeError, ValueError) as exc:  # ["a", "b"], ragged rows, ...
        raise InvalidParameter(f"state amplitudes must be complex numbers: {exc}") from None
    if state.ndim != 1:
        raise DimensionError(f"state must be a vector, got shape {state.shape}")
    size = state.shape[0]
    if size < 2 or 2 ** (size - 1).bit_length() != size:
        raise DimensionError(f"state length {size} is not a power of two")
    # A huge finite amplitude squares to inf, which the norm check rejects.
    with np.errstate(over="ignore"):
        probabilities = np.abs(state) ** 2
        total, top = float(probabilities.sum()), int(probabilities.argmax())
    return _read_out(size, np.arange(size), probabilities, total, top, tolerance)


def evaluate_continuous(
    gate: QhcGate, inputs: Iterable[float], tolerance: float = BASIS_TOLERANCE
) -> DecodedOutcome:
    """Drive a gate with real-valued inputs and decode the result.

    The gate sees its inputs only through their sum, which becomes the
    evolution parameter applied to the all-zeros state; ``input_sum`` reads
    the inputs and rounds their sum correctly, so it does not depend on their
    order.  Boolean inputs reproduce the synthesized truth table as sharp basis
    outcomes; anything else generally lands in a superposition.  The state is
    read on the gate's orbit, where all its amplitude lies.  A gate that is
    not a ``QhcGate`` is ``InvalidParameter``.
    """
    if not isinstance(gate, QhcGate):
        raise InvalidParameter(f"gate must be a QhcGate, got {type(gate).__name__}")
    try:
        inputs = list(inputs)  # a generator is read once, then counted
    except TypeError:  # not iterable: input_sum refuses it
        pass
    p = orbit_probabilities(gate.cycle, input_sum(inputs))
    if len(inputs) != gate.input_count:
        raise InvalidParameter(f"gate takes {gate.input_count} inputs, got {len(inputs)}")
    return _read_out(gate.dim, gate.cycle.orbit, p, math.fsum(p), p.index(max(p)), tolerance)


def input_sum(inputs: Iterable[float]) -> float:
    """The correctly rounded sum of real inputs, in any order: the package's one reader of them.

    Each input is read with ``float()``; anything it refuses, a non-finite
    input and an exact sum outside the float range are ``InvalidParameter``.
    """
    try:
        values = list(map(float, inputs))
    except (OverflowError, TypeError, ValueError) as exc:  # 10**400, None, "abc", 1j, ...
        raise InvalidParameter(f"inputs must be finite real numbers: {exc}") from None
    try:
        if math.isfinite(total := math.fsum(values)):
            return total
    except (OverflowError, ValueError):  # a running sum overflowed, or inf met -inf
        pass
    if not all(map(math.isfinite, values)):
        raise InvalidParameter(f"inputs must be finite, got {values}")
    from fractions import Fraction  # imported only here: it takes 4 ms to import
    try:  # the inputs are finite, so a running sum overflowed: add exactly instead
        return float(sum(map(Fraction, values)))
    except OverflowError:
        raise InvalidParameter("the sum of the inputs overflows a float") from None
