"""Synthesis of a single continuous gate from a Boolean truth table.

The construction handles totally symmetric functions: tables whose output
depends only on how many inputs are set.  Each input-weight class is mapped
to one computational basis state of the output register, the weight-ordered
output states are threaded into one cyclic orbit starting at the all-zero
state, and the cycle's principal logarithm supplies a Hermitian generator.
Driving ``exp(-i s H)`` with ``s`` equal to the number of asserted inputs
then reproduces the table on basis states, while non-integer ``s`` sweeps
the gate continuously between them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InitialStateMismatch,
    InvalidOrbit,
    NonEmbeddable,
    NotSymmetric,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    cycle_spectrum,
    exp_from_spectrum,
    hermitian_generator,
    orbit_column,
)

_BIT_VALUES = frozenset((0, 1))
# Size caps on a table, checked before any row is read.  No document lists
# 2^64 rows, and a state vector of 2^20 entries is already 16 MiB.
MAX_INPUTS = 64
MAX_OUTPUT_QUBITS = 20


def format_bits(bits: tuple[int, ...]) -> str:
    return "".join(str(b) for b in bits)


def label_to_index(label: str) -> int:
    """Basis index of a bit-string label, most significant bit first."""
    return int(label, 2)


def index_to_label(index: int, bits: int) -> str:
    """Bit-string label of a basis index, zero-padded to ``bits`` places."""
    return format(index, f"0{bits}b")


@dataclass(frozen=True)
class TruthTable:
    """Complete Boolean function on ``input_count`` bits.

    ``rows`` maps every input combination, as a tuple of 0/1 ints, to the
    output register's basis-state label, a string of ``output_qubits`` bits
    with the most significant bit first.  ``labels_by_weight[w]`` holds the
    labels of the rows with exactly ``w`` ones; a gate sees its inputs only
    through that weight, so the rest of the package reads this profile.
    """

    input_count: int
    output_qubits: int
    rows: dict[tuple[int, ...], str]
    labels_by_weight: tuple[frozenset[str], ...] = field(init=False, repr=False, compare=False)

    # Frozen, but ``rows`` is a dict: declare the table unhashable outright.
    __hash__ = None

    def __post_init__(self) -> None:
        # The caps come first: a huge count would otherwise size the work below.
        if not 1 <= self.input_count <= MAX_INPUTS:
            raise ValidationError(f"input count must be 1 to {MAX_INPUTS}, got {self.input_count}")
        if not 1 <= self.output_qubits <= MAX_OUTPUT_QUBITS:
            raise ValidationError(
                f"output qubit count must be 1 to {MAX_OUTPUT_QUBITS}, got {self.output_qubits}"
            )
        k = self.input_count
        by_weight: list[set[str]] = [set() for _ in range(k + 1)]
        # Rows are named by position in ``rows``, which for a parsed table is
        # the position in the document.
        for position, (key, label) in enumerate(self.rows.items()):
            if not (isinstance(key, tuple) and len(key) == k and _BIT_VALUES.issuperset(key)):
                raise ValidationError(f"row {position}: input {key!r} is not {k} bits")
            if not isinstance(label, str) or label.strip("01") or len(label) != self.output_qubits:
                raise ValidationError(
                    f"row {position}: bad output label {label!r}; "
                    f"expected {self.output_qubits} bits"
                )
            by_weight[sum(key)].add(label)
        # The keys are now distinct k-bit rows, so fewer than 2^k of them means
        # a row is missing; the first one in counting order is among the first
        # len(rows) + 1 candidates.  The shift avoids evaluating 2^k for huge k.
        if len(self.rows) >> k == 0:
            missing = next(
                bits for bits in itertools.product((0, 1), repeat=k) if bits not in self.rows
            )
            raise ValidationError(f"missing input row '{format_bits(missing)}'")
        object.__setattr__(self, "labels_by_weight", tuple(map(frozenset, by_weight)))

    @property
    def dim(self) -> int:
        return 2**self.output_qubits


@dataclass(frozen=True)
class QhcGate:
    """A synthesized continuous gate: its basis cycle and its input count.

    ``cycle`` is the orbit the gate rotates through plus the eigenangles of
    that cycle permutation; the orbit starts at the all-zero state.
    """

    cycle: SpectralDecomposition
    input_count: int

    def __post_init__(self) -> None:
        if self.cycle.orbit[0] != 0:
            raise InvalidOrbit(f"orbit must start at index 0, got {self.cycle.orbit}")

    @property
    def dim(self) -> int:
        return self.cycle.dim

    @property
    def length(self) -> int:
        return len(self.cycle.orbit)

    def unitary(self, s: float) -> np.ndarray:
        """The gate's unitary at evolution parameter ``s``."""
        return exp_from_spectrum(self.cycle, s)

    def state(self, s: float) -> np.ndarray:
        """``unitary(s)`` applied to the all-zero state (where the orbit starts)."""
        state = np.zeros(self.dim, dtype=complex)
        state[list(self.cycle.orbit)] = orbit_column(self.cycle, s)
        return state

    @property
    def generator(self) -> np.ndarray:
        """Hermitian matrix ``H`` with ``unitary(s) == exp(-i s H)``."""
        return hermitian_generator(self.cycle)


def analyze_symmetry(table: TruthTable) -> tuple[str, ...] | None:
    """The shared output label of each input weight, or None if a weight disagrees.

    Entry ``w`` is the output of every input with exactly ``w`` ones.
    """
    if any(len(labels) != 1 for labels in table.labels_by_weight):
        return None
    return tuple(next(iter(labels)) for labels in table.labels_by_weight)


def find_cycle(weight_outputs: tuple[str, ...] | None) -> tuple[int, ...]:
    """The cyclic orbit through the weight-ordered output states.

    ``weight_outputs`` is ``analyze_symmetry``'s result; None (no symmetry)
    raises ``NotSymmetric``.  The orbit starts at the all-zero state and the
    state for weight ``w`` sits at orbit position ``w mod L``, so L is the
    first weight ``w >= 1`` whose output is the all-zero state again (k + 1
    if none): a shorter orbit would need 0 sooner, a longer one would hold it twice.
    """
    if weight_outputs is None:
        raise NotSymmetric("outputs differ within an input-weight class")
    targets = [label_to_index(label) for label in weight_outputs]
    if targets[0] != 0:
        raise InitialStateMismatch(
            f"weight-0 output must be the all-zero state, got '{weight_outputs[0]}'"
        )
    length = next((w for w in range(1, len(targets)) if targets[w] == 0), len(targets))
    orbit = targets[:length]
    if len(set(orbit)) != length or any(t != orbit[w % length] for w, t in enumerate(targets)):
        raise NonEmbeddable(
            f"weight outputs {weight_outputs} do not trace a single cyclic orbit from 0"
        )
    return tuple(orbit)


def synthesize(table: TruthTable) -> QhcGate:
    """Build the continuous gate realizing a symmetric truth table."""
    orbit = find_cycle(analyze_symmetry(table))
    return QhcGate(cycle=cycle_spectrum(orbit, table.dim), input_count=table.input_count)


@dataclass(frozen=True)
class RowCheck:
    """Outcome of replaying one truth-table row through the gate."""

    inputs: tuple[int, ...]
    expected: str
    obtained: str
    deviation: float


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[RowCheck, ...]
    passed: bool
    max_deviation: float


def verify(gate: QhcGate, table: TruthTable, tolerance: float = 1e-9) -> VerificationReport:
    """Replay every table row through the gate's unitary at integer ``s``.

    For each row the all-zero state is evolved with ``s`` equal to the input
    weight; the result must match the expected basis state entrywise within
    ``tolerance``.  A row's outcome depends only on its weight and label, so
    each weight is evolved once and each of its labels scored once.  The state
    lies on the orbit: its L entries plus one zero stand for all d of them.
    """
    if gate.dim != table.dim:
        raise DimensionError(
            f"gate dimension {gate.dim} does not match table dimension {table.dim}"
        )
    orbit_labels = [index_to_label(index, table.output_qubits) for index in gate.cycle.orbit]
    obtained = []
    deviations = {}
    for weight, labels in enumerate(table.labels_by_weight):
        amplitudes = np.append(orbit_column(gate.cycle, weight), 0.0)
        obtained.append(orbit_labels[int(np.argmax(np.abs(amplitudes)))])
        for label in labels:
            error = amplitudes.copy()
            error[orbit_labels.index(label) if label in orbit_labels else -1] -= 1.0
            deviations[weight, label] = float(np.max(np.abs(error)))
    worst = max(deviations.values())
    passed = worst <= tolerance and all(obtained[w] == label for w, label in deviations)
    checks = tuple(
        RowCheck(bits, label, obtained[sum(bits)], deviations[sum(bits), label])
        for bits, label in sorted(table.rows.items())
    )
    return VerificationReport(rows=checks, passed=passed, max_deviation=worst)


def qubit_count(table: TruthTable) -> int:
    """Fewest output qubits whose basis can hold the table's distinct outputs.

    Equals ceil(log2 of the distinct-output count); a constant table needs
    zero qubits even though its labels may be written wider.
    """
    distinct = len(frozenset().union(*table.labels_by_weight))
    return (distinct - 1).bit_length()
