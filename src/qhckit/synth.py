"""Synthesis of a single continuous gate from a Boolean truth table.

The construction handles totally symmetric functions: tables whose output
depends only on how many inputs are set.  Each input-weight class is mapped
to one computational basis state of the output register, the weight-ordered
output states are threaded into one cyclic orbit starting at the all-zero
state, and the cycle's principal logarithm supplies a Hermitian generator.
At integer ``s``, the number of asserted inputs, ``exp(-i s H)`` is a power
of the cycle, so it reproduces the table exactly and ``verify`` compares
labels; non-integer ``s`` sweeps the gate continuously between them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from numbers import Integral

import numpy as np

from .errors import (
    DimensionError,
    InitialStateMismatch,
    InvalidOrbit,
    InvalidParameter,
    NonEmbeddable,
    NotSymmetric,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    cycle_spectrum,
    exp_from_spectrum,
    hermitian_generator,
)

_BIT_VALUES = frozenset((0, 1))
# Size caps on a table, checked before any row is read.  No document lists
# 2^64 rows, and a state vector of 2^20 entries is already 16 MiB.
MAX_INPUTS = 64
MAX_OUTPUT_QUBITS = 20


def format_bits(bits: Iterable[int]) -> str:
    return "".join(map("01".__getitem__, bits))


def label_to_index(label: str) -> int:
    """Basis index of a bit-string label, most significant bit first."""
    return int(label, 2)


def index_to_label(index: int, bits: int) -> str:
    """Bit-string label of a basis index, zero-padded to ``bits`` places."""
    return format(index, f"0{bits}b")


def check_sizes(k: int, n: int) -> None:
    """Refuse an input count ``k`` or output qubit count ``n`` unless an integer within its cap."""
    if not (_is_integral(type(k)) and 1 <= k <= MAX_INPUTS):
        raise ValidationError(f"input count must be 1 to {MAX_INPUTS}, got {k!r}")
    if not (_is_integral(type(n)) and 1 <= n <= MAX_OUTPUT_QUBITS):
        raise ValidationError(f"output qubit count must be 1 to {MAX_OUTPUT_QUBITS}, got {n!r}")


def check_row(position: int, key: object, label: object, k: int, n: int) -> None:
    """Refuse a row unless its key is a tuple of k integer bits and its label n bits."""
    if not (_is_bit_tuple(key) and len(key) == k):
        raise ValidationError(f"row {position}: input {key!r} is not {k} bits")
    if not (isinstance(label, str) and len(label) == n) or label.strip("01"):
        raise ValidationError(f"row {position}: bad output label {label!r}; expected {n} bits")


def counting_order(k: int, keys: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Distinct rows' labels put in counting order by key; refused unless all 2^k are there."""
    count = len(keys)
    # The keys are distinct (readers reject repeats), so fewer than 2^k leave a
    # row out, the first gap in the sorted keys; the shift never evaluates 2^k.
    if count >> k == 0:
        gaps = np.sort(keys) != np.arange(count, dtype=np.uint64)
        missing = int(np.argmax(gaps)) if gaps.any() else count
        raise ValidationError(f"missing input row '{index_to_label(missing, k)}'")
    ordered = np.empty_like(labels)
    ordered[keys] = labels
    return ordered


def _mapping_labels(k: int, n: int, rows: Mapping[object, object]) -> np.ndarray:
    """A dict of rows' labels in counting order, each row checked by ``check_row`` in turn."""
    keys, labels = [], []
    for position, (key, label) in enumerate(rows.items()):
        check_row(position, key, label, k, n)
        keys.append(label_to_index(format_bits(key)))
        labels.append(label_to_index(label))
    return counting_order(k, np.array(keys, np.uint64), np.array(labels, np.uint64))


def _is_bit_tuple(key: object) -> bool:
    return (
        isinstance(key, tuple)
        and all(map(_is_integral, set(map(type, key))))
        and _BIT_VALUES.issuperset(key)
    )


@cache
def _is_integral(kind: type) -> bool:
    # An ABC check costs about 1 us; a table's bits come in a type or two.
    return issubclass(kind, Integral)


class TableRows(Mapping):
    """A table's rows, read-only: input bits to output label, in counting order.

    The one source of rows: ``walk`` and ``row`` read the label indices and
    the table's one string per label; the mapping's dict is built on first use.
    """

    def __init__(self, input_count: int, label_indices: np.ndarray, text: dict[int, str]) -> None:
        self._input_count = input_count
        self._label_indices = label_indices
        self._text = text

    def __len__(self) -> int:
        return len(self._label_indices)

    def labels(self) -> Iterator[str]:
        """Each row's label, in counting order."""
        return map(self._text.__getitem__, self._label_indices.tolist())

    def walk(self) -> Iterator[tuple[tuple[int, ...], str]]:
        """Each row's input bits and label, in counting order."""
        return zip(itertools.product((0, 1), repeat=self._input_count), self.labels())

    def row(self, position: int) -> tuple[tuple[int, ...], str]:
        """The input bits and label of the row at ``position``, which may be negative."""
        position = range(len(self))[position]
        bits = tuple(map(int, index_to_label(position, self._input_count)))
        return bits, self._text[int(self._label_indices[position])]

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], str]:
        return dict(self.walk())

    def __getitem__(self, key: object) -> str:
        return self._rows[key]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return repr(self._rows)


@dataclass(frozen=True)
class TruthTable:
    """Complete Boolean function on ``input_count`` bits.

    ``rows`` maps every input combination, as a tuple of 0/1 ints, to the
    output register's basis-state label, a string of ``output_qubits`` bits
    with the most significant bit first.  A reader passes instead the array
    of the 2^k labels' basis indices in counting order, refused unless it
    is 1-D, of an integer dtype, 2^k long and below 2^N throughout.  After
    validation a table keeps those indices, ``label_indices``, and ``rows``
    becomes a read-only ``TableRows`` view of them.
    ``labels_by_weight[w]`` holds the labels of the rows with exactly
    ``w`` ones; a gate sees its inputs only through that weight, so the rest
    of the package reads this profile.
    """

    input_count: int
    output_qubits: int
    rows: Mapping[tuple[int, ...], str] | np.ndarray
    label_indices: np.ndarray = field(init=False, repr=False, compare=False)
    labels_by_weight: tuple[frozenset[str], ...] = field(init=False, repr=False, compare=False)

    # Frozen, but its rows compare by value: declare the table unhashable outright.
    __hash__ = None

    def __post_init__(self) -> None:
        k, n = self.input_count, self.output_qubits
        check_sizes(k, n)  # first: a huge count would otherwise size the work below
        labels = self.rows  # a reader's labels in counting order, or a mapping turned into them
        if isinstance(labels, Mapping):
            labels = _mapping_labels(k, n, labels)
        elif not isinstance(labels, np.ndarray):
            raise ValidationError(f"rows must be a mapping or array, got {type(labels).__name__}")
        elif labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValidationError(f"labels must be 1-D ints, got {labels.ndim}-D {labels.dtype}")
        if len(labels) != 1 << k:
            raise ValidationError(f"expected {1 << k} labels in counting order, got {len(labels)}")
        # A negative label wraps to 2^63 or more, so one pass finds every label off the register.
        if int(labels.astype(np.uint64, copy=False).max()) >> n:
            raise ValidationError(f"label indices must be 0 to {2**n - 1}")
        label_indices = labels.astype(np.uint32)
        label_indices.flags.writeable = False
        # Each distinct (weight, label) pair, packed into one 27-bit integer; a row's
        # weight is its position's popcount.  (np.unique would import numpy.ma, 40 ms.)
        weights = np.bitwise_count(np.arange(len(labels), dtype=np.uint64)).astype(np.uint32)
        pairs = np.sort(weights << n | label_indices)
        by_weight: list[set[str]] = [set() for _ in range(k + 1)]
        text: dict[int, str] = {}  # one string per label, for the profile and the rows
        for pair in pairs[np.append(True, pairs[1:] != pairs[:-1])].tolist():
            index = pair & (2**n - 1)
            by_weight[pair >> n].add(text.setdefault(index, index_to_label(index, n)))
        object.__setattr__(self, "label_indices", label_indices)
        object.__setattr__(self, "labels_by_weight", tuple(map(frozenset, by_weight)))
        object.__setattr__(self, "rows", TableRows(k, label_indices, text))

    @property
    def dim(self) -> int:
        return 2**self.output_qubits


@dataclass(frozen=True)
class QhcGate:
    """A synthesized continuous gate: its basis cycle and its input count.

    ``cycle`` is the spectrum of the permutation that cycles the gate's
    orbit, which starts at the all-zero state.  ``input_count`` is an integer
    from 1 to ``MAX_INPUTS``, as a table's is.  Any other count, or a cycle
    that is not a ``SpectralDecomposition``, is ``InvalidParameter``.
    """

    cycle: SpectralDecomposition
    input_count: int

    def __post_init__(self) -> None:
        if not isinstance(self.cycle, SpectralDecomposition):
            raise InvalidParameter(f"cycle must be a SpectralDecomposition, got {self.cycle!r}")
        if self.cycle.orbit[0] != 0:
            raise InvalidOrbit(f"orbit must start at index 0, got {self.cycle.orbit}")
        if not (_is_integral(type(self.input_count)) and 1 <= self.input_count <= MAX_INPUTS):
            raise InvalidParameter(f"gate takes 1 to {MAX_INPUTS} inputs, not {self.input_count!r}")

    @property
    def dim(self) -> int:
        return self.cycle.dim

    @property
    def length(self) -> int:
        return len(self.cycle.orbit)

    def unitary(self, s: float) -> np.ndarray:
        """The gate's unitary at evolution parameter ``s``."""
        return exp_from_spectrum(self.cycle, s)

    @property
    def generator(self) -> np.ndarray:
        """Hermitian matrix ``H`` with ``unitary(s) == exp(-i s H)``."""
        return hermitian_generator(self.cycle)


def analyze_symmetry(table: TruthTable) -> tuple[str, ...] | None:
    """The shared output label of each input weight, or None if a weight disagrees.

    Entry ``w`` is the output of every input with exactly ``w`` ones.  A
    table that is not a ``TruthTable`` is ``ValidationError``.
    """
    if not isinstance(table, TruthTable):
        raise ValidationError(f"table must be a TruthTable, got {type(table).__name__}")
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
    Outputs other than a non-string sequence of bit strings raise ``ValidationError``.
    """
    if weight_outputs is None:
        raise NotSymmetric("outputs differ within an input-weight class")
    if isinstance(weight_outputs, str) or not isinstance(weight_outputs, Sequence):
        raise ValidationError(f"outputs must be a sequence of labels, got {weight_outputs!r}")
    for w, label in enumerate(weight_outputs):  # None, "ab", " 1", "1_1", "", ...: name the first
        if not isinstance(label, str) or not label or label.strip("01"):
            raise ValidationError(f"weight {w}: output {label!r} is not a bit string")
    targets = [label_to_index(label) for label in weight_outputs]
    if targets[:1] != [0]:  # () has no weight-0 output at all
        first = weight_outputs[0] if weight_outputs else None
        raise InitialStateMismatch(f"weight-0 output must be the all-zero state, got {first!r}")
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


@dataclass(frozen=True, slots=True)
class RowCheck:
    """Outcome of checking one truth-table row against the gate."""

    inputs: tuple[int, ...]
    expected: str
    obtained: str
    deviation: float


class RowChecks(Sequence):
    """A report's row checks in counting order, each built from its table row when it is read.

    ``obtained[w]`` is the label the gate gives at input weight ``w``; a row
    deviates by 1.0 when its label is another, else by 0.0.  Indexing takes
    negative positions, and a slice returns a tuple.
    """

    def __init__(self, table: TruthTable, obtained: Sequence[str]) -> None:
        self._rows = table.rows
        self._obtained = obtained

    def __len__(self) -> int:
        return len(self._rows)

    def _check(self, bits: tuple[int, ...], expected: str) -> RowCheck:
        obtained = self._obtained[sum(bits)]
        return RowCheck(bits, expected, obtained, float(expected != obtained))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[position] for position in range(len(self))[index])
        return self._check(*self._rows.row(index))

    def __iter__(self) -> Iterator[RowCheck]:
        return itertools.starmap(self._check, self._rows.walk())

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, RowChecks) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class VerificationReport:
    rows: Sequence[RowCheck]
    passed: bool
    max_deviation: float


def verify(gate: QhcGate, table: TruthTable) -> VerificationReport:
    """Check every table row against the gate at integer ``s``, by label.

    At ``s = w`` the gate sends the all-zero state exactly to the state at
    orbit position ``w mod L``, so a row of weight ``w`` deviates by 0.0 if
    its label is that state's and by 1.0 if not; no state is evolved.  The
    report passes when no row deviates.  A gate that is not a ``QhcGate`` is
    ``InvalidParameter``; a table not a ``TruthTable`` is ``ValidationError``.
    """
    if not isinstance(gate, QhcGate):
        raise InvalidParameter(f"gate must be a QhcGate, got {type(gate).__name__}")
    if not isinstance(table, TruthTable):
        raise ValidationError(f"table must be a TruthTable, got {type(table).__name__}")
    if gate.dim != table.dim:
        raise DimensionError(
            f"gate dimension {gate.dim} does not match table dimension {table.dim}"
        )
    orbit_labels = [index_to_label(index, table.output_qubits) for index in gate.cycle.orbit]
    obtained = [orbit_labels[w % gate.length] for w in range(table.input_count + 1)]
    worst = float(any(labels != {got} for labels, got in zip(table.labels_by_weight, obtained)))
    return VerificationReport(RowChecks(table, obtained), worst == 0, worst)


def qubit_count(table: TruthTable) -> int:
    """Fewest output qubits whose basis can hold the table's distinct outputs.

    Equals ceil(log2 of the distinct-output count); a constant table needs
    zero qubits even though its labels may be written wider.  A table that
    is not a ``TruthTable`` is ``ValidationError``.
    """
    if not isinstance(table, TruthTable):
        raise ValidationError(f"table must be a TruthTable, got {type(table).__name__}")
    distinct = len(frozenset().union(*table.labels_by_weight))
    return (distinct - 1).bit_length()
