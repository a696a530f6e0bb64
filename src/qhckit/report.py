"""Resource comparison between a synthesized gate and textbook layouts.

The synthesized scheme always gets one row: qubit count from the number of
distinct outputs, Hilbert dimension, and a gate count of 1 since the whole
table is realized by a single continuous unitary.  When the table is
recognized as one of the built-in adders (``gates.builtin_kind``), rows for
the published reference constructions are appended so the compression is
visible side by side.  Baseline numbers are cited constants, not computed
circuit decompositions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .gates import GateKind, builtin_kind
from .synth import TruthTable, qubit_count

TOFFOLI_CNOT_CITATION = "Vedral et al., Phys. Rev. A 54, 147 (1996)"
FREDKIN_CITATION = "Moutinho et al., PRX Energy 2, 033002 (2023)"


class Scheme(enum.Enum):
    """Implementation schemes a truth table can be costed against."""

    QHC = "qhc"
    TOFFOLI_CNOT_HALF = "toffoli-cnot-half"
    TOFFOLI_CNOT_FULL = "toffoli-cnot-full"
    FREDKIN_FULL = "fredkin-full"


@dataclass(frozen=True)
class ResourceReport:
    """Qubit and gate cost of one scheme; gate_count None when unspecified."""

    scheme: Scheme
    qubits: int
    gate_count: int | None
    citation: str | None

    @property
    def hilbert_dim(self) -> int:
        return 2**self.qubits


BASELINES: dict[GateKind, tuple[ResourceReport, ...]] = {
    GateKind.HALF_ADDER: (
        ResourceReport(Scheme.TOFFOLI_CNOT_HALF, 3, None, TOFFOLI_CNOT_CITATION),
    ),
    GateKind.FULL_ADDER: (
        ResourceReport(Scheme.TOFFOLI_CNOT_FULL, 4, None, TOFFOLI_CNOT_CITATION),
        ResourceReport(Scheme.FREDKIN_FULL, 5, 5, FREDKIN_CITATION),
    ),
}


def resource_report(table: TruthTable) -> list[ResourceReport]:
    """Cost rows for a table: the synthesized scheme plus known baselines."""
    qhc = ResourceReport(Scheme.QHC, qubit_count(table), gate_count=1, citation=None)
    return [qhc, *BASELINES.get(builtin_kind(table), ())]
