"""Continuous gates from Boolean truth tables via basis-cycle generators.

A symmetric truth table is compiled into a single one-parameter unitary
family U(s) = exp(-i s H): the weight-ordered outputs are threaded into a
cyclic orbit of basis states, H is the principal logarithm of that cycle,
and feeding the Boolean input sum as ``s`` reproduces the table.  Closed
matrix formulas for the half- and full-adder instances, a statevector
checker, serializers, and resource reports round out the toolkit.
"""

from .errors import (
    DimensionError,
    InitialStateMismatch,
    InvalidOrbit,
    InvalidParameter,
    NonEmbeddable,
    NonUnitaryError,
    NotSymmetric,
    ParseError,
    QhcError,
    SynthesisError,
    ValidationError,
)
from .gates import (
    FULL_ADDER_ORBIT,
    HALF_ADDER_ORBIT,
    GateKind,
    cross_validate,
    full_adder_closed_form,
    full_adder_truth_table,
    half_adder_closed_form,
    half_adder_truth_table,
)
from .linalg import (
    SpectralDecomposition,
    cycle_spectrum,
    exp_from_spectrum,
    hermitian_generator,
    unitarity_defect,
)
from .report import ResourceReport, Scheme, resource_report
from .serialize import emit_matrix, emit_truth_table, parse_matrix, parse_truth_table
from .sim import (
    BASIS_TOLERANCE,
    DecodedOutcome,
    apply,
    decode,
    evaluate_continuous,
)
from .synth import (
    QhcGate,
    RowCheck,
    TruthTable,
    VerificationReport,
    analyze_symmetry,
    find_cycle,
    index_to_label,
    label_to_index,
    qubit_count,
    synthesize,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_TOLERANCE",
    "DecodedOutcome",
    "DimensionError",
    "FULL_ADDER_ORBIT",
    "GateKind",
    "HALF_ADDER_ORBIT",
    "InitialStateMismatch",
    "InvalidOrbit",
    "InvalidParameter",
    "NonEmbeddable",
    "NonUnitaryError",
    "NotSymmetric",
    "ParseError",
    "QhcError",
    "QhcGate",
    "ResourceReport",
    "RowCheck",
    "Scheme",
    "SpectralDecomposition",
    "SynthesisError",
    "TruthTable",
    "ValidationError",
    "VerificationReport",
    "analyze_symmetry",
    "apply",
    "cross_validate",
    "cycle_spectrum",
    "decode",
    "emit_matrix",
    "emit_truth_table",
    "evaluate_continuous",
    "exp_from_spectrum",
    "find_cycle",
    "full_adder_closed_form",
    "full_adder_truth_table",
    "half_adder_closed_form",
    "half_adder_truth_table",
    "hermitian_generator",
    "index_to_label",
    "label_to_index",
    "parse_matrix",
    "parse_truth_table",
    "qubit_count",
    "resource_report",
    "synthesize",
    "unitarity_defect",
    "verify",
]
