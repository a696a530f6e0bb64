"""Continuous gates from Boolean truth tables via basis-cycle generators.

A symmetric truth table is compiled into a single one-parameter unitary
family U(s) = exp(-i s H): the weight-ordered outputs are threaded into a
cyclic orbit of basis states, H is the principal logarithm of that cycle,
and feeding the Boolean input sum as ``s`` reproduces the table.  Closed
matrix formulas for the half- and full-adder instances, a statevector
checker, serializers, and resource reports round out the toolkit.

The package exports the names the README's Library section uses; every
other name is imported from its module (``qhckit.linalg``, ``qhckit.gates``,
``qhckit.synth``, ...).
"""

from .errors import QhcError
from .gates import full_adder_truth_table, half_adder_truth_table
from .serialize import parse_truth_table
from .sim import evaluate_continuous
from .synth import TruthTable, synthesize, verify

__version__ = "0.1.0"

__all__ = [
    "QhcError",
    "TruthTable",
    "evaluate_continuous",
    "full_adder_truth_table",
    "half_adder_truth_table",
    "parse_truth_table",
    "synthesize",
    "verify",
]
