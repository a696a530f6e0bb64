"""Command-line front end.

Four subcommands: ``synth`` builds a gate from a truth-table file, ``simulate``
drives a gate with (possibly real-valued) inputs, ``verify`` checks a built-in
adder's truth table and cross-checks its closed form against the spectral
construction, and ``report`` compares qubit budgets against published baseline
layouts.

Results go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 1 verification or synthesis failure, 2 bad input or
any other package error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

from .errors import QhcError, SynthesisError
from .gates import BUILTINS, MAX_GRID_POINTS, VERIFY_TOLERANCE, GateKind, cross_validate
from .report import resource_report
from .serialize import matrix_text, parse_truth_table
from .sim import BASIS_TOLERANCE, evaluate_continuous, input_sum
from .synth import QhcGate, TruthTable, format_bits, synthesize, verify

_BUILTIN_GATES = tuple(kind.value for kind in GateKind)


def _read_table(path: str) -> TruthTable:
    return parse_truth_table(Path(path).read_bytes())


def _resolve_table(gate: str) -> TruthTable:
    if gate in _BUILTIN_GATES:
        return BUILTINS[GateKind(gate)].truth_table()
    return _read_table(gate)


def _emit(doc: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _parse_inputs(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _grid(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid must be an integer from 2 to {MAX_GRID_POINTS}, got {text!r}"
        )
    return value


def _cmd_synth(args: argparse.Namespace) -> int:
    table = _read_table(args.table)
    gate = synthesize(table)
    check = verify(gate, table)
    doc: dict[str, Any] = {
        "table": {"inputs": table.input_count, "output_qubits": table.output_qubits},
        "cycle": {
            "dim": gate.dim,
            "length": gate.length,
            "orbit": list(gate.cycle.orbit),
        },
        "verification": {"passed": check.passed, "max_deviation": check.max_deviation},
    }
    # Both matrices are checked first: one refused leaves no file and prints nothing.
    if args.emit_u is not None:
        unitary = matrix_text(gate.unitary(args.emit_u), "nested")
    if args.emit_h is not None:
        generator = matrix_text(gate.generator, args.emit)
        with open(args.emit_h, "w", encoding="utf-8") as out:
            out.writelines(generator)
        doc["generator_file"] = args.emit_h
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False).removesuffix("\n}"))
    if args.emit_u is not None:  # "unitary" is the last key: written around the streamed matrix.
        sys.stdout.write(f',\n  "unitary": {{\n    "parameter": {args.emit_u!r},\n    "matrix": ')
        sys.stdout.writelines(unitary)
        sys.stdout.write("\n  }")
    sys.stdout.write("\n}\n")
    return 0 if check.passed else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    table = _resolve_table(args.gate)
    gate = synthesize(table)
    outcome = evaluate_continuous(gate, args.inputs, tolerance=args.tolerance)
    _emit(
        {
            "gate": args.gate,
            "inputs": args.inputs,
            "sum": input_sum(args.inputs),
            "probabilities": list(outcome.probabilities),
            "label": outcome.label,
            "is_basis": outcome.is_basis,
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    kind = GateKind(args.gate)
    table = BUILTINS[kind].truth_table()
    gate: QhcGate = synthesize(table)
    check = verify(gate, table)
    gap = cross_validate(kind, args.grid)
    passed = check.passed and gap <= args.tolerance
    _emit(
        {
            "gate": args.gate,
            "truth_table": {
                "passed": check.passed,
                "max_deviation": check.max_deviation,
                "rows": [
                    {
                        "inputs": format_bits(row.inputs),
                        "expected": row.expected,
                        "obtained": row.obtained,
                        "deviation": row.deviation,
                    }
                    for row in check.rows
                ],
            },
            "cross_validation": {
                "grid_points": args.grid,
                "max_difference": gap,
                "tolerance": args.tolerance,
            },
            "passed": passed,
        }
    )
    if not passed:
        print(f"error: verification failed for {args.gate}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    table = _read_table(args.table)
    rows = resource_report(table)
    _emit(
        {
            "table": {"inputs": table.input_count, "output_qubits": table.output_qubits},
            "schemes": [
                {
                    "scheme": row.scheme.value,
                    "qubits": row.qubits,
                    "hilbert_dim": row.hilbert_dim,
                    "gate_count": row.gate_count,
                    "citation": row.citation,
                }
                for row in rows
            ],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhc",
        description="Synthesize and check continuous gates built from truth tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a gate from a truth-table file")
    synth.add_argument("--table", required=True, help="truth-table JSON file")
    synth.add_argument("--emit-h", metavar="FILE", help="write the Hermitian generator here")
    synth.add_argument(
        "--emit", choices=("json", "csv"), default="json", help="matrix file format"
    )
    synth.add_argument(
        "--emit-u",
        metavar="SUM",
        type=float,
        help="include the unitary at this parameter sum in the output",
    )
    synth.add_argument("--tolerance", type=_tolerance, default=VERIFY_TOLERANCE)
    synth.set_defaults(handler=_cmd_synth)

    simulate = sub.add_parser("simulate", help="apply a gate to the all-zeros state")
    simulate.add_argument(
        "--gate",
        required=True,
        help="built-in gate name (half-adder, full-adder) or a truth-table file",
    )
    simulate.add_argument(
        "--inputs",
        required=True,
        type=_parse_inputs,
        help="comma-separated input values; reals allowed",
    )
    simulate.add_argument(
        "--tolerance",
        type=_tolerance,
        default=BASIS_TOLERANCE,
        help="probability margin for reporting a sharp basis outcome",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    verify_cmd = sub.add_parser("verify", help="check a built-in gate both ways")
    verify_cmd.add_argument("--gate", required=True, choices=_BUILTIN_GATES)
    verify_cmd.add_argument(
        "--grid", type=_grid, default=101, help=f"cross-check grid points, 2 to {MAX_GRID_POINTS:,}"
    )
    verify_cmd.add_argument("--tolerance", type=_tolerance, default=VERIFY_TOLERANCE)
    verify_cmd.set_defaults(handler=_cmd_verify)

    report = sub.add_parser("report", help="compare qubit budgets against baselines")
    report.add_argument("--table", required=True, help="truth-table JSON file")
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QhcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
