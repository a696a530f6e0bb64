"""Output checks that share no code with the package under test.

Expected values come from the workload generator (the per-weight labels and
orbit it built each table from) and from an oracle computed here: on an
orbit of length L the cycle gate is a circulant, so ``U(s)`` applied to the
all-zero state is ``fft(exp(i s theta)) / L`` scattered onto the orbit, with
``theta_m = 2 pi m / L`` taken on the principal branch (-pi, pi] and the
eigenvalue -1 assigned +pi.  Every other basis state is left fixed.

Each check raises ``CheckFailed`` with a reason; the benchmark counts an op
as failed when its check raises.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

# Acceptance bar for probabilities and matrix entries against the oracle.
TOLERANCE = 1e-9
# The package's documented default for reporting a sharp basis outcome.
BASIS_TOLERANCE = 1e-6
# The package's documented default tolerance for `verify`.
VERIFY_TOLERANCE = 1e-9

HALF_ADDER_LABELS = ("00", "01", "11")
FULL_ADDER_LABELS = ("00", "01", "10", "11")


class CheckFailed(Exception):
    """An op's output disagrees with the expected output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def orbit_angles(length: int) -> np.ndarray:
    modes = np.arange(length)
    signed = np.where(2 * modes > length, modes - length, modes)
    return 2.0 * np.pi * signed / length


def orbit_column(length: int, s: float) -> np.ndarray:
    """Amplitudes of ``U(s) e0`` at orbit positions 0..L-1."""
    return np.fft.fft(np.exp(1j * s * orbit_angles(length))) / length


def state_oracle(orbit: Sequence[int], dim: int, s: float) -> np.ndarray:
    state = np.zeros(dim, dtype=complex)
    state[list(orbit)] = orbit_column(len(orbit), s)
    return state


def _circulant(first_column: np.ndarray, orbit: Sequence[int], dim: int, off_orbit: float) -> np.ndarray:
    length = len(orbit)
    matrix = np.eye(dim, dtype=complex) * off_orbit
    index = np.array(orbit)
    shift = (np.arange(length)[:, None] - np.arange(length)[None, :]) % length
    matrix[index[:, None], index[None, :]] = first_column[shift]
    return matrix


def unitary_oracle(orbit: Sequence[int], dim: int, s: float) -> np.ndarray:
    """Dense ``U(s)``: circulant on the orbit, identity elsewhere."""
    return _circulant(orbit_column(len(orbit), s), orbit, dim, 1.0)


def generator_oracle(orbit: Sequence[int], dim: int) -> np.ndarray:
    """Dense ``H`` with ``U(s) = exp(-i s H)``: zero off the orbit."""
    length = len(orbit)
    return _circulant(-np.fft.fft(orbit_angles(length)) / length, orbit, dim, 0.0)


def check_gate_orbit(gate: Any, orbit: Sequence[int]) -> None:
    require(
        tuple(gate.cycle.orbit) == tuple(orbit),
        f"orbit {tuple(gate.cycle.orbit)} != expected {tuple(orbit)}",
    )


def check_verification(report: Any, inputs: int, labels: Sequence[str]) -> None:
    """Every replayed row at integer ``s`` lands on the generator's label."""
    require(len(report.rows) == 2**inputs, f"{len(report.rows)} rows replayed, expected {2**inputs}")
    for row in report.rows:
        want = labels[sum(row.inputs)]
        require(
            row.expected == want and row.obtained == want,
            f"row {row.inputs}: expected {want}, table says {row.expected}, gate gave {row.obtained}",
        )
    require(report.max_deviation <= VERIFY_TOLERANCE, f"max deviation {report.max_deviation}")
    require(report.passed is True, "verification did not pass")


def expected_label(probabilities: np.ndarray, bits: int) -> tuple[str | None, bool]:
    """Label the package should report, and whether the call is clear-cut.

    Within 1e-9 of the decode threshold the oracle cannot say which side the
    package's own rounding lands on, so the label is not checked there.
    """
    top = int(np.argmax(probabilities))
    p = float(probabilities[top])
    clear = abs(p - (1.0 - BASIS_TOLERANCE)) > TOLERANCE
    return (format(top, f"0{bits}b") if p >= 1.0 - BASIS_TOLERANCE else None), clear


def check_probabilities(
    probabilities: Sequence[float], label: str | None, orbit: Sequence[int], dim: int, s: float
) -> None:
    got = np.asarray(probabilities, dtype=float)
    require(got.shape == (dim,), f"{got.shape[0] if got.ndim else 0} probabilities, expected {dim}")
    require(bool(np.all(np.isfinite(got))), "non-finite probability")
    want = np.abs(state_oracle(orbit, dim, s)) ** 2
    gap = float(np.max(np.abs(got - want)))
    require(gap <= TOLERANCE, f"probabilities differ from the oracle by {gap:.3e} at s={s!r}")
    want_label, clear = expected_label(want, (dim - 1).bit_length())
    require(not clear or label == want_label, f"label {label!r} != expected {want_label!r} at s={s!r}")


def check_outcome(outcome: Any, orbit: Sequence[int], dim: int, inputs: Sequence[float]) -> None:
    check_probabilities(outcome.probabilities, outcome.label, orbit, dim, math.fsum(inputs))


def check_rejection(error: BaseException | None, expected: str) -> None:
    """A deliberately non-synthesizable document must raise exactly this class."""
    require(error is not None, f"expected {expected}, but synthesis succeeded")
    name = type(error).__name__
    require(name == expected, f"expected {expected}, got {name}: {error}")
    require(type(error).__module__ == "qhckit.errors", f"{name} is not a package error type")


def _reject_constant(name: str) -> None:
    raise CheckFailed(f"non-standard JSON literal {name}")


def strict_json(text: str) -> Any:
    """Parse JSON, refusing NaN and Infinity literals."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def matrix_from_json(doc: Any, dim: int) -> np.ndarray:
    require(isinstance(doc, dict) and doc.get("dim") == dim, f"matrix document is not {dim}x{dim}")
    rows = doc["entries"]
    require(len(rows) == dim and all(len(r) == dim for r in rows), "matrix entries have the wrong shape")
    return np.array([[complex(c["re"], c["im"]) for c in r] for r in rows])


def matrix_from_csv(text: str, dim: int) -> np.ndarray:
    lines = text.splitlines()
    require(len(lines) == dim, f"CSV has {len(lines)} lines, expected {dim}")
    cells = [line.split(",") for line in lines]
    require(all(len(r) == dim for r in cells), "CSV rows have the wrong width")
    return np.array([[complex(c.replace("i", "j")) for c in r] for r in cells])


def check_matrix(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(bool(np.all(np.isfinite(got))), f"{what} has non-finite entries")
    gap = float(np.max(np.abs(got - want)))
    require(gap <= TOLERANCE, f"{what} differs from the oracle by {gap:.3e}")


def qubits_for(labels: Sequence[str]) -> int:
    return (len(set(labels)) - 1).bit_length()


def expected_schemes(inputs: int, labels: Sequence[str]) -> list[str]:
    schemes = ["qhc"]
    if inputs == 2 and tuple(labels) == HALF_ADDER_LABELS:
        schemes.append("toffoli-cnot-half")
    elif inputs == 3 and tuple(labels) == FULL_ADDER_LABELS:
        schemes += ["toffoli-cnot-full", "fredkin-full"]
    return schemes
