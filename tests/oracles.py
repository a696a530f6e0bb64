"""Independent reference implementations used to check the package.

Everything here is deliberately naive: permutation matrices are scattered
entry by entry, candidate permutations are enumerated exhaustively with
itertools, and expected outputs are computed by walking trajectories one
step at a time.  None of it calls into the package's own linear algebra,
so agreement is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np

from qhckit import TruthTable
from qhckit.errors import InitialStateMismatch, NonEmbeddable


def permutation_matrix(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix of the permutation sending basis index i to perm[i]."""
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=complex)
    for source, target in enumerate(perm):
        m[target, source] = 1.0
    return m


def orbit_permutation(orbit: tuple[int, ...], dim: int) -> np.ndarray:
    """Matrix cycling the orbit indices in order and fixing the rest."""
    perm = list(range(dim))
    for step, index in enumerate(orbit):
        perm[index] = orbit[(step + 1) % len(orbit)]
    return permutation_matrix(tuple(perm))


def weight_table(weight_labels: tuple[str, ...], input_count: int) -> TruthTable:
    """Symmetric table whose weight-w inputs all map to weight_labels[w]."""
    rows = {
        bits: weight_labels[sum(bits)]
        for bits in itertools.product((0, 1), repeat=input_count)
    }
    return TruthTable(
        input_count=input_count, output_qubits=len(weight_labels[0]), rows=rows
    )


def all_symmetric_tables(max_inputs: int, max_qubits: int):
    """Every symmetric table with k <= max_inputs and N <= max_qubits."""
    for input_count in range(1, max_inputs + 1):
        for qubits in range(1, max_qubits + 1):
            labels = [format(i, f"0{qubits}b") for i in range(2**qubits)]
            for assignment in itertools.product(labels, repeat=input_count + 1):
                yield weight_table(tuple(assignment), input_count)


def satisfying_permutations(table: TruthTable) -> list[tuple[int, ...]]:
    """All permutations P with P^weight(x) e0 = e_target for every row x.

    Brute force over the full symmetric group of the output space; feasible
    because the spaces of interest have at most four basis states.
    """
    targets_by_weight: dict[int, int] = {}
    for bits, label in table.rows.items():
        weight, target = sum(bits), int(label, 2)
        if targets_by_weight.setdefault(weight, target) != target:
            return []
    found = []
    for perm in itertools.permutations(range(table.dim)):
        position = 0
        ok = targets_by_weight[0] == 0
        for weight in range(1, table.input_count + 1):
            position = perm[position]
            if targets_by_weight[weight] != position:
                ok = False
                break
        if ok:
            found.append(perm)
    return found


def shortest_orbit(weight_labels: tuple[str, ...], output_qubits: int) -> tuple[int, ...]:
    """Shortest orbit from 0 putting weight w's label at position w mod L.

    Tries every length from 1 to min(k + 1, 2^N), smallest first.
    """
    targets = [int(label, 2) for label in weight_labels]
    if targets[0] != 0:
        raise InitialStateMismatch(f"weight-0 label is {weight_labels[0]}")
    for length in range(1, min(len(targets), 2**output_qubits) + 1):
        orbit = targets[:length]
        if len(set(orbit)) == length and all(
            target == orbit[w % length] for w, target in enumerate(targets)
        ):
            return tuple(orbit)
    raise NonEmbeddable(f"no orbit through {weight_labels}")
