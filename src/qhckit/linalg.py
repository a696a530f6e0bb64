"""Exact spectra of cycle permutations and the unitaries they generate.

A cycle permutation shifts a chosen orbit of basis indices and fixes the
rest.  Its eigenvectors are discrete Fourier vectors supported on the orbit,
so the spectrum is written down directly, with eigenangles on the principal
branch (-pi, pi] by construction.  Every function of the permutation is
therefore the identity (or zero) off the orbit and a circulant on it: one
orbit column, one product with a DFT matrix, fixes ``U(s) = exp(-i s H)``,
and the dense ``U(s)`` and ``H`` are scattered from such columns.  Angles
and DFT matrices are cached for each orbit length a synthesized gate can have.
A readout needs only the column's squared moduli: a phase-free closed form.

Everything here is a pure function over immutable values; results can be
shared across threads freely.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidOrbit, InvalidParameter

# Largest dense matrix built: d = 2^11 is 64 MiB of complex entries.
MAX_DENSE_DIM = 2**11
# Longest orbit: a synthesized gate's is a prefix of the k + 1 <= 65 weight
# labels.  The cached DFT matrices for all 65 lengths take about 1.5 MB.
MAX_ORBIT = 65


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a permutation acting as one cyclic orbit of length L.

    ``angles[j]`` belongs to the discrete Fourier vector whose entry at
    ``orbit[m]`` is ``exp(-2*pi*i*j*m/L) / sqrt(L)`` and which is zero off
    the orbit; every state off it is an eigenvector with angle exactly 0.  The
    L on-orbit angles derive from L (read-only, shared by every L-cycle), so a
    spectrum is a plain hashable value.  A dimension that is not a positive
    integer, or an orbit other than an ordered sequence (no set or dict) of 1
    to ``MAX_ORBIT`` distinct integers in [0, dim), is ``InvalidOrbit``.
    """

    dim: int
    orbit: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            dim = operator.index(self.dim)
        except TypeError as exc:
            raise InvalidOrbit(f"dimension must be an integer: {exc}") from None
        if not isinstance(self.orbit, (Sequence, np.ndarray)):  # a set or dict has no order
            raise InvalidOrbit(f"orbit must be a sequence of indices, got {self.orbit!r}")
        if not 1 <= len(self.orbit) <= MAX_ORBIT:
            raise InvalidOrbit(f"orbit must hold 1 to {MAX_ORBIT} states, got {len(self.orbit)}")
        try:
            orbit = tuple(map(operator.index, self.orbit))
        except TypeError as exc:
            raise InvalidOrbit(f"orbit indices must be integers: {exc}") from None
        if len(set(orbit)) != len(orbit):
            raise InvalidOrbit(f"orbit {orbit} repeats an index")
        out_of_range = [i for i in orbit if not 0 <= i < dim]
        if out_of_range:
            raise InvalidOrbit(f"orbit indices {out_of_range} outside [0, {dim})")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "orbit", orbit)

    @property
    def angles(self) -> np.ndarray:
        return _angles(len(self.orbit))


def unitarity_defect(a: np.ndarray) -> float:
    """Largest entry of ``|a.H a - I|``; zero exactly when ``a`` is unitary."""
    a = np.asarray(a)
    gram = a.conj().T @ a
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def cycle_spectrum(orbit: Sequence[int], dim: int) -> SpectralDecomposition:
    """Exact eigensystem of the permutation that cyclically shifts ``orbit``.

    The permutation sends ``orbit[j]`` to ``orbit[j + 1]`` (wrapping at the
    end) and fixes every other index.  On an orbit of length L the
    eigenvalues are the L-th roots of unity; their angles ``2*pi*j/L`` are
    reduced to (-pi, pi], with the eigenvalue -1 assigned +pi.
    """
    return SpectralDecomposition(dim=dim, orbit=orbit)


@lru_cache(maxsize=MAX_ORBIT)
def _angles(length: int) -> np.ndarray:
    """Read-only eigenangles ``2*pi*j/L`` of an L-cycle in (-pi, pi], shared by all L-cycles."""
    modes = np.arange(length)
    # Signed numerators keep the wrapped angles exact (0, pi/2, pi, -pi/2 for L = 4).
    angles = 2.0 * np.pi * np.where(2 * modes > length, modes - length, modes) / length
    angles.setflags(write=False)
    return angles


@lru_cache(maxsize=MAX_ORBIT)
def _dft_matrix(length: int) -> np.ndarray:
    """Read-only L x L matrix of ``exp(-2*pi*i*j*m/L)``, the unnormalized DFT."""
    steps = np.arange(length)
    turns = np.outer(steps, steps) % length
    # Signed residues make entry L - r the exact conjugate of entry r, so a
    # real input has an exactly conjugate-symmetric transform; quarter turns
    # are set to 1, -i, -1 and i exactly.
    matrix = np.exp(-2j * np.pi * np.where(2 * turns > length, turns - length, turns) / length)
    quarter = 4 * turns % length == 0
    matrix[quarter] = np.array([1, -1j, -1, 1j])[4 * turns[quarter] // length]
    matrix.setflags(write=False)
    return matrix


def _reduced(s: float, length: int) -> float:
    """``s`` as a finite float reduced into (-L, L): exact, as fmod is, and U has period L."""
    try:
        s = float(s)
    except (OverflowError, TypeError, ValueError) as exc:  # 10**400, None, "abc", 1j, ...
        raise InvalidParameter(f"evolution parameter must be a finite real number: {exc}") from None
    if not math.isfinite(s):
        raise InvalidParameter(f"evolution parameter must be finite, got {s}")
    return math.fmod(s, length)


def orbit_column(spectrum: SpectralDecomposition, s: float) -> np.ndarray:
    """Column ``orbit[0]`` of ``U(s)`` at orbit positions 0..L-1.

    Equals ``DFT(exp(i * s * angles)) / L``; ``U(s)`` maps ``orbit[b]`` to
    ``orbit[a]`` with amplitude ``column[(a - b) mod L]``.  At integer ``s``
    it is exactly the one-hot column of the permutation power ``P^s``.
    """
    length = len(spectrum.orbit)
    s = _reduced(s, length)
    if s.is_integer():
        column = np.zeros(length, dtype=complex)
        column[int(s) % length] = 1.0
        return column
    return _dft_matrix(length) @ np.exp(1j * s * spectrum.angles) / length


def orbit_probabilities(spectrum: SpectralDecomposition, s: float) -> list[float]:
    """``|orbit_column(spectrum, s)|**2``: at ``x = s - a``, entry ``a`` is the squared
    periodic Dirichlet kernel ``(sin(pi x) / (L sin(pi x / L)))**2``.

    ``s = n + r`` is split exactly at the nearest integer, so each sine argument
    lies in one period and no error grows with ``s``.  Below ``|r| = 1e-150`` the
    result is one-hot: the peak rounds to 1.0 and the rest are below 1e-299.
    """
    length = len(spectrum.orbit)
    s = _reduced(s, length)
    n = round(s)
    r = s - n
    if abs(r) < 1e-150:
        return [float(a == n % length) for a in range(length)]
    # The ratio is squared last, so no entry underflows before it is formed.
    top, step = math.sin(math.pi * r) / length, math.pi / length
    return [(top / math.sin(step * ((n - a) % length + r))) ** 2 for a in range(length)]


def _require_dense(spectrum: SpectralDecomposition) -> None:
    """Refuse, before any work, a dense matrix larger than the cap."""
    if spectrum.dim > MAX_DENSE_DIM:
        raise InvalidParameter(
            f"dense matrix of dimension {spectrum.dim} exceeds the cap of {MAX_DENSE_DIM}"
        )


def _circulant_on_orbit(
    spectrum: SpectralDecomposition, column: np.ndarray, off_orbit: float
) -> np.ndarray:
    """Dense matrix: circulant ``column`` on the orbit, ``off_orbit`` * I elsewhere."""
    matrix = np.zeros((spectrum.dim, spectrum.dim), dtype=complex)
    np.fill_diagonal(matrix, off_orbit)
    index = np.array(spectrum.orbit)
    steps = np.arange(len(index))
    matrix[index[:, None], index[None, :]] = column[(steps[:, None] - steps[None, :]) % len(index)]
    return matrix


def exp_from_spectrum(spectrum: SpectralDecomposition, s: float) -> np.ndarray:
    """Evaluate the one-parameter unitary family ``U(s)`` of a spectrum.

    ``U(s)`` applies the phase ``exp(i * s * angle)`` to each eigenvector, so
    ``U(0)`` is the identity, ``U(1)`` is the decomposed permutation itself,
    and the family obeys the group law ``U(s1) @ U(s2) == U(s1 + s2)``.
    """
    _require_dense(spectrum)
    return _circulant_on_orbit(spectrum, orbit_column(spectrum, s), 1.0)


def hermitian_generator(spectrum: SpectralDecomposition) -> np.ndarray:
    """Hermitian ``H`` with ``exp_from_spectrum(spectrum, s) == exp(-i s H)``.

    ``H`` weights each eigenvector by minus its eigenangle; it equals i times
    the principal logarithm of the decomposed permutation.
    """
    _require_dense(spectrum)
    length = len(spectrum.orbit)
    return _circulant_on_orbit(spectrum, _dft_matrix(length) @ -spectrum.angles / length, 0.0)
