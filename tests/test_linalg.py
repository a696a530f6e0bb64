import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qhckit import linalg
from qhckit.errors import InvalidOrbit, InvalidParameter
from qhckit.linalg import (
    MAX_ORBIT,
    SpectralDecomposition,
    _angles,
    _dft_matrix,
    cycle_spectrum,
    exp_from_spectrum,
    hermitian_generator,
    orbit_column,
    orbit_probabilities,
    unitarity_defect,
)
from qhckit.sim import NORM_TOLERANCE
from qhckit.synth import MAX_INPUTS

from oracles import orbit_column_fft, orbit_permutation


def fourier_vectors(orbit, dim):
    """Eigenvectors as columns: the DFT vector of ``angles[j]`` on the orbit
    in column j, then one standard-basis column per off-orbit state."""
    length = len(orbit)
    vectors = np.zeros((dim, dim), dtype=complex)
    for j in range(length):
        for m, index in enumerate(orbit):
            vectors[index, j] = np.exp(-2j * np.pi * j * m / length) / math.sqrt(length)
    off_orbit = [i for i in range(dim) if i not in orbit]
    for column, index in enumerate(off_orbit, start=length):
        vectors[index, column] = 1.0
    return vectors


def test_four_cycle_angles_are_exact():
    spectrum = cycle_spectrum((0, 1, 2, 3), 4)
    assert sorted(spectrum.angles) == sorted([0.0, math.pi / 2, math.pi, -math.pi / 2])


def test_three_cycle_spectrum_layout():
    spectrum = cycle_spectrum((0, 1, 3), 4)
    assert spectrum.orbit == (0, 1, 3) and len(spectrum.angles) == 3
    # the fixed index 2 has angle 0, so U(s) leaves it exactly in place
    e2 = np.array([0, 0, 1, 0], dtype=complex)
    u = exp_from_spectrum(spectrum, 0.37)
    assert np.array_equal(u[:, 2], e2) and np.array_equal(u[2, :], e2)


@pytest.mark.parametrize(
    "orbit,dim",
    [((0,), 1), ((0, 1), 2), ((1, 3), 4), ((0, 1, 3), 4), ((0, 1, 2, 3), 4), ((2, 0, 5, 1), 8)],
)
def test_spectrum_reconstructs_the_permutation(orbit, dim):
    spectrum = cycle_spectrum(orbit, dim)
    expected = orbit_permutation(orbit, dim)
    assert np.max(np.abs(exp_from_spectrum(spectrum, 1.0) - expected)) < 1e-12


def test_eigen_equation_holds_columnwise():
    orbit = (0, 1, 3)
    spectrum = cycle_spectrum(orbit, 4)
    matrix = orbit_permutation(orbit, 4)
    vectors = fourier_vectors(orbit, 4)
    angles = np.concatenate([spectrum.angles, [0.0]])
    for j in range(4):
        left = matrix @ vectors[:, j]
        right = np.exp(1j * angles[j]) * vectors[:, j]
        assert np.max(np.abs(left - right)) < 1e-12


def test_eigenvectors_are_orthonormal():
    orbit, dim = (2, 0, 5, 1), 8
    spectrum = cycle_spectrum(orbit, dim)
    vectors = fourier_vectors(orbit, dim)
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
    angles = np.concatenate([spectrum.angles, np.zeros(dim - len(orbit))])
    for s in (0.3, -2.6):
        expected = (vectors * np.exp(1j * s * angles)) @ vectors.conj().T
        assert np.max(np.abs(exp_from_spectrum(spectrum, s) - expected)) < 1e-12


def test_exp_agrees_with_scipy_expm():
    # (2, 0, 5, 1) and (0, 1, 3) leave states off the orbit, which must stay fixed
    for orbit, dim in (((0, 1, 2, 3), 4), ((2, 0, 5, 1), 8), ((0, 1, 3), 4)):
        spectrum = cycle_spectrum(orbit, dim)
        h = hermitian_generator(spectrum)
        for s in (0.0, 0.5, 1.0, 2.75, -1.25):
            direct = exp_from_spectrum(spectrum, s)
            reference = scipy.linalg.expm(-1j * s * h)
            assert np.max(np.abs(direct - reference)) < 1e-12


def test_generator_is_hermitian_with_principal_angles():
    spectrum = cycle_spectrum((0, 1, 2, 3), 4)
    h = hermitian_generator(spectrum)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    eigenvalues = np.linalg.eigvalsh(h)
    assert np.all(eigenvalues > -math.pi - 1e-12)
    assert np.all(eigenvalues <= math.pi + 1e-12)


@pytest.mark.parametrize("length", range(1, 9))
def test_angles_stay_on_the_principal_branch(length):
    spectrum = cycle_spectrum(tuple(range(length)), 8)
    assert np.all(spectrum.angles > -math.pi)
    assert np.all(spectrum.angles <= math.pi)
    # the eigenvalue -1 appears exactly when the cycle length is even,
    # and its angle must be +pi, never -pi
    if length % 2 == 0:
        assert math.pi in set(spectrum.angles)


def test_group_law():
    spectrum = cycle_spectrum((0, 1, 3), 4)
    u1 = exp_from_spectrum(spectrum, 0.7)
    u2 = exp_from_spectrum(spectrum, 1.9)
    together = exp_from_spectrum(spectrum, 2.6)
    assert np.max(np.abs(u1 @ u2 - together)) < 1e-10


@pytest.mark.parametrize(
    "orbit,dim",
    [
        ((), 4),
        ((0, 0), 4),
        ((0, 4), 4),
        ((-1,), 4),
        ((0,), 0),
        ((0,), -1),
        ((), 0),
        # Indices must be integers, not values that int() would truncate or parse.
        ((0, 1.5, 3.9), 4),
        (("0", "1"), 4),
        ((0, math.nan), 4),
        # So must the dimension; True is read as 1.
        ((0, 1), 4.5),
        ((0, 1), "4"),
        ((0, 1), True),
    ],
)
def test_bad_orbits_rejected(orbit, dim):
    with pytest.raises(InvalidOrbit) as built:
        cycle_spectrum(orbit, dim)
    # A spectrum built directly checks its own orbit, with the same message.
    with pytest.raises(InvalidOrbit, match=f"^{re.escape(str(built.value))}$"):
        SpectralDecomposition(dim, orbit)


def test_non_finite_parameter_rejected():
    spectrum = cycle_spectrum((0, 1), 2)
    with pytest.raises(InvalidParameter):
        exp_from_spectrum(spectrum, math.nan)
    with pytest.raises(InvalidParameter):
        exp_from_spectrum(spectrum, math.inf)


@pytest.mark.parametrize("s", [None, "abc", 1j, [0.5], math.nan, -math.inf, 10**400])
def test_parameters_that_are_not_finite_reals_are_invalid(s):
    spectrum = cycle_spectrum((0, 1, 3), 4)
    for read in (orbit_column, orbit_probabilities):
        with pytest.raises(InvalidParameter, match="evolution parameter"):
            read(spectrum, s)
    # Whatever float() reads is still a parameter.
    for s in ("0.5", np.float64(0.5), Fraction(1, 2), True):
        assert orbit_probabilities(spectrum, s) == orbit_probabilities(spectrum, float(s))
        assert np.array_equal(orbit_column(spectrum, s), orbit_column(spectrum, float(s)))


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from([((0, 1, 3), 4), ((0, 1, 2, 3), 4), ((2, 0, 5, 1), 8), ((1,), 2)]),
    s=st.floats(-1e15, 1e15),
)
def test_period_holds_for_large_parameters(case, s):
    spectrum = cycle_spectrum(*case)
    shifted = s + len(spectrum.orbit)
    gap = np.max(np.abs(exp_from_spectrum(spectrum, shifted) - exp_from_spectrum(spectrum, s)))
    assert gap < 1e-10


def test_spectrum_arrays_are_frozen():
    spectrum = cycle_spectrum((0, 1), 2)
    with pytest.raises(ValueError):
        spectrum.angles[0] = 1.0
    assert isinstance(spectrum.orbit, tuple)


def test_spectra_are_plain_values_of_dim_and_orbit():
    spectrum = cycle_spectrum((0, 1, 3), 4)
    assert [field.name for field in dataclasses.fields(spectrum)] == ["dim", "orbit"]
    twins = [cycle_spectrum([0, 1, 3], 4), SpectralDecomposition(4, (0, 1, 3))]
    twins.append(SpectralDecomposition(np.int64(4), [0, np.int64(1), 3]))  # held as Python ints
    twins.append(cycle_spectrum(np.array([0, 1, 3]), 4))  # any ordered sequence, arrays too
    assert all(twin == spectrum and hash(twin) == hash(spectrum) for twin in twins)
    assert all(set(map(type, twin.orbit)) == {int} for twin in twins[2:])
    assert type(twins[2].dim) is int
    assert cycle_spectrum(range(3), 4) == cycle_spectrum((0, 1, 2), 4)
    assert {spectrum, *twins} == {spectrum}
    assert cycle_spectrum((0, 1, 3), 8) not in {spectrum}
    assert cycle_spectrum((0, 3, 1), 4) != spectrum
    # The angles are derived from the orbit length: one shared read-only array.
    assert twins[1].angles is spectrum.angles is _angles(3)


def test_unitarity_defect_values():
    assert unitarity_defect(np.eye(3)) == 0.0
    # the all-ones matrix has gram 2*ones: worst entry |2 - 0| = 2
    assert unitarity_defect(np.ones((2, 2))) == 2.0
    assert unitarity_defect([[0, 1], [1, 0]]) == 0.0  # any array-like
    spectrum = cycle_spectrum((0, 1, 3), 4)
    assert unitarity_defect(exp_from_spectrum(spectrum, 0.37)) < 1e-12


def test_dft_columns_match_an_fft_reference():
    # Orbits of synthesized gates hold 1 to 65 states.
    for length in range(1, 66):
        spectrum = cycle_spectrum(tuple(range(length)), 128)
        for s in (0.5, -2.37, 0.75 + 3e5, length - 1e-9, 1e-7):
            gap = np.max(np.abs(orbit_column(spectrum, s) - orbit_column_fft(spectrum.angles, s)))
            assert gap < 1e-12, (length, s)
        h = hermitian_generator(spectrum)
        reference = -np.fft.fft(spectrum.angles) / length
        assert np.max(np.abs(h[:length, 0] - reference)) < 1e-12, length
        assert np.array_equal(h, h.conj().T), length
    assert _dft_matrix.cache_info().currsize <= MAX_ORBIT
    # Half turns are exact: the 2-cycle's generator has no imaginary residue.
    two_cycle = np.pi / 2 * np.array([[-1, 1], [1, -1]])
    assert np.array_equal(hermitian_generator(cycle_spectrum((0, 1), 2)), two_cycle)


def test_orbit_probabilities_match_an_fft_reference():
    # n +- 0.5 are the midpoints between peaks; below |r| = 1e-150 the kernel
    # answers one-hot, and 5e-324 would otherwise divide 0 by 0.
    tiny = [5e-324, 1e-300, math.nextafter(1e-150, 0.0)]
    for length in range(1, 66):
        spectrum = cycle_spectrum(tuple(range(length)), 128)
        one_hot = [1.0] + [0.0] * (length - 1)
        halves = [n + h for n in (0, 1, 3, length - 1, length) for h in (-0.5, 0.5)]
        for s in [
            *(0.5, -2.37, 0.75 + 3e5, length - 1e-9, 1e-7, 2.0**53 - 0.5, 2.0**52 - 0.5),
            *(1e15 + 0.25, math.nextafter(1e-150, 1.0), -1e-150, *halves, *tiny),
            *(-x for x in tiny),
        ]:
            probabilities = orbit_probabilities(spectrum, s)
            assert all(type(p) is float for p in probabilities), (length, s)
            reference = np.abs(orbit_column_fft(spectrum.angles, s)) ** 2
            assert np.max(np.abs(np.array(probabilities) - reference)) < 1e-12, (length, s)
            assert abs(math.fsum(probabilities) - 1.0) <= NORM_TOLERANCE, (length, s)
            if abs(s) in tiny:
                assert probabilities == one_hot, (length, s)


def test_cached_angles_are_the_formula_bit_for_bit():
    for length in range(1, MAX_ORBIT + 1):
        modes = np.arange(length)
        signed = np.where(2 * modes > length, modes - length, modes)
        want = 2.0 * np.pi * signed / length
        got = cycle_spectrum(tuple(range(length)), 128).angles
        assert got.tobytes() == want.tobytes(), length
        assert not got.flags.writeable
        assert not _dft_matrix(length).flags.writeable, length
    assert _angles.cache_info().currsize <= _angles.cache_info().maxsize == MAX_ORBIT


def test_integer_parameters_give_exact_one_hot_columns():
    for length in (1, 2, 3, 4, 7, 65):
        spectrum = cycle_spectrum(tuple(range(length)), 128)
        for s in [*range(-2 * length, 2 * length + 1), -0.0, 2.0**53, -(2.0**60)]:
            expected = np.zeros(length, dtype=complex)
            expected[int(s) % length] = 1.0
            assert np.array_equal(orbit_column(spectrum, s), expected), (length, s)
            assert orbit_probabilities(spectrum, s) == expected.real.tolist(), (length, s)


def test_long_orbits_build_no_quadratic_arrays():
    # A synthesized gate's orbit holds at most k + 1 = 65 states.  Longer
    # orbits are refused by their length, before any index is read.
    assert MAX_ORBIT == MAX_INPUTS + 1
    for length in (MAX_ORBIT + 1, 100, 2**12):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidOrbit, match=f"1 to {MAX_ORBIT} states, got {length}"):
                cycle_spectrum(range(length), 2**16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**14, length
    # Dense matrices past the cap are refused before any column is computed.
    huge = cycle_spectrum((0, 1, 3), 2**16)
    tracemalloc.start()
    try:
        for build in (lambda: exp_from_spectrum(huge, 0.5), lambda: hermitian_generator(huge)):
            with pytest.raises(InvalidParameter, match="exceeds the cap"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_dense_cap_admits_its_own_dimension(monkeypatch):
    # A dimension equal to the cap is built, one past it is not; a cap of 4 keeps both small.
    monkeypatch.setattr(linalg, "MAX_DENSE_DIM", 4)
    at_cap, past_cap = cycle_spectrum((0, 1, 3), 4), cycle_spectrum((0, 1, 3), 8)
    for build in (lambda spectrum: exp_from_spectrum(spectrum, 0.5), hermitian_generator):
        assert build(at_cap).shape == (4, 4)
        with pytest.raises(InvalidParameter, match="exceeds the cap of 4"):
            build(past_cap)
