"""Pointwise Stokes maps: purity, linearity, heralding consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    EmptyFieldError,
    GridSpec,
    InsufficientCoverageError,
    OamBasis,
    ProjectionAngles,
    Space,
    State,
    UnsupportedStateError,
    balanced_switch_state,
    conditional_stokes,
    herald_polarization,
    lg_mode,
    normalize_stokes,
    orientation_psi,
    photon_frame,
    skyrmion_number,
    stokes_of_photon_state,
)


def photon_state(amp_r, amp_l, ells):
    basis = OamBasis(ells)
    space = Space.photon(basis)
    psi = np.zeros(space.dims, dtype=complex)
    for k, a in enumerate(amp_r):
        psi[0, k] = a
    for k, a in enumerate(amp_l):
        psi[1, k] = a
    return State.pure(space, psi.reshape(-1), normalize=True)


def test_pure_r_photon_is_north_pole(small_grid):
    state = photon_state([1.0], [0.0], (0,))
    f = stokes_of_photon_state(state, small_grid)
    np.testing.assert_allclose(f.s3, f.s0, atol=1e-15)
    np.testing.assert_allclose(f.s1, 0.0, atol=1e-15)
    np.testing.assert_allclose(f.s2, 0.0, atol=1e-15)


def test_total_power_is_one(small_grid, binary_state):
    cond, _ = herald_polarization(binary_state, ProjectionAngles(1.0, 0.5))
    f = stokes_of_photon_state(cond, small_grid)
    assert abs(f.total_power - 1.0) < 1e-6


def test_pointwise_purity_of_pure_state(small_grid):
    state = photon_state([0.8], [0.6j], (0, -2))
    f = stokes_of_photon_state(state, small_grid)
    lhs = f.s1**2 + f.s2**2 + f.s3**2
    np.testing.assert_allclose(lhs, f.s0**2, atol=1e-18)


def test_mixed_state_loses_pointwise_purity(small_grid):
    a = photon_state([1.0], [0.0], (0, -2)).to_density()
    b = photon_state([0.0], [1.0], (0, -2)).to_density()
    rho = State(a.space, "density", 0.5 * (a.data + b.data))
    f = stokes_of_photon_state(rho, small_grid)
    assert np.all(f.s1**2 + f.s2**2 + f.s3**2 <= f.s0**2 + 1e-18)
    # equal-weight R/L mixture of the same spatial mode has no net s3
    np.testing.assert_allclose(f.s3, 0.0, atol=1e-18)


def test_stokes_linear_in_density(small_grid):
    a = photon_state([1.0, 0.3], [0.2j, 0.0], (0, -2)).to_density()
    b = photon_state([0.0, 1.0j], [0.5, 0.1], (0, -2)).to_density()
    mix = State(a.space, "density", 0.25 * a.data + 0.75 * b.data)
    fa = stokes_of_photon_state(a, small_grid).values
    fb = stokes_of_photon_state(b, small_grid).values
    fm = stokes_of_photon_state(mix, small_grid).values
    np.testing.assert_allclose(fm, 0.25 * fa + 0.75 * fb, atol=1e-15)


def test_density_path_matches_pure_path(small_grid):
    state = photon_state([0.6, 0.0], [0.0, 0.8j], (0, -2))
    f_pure = stokes_of_photon_state(state, small_grid).values
    f_dens = stokes_of_photon_state(state.to_density(), small_grid).values
    np.testing.assert_allclose(f_dens, f_pure, atol=1e-14)


def test_conditional_stokes_equals_two_step(small_grid, binary_state):
    angles = ProjectionAngles(0.5 * math.pi, 1.2)
    direct = conditional_stokes(binary_state, angles, small_grid)
    cond, _ = herald_polarization(binary_state, angles)
    two_step = stokes_of_photon_state(cond, small_grid)
    np.testing.assert_allclose(direct.values, two_step.values, atol=1e-15)


def orthogonal_pair_intensity(state, theta, alpha, grid):
    a1 = ProjectionAngles(theta, alpha)
    a2 = ProjectionAngles(math.pi - theta, (alpha + math.pi) % (2.0 * math.pi))
    total = np.zeros(grid.shape)
    for angles in (a1, a2):
        cond, prob = herald_polarization(state, angles)
        total += prob * stokes_of_photon_state(cond, grid).s0
    return total


def test_herald_pair_intensities_sum_to_marginal(small_grid, binary_state):
    # probability-weighted conditional intensities of any orthogonal herald
    # pair reassemble photon B's unconditioned intensity (fringe-sum
    # invariant); compare an equatorial pair against the polar pair
    equatorial = orthogonal_pair_intensity(binary_state, 0.5 * math.pi, 0.0, small_grid)
    polar = orthogonal_pair_intensity(binary_state, 0.0, 0.0, small_grid)
    np.testing.assert_allclose(equatorial, polar, atol=1e-12)


def test_stokes_rejects_tripartite_input(small_grid, binary_state):
    with pytest.raises(UnsupportedStateError):
        stokes_of_photon_state(binary_state, small_grid)


def test_normalize_defines_s_on_the_dark_skirt(small_grid):
    state = photon_state([1.0], [0.0], (0,))
    f = stokes_of_photon_state(state, small_grid)
    unit = normalize_stokes(f)
    skirt = f.s0 < 1e-3 * f.s0.max()
    assert skirt.any() and not skirt.all()
    # no cell is left out: s is S/S0 on the skirt too
    np.testing.assert_allclose(unit.s3, 1.0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(unit.s, axis=0), 1.0, atol=1e-12)


@st.composite
def photons(draw):
    """A photon over a random ladder (some without l = 0), pure or as a
    density matrix of rank 2..d, and a grid, odd sides included."""
    ells = draw(st.sampled_from([(0, -2), (0, -2, -4), (1, -1, -3), (-1, -3), (2, 5), (0, -6)]))
    space = Space.photon(OamBasis(ells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.sampled_from([1] + list(range(2, space.dim + 1))))
    kets = rng.normal(size=(rank, space.dim)) + 1j * rng.normal(size=(rank, space.dim))
    if rank == 1:
        state = State.pure(space, kets[0], normalize=True)
    else:
        rho = kets.T @ kets.conj()
        state = State.density(space, rho / np.trace(rho).real)
    grid = GridSpec(
        nx=draw(st.sampled_from([5, 8, 17, 32])),
        ny=draw(st.sampled_from([5, 8, 17, 32])),
        half_extent=draw(st.sampled_from([2.0, 4.0, 6.0])),
        waist=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    return state, grid


def physical_stokes(state, grid):
    """S0..S3 of the unit-power modes, summed over the density matrix.

    The double sum over rho's entries cancels down to |field|^2 on a dark
    cell, so in double precision its rounding (and that of a pure state's
    outer product) scales with the square of that cancellation and can exceed
    the texture's own: rho is formed and summed in extended precision and the
    maps rounded once."""
    ells = state.space.oam_basis("B").ells
    modes = np.stack([lg_mode(l, grid) for l in ells]).astype(np.clongdouble)
    data = state.data.astype(np.clongdouble)
    if state.is_pure:
        data = np.outer(data, data.conj())
    rho = data.reshape(state.space.dims * 2)
    p = np.einsum("jkmn,kyx,nyx->jmyx", rho, modes, np.conj(modes))
    return np.stack(
        [(p[0, 0] + p[1, 1]).real, 2.0 * p[0, 1].real, -2.0 * p[0, 1].imag, (p[0, 0] - p[1, 1]).real]
    ).astype(float)


@settings(max_examples=60, deadline=None)
@given(photons())
def test_unit_field_is_the_physical_texture(sample):
    # on every lit cell, and on every dark one where the physical S0 is still
    # a normal float: nothing is filled in
    state, grid = sample
    field = stokes_of_photon_state(state, grid)
    unit = normalize_stokes(field)
    want = physical_stokes(state, grid)
    cells = (field.s0 >= 1e-6 * field.s0.max()) | (want[0] > 1e-250)
    np.testing.assert_allclose(unit.s[:, cells], want[1:, cells] / want[0, cells], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(field.s0, want[0], rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(photons())
def test_unit_field_is_defined_wherever_the_field_is_not_zero(sample):
    state, grid = sample
    field = stokes_of_photon_state(state, grid)
    unit = normalize_stokes(field)
    nonzero = field.free[0] > 0.0
    length = np.linalg.norm(unit.s[:, nonzero], axis=0)
    if state.is_pure:
        np.testing.assert_allclose(length, 1.0, rtol=0.0, atol=1e-12)
    else:
        assert (length <= 1.0 + 1e-12).all()
    assert np.isnan(unit.s[:, ~nonzero]).all()


def test_vanishing_field_leaves_the_centre_of_an_odd_grid_undefined():
    # no l = 0 amplitude: every ket vanishes on the beam axis, which only an
    # odd grid samples; that cell has no direction, and the number says so
    state = photon_state([1.0], [0.0, 1.0], (-1, -3))
    for n in (64, 65):
        unit, density = photon_frame(state, GridSpec(n, n))
        undefined = ~np.isfinite(unit.s).all(axis=0)
        if n == 64:
            assert not undefined.any()
            assert abs(skyrmion_number(density) + 1.952) < 1e-3
        else:
            assert np.argwhere(undefined).tolist() == [[32, 32]]
            with pytest.raises(InsufficientCoverageError):
                skyrmion_number(density)


def test_overflowing_field_fails_loudly():
    # |l| = 256 at 45 waists from the axis: |E|^2 exceeds the float range
    state = photon_state([1.0, 0.0], [0.0, 1.0], (0, 256))
    field = stokes_of_photon_state(state, GridSpec(16, 16, half_extent=24.0))
    assert not np.isfinite(field.free[0]).all()
    with pytest.raises(InsufficientCoverageError, match="overflows"):
        normalize_stokes(field)


def test_normalize_rejects_dark_field(small_grid):
    zeros = np.zeros((4,) + small_grid.shape)
    from qskyrm import StokesField

    with pytest.raises(EmptyFieldError):
        normalize_stokes(StokesField(small_grid, zeros, np.ones(small_grid.shape)))


def test_orientation_psi_range(small_grid, binary_state):
    angles = ProjectionAngles(0.5 * math.pi, 0.7)
    unit = normalize_stokes(conditional_stokes(binary_state, angles, small_grid))
    psi = orientation_psi(unit)
    assert psi.min() >= -0.5 * math.pi - 1e-12
    assert psi.max() <= 0.5 * math.pi + 1e-12


def test_uniform_linear_polarization_psi(small_grid):
    # horizontally polarized photon: s1 = s0, psi = 0 everywhere
    state = photon_state([1.0 / math.sqrt(2.0)], [1.0 / math.sqrt(2.0)], (0,))
    f = stokes_of_photon_state(state, small_grid)
    unit = normalize_stokes(f)
    np.testing.assert_allclose(orientation_psi(unit), 0.0, atol=1e-12)
