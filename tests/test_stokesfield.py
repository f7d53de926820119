"""Pointwise Stokes maps: purity, linearity, heralding consistency."""

import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from qskyrm import (
    EmptyFieldError,
    GridSpec,
    OamBasis,
    ProjectionAngles,
    Space,
    State,
    UnsupportedStateError,
    balanced_switch_state,
    conditional_stokes,
    herald_polarization,
    normalize_stokes,
    orientation_psi,
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


def test_normalize_masks_dark_skirt(small_grid):
    state = photon_state([1.0], [0.0], (0,))
    f = stokes_of_photon_state(state, small_grid)
    unit = normalize_stokes(f, intensity_floor=1e-3)
    assert unit.mask.any() and not unit.mask.all()
    # filled cells copy their nearest resolved neighbour: |s| = 1 everywhere
    np.testing.assert_allclose(np.linalg.norm(unit.s, axis=0), 1.0, atol=1e-12)


def whole_grid_fill(field, floor):
    """s/S0 on every cell, then every cell gathered from the nearest
    resolved one: the fill normalize_stokes replaced."""
    mask = field.s0 >= floor * field.s0.max()
    safe = np.where(mask, field.s0, 1.0)
    s = np.where(mask[np.newaxis], field.values[1:] / safe[np.newaxis], 0.0)
    if not mask.all():
        iy, ix = distance_transform_edt(~mask, return_distances=False, return_indices=True)
        s = s[:, iy, ix]
    return s


@pytest.mark.parametrize("angles", [(0.0, 0.0), (1.26, 0.3), (0.5 * math.pi, 2.0)])
@pytest.mark.parametrize("floor", [1e-3, 1e-6, 1e-300])
def test_normalize_fill_bytes_and_layout(binary_state, angles, floor):
    # skyrmion_density's einsum sums in the order its operands' layout sets,
    # so the fill must keep both the values and the memory order
    grid = GridSpec(nx=96, ny=80)
    photon, _ = herald_polarization(binary_state, ProjectionAngles(*angles))
    field = stokes_of_photon_state(photon, grid)
    unit = normalize_stokes(field, floor)
    want = whole_grid_fill(field, floor)
    assert np.array_equal(unit.s, want)
    assert unit.s.strides == want.strides
    if unit.mask.all():
        assert unit.s.flags.c_contiguous
    else:
        # a (3, ny, nx) view of (ny, nx, 3) memory
        assert np.moveaxis(unit.s, 0, -1).flags.c_contiguous


def test_normalize_floor_validation(small_grid):
    state = photon_state([1.0], [0.0], (0,))
    f = stokes_of_photon_state(state, small_grid)
    with pytest.raises(ValueError):
        normalize_stokes(f, intensity_floor=0.0)
    with pytest.raises(ValueError):
        normalize_stokes(f, intensity_floor=1.5)


def test_normalize_rejects_dark_field(small_grid):
    zeros = np.zeros((4,) + small_grid.shape)
    from qskyrm import StokesField

    with pytest.raises(EmptyFieldError):
        normalize_stokes(StokesField(small_grid, zeros))


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
