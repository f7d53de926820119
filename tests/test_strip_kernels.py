"""The row-strip Stokes and skyrmion-density kernels against whole-grid references.

The references are the whole-grid formulas the strip kernels replaced; the
strip kernels must reproduce them bit for bit, on grids whose row count is
below, not a multiple of, or above the strip height, for pure and mixed
photons.  The one-pass frame texture, ``unit_texture``, must reproduce the
two-step ``normalize_stokes(stokes_of_photon_state(...))`` the same way,
errors included.
"""

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
    UnitStokesField,
    balanced_switch_state,
    herald_polarization,
    mode_stack,
    normalize_stokes,
    skyrmion_density,
    stokes_of_photon_state,
    unit_texture,
)
from qskyrm.modes import ROW_STRIP, row_strips

STATES = {
    "binary": balanced_switch_state((0, -2, -4)),
    "triple": balanced_switch_state((0, -3, -6)),
}


def reference_stokes(photon, grid):
    """Whole-grid envelope-free synthesis: one tensordot over the full mode
    stack per ket."""
    modes = mode_stack(photon.space.axes[1].basis.ells, grid)
    values = np.full((4,) + grid.shape, -0.0)
    for amp in photon.kets():
        u, v = np.tensordot(amp, modes, axes=(1, 0))
        pu, pv = np.abs(u) ** 2, np.abs(v) ** 2
        cross = 2.0 * np.conj(u) * v
        values[0] += pu + pv
        values[1] += cross.real
        values[2] += cross.imag
        values[3] += pu - pv
    return values


def reference_sigma(s, grid):
    """Whole-grid density: gradients, np.cross and one einsum over the grid."""
    sx = np.gradient(s, grid.dx, axis=2)
    sy = np.gradient(s, grid.dy, axis=1)
    return np.einsum("iyx,iyx->yx", s, np.cross(sx, sy, axis=0)) / (4.0 * math.pi)


# row counts below, at, between and above multiples of the strip height
ROWS = st.sampled_from([4, 7, 31, 32, 33, 37, 64, 65, 70])
COLS = st.sampled_from([4, 6, 24, 33, 48, 64])


# no l = 0 charge: every ket vanishes on the beam axis, the centre cell of
# an odd grid
VORTEX_STATES = {**STATES, "vortex": balanced_switch_state((-1, -3, -5))}


@st.composite
def photons(draw, states=STATES):
    """A heralded photon, pure or as a density matrix of rank 2..d."""
    state = states[draw(st.sampled_from(sorted(states)))]
    angles = ProjectionAngles(
        draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    )
    photon, _ = herald_polarization(state, angles)
    d = photon.space.dim
    rank = draw(st.sampled_from([None] + list(range(2, d + 1))))
    if rank is None:
        return photon
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    rho = kets.T @ kets.conj()
    return State.density(photon.space, rho / np.trace(rho).real)


def test_row_strips_cover_the_rows_once():
    for ny in (1, 4, ROW_STRIP - 1, ROW_STRIP, ROW_STRIP + 1, 5 * ROW_STRIP + 3):
        strips = row_strips(ny)
        assert strips[0][0] == 0 and strips[-1][1] == ny
        assert all(a[1] == b[0] for a, b in zip(strips, strips[1:]))
        assert all(0 < r1 - r0 <= ROW_STRIP for r0, r1 in strips)


@settings(max_examples=40, deadline=None)
@given(photons(), ROWS, COLS, st.sampled_from([2.0, 4.0]))
def test_strip_stokes_matches_whole_grid(photon, ny, nx, half_extent):
    grid = GridSpec(nx=nx, ny=ny, half_extent=half_extent)
    got = stokes_of_photon_state(photon, grid).free
    assert np.array_equal(got, reference_stokes(photon, grid))


@settings(max_examples=40, deadline=None)
@given(photons(), ROWS, COLS)
def test_strip_density_matches_whole_grid_in_both_layouts(photon, ny, nx):
    # the name is kept from when the fill left s in two memory layouts;
    # normalize_stokes now returns one, C-contiguous
    unit = normalize_stokes(stokes_of_photon_state(photon, GridSpec(nx=nx, ny=ny)))
    assert unit.s.flags.c_contiguous
    sigma = skyrmion_density(unit).sigma
    assert np.array_equal(sigma, reference_sigma(unit.s, unit.grid))


@settings(max_examples=60, deadline=None)
@given(photons(VORTEX_STATES), ROWS, COLS)
def test_unit_texture_is_the_normalized_stokes_maps(photon, ny, nx):
    grid = GridSpec(nx=nx, ny=ny)
    got = unit_texture(photon, grid)
    want = normalize_stokes(stokes_of_photon_state(photon, grid))
    assert got.s.tobytes() == want.s.tobytes()


def test_unit_texture_leaves_the_centre_of_an_odd_grid_undefined():
    photon, _ = herald_polarization(VORTEX_STATES["vortex"], ProjectionAngles(1.0, 0.3))
    for ny, nx in ((7, 33), (65, 33), (33, 64)):
        grid = GridSpec(nx=nx, ny=ny)
        unit = unit_texture(photon, grid)
        undefined = np.argwhere(~np.isfinite(unit.s).all(axis=0)).tolist()
        assert undefined == ([[ny // 2, nx // 2]] if ny % 2 and nx % 2 else [])
        assert unit.s.tobytes() == normalize_stokes(stokes_of_photon_state(photon, grid)).s.tobytes()


def single_photon(amplitudes_r, amplitudes_l, ells):
    space = Space.photon(OamBasis(ells))
    amplitudes = np.array([amplitudes_r, amplitudes_l], dtype=complex).reshape(-1)
    return State.pure(space, amplitudes, normalize=True)


@pytest.mark.parametrize(
    "photon, grid, error, match",
    [
        # |l| = 256 at 45 waists from the axis: |E|^2 exceeds the float range
        (single_photon([1.0, 0.0], [0.0, 1.0], (0, 256)), GridSpec(16, 40, half_extent=24.0),
         InsufficientCoverageError, "overflows"),
        # every cell centre 250 waists or more out: the physical S0 underflows
        (single_photon([0.6, 0.0], [0.0, 0.8], (0, -4)), GridSpec(4, 4, half_extent=1e3),
         EmptyFieldError, "no intensity"),
    ],
)
def test_unit_texture_raises_what_normalize_stokes_raises(photon, grid, error, match):
    with pytest.raises(error, match=match):
        normalize_stokes(stokes_of_photon_state(photon, grid))
    with pytest.raises(error, match=match):
        unit_texture(photon, grid)


def uniform_field(grid, value=1.0):
    s = np.zeros((3,) + grid.shape)
    s[2] = value
    return UnitStokesField(grid, s)


def with_nan_cells(field, fraction):
    s = field.s.copy()
    n = round(fraction * s[0].size)
    s[0].reshape(-1)[:n] = np.nan
    return UnitStokesField(field.grid, s)


def test_density_gate_passes_four_percent_nan_cells():
    grid = GridSpec(nx=50, ny=50)
    density = skyrmion_density(with_nan_cells(uniform_field(grid), 0.04))
    assert not np.isfinite(density.sigma).all()


def test_density_gate_rejects_six_percent_nan_cells():
    grid = GridSpec(nx=50, ny=50)
    with pytest.raises(InsufficientCoverageError, match=r"94\.0%"):
        skyrmion_density(with_nan_cells(uniform_field(grid), 0.06))


def test_density_gate_accepts_finite_field_whose_sum_overflows():
    grid = GridSpec(nx=16, ny=16)
    field = uniform_field(grid, 1e308)
    with np.errstate(over="ignore"):
        assert not math.isfinite(field.s.sum())
    density = skyrmion_density(field)
    assert np.array_equal(density.sigma, reference_sigma(field.s, grid))
