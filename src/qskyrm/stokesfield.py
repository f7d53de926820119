"""Transverse polarization-texture maps of a single photon.

Given a state over one polarization axis and one OAM axis, the spatial
amplitude of each circular component is a superposition of vortex modes, and
the pointwise Stokes parameters follow from the 2x2 polarization matrix at
each sample::

    S0 = P_RR + P_LL     S1 =  2 Re P_RL
    S3 = P_RR - P_LL     S2 = -2 Im P_RL

with ``P(r) = sum_k E_k(r) E_k(r)^dag`` summed over the state's ket ensemble
(:meth:`State.kets`), where ``E_k = (E_R, E_L)`` is the field of ket k: one
term for a pure state, one per positive eigenvalue of a density matrix.  For
pure states the reduced vector ``s = (S1, S2, S3)/S0`` has unit length
wherever S0 > 0; mixed states give |s| <= 1.  The maps are synthesized one
ket and one block of grid rows (:func:`~qskyrm.modes.row_strips`) at a
time, so the complex fields stay cache-sized; each cell sees the same
arithmetic, in the same ket order, as a whole-grid synthesis.

Topology routines need ``s`` defined on the whole grid, so
:func:`normalize_stokes` fills the cells below an intensity floor (relative
to the grid's S0 maximum) with the value of the nearest resolved cell.  That
freezes ``s`` along the outward direction in the dark skirt, so the fill
region carries essentially no topological density of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import EmptyFieldError, UnsupportedStateError
from .hilbert import ProjectionAngles, State, herald_polarization
from .modes import GridSpec, mode_stack, row_strips

__all__ = [
    "StokesField",
    "UnitStokesField",
    "stokes_of_photon_state",
    "conditional_stokes",
    "normalize_stokes",
    "orientation_psi",
]

DEFAULT_INTENSITY_FLOOR = 1e-6


@dataclass(frozen=True)
class StokesField:
    """Raw Stokes maps on a grid: ``values`` is (4, ny, nx) = (S0, S1, S2, S3)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (4,) + self.grid.shape:
            raise ValueError(f"expected shape {(4,) + self.grid.shape}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def s0(self) -> np.ndarray:
        return self.values[0]

    @property
    def s1(self) -> np.ndarray:
        return self.values[1]

    @property
    def s2(self) -> np.ndarray:
        return self.values[2]

    @property
    def s3(self) -> np.ndarray:
        return self.values[3]

    @property
    def total_power(self) -> float:
        return float(self.s0.sum() * self.grid.cell_area)


@dataclass(frozen=True)
class UnitStokesField:
    """Reduced Stokes vector field, defined on every cell after nearest fill.

    ``s`` has shape (3, ny, nx) holding (s1, s2, s3); ``mask`` marks the cells
    whose intensity cleared the floor (the rest were filled from their nearest
    resolved neighbour); ``s0`` keeps the raw intensity for reference.
    """

    grid: GridSpec
    s: np.ndarray
    mask: np.ndarray
    s0: np.ndarray
    intensity_floor: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        s0 = np.asarray(self.s0, dtype=float)
        if s.shape != (3,) + self.grid.shape:
            raise ValueError(f"expected s shape {(3,) + self.grid.shape}, got {s.shape}")
        if mask.shape != self.grid.shape or s0.shape != self.grid.shape:
            raise ValueError("mask and s0 must match the grid shape")
        for arr in (s, mask, s0):
            arr.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "s0", s0)

    @property
    def s1(self) -> np.ndarray:
        return self.s[0]

    @property
    def s2(self) -> np.ndarray:
        return self.s[1]

    @property
    def s3(self) -> np.ndarray:
        return self.s[2]


def _photon_axes(state: State) -> tuple[int, int]:
    axes = state.space.axes
    pol = [i for i, ax in enumerate(axes) if ax.kind == "pol"]
    oam = [i for i, ax in enumerate(axes) if ax.kind == "oam"]
    if len(axes) != 2 or len(pol) != 1 or len(oam) != 1:
        raise UnsupportedStateError(
            "expected a single-photon state over one polarization and one OAM axis; "
            "herald the companion photon first"
        )
    if axes[pol[0]].arm != axes[oam[0]].arm:
        raise UnsupportedStateError("polarization and OAM axes belong to different arms")
    return pol[0], oam[0]


def stokes_of_photon_state(state: State, grid: GridSpec) -> StokesField:
    """Stokes maps of a single-photon polarization x OAM state (pure or mixed),
    summed over the state's ket ensemble."""
    ip, io = _photon_axes(state)
    basis = state.space.axes[io].basis
    modes = mode_stack(basis.ells, grid)
    kets = state.kets()
    if ip == 1:
        kets = np.swapaxes(kets, 1, 2)

    # starts at -0.0, since -0.0 + x == x for every x, signed zeros included;
    # one ket's field at a time: a (rank, 2, ny, nx) field stack is slower;
    # and that over row strips, so the (2, rows, nx) field stays cache-sized
    values = np.full((4,) + grid.shape, -0.0)
    for amp in kets:
        for r0, r1 in row_strips(grid.ny):
            u, v = np.tensordot(amp, modes[:, r0:r1], axes=(1, 0))  # (2, rows, nx)
            pu, pv = np.abs(u) ** 2, np.abs(v) ** 2
            cross = 2.0 * np.conj(u) * v
            out = values[:, r0:r1]
            out[0] += pu + pv
            out[1] += cross.real
            out[2] += cross.imag
            out[3] += pu - pv
    return StokesField(grid, values)


def conditional_stokes(
    state: State, angles: ProjectionAngles, grid: GridSpec
) -> StokesField:
    """Stokes maps of photon B conditioned on heralding photon A at ``angles``."""
    conditional, _ = herald_polarization(state, angles)
    return stokes_of_photon_state(conditional, grid)


def normalize_stokes(
    field: StokesField, intensity_floor: float = DEFAULT_INTENSITY_FLOOR
) -> UnitStokesField:
    """Reduce to s = (S1, S2, S3)/S0 and fill dark cells from their nearest
    resolved neighbour.

    ``intensity_floor`` is relative: a cell is resolved when its S0 reaches
    ``intensity_floor * max(S0)``.  Raises :class:`EmptyFieldError` when no
    cell clears the floor.

    Layout rule: when every cell is resolved, ``s`` is a C-contiguous
    (3, ny, nx) array; otherwise it is a (3, ny, nx) view of (ny, nx, 3)
    memory, and only the dark cells are copied from the nearest-resolved
    indices.  :func:`~qskyrm.topology.skyrmion_density`'s ``einsum`` sums
    in an order set by that layout, so it fixes the last digits of every
    density.
    """
    if not 0.0 < intensity_floor <= 1.0:
        raise ValueError(f"intensity_floor must lie in (0, 1], got {intensity_floor}")
    s0 = field.s0
    peak = float(s0.max()) if s0.size else 0.0
    if not peak > 0.0:
        raise EmptyFieldError("field carries no intensity")
    mask = s0 >= intensity_floor * peak
    if not mask.any():
        raise EmptyFieldError("no cell clears the intensity floor")

    dark = ~mask
    if not dark.any():
        return UnitStokesField(field.grid, field.values[1:] / s0, mask, s0, intensity_floor)
    # divide straight into (ny, nx, 3) memory, then overwrite each dark cell
    # (whatever S/S0 gave there) with its nearest resolved cell
    filled = np.empty(field.grid.shape + (3,))
    s = np.moveaxis(filled, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(field.values[1:], s0, out=s)
    iy, ix = distance_transform_edt(dark, return_distances=False, return_indices=True)
    # each cell's three components move as one 24-byte record
    cells = filled.view(np.dtype((np.void, 3 * filled.itemsize))).reshape(-1)
    to = np.flatnonzero(dark)
    cells[to] = cells[iy.ravel()[to] * dark.shape[1] + ix.ravel()[to]]
    return UnitStokesField(field.grid, s, mask, s0, intensity_floor)


def orientation_psi(field) -> np.ndarray:
    """In-plane orientation angle psi = arctan2(s2, s1) / 2 in (-pi/2, pi/2]."""
    return 0.5 * np.arctan2(field.s2, field.s1)
