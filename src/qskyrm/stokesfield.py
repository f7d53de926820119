"""Transverse polarization-texture maps of a single photon.

Given a state over one polarization axis and one OAM axis, the spatial
amplitude of each circular component is a superposition of vortex modes, and
the pointwise Stokes parameters follow from the 2x2 polarization matrix at
each sample::

    S0 = P_RR + P_LL     S1 =  2 Re P_RL
    S3 = P_RR - P_LL     S2 = -2 Im P_RL

with ``P(r) = sum_k E_k(r) E_k(r)^dag`` summed over the state's ket ensemble
(:meth:`State.kets`), where ``E_k = (E_R, E_L)`` is the field of ket k: one
term for a pure state, one per positive eigenvalue of a density matrix.  The
maps are synthesized one block of grid rows (:func:`~qskyrm.modes.row_strips`)
and one ket at a time, so the complex fields stay cache-sized; each cell sees
the same arithmetic, in the same ket order, as a whole-grid synthesis.

Every mode shares the Gaussian exp(-r^2/w^2), so the synthesis runs on the
envelope-free profiles (:func:`~qskyrm.modes.mode_stack`) and a
:class:`StokesField` carries the common intensity factor exp(-2 r^2/w^2)
beside them; its physical maps are the product.  The texture
``s = (S1, S2, S3)/S0`` (:func:`normalize_stokes`) does not depend on the
factor, and off the envelope no cell of the window underflows, so s is
defined on every cell where some ket's field is nonzero: unit length for a
pure photon, |s| <= 1 for a mixed one.  No intensity floor enters s: the
``stokes-field`` command alone reads a floor, off the physical S0, to
report which cells a detector would resolve.

A frame needs only the texture, so the frame path builds no Stokes maps:
:func:`unit_texture` divides each block of rows into s while the block is
still in cache, and returns bit for bit
``normalize_stokes(stokes_of_photon_state(photon, grid))``.  Both paths run
the same block kernel, division and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFieldError, InsufficientCoverageError, UnsupportedStateError
from .hilbert import ProjectionAngles, Space, State, herald_polarization
from .modes import ROW_STRIP, GridSpec, _intensity_envelope, mode_stack, row_strips

__all__ = [
    "StokesField",
    "UnitStokesField",
    "stokes_of_photon_state",
    "conditional_stokes",
    "normalize_stokes",
    "unit_texture",
    "orientation_psi",
]

@dataclass(frozen=True)
class StokesField:
    """Stokes maps on a grid, held envelope-free.

    ``free`` is (4, ny, nx) = (S0, S1, S2, S3) of the envelope-free profiles,
    ``envelope`` (ny, nx) the intensity factor they share; ``values`` and
    ``s0``..``s3`` are the physical maps, their product.
    """

    grid: GridSpec
    free: np.ndarray
    envelope: np.ndarray

    def __post_init__(self):
        free = np.asarray(self.free, dtype=float)
        envelope = np.asarray(self.envelope, dtype=float)
        if free.shape != (4,) + self.grid.shape or envelope.shape != self.grid.shape:
            raise ValueError(
                f"expected shapes {(4,) + self.grid.shape} and {self.grid.shape}, "
                f"got {free.shape} and {envelope.shape}"
            )
        for name, arr in (("free", free), ("envelope", envelope)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def values(self) -> np.ndarray:
        return self.free * self.envelope

    # one physical map each, without computing the other three
    s0, s1, s2, s3 = (property(lambda self, k=k: self.free[k] * self.envelope) for k in range(4))

    @property
    def total_power(self) -> float:
        return float(self.s0.sum() * self.grid.cell_area)


@dataclass(frozen=True)
class UnitStokesField:
    """Reduced Stokes vector field.

    ``s`` has shape (3, ny, nx) holding (s1, s2, s3), NaN on a cell where the
    field vanishes.
    """

    grid: GridSpec
    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != (3,) + self.grid.shape:
            raise ValueError(f"expected s shape {(3,) + self.grid.shape}, got {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    s1, s2, s3 = (property(lambda self, k=k: self.s[k]) for k in range(3))


def _photon_axes(space: Space) -> tuple[int, int]:
    axes = space.axes
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


def _kets_and_modes(state: State, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The state's ket ensemble as (rank, 2 polarizations, n charges), and the
    envelope-free mode stack of its charges on ``grid``."""
    ip, io = _photon_axes(state.space)
    modes = mode_stack(state.space.axes[io].basis.ells, grid)
    kets = state.kets()
    if ip == 1:
        kets = np.swapaxes(kets, 1, 2)
    return kets, modes


def _stokes_strip(kets: np.ndarray, modes_rows: np.ndarray, out: np.ndarray) -> None:
    """Envelope-free (S0, S1, S2, S3) of a ket ensemble on one block of rows,
    into ``out`` (4, rows, nx); ``modes_rows`` holds the block's mode profiles.

    One ket's field at a time (a (rank, 2, rows, nx) field stack is slower):
    the first ket assigns its terms and later ones add theirs, in ensemble
    order.  That is the arithmetic of a sum begun at -0.0, since -0.0 + x == x
    for every x, signed zeros included.  An overflow leaves a non-finite
    cell, which the texture's checks report.
    """
    # np.tensordot(amp, modes_rows, axes=(1, 0)) reduces to this same dot;
    # calling it directly skips tensordot's axis bookkeeping per ket and block
    flat_modes = modes_rows.reshape(len(modes_rows), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, amp in enumerate(kets):
            u, v = np.dot(amp, flat_modes).reshape((2,) + modes_rows.shape[1:])
            pu, pv = np.abs(u) ** 2, np.abs(v) ** 2
            cross = 2.0 * np.conj(u) * v
            if k == 0:
                np.add(pu, pv, out=out[0])
                out[1] = cross.real
                out[2] = cross.imag
                np.subtract(pu, pv, out=out[3])
            else:
                out[0] += pu + pv
                out[1] += cross.real
                out[2] += cross.imag
                out[3] += pu - pv


def stokes_of_photon_state(state: State, grid: GridSpec) -> StokesField:
    """Stokes maps of a single-photon polarization x OAM state (pure or mixed),
    summed over the state's ket ensemble."""
    kets, modes = _kets_and_modes(state, grid)
    free = np.empty((4,) + grid.shape)
    for r0, r1 in row_strips(grid.ny):
        _stokes_strip(kets, modes[:, r0:r1], free[:, r0:r1])
    return StokesField(grid, free, _intensity_envelope(grid))


def conditional_stokes(
    state: State, angles: ProjectionAngles, grid: GridSpec
) -> StokesField:
    """Stokes maps of photon B conditioned on heralding photon A at ``angles``."""
    conditional, _ = herald_polarization(state, angles)
    return stokes_of_photon_state(conditional, grid)


def _divide_rows(free: np.ndarray, envelope: np.ndarray, s: np.ndarray) -> bool:
    """s = (S1, S2, S3)/S0 of a block of rows of envelope-free maps ``free``
    (4, rows, nx), into ``s`` (3, rows, nx); whether some cell of the block
    carries physical intensity.  Raises :class:`InsufficientCoverageError`
    when the block overflows."""
    # S0 bounds |S1|, |S2| and |S3|: a finite S0 is a finite field
    if not math.isfinite(float(free[0].max())):
        raise InsufficientCoverageError("the Stokes field overflows on this window")
    with np.errstate(invalid="ignore"):
        np.divide(free[1:], free[0], out=s)
    return bool((free[0] * envelope > 0.0).any())


def _lit(grid: GridSpec, s: np.ndarray, lit: bool) -> UnitStokesField:
    """The texture ``s``; raises :class:`EmptyFieldError` unless ``lit``."""
    if not lit:
        raise EmptyFieldError("field carries no intensity")
    return UnitStokesField(grid, s)


def normalize_stokes(field: StokesField) -> UnitStokesField:
    """Reduce to s = (S1, S2, S3)/S0 on every cell.

    s is read off the envelope-free maps, so no cell of the window is dark.
    Where every ket's field vanishes (the centre cell of an odd grid, for a
    photon with no l = 0 amplitude) s has no direction and is left NaN, so a
    number over the field fails loudly.

    Raises :class:`EmptyFieldError` when the field carries no intensity, and
    :class:`InsufficientCoverageError` when the envelope-free maps overflow.
    """
    s = np.empty((3,) + field.grid.shape)
    return _lit(field.grid, s, _divide_rows(field.free, field.envelope, s))


def unit_texture(photon: State, grid: GridSpec) -> UnitStokesField:
    """``normalize_stokes(stokes_of_photon_state(photon, grid))``, bit for bit,
    without building the (4, ny, nx) Stokes maps.

    One pass over blocks of rows: each block's envelope-free maps are
    synthesized into one reused (4, ROW_STRIP, nx) buffer and divided into s
    while they are still in cache.  Raises what :func:`normalize_stokes`
    raises, in the same cases.
    """
    kets, modes = _kets_and_modes(photon, grid)
    envelope = _intensity_envelope(grid)
    s = np.empty((3,) + grid.shape)
    strip = np.empty((4, ROW_STRIP, grid.nx))
    lit = False
    for r0, r1 in row_strips(grid.ny):
        rows = strip[:, : r1 - r0]
        _stokes_strip(kets, modes[:, r0:r1], rows)
        lit |= _divide_rows(rows, envelope[r0:r1], s[:, r0:r1])
    return _lit(grid, s, lit)


def orientation_psi(field) -> np.ndarray:
    """In-plane orientation angle psi = arctan2(s2, s1) / 2 in (-pi/2, pi/2]."""
    return 0.5 * np.arctan2(field.s2, field.s1)
