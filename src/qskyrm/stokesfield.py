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
maps are synthesized one ket and one block of grid rows
(:func:`~qskyrm.modes.row_strips`) at a time, so the complex fields stay
cache-sized; each cell sees the same arithmetic, in the same ket order, as a
whole-grid synthesis.

Every mode shares the Gaussian exp(-r^2/w^2), so the synthesis runs on the
envelope-free profiles (:func:`~qskyrm.modes.mode_stack`) and a
:class:`StokesField` carries the common intensity factor exp(-2 r^2/w^2)
beside them; its physical maps are the product.  The texture
``s = (S1, S2, S3)/S0`` (:func:`normalize_stokes`) does not depend on the
factor, and off the envelope no cell of the window underflows, so s is
defined on every cell where some ket's field is nonzero: unit length for a
pure photon, |s| <= 1 for a mixed one.  An intensity floor on the physical
S0 only marks which cells a detector would resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFieldError, InsufficientCoverageError, UnsupportedStateError
from .hilbert import ProjectionAngles, State, herald_polarization
from .modes import GridSpec, _intensity_envelope, mode_stack, row_strips

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
    field vanishes.  ``mask`` marks the cells whose physical intensity ``s0``
    cleared the floor.
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
        for name, arr in (("s", s), ("mask", mask), ("s0", s0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    s1, s2, s3 = (property(lambda self, k=k: self.s[k]) for k in range(3))


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
    # and that over row strips, so the (2, rows, nx) field stays cache-sized.
    # An overflow leaves a non-finite cell, which normalize_stokes reports.
    free = np.full((4,) + grid.shape, -0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for amp in kets:
            for r0, r1 in row_strips(grid.ny):
                u, v = np.tensordot(amp, modes[:, r0:r1], axes=(1, 0))  # (2, rows, nx)
                pu, pv = np.abs(u) ** 2, np.abs(v) ** 2
                cross = 2.0 * np.conj(u) * v
                out = free[:, r0:r1]
                out[0] += pu + pv
                out[1] += cross.real
                out[2] += cross.imag
                out[3] += pu - pv
    return StokesField(grid, free, _intensity_envelope(grid))


def conditional_stokes(
    state: State, angles: ProjectionAngles, grid: GridSpec
) -> StokesField:
    """Stokes maps of photon B conditioned on heralding photon A at ``angles``."""
    conditional, _ = herald_polarization(state, angles)
    return stokes_of_photon_state(conditional, grid)


def normalize_stokes(
    field: StokesField, intensity_floor: float = DEFAULT_INTENSITY_FLOOR
) -> UnitStokesField:
    """Reduce to s = (S1, S2, S3)/S0 on every cell.

    s is read off the envelope-free maps, so no cell of the window is dark.
    Where every ket's field vanishes (the centre cell of an odd grid, for a
    photon with no l = 0 amplitude) s has no direction and is left NaN, so a
    number over the field fails loudly.  ``intensity_floor`` is relative and
    changes no s: ``mask`` marks the cells whose physical S0 reaches
    ``intensity_floor * max(S0)``.

    Raises :class:`EmptyFieldError` when the field carries no intensity, and
    :class:`InsufficientCoverageError` when the envelope-free maps overflow.
    """
    if not 0.0 < intensity_floor <= 1.0:
        raise ValueError(f"intensity_floor must lie in (0, 1], got {intensity_floor}")
    free = field.free
    # S0 bounds |S1|, |S2| and |S3|: a finite S0 is a finite field
    if not math.isfinite(float(free[0].max())):
        raise InsufficientCoverageError("the Stokes field overflows on this window")
    s0 = field.s0
    peak = float(s0.max())
    if not peak > 0.0:
        raise EmptyFieldError("field carries no intensity")
    with np.errstate(invalid="ignore"):
        s = free[1:] / free[0]
    return UnitStokesField(field.grid, s, s0 >= intensity_floor * peak, s0, intensity_floor)


def orientation_psi(field) -> np.ndarray:
    """In-plane orientation angle psi = arctan2(s2, s1) / 2 in (-pi/2, pi/2]."""
    return 0.5 * np.arctan2(field.s2, field.s1)
