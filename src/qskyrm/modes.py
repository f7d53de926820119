"""Laguerre-Gaussian vortex modes sampled on Cartesian grids.

Only the single-ring (zero radial index) family is needed: every transverse
profile in this toolkit is a superposition of such modes with one common
waist.  In polar coordinates the unit-power profile of charge l is::

    LG_l(r, phi) = sqrt(2 / (pi |l|!)) * (1/w) * (sqrt(2) r / w)^|l|
                   * exp(-r^2 / w^2) * exp(i l phi)

normalized so the continuum integral of |LG_l|^2 over the plane is 1.  On a
grid that resolves the ring (half extent comfortably beyond the peak radius
``w sqrt(|l|/2)``) the quadrature sum ``sum |LG|^2 dA`` reproduces that to
high accuracy, which the tests pin down.

The Gaussian exp(-r^2/w^2) is common to every mode, so it cancels from any
ratio of their superpositions (a polarization texture S/S0, say).  The cached
profiles of :func:`mode_stack` leave it out: N_l/w (sqrt(2) r/w)^|l|
exp(i l phi), with N_l = sqrt(2/(pi |l|!)), which stays representable out
to the window's edge where the full mode underflows.  :func:`lg_mode` puts
the Gaussian back; intensities take its square, exp(-2 r^2/w^2), per grid.

Grids are cell centered: for ``nx`` columns over ``[-half_extent,
half_extent]`` the sample abscissae are ``(i + 0.5 - nx/2) * dx``.  With even
``nx`` no sample sits exactly on the vortex core.  A :func:`mode_stack` is
cached per (charges, grid), and the cached stacks are the only stored
copies of their profiles: a new stack copies a charge that a cached stack
on its grid already holds and computes the others.  :func:`lg_mode` caches
single profiles of its own.  Cached arrays are read-only; copy before
mutating.  Stack builds run one at a time under a module lock, and threads
that miss the cache for one stack together all get the first one's build, so
any thread may call :func:`mode_stack`.

Per-frame passes over a grid (Stokes synthesis, skyrmion density) walk it in
blocks of :data:`ROW_STRIP` rows from :func:`row_strips`, so their
temporaries stay cache-sized on large grids.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["GridSpec", "lg_mode", "mode_stack", "grid_axes", "polar_coords", "row_strips"]

_MAX_CHARGE = 256

# rows per block of a per-frame pass; at 512 columns a (4, 32, 512) float
# buffer is 512 KiB
ROW_STRIP = 32


@dataclass(frozen=True)
class GridSpec:
    """Square-cell sampling window: nx x ny cells spanning +-half_extent."""

    nx: int = 512
    ny: int = 512
    half_extent: float = 4.0
    waist: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs at least 4 cells per side, got {self.nx}x{self.ny}")
        if not self.half_extent > 0.0:
            raise ValueError(f"half_extent must be positive, got {self.half_extent}")
        if not self.waist > 0.0:
            raise ValueError(f"waist must be positive, got {self.waist}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.nx

    @property
    def dy(self) -> float:
        return 2.0 * self.half_extent / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)


def row_strips(ny: int) -> list[tuple[int, int]]:
    """``(r0, r1)`` bounds of the consecutive blocks of at most
    :data:`ROW_STRIP` rows that cover ``ny`` rows."""
    return [(r0, min(r0 + ROW_STRIP, ny)) for r0 in range(0, ny, ROW_STRIP)]


@lru_cache(maxsize=64)
def grid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates ``(x (nx,), y (ny,))``, read-only."""
    x = (np.arange(grid.nx) + 0.5 - grid.nx / 2.0) * grid.dx
    y = (np.arange(grid.ny) + 0.5 - grid.ny / 2.0) * grid.dy
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@lru_cache(maxsize=64)
def _meshgrid(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinate arrays ``(xx, yy)`` of shape (ny, nx), read-only."""
    xx, yy = np.meshgrid(*grid_axes(grid))
    xx.setflags(write=False)
    yy.setflags(write=False)
    return xx, yy


@lru_cache(maxsize=64)
def polar_coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Radius and azimuth arrays of shape (ny, nx), read-only."""
    xx, yy = _meshgrid(grid)
    r = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    r.setflags(write=False)
    phi.setflags(write=False)
    return r, phi


def _log_norm(m: int) -> float:
    """log sqrt(2 / (pi m!)), the waist-free normalization of a charge-``m`` mode."""
    return 0.5 * (math.log(2.0) - math.log(math.pi) - math.lgamma(m + 1))


def _envelope_free(ell: int, grid: GridSpec, out: np.ndarray) -> np.ndarray:
    """Envelope-free profile of charge ``ell``, the mode over exp(-r^2/w^2),
    written into ``out`` (complex, shape (ny, nx))."""
    r, phi = polar_coords(grid)
    w = grid.waist
    m = abs(ell)
    core = r == 0.0  # the centre cell of an odd grid, else nowhere
    # amp = exp(log_pref + m log(sqrt(2) r / w)), with the logarithm 0 on the
    # core.  Worked in place, a profile allocates one real array and no
    # complex temporary: a cold build spends much of its time faulting in
    # fresh pages for its temporaries
    amp = math.sqrt(2.0) * r
    amp /= w
    amp[core] = 1.0
    np.log(amp, out=amp)
    amp *= m
    amp += _log_norm(m) - math.log(w)
    np.exp(amp, out=amp)
    if m > 0:
        amp[core] = 0.0  # core is dark for any vortex
    np.multiply(1j * ell, phi, out=out)
    np.exp(out, out=out)
    return np.multiply(amp, out, out=out)


@lru_cache(maxsize=256)
def _lg_mode_cached(ell: int, grid: GridSpec) -> np.ndarray:
    """One charge's envelope-free profile, for :func:`lg_mode`."""
    field = _envelope_free(ell, grid, np.empty(grid.shape, dtype=complex))
    field.setflags(write=False)
    return field


@lru_cache(maxsize=64)
def _intensity_envelope(grid: GridSpec) -> np.ndarray:
    """exp(-2 r^2 / w^2), the Gaussian intensity factor every mode shares,
    shape (ny, nx), read-only."""
    r, _ = polar_coords(grid)
    envelope = np.exp(-2.0 * (r / grid.waist) ** 2)
    envelope.setflags(write=False)
    return envelope


def _checked(ells: Sequence[int]) -> tuple[int, ...]:
    ells = tuple(int(l) for l in ells)
    for l in ells:
        if abs(l) > _MAX_CHARGE:
            raise ValueError(f"|ell| is capped at {_MAX_CHARGE}, got {l}")
    return ells


def lg_mode(ell: int, grid: GridSpec) -> np.ndarray:
    """Unit-power mode profile of charge ``ell`` on ``grid``, shape (ny, nx)."""
    (ell,) = _checked((ell,))
    r, _ = polar_coords(grid)
    return _lg_mode_cached(ell, grid) * np.exp(-((r / grid.waist) ** 2))


# (ells, grid) -> its cached stack, held weakly so that it goes with the
# cache entry; read and written under _stack_lock
_built_stacks: "weakref.WeakValueDictionary[tuple, np.ndarray]" = weakref.WeakValueDictionary()
_stack_lock = threading.Lock()


@lru_cache(maxsize=64)
def _mode_stack_cached(ells: tuple[int, ...], grid: GridSpec) -> np.ndarray:
    # each profile goes straight into its slot, copied from a cached stack on
    # the same grid that holds it or else computed: the stacks are the
    # profiles' only stored copies, and a charge is computed once per grid
    with _stack_lock:
        built = _built_stacks.get((ells, grid))
        if built is not None:  # built by a thread that missed the cache first
            return built
        stack = np.empty((len(ells),) + grid.shape, dtype=complex)
        for k, l in enumerate(ells):
            for (others, on), other in _built_stacks.items():
                if on == grid and l in others:
                    stack[k] = other[others.index(l)]
                    break
            else:
                _envelope_free(l, grid, stack[k])
        stack.setflags(write=False)
        _built_stacks[ells, grid] = stack
    return stack


def mode_stack(ells: Sequence[int], grid: GridSpec) -> np.ndarray:
    """Stack of envelope-free mode profiles, shape (len(ells), ny, nx),
    read-only: each is its :func:`lg_mode` over exp(-r^2/w^2)."""
    return _mode_stack_cached(_checked(ells), grid)
