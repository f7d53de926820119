"""Topological analysis of polarization textures.

The reduced Stokes vector of a paraxial field tiles a patch of the
polarization sphere; how many times the plane wraps that sphere is counted by

    n = (1/4pi) integral  s . (ds/dx x ds/dy)  dx dy

evaluated here as a Riemann sum with central differences.  The integrand
(including the 1/4pi) is the skyrmion density ``sigma``, computed over
blocks of grid rows so its temporaries stay cache-sized; the blocks give
bit-for-bit the whole-grid sum (see :func:`skyrmion_density`).

Every frame of a heralded photon, wherever it is used, comes from one
function, :func:`photon_frame`: the unit texture s = S/S0 on every cell,
synthesized block by block of rows from the photon's kets without building
its Stokes maps (:func:`~qskyrm.stokesfield.unit_texture`), then skyrmion
density.  On top of it this module sweeps heralding angles over the
projection sphere (rendering each distinct heralded photon once), decomposes
a multi-core texture into quasiparticle regions, and follows those regions
through a parameter sweep to extract their orbital and internal-rotation
(spin) dynamics.  The frames of one dynamics sweep render concurrently, on a
thread pool of that call, and reach its ``on_frame`` callback in sample
order (see :func:`track_dynamics`).

A pure photon needs no grid for its number.  Each circular component is the
common Gaussian exp(-r^2/w^2)/w times sum_l c_l N_l tau^|l|, with
N_l = sqrt(2/(pi |l|!)) and tau = t = sqrt(2) z / w for l >= 0 or conj(t)
for l < 0 (:func:`_mode_polynomials`).  The texture is the map
W = v/u = (s1 + i s2)/(1 + s3) onto the sphere, and n is its degree: the
zeros of the component D that dominates at large r (the larger max |l|),
counted with multiplicity, less those it shares with the other component O
at the origin, with the sign of D's charges (a polynomial in conj(t) wraps
the sphere negatively; Houghton, Manton & Sutcliffe, Nucl. Phys. B 510, 507
(1998)).  :func:`exact_skyrmion_number` computes it for the ideal,
unapertured texture, and reports how far out the cores sit and how small the
smallest one is, so a reader can tell what a finite window or grid resolves.
:func:`sphere_sweep` heralds every sample of a sweep in one contraction (one
decomposition of the state for the whole sweep) and solves every distinct
pure photon at once, from the stacked kets, one stack per charge pattern (the
charges each component keeps; a recipe has three: the two poles and the
bulk).  The ternary's bulk u mixes charge signs: a degree-1 analytic part
against a degree-5 antianalytic one, whose zeros are roots of one
degree-25 polynomial per photon (:func:`_harmonic_zeros`).  That solve,
about 0.34 ms a photon on one core and most of it the companion
eigenvalues, is the cost that remains.

Quasiparticle decomposition works on preimages of the polar cap rather than
on lumps of |sigma|: each core pins the unit vector to the north pole
(s3 = +1), so the connected components of {s3 > 1/2} isolate the cores even
when the density itself shows no separating valley between them (measured on
the two-core equator texture, |sigma| rises monotonically from each core out
to a single ridge, so no watershed of |sigma| can split it to match the
known -1/-1/-2 charge decomposition).  Region identity comes from the
components of a lightly smoothed cap map (stabilizing the level set against
pixel noise); the kernel width is fixed in physical units (waist/16, never
below one cell) so the identified cores do not depend on resolution.  Each
region's extent is then the raw preimage: every raw cap cell joins the
nearest component, so the charge integral covers the full cap coverage even
on coarse grids.  A region wrapping the sphere k times covers
the cap k times as well, and the cap above level c subtends a solid angle
2 pi (1 - c); the region charge is therefore

    m_j = 2/(1 - c) * integral_region sigma,

exact for any regular level c, evaluated at c = 1/2.  The central charge is
reported as the total minus the satellite charges, so the report is additive
by construction and far-field tails land in the central structure they
belong to.

Spin angle convention: around a quasiparticle core the doubled in-plane
orientation ``2 psi`` winds by ``m_loc`` times the local azimuth ``beta``
(``m_loc = -1`` for the hyperbolic cores produced here), so its plain
region mean carries no information: the resultant of ``exp(2i psi)`` over a
full ring vanishes.  The meaningful internal phase is the winding-compensated
residual ``chi = arg sum w exp(i (2 psi - m_loc beta))``, the orientation of
the texture in a frame riding on the core.  That is what ``track_dynamics``
reports and unwraps.  It links each sample's satellites to the tracks the
previous sample continued or started through one assignment per sample; a
side left empty starts or ends tracks by itself, so the first sample, an
empty sample and a restart after every track has ended take the same path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.linalg import eigvals
from scipy.ndimage import distance_transform_edt, gaussian_filter
from scipy.ndimage import label as _connected_label
from scipy.optimize import linear_sum_assignment

from .errors import (
    EmptyFieldError,
    InsufficientCoverageError,
    UnsupportedStateError,
    ZeroProbabilityError,
)
from .hilbert import _PROB_FLOOR, ProjectionAngles, Space, State, _condition, _herald_kets, herald_polarization
from .modes import (
    ROW_STRIP,
    GridSpec,
    _log_norm,
    _meshgrid,
    row_strips,
)
from .stokesfield import UnitStokesField, _photon_axes, orientation_psi, unit_texture

__all__ = [
    "SkyrmionDensityField",
    "SphereMap",
    "QuasiparticleRegion",
    "QuasiparticleReport",
    "DynamicsTrace",
    "photon_frame",
    "skyrmion_density",
    "skyrmion_number",
    "exact_skyrmion_number",
    "sphere_sweep",
    "locate_quasiparticles",
    "track_dynamics",
    "DEFAULT_THETA_SAMPLES",
    "DEFAULT_ALPHA_SAMPLES",
]

DEFAULT_THETA_SAMPLES = tuple(np.linspace(0.0, math.pi, 9))
DEFAULT_ALPHA_SAMPLES = tuple(np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))

_MIN_FINITE_FRACTION = 0.95
_SMOOTH_WAIST = 0.0625  # segmentation kernel width as a fraction of the waist
_CAP_LEVEL = 0.5  # s3 level whose preimage islands define the regions
_MIN_REGION_CHARGE = 0.5  # |m_j| below this is a sliver, not a quasiparticle
_COEFF_FLOOR = 1e-12  # amplitudes below this fraction of the largest are noise
_ROOT_TOL = 1e-9  # |f(t)| below this fraction of its terms' magnitudes is a zero
_MAX_FRAME_WORKERS = 2  # threads rendering one sweep's frames, at most (larger pools are unmeasured)


@dataclass(frozen=True)
class SkyrmionDensityField:
    """Pointwise topological density sigma (1/area units, 1/4pi included).

    ``spin`` carries the unit vector field the density came from; the
    segmentation needs it to find core regions (see module docstring).
    """

    grid: GridSpec
    sigma: np.ndarray
    spin: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sigma, dtype=float)
        if arr.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {arr.shape}")
        s = np.asarray(self.spin, dtype=float)
        if s.shape != (3,) + self.grid.shape:
            raise ValueError(f"spin must have shape {(3,) + self.grid.shape}")
        for name, a in (("sigma", arr), ("spin", s)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class SphereMap:
    """Skyrmion number over a grid of heralding angles.

    ``n_values[i, j]`` belongs to ``(theta_samples[i], alpha_samples[j])``;
    entries whose heralding or texture collapsed are NaN with ``valid`` False.
    ``method`` says how each number was obtained: ``"exact"`` from the mode
    coefficients (:func:`exact_skyrmion_number`), ``"grid"`` from a rendered
    frame, None where heralding failed.  ``outer_radius`` and ``core_scale``
    (waists) are those of the exact samples, NaN elsewhere; ``core_scale`` is
    inf on an exact sample with no core.
    """

    theta_samples: tuple[float, ...]
    alpha_samples: tuple[float, ...]
    n_values: np.ndarray
    valid: np.ndarray
    method: np.ndarray
    outer_radius: np.ndarray
    core_scale: np.ndarray

    def __post_init__(self):
        shape = (len(self.theta_samples), len(self.alpha_samples))
        for name, dtype in (("n_values", float), ("valid", bool), ("method", object),
                            ("outer_radius", float), ("core_scale", float)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"map arrays must have shape {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "theta_samples", tuple(float(t) for t in self.theta_samples))
        object.__setattr__(self, "alpha_samples", tuple(float(a) for a in self.alpha_samples))


@dataclass(frozen=True)
class QuasiparticleRegion:
    """One satellite core region (a component of the polar-cap preimage, see
    the module docstring): label, centroid (x, y), charge, area."""

    label: int
    centroid: tuple[float, float]
    charge: float
    area: float

    @property
    def radius(self) -> float:
        return math.hypot(*self.centroid)

    @property
    def azimuth(self) -> float:
        return math.atan2(self.centroid[1], self.centroid[0])


@dataclass(frozen=True)
class QuasiparticleReport:
    """Decomposition of a texture into a central structure plus satellites.

    ``regions`` lists the satellite quasiparticles (non-central core regions
    carrying at least half a unit of charge) and ``count`` their number.
    ``central_charge = total - sum(region charges)``, so additivity holds by
    construction.  ``labels`` is the per-cell core-region map (0 between
    regions).  ``crop`` is the block of the grid the segmentation ran on
    (None when no cell reaches the cap): every labelled cell lies inside it.
    """

    count: int
    regions: tuple[QuasiparticleRegion, ...]
    central_charge: float
    total: float
    labels: np.ndarray
    crop: tuple[slice, slice] | None = None

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=int)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)


@dataclass(frozen=True)
class DynamicsTrace:
    """Quasiparticle kinematics across a one-parameter heralding sweep.

    Arrays are (n_samples, n_tracks); entries are NaN while a track is absent
    (not yet resolved, or merged away).  ``orbit_angles`` holds unwrapped
    centroid azimuths and ``spin_angles`` unwrapped co-moving texture phases,
    both in radians; ``radii`` the centroid distances from the beam axis.
    """

    sweep_param: str
    param_values: tuple[float, ...]
    radii: np.ndarray
    orbit_angles: np.ndarray
    spin_angles: np.ndarray
    counts: tuple[int, ...]
    ambiguous: tuple[bool, ...]

    @property
    def n_tracks(self) -> int:
        return self.radii.shape[1]

    def _net(self, arr: np.ndarray) -> np.ndarray:
        out = np.full(arr.shape[1], np.nan)
        for k in range(arr.shape[1]):
            col = arr[:, k]
            good = np.flatnonzero(np.isfinite(col))
            if good.size >= 2:
                out[k] = col[good[-1]] - col[good[0]]
        return out

    def net_orbit(self) -> np.ndarray:
        """Per-track azimuth advance from first to last resolved sample."""
        return self._net(self.orbit_angles)

    def net_spin(self) -> np.ndarray:
        """Per-track spin-phase advance from first to last resolved sample."""
        return self._net(self.spin_angles)


# ---------------------------------------------------------------------------
# density and total number
# ---------------------------------------------------------------------------


def _difference(hi: np.ndarray, lo: np.ndarray, step: float, out: np.ndarray) -> None:
    """``(hi - lo) / step`` into ``out``, rounded as ``np.gradient`` rounds it."""
    np.subtract(hi, lo, out=out)
    out /= step


def skyrmion_density(field: UnitStokesField) -> SkyrmionDensityField:
    """Pointwise wrapping density of a unit Stokes field.

    The field must be defined (finite) on at least 95% of the grid; fields
    from :func:`~qskyrm.stokesfield.unit_texture` or
    :func:`~qskyrm.stokesfield.normalize_stokes` are defined on every cell
    where the field does not vanish.

    The grid is evaluated in blocks of rows (:func:`~qskyrm.modes.row_strips`)
    with one halo row on each side for the y derivative, so the temporaries
    stay cache-sized; the derivatives go into strip buffers allocated once
    per call.  Every cell gets ``np.gradient``'s central differences, the same
    ``np.cross`` terms and the same ``einsum`` contraction as a whole-grid
    evaluation, so ``sigma`` is bit-identical to it.
    """
    s = field.s
    # a finite sum needs every entry finite; count only when it is not (a
    # sum of finite entries can still overflow)
    with np.errstate(over="ignore"):
        total = float(s.sum())
    if not math.isfinite(total):
        fraction = float(np.isfinite(s).all(axis=0).mean())
        if fraction < _MIN_FINITE_FRACTION:
            raise InsufficientCoverageError(
                f"unit vector defined on {fraction:.1%} of the grid, need "
                f"{_MIN_FINITE_FRACTION:.0%}"
            )
    grid = field.grid
    dx, dy = grid.dx, grid.dy
    ny, nx = grid.shape
    # each component's rows end to end, for the x differences below
    flat = np.ascontiguousarray(s).reshape(3, ny * nx)
    sigma = np.empty((ny, nx))
    grad_x = np.empty((3, ROW_STRIP * nx))
    grad_y = np.empty((3, ROW_STRIP, nx))
    cross = np.empty((3, ROW_STRIP, nx))
    tmp = np.empty((ROW_STRIP, nx))
    for r0, r1 in row_strips(ny):
        rows = r1 - r0
        strip = s[:, r0:r1]
        flat_x = grad_x[:, : rows * nx]
        sx, sy = flat_x.reshape(3, rows, nx), grad_y[:, :rows]
        # np.gradient(s, dx, axis=2) on the strip, term for term: central
        # differences over 2 dx inside, one-sided over dx at the two edges.
        # The central ones run in one contiguous pass along the strip's rows
        # laid end to end; the pairs that straddle two rows land on edge
        # cells, which the one-sided differences then overwrite
        f = flat[:, r0 * nx : r1 * nx]
        _difference(f[:, 2:], f[:, :-2], 2.0 * dx, flat_x[:, 1:-1])
        _difference(strip[..., 1], strip[..., 0], dx, sx[..., 0])
        _difference(strip[..., -1], strip[..., -2], dx, sx[..., -1])
        # np.gradient(s, dy, axis=1) on the strip's rows: central inside the
        # grid (reading the rows either side of the strip), one-sided on the
        # grid's first and last row
        a, b = max(r0, 1), min(r1, ny - 1)
        _difference(s[:, a + 1 : b + 1], s[:, a - 1 : b - 1], 2.0 * dy, sy[:, a - r0 : b - r0])
        if r0 == 0:
            _difference(s[:, 1], s[:, 0], dy, sy[:, 0])
        if r1 == ny:
            _difference(s[:, -1], s[:, -2], dy, sy[:, -1])
        c, t = cross[:, :rows], tmp[:rows]
        # np.cross(sx, sy, axis=0), term for term
        np.multiply(sx[1], sy[2], out=c[0])
        c[0] -= np.multiply(sx[2], sy[1], out=t)
        np.multiply(sx[2], sy[0], out=c[1])
        c[1] -= np.multiply(sx[0], sy[2], out=t)
        np.multiply(sx[0], sy[1], out=c[2])
        c[2] -= np.multiply(sx[1], sy[0], out=t)
        np.einsum("iyx,iyx->yx", strip, c, out=sigma[r0:r1])
    sigma /= 4.0 * math.pi
    return SkyrmionDensityField(grid, sigma, s)


def skyrmion_number(density: SkyrmionDensityField) -> float:
    """Riemann-sum integral of the density; the caller rounds if desired.

    Raises :class:`InsufficientCoverageError` when any density cell is not
    finite, rather than returning ``nan``.
    """
    total = float(density.sigma.sum())
    if not math.isfinite(total):
        fraction = float(np.isfinite(density.sigma).mean())
        raise InsufficientCoverageError(
            f"skyrmion density finite on {fraction:.1%} of the grid; the "
            f"integral needs every cell"
        )
    return total * density.grid.cell_area


def photon_frame(photon: State, grid: GridSpec) -> tuple[UnitStokesField, SkyrmionDensityField]:
    """Unit Stokes field and skyrmion density of a single-photon state: the
    unit texture straight from the kets, then the density."""
    unit = unit_texture(photon, grid)
    return unit, skyrmion_density(unit)


# ---------------------------------------------------------------------------
# exact number of a pure photon
# ---------------------------------------------------------------------------


class _Component(NamedTuple):
    """One circular component of a stack of pure photons with one charge
    pattern, over the common Gaussian: member i is sum_l coeffs[i, l] tau^|l|
    (tau = t for l >= 0, conj(t) for l < 0, t = sqrt(2) z / w) over the
    charges ``ells`` that clear the noise floor, each coefficient an amplitude
    times N_l.  Evaluations take ``t`` shaped (members, points)."""

    ells: np.ndarray
    coeffs: np.ndarray

    @property
    def sign(self) -> int | None:
        """+1 or -1 when every nonzero charge has that sign, 0 when the only
        charge is 0 (or none is left), None when the charges mix signs."""
        pos, neg = bool((self.ells > 0).any()), bool((self.ells < 0).any())
        if pos and neg:
            return None
        return 1 if pos else -1 if neg else 0

    def _powers(self, t, drop: int = 0) -> np.ndarray:
        t = np.asarray(t, dtype=complex)[..., None]
        return np.where(self.ells >= 0, t, np.conj(t)) ** np.maximum(np.abs(self.ells) - drop, 0)

    def at(self, t) -> np.ndarray:
        return (self._powers(t) @ self.coeffs[..., None])[..., 0]

    def magnitude(self, t) -> np.ndarray:
        """Sum of the terms' magnitudes at t: the scale of cancellation tests."""
        return (np.abs(self._powers(t)) @ np.abs(self.coeffs)[..., None])[..., 0]

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        """d/dt and d/dconj(t) at t."""
        terms = self._powers(t, drop=1) * (np.abs(self.ells) * self.coeffs)[..., None, :]
        return terms @ (self.ells > 0), terms @ (self.ells < 0)

    def slope(self, t) -> np.ndarray:
        """|d/dt| + |d/dconj(t)|: the fastest rate of change at t."""
        dt, dc = self.derivatives(t)
        return np.abs(dt) + np.abs(dc)


def _mode_polynomials(kets: np.ndarray, ells: Sequence[int]) -> Iterator[tuple[np.ndarray, _Component, _Component]]:
    """The u (R, polarization row 0) and v (L) components of a stack of pure
    photons ``kets`` (members, 2 polarizations, charges ``ells``; module
    docstring), one ``(members, u, v)`` stack per charge pattern: the charges
    each component keeps once amplitudes below ``_COEFF_FLOOR`` of the
    photon's largest (the theta = pi herald leaves ~1e-17) are dropped as
    noise."""
    ells = np.array(ells)
    norms = np.exp([_log_norm(abs(int(l))) for l in ells])
    keep = np.abs(kets) > _COEFF_FLOOR * np.abs(kets).max(axis=(1, 2), keepdims=True)
    patterns, which = np.unique(keep, axis=0, return_inverse=True)
    for k, pattern in enumerate(patterns):
        members = np.flatnonzero(which == k)
        u, v = (_Component(ells[kept], kets[members, row][:, kept] * norms[kept])
                for row, kept in enumerate(pattern))
        yield members, u, v


def _photon_kets(space: Space, data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pure photons' data rows over ``space`` as the exact solver's
    ``(members, 2 polarizations, charges)`` stack, and the charges."""
    ip, io = _photon_axes(space)
    kets = data.reshape((len(data),) + space.dims)
    return (kets if ip == 0 else kets.swapaxes(1, 2)), space.axes[io].basis.ells


def _companion_roots(desc: np.ndarray) -> np.ndarray:
    """Roots of each polynomial of the stack ``desc`` (members, degree + 1;
    coefficients highest power first, the first nonzero), with multiplicity:
    the companion matrices ``np.roots`` builds, solved in one stacked
    ``eigvals``.  A member whose companion is not finite (its coefficients
    overflowed) gets NaN roots in place of the solve."""
    companion = np.repeat(np.eye(desc.shape[1] - 1, k=-1, dtype=complex)[None], len(desc), axis=0)
    with np.errstate(all="ignore"):
        companion[:, :1] = (-desc[:, 1:] / desc[:, :1])[:, None]
    bad = ~np.isfinite(companion).all(axis=(1, 2))
    companion[bad] = 0.0
    roots = np.linalg.eigvals(companion)
    roots[bad] = np.nan
    return roots


def _nonzero_roots(c: _Component) -> np.ndarray:
    """Nonzero zeros (in t) of each member of a single-signed component,
    with multiplicity, shaped (members, degree span)."""
    powers = np.abs(c.ells)
    top, span = int(powers.max()), int(powers.max() - powers.min())
    desc = np.zeros((len(c.coeffs), span + 1), dtype=complex)
    desc[:, top - powers] = c.coeffs
    tau = _companion_roots(desc)
    return np.conj(tau) if c.sign == -1 else tau


def _harmonic_parts(c: _Component) -> tuple[np.ndarray, np.ndarray]:
    """A mixed-sign component as P(t) + Q(conj t): the coefficients of P
    (members, deg P + 1; the charge-0 term) and of Q (members, deg Q + 1; a
    zero constant), lowest power first."""
    count, pos = len(c.coeffs), c.ells >= 0
    p, q = (np.zeros((count, int(abs(top)) + 1), dtype=complex) for top in (c.ells.max(), c.ells.min()))
    p[:, c.ells[pos]], q[:, -c.ells[~pos]] = c.coeffs[:, pos], c.coeffs[:, ~pos]
    return p, q


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Member-wise product of two stacks of polynomials, lowest power first."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=complex)
    for k in range(b.shape[1]):
        out[:, k : k + a.shape[1]] += a * b[:, k, None]
    return out


def _substituted_candidates(c: _Component) -> np.ndarray:
    """Candidate zeros of a mixed-sign component p0 + p1 t + Q(conj t) whose
    analytic part has degree 1, shaped (members, m^2) for Q of degree m.

    A zero also solves the conjugate equation, which gives
    conj(t) = R(t) = -(conj(p0) + Q*(t)) / conj(p1) (Q* with conjugated
    coefficients); put back, F(t) = p0 + p1 t + Q(R(t)), of degree m^2, has
    every zero among its roots (companion matrices, one stacked ``eigvals``).
    """
    p, q = _harmonic_parts(c)
    r = -np.conj(q)
    r[:, 0] = -np.conj(p[:, 0])
    r /= np.conj(p[:, 1, None])
    # Q(R) by Horner's rule; Q has no constant term
    f = q[:, -1:]
    for k in range(q.shape[1] - 2, -1, -1):
        f = _product(f, r)
        f[:, 0] += q[:, k]
    f[:, :2] += p
    return _companion_roots(f[:, ::-1])


def _pencil_candidates(c: _Component) -> np.ndarray:
    """Candidate zeros of a mixed-sign component P(t) + Q(conj t) of any
    degrees, shaped (members, max(n, m) (n + m)) for P of degree n and Q of
    degree m.

    With s standing for conj(t), a zero is a common root in s of
    F = Q(s) + P(t) and of its conjugate G = P*(s) + Q*(t) (coefficients
    conjugated).  Their Sylvester matrix in s is a matrix polynomial in t
    whose determinant vanishes at every zero; its eigenvalues come from the
    companion linearization, one stacked generalized ``eigvals``.  When the
    parts' degrees differ, the rows of the lower one vanish from the leading
    block, so min(n, m) candidates or more are infinite (returned as NaN).
    """
    p, q = _harmonic_parts(c)
    count, n, m = len(p), p.shape[1] - 1, q.shape[1] - 1
    size, deg = n + m, max(n, m)
    # sylvester[:, k] multiplies t^k: n rows of F (degree m in s), m rows of G
    sylvester = np.zeros((count, deg + 1, size, size), dtype=complex)
    for r in range(n):
        sylvester[:, 0, r, r : r + m] = q[:, :0:-1]
        sylvester[:, : n + 1, r, r + m] = p
    for r in range(m):
        sylvester[:, 0, n + r, r : r + n + 1] = np.conj(p[:, ::-1])
        sylvester[:, 1 : m + 1, n + r, r + n] = np.conj(q[:, 1:])
    a, b = (np.repeat(np.eye(deg * size, k=k, dtype=complex)[None], count, axis=0) for k in (size, 0))
    # the last block row of a holds the blocks of t^0 .. t^(deg - 1)
    a[:, -size:] = -sylvester[:, :deg].transpose(0, 2, 1, 3).reshape(count, size, deg * size)
    b[:, -size:, -size:] = sylvester[:, deg]
    with np.errstate(all="ignore"):
        t = eigvals(a, b, check_finite=False)
    t[~np.isfinite(t)] = np.nan
    return t


def _harmonic_zeros(c: _Component) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero zeros of each member of a mixed-sign component P(t) + Q(conj t),
    shaped (members, candidates), NaN for a candidate that is none, and
    whether each member's zeros fall short of its windings
    (:func:`_short_of_winding`): some zero was lost.

    The candidates come from the degree-m^2 substitution polynomial when P
    has degree 1 (:func:`_substituted_candidates`), from the same in
    s = conj(t) with the parts' roles swapped when Q has degree 1, and from
    the Sylvester pencil (:func:`_pencil_candidates`) when both parts have
    degree 2 or more; :func:`_polished_zeros` keeps the zeros.  The
    substitution polynomial's roots cluster, and lose their accuracy, where
    the degree-1 part is small against the other (1e-5 of it, say); its
    members that fall short are solved again through the pencil.
    """
    if c.ells.max() == 1:
        t = _polished_zeros(c, _substituted_candidates(c))
    elif c.ells.min() == -1:
        t = _polished_zeros(c, np.conj(_substituted_candidates(_Component(-c.ells, c.coeffs))))
    else:
        t = _polished_zeros(c, _pencil_candidates(c))
        return t, _short_of_winding(c, t)
    short = _short_of_winding(c, t)
    if short.any():
        again = _Component(c.ells, c.coeffs[short])
        redo = _polished_zeros(again, _pencil_candidates(again))
        t = np.pad(t, ((0, 0), (0, redo.shape[1] - t.shape[1])), constant_values=np.nan)
        t[short] = redo
        short[short] = _short_of_winding(again, redo)
    return t, short


def _short_of_winding(c: _Component, t: np.ndarray) -> np.ndarray:
    """Whether each member's zeros ``t`` (NaN padded) fail to account for its
    windings.  Each simple zero has index +1 (|d/dt| > |d/dconj(t)| there)
    or -1, and the nonzero zeros' indices sum to the winding on a large
    circle (+n when the analytic part's t^n leads, -m when the antianalytic
    part's conj(t)^m does) less the index at the origin (0 when the charge-0
    term is there; else +a or -b for the lower of the parts' lowest powers
    t^a, conj(t)^b).  A lost zero breaks the sum, unless a pair of opposite
    index is lost; a degenerate zero breaks it too.  Never short when the
    parts tie in either place, which leaves the sum to the coefficients."""
    up, down = c.ells[c.ells > 0], -c.ells[c.ells < 0]
    if up.max() == down.max() or (0 not in c.ells and up.min() == down.min()):
        return np.zeros(len(t), dtype=bool)
    far = int(up.max()) if up.max() > down.max() else -int(down.max())
    near = 0 if 0 in c.ells else int(up.min()) if up.min() < down.min() else -int(down.min())
    dt, dc = c.derivatives(t)
    return np.nansum(np.sign(np.abs(dt) ** 2 - np.abs(dc) ** 2), axis=1) != far - near


def _polished_zeros(c: _Component, t: np.ndarray) -> np.ndarray:
    """The zeros among the candidates ``t`` (members, candidates) of a
    mixed-sign component, after four Newton steps on the component itself,
    NaN in place of the rest: candidates that are no zero of it (a solver's
    spurious roots) or repeated are dropped, and so, when the component has
    no charge-0 term, are those on the axis, its zero there.  Of candidates
    that polish to one zero, the one with the smallest residual is kept.
    """
    # a stray candidate can overflow in the Newton steps; the zero test
    # below drops it
    with np.errstate(all="ignore"):
        for _ in range(4):
            f = c.at(t)
            dt, dc = c.derivatives(t)
            # dt * step + dc * conj(step) = -f.  Not `dc * np.conj(f)`: over
            # 256 KiB numpy reuses the temporary conj(f) and swaps the factors,
            # and its fused complex product is not symmetric in the last bit
            t = t + (np.multiply(dc, np.conj(f)) - np.conj(dt) * f) / (np.abs(dt) ** 2 - np.abs(dc) ** 2)
        residual = np.abs(c.at(t)) / c.magnitude(t)
        # best polished first, so a repeat is dropped in favour of it
        order = np.argsort(np.where(np.isfinite(residual), residual, np.inf), axis=1, kind="stable")
        t, residual = np.take_along_axis(t, order, axis=1), np.take_along_axis(residual, order, axis=1)
        kept = (residual <= _ROOT_TOL) & ((np.abs(t) > _ROOT_TOL) | (0 in c.ells))
        for j in range(1, t.shape[1]):
            near = np.abs(t[:, :j] - t[:, j, None]) <= 1e-6 * np.abs(t[:, j, None])
            kept[:, j] &= ~(near & kept[:, :j]).any(axis=1)
    return np.where(kept, t, np.nan)


def _exact_numbers(kets: np.ndarray, ells: Sequence[int]) -> list:
    """What :func:`exact_skyrmion_number` returns, or the error it raises, for
    each pure photon of the stack ``kets`` (members, 2 polarizations,
    charges ``ells``), solved as one stack per charge pattern
    (:func:`_mode_polynomials`, :func:`_pattern_numbers`)."""
    results: list = [None] * len(kets)
    for members, u, v in _mode_polynomials(kets, ells):
        try:
            numbers = _pattern_numbers(u, v)
        except UnsupportedStateError as exc:
            numbers = [exc] * len(members)
        for i, number in zip(members, numbers):
            results[i] = number
    return results


def _pattern_numbers(u: _Component, v: _Component) -> list:
    """Exact numbers of a stack of photons that share a charge pattern: the
    domain checks and n once, for the pattern (:class:`UnsupportedStateError`
    when it fails), and every root solve and diagnostic as one stacked call.
    A photon with a shared zero gets the error in place of its numbers."""
    top_u, top_v = (int(np.abs(c.ells).max(initial=-1)) for c in (u, v))
    if top_u == top_v:
        raise UnsupportedStateError(
            f"both components reach |l| = {top_u}, so neither dominates at large r"
        )
    dom, other = (u, v) if top_u > top_v else (v, u)
    if dom.sign is None:
        raise UnsupportedStateError(
            f"the dominant component mixes charge signs {dom.ells.tolist()}"
        )
    if other.ells.size == 0:
        return [(0, 0.0, math.inf)] * len(u.coeffs)
    low_d, low_o = (int(np.abs(c.ells).min()) for c in (dom, other))
    at_low_d, at_low_o = np.abs(dom.ells) == low_d, np.abs(other.ells) == low_o
    if 0 < low_o <= low_d and (np.sign(other.ells[at_low_o]) != dom.sign).any():
        raise UnsupportedStateError(
            f"charges {other.ells[at_low_o].tolist()} wind against the dominant "
            f"component on the axis"
        )
    n = int(dom.sign * (max(top_u, top_v) - min(low_d, low_o)))

    t_dom = _nonzero_roots(dom)
    o_at = other.at(t_dom)
    shared = np.abs(o_at) <= _ROOT_TOL * other.magnitude(t_dom)
    results: list = [None] * len(t_dom)
    for i in np.flatnonzero(shared.any(axis=1)):
        r = float(np.abs(t_dom[i, shared[i]]).min()) / math.sqrt(2.0)
        reason = f"both components vanish at r = {r:.6g} waists: a singular point of the texture"
        results[i] = UnsupportedStateError(reason)
    ok = np.flatnonzero(~shared.any(axis=1))
    if not ok.size:
        return results
    dom, other = (_Component(c.ells, c.coeffs[ok]) for c in (dom, other))
    t_dom, o_at = t_dom[ok], o_at[ok]
    if other.sign is None:
        t_oth, short = _harmonic_zeros(other)
    else:
        t_oth, short = _nonzero_roots(other), np.zeros(len(ok), dtype=bool)
    radii = [np.abs(t_dom), np.abs(t_oth)]
    with np.errstate(divide="ignore", invalid="ignore"):
        scales = [np.abs(o_at) / dom.slope(t_dom), np.abs(dom.at(t_oth)) / other.slope(t_oth)]
    if low_d != low_o:
        # the component that vanishes faster on the axis has a k-fold zero
        # there: W or 1/W ~ t^k times the ratio of the lowest coefficients
        lead_d, lead_o = (np.abs(c.coeffs[:, at]).sum(axis=1) for c, at in ((dom, at_low_d), (other, at_low_o)))
        ratio = lead_o / lead_d if low_d > low_o else lead_d / lead_o
        # the C library's pow per photon: numpy's array power differs in the last bit
        scales.append(np.array([r ** (1.0 / abs(low_d - low_o)) for r in ratio]).reshape(-1, 1))
    # fmax and fmin skip the NaN of harmonic candidates that are no zero
    outer = np.fmax.reduce(np.concatenate(radii, axis=1), axis=1, initial=0.0) / math.sqrt(2.0)
    scale = np.fmin.reduce(np.concatenate(scales, axis=1), axis=1, initial=math.inf) / math.sqrt(2.0)
    for i, o, s, lost in zip(ok, outer.tolist(), scale.tolist(), short.tolist()):
        if lost:
            results[i] = UnsupportedStateError(
                "the zeros found of the mixed-sign component do not make up its windings"
            )
        else:
            results[i] = (n, o, s)
    return results


def exact_skyrmion_number(photon: State) -> tuple[int, float, float]:
    """Skyrmion number of a pure photon's ideal, unapertured texture, from
    its mode coefficients (module docstring).

    Returns ``(n, outer_radius, core_scale)``.  The cores are the zeros of
    either component: the preimages of the two poles.  ``outer_radius`` is
    the distance of the outermost core from the beam axis, ``core_scale``
    the smallest core's radius to its s3 = 0 contour to first order
    (|other component| / fastest rate of change of the vanishing one; at a
    k-fold zero on the axis, the k-th root of the ratio of the lowest-order
    coefficients), both in waists.  A photon in one circular polarization has
    a uniform texture: n = 0, outer radius 0, core scale inf.  This is the
    one-photon case of the stacked solve :func:`sphere_sweep` runs, and gives
    the photon the same bits as that stack does.

    Raises :class:`UnsupportedStateError` for a density matrix, when neither
    component reaches a strictly larger max |l|, when the dominant component
    mixes charge signs, when the other component's lowest-order charges wind
    against it on the axis, when both components vanish at one point off
    the axis (a singular point of the texture, where n changes), and when
    the zeros found of a mixed-sign other component do not make up its
    windings (:func:`_short_of_winding`), so some core would be missed.
    """
    if not photon.is_pure:
        raise UnsupportedStateError("mode polynomials need a pure photon state")
    (result,) = _exact_numbers(*_photon_kets(photon.space, photon.data[None]))
    if isinstance(result, UnsupportedStateError):
        raise result
    return result


def sphere_sweep(
    state: State,
    theta_samples: Sequence[float] | None = None,
    alpha_samples: Sequence[float] | None = None,
    grid: GridSpec | None = None,
) -> SphereMap:
    """Skyrmion number of photon B over a grid of heralding angles.

    Defaults: 9 polar angles spanning [0, pi], 8 equally spaced azimuths.
    Every sample is heralded in one contraction, each row the bytes
    :func:`~qskyrm.hilbert.herald_polarization` gives it alone.  Pure
    heralded photons get the exact numbers of their ideal textures
    (:func:`exact_skyrmion_number`), solved from the stacked kets as one
    stack per charge pattern; a density matrix, or a pure photon outside
    that function's domain, gets the Riemann sum over a frame on ``grid``.
    Samples where heralding would raise (or whose texture carries no
    intensity) are flagged invalid rather than raising.  Each distinct
    heralded photon is counted once: samples whose conditional state has
    the same bytes (every azimuth at theta = 0, say) share its number.
    Unlike a dynamics sweep, the frames render one after another on the
    calling thread.
    """
    thetas = tuple(float(t) for t in (DEFAULT_THETA_SAMPLES if theta_samples is None else theta_samples))
    alphas = tuple(float(a) for a in (DEFAULT_ALPHA_SAMPLES if alpha_samples is None else alpha_samples))
    if not thetas or not alphas:
        raise ValueError("sample lists must be nonempty")
    if grid is None:
        grid = GridSpec()
    shape = (len(thetas), len(alphas))
    n_values = np.full(shape, np.nan)
    method = np.full(shape, None, dtype=object)
    outer_radius = np.full(shape, np.nan)
    core_scale = np.full(shape, np.nan)
    # every sample's photon from one contraction, rows in raster order
    space, data, probs = _condition(state, "pol_A", _herald_kets(thetas, alphas))
    # each heralded sample's photon bytes, and the first row of each distinct
    # photon; exact bytes only: nearly equal photons (the theta = pi kets
    # differ by ~1e-17) can give grid numbers that differ in print
    keys = [row.tobytes() if prob >= _PROB_FLOOR else None for row, prob in zip(data, probs.tolist())]
    first: dict[bytes, int] = {}
    for k, key in enumerate(keys):
        if key is not None:
            first.setdefault(key, k)
    rows = list(first.values())
    exact = _exact_numbers(*_photon_kets(space, data[rows])) if state.is_pure and rows else [None] * len(rows)
    samples = {}
    for (key, k), result in zip(first.items(), exact):
        if isinstance(result, tuple):
            samples[key] = (float(result[0]), "exact", *result[1:])
            continue
        try:
            n = skyrmion_number(photon_frame(State(space, state.kind, data[k]), grid)[1])
        except EmptyFieldError:
            n = math.nan
        samples[key] = (n, "grid", math.nan, math.nan)
    for (i, j), key in zip(np.ndindex(shape), keys):
        if key is not None:
            n_values[i, j], method[i, j], outer_radius[i, j], core_scale[i, j] = samples[key]
    valid = ~np.isnan(n_values)
    return SphereMap(thetas, alphas, n_values, valid, method, outer_radius, core_scale)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _bounding_box(cells: np.ndarray, pad: tuple[int, int]) -> tuple[slice, slice] | None:
    """Bounding box of the nonzero entries of the 2-D ``cells``, widened by
    ``pad`` cells per axis and clipped to the grid; None when every entry is
    zero."""
    rows = np.flatnonzero(cells.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(cells.any(axis=0))
    (ny, nx), (py, px) = cells.shape, pad
    return (
        slice(max(int(rows[0]) - py, 0), min(int(rows[-1]) + 1 + py, ny)),
        slice(max(int(cols[0]) - px, 0), min(int(cols[-1]) + 1 + px, nx)),
    )


def locate_quasiparticles(
    density: SkyrmionDensityField,
    central_radius: float | None = None,
) -> QuasiparticleReport:
    """Decompose a texture into a central structure plus satellite cores.

    Core identity comes from the connected components of the smoothed
    polar-cap preimage {s3 > 1/2} (Gaussian kernel of waist/16, at least one
    cell); each region then collects every raw cap cell nearest to it, and
    its charge is the cap-coverage integral 4 * sum(sigma) * cell_area
    (module docstring).
    A region is central when it touches the beam axis or its |sigma|-weighted
    centroid falls within ``central_radius`` of it (default: one waist).
    Satellites need |charge| >= 0.5 to count; anything else, tails included,
    is attributed to the central charge.  A field with no cap cells at all
    yields an empty report (count 0, everything central), not an error.

    Smoothing, labelling, the nearest-component transform and the region
    sums run on a crop: the bounding box of the cells with s3 above the cap
    level less 1e-9, widened on each axis by twice the kernel's radius
    ``int(4 * width + 0.5)`` cells and clipped to the grid.  Outside it no
    smoothed value can reach the level; inside it, cells a radius from an
    edge see the whole-grid footprint, and cells nearer an edge read only
    values below the level.  Raster order within the crop is the grid's, so
    component numbers, each region's cells and the order of every sum are
    the whole grid's, and the report is bit-identical to a whole-grid run.
    """
    grid = density.grid
    if central_radius is None:
        central_radius = grid.waist
    area = grid.cell_area
    total = skyrmion_number(density)

    s3 = density.spin[2]
    labels = np.zeros(grid.shape, dtype=int)
    # keep the kernel's physical width tied to the beam, not the grid
    width = _SMOOTH_WAIST * grid.waist
    kernel = (max(1.0, width / grid.dy), max(1.0, width / grid.dx))
    # gaussian_filter's default truncation: radius int(4 * width + 0.5)
    # the crop: cells with s3 above the cap level less 1e-9, widened
    crop = _bounding_box(s3 > _CAP_LEVEL - 1e-9, tuple(2 * int(4.0 * k + 0.5) for k in kernel))
    if crop is None:
        return QuasiparticleReport(0, (), total, total, labels)
    s3c = s3[crop]
    smoothed = gaussian_filter(s3c, sigma=kernel) > _CAP_LEVEL
    seeds, n_islands = _connected_label(smoothed, structure=np.ones((3, 3), dtype=bool))
    if n_islands == 0:
        return QuasiparticleReport(0, (), total, total, labels, crop)
    # identity from the smoothed components, extent from the raw preimage:
    # every raw cap cell joins its nearest component so the charge integral
    # sees the full cap coverage regardless of resolution
    iy_n, ix_n = distance_transform_edt(
        seeds == 0, return_distances=False, return_indices=True
    )
    labels_c = np.where(s3c > _CAP_LEVEL, seeds[iy_n, ix_n], 0)
    labels[crop] = labels_c
    sigma = density.sigma[crop]
    xx, yy = (m[crop] for m in _meshgrid(grid))
    # the beam axis falls between the four innermost cells of an even grid
    iy, ix = grid.ny // 2, grid.nx // 2
    axis_labels = set(labels[iy - 1 : iy + 1, ix - 1 : ix + 1].ravel()) - {0}
    charge_scale = 2.0 / (1.0 - _CAP_LEVEL)
    regions: list[QuasiparticleRegion] = []
    for lab in range(1, n_islands + 1):
        cells = labels_c == lab
        if not cells.any():
            # smoothing created the seed but every raw cap cell was nearer
            # to another component; nothing to integrate
            continue
        charge = charge_scale * float(sigma[cells].sum() * area)
        w_cells = np.abs(sigma[cells])
        w_total = float(w_cells.sum())
        if w_total > 0.0:
            cx = float((xx[cells] * w_cells).sum() / w_total)
            cy = float((yy[cells] * w_cells).sum() / w_total)
        else:
            cx = float(xx[cells].mean())
            cy = float(yy[cells].mean())
        central = lab in axis_labels or math.hypot(cx, cy) <= central_radius
        if not central and abs(charge) >= _MIN_REGION_CHARGE:
            regions.append(
                QuasiparticleRegion(lab, (cx, cy), charge, float(cells.sum() * area))
            )
    central_charge = total - sum(r.charge for r in regions)
    return QuasiparticleReport(len(regions), tuple(regions), central_charge, total, labels, crop)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _wrap_delta(delta: float) -> float:
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _spin_phase(
    density: SkyrmionDensityField,
    psi: np.ndarray,
    report: QuasiparticleReport,
    region: QuasiparticleRegion,
) -> float:
    """Winding-compensated texture phase of one of the report's regions (see
    module docstring), from the frame's orientation map ``psi``.

    Only the report's crop, which holds every labelled cell, is read.  Raster
    order within it is the grid's, so the region's cells come in the grid's
    order and the sum is the whole grid's.
    """
    box = report.crop
    xx, yy = (m[box] for m in _meshgrid(density.grid))
    cells = report.labels[box] == region.label
    cx, cy = region.centroid
    beta = np.arctan2(yy[cells] - cy, xx[cells] - cx)
    # core winding matches the sign of the charge it carries
    winding = math.copysign(1.0, region.charge) if region.charge else -1.0
    w = np.abs(density.sigma[box][cells])
    resultant = np.sum(w * np.exp(1j * (2.0 * psi[box][cells] - winding * beta)))
    return float(np.angle(resultant))


def _link_tracks(
    per_sample: Sequence[Sequence[tuple[float, float, float]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[bool, ...]]:
    """Link each sample's quasiparticles ``(x, y, chi)`` into tracks.

    Every sample goes through one assignment: the live tracks (those the
    previous sample continued or started) against this sample's entries, on
    the distance from each track's constant-velocity prediction.  A match
    farther from the track's last position than half the smallest spacing
    between live tracks (no cap with fewer than two) is refused.  A track
    left without an entry ends, and an entry left without a track starts
    one (a refused match does both), so the first sample, an empty sample
    and a sample after every track has ended need no case of their own.  A
    sample is ambiguous when an accepted match ties another live track's
    distance to the same entry.

    Returns ``(radii, orbit, spin, ambiguous)``: arrays of shape
    (n_samples, n_tracks), tracks in the order they started and NaN where a
    track is absent, with the azimuth and ``chi`` unwrapped along each track.
    """
    tracks: list[dict] = []
    live: list[dict] = []
    ambiguous: list[bool] = []
    for i_sample, entries in enumerate(per_sample):
        new = np.array([(x, y) for x, y, _ in entries]).reshape(-1, 2)
        prev = np.array([t["pos"] for t in live]).reshape(-1, 2)
        # a track's first step predicts no motion: 2 p - p == p exactly
        predicted = np.array([2.0 * t["pos"] - t["prev_pos"] for t in live]).reshape(-1, 2)
        raw = np.linalg.norm(prev[:, None, :] - new[None, :, :], axis=2)
        cost = np.linalg.norm(predicted[:, None, :] - new[None, :, :], axis=2)
        spacing = np.linalg.norm(prev[:, None, :] - prev[None, :, :], axis=2)
        np.fill_diagonal(spacing, np.inf)
        bound = 0.5 * float(spacing.min(initial=np.inf))

        flagged = False
        continued: list[dict] = []
        taken: set[int] = set()
        for i_track, j_entry in zip(*linear_sum_assignment(cost)):
            if raw[i_track, j_entry] > bound:
                continue
            others = np.delete(raw[:, j_entry], i_track)
            if abs(float(others.min(initial=np.inf)) - raw[i_track, j_entry]) < 1e-9:
                flagged = True
            track = live[i_track]
            x, y, chi = entries[j_entry]
            track["prev_pos"], track["pos"] = track["pos"], new[j_entry]
            # unwrapped values agree with the raw angles mod 2*pi, so the
            # wrapped increment against them is the true step
            track["phi"] += _wrap_delta(math.atan2(y, x) - track["phi"])
            track["chi"] += _wrap_delta(chi - track["chi"])
            track["rows"][i_sample] = (math.hypot(x, y), track["phi"], track["chi"])
            continued.append(track)
            taken.add(j_entry)
        started = []
        for j_entry, (x, y, chi) in enumerate(entries):
            if j_entry not in taken:
                phi, pos = math.atan2(y, x), new[j_entry]
                rows = {i_sample: (math.hypot(x, y), phi, chi)}
                started.append({"pos": pos, "prev_pos": pos, "phi": phi, "chi": chi, "rows": rows})
        tracks += started
        live = continued + started
        ambiguous.append(flagged)

    radii, orbit, spin = np.full((3, len(per_sample), len(tracks)), np.nan)
    for k, t in enumerate(tracks):
        for i_sample, row in t["rows"].items():
            radii[i_sample, k], orbit[i_sample, k], spin[i_sample, k] = row
    return radii, orbit, spin, tuple(ambiguous)


def _sweep_axis(sweep: Sequence[ProjectionAngles]) -> tuple[str, tuple[float, ...]]:
    """The angle a dynamics sweep varies, and its values; a ValueError unless
    the sweep has at least five samples and varies exactly one angle."""
    if len(sweep) < 5:
        raise ValueError(f"sweep needs at least 5 samples, got {len(sweep)}")
    angles = {"theta": [a.theta for a in sweep], "alpha": [a.alpha for a in sweep]}
    varying = [name for name, values in angles.items() if float(np.ptp(values)) > 1e-12]
    if len(varying) != 1:
        raise ValueError("sweep must vary exactly one of theta, alpha")
    return varying[0], tuple(float(v) for v in angles[varying[0]])


def track_dynamics(
    state: State,
    sweep: Sequence[ProjectionAngles],
    grid: GridSpec | None = None,
    central_radius: float | None = None,
    *,
    on_frame: Callable[..., None] | None = None,
) -> DynamicsTrace:
    """Follow quasiparticles of the heralded texture through an angle sweep.

    The sweep must vary exactly one of (theta, alpha) and hold the other
    fixed, with at least five samples.  Regions are associated sample to
    sample by nearest centroid, matches capped at half the previous
    inter-particle spacing, with ties broken by constant-velocity
    extrapolation (such samples are flagged ambiguous).  Tracks that lose
    their region (e.g. cores merging into the central structure) end; their
    later entries stay NaN.

    The samples' frames render concurrently, on a thread pool of this call
    with one thread per CPU the process may run on (``os.sched_getaffinity``),
    at most ``_MAX_FRAME_WORKERS``; numpy releases the interpreter lock in
    its array loops, so the frames overlap.  Each sample's herald, frame,
    segmentation and co-moving phases run as one pool task, and the linking
    on the calling thread.  ``on_frame(i, unit, density, psi)``, when given,
    is called with each sample's texture, density and orientation map ψ once
    its quasiparticles are located, on the thread that rendered it, in
    sample order and never two at a time: a task waits on the previous
    sample's future before it delivers, and that wait re-raises the previous
    sample's failure.  Samples dropped for zero heralding probability or an
    empty field are not passed to it.  A sample that raises, in rendering or
    in ``on_frame``, stops the sweep: no later sample is delivered, the first
    failure in sample order is raised once the running samples are done, and
    queued samples are dropped.  The pool's queue is first in, first out, so
    the sample a task waits on has already started.
    """
    sweep = list(sweep)
    sweep_param, values = _sweep_axis(sweep)
    if grid is None:
        grid = GridSpec()

    def render(i: int) -> tuple[list[tuple[float, float, float]], tuple | None]:
        try:
            photon, _ = herald_polarization(state, sweep[i])
            unit, density = photon_frame(photon, grid)
        except (ZeroProbabilityError, EmptyFieldError):
            return [], None
        report = locate_quasiparticles(density, central_radius)
        psi = orientation_psi(unit)
        entries = [(*r.centroid, _spin_phase(density, psi, report, r)) for r in report.regions]
        return entries, (unit, density, psi)

    def sample(i: int) -> list[tuple[float, float, float]]:
        # render's temporaries (the labels) are freed before the task waits
        entries, frame = render(i)
        if i:
            futures[i - 1].result()
        if frame is not None and on_frame is not None:
            on_frame(i, *frame)
        return entries

    # filled one submission at a time, so a task finds its predecessor's future
    futures = []
    workers = min(len(os.sched_getaffinity(0)), _MAX_FRAME_WORKERS)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="qskyrm-frame")
    try:
        for i in range(len(sweep)):
            futures.append(pool.submit(sample, i))
        per_sample = [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    radii, orbit, spin, ambiguous = _link_tracks(per_sample)
    counts = tuple(len(entries) for entries in per_sample)
    return DynamicsTrace(sweep_param, values, radii, orbit, spin, counts, ambiguous)
