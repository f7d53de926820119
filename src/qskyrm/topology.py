"""Topological analysis of polarization textures.

The reduced Stokes vector of a paraxial field tiles a patch of the
polarization sphere; how many times the plane wraps that sphere is counted by

    n = (1/4pi) integral  s . (ds/dx x ds/dy)  dx dy

evaluated here as a Riemann sum with central differences.  The integrand
(including the 1/4pi) is the skyrmion density ``sigma``, computed over
blocks of grid rows so its temporaries stay cache-sized; the blocks give
bit-for-bit the whole-grid sum (see :func:`skyrmion_density`).

Every frame of a heralded photon, wherever it is used, comes from one
function, :func:`photon_frame`: envelope-free Stokes synthesis, the unit
texture s = S/S0 on every cell, skyrmion density.  On top of it this
module sweeps heralding angles over the projection sphere (rendering each
distinct heralded photon once), decomposes a multi-core texture into
quasiparticle regions, and follows those regions through a parameter sweep
to extract their orbital and internal-rotation (spin) dynamics.

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
:func:`sphere_sweep` uses it for every pure heralded photon it covers.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
from .hilbert import ProjectionAngles, State, herald_polarization
from .modes import ROW_STRIP, GridSpec, _log_norm, _meshgrid, row_strips
from .stokesfield import (
    UnitStokesField,
    _photon_axes,
    normalize_stokes,
    orientation_psi,
    stokes_of_photon_state,
)

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


@dataclass(frozen=True)
class SkyrmionDensityField:
    """Pointwise topological density sigma (1/area units, 1/4pi included).

    ``spin`` carries the unit vector field the density came from; the
    segmentation needs it to find core regions (see module docstring).  It is
    filled by :func:`skyrmion_density` and None on densities built by hand.
    """

    grid: GridSpec
    sigma: np.ndarray
    spin: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.sigma, dtype=float)
        if arr.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "sigma", arr)
        if self.spin is not None:
            s = np.asarray(self.spin, dtype=float)
            if s.shape != (3,) + self.grid.shape:
                raise ValueError(f"spin must have shape {(3,) + self.grid.shape}")
            s.setflags(write=False)
            object.__setattr__(self, "spin", s)


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
    """One non-central watershed region: label, centroid (x, y), charge, area."""

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
    regions).
    """

    count: int
    regions: tuple[QuasiparticleRegion, ...]
    central_charge: float
    total: float
    labels: np.ndarray

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
    from :func:`~qskyrm.stokesfield.normalize_stokes` are defined on every
    cell where the field does not vanish.

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
    sigma = np.empty((ny, nx))
    grad_x = np.empty((3, ROW_STRIP, nx))
    grad_y = np.empty((3, ROW_STRIP, nx))
    cross = np.empty((ROW_STRIP, nx, 3))
    tmp = np.empty((ROW_STRIP, nx))
    for r0, r1 in row_strips(ny):
        rows = r1 - r0
        strip = s[:, r0:r1]
        sx, sy = grad_x[:, :rows], grad_y[:, :rows]
        # np.gradient(s, dx, axis=2) on the strip, term for term: central
        # differences over 2 dx inside, one-sided over dx at the two edges
        _difference(strip[..., 2:], strip[..., :-2], 2.0 * dx, sx[..., 1:-1])
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
        c, t = cross[:rows], tmp[:rows]
        # np.cross(sx, sy, axis=0), term for term
        np.multiply(sx[1], sy[2], out=c[..., 0])
        c[..., 0] -= np.multiply(sx[2], sy[1], out=t)
        np.multiply(sx[2], sy[0], out=c[..., 1])
        c[..., 1] -= np.multiply(sx[0], sy[2], out=t)
        np.multiply(sx[0], sy[1], out=c[..., 2])
        c[..., 2] -= np.multiply(sx[1], sy[0], out=t)
        np.einsum("iyx,iyx->yx", strip, np.moveaxis(c, -1, 0), out=sigma[r0:r1])
    sigma /= 4.0 * math.pi
    return SkyrmionDensityField(grid, sigma, spin=s)


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
    """Unit Stokes field and skyrmion density of a single-photon state:
    Stokes synthesis, unit texture, density."""
    unit = normalize_stokes(stokes_of_photon_state(photon, grid))
    return unit, skyrmion_density(unit)


# ---------------------------------------------------------------------------
# exact number of a pure photon
# ---------------------------------------------------------------------------


class _Component(NamedTuple):
    """One circular component of a pure photon over the common Gaussian:
    ``sum_l coeffs[l] * tau^|l|`` with tau = t for l >= 0 and conj(t) for
    l < 0, t = sqrt(2) z / w.  ``ells`` holds the charges whose amplitude
    clears the noise floor, ``coeffs`` their amplitudes times N_l."""

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
        return self._powers(t) @ self.coeffs

    def magnitude(self, t) -> np.ndarray:
        """Sum of the terms' magnitudes at t: the scale of cancellation tests."""
        return np.abs(self._powers(t)) @ np.abs(self.coeffs)

    def derivatives(self, t) -> tuple[np.ndarray, np.ndarray]:
        """d/dt and d/dconj(t) at t."""
        terms = self._powers(t, drop=1) * (np.abs(self.ells) * self.coeffs)
        return terms @ (self.ells > 0), terms @ (self.ells < 0)

    def slope(self, t) -> np.ndarray:
        """|d/dt| + |d/dconj(t)|: the fastest rate of change at t."""
        dt, dc = self.derivatives(t)
        return np.abs(dt) + np.abs(dc)


def _mode_polynomials(photon: State) -> tuple[_Component, _Component]:
    """The u (R, polarization index 0) and v (L) components of a pure
    single-photon state (module docstring).  Amplitudes below ``_COEFF_FLOOR``
    of the largest are noise (the theta = pi herald leaves ~1e-17) and are
    dropped."""
    if not photon.is_pure:
        raise UnsupportedStateError("mode polynomials need a pure photon state")
    ip, io = _photon_axes(photon)
    ket = photon.tensor() if ip == 0 else photon.tensor().T
    ells = np.array(photon.space.axes[io].basis.ells)
    norms = np.exp([_log_norm(abs(int(l))) for l in ells])
    keep = np.abs(ket) > _COEFF_FLOOR * np.abs(ket).max()
    u, v = (_Component(ells[k], row[k] * norms[k]) for row, k in zip(ket, keep))
    return u, v


def _nonzero_roots(c: _Component) -> np.ndarray:
    """Nonzero zeros (in t) of a single-signed component, with multiplicity."""
    powers = np.abs(c.ells)
    top = int(powers.max())
    desc = np.zeros(top - int(powers.min()) + 1, dtype=complex)
    desc[top - powers] = c.coeffs
    tau = np.roots(desc)
    return np.conj(tau) if c.sign == -1 else tau


def _harmonic_zeros(c: _Component) -> np.ndarray:
    """Nonzero zeros of a mixed-sign component P(t) + Q(conj t).

    With s standing for conj(t), a zero is a common root in s of
    F = Q(s) + P(t) and of its conjugate G = P*(s) + Q*(t) (coefficients
    conjugated).  Their Sylvester matrix in s is a matrix polynomial in t
    whose determinant vanishes at every zero; its eigenvalues (companion
    linearization) are polished by Newton steps on the component itself, and
    candidates that are not zeros of it (their common s is not conj(t)) are
    dropped.
    """
    pos = c.ells >= 0
    p = np.zeros(int(c.ells.max()) + 1, dtype=complex)
    p[c.ells[pos]] = c.coeffs[pos]
    q = np.zeros(int(-c.ells.min()) + 1, dtype=complex)
    q[-c.ells[~pos]] = c.coeffs[~pos]
    n, m = len(p) - 1, len(q) - 1
    size, deg = n + m, max(n, m)
    # sylvester[k] multiplies t^k: n rows of F (degree m in s), m rows of G
    sylvester = np.zeros((deg + 1, size, size), dtype=complex)
    for r in range(n):
        sylvester[0, r, r : r + m] = q[:0:-1]
        sylvester[: n + 1, r, r + m] = p
    for r in range(m):
        sylvester[0, n + r, r : r + n + 1] = np.conj(p[::-1])
        sylvester[1 : m + 1, n + r, r + n] = np.conj(q[1:])
    a = np.eye(deg * size, k=size, dtype=complex)
    a[-size:] = -np.concatenate(sylvester[:deg], axis=1)
    b = np.eye(deg * size, dtype=complex)
    b[-size:, -size:] = sylvester[deg]
    # a singular b gives infinite eigenvalues, and a stray candidate can
    # overflow in the Newton steps; the zero test below drops both
    with np.errstate(all="ignore"):
        t = eigvals(a, b)
        t = t[np.isfinite(t)]
        for _ in range(4):
            f = c.at(t)
            dt, dc = c.derivatives(t)
            # dt * step + dc * conj(step) = -f
            t = t + (dc * np.conj(f) - np.conj(dt) * f) / (np.abs(dt) ** 2 - np.abs(dc) ** 2)
        good = np.isfinite(t) & (np.abs(c.at(t)) <= _ROOT_TOL * c.magnitude(t))
    zeros: list[complex] = []
    for z in t[good]:
        if abs(z) > _ROOT_TOL and all(abs(z - y) > 1e-6 * abs(z) for y in zeros):
            zeros.append(complex(z))
    return np.array(zeros, dtype=complex)


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
    a uniform texture: n = 0, outer radius 0, core scale inf.

    Raises :class:`UnsupportedStateError` for a density matrix, when neither
    component reaches a strictly larger max |l|, when the dominant component
    mixes charge signs, when the other component's lowest-order charges wind
    against it on the axis, and when both components vanish at one point off
    the axis (a singular point of the texture, where n changes).
    """
    u, v = _mode_polynomials(photon)
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
        return 0, 0.0, math.inf
    low_d, low_o = (int(np.abs(c.ells).min()) for c in (dom, other))
    at_low_d, at_low_o = np.abs(dom.ells) == low_d, np.abs(other.ells) == low_o
    if 0 < low_o <= low_d and (np.sign(other.ells[at_low_o]) != dom.sign).any():
        raise UnsupportedStateError(
            f"charges {other.ells[at_low_o].tolist()} wind against the dominant "
            f"component on the axis"
        )
    n = dom.sign * (max(top_u, top_v) - min(low_d, low_o))

    t_dom = _nonzero_roots(dom)
    o_at = other.at(t_dom)
    shared = np.abs(o_at) <= _ROOT_TOL * other.magnitude(t_dom)
    if shared.any():
        r = float(np.abs(t_dom[shared]).min()) / math.sqrt(2.0)
        raise UnsupportedStateError(
            f"both components vanish at r = {r:.6g} waists: a singular point of the texture"
        )
    t_oth = _harmonic_zeros(other) if other.sign is None else _nonzero_roots(other)
    radii = [np.abs(t_dom), np.abs(t_oth)]
    with np.errstate(divide="ignore"):
        scales = [np.abs(o_at) / dom.slope(t_dom), np.abs(dom.at(t_oth)) / other.slope(t_oth)]
    if low_d != low_o:
        # the component that vanishes faster on the axis has a k-fold zero
        # there: W or 1/W ~ t^k times the ratio of the lowest coefficients
        lead_d, lead_o = np.abs(dom.coeffs[at_low_d]).sum(), np.abs(other.coeffs[at_low_o]).sum()
        ratio = lead_o / lead_d if low_d > low_o else lead_d / lead_o
        radii.append(np.zeros(1))
        scales.append(np.array([ratio ** (1.0 / abs(low_d - low_o))]))
    radii, scales = np.concatenate(radii), np.concatenate(scales)
    return (
        int(n),
        float(radii.max(initial=0.0)) / math.sqrt(2.0),
        float(scales.min(initial=math.inf)) / math.sqrt(2.0),
    )


def _sample_number(photon: State, grid: GridSpec) -> tuple[float, str, float, float]:
    """``(n, method, outer_radius, core_scale)`` of one heralded photon: the
    exact number where :func:`exact_skyrmion_number` applies, else the
    grid's (NaN for an empty field) with NaN diagnostics."""
    try:
        n, outer, scale = exact_skyrmion_number(photon)
    except UnsupportedStateError:
        pass
    else:
        return float(n), "exact", outer, scale
    try:
        _, density = photon_frame(photon, grid)
    except EmptyFieldError:
        return math.nan, "grid", math.nan, math.nan
    return skyrmion_number(density), "grid", math.nan, math.nan


def sphere_sweep(
    state: State,
    theta_samples: Sequence[float] | None = None,
    alpha_samples: Sequence[float] | None = None,
    grid: GridSpec | None = None,
) -> SphereMap:
    """Skyrmion number of photon B over a grid of heralding angles.

    Defaults: 9 polar angles spanning [0, pi], 8 equally spaced azimuths.
    A pure heralded photon gets the exact number of its ideal texture
    (:func:`exact_skyrmion_number`); a density matrix, or a pure photon
    outside that function's domain, gets the Riemann sum over a frame on
    ``grid``.  Samples whose heralding probability vanishes (or whose
    texture carries no intensity) are flagged invalid rather than raising.
    Each distinct heralded photon is counted once: samples whose conditional
    state has the same bytes (every azimuth at theta = 0, say) share its
    number.
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
    # photon bytes -> its sample; exact bytes only: nearly equal photons (the
    # theta = pi kets differ by ~1e-17) can give grid numbers that differ in
    # print
    samples: dict[bytes, tuple[float, str, float, float]] = {}
    for i, theta in enumerate(thetas):
        for j, alpha in enumerate(alphas):
            try:
                photon, _ = herald_polarization(state, ProjectionAngles(theta, alpha))
            except ZeroProbabilityError:
                continue
            key = photon.data.tobytes()
            if key not in samples:
                samples[key] = _sample_number(photon, grid)
            n_values[i, j], method[i, j], outer_radius[i, j], core_scale[i, j] = samples[key]
    valid = ~np.isnan(n_values)
    return SphereMap(thetas, alphas, n_values, valid, method, outer_radius, core_scale)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _cap_crop(s3: np.ndarray, pad: tuple[int, int]) -> tuple[slice, slice] | None:
    """Bounding box of the cells with s3 above the cap level (less 1e-9),
    widened by ``pad`` cells per axis and clipped to the grid; None when no
    cell comes that close to the cap."""
    near = s3 > _CAP_LEVEL - 1e-9
    rows = np.flatnonzero(near.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(near.any(axis=0))
    (ny, nx), (py, px) = s3.shape, pad
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
    if density.spin is None:
        raise UnsupportedStateError(
            "density carries no spin field; build it with skyrmion_density"
        )
    area = grid.cell_area
    total = skyrmion_number(density)

    s3 = density.spin[2]
    labels = np.zeros(grid.shape, dtype=int)
    # keep the kernel's physical width tied to the beam, not the grid
    width = _SMOOTH_WAIST * grid.waist
    kernel = (max(1.0, width / grid.dy), max(1.0, width / grid.dx))
    # gaussian_filter's default truncation: radius int(4 * width + 0.5)
    crop = _cap_crop(s3, tuple(2 * int(4.0 * k + 0.5) for k in kernel))
    if crop is None:
        return QuasiparticleReport(0, (), total, total, labels)
    s3c = s3[crop]
    smoothed = gaussian_filter(s3c, sigma=kernel) > _CAP_LEVEL
    seeds, n_islands = _connected_label(smoothed, structure=np.ones((3, 3), dtype=bool))
    if n_islands == 0:
        return QuasiparticleReport(0, (), total, total, labels)
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
    return QuasiparticleReport(len(regions), tuple(regions), central_charge, total, labels)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _wrap_delta(delta: float) -> float:
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _spin_phase(
    density: SkyrmionDensityField,
    two_psi: np.ndarray,
    labels: np.ndarray,
    region: QuasiparticleRegion,
) -> float:
    """Winding-compensated texture phase of one region (see module docstring),
    from the frame's doubled orientation map ``two_psi``."""
    xx, yy = _meshgrid(density.grid)
    cells = labels == region.label
    cx, cy = region.centroid
    beta = np.arctan2(yy[cells] - cy, xx[cells] - cx)
    # core winding matches the sign of the charge it carries
    winding = math.copysign(1.0, region.charge) if region.charge else -1.0
    w = np.abs(density.sigma[cells])
    resultant = np.sum(w * np.exp(1j * (two_psi[cells] - winding * beta)))
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
    later entries stay NaN.  ``on_frame(i, unit, density, psi)``, when given,
    is called with each sample's texture, density and orientation map ψ once
    its quasiparticles are located; samples dropped for zero heralding
    probability or an empty field are not passed to it.
    """
    sweep = list(sweep)
    sweep_param, values = _sweep_axis(sweep)
    if grid is None:
        grid = GridSpec()

    per_sample: list[list[tuple[float, float, float]]] = []
    for i_sample, angles in enumerate(sweep):
        try:
            photon, _ = herald_polarization(state, angles)
            unit, density = photon_frame(photon, grid)
        except (ZeroProbabilityError, EmptyFieldError):
            per_sample.append([])
            continue
        report = locate_quasiparticles(density, central_radius)
        psi = orientation_psi(unit)
        if on_frame is not None:
            on_frame(i_sample, unit, density, psi)
        two_psi = 2.0 * psi
        per_sample.append(
            [(*r.centroid, _spin_phase(density, two_psi, report.labels, r)) for r in report.regions]
        )

    radii, orbit, spin, ambiguous = _link_tracks(per_sample)
    counts = tuple(len(entries) for entries in per_sample)
    return DynamicsTrace(sweep_param, values, radii, orbit, spin, counts, ambiguous)
