"""Topological analysis of polarization textures.

The reduced Stokes vector of a paraxial field tiles a patch of the
polarization sphere; how many times the plane wraps that sphere is counted by

    n = (1/4pi) integral  s . (ds/dx x ds/dy)  dx dy

evaluated here as a Riemann sum with central differences.  The integrand
(including the 1/4pi) is the skyrmion density ``sigma``.

Beyond the plain number this module sweeps heralding angles over the
projection sphere, decomposes a multi-core texture into quasiparticle
regions, and follows those regions through a parameter sweep to extract
their orbital and internal-rotation (spin) dynamics.

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
reports and unwraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.ndimage import distance_transform_edt, gaussian_filter
from scipy.ndimage import label as _connected_label
from scipy.optimize import linear_sum_assignment

from .errors import (
    EmptyFieldError,
    InsufficientCoverageError,
    UnsupportedStateError,
    ZeroProbabilityError,
)
from .hilbert import ProjectionAngles, State
from .modes import GridSpec, grid_axes
from .stokesfield import (
    DEFAULT_INTENSITY_FLOOR,
    UnitStokesField,
    conditional_stokes,
    normalize_stokes,
    orientation_psi,
)

__all__ = [
    "SkyrmionDensityField",
    "SphereMap",
    "QuasiparticleRegion",
    "QuasiparticleReport",
    "DynamicsTrace",
    "skyrmion_density",
    "skyrmion_number",
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
    """

    theta_samples: tuple[float, ...]
    alpha_samples: tuple[float, ...]
    n_values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n_values, dtype=float)
        v = np.asarray(self.valid, dtype=bool)
        shape = (len(self.theta_samples), len(self.alpha_samples))
        if n.shape != shape or v.shape != shape:
            raise ValueError(f"map arrays must have shape {shape}")
        n.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "theta_samples", tuple(float(t) for t in self.theta_samples))
        object.__setattr__(self, "alpha_samples", tuple(float(a) for a in self.alpha_samples))
        object.__setattr__(self, "n_values", n)
        object.__setattr__(self, "valid", v)


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
    regions) and ``central_labels`` the labels classified as central.
    """

    count: int
    regions: tuple[QuasiparticleRegion, ...]
    central_charge: float
    total: float
    labels: np.ndarray
    central_labels: tuple[int, ...]

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

    @property
    def samples(self) -> list[dict]:
        rows = []
        for i, value in enumerate(self.param_values):
            rows.append(
                {
                    "value": value,
                    "radius": list(self.radii[i]),
                    "orbit_angle": list(self.orbit_angles[i]),
                    "spin_angle": list(self.spin_angles[i]),
                    "count": self.counts[i],
                    "ambiguous": self.ambiguous[i],
                }
            )
        return rows


# ---------------------------------------------------------------------------
# density and total number
# ---------------------------------------------------------------------------


def skyrmion_density(field: UnitStokesField) -> SkyrmionDensityField:
    """Pointwise wrapping density of a unit Stokes field.

    The field must be defined (finite) on at least 95% of the grid; fields
    from :func:`~qskyrm.stokesfield.normalize_stokes` are defined everywhere.
    """
    s = field.s
    finite = np.isfinite(s).all(axis=0)
    fraction = float(finite.mean())
    if fraction < _MIN_FINITE_FRACTION:
        raise InsufficientCoverageError(
            f"unit vector defined on {fraction:.1%} of the grid, need "
            f"{_MIN_FINITE_FRACTION:.0%}"
        )
    sx = np.gradient(s, field.grid.dx, axis=2)
    sy = np.gradient(s, field.grid.dy, axis=1)
    sigma = np.einsum("iyx,iyx->yx", s, np.cross(sx, sy, axis=0)) / (4.0 * math.pi)
    return SkyrmionDensityField(field.grid, sigma, spin=s)


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


def sphere_sweep(
    state: State,
    theta_samples: Sequence[float] | None = None,
    alpha_samples: Sequence[float] | None = None,
    grid: GridSpec | None = None,
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR,
) -> SphereMap:
    """Skyrmion number of photon B over a grid of heralding angles.

    Defaults: 9 polar angles spanning [0, pi], 8 equally spaced azimuths.
    Samples whose heralding probability vanishes (or whose texture carries no
    intensity) are flagged invalid rather than raising.
    """
    thetas = tuple(float(t) for t in (DEFAULT_THETA_SAMPLES if theta_samples is None else theta_samples))
    alphas = tuple(float(a) for a in (DEFAULT_ALPHA_SAMPLES if alpha_samples is None else alpha_samples))
    if not thetas or not alphas:
        raise ValueError("sample lists must be nonempty")
    if grid is None:
        grid = GridSpec()
    n_values = np.full((len(thetas), len(alphas)), np.nan)
    valid = np.zeros((len(thetas), len(alphas)), dtype=bool)
    for i, theta in enumerate(thetas):
        for j, alpha in enumerate(alphas):
            try:
                field = conditional_stokes(state, ProjectionAngles(theta, alpha), grid)
                unit = normalize_stokes(field, intensity_floor)
            except (ZeroProbabilityError, EmptyFieldError):
                continue
            n_values[i, j] = skyrmion_number(skyrmion_density(unit))
            valid[i, j] = True
    return SphereMap(thetas, alphas, n_values, valid)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _meshes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x, y = grid_axes(grid)
    xx, yy = np.meshgrid(x, y)
    xx.setflags(write=False)
    yy.setflags(write=False)
    return xx, yy


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
    """
    grid = density.grid
    if central_radius is None:
        central_radius = grid.waist
    if density.spin is None:
        raise UnsupportedStateError(
            "density carries no spin field; build it with skyrmion_density"
        )
    sigma = density.sigma
    area = grid.cell_area
    total = skyrmion_number(density)

    s3 = density.spin[2]
    # keep the kernel's physical width tied to the beam, not the grid
    width = _SMOOTH_WAIST * grid.waist
    kernel = (max(1.0, width / grid.dy), max(1.0, width / grid.dx))
    smoothed = gaussian_filter(s3, sigma=kernel) > _CAP_LEVEL
    seeds, n_islands = _connected_label(smoothed, structure=np.ones((3, 3), dtype=bool))
    if n_islands == 0:
        return QuasiparticleReport(0, (), total, total, seeds, ())
    # identity from the smoothed components, extent from the raw preimage:
    # every raw cap cell joins its nearest component so the charge integral
    # sees the full cap coverage regardless of resolution
    iy_n, ix_n = distance_transform_edt(
        seeds == 0, return_distances=False, return_indices=True
    )
    labels = np.where(s3 > _CAP_LEVEL, seeds[iy_n, ix_n], 0)

    xx, yy = _meshes(grid)
    # the beam axis falls between the four innermost cells of an even grid
    iy, ix = grid.ny // 2, grid.nx // 2
    axis_labels = set(labels[iy - 1 : iy + 1, ix - 1 : ix + 1].ravel()) - {0}
    charge_scale = 2.0 / (1.0 - _CAP_LEVEL)
    regions: list[QuasiparticleRegion] = []
    central_labels: list[int] = []
    for lab in range(1, n_islands + 1):
        cells = labels == lab
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
        if lab in axis_labels or math.hypot(cx, cy) <= central_radius:
            central_labels.append(lab)
        elif abs(charge) >= _MIN_REGION_CHARGE:
            regions.append(
                QuasiparticleRegion(lab, (cx, cy), charge, float(cells.sum() * area))
            )
    central_charge = total - sum(r.charge for r in regions)
    return QuasiparticleReport(
        len(regions), tuple(regions), central_charge, total, labels, tuple(central_labels)
    )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _wrap_delta(delta: float) -> float:
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def _spin_phase(
    unit: UnitStokesField,
    sigma: np.ndarray,
    labels: np.ndarray,
    region: QuasiparticleRegion,
) -> float:
    """Winding-compensated texture phase of one region (see module docstring)."""
    xx, yy = _meshes(unit.grid)
    cells = labels == region.label
    cx, cy = region.centroid
    beta = np.arctan2(yy[cells] - cy, xx[cells] - cx)
    two_psi = 2.0 * orientation_psi(unit)[cells]
    # core winding matches the sign of the charge it carries
    winding = math.copysign(1.0, region.charge) if region.charge else -1.0
    w = np.abs(sigma[cells])
    resultant = np.sum(w * np.exp(1j * (two_psi - winding * beta)))
    return float(np.angle(resultant))


def track_dynamics(
    state: State,
    sweep: Sequence[ProjectionAngles],
    grid: GridSpec | None = None,
    central_radius: float | None = None,
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR,
) -> DynamicsTrace:
    """Follow quasiparticles of the heralded texture through an angle sweep.

    The sweep must vary exactly one of (theta, alpha) and hold the other
    fixed, with at least five samples.  Regions are associated sample to
    sample by nearest centroid, matches capped at half the previous
    inter-particle spacing, with ties broken by constant-velocity
    extrapolation (such samples are flagged ambiguous).  Tracks that lose
    their region (e.g. cores merging into the central structure) end; their
    later entries stay NaN.
    """
    sweep = list(sweep)
    if len(sweep) < 5:
        raise ValueError(f"sweep needs at least 5 samples, got {len(sweep)}")
    thetas = np.array([a.theta for a in sweep])
    alphas = np.array([a.alpha for a in sweep])
    theta_varies = float(np.ptp(thetas)) > 1e-12
    alpha_varies = float(np.ptp(alphas)) > 1e-12
    if theta_varies == alpha_varies:
        raise ValueError("sweep must vary exactly one of theta, alpha")
    sweep_param = "theta" if theta_varies else "alpha"
    values = tuple(float(v) for v in (thetas if theta_varies else alphas))
    if grid is None:
        grid = GridSpec()

    per_sample: list[list[dict]] = []
    counts: list[int] = []
    for angles in sweep:
        try:
            field = conditional_stokes(state, angles, grid)
            unit = normalize_stokes(field, intensity_floor)
        except (ZeroProbabilityError, EmptyFieldError):
            per_sample.append([])
            counts.append(0)
            continue
        density = skyrmion_density(unit)
        report = locate_quasiparticles(density, central_radius)
        entries = []
        for region in report.regions:
            entries.append(
                {
                    "pos": np.array(region.centroid),
                    "r": region.radius,
                    "phi": region.azimuth,
                    "chi": _spin_phase(unit, density.sigma, report.labels, region),
                }
            )
        per_sample.append(entries)
        counts.append(len(entries))

    tracks: list[dict] = []
    ambiguous: list[bool] = []

    def _new_track(i_sample: int, entry: dict) -> None:
        tracks.append(
            {
                "active": True,
                "pos": entry["pos"],
                "prev_pos": None,
                "phi": entry["phi"],
                "chi": entry["chi"],
                "rows": {i_sample: (entry["r"], entry["phi"], entry["chi"])},
            }
        )

    for i_sample, entries in enumerate(per_sample):
        flagged = False
        if i_sample == 0 or not any(t["active"] for t in tracks):
            for e in entries:
                _new_track(i_sample, e)
            ambiguous.append(False)
            continue
        active = [t for t in tracks if t["active"]]
        if not entries:
            for t in active:
                t["active"] = False
            ambiguous.append(False)
            continue

        prev_positions = np.array([t["pos"] for t in active])
        new_positions = np.array([e["pos"] for e in entries])
        raw = np.linalg.norm(
            prev_positions[:, None, :] - new_positions[None, :, :], axis=2
        )
        predicted = []
        for t in active:
            if t["prev_pos"] is not None:
                predicted.append(2.0 * t["pos"] - t["prev_pos"])
            else:
                predicted.append(t["pos"])
        predicted = np.array(predicted)
        cost = np.linalg.norm(
            predicted[:, None, :] - new_positions[None, :, :], axis=2
        )
        rows, cols = linear_sum_assignment(cost)

        if len(active) >= 2:
            spacing = np.linalg.norm(
                prev_positions[:, None, :] - prev_positions[None, :, :], axis=2
            )
            np.fill_diagonal(spacing, np.inf)
            bound = 0.5 * float(spacing.min())
        else:
            bound = math.inf

        matched_entries = set()
        for i_track, j_entry in zip(rows, cols):
            track = active[i_track]
            entry = entries[j_entry]
            if raw[i_track, j_entry] > bound:
                track["active"] = False
                continue
            others = np.delete(raw[:, j_entry], i_track)
            if others.size and abs(float(others.min()) - raw[i_track, j_entry]) < 1e-9:
                flagged = True
            matched_entries.add(j_entry)
            track["prev_pos"] = track["pos"]
            track["pos"] = entry["pos"]
            # unwrapped values agree with the raw angles mod 2*pi, so the
            # wrapped increment against them is the true step
            track["phi"] += _wrap_delta(entry["phi"] - track["phi"])
            track["chi"] += _wrap_delta(entry["chi"] - track["chi"])
            track["rows"][i_sample] = (entry["r"], track["phi"], track["chi"])
        for i_track, t in enumerate(active):
            if i_track not in rows:
                t["active"] = False
        for j_entry, e in enumerate(entries):
            if j_entry not in matched_entries:
                _new_track(i_sample, e)
        ambiguous.append(flagged)

    n_samples = len(sweep)
    n_tracks = len(tracks)
    radii = np.full((n_samples, n_tracks), np.nan)
    orbit = np.full((n_samples, n_tracks), np.nan)
    spin = np.full((n_samples, n_tracks), np.nan)
    for k, t in enumerate(tracks):
        for i_sample, (r, phi, chi) in t["rows"].items():
            radii[i_sample, k] = r
            orbit[i_sample, k] = phi
            spin[i_sample, k] = chi
    return DynamicsTrace(
        sweep_param,
        values,
        radii,
        orbit,
        spin,
        tuple(counts),
        tuple(ambiguous),
    )
