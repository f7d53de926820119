"""Segmentation on the cap's crop against the whole-grid segmentation.

``locate_quasiparticles`` smooths, labels and transforms only a crop around
the polar cap.  The oracles here are the whole-grid computations it
replaced: the report (labels, regions, charges) and the nearest-feature
indices of ``distance_transform_edt`` must come out bit for bit the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt, gaussian_filter
from scipy.ndimage import label as connected_label

from qskyrm import (
    GridSpec,
    ProjectionAngles,
    QuasiparticleRegion,
    QuasiparticleReport,
    UnitStokesField,
    herald_polarization,
    locate_quasiparticles,
    photon_frame,
    skyrmion_density,
    skyrmion_number,
)
from qskyrm.modes import _meshgrid
from qskyrm.topology import _CAP_LEVEL, _MIN_REGION_CHARGE, _SMOOTH_WAIST


def whole_grid_report(density, central_radius=None):
    """The segmentation run on every cell of the grid."""
    grid = density.grid
    if central_radius is None:
        central_radius = grid.waist
    sigma, area = density.sigma, grid.cell_area
    total = skyrmion_number(density)
    s3 = density.spin[2]
    width = _SMOOTH_WAIST * grid.waist
    kernel = (max(1.0, width / grid.dy), max(1.0, width / grid.dx))
    smoothed = gaussian_filter(s3, sigma=kernel) > _CAP_LEVEL
    seeds, n_islands = connected_label(smoothed, structure=np.ones((3, 3), dtype=bool))
    if n_islands == 0:
        return QuasiparticleReport(0, (), total, total, seeds)
    iy_n, ix_n = distance_transform_edt(
        seeds == 0, return_distances=False, return_indices=True
    )
    labels = np.where(s3 > _CAP_LEVEL, seeds[iy_n, ix_n], 0)
    xx, yy = _meshgrid(grid)
    iy, ix = grid.ny // 2, grid.nx // 2
    axis_labels = set(labels[iy - 1 : iy + 1, ix - 1 : ix + 1].ravel()) - {0}
    regions = []
    for lab in range(1, n_islands + 1):
        cells = labels == lab
        if not cells.any():
            continue
        charge = 2.0 / (1.0 - _CAP_LEVEL) * float(sigma[cells].sum() * area)
        w_cells = np.abs(sigma[cells])
        w_total = float(w_cells.sum())
        if w_total > 0.0:
            cx = float((xx[cells] * w_cells).sum() / w_total)
            cy = float((yy[cells] * w_cells).sum() / w_total)
        else:
            cx, cy = float(xx[cells].mean()), float(yy[cells].mean())
        central = lab in axis_labels or math.hypot(cx, cy) <= central_radius
        if not central and abs(charge) >= _MIN_REGION_CHARGE:
            regions.append(
                QuasiparticleRegion(lab, (cx, cy), charge, float(cells.sum() * area))
            )
    central_charge = total - sum(r.charge for r in regions)
    return QuasiparticleReport(len(regions), tuple(regions), central_charge, total, labels)


def density_of(grid, s3, phi):
    """Skyrmion density of the unit field with polar height ``s3`` and
    in-plane angle ``phi``."""
    rho = np.sqrt(1.0 - s3**2)
    s = np.stack([rho * np.cos(phi), rho * np.sin(phi), s3])
    ones = np.ones(grid.shape)
    return skyrmion_density(UnitStokesField(grid, s, ones > 0, ones, 1e-6))


def assert_same_report(got, want):
    assert got.count == want.count
    assert got.regions == want.regions
    assert got.central_charge == want.central_charge
    assert got.total == want.total
    assert np.array_equal(got.labels, want.labels)


# bump centres on the grid, on its edges and corners, and just outside it
EDGE = st.sampled_from([-4.5, -4.0, -3.9, 0.0, 3.9, 4.0, 4.5])
COORD = st.one_of(st.floats(-4.5, 4.5), EDGE)


@st.composite
def textures(draw):
    """A grid and a smooth unit texture: a few skyrmion-like bumps, each a
    Gaussian rise of the polar height (tanh of bumps on a base level) with
    the in-plane angle winding around its centre, plus a tilt."""
    grid = GridSpec(
        nx=draw(st.integers(6, 48)),
        ny=draw(st.integers(6, 48)),
        waist=draw(st.sampled_from([0.5, 1.0, 8.0])),
    )
    xx, yy = _meshgrid(grid)
    h = np.full(grid.shape, draw(st.floats(-1.5, 0.6)))
    phi = draw(st.floats(-2.0, 2.0)) * xx + draw(st.floats(-2.0, 2.0)) * yy
    for _ in range(draw(st.integers(1, 4))):
        x0, y0 = draw(COORD), draw(COORD)
        w = draw(st.floats(0.2, 2.0))
        h += draw(st.one_of(st.floats(1.0, 4.0), st.floats(-1.0, 1.0))) * np.exp(-((xx - x0) ** 2 + (yy - y0) ** 2) / w**2)
        phi += draw(st.integers(-2, 2)) * np.arctan2(yy - y0, xx - x0)
    return grid, np.tanh(h), phi


@settings(max_examples=150, deadline=None)
@given(textures())
def test_cropped_segmentation_matches_whole_grid(texture):
    grid, s3, phi = texture
    density = density_of(grid, s3, phi)
    assert_same_report(locate_quasiparticles(density), whole_grid_report(density))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(6, 40),
    st.integers(6, 40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), min_size=1, max_size=3),
    st.sampled_from([0.5 + 1e-12, 0.7, 0.99, 0.5, 0.5 - 5e-10]),
    st.sampled_from([-0.9, 0.0, 0.49, 0.5 - 2e-9]),
    st.sampled_from([1.0, 8.0]),
)
def test_one_cell_caps_match_whole_grid(ny, nx, cells, peak, floor, waist):
    # a cap of single cells, at the grid's corners and edges too, on a flat
    # floor up to just under the crop's own margin of 1e-9
    grid = GridSpec(nx=nx, ny=ny, waist=waist)
    s3 = np.full(grid.shape, floor)
    for iy, ix in cells:
        s3[min(iy, ny - 1), min(ix, nx - 1)] = peak
    xx, yy = _meshgrid(grid)
    density = density_of(grid, s3, np.arctan2(yy, xx))
    assert_same_report(locate_quasiparticles(density), whole_grid_report(density))


@pytest.mark.parametrize("level", [-1.0, 0.0, 0.5 - 1e-9, 0.5])
def test_no_cap_cells_gives_an_empty_report(level):
    grid = GridSpec(nx=24, ny=20)
    xx, yy = _meshgrid(grid)
    density = density_of(grid, np.full(grid.shape, level), xx + yy)
    report = locate_quasiparticles(density)
    assert_same_report(report, whole_grid_report(density))
    assert report.count == 0 and not report.labels.any()
    assert report.labels.shape == grid.shape


def test_binary_equator_matches_whole_grid(binary_state):
    photon, _ = herald_polarization(binary_state, ProjectionAngles(0.5 * math.pi, 0.3))
    _, density = photon_frame(photon, GridSpec(nx=128, ny=96))
    report = locate_quasiparticles(density)
    assert report.count == 2
    assert_same_report(report, whole_grid_report(density))


@st.composite
def feature_masks(draw):
    """A feature mask (True = feature) with, half the time, features mirrored
    about the box's centre lines so that equidistant features tie."""
    ny, nx = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feature = rng.random((ny, nx)) < draw(st.sampled_from([0.005, 0.02, 0.1, 0.4]))
    y0, x0 = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
    feature[y0, x0] = True
    if draw(st.booleans()):
        feature |= feature[::-1]
    if draw(st.booleans()):
        feature |= feature[:, ::-1]
    return feature


@settings(max_examples=300, deadline=None)
@given(feature_masks(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_cropped_feature_transform_matches_whole_grid(feature, top, bottom, left, right):
    # embed the features in a larger grid; the crop is their bounding box
    # widened by the drawn margins
    grid = np.zeros((feature.shape[0] + 12, feature.shape[1] + 12), dtype=bool)
    grid[6:-6, 6:-6] = feature
    rows = np.flatnonzero(grid.any(axis=1))
    cols = np.flatnonzero(grid.any(axis=0))
    crop = (
        slice(rows[0] - top, rows[-1] + 1 + bottom),
        slice(cols[0] - left, cols[-1] + 1 + right),
    )
    iy, ix = distance_transform_edt(~grid, return_distances=False, return_indices=True)
    cy, cx = distance_transform_edt(~grid[crop], return_distances=False, return_indices=True)
    assert np.array_equal(cy + crop[0].start, iy[crop])
    assert np.array_equal(cx + crop[1].start, ix[crop])
