"""Topological charge, segmentation, and quasiparticle kinematics."""

import math

import numpy as np
import pytest

from qskyrm import (
    GridSpec,
    InsufficientCoverageError,
    ProjectionAngles,
    SkyrmionDensityField,
    UnitStokesField,
    UnsupportedStateError,
    balanced_switch_state,
    conditional_stokes,
    locate_quasiparticles,
    normalize_stokes,
    skyrmion_density,
    skyrmion_number,
    sphere_sweep,
    track_dynamics,
)

EQUATOR = ProjectionAngles(0.5 * math.pi, 0.0)


def unit_texture(grid, binary_state, angles=EQUATOR, floor=1e-6):
    return normalize_stokes(conditional_stokes(binary_state, angles, grid), floor)


def uniform_unit_field(grid, direction=(0.0, 0.0, 1.0)):
    s = np.zeros((3,) + grid.shape)
    for k, v in enumerate(direction):
        s[k] = v
    mask = np.ones(grid.shape, dtype=bool)
    s0 = np.ones(grid.shape)
    return UnitStokesField(grid, s, mask, s0, 1e-6)


# ---------------------------------------------------------------------------
# density and total charge
# ---------------------------------------------------------------------------


def test_uniform_texture_has_zero_density(small_grid):
    density = skyrmion_density(uniform_unit_field(small_grid))
    np.testing.assert_allclose(density.sigma, 0.0, atol=1e-15)
    assert density.spin is not None
    assert abs(skyrmion_number(density)) < 1e-15


def test_density_requires_coverage(small_grid):
    field = uniform_unit_field(small_grid)
    s = field.s.copy()
    s[:, : small_grid.ny // 8, :] = np.nan  # blank out 12.5% of the rows
    broken = UnitStokesField(small_grid, s, field.mask, field.s0, 1e-6)
    with pytest.raises(InsufficientCoverageError):
        skyrmion_density(broken)


def test_number_rejects_non_finite_density(small_grid, binary_state):
    # two NaN rows of 128 pass the density's coverage gate, but the
    # integral must not quietly come back as nan
    unit = unit_texture(small_grid, binary_state)
    s = unit.s.copy()
    s[:, 60:62, :] = np.nan
    broken = UnitStokesField(small_grid, s, unit.mask, unit.s0, unit.intensity_floor)
    density = skyrmion_density(broken)
    with pytest.raises(InsufficientCoverageError, match=r"finite on 9\d\.\d%"):
        skyrmion_number(density)
    with pytest.raises(InsufficientCoverageError):
        locate_quasiparticles(density)


def test_binary_pole_charge(mid_grid, binary_state):
    unit = unit_texture(mid_grid, binary_state, ProjectionAngles(0.0, 0.0))
    n = skyrmion_number(skyrmion_density(unit))
    assert abs(n + 2.0) < 0.15


def test_binary_equator_charge(mid_grid, binary_state):
    unit = unit_texture(mid_grid, binary_state)
    n = skyrmion_number(skyrmion_density(unit))
    assert abs(n + 4.0) < 0.15


def test_charge_sign_definite_density(mid_grid, binary_state):
    # ladder heralds wrap the sphere one way: the positive part of sigma is
    # discretization dust, negligible against the net charge
    unit = unit_texture(mid_grid, binary_state, ProjectionAngles(1.1, 2.0))
    density = skyrmion_density(unit)
    area = mid_grid.cell_area
    positive = float(np.clip(density.sigma, 0.0, None).sum() * area)
    net = float(density.sigma.sum() * area)
    assert net < -1.0
    assert positive < 0.01 * abs(net)


def test_waist_invariance(binary_state):
    # doubling waist and window together is a pure dilation: n is unchanged
    n1 = skyrmion_number(
        skyrmion_density(
            unit_texture(GridSpec(256, 256, 4.0, 1.0), binary_state)
        )
    )
    n2 = skyrmion_number(
        skyrmion_density(
            unit_texture(GridSpec(256, 256, 8.0, 2.0), binary_state)
        )
    )
    assert abs(n1 - n2) < 1e-9


def test_equator_alpha_independence(mid_grid, binary_state):
    values = []
    for alpha in (0.0, 0.9, 2.4, 4.4):
        unit = unit_texture(mid_grid, binary_state, ProjectionAngles(0.5 * math.pi, alpha))
        values.append(skyrmion_number(skyrmion_density(unit)))
    assert np.ptp(values) < 0.01


def test_sphere_sweep_layout(small_grid, binary_state):
    smap = sphere_sweep(
        binary_state,
        theta_samples=(0.0, 0.5 * math.pi, math.pi),
        alpha_samples=(0.0, math.pi),
        grid=small_grid,
    )
    assert smap.n_values.shape == (3, 2)
    assert smap.valid.all()
    # poles are alpha independent, equator deepens the charge
    np.testing.assert_allclose(smap.n_values[0], smap.n_values[0, 0], atol=1e-9)
    assert smap.n_values[1, 0] < smap.n_values[0, 0] - 1.0


def test_sphere_sweep_rejects_empty_samples(binary_state):
    with pytest.raises(ValueError):
        sphere_sweep(binary_state, theta_samples=(), alpha_samples=(0.0,))


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_locate_requires_spin_field(small_grid):
    bare = SkyrmionDensityField(small_grid, np.zeros(small_grid.shape))
    with pytest.raises(UnsupportedStateError):
        locate_quasiparticles(bare)


def test_uniform_cap_is_all_central(small_grid):
    density = skyrmion_density(uniform_unit_field(small_grid))
    report = locate_quasiparticles(density)
    assert report.count == 0
    assert report.regions == ()
    assert abs(report.central_charge) < 1e-12


def test_south_texture_has_no_cap(small_grid):
    density = skyrmion_density(uniform_unit_field(small_grid, (0.0, 0.0, -1.0)))
    report = locate_quasiparticles(density)
    assert report.count == 0
    assert report.central_labels == ()


def test_binary_equator_decomposition(mid_grid, binary_state):
    density = skyrmion_density(unit_texture(mid_grid, binary_state))
    report = locate_quasiparticles(density)
    assert report.count == 2
    assert report.labels.shape == mid_grid.shape
    for region in report.regions:
        assert abs(region.charge + 1.0) < 0.2
        assert abs(region.radius - 1.32) < 0.15
        assert region.area > 0.0
    assert abs(report.central_charge + 2.0) < 0.2
    # additivity is exact by construction
    residue = report.total - report.central_charge - sum(r.charge for r in report.regions)
    assert abs(residue) < 1e-12


def test_binary_satellite_azimuths_follow_alpha(mid_grid, binary_state):
    # satellite cores sit where 2*phi + alpha = pi (mod 2*pi)
    for alpha in (0.0, 0.8):
        density = skyrmion_density(
            unit_texture(mid_grid, binary_state, ProjectionAngles(0.5 * math.pi, alpha))
        )
        report = locate_quasiparticles(density)
        assert report.count == 2
        for region in report.regions:
            miss = (2.0 * region.azimuth + alpha - math.pi) % (2.0 * math.pi)
            miss = min(miss, 2.0 * math.pi - miss)
            assert miss < 0.1


def test_triple_equator_decomposition(mid_grid, triple_state):
    density = skyrmion_density(unit_texture(mid_grid, triple_state))
    report = locate_quasiparticles(density)
    assert report.count == 3
    for region in report.regions:
        assert abs(region.charge + 1.0) < 0.2
    assert abs(report.central_charge + 3.0) < 0.25
    # three-fold symmetry: consecutive azimuths 2*pi/3 apart
    azimuths = np.sort([r.azimuth for r in report.regions])
    gaps = np.diff(azimuths)
    np.testing.assert_allclose(gaps, 2.0 * math.pi / 3.0, atol=0.05)


def test_central_radius_override(mid_grid, binary_state):
    density = skyrmion_density(unit_texture(mid_grid, binary_state))
    # widening the central disk past the satellite ring swallows both cores
    report = locate_quasiparticles(density, central_radius=2.0)
    assert report.count == 0
    assert abs(report.central_charge - report.total) < 1e-12


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def test_track_dynamics_validation(small_grid, binary_state):
    fixed = [ProjectionAngles(1.0, 0.5)] * 5
    with pytest.raises(ValueError):
        track_dynamics(binary_state, fixed, small_grid)
    short = [ProjectionAngles(1.0, a) for a in (0.0, 0.5, 1.0)]
    with pytest.raises(ValueError):
        track_dynamics(binary_state, short, small_grid)
    both = [ProjectionAngles(0.1 * k, 0.1 * k) for k in range(5)]
    with pytest.raises(ValueError):
        track_dynamics(binary_state, both, small_grid)


def test_alpha_scan_orbit_and_spin(small_grid, binary_state):
    sweep = [
        ProjectionAngles(1.26, a) for a in np.linspace(0.0, 2.0 * math.pi, 13)
    ]
    trace = track_dynamics(binary_state, sweep, small_grid)
    assert trace.sweep_param == "alpha"
    assert trace.counts == (2,) * 13
    assert trace.n_tracks == 2
    assert not any(trace.ambiguous)
    # half-turn counter-rotation of the pair, full half-turn of each texture
    orbit = trace.net_orbit()
    spin = trace.net_spin()
    np.testing.assert_allclose(orbit, -math.pi, atol=0.2)
    np.testing.assert_allclose(spin, math.pi, atol=0.25)
    # orbit decreases monotonically across the scan
    diffs = np.diff(trace.orbit_angles, axis=0)
    assert np.all(diffs < 0.0)


def test_theta_scan_radii_shrink(small_grid, binary_state):
    sweep = [ProjectionAngles(t, 3.77) for t in np.linspace(0.63, 1.57, 5)]
    trace = track_dynamics(binary_state, sweep, small_grid)
    assert trace.sweep_param == "theta"
    assert trace.counts == (2,) * 5
    for k in range(trace.n_tracks):
        radii = trace.radii[:, k]
        assert np.all(np.isfinite(radii))
        assert np.all(np.diff(radii) < 0.0)
