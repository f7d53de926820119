"""Topological charge, segmentation, and quasiparticle kinematics."""

import math
import re

import numpy as np
import pytest

from qskyrm import (
    EmptyFieldError,
    GridSpec,
    InsufficientCoverageError,
    ProjectionAngles,
    QPlateParams,
    State,
    UnitStokesField,
    ZeroProbabilityError,
    balanced_switch_state,
    build_spin_skyrmion_state,
    conditional_stokes,
    locate_quasiparticles,
    normalize_stokes,
    skyrmion_density,
    skyrmion_number,
    sphere_sweep,
    track_dynamics,
)
from qskyrm import topology

EQUATOR = ProjectionAngles(0.5 * math.pi, 0.0)


def unit_texture(grid, binary_state, angles=EQUATOR):
    return normalize_stokes(conditional_stokes(binary_state, angles, grid))


def uniform_unit_field(grid, direction=(0.0, 0.0, 1.0)):
    s = np.zeros((3,) + grid.shape)
    for k, v in enumerate(direction):
        s[k] = v
    return UnitStokesField(grid, s)


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
    broken = UnitStokesField(small_grid, s)
    with pytest.raises(InsufficientCoverageError):
        skyrmion_density(broken)


def test_number_rejects_non_finite_density(small_grid, binary_state):
    # two NaN rows of 128 pass the density's coverage gate, but the
    # integral must not quietly come back as nan
    unit = unit_texture(small_grid, binary_state)
    s = unit.s.copy()
    s[:, 60:62, :] = np.nan
    broken = UnitStokesField(small_grid, s)
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


@pytest.mark.parametrize(
    "thetas, alphas",
    [
        ((0.5, 4.0), (0.0, 7.0)),  # alpha fails first, at theta 0.5
        ((0.5, 4.0), (0.0, 1.0)),
        ((0.5, -0.1), (math.nan, 1.0)),  # the first pair fails: not finite
        ((0.5, math.inf), (0.0, -0.1)),
    ],
)
def test_sphere_sweep_rejects_an_angle_as_its_first_herald(binary_state, thetas, alphas):
    # the message of the first pair, in raster order, that ProjectionAngles
    # rejects
    with pytest.raises(ValueError) as single:
        for theta in thetas:
            for alpha in alphas:
                ProjectionAngles(theta, alpha)
    with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
        sphere_sweep(binary_state, thetas, alphas)


def test_herald_rows_are_the_herald_kets():
    # the ket cos(theta/2)|R> + sin(theta/2) e^{i alpha}|L> with scalar
    # math.cos and math.sin, to the bit, in raster order
    thetas = [*topology.DEFAULT_THETA_SAMPLES, 0.3, 2.9]
    alphas = [*topology.DEFAULT_ALPHA_SAMPLES, 2.0 * math.pi, 0.1]
    rows = topology._herald_kets(thetas, alphas)
    expected = np.array(
        [[math.cos(0.5 * t), math.sin(0.5 * t) * np.exp(1j * a)] for t in thetas for a in alphas], dtype=complex
    )
    assert rows.tobytes() == expected.tobytes()
    assert ProjectionAngles(thetas[-1], alphas[-1]).ket().tobytes() == expected[-1].tobytes()


def reference_sweep(state, grid):
    """One frame per sample, as the sweep computed it before it kept one frame
    per distinct heralded photon."""
    thetas, alphas = topology.DEFAULT_THETA_SAMPLES, topology.DEFAULT_ALPHA_SAMPLES
    n_values = np.full((len(thetas), len(alphas)), np.nan)
    valid = np.zeros(n_values.shape, dtype=bool)
    for i, theta in enumerate(thetas):
        for j, alpha in enumerate(alphas):
            try:
                field = conditional_stokes(state, ProjectionAngles(theta, alpha), grid)
                unit = normalize_stokes(field)
            except (ZeroProbabilityError, EmptyFieldError):
                continue
            n_values[i, j] = skyrmion_number(skyrmion_density(unit))
            valid[i, j] = True
    return n_values, valid


def right_heralded_only(state):
    """The binary state with photon A's L branch removed: heralding on |L>
    (theta = pi) has zero probability."""
    psi = state.tensor().copy()
    psi[1] = 0.0
    return State.pure(state.space, psi, normalize=True)


@pytest.mark.parametrize("which", ["binary", "vanishing-herald"])
def test_sphere_sweep_matches_per_sample_frames(binary_state, which):
    # a density matrix takes the grid path at every sample
    state = binary_state if which == "binary" else right_heralded_only(binary_state)
    state = state.to_density()
    grid = GridSpec(nx=48, ny=40, half_extent=4.0)
    smap = sphere_sweep(state, grid=grid)
    n_values, valid = reference_sweep(state, grid)
    assert smap.n_values.tobytes() == n_values.tobytes()
    assert smap.valid.tobytes() == valid.tobytes()
    if which == "vanishing-herald":
        assert not smap.valid[-1].any() and np.isnan(smap.n_values[-1]).all()
        assert smap.valid[:-1].all()


def test_sphere_sweep_renders_each_distinct_photon_once(binary_state, monkeypatch):
    calls = []
    synthesize = topology.unit_texture

    def counting(photon, grid):
        calls.append(photon.data.tobytes())
        return synthesize(photon, grid)

    monkeypatch.setattr(topology, "unit_texture", counting)
    smap = sphere_sweep(binary_state.to_density(), grid=GridSpec(nx=32, ny=32))
    assert smap.valid.all()
    # every azimuth at theta = 0 heralds the same photon: 72 - 7 frames
    assert len(calls) == 65
    assert len(set(calls)) == 65


def test_sphere_sweep_flags_empty_fields_invalid(binary_state, monkeypatch):
    def empty(photon, grid):
        raise EmptyFieldError("field carries no intensity")

    monkeypatch.setattr(topology, "unit_texture", empty)
    smap = sphere_sweep(
        binary_state.to_density(),
        theta_samples=(0.0, 1.0),
        alpha_samples=(0.0, 2.0),
        grid=GridSpec(8, 8),
    )
    assert not smap.valid.any()
    assert np.isnan(smap.n_values).all()
    assert (smap.method == "grid").all()


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


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
    assert not report.labels.any()


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


def test_on_frame_sees_each_kept_sample():
    # with the plate off, heralding at the south pole has zero probability,
    # so the tracker drops the last sample and does not pass it on
    state = build_spin_skyrmion_state([0], QPlateParams(1.0, 0.0))
    grid = GridSpec(64, 64)
    sweep = [ProjectionAngles(t, 0.0) for t in (0.0, 0.8, 1.6, 2.4, math.pi)]
    seen = []

    def on_frame(i, unit, density, psi):
        np.testing.assert_array_equal(density.sigma, skyrmion_density(unit).sigma)
        np.testing.assert_array_equal(psi, topology.orientation_psi(unit))
        seen.append(i)

    trace = track_dynamics(state, sweep, grid, on_frame=on_frame)
    assert seen == [0, 1, 2, 3]
    assert trace.counts[4] == 0


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


def test_orientation_computed_once_per_frame(monkeypatch, binary_state):
    calls = []
    psi = topology.orientation_psi

    def counting(unit):
        calls.append(1)
        return psi(unit)

    monkeypatch.setattr(topology, "orientation_psi", counting)
    sweep = [ProjectionAngles(1.26, a) for a in (0.0, 0.9, 1.8, 2.7, 3.6)]
    trace = track_dynamics(binary_state, sweep, GridSpec(64, 64))
    assert trace.counts == (2,) * 5
    assert len(calls) == 5


# Hand-made entry sequences for the linker: each sample lists its
# quasiparticles as (x, y, chi).  The expected rows are literal values
# recorded from the earlier three-branch linking loop.
NAN = math.nan


def _assert_links(per_sample, radii, orbit, spin, ambiguous):
    got = topology._link_tracks(per_sample)
    for arr, want in zip(got[:3], (radii, orbit, spin)):
        np.testing.assert_array_equal(arr, np.array(want, dtype=float))
    assert got[3] == ambiguous


def test_link_empty_sample_ends_every_track():
    _assert_links(
        [
            [(1.0, 0.0, 0.5), (-1.0, 0.0, -0.5)],
            [(0.9, 0.3, 1.5), (-0.9, -0.3, -1.5)],
            [],
            [(0.0, 1.0, 3.0), (0.0, -1.0, -3.0)],
            [(-0.3, 0.9, -3.0), (0.3, -0.9, 3.0)],
        ],
        [[1.0, 1.0, NAN, NAN],
         [0.9486832980505138, 0.9486832980505138, NAN, NAN],
         [NAN, NAN, NAN, NAN],
         [NAN, NAN, 1.0, 1.0],
         [NAN, NAN, 0.9486832980505138, 0.9486832980505138]],
        [[0.0, 3.141592653589793, NAN, NAN],
         [0.32175055439664213, 3.4633432079864352, NAN, NAN],
         [NAN, NAN, NAN, NAN],
         [NAN, NAN, 1.5707963267948966, -1.5707963267948966],
         [NAN, NAN, 1.8925468811915387, -1.2490457723982544]],
        [[0.5, -0.5, NAN, NAN],
         [1.5, -1.5, NAN, NAN],
         [NAN, NAN, NAN, NAN],
         [NAN, NAN, 3.0, -3.0],
         [NAN, NAN, 3.2831853071795862, -3.2831853071795862]],
        (False,) * 5,
    )


def test_link_restarts_after_every_track_ended():
    # the azimuth and chi unwrap across +-pi along each track, and a
    # restarted track begins again at the raw angles
    _assert_links(
        [
            [(-1.0, 0.1, 3.0)],
            [(-1.0, -0.1, -3.0)],
            [],
            [],
            [(-1.0, -0.2, 2.0)],
            [(-1.0, 0.2, -2.0)],
        ],
        [[1.004987562112089, NAN],
         [1.004987562112089, NAN],
         [NAN, NAN],
         [NAN, NAN],
         [NAN, 1.019803902718557],
         [NAN, 1.019803902718557]],
        [[3.0419240010986313, NAN],
         [3.241261306080955, NAN],
         [NAN, NAN],
         [NAN, NAN],
         [NAN, -2.9441970937399127],
         [NAN, -3.3389882134396736]],
        [[3.0, NAN],
         [3.2831853071795862, NAN],
         [NAN, NAN],
         [NAN, NAN],
         [NAN, 2.0],
         [NAN, 4.283185307179586]],
        (False,) * 6,
    )


def test_link_new_core_starts_a_track():
    _assert_links(
        [
            [(1.0, 0.0, 0.0)],
            [(1.0, 0.2, 0.1), (-1.5, 0.0, 1.0)],
            [(1.0, 0.4, 0.2), (-1.5, -0.2, 1.1)],
        ],
        [[1.0, NAN], [1.019803902718557, 1.5], [1.0770329614269007, 1.5132745950421556]],
        [[0.0, NAN], [0.19739555984988089, 3.141592653589793],
         [0.3805063771123649, 3.274144185886467]],
        [[0.0, NAN], [0.10000000000000009, 1.0], [0.20000000000000018, 1.1]],
        (False,) * 3,
    )


def test_link_far_match_ends_and_starts_a_track():
    # the cores start 2 apart, so a step longer than 1 is refused
    _assert_links(
        [
            [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)],
            [(1.05, 0.0, 0.1), (-1.0, 1.5, 0.2)],
            [(1.1, 0.0, 0.2), (-1.0, 1.6, 0.3)],
        ],
        [[1.0, 1.0, NAN], [1.05, NAN, 1.8027756377319946], [1.1, NAN, 1.886796226411321]],
        [[0.0, 3.141592653589793, NAN], [0.0, NAN, 2.158798930342464],
         [0.0, NAN, 2.129395642138459]],
        [[0.0, 0.0, NAN], [0.10000000000000009, NAN, 0.2],
         [0.20000000000000018, NAN, 0.3000000000000001]],
        (False,) * 3,
    )


def test_link_exact_tie_is_ambiguous():
    # the entry at the origin lies exactly 1 from both tracks
    _assert_links(
        [
            [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
            [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5)],
        ],
        [[1.0, 1.0], [0.0, 1.0]],
        [[3.141592653589793, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.5]],
        (False, True),
    )
