"""Frames of one dynamics sweep render concurrently and give the serial
results.

``track_dynamics`` renders its frames on a thread pool sized by the CPUs the
process may use.  Each test here builds the serial result from the same
stages and requires equal arrays, or checks the order and failure rules of
the ``on_frame`` callback, the latter on pools of one, two and eight threads
whatever the host's CPUs.  The density-state sphere sweep, whose frames
share the same mode caches, is checked against its serial reference too.
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from qskyrm import (
    GridSpec,
    InsufficientCoverageError,
    ProjectionAngles,
    QPlateParams,
    ZeroProbabilityError,
    balanced_switch_state,
    build_spin_skyrmion_state,
    herald_polarization,
    sphere_sweep,
    track_dynamics,
)
from qskyrm import cli, topology
from qskyrm.cli import main
from qskyrm.modes import _meshgrid
from qskyrm.stokesfield import orientation_psi
from qskyrm.topology import (
    _link_tracks,
    locate_quasiparticles,
    photon_frame,
    skyrmion_number,
)

GRID = GridSpec(64, 64)


def _whole_grid_spin_phase(density, two_psi, labels, region):
    """The co-moving phase of one region, read on every cell of the grid."""
    xx, yy = _meshgrid(density.grid)
    cells = labels == region.label
    cx, cy = region.centroid
    beta = np.arctan2(yy[cells] - cy, xx[cells] - cx)
    winding = math.copysign(1.0, region.charge) if region.charge else -1.0
    w = np.abs(density.sigma[cells])
    return float(np.angle(np.sum(w * np.exp(1j * (two_psi[cells] - winding * beta)))))


def _serial_dynamics(state, sweep, grid):
    """``(radii, orbit, spin, ambiguous, counts, frames)`` of a sweep, one
    sample after another on this thread."""
    per_sample, frames = [], []
    for i, angles in enumerate(sweep):
        try:
            photon, _ = topology.herald_polarization(state, angles)
        except ZeroProbabilityError:
            per_sample.append([])
            continue
        unit, density = photon_frame(photon, grid)
        report = locate_quasiparticles(density)
        two_psi = 2.0 * orientation_psi(unit)
        per_sample.append(
            [(*r.centroid, _whole_grid_spin_phase(density, two_psi, report.labels, r))
             for r in report.regions]
        )
        frames.append((i, density.sigma))
    counts = tuple(len(entries) for entries in per_sample)
    return (*_link_tracks(per_sample), counts, frames)


@pytest.fixture
def unheralded_middle(monkeypatch):
    """The binary state's alpha orbit, with its middle sample unheralded:
    herald_polarization raises ZeroProbabilityError there, as it does for a
    heralding probability below its floor."""
    sweep = [ProjectionAngles(1.26, a) for a in np.linspace(0.0, 2.0 * math.pi, 9)]
    herald = topology.herald_polarization

    def heralding(state, angles):
        if angles == sweep[4]:
            raise ZeroProbabilityError("heralding probability 0.000e+00 below 1e-12")
        return herald(state, angles)

    monkeypatch.setattr(topology, "herald_polarization", heralding)
    return balanced_switch_state((0, -2, -4)), sweep


@pytest.fixture(params=[1, 2, 8])
def pool_size(request, monkeypatch):
    """A frame pool of one, two or eight threads, whatever CPUs the host has."""
    workers = request.param
    monkeypatch.setattr(topology, "_MAX_FRAME_WORKERS", workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    return workers


def _plate_off():
    # the plate off: heralding at the south pole has zero probability
    state = build_spin_skyrmion_state((0,), QPlateParams(1.0, 0.0))
    return state, [ProjectionAngles(t, 0.3) for t in (0.4, 1.2, math.pi, 2.0, 2.6)]


def _assert_same_trace(trace, reference, shown):
    radii, orbit, spin, ambiguous, counts, frames = reference
    np.testing.assert_array_equal(trace.radii, radii)
    np.testing.assert_array_equal(trace.orbit_angles, orbit)
    np.testing.assert_array_equal(trace.spin_angles, spin)
    assert trace.ambiguous == ambiguous
    assert trace.counts == counts
    assert [i for i, _ in shown] == [i for i, _ in frames]
    for (_, a), (_, b) in zip(shown, frames):
        np.testing.assert_array_equal(a, b)


def test_dynamics_matches_serial_reference(unheralded_middle):
    state, sweep = unheralded_middle
    shown = []
    trace = track_dynamics(
        state, sweep, GRID, on_frame=lambda i, unit, density, psi: shown.append((i, density.sigma))
    )
    reference = _serial_dynamics(state, sweep, GRID)
    assert trace.counts[4] == 0 and sum(trace.counts) > 0
    _assert_same_trace(trace, reference, shown)


def test_dynamics_with_a_zero_probability_sample():
    state, sweep = _plate_off()
    with pytest.raises(ZeroProbabilityError):
        herald_polarization(state, sweep[2])
    shown = []
    trace = track_dynamics(
        state, sweep, GRID, on_frame=lambda i, unit, density, psi: shown.append((i, density.sigma))
    )
    _assert_same_trace(trace, _serial_dynamics(state, sweep, GRID), shown)


def test_many_threads_deliver_in_order(unheralded_middle, monkeypatch):
    # more pool threads than CPUs, and a short switch interval, so that the
    # threads interleave as often as they can
    state, sweep = unheralded_middle
    monkeypatch.setattr(topology, "_MAX_FRAME_WORKERS", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    shown, active, overlaps = [], [0], []
    lock = threading.Lock()

    def on_frame(i, unit, density, psi):
        with lock:
            active[0] += 1
            overlaps.append(active[0])
        shown.append((i, density.sigma))
        with lock:
            active[0] -= 1

    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=lambda: result.append(track_dynamics(state, sweep, GRID, on_frame=on_frame))
        )
        runner.start()
        runner.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(result) == 1
    assert max(overlaps) == 1
    _assert_same_trace(result[0], _serial_dynamics(state, sweep, GRID), shown)


def test_density_sphere_matches_serial_reference(binary_state):
    rho = binary_state.to_density()
    thetas, alphas = (0.0, 0.9, 1.8, math.pi), (0.0, 2.0, 4.0)
    smap = sphere_sweep(rho, thetas, alphas, GRID)
    expected = np.full((len(thetas), len(alphas)), np.nan)
    for i, theta in enumerate(thetas):
        for j, alpha in enumerate(alphas):
            photon, _ = herald_polarization(rho, ProjectionAngles(theta, alpha))
            expected[i, j] = skyrmion_number(photon_frame(photon, GRID)[1])
    np.testing.assert_array_equal(smap.n_values, expected)
    assert (smap.method == "grid").all() and smap.valid.all()


# ladder (-2, -4, 0): heralding at theta = 0 leaves |R, -2> + |L, -4>, with no
# l = 0 amplitude, so that frame is undefined on the beam axis of an odd grid
FAILING_THETAS = (1.6, 1.2, 0.8, 0.0, 0.4, 2.0)


def test_failed_frame_ends_the_deliveries(pool_size):
    state = balanced_switch_state((-2, -4, 0))
    sweep = [ProjectionAngles(t, 0.3) for t in FAILING_THETAS]
    shown = []
    with pytest.raises(InsufficientCoverageError):
        track_dynamics(state, sweep, GridSpec(33, 33), on_frame=lambda i, *frame: shown.append(i))
    assert shown == [0, 1, 2]


def test_failed_frame_exits_4(tmp_path, capsys, monkeypatch):
    out = tmp_path / "dyn"
    argv = ["dynamics", "--ladder=-2,-4,0", "--grid-n", "33", "--out", str(out),
            "--theta", ",".join(str(t) for t in FAILING_THETAS)]
    written = []
    write_pgm = cli.write_pgm

    def recording(path, array):
        written.append(os.path.basename(path))
        write_pgm(path, array)

    monkeypatch.setattr(cli, "write_pgm", recording)
    assert main(argv) == 4
    assert "numerical failure" in capsys.readouterr().err
    frames = sorted(name for name in written if name.endswith("_sigma.pgm"))
    assert frames == [f"frame_{i:03d}_sigma.pgm" for i in range(3)]
    # the failed run deletes the rasters it wrote
    assert os.listdir(out) == []


def test_first_failure_in_sample_order_is_raised(monkeypatch, pool_size):
    # on two threads or more, sample 3 fails while sample 2 is still
    # running; sample 2's error is the one raised
    sweep = [ProjectionAngles(1.26, a) for a in np.linspace(0.0, 2.0, 6)]
    herald = topology.herald_polarization

    def heralding(state, angles):
        if angles == sweep[2]:
            time.sleep(0.2)
            raise RuntimeError("sample 2")
        if angles == sweep[3]:
            raise RuntimeError("sample 3")
        return herald(state, angles)

    monkeypatch.setattr(topology, "herald_polarization", heralding)
    shown = []
    with pytest.raises(RuntimeError, match="sample 2"):
        track_dynamics(
            balanced_switch_state((0, -2, -4)), sweep, GRID, on_frame=lambda i, *frame: shown.append(i)
        )
    assert shown == [0, 1]


def test_failing_callback_ends_the_deliveries(unheralded_middle, pool_size):
    # on_frame raises at sample 1: a pool of one then runs sample 2, which
    # must not wait for a delivery that never comes
    state, sweep = unheralded_middle
    shown, result, errors = [], [], []

    def on_frame(i, unit, density, psi):
        shown.append(i)
        if i == 1:
            raise RuntimeError("on_frame at sample 1")

    def run():
        try:
            result.append(track_dynamics(state, sweep, GRID, on_frame=on_frame))
        except RuntimeError as exc:
            errors.append(str(exc))

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=120.0)
    assert not runner.is_alive()
    assert result == [] and errors == ["on_frame at sample 1"]
    assert shown == [0, 1]
