"""Every frame consumer renders its frames through ``topology.photon_frame``."""

import math

import pytest

from qskyrm import GridSpec, ProjectionAngles, sphere_sweep, track_dynamics
from qskyrm import cli, topology
from qskyrm.cli import main


@pytest.fixture
def frame_calls(monkeypatch):
    """Counts calls of the frame function at every place a caller looks it up."""
    calls = []
    render = topology.photon_frame

    def counting(photon, grid, intensity_floor):
        calls.append(photon.data.tobytes())
        return render(photon, grid, intensity_floor)

    monkeypatch.setattr(topology, "photon_frame", counting)
    monkeypatch.setattr(cli, "photon_frame", counting)
    return calls


def test_sphere_sweep_frames(binary_state, frame_calls):
    sphere_sweep(binary_state.to_density(), grid=GridSpec(32, 32))
    # every azimuth at theta = 0 heralds the same photon: 72 - 7 frames
    assert len(frame_calls) == 65


def test_pure_sphere_sweep_renders_no_frame(binary_state, frame_calls):
    smap = sphere_sweep(binary_state, grid=GridSpec(32, 32))
    assert (smap.method == "exact").all()
    assert frame_calls == []


def test_track_dynamics_frames(binary_state, frame_calls):
    sweep = [ProjectionAngles(1.26, a) for a in (0.0, 0.9, 1.8, 2.7, 3.6)]
    track_dynamics(binary_state, sweep, GridSpec(48, 48))
    assert len(frame_calls) == 5


@pytest.mark.parametrize("command", ["skyrmion-number", "quasiparticles"])
def test_fixed_angle_commands_render_one_frame(tmp_path, frame_calls, command):
    assert main([command, "--out", str(tmp_path), "--grid-n", "48"]) == 0
    assert len(frame_calls) == 1


def test_dropped_dynamics_sample_fails_at_the_herald(tmp_path, capsys, frame_calls):
    # the tracker renders the four heralded samples; computing the dropped
    # one again raises at the herald, before any frame is rendered
    argv = ["dynamics", "--out", str(tmp_path), "--grid-n", "48", "--tuning", "0"]
    thetas = ",".join(str(t) for t in (0.0, 0.8, 1.6, 2.4, math.pi))
    assert main(argv + ["--theta", thetas]) == 4
    assert "heralding probability" in capsys.readouterr().err
    assert len(frame_calls) == 4
