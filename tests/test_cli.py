"""End-to-end command behavior: exit codes, outputs, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qskyrm import (
    GridSpec,
    OamBasis,
    ProjectionAngles,
    QPlateParams,
    Space,
    State,
    ZeroProbabilityError,
    build_spin_skyrmion_state,
    conditional_stokes,
    herald_polarization,
    normalize_stokes,
    save_state,
    skyrmion_density,
    state_from_dict,
    stokes_of_photon_state,
)
from qskyrm import cli, topology
from qskyrm.cli import _OPTIONS, _build_parser, main, resolve_config
from qskyrm.export import write_pgm

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_build_state_defaults(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["build-state", "--out", str(out)]) == 0
    doc = read_json(out / "state.json")
    assert doc["meta"]["config_sha256"]
    assert "OAM basis [0, -2, -4]" in capsys.readouterr().out


def test_build_state_explicit_ladder(tmp_path):
    out = tmp_path / "run"
    assert main(["build-state", "--out", str(out), "--ladder", "0,-3,-6"]) == 0
    doc = read_json(out / "state.json")
    assert doc["oam_basis"] == [0, -3, -6]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("QSKYRM_OUTPUT_DIR", str(out))
    assert main(["build-state"]) == 0
    assert (out / "state.json").exists()


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"grid": {"n": 64}, "bogus": 1}')
    code = main(["build-state", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"grid": ')
    code = main(["build-state", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    code = main(
        ["build-state", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_missing_state_file(tmp_path):
    code = main(
        ["skyrmion-number", "--state", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_invalid_ladder_rejected(tmp_path, capsys):
    code = main(["build-state", "--out", str(tmp_path), "--ladder", "0,-2"])
    assert code == 2
    assert "ladder" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"state": {"ladder": [0, -3.5, -6]}}, "state.ladder"),
        ({"bell": {"pair": [0, -2.7]}}, "bell.pair"),
        ({"grid": {"n": 64.9}}, "grid.n"),
        ({"grid": {"n": "64"}}, "grid.n"),
        ({"seed": 7.5}, "seed"),
        ({"tomography": {"total_per_setting": 99.9}}, "tomography.total_per_setting"),
        ({"seed": True}, "seed"),
        ({"tomography": {"total_per_setting": True}}, "tomography.total_per_setting"),
        # "noiseless": true is the one way to skip count noise
        ({"tomography": {"total_per_setting": None}}, "tomography.total_per_setting"),
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_integer_settings_reject_non_integers(tmp_path, capsys, doc, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    code = main(["build-state", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "ell_a",
    [-2.0, [-2.0], [0, -2.0], [[-2.0, 1.0]], [[-2.0, 1.0, 0.0], 0.0]],
    ids=json.dumps,
)
def test_projection_takes_integral_float_charges(tmp_path, ell_a):
    # state.ell_a's charges read like every other integer setting: -2.0 is -2
    def built(raw, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"state": {"ell_a": raw}}))
        assert main(["build-state", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        return read_json(tmp_path / name / "state.json")  # config hash included

    exact = json.loads(json.dumps(ell_a).replace(".0", ""))
    assert built(ell_a, "float") == built(exact, "int")


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"grid": {"half_extent": "4"}}, "grid.half_extent"),
        ({"state": {"q": True}}, "state.q"),
        ({"state": {"tuning": False}}, "state.tuning"),
        ({"bell": {"werner_p": "0.5"}}, "bell.werner_p"),
        ({"sweep": {"theta_fixed": "1.0"}}, "sweep.theta_fixed"),
        ({"analysis": {"intensity_floor": "1e-6"}}, "analysis.intensity_floor"),
        ({"state": {"ell_a": [True]}}, "state.ell_a"),
        ({"state": {"ell_a": [-2.5]}}, "state.ell_a"),
        ({"state": {"ell_a": [[1.5, 1.0]]}}, "state.ell_a"),
        ({"tomography": {"noiseless": "no"}}, "tomography.noiseless"),
        ({"tomography": {"witnesses_only": 1}}, "tomography.witnesses_only"),
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_settings_reject_values_of_the_wrong_json_type(tmp_path, capsys, doc, key):
    # each of these used to be coerced: "4" to 4.0, true to 1.0, "no" to True
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    code = main(["build-state", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def wrong_values(kind):
    """Config values of the wrong JSON type for a setting of ``kind``."""
    if isinstance(kind, tuple):
        return [5, "unknown"]
    if kind is str or isinstance(kind, list):
        return [5]
    return ["1"]  # numbers, switches, and state.ell_a's charges


WRONG = [(opt.key, raw) for opt in _OPTIONS for raw in wrong_values(opt.kind)]


def config_doc(key, raw):
    section, _, name = key.rpartition(".")
    return {section: {name: raw}} if section else {name: raw}


@pytest.mark.parametrize("key, raw", WRONG, ids=[f"{k}={r!r}" for k, r in WRONG])
def test_each_setting_rejects_a_value_of_the_wrong_type(tmp_path, capsys, monkeypatch, key, raw):
    # the output directory comes from the environment, so the output_dir row
    # is checked too; nothing may be written before the value is rejected
    out = tmp_path / "o"
    monkeypatch.setenv("QSKYRM_OUTPUT_DIR", str(out))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config_doc(key, raw)))
    assert main(["build-state", "--config", str(cfg)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


# values of the right type that used to pass the configuration check and fail
# only once the command computed with them, as a numerical failure (exit 4)
COMPUTE_TIME_ERRORS = [
    pytest.param(["sphere", "--theta", ","], None, "sweep.theta", id="empty-theta-flag"),
    pytest.param(["dynamics", "--alpha", ","], None, "sweep.alpha", id="empty-alpha-flag"),
    pytest.param(["sphere"], {"sweep": {"alpha": []}}, "sweep.alpha", id="empty-alpha-file"),
    pytest.param(["tomography", "--seed", "-1"], None, "seed", id="negative-seed"),
    pytest.param(["build-state", "--ell-a", "0,0"], None, "state.ell_a", id="duplicate-flag"),
    pytest.param(["build-state"], {"state": {"ell_a": [0, [0, 1.0]]}}, "state.ell_a",
                 id="duplicate-file"),
    pytest.param(["build-state"], {"state": {"ell_a": [[0, 0.0]]}}, "state.ell_a",
                 id="zero-weight"),
]


@pytest.mark.parametrize("argv, doc, key", COMPUTE_TIME_ERRORS)
def test_values_that_fail_only_when_computed_are_config_errors(tmp_path, capsys, argv, doc, key):
    out = tmp_path / "o"
    if doc is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_state_file_is_not_a_descriptor(tmp_path):
    # open() takes an int as a file descriptor: it must never get one
    with open(tmp_path / "held.txt", "w") as held:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"state": {"file": held.fileno()}}))
        assert main(["build-state", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        os.fstat(held.fileno())  # still open


@pytest.mark.parametrize("flag", ["--config", "--state", "--target"])
def test_directory_input_is_missing_input(tmp_path, capsys, flag):
    state_dir = tmp_path / "s"
    assert main(["build-state", "--out", str(state_dir)]) == 0
    argv = ["tomography", "--out", str(tmp_path / "o"), "--witnesses-only"]
    argv += ["--state", str(state_dir / "state.json")]
    capsys.readouterr()
    assert main(argv + [flag, str(tmp_path)]) == 3
    assert "missing input" in capsys.readouterr().err


def test_constant_dynamics_sweep_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["dynamics", "--out", str(out), "--theta", "1,1,1,1,1"]) == 2
    assert "sweep must vary exactly one of theta, alpha" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_settings_are_integers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"n": 64.0}, "tomography": {"total_per_setting": 1e4}}))
    resolved = resolve_config(_build_parser().parse_args(["tomography", "--config", str(cfg)]))
    assert resolved.grid.nx == 64 and type(resolved.grid.nx) is int
    assert resolved.total_per_setting == 10000 and type(resolved.total_per_setting) is int


@pytest.mark.parametrize(
    "written, exact",
    [
        ({"state": {"ell_a": [-2.0]}}, {"state": {"ell_a": [-2]}}),
        ({"grid": {"n": 64.0}}, {"grid": {"n": 64}}),
    ],
    ids=["ell_a", "grid.n"],
)
def test_config_hash_reads_numbers_as_their_setting_takes_them(tmp_path, written, exact):
    def hashed(doc, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        return resolve_config(_build_parser().parse_args(["build-state", "--config", str(cfg)])).hash()

    assert hashed(written, "written") == hashed(exact, "exact")


def test_bad_pair_is_numerical_failure(tmp_path):
    # charge -5 is absent from the built basis; caught during execution
    code = main(["bell", "--out", str(tmp_path), "--pair", "0,-5"])
    assert code == 4


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"n": 64}, "state": {"ladder": [0, -2, -4]}}))
    out = tmp_path / "o"
    code = main(
        [
            "stokes-field",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--grid-n",
            "96",
        ]
    )
    assert code == 0
    header = (out / "stokes_s0.pgm").read_bytes().split(b"\n")[1]
    assert header == b"96 96"


@pytest.mark.parametrize("floor", [1e-6, 1e-3])
def test_resolved_fraction_counts_the_cells_over_the_floor(tmp_path, floor):
    out = tmp_path / "o"
    assert main(["stokes-field", "--out", str(out), "--grid-n", "64", "--floor", str(floor)]) == 0
    state = build_spin_skyrmion_state([0], QPlateParams(1.0, 0.5))
    photon, _ = herald_polarization(state, ProjectionAngles(0.5 * math.pi, 0.0))
    s0 = stokes_of_photon_state(photon, GridSpec(64, 64)).s0
    resolved = np.count_nonzero(s0 >= floor * s0.max())
    assert 0 < resolved < s0.size
    assert read_json(out / "stokes.json")["resolved_fraction"] == resolved / s0.size


@pytest.mark.parametrize("floor", ["0", "1.5"])
def test_floor_outside_the_unit_interval_is_a_config_error(tmp_path, capsys, floor):
    out = tmp_path / "o"
    assert main(["stokes-field", "--out", str(out), "--grid-n", "64", "--floor", floor]) == 2
    assert "analysis.intensity_floor" in capsys.readouterr().err
    assert not out.exists()


def test_skyrmion_number_at_pole(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        [
            "skyrmion-number",
            "--out",
            str(out),
            "--grid-n",
            "128",
            "--theta-fixed",
            "0",
        ]
    )
    assert code == 0
    doc = read_json(out / "skyrmion_number.json")
    assert doc["rounded"] == -2
    assert abs(doc["n"] + 2.0) < 0.15
    assert "n(0.000, 0.000)" in capsys.readouterr().out


def test_sphere_snaps_angles_and_reports_plateaus(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        [
            "sphere",
            "--out",
            str(out),
            "--grid-n",
            "128",
            "--theta",
            "0,3.1416",  # 3.1416 snaps onto pi
            "--alpha",
            "0,3.14159",
        ]
    )
    assert code == 0
    doc = read_json(out / "sphere.json")
    assert doc["theta_samples"][1] == math.pi
    assert -2 in doc["plateaus"]
    assert (out / "sphere.csv").exists()
    assert "plateaus" in capsys.readouterr().out


# README.md's plateaus of the four sphere recipes; every sample of a pure
# state takes the exact path, so the grid size does not matter
SPHERE_PLATEAUS = [
    ("binary_sphere.json", [-2, -4]),
    ("deep_ladder_sphere.json", [-3, -6]),
    ("ternary_sphere.json", [-5, -10, -6]),
    ("ghz_sphere.json", [0, -6]),
]


@pytest.mark.parametrize("recipe, plateaus", SPHERE_PLATEAUS, ids=[r for r, _ in SPHERE_PLATEAUS])
def test_sphere_recipe_plateaus(tmp_path, recipe, plateaus):
    argv = ["sphere", "--config", os.path.join(CONFIG_DIR, recipe), "--grid-n", "64"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "sphere.json")
    assert doc["plateaus"] == plateaus
    assert {m for row in doc["method"] for m in row} == {"exact"}
    assert all(n == round(n) for row in doc["n_values"] for n in row)
    header = (tmp_path / "sphere.csv").read_text().splitlines()[0]
    assert header == "theta,alpha,n,valid,method,outer_radius,core_scale"


def test_sphere_of_density_state_uses_grid(tmp_path):
    fit = tmp_path / "fit"
    assert main(["tomography", "--out", str(fit), "--seed", "7", "--noiseless"]) == 0
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(read_json(fit / "tomography.json")["rho"]))
    out = tmp_path / "o"
    argv = ["sphere", "--state", str(rho_file), "--grid-n", "32", "--theta", "0,1.5708"]
    assert main(argv + ["--alpha", "0", "--out", str(out)]) == 0
    doc = read_json(out / "sphere.json")
    assert doc["method"] == [["grid"], ["grid"]]
    assert doc["outer_radius"] == doc["core_scale"] == [[None], [None]]


def test_density_sphere_heralds_in_one_contraction(tmp_path, monkeypatch):
    # the fitted rho above, over the default 9 x 8 heralds: one
    # eigendecomposition of it for the whole sweep, and the numbers of a
    # herald and a frame per sample
    assert main(["tomography", "--out", str(tmp_path), "--seed", "7", "--noiseless"]) == 0
    rho = state_from_dict(read_json(tmp_path / "tomography.json")["rho"])
    grid = GridSpec(32, 32)
    decompositions = []
    kets = State.kets

    def counting(self):
        if self is rho:
            decompositions.append(1)
        return kets(self)

    monkeypatch.setattr(State, "kets", counting)
    smap = topology.sphere_sweep(rho, grid=grid)
    monkeypatch.undo()
    assert len(decompositions) == 1
    expected = np.full(smap.n_values.shape, np.nan)
    for i, theta in enumerate(smap.theta_samples):
        for j, alpha in enumerate(smap.alpha_samples):
            try:
                photon, _ = herald_polarization(rho, ProjectionAngles(theta, alpha))
            except ZeroProbabilityError:
                continue
            expected[i, j] = topology.skyrmion_number(topology.photon_frame(photon, grid)[1])
    np.testing.assert_array_equal(smap.n_values, expected)
    np.testing.assert_array_equal(smap.valid, ~np.isnan(expected))
    assert (smap.method == "grid").all()


def test_quasiparticles_output(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "quasiparticles",
            "--out",
            str(out),
            "--grid-n",
            "192",
            "--theta-fixed",
            "1.5707963267948966",
        ]
    )
    assert code == 0
    doc = read_json(out / "quasiparticles.json")
    assert doc["count"] == 2
    assert len(doc["regions"]) == 2
    total = doc["central_charge"] + sum(r["charge"] for r in doc["regions"])
    assert abs(total - doc["total"]) < 1e-9


def test_dynamics_outputs(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "dynamics",
            "--out",
            str(out),
            "--grid-n",
            "96",
            "--theta-fixed",
            "1.26",
            "--alpha",
            "0,0.9,1.8,2.7,3.6",
        ]
    )
    assert code == 0
    doc = read_json(out / "dynamics.json")
    assert doc["sweep_param"] == "alpha"
    assert len(doc["param_values"]) == 5
    assert (out / "dynamics.csv").exists()
    assert (out / "frame_004_sigma.pgm").exists()


def test_dynamics_frame_matches_direct_render(tmp_path):
    # each raster comes from the tracker's own pass over the frame
    out = tmp_path / "o"
    alphas = (0.0, 0.9, 1.8, 2.7, 3.6)
    argv = ["dynamics", "--out", str(out), "--grid-n", "64", "--theta-fixed", "1.26"]
    assert main(argv + ["--alpha", ",".join(map(str, alphas))]) == 0
    state = build_spin_skyrmion_state([0], QPlateParams(1.0, 0.5))
    unit = normalize_stokes(
        conditional_stokes(state, ProjectionAngles(1.26, alphas[2]), GridSpec(64, 64))
    )
    write_pgm(str(tmp_path / "ref.pgm"), skyrmion_density(unit).sigma)
    for suffix in ("", ".json"):
        assert (out / f"frame_002_sigma.pgm{suffix}").read_bytes() == (
            tmp_path / f"ref.pgm{suffix}"
        ).read_bytes()


def test_dynamics_computes_each_orientation_once(tmp_path, monkeypatch):
    # the psi rasters reuse the tracker's own orientation map
    calls = []
    psi = topology.orientation_psi

    def counting(unit):
        calls.append(1)
        return psi(unit)

    monkeypatch.setattr(topology, "orientation_psi", counting)
    monkeypatch.setattr(cli, "orientation_psi", counting)
    argv = ["dynamics", "--out", str(tmp_path), "--grid-n", "48", "--theta-fixed", "1.26"]
    assert main(argv + ["--alpha", "0,0.9,1.8,2.7,3.6"]) == 0
    assert (tmp_path / "frame_004_psi.pgm").exists()
    assert len(calls) == 5


def test_dynamics_unheralded_sample_is_numerical_failure(tmp_path, capsys):
    # with the plate off, heralding at the south pole has zero probability;
    # the run writes no product that would read as complete
    out = tmp_path / "o"
    code = main(
        [
            "dynamics",
            "--out",
            str(out),
            "--grid-n",
            "64",
            "--tuning",
            "0",
            "--theta",
            "0,0.8,1.6,2.4,3.14159",
        ]
    )
    assert code == 4
    assert "heralding probability" in capsys.readouterr().err
    assert not (out / "dynamics.json").exists()
    assert not (out / "dynamics.csv").exists()
    # the four samples before the south pole rendered; their rasters and
    # sidecars are deleted with the failure
    assert out.is_dir() and not list(out.glob("frame_*"))


def test_dynamics_needs_enough_samples(tmp_path, capsys):
    code = main(
        ["dynamics", "--out", str(tmp_path), "--alpha", "0,1,2"]
    )
    assert code == 2
    assert "5" in capsys.readouterr().err


def test_bell_ideal_and_werner(tmp_path):
    out_a = tmp_path / "ideal"
    assert main(["bell", "--out", str(out_a)]) == 0
    doc = read_json(out_a / "bell.json")
    assert abs(doc["s_value"] - 2.0 * math.sqrt(2.0)) < 1e-9
    assert doc["subspace"]["pair"] == [0, -2]

    out_b = tmp_path / "werner"
    assert main(["bell", "--out", str(out_b), "--werner-p", "0.9"]) == 0
    doc = read_json(out_b / "bell.json")
    assert abs(doc["s_value"] - 2.5455844122715714) < 1e-9
    assert (out_b / "bell_fringes.csv").exists()


def test_bell_on_one_charge_is_numerical_failure(tmp_path, capsys):
    # photon B's basis holds a single charge, so no default pair exists
    space = Space.tripartite(OamBasis((0,)))
    state = State(space, "pure", np.eye(space.dim, dtype=complex)[0])
    path = tmp_path / "one_charge.json"
    save_state(path, state)
    assert main(["bell", "--out", str(tmp_path / "o"), "--state", str(path)]) == 4
    assert "needs at least two OAM charges" in capsys.readouterr().err


def test_successive_main_calls_share_no_flag_values(tmp_path):
    # the parser is built once per process, so a flag given to one call must
    # not reach the next
    assert _build_parser() is _build_parser()
    first = ["--werner-p", "0.9", "--pol-b", "L", "--pair", "0,-4", "--seed", "3"]
    assert main(["bell", "--out", str(tmp_path / "a")] + first) == 0
    config = os.path.join(CONFIG_DIR, "ideal_bell.json")
    assert main(["bell", "--config", config, "--out", str(tmp_path / "b")]) == 0
    doc = read_json(tmp_path / "b" / "bell.json")
    assert abs(doc["s_value"] - 2.0 * math.sqrt(2.0)) < 1e-9
    assert doc["subspace"] == {"pol_b": "R", "pair": [0, -2]}
    # the pinned hash of ideal_bell.json in GOLDEN_HASHES
    expected = "5235fff4ad0408a8cef36f84f7764e4e0a4b34e6847179854eeac367195a73e9"
    assert doc["meta"]["config_sha256"] == expected


def test_tomography_reports_termination(tmp_path):
    out = tmp_path / "o"
    code = main(["tomography", "--out", str(out), "--seed", "7"])
    assert code == 0
    doc = read_json(out / "tomography.json")
    assert doc["record_kind"] == "counts"
    assert doc["termination"] in ("ftol", "gtol")
    assert doc["converged"] is True
    assert doc["iterations"] < 1000
    assert 0.0 <= doc["gradient_norm"] < math.inf
    assert doc["fidelity_vs_target"] >= 0.98


def test_witnesses_only_requires_state(tmp_path):
    code = main(["tomography", "--out", str(tmp_path), "--witnesses-only"])
    assert code == 2


def test_witnesses_only_deterministic(tmp_path):
    state_dir = tmp_path / "s"
    assert main(["build-state", "--out", str(state_dir)]) == 0
    state_file = str(state_dir / "state.json")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "tomography",
                "--out",
                str(out),
                "--witnesses-only",
                "--state",
                state_file,
                "--target",
                state_file,
            ]
        )
        assert code == 0
        blobs.append((out / "tomography.json").read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert abs(doc["purity"] - 1.0) < 1e-9
    assert abs(doc["fidelity_vs_target"] - 1.0) < 1e-9


def test_state_roundtrip_through_commands(tmp_path):
    # build once, feed the file to an analysis command
    state_dir = tmp_path / "s"
    assert main(["build-state", "--out", str(state_dir), "--ladder", "0,-3,-6"]) == 0
    out = tmp_path / "o"
    code = main(
        [
            "skyrmion-number",
            "--out",
            str(out),
            "--state",
            str(state_dir / "state.json"),
            "--grid-n",
            "128",
            "--theta-fixed",
            "0",
        ]
    )
    assert code == 0
    assert read_json(out / "skyrmion_number.json")["rounded"] == -3


def test_extract_ghz_through_cli(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["build-state", "--out", str(out), "--ladder", "0,-3,-6", "--extract", "ghz"]
    )
    assert code == 0
    doc = read_json(out / "state.json")
    assert doc["kind"] == "pure"


@pytest.mark.parametrize("argv", [
    ["build-state", "--extract", "ghz"],
    ["build-state", "--extract", "reference"],
    ["bell"],
    ["tomography"],
], ids=" ".join)
def test_state_without_photon_b_is_numerical_failure(tmp_path, capsys, argv):
    # a state over pol_A x oam_A only: each command that needs photon B's OAM
    # names the missing axis
    path = tmp_path / "photon_a.json"
    save_state(path, State.pure(Space.photon(OamBasis((0, -2)), arm="A"), [1.0, 0.0, 0.0, 0.0]))
    out = tmp_path / "o"
    assert main(argv + ["--state", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "oam_B" in err


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "edit, message",
    [
        (without("kind"), "'kind'"),
        (without("basis_order"), "'basis_order'"),
        (without("oam_basis"), "'oam_basis'"),
        (without("amplitudes"), "'amplitudes'"),
        (lambda doc: dict(doc, kind="mixed"), "'mixed'"),
        (lambda doc: [doc], "JSON object"),
        # a NaN amplitude used to pass validation and fail later as a dark field
        (lambda doc: dict(doc, amplitudes=[[math.nan, 0.0]] + doc["amplitudes"][1:]),
         "non-finite"),
        # entries of the wrong JSON type used to escape as a TypeError traceback
        (lambda doc: dict(doc, amplitudes=[re for re, _ in doc["amplitudes"]]),
         "'amplitudes'"),
        (lambda doc: dict(doc, oam_basis=5), "'oam_basis'"),
        (lambda doc: dict(doc, basis_order=3), "'basis_order'"),
        # a non-integral charge used to be truncated: -2.5 loaded as -2
        (lambda doc: dict(doc, oam_basis=[0, -2.5, -4]), "'oam_basis'"),
    ],
    ids=["no-kind", "no-basis-order", "no-oam-basis", "no-amplitudes", "unknown-kind",
         "not-an-object", "nan-amplitude", "bare-number-amplitudes", "scalar-oam-basis",
         "scalar-basis-order", "fractional-oam-basis"],
)
def test_malformed_state_file_is_numerical_failure(tmp_path, capsys, edit, message):
    state_dir = tmp_path / "s"
    assert main(["build-state", "--out", str(state_dir)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(read_json(state_dir / "state.json"))))
    capsys.readouterr()
    code = main(["skyrmion-number", "--out", str(tmp_path / "o"), "--state", str(bad)])
    assert code == 4
    assert message in capsys.readouterr().err


# each recipe under the command README.md pairs it with, on a coarse grid
RECIPES = [
    ("sphere", "binary_sphere.json"),
    ("sphere", "deep_ladder_sphere.json"),
    ("sphere", "ternary_sphere.json"),
    ("sphere", "ghz_sphere.json"),
    ("quasiparticles", "equator_quasiparticles.json"),
    ("dynamics", "alpha_orbit.json"),
    ("dynamics", "theta_merge.json"),
    ("tomography", "tomography_counts.json"),
    ("bell", "ideal_bell.json"),
    ("bell", "werner_bell.json"),
]


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def run_twice(tmp_path, capsys, argv):
    results = []
    for name in ("a", "b"):
        capsys.readouterr()
        code = main(argv + ["--out", str(tmp_path / name)])
        results.append((code, capsys.readouterr().out, tree_bytes(tmp_path / name)))
    assert results[0][0] == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("command, recipe", RECIPES, ids=[r for _, r in RECIPES])
def test_recipe_rerun_is_byte_identical(tmp_path, capsys, command, recipe):
    argv = [command, "--config", os.path.join(CONFIG_DIR, recipe)]
    if "grid" in read_json(os.path.join(CONFIG_DIR, recipe)):
        argv += ["--grid-n", "64"]
    run_twice(tmp_path, capsys, argv)


def test_density_state_rerun_is_byte_identical(tmp_path, capsys):
    # a fitted estimate is a full-rank density matrix: its ket ensemble comes
    # from an eigendecomposition
    fit = tmp_path / "fit"
    assert main(["tomography", "--out", str(fit), "--seed", "7"]) == 0
    rho_file = tmp_path / "rho.json"
    rho_file.write_text(json.dumps(read_json(fit / "tomography.json")["rho"]))
    run_twice(
        tmp_path,
        capsys,
        ["skyrmion-number", "--state", str(rho_file), "--grid-n", "128"],
    )


# config_sha256 of each recipe under the command README.md pairs it with, and
# of a few flag-only runs; any change to the option table that changes what
# a run hashes to shows up here
GOLDEN_HASHES = [
    (["sphere", "--config", "binary_sphere.json"],
     "add134a392b5739d15a0960ab825485e12f96823d6a643878dfcda2da8dad464"),
    (["sphere", "--config", "deep_ladder_sphere.json"],
     "7723c454adf74e35fd0c17433054742b598be8b73b1a929f991a3606393a0218"),
    (["sphere", "--config", "ternary_sphere.json"],
     "bf9b695155b2974b42f07f8d068805ed043c27541e47492c70e991c7eb033286"),
    (["sphere", "--config", "ghz_sphere.json"],
     "0f1b31877c3f0fc90a888aacd49dd742d6aea20c11a90451c6a32a40aadd720e"),
    (["quasiparticles", "--config", "equator_quasiparticles.json"],
     "c1f6017cb7ff3471dfb5484b61ef5ccd288a34c9bac5bc3ddd3582e304dd6535"),
    (["dynamics", "--config", "alpha_orbit.json"],
     "8f5e8c048102ca1e001afb5d8521a64b922b0bc585fb6cf8134fd6d3dde33d70"),
    (["dynamics", "--config", "theta_merge.json"],
     "c4b83bf1d259191665d66310f0af940bbefb5df7b1d321d28f25f412e04f9951"),
    (["tomography", "--config", "tomography_counts.json"],
     "74c9517d29f595ab9f5caeb3ef9279b5bd3778f533349fde6063af428f9c4761"),
    (["bell", "--config", "ideal_bell.json"],
     "5235fff4ad0408a8cef36f84f7764e4e0a4b34e6847179854eeac367195a73e9"),
    (["bell", "--config", "werner_bell.json"],
     "a006a4e4e8a65dab7a0d5d261ea8b14e3b1d76b07443c6b19c5c73ff26e05bb5"),
    # same settings as ternary_sphere.json, given as flags
    (["sphere", "--ell-a", "0,-1", "--q", "2.5"],
     "bf9b695155b2974b42f07f8d068805ed043c27541e47492c70e991c7eb033286"),
    (["sphere", "--theta", "0,3.1416"],
     "d5b230289e71403a105490cfe3f26093d678591cd30e6c452e082acc54c4721a"),
    (["dynamics", "--alpha", "0,1,2,3,4", "--theta-fixed", "1.26"],
     "fe9d4288ba4975a0ba55231f6fc50f7de193eee44d25b7e072e0562fbc75f11d"),
    (["bell", "--pol-b", "L", "--pair", "0,-2"],
     "8dd067afb3b7045c0ee1aa11cc556a36c6a89c61ffb885ff948d845d7e2b164e"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_HASHES, ids=lambda v: " ".join(v)[:60])
def test_config_hash_is_pinned(argv, expected):
    if "--config" in argv:
        at = argv.index("--config") + 1
        argv = argv[:at] + [os.path.join(CONFIG_DIR, argv[at])] + argv[at + 1:]
    cfg = resolve_config(_build_parser().parse_args(argv))
    assert cfg.hash() == expected
    assert cfg.meta()["config_sha256"] == expected


def test_module_runs_as_a_script(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "qskyrm.cli", "bell", "--config",
            os.path.join(CONFIG_DIR, "ideal_bell.json"), "--out", str(tmp_path / "o")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "bell.json").exists()
