"""End-to-end command behavior: exit codes, outputs, determinism."""

import json
import math
import os

import pytest

from qskyrm.cli import main


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


def test_tomography_reports_termination(tmp_path):
    out = tmp_path / "o"
    code = main(["tomography", "--out", str(out), "--seed", "7"])
    assert code == 0
    doc = read_json(out / "tomography.json")
    assert doc["record_kind"] == "counts"
    assert doc["termination"] in ("ftol", "gtol")
    assert doc["converged"] is True
    assert doc["iterations"] < 1000
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
