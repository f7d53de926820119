"""Bit-exact pins of the segmentation and tracking products.

Each case runs one CLI command into a fresh directory and hashes every file
it writes: the product JSON, the CSV, every ``.pgm`` raster and every raster
sidecar.  Two cases run at 128^2; two more run at the benchmark's grid sizes,
256^2 (8 row strips) and 512^2 (16), so every strip of a full-size frame is
covered.  The digests were recorded with numpy 2.4 and scipy 1.17 on x86-64.
A speed-up of the frame pipeline (unit texture, density, segmentation,
raster output) must reproduce them exactly, last digits included.
"""

import hashlib
import os

import pytest

from qskyrm.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

RUNS = {
    "equator_quasiparticles": [
        "quasiparticles",
        "--config", os.path.join(CONFIG_DIR, "equator_quasiparticles.json"),
        "--grid-n", "128",
    ],
    "alpha_orbit_5": [
        "dynamics",
        "--config", os.path.join(CONFIG_DIR, "alpha_orbit.json"),
        "--grid-n", "128",
        "--alpha", "0,0.2617993878,0.5235987756,0.7853981634,1.0471975512",
    ],
    "theta_merge_256": [
        "dynamics",
        "--config", os.path.join(CONFIG_DIR, "theta_merge.json"),
        "--grid-n", "256",
    ],
    "equator_quasiparticles_512": [
        "quasiparticles",
        "--config", os.path.join(CONFIG_DIR, "equator_quasiparticles.json"),
        "--grid-n", "512",
    ],
}

FILES = {
    "equator_quasiparticles": ["quasiparticles.json"],
    "alpha_orbit_5": ["dynamics.csv", "dynamics.json"] + [
        f"frame_{i:03d}_{kind}.pgm{ext}"
        for i in range(5)
        for kind in ("psi", "sigma")
        for ext in ("", ".json")
    ],
    "theta_merge_256": ["dynamics.csv", "dynamics.json"] + [
        f"frame_{i:03d}_{kind}.pgm{ext}"
        for i in range(9)
        for kind in ("psi", "sigma")
        for ext in ("", ".json")
    ],
    "equator_quasiparticles_512": ["quasiparticles.json"],
}

DIGESTS = {
    "equator_quasiparticles": "ebb867cb4ea6c20925a01ff2a27f28827bac4109734c16a9c3ea3099dce8087c",
    "alpha_orbit_5": "edf98dbfaca087107353fb4e2e79b55fb7dc1faa7d9bb8783c88e2109e97e23a",
    "theta_merge_256": "784039bd87aff6402f41904bf0b82ad2db7973239ff3e587338146bbfff005e7",
    "equator_quasiparticles_512": "c19fba817ea8cb9af4945f7ec1dc94f713cf14b9f4b9aa7b71416535102eb33f",
}


def _file_digests(out) -> dict:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_product_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    digests = _file_digests(out)
    assert sorted(digests) == sorted(FILES[name])
    listing = "".join(f"{k} {v}\n" for k, v in digests.items())
    assert hashlib.sha256(listing.encode()).hexdigest() == DIGESTS[name], listing
