"""Bit-exact pins of the segmentation, tracking and sphere products.

Each case runs one CLI command into a fresh directory and hashes every file
it writes: the product JSON, the CSV, every ``.pgm`` raster and every raster
sidecar.  Two frame cases run at 128^2; two more run at the benchmark's grid
sizes, 256^2 (8 row strips) and 512^2 (16), so every strip of a full-size
frame is covered.  The sphere cases run the four sphere recipes on the
default 9 x 8 heralding grid, and the ternary once more on azimuths shifted
by five eighths of a step, as a benchmark seed shifts them; every sample of
them is exact, so they pin the stacked exact solves (roots, pencils, Newton
polish, core diagnostics) to the last digit.  The digests were recorded with
numpy 2.4 and scipy 1.17 on x86-64.  A speed-up of the frame pipeline (unit
texture, density, segmentation, raster output) or of the exact numbers must
reproduce them exactly, last digits included.
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
    **{
        name: ["sphere", "--config", os.path.join(CONFIG_DIR, name + ".json")]
        for name in ("binary_sphere", "deep_ladder_sphere", "ghz_sphere", "ternary_sphere")
    },
    "ternary_sphere_shifted": [
        "sphere",
        "--config", os.path.join(CONFIG_DIR, "ternary_sphere.json"),
        "--alpha", "0.4908738521,1.2762720155,2.0616701789,2.8470683423,"
                   "3.6324665057,4.4178646691,5.2032628325,5.9886609959",
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
    **{name: ["sphere.csv", "sphere.json"] for name in RUNS if "sphere" in name},
}

DIGESTS = {
    "equator_quasiparticles": "ebb867cb4ea6c20925a01ff2a27f28827bac4109734c16a9c3ea3099dce8087c",
    "alpha_orbit_5": "edf98dbfaca087107353fb4e2e79b55fb7dc1faa7d9bb8783c88e2109e97e23a",
    "theta_merge_256": "784039bd87aff6402f41904bf0b82ad2db7973239ff3e587338146bbfff005e7",
    "equator_quasiparticles_512": "c19fba817ea8cb9af4945f7ec1dc94f713cf14b9f4b9aa7b71416535102eb33f",
    "binary_sphere": "01bd2975615adb18a19206587de70cca12cb33fbba0cc3f3a55178a9dc4d4ae2",
    "deep_ladder_sphere": "147a50436433e5258ea087826e6425d150297c9ad672e5c96b3515fccfe8240e",
    "ghz_sphere": "904ae43fdd1e5578c6b1b174388ae964a7c486c8431fb3c2c253781a8de21b5c",
    "ternary_sphere": "65aed37a1402c644a869525a8a417fc39875cf70b702e7f2f12445e95b5c8a51",
    "ternary_sphere_shifted": "6c42f6a1102df1f331ac8eb49c1d67fdc35d311d980903dc15a60681f49ddf31",
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
