"""Bit-exact pins of every subcommand's products.

Each case runs one CLI command into a fresh directory and hashes every file
it writes: the product JSON, the CSV, every ``.pgm`` raster and every raster
sidecar.  Two frame cases run at 128^2; two more run at the benchmark's grid
sizes, 256^2 (8 row strips) and 512^2 (16), so every strip of a full-size
frame is covered.  The sphere cases run the four sphere recipes on the
default 9 x 8 heralding grid, and the ternary once more on azimuths shifted
by five eighths of a step, as a benchmark seed shifts them; every sample of
them is exact, so they pin the stacked exact solves (companion roots, the
ternary's degree-25 substitution polynomials, Newton polish, core
diagnostics) to the last digit.  The tomography and Bell
recipes, a 128^2 skyrmion number and Stokes field off the equator, and a
built ladder state, whole and restricted to its middle charge, pin the
rest; none reads an input file, whose path would enter
``config_sha256``.  The digests were recorded with numpy 2.4 and
scipy 1.17 on x86-64.  A speed-up of the frame pipeline (unit texture,
density, segmentation, raster output) or of the exact numbers must
reproduce them exactly, last digits included.
"""

import hashlib
import os
import subprocess
import sys

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
    "tomography_counts": [
        "tomography", "--config", os.path.join(CONFIG_DIR, "tomography_counts.json"),
    ],
    **{
        name: ["bell", "--config", os.path.join(CONFIG_DIR, name + ".json")]
        for name in ("ideal_bell", "werner_bell")
    },
    "skyrmion_number_128": [
        "skyrmion-number", "--grid-n", "128", "--theta-fixed", "1.1", "--alpha-fixed", "0.7",
    ],
    "stokes_field_128": [
        "stokes-field", "--grid-n", "128", "--theta-fixed", "1.1", "--alpha-fixed", "0.7",
    ],
    "build_state_ladder": ["build-state", "--ladder", "0,-3,-6"],
    "build_state_reference": ["build-state", "--ladder", "0,-3,-6", "--extract", "reference"],
}

# tomography.json reads ProjectorSet.step, an eigenvalue of a 288 x 288 Gram
# matrix whose last bits depend on the number of BLAS threads; these runs go
# through a child process with one BLAS thread, as CI and the benchmark run
ONE_BLAS_THREAD = {"tomography_counts"}

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
    "tomography_counts": ["measurements.csv", "tomography.json"],
    "ideal_bell": ["bell.json", "bell_fringes.csv"],
    "werner_bell": ["bell.json", "bell_fringes.csv"],
    "skyrmion_number_128": ["skyrmion_number.json"],
    "stokes_field_128": ["stokes.json"] + [
        f"stokes_{name}.pgm{ext}"
        for name in ("psi", "s0", "s1", "s2", "s3")
        for ext in ("", ".json")
    ],
    "build_state_ladder": ["state.json"],
    "build_state_reference": ["state.json"],
}

DIGESTS = {
    "equator_quasiparticles": "ebb867cb4ea6c20925a01ff2a27f28827bac4109734c16a9c3ea3099dce8087c",
    "alpha_orbit_5": "edf98dbfaca087107353fb4e2e79b55fb7dc1faa7d9bb8783c88e2109e97e23a",
    "theta_merge_256": "784039bd87aff6402f41904bf0b82ad2db7973239ff3e587338146bbfff005e7",
    "equator_quasiparticles_512": "c19fba817ea8cb9af4945f7ec1dc94f713cf14b9f4b9aa7b71416535102eb33f",
    "binary_sphere": "01bd2975615adb18a19206587de70cca12cb33fbba0cc3f3a55178a9dc4d4ae2",
    "deep_ladder_sphere": "147a50436433e5258ea087826e6425d150297c9ad672e5c96b3515fccfe8240e",
    "ghz_sphere": "904ae43fdd1e5578c6b1b174388ae964a7c486c8431fb3c2c253781a8de21b5c",
    "ternary_sphere": "7d9a06537a48c29d72585c21c45d0cfe95df1640a38d9627e0f2dd8c3c7509d5",
    "ternary_sphere_shifted": "d7264dfdfd5026e17ebe629f7cd573c0e106d6c651d37c444a4c0491d86abdb9",
    "tomography_counts": "cfdac35bbb2033f41df2b8ab729d1d9fd3e3c78062ad5384e95bc2eb790b5968",
    "ideal_bell": "23ad48ec708a49f4fd1bddf2f853be55a12d1c71c8035fe9b8a2e129bf3558b4",
    "werner_bell": "b02731af4e35397c86a932d4f53b5a18e3ec337550feb4202d8fa01764c64bd2",
    "skyrmion_number_128": "d90334b1513b5b562967da6b0dd2aa25718b947344b3a6717fc808b9849def46",
    "stokes_field_128": "2798fbea20f1a9f1ec9d17b101c28f2195fb0c545dc05b04c1395bb5b1c1223a",
    "build_state_ladder": "637bcb6fe4110cbc5a833af4331702696c7e644b45cbd20825a94597d4d4b866",
    "build_state_reference": "8331e031dcd86ff10269c2b5a983cbcfe7f80bf710daaef7703ccae8c8c455f7",
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
    argv = RUNS[name] + ["--out", str(out)]
    if name in ONE_BLAS_THREAD:
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        done = subprocess.run([sys.executable, "-m", "qskyrm.cli", *argv], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path, **threads), timeout=120)
        assert done.returncode == 0, done.stderr
    else:
        assert main(argv) == 0
        capsys.readouterr()
    digests = _file_digests(out)
    assert sorted(digests) == sorted(FILES[name])
    listing = "".join(f"{k} {v}\n" for k, v in digests.items())
    assert hashlib.sha256(listing.encode()).hexdigest() == DIGESTS[name], listing
