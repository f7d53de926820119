"""Bit-exact pins of the segmentation and tracking products.

Each case runs one CLI command into a fresh directory and hashes every file
it writes: the product JSON, the CSV, every ``.pgm`` raster and every raster
sidecar.  The digests were recorded with numpy 2.4 and scipy 1.17 on x86-64.
A speed-up of the frame pipeline (fill, density, segmentation, raster
output) must reproduce them exactly, last digits included.
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
}

FILES = {
    "equator_quasiparticles": ["quasiparticles.json"],
    "alpha_orbit_5": ["dynamics.csv", "dynamics.json"] + [
        f"frame_{i:03d}_{kind}.pgm{ext}"
        for i in range(5)
        for kind in ("psi", "sigma")
        for ext in ("", ".json")
    ],
}

DIGESTS = {
    "equator_quasiparticles": "38eb4cba1ee0aedb5d371a963b1f8b4a1168f54c5f4dbd0d86b9fe08e1bae9e4",
    "alpha_orbit_5": "d79564dbbc73cf922ce5bef9fd2ca37064d58ebaf0b0972914e801f76a5f4812",
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
