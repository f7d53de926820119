"""Reference per-layer timings on fixed states at 128^2, 512^2 and 1024^2.

    python3 perfbench/layer_times.py

Run from the root of a source checkout.  Prints a Markdown table of median
wall times (ms) per call, with BLAS/OpenMP threads pinned to 1 as in the
benchmark.  The state is the binary (0, -2, -4) switch state, heralded at
theta = 1.1, alpha = 0.7 (the equator for the segmentation row); the
density-matrix row feeds the same heralded state as a density matrix.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import math  # noqa: E402

from qskyrm import modes  # noqa: E402
from qskyrm.export import write_pgm  # noqa: E402
from qskyrm.hilbert import ProjectionAngles, balanced_switch_state, herald_polarization  # noqa: E402
from qskyrm.modes import GridSpec  # noqa: E402
from qskyrm.stokesfield import normalize_stokes, stokes_of_photon_state  # noqa: E402
from qskyrm.topology import locate_quasiparticles, skyrmion_density, skyrmion_number  # noqa: E402

SIZES = (128, 512, 1024)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _cold_modes(ells, grid):
    # private caches: cleared so that each call computes the stack afresh
    modes._mode_stack_cached.cache_clear()
    modes._lg_mode_cached.cache_clear()
    modes.polar_coords.cache_clear()
    modes.grid_axes.cache_clear()
    return modes.mode_stack(ells, grid)


def main() -> None:
    state = balanced_switch_state((0, -2, -4))
    angles = ProjectionAngles(1.1, 0.7)
    photon, _ = herald_polarization(state, angles)
    photon_rho = photon.to_density()
    equator, _ = herald_polarization(state, ProjectionAngles(0.5 * math.pi, 0.0))
    ells = photon.space.oam_basis("B").ells
    rows: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for n in SIZES:
            grid = GridSpec(n, n, 4.0, 1.0)
            reps = 21 if n <= 128 else 7 if n <= 512 else 5
            field = stokes_of_photon_state(photon, grid)
            unit = normalize_stokes(field)
            density = skyrmion_density(unit)
            eq_density = skyrmion_density(normalize_stokes(stokes_of_photon_state(equator, grid)))
            cases = {
                "hilbert.herald_polarization": lambda: herald_polarization(state, angles),
                "modes.mode_stack (cold)": lambda: _cold_modes(ells, grid),
                "stokesfield.stokes_of_photon_state (pure)":
                    lambda: stokes_of_photon_state(photon, grid),
                "stokesfield.stokes_of_photon_state (density)":
                    lambda: stokes_of_photon_state(photon_rho, grid),
                "stokesfield.normalize_stokes": lambda: normalize_stokes(field),
                "topology.skyrmion_density": lambda: skyrmion_density(unit),
                "topology.skyrmion_number": lambda: skyrmion_number(density),
                "topology.locate_quasiparticles (equator)":
                    lambda: locate_quasiparticles(eq_density),
                "export.write_pgm": lambda: write_pgm(os.path.join(tmp, "f.pgm"), density.sigma),
            }
            for name, fn in cases.items():
                rows.setdefault(name, []).append(_median_ms(fn, reps))
            modes.mode_stack(ells, grid)  # leave the cache warm again
    print("| layer (ms per call) | " + " | ".join(f"{n}²" for n in SIZES) + " |")
    print("|---|" + "---:|" * len(SIZES))
    for name, values in rows.items():
        print(f"| `{name}` | " + " | ".join(f"{v:.3g}" for v in values) + " |")


if __name__ == "__main__":
    main()
