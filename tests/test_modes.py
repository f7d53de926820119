"""Vortex-mode sampling: normalization, winding, ring geometry."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qskyrm import GridSpec, grid_axes, lg_mode, mode_stack, modes, polar_coords


def quad_norm(field, grid):
    return float(np.sum(np.abs(field) ** 2) * grid.cell_area)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=2, ny=64)
    with pytest.raises(ValueError):
        GridSpec(half_extent=0.0)
    with pytest.raises(ValueError):
        GridSpec(waist=-1.0)


def test_axes_are_cell_centered(small_grid):
    x, y = grid_axes(small_grid)
    assert x.shape == (small_grid.nx,)
    assert abs(x[0] - (-small_grid.half_extent + 0.5 * small_grid.dx)) < 1e-12
    assert abs(x[-1] - (small_grid.half_extent - 0.5 * small_grid.dx)) < 1e-12
    # even cell count keeps every sample off the vortex core
    r, _ = polar_coords(small_grid)
    assert r.min() > 0.0


@pytest.mark.parametrize("ell", [0, 1, -2, -4, 6])
def test_mode_unit_power(ell, mid_grid):
    # window truncation grows with |ell|; 1e-8 covers rings out to charge 6
    assert abs(quad_norm(lg_mode(ell, mid_grid), mid_grid) - 1.0) < 1e-8


def test_distinct_charges_orthogonal(mid_grid):
    a = lg_mode(0, mid_grid)
    b = lg_mode(-2, mid_grid)
    assert abs(np.sum(np.conj(a) * b) * mid_grid.cell_area) < 1e-12


def test_phase_winding_count(mid_grid):
    # accumulated phase along a ring at the waist equals 2*pi*ell
    for ell in (1, -3, 5):
        field = lg_mode(ell, mid_grid)
        ny, nx = mid_grid.shape
        angles = np.linspace(-math.pi, math.pi, 721)
        ix = np.clip(((np.cos(angles) * 1.0 + 4.0) / mid_grid.dx).astype(int), 0, nx - 1)
        iy = np.clip(((np.sin(angles) * 1.0 + 4.0) / mid_grid.dy).astype(int), 0, ny - 1)
        phase = np.unwrap(np.angle(field[iy, ix]))
        winding = (phase[-1] - phase[0]) / (2.0 * math.pi)
        assert abs(winding - ell) < 0.05


def test_ring_radius(mid_grid):
    # peak intensity of charge ell sits at r = w sqrt(|ell|/2)
    field = lg_mode(-4, mid_grid)
    r, _ = polar_coords(mid_grid)
    peak_r = r.flat[np.argmax(np.abs(field))]
    assert abs(peak_r - math.sqrt(2.0)) < 2.0 * mid_grid.dx


def test_core_is_dark(mid_grid):
    field = lg_mode(3, mid_grid)
    ny, nx = mid_grid.shape
    core = np.abs(field[ny // 2 - 1 : ny // 2 + 1, nx // 2 - 1 : nx // 2 + 1])
    assert core.max() < np.abs(field).max() * 1e-3


def test_mode_stack_matches_single_modes(small_grid):
    stack = mode_stack((0, -2, -4), small_grid)
    assert stack.shape == (3,) + small_grid.shape
    r, _ = polar_coords(small_grid)
    gauss = np.exp(-((r / small_grid.waist) ** 2))
    for k, ell in enumerate((0, -2, -4)):
        np.testing.assert_allclose(stack[k] * gauss, lg_mode(ell, small_grid), rtol=1e-15, atol=0.0)


def test_stacks_share_charges_and_go_with_the_cache():
    # a stack copies a charge a cached stack on its grid holds; a cold build
    # of the same charges gives the same bytes
    grid = GridSpec(48, 48)
    first = mode_stack((0, -2, -4), grid)
    shared = mode_stack((-4, 0, 2), grid)
    assert shared[0].tobytes() == first[2].tobytes() and shared[1].tobytes() == first[0].tobytes()
    modes._mode_stack_cached.cache_clear()
    del first, shared
    assert not any(on == grid for _, on in modes._built_stacks)
    cold = mode_stack((-4, 0, 2), grid)
    lone = mode_stack((2,), GridSpec(48, 48, half_extent=3.0))
    assert cold[2].tobytes() != lone[0].tobytes()  # a stack on another grid is no source
    np.testing.assert_array_equal(cold, mode_stack((-4, 0, 2), grid))


def test_threads_missing_the_cache_together_get_one_stack():
    # eight threads ask for one cold stack at once, many times over: none
    # may raise, and each must get the stack a lone build gives, bit for bit.
    # Stacks held on other grids give each build a long list to search
    grid, ells, threads = GridSpec(64, 64), (0, -2, -4, 1), 8
    expected = mode_stack(ells, grid).tobytes()
    held = [mode_stack((0,), GridSpec(4, 4, half_extent=1.0 + k)) for k in range(64)]

    def round_of_builds() -> list[bytes]:
        modes._mode_stack_cached.cache_clear()
        assert not any(on == grid for _, on in modes._built_stacks)  # cold
        barrier = threading.Barrier(threads)

        def ask() -> bytes:
            barrier.wait(timeout=30)
            return mode_stack(ells, grid).tobytes()

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(ask) for _ in range(threads)]
            return [f.result(timeout=60) for f in futures]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            assert round_of_builds() == [expected] * threads
        del held
    finally:
        sys.setswitchinterval(interval)
        modes._mode_stack_cached.cache_clear()


def test_stack_is_readonly(small_grid):
    stack = mode_stack((0, -2), small_grid)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


def test_charge_cap():
    with pytest.raises(ValueError):
        lg_mode(300, GridSpec(nx=16, ny=16))
