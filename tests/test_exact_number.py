"""Exact skyrmion number of a pure heralded photon, from its mode coefficients."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    GridSpec,
    OamBasis,
    ProjectionAngles,
    QPlateParams,
    Space,
    State,
    UnsupportedStateError,
    balanced_switch_state,
    build_spin_skyrmion_state,
    exact_skyrmion_number,
    extract_ghz_state,
    grid_axes,
    herald_polarization,
    mode_stack,
    skyrmion_number,
)
from qskyrm.topology import _mode_polynomials, photon_frame

# the states of the four sphere recipes
RECIPE_STATES = {
    "binary": balanced_switch_state((0, -2, -4)),
    "deep_ladder": balanced_switch_state((0, -3, -6)),
    "ternary": build_spin_skyrmion_state([0, -1], QPlateParams(2.5, 0.5)),
    "ghz": extract_ghz_state(balanced_switch_state((0, -3, -6))),
}


def photon(name, theta, alpha=0.0):
    return herald_polarization(RECIPE_STATES[name], ProjectionAngles(theta, alpha))[0]


def photon_state(ells, u, v):
    """Pure photon over ``ells`` with R amplitudes ``u`` and L amplitudes ``v``."""
    return State.pure(Space.photon(OamBasis(ells)), np.array([u, v]), normalize=True)


@pytest.mark.parametrize("name", RECIPE_STATES)
@pytest.mark.parametrize("angles", [(0.0, 0.0), (1.1, 2.3), (math.pi, 5.0)])
def test_mode_polynomials_reproduce_mode_stack(name, angles):
    # u and v as Stokes synthesis builds them, at 300 cells of a 128^2 grid;
    # a waist other than 1 checks the scaling t = sqrt(2) z / w
    grid = GridSpec(128, 128, 6.0, 1.5)
    ph = photon(name, *angles)
    fields = np.tensordot(ph.tensor(), mode_stack(ph.space.oam_basis("B").ells, grid), axes=(1, 0))
    iy, ix = np.random.default_rng(0).integers(0, 128, (2, 300))
    x, y = grid_axes(grid)
    t = math.sqrt(2.0) * (x[ix] + 1j * y[iy]) / grid.waist
    gauss = np.exp(-np.abs(t) ** 2 / 2.0) / grid.waist
    for component, field in zip(_mode_polynomials(ph), fields):
        np.testing.assert_allclose(
            component.at(t) * gauss, field[iy, ix], rtol=0.0, atol=1e-12 * np.abs(fields).max()
        )


@pytest.mark.parametrize(
    "name, north, equator, south",
    [("binary", -2, -4, -2), ("deep_ladder", -3, -6, -3), ("ternary", -5, -10, -6), ("ghz", 0, -6, 0)],
)
def test_recipe_poles_and_equator(name, north, equator, south):
    numbers = [exact_skyrmion_number(photon(name, th))[0] for th in (0.0, 0.5 * math.pi, math.pi)]
    assert numbers == [north, equator, south]


def test_binary_cores():
    # equator: two satellites at (0, +-1.3161) w (ROADMAP measurement) over a
    # double core on the axis
    n, outer, scale = exact_skyrmion_number(photon("binary", 0.5 * math.pi))
    assert n == -4
    assert outer == pytest.approx(1.3161, abs=1e-4)
    assert 0.0 < scale < outer
    # theta = 7 pi / 8: satellites at 0.59 w, with anti-cores far below a cell
    # of 256^2 over +-4 waists
    n, outer, scale = exact_skyrmion_number(photon("binary", 7.0 * math.pi / 8.0))
    assert n == -4
    assert outer == pytest.approx(0.59, abs=0.01)
    assert scale < 8.0 / 256.0


def test_one_polarization_is_uniform():
    assert exact_skyrmion_number(photon_state((0, -2, -4), [0, 0, 0], [0, 1, 1])) == (
        0,
        0.0,
        math.inf,
    )


def test_positive_charges_wrap_positively():
    # v = conj of the binary pole's v: t^2 in place of conj(t)^2
    assert exact_skyrmion_number(photon_state((0, 2), [1, 0], [0, 1]))[0] == 2


@pytest.mark.parametrize(
    "case, match",
    [
        ("density", "pure"),
        ("mixed dominant", "mixes charge signs"),
        ("tie", "neither dominates"),
        ("against on the axis", "wind against"),
        ("shared zero", "singular point"),
    ],
)
def test_unsupported_states(case, match):
    n0, n1, n2 = (math.sqrt(2.0 / (math.pi * math.factorial(k))) for k in range(3))
    states = {
        "density": photon("binary", 1.0).to_density(),
        # u = t^3 + conj(t)^3 dominates v = 1
        "mixed dominant": photon_state((3, 0, -3), [1, 0, 1], [0, 1, 0]),
        "tie": photon_state((0, -2), [1, 1], [0, 1]),
        # u = t against v = conj(t)^3, both vanishing on the axis
        "against on the axis": photon_state((1, -3), [1, 0], [0, 1]),
        # u = 1 - conj(t) and v = 1 - conj(t)^2 share the zero t = 1
        "shared zero": photon_state((0, -1, -2), [1 / n0, -1 / n1, 0], [1 / n0, 0, -1 / n2]),
    }
    with pytest.raises(UnsupportedStateError, match=match):
        exact_skyrmion_number(states[case])


# binary, deep ladder and GHZ at 256^2 over +-4 waists; the ternary's cores
# are 1.5-3.5 cells of that grid at every heralding point off the poles, so
# it is compared at 512^2, where four cells are 0.0625 waists
PROPERTY_GRIDS = {
    "binary": GridSpec(256, 256, 4.0),
    "deep_ladder": GridSpec(256, 256, 4.0),
    "ghz": GridSpec(256, 256, 4.0),
    "ternary": GridSpec(512, 512, 4.0),
}


@pytest.mark.parametrize("name", PROPERTY_GRIDS)
def test_exact_number_is_the_resolved_grid_number(name):
    """At random heralding points, the exact number is the rounded Riemann sum
    wherever the grid can resolve the texture.  A sample is skipped, and
    counted, when

    - ``outside``: a core lies beyond 2.5 waists; the intensity floor leaves
      the texture resolved out to about 2.6-2.8 waists, and the grid misses
      what lies past it (the binary satellites move out as |c2/c4|^(1/2)
      toward the north pole);
    - ``unresolved``: the smallest core is under four cells across (the
      binary at theta = 7 pi / 8 has anti-cores of 0.022 waists, and the grid
      reads -2.70 there);
    - ``wide``: the smallest core is wider than 2 waists, so its outer wrap
      also reaches the dark skirt (near the GHZ north pole the single
      six-fold core grows without bound: at theta = 0.036 it is 2.39 waists
      wide and the grid misses 0.76 of a unit).

    At least a tenth of the samples must be compared.
    """
    state, grid = RECIPE_STATES[name], PROPERTY_GRIDS[name]
    tally = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def check(theta, alpha):
        ph, _ = herald_polarization(state, ProjectionAngles(theta, alpha))
        n, outer, scale = exact_skyrmion_number(ph)
        assert n == round(n)
        if outer > 2.5:
            tally["outside"] += 1
        elif scale < 4.0 * grid.dx:
            tally["unresolved"] += 1
        elif scale > 2.0:
            tally["wide"] += 1
        else:
            grid_n = skyrmion_number(photon_frame(ph, grid, 1e-6)[1])
            assert n == round(grid_n), (theta, alpha, grid_n, outer, scale)
            tally["compared"] += 1

    check()
    assert tally["compared"] >= 0.1 * sum(tally.values()), dict(tally)
