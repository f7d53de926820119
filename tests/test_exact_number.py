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
    sphere_sweep,
)
from qskyrm.topology import _exact_numbers, _mode_polynomials, _photon_kets, photon_frame

# the states of the four sphere recipes
RECIPE_STATES = {
    "binary": balanced_switch_state((0, -2, -4)),
    "deep_ladder": balanced_switch_state((0, -3, -6)),
    "ternary": build_spin_skyrmion_state([0, -1], QPlateParams(2.5, 0.5)),
    "ghz": extract_ghz_state(balanced_switch_state((0, -3, -6))),
}


def photon(name, theta, alpha=0.0):
    return herald_polarization(RECIPE_STATES[name], ProjectionAngles(theta, alpha))[0]


def solver_input(photons):
    """The exact solver's input for pure photons over one space: their kets
    (members, 2, charges) and the charges."""
    return _photon_kets(photons[0].space, np.array([ph.data for ph in photons]))


def photon_state(ells, u, v):
    """Pure photon over ``ells`` with R amplitudes ``u`` and L amplitudes ``v``."""
    return State.pure(Space.photon(OamBasis(ells)), np.array([u, v]), normalize=True)


N0, N1, N2 = (math.sqrt(2.0 / (math.pi * math.factorial(k))) for k in range(3))
# (charges, u, v) of pure photons outside the exact domain, and for each the
# (u, v) of a photon in the domain with the same charge pattern, where there
# is one
UNSUPPORTED = {
    # u = t^3 + conj(t)^3 dominates v = 1
    "mixed dominant": ((3, 0, -3), [1, 0, 1], [0, 1, 0]),
    "tie": ((0, -2), [1, 1], [0, 1]),
    # u = t against v = conj(t)^3, both vanishing on the axis
    "against on the axis": ((1, -3), [1, 0], [0, 1]),
    # u = 1 - conj(t) and v = 1 - conj(t)^2 share the zero t = 1
    "shared zero": ((0, -1, -2), [1 / N0, -1 / N1, 0], [1 / N0, 0, -1 / N2]),
}
SAME_PATTERN = {
    "mixed dominant": ([1, 0, 2], [0, 1, 0]),
    "tie": ([1, 2], [0, 1]),
    # u = 1 - 2 conj(t) and v = 1 - conj(t)^2: no zero in common
    "shared zero": ([1 / N0, -2 / N1, 0], [1 / N0, 0, -1 / N2]),
}


@pytest.mark.parametrize("name", RECIPE_STATES)
@pytest.mark.parametrize("angles", [(0.0, 0.0), (1.1, 2.3), (math.pi, 5.0)])
def test_mode_polynomials_reproduce_mode_stack(name, angles):
    # u and v as Stokes synthesis builds them from the envelope-free profiles,
    # at 300 cells of a 128^2 grid; a waist other than 1 checks the scaling
    # t = sqrt(2) z / w
    grid = GridSpec(128, 128, 6.0, 1.5)
    ph = photon(name, *angles)
    stack = mode_stack(ph.space.oam_basis("B").ells, grid)
    fields = np.tensordot(ph.tensor(), stack, axes=(1, 0))
    iy, ix = np.random.default_rng(0).integers(0, 128, (2, 300))
    x, y = grid_axes(grid)
    t = math.sqrt(2.0) * (x[ix] + 1j * y[iy]) / grid.waist
    # the profiles grow toward the window's edge: compare each cell to 1e-12
    # of the largest amplitude times its profiles' magnitudes
    scale = 1e-12 * np.abs(ph.tensor()).max() * np.abs(stack[:, iy, ix]).sum(axis=0)
    ((_, u, v),) = _mode_polynomials(*solver_input([ph]))
    for component, field in zip((u, v), fields):
        assert (np.abs(component.at(t[None])[0] / grid.waist - field[iy, ix]) <= scale).all()


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
    if case == "density":
        state = photon("binary", 1.0).to_density()
    else:
        state = photon_state(*UNSUPPORTED[case])
    with pytest.raises(UnsupportedStateError, match=match):
        exact_skyrmion_number(state)


def bits(result):
    """An exact result to the last bit, or the message of its error."""
    if isinstance(result, UnsupportedStateError):
        return str(result)
    n, outer, scale = result
    return n, outer.hex(), scale.hex()


def alone(ph):
    try:
        return bits(exact_skyrmion_number(ph))
    except UnsupportedStateError as exc:
        return bits(exc)


@pytest.mark.parametrize("name", RECIPE_STATES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    heralds=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
            st.floats(0.0, 2.0 * math.pi),
        ),
        min_size=1,
        max_size=10,
    ),
    order=st.randoms(use_true_random=False),
)
def test_stacking_changes_no_result(name, heralds, order):
    # heralds at the poles and in the bulk of one recipe: every charge
    # pattern it has, in one stacked solve, in shuffled order
    photons = [photon(name, theta, alpha) for theta, alpha in heralds]
    order.shuffle(photons)
    assert [bits(r) for r in _exact_numbers(*solver_input(photons))] == [alone(ph) for ph in photons]


def herald_source(ells, first, second):
    """Two-photon state whose photon B heralds as the photon with amplitudes
    ``first`` (u, v) at theta = 0, as ``second`` at theta = pi, and as a
    superposition of the two between."""
    amplitudes = np.array([first, second], dtype=complex)
    return State.pure(Space.tripartite(OamBasis(ells)), amplitudes, normalize=True)


SMALL_GRID = GridSpec(64, 64, 4.0)
THETAS, ALPHAS = (0.0, 0.5 * math.pi, math.pi), (0.0, 1.0)


def test_a_singular_photon_leaves_the_stack_alone():
    ells, *uv = UNSUPPORTED["shared zero"]
    bad, good = photon_state(ells, *uv), photon_state(ells, *SAME_PATTERN["shared zero"])
    assert len(list(_mode_polynomials(*solver_input([bad, good])))) == 1
    results = _exact_numbers(*solver_input([good, bad, good]))
    assert bits(results[0]) == bits(results[2]) == alone(good)
    assert isinstance(results[1], UnsupportedStateError)
    with pytest.raises(UnsupportedStateError, match="singular point"):
        exact_skyrmion_number(bad)
    # theta = 0 heralds the singular photon; the other samples share its
    # charge pattern but no zero, and stay exact
    smap = sphere_sweep(herald_source(ells, uv, SAME_PATTERN["shared zero"]), THETAS, ALPHAS, SMALL_GRID)
    assert smap.method.tolist() == [["grid", "grid"], ["exact", "exact"], ["exact", "exact"]]
    assert smap.valid.all()
    assert (smap.n_values[1:] == -2).all()


@pytest.mark.parametrize("case", ["tie", "mixed dominant"])
def test_a_failed_pattern_check_fails_every_member(case):
    ells, *uv = UNSUPPORTED[case]
    photons = [photon_state(ells, *uv), photon_state(ells, *SAME_PATTERN[case])]
    assert len(list(_mode_polynomials(*solver_input(photons)))) == 1
    results = _exact_numbers(*solver_input(photons))
    assert all(isinstance(r, UnsupportedStateError) for r in results)
    assert [bits(r) for r in results] == [alone(ph) for ph in photons]
    smap = sphere_sweep(herald_source(ells, uv, SAME_PATTERN[case]), THETAS, ALPHAS, SMALL_GRID)
    assert (smap.method == "grid").all()
    assert smap.valid.all()


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
            grid_n = skyrmion_number(photon_frame(ph, grid)[1])
            assert n == round(grid_n), (theta, alpha, grid_n, outer, scale)
            tally["compared"] += 1

    check()
    assert tally["compared"] >= 0.1 * sum(tally.values()), dict(tally)
