"""Exact skyrmion number of a pure heralded photon, from its mode coefficients."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from qskyrm import topology
from qskyrm.cli import _plateaus
from qskyrm.topology import (
    _ROOT_TOL,
    _companion_roots,
    _Component,
    _exact_numbers,
    _harmonic_zeros,
    _mode_polynomials,
    _pencil_candidates,
    _photon_kets,
    _polished_zeros,
    _short_of_winding,
    _substituted_candidates,
    photon_frame,
)

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


def pencil_zeros(c):
    """What :func:`_harmonic_zeros` returns, from the Sylvester pencil alone."""
    t = _polished_zeros(c, _pencil_candidates(c))
    return t, _short_of_winding(c, t)


def same_zeros(found, expected, rtol):
    """Whether two NaN-padded rows hold the same zeros, each within ``rtol``."""
    found, expected = found[np.isfinite(found)], expected[np.isfinite(expected)]
    if len(found) != len(expected):
        return False
    gap = np.abs(found[:, None] - expected[None])
    return bool((gap.min(axis=1) <= rtol * np.abs(found)).all() and (gap.min(axis=0) <= rtol * np.abs(expected)).all())


@pytest.mark.parametrize("offset", range(8))
def test_substitution_sweeps_the_ternary_like_the_pencil(offset, monkeypatch):
    # the ternary recipe at each of the benchmark's 8 azimuth offsets (k/8 of
    # one of the 8 steps): 56 distinct bulk photons each, all exact
    step = 2.0 * math.pi / 8
    alphas = [step * offset / 8 + step * j for j in range(8)]
    new = sphere_sweep(RECIPE_STATES["ternary"], alpha_samples=alphas)
    monkeypatch.setattr(topology, "_harmonic_zeros", pencil_zeros)
    old = sphere_sweep(RECIPE_STATES["ternary"], alpha_samples=alphas)
    assert (new.method == "exact").all()
    assert new.n_values.tobytes() == old.n_values.tobytes()
    assert _plateaus(new) == _plateaus(old) == [-5, -10, -6]
    assert (new.valid == old.valid).all()
    assert new.outer_radius.tobytes() == old.outer_radius.tobytes()
    np.testing.assert_allclose(new.core_scale, old.core_scale, rtol=1e-12, atol=0.0)


UNIT = st.builds(
    lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
    st.floats(0.1, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def degree_one_components(draw):
    """A mixed-sign component of 1 to 3 members, with its larger degree m:
    p0 + p1 t against an antianalytic part of degree m in 2..6 (its lower
    powers and p0 each present or not), the degree-1 part scaled by a ratio
    of 1e-6 to 1e6; mirrored (every charge negated) or not."""
    m = draw(st.integers(2, 6))
    ells = [l for l in (0, *range(-1, -m, -1)) if draw(st.booleans())] + [1, -m]
    members = draw(st.integers(1, 3))
    coeffs = np.array([
        [draw(UNIT) * (10.0 ** draw(st.floats(-6.0, 6.0)) if l >= 0 else 1.0) for l in ells]
        for _ in range(members)
    ])
    sign = draw(st.sampled_from([1, -1]))
    return _Component(sign * np.array(ells), coeffs), m


def substitution_alone(c):
    """The substitution's zeros with no fallback to the pencil, either way round."""
    if c.ells.max() == 1:
        return _polished_zeros(c, _substituted_candidates(c))
    return _polished_zeros(c, np.conj(_substituted_candidates(_Component(-c.ells, c.coeffs))))


def test_harmonic_zeros_are_the_pencils():
    """Away from folds, the substitution keeps the pencil's zeros, each
    within 1e-9, wherever it accounts for the windings, and that is almost
    everywhere; what :func:`_harmonic_zeros` returns (the pencil's where the
    substitution falls short) has every zero the pencil has, at most 3m - 2
    of them (Khavinson & Swiatek, Proc. AMS 131, 409 (2003)), each passing
    the zero test."""
    tally = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(degree_one_components())
    def check(case):
        c, m = case
        pencil = pencil_zeros(c)[0]
        # near a fold, where two zeros meet, |d/dt| and |d/dconj(t)| nearly
        # agree and neither solver places the zero to 1e-9 (3 rows in 8000)
        dt, dc = c.derivatives(pencil)
        assume(not (np.abs(np.abs(dt) - np.abs(dc)) < 1e-6 * (np.abs(dt) + np.abs(dc))).any())
        alone = substitution_alone(c)
        for row, ref, short in zip(alone, pencil, _short_of_winding(c, alone)):
            tally["short" if short else "kept"] += 1
            assert short or same_zeros(row, ref, 1e-9)
        zeros, short = _harmonic_zeros(c)
        assert not short.any()
        for row, ref in zip(zeros, pencil):
            assert same_zeros(row, ref, 1e-9)
            assert np.isfinite(row).sum() <= 3 * m - 2
        kept = np.isfinite(zeros)
        assert (np.abs(c.at(zeros))[kept] <= _ROOT_TOL * c.magnitude(zeros)[kept]).all()

    check()
    assert tally["short"] <= 0.02 * sum(tally.values()), dict(tally)


def test_a_short_substitution_is_solved_again_by_the_pencil():
    # u = 1e-5 t against conj(t)^5 and conj(t)^6: F's roots cluster near the
    # origin and near -q5/q6, and polish to none of the 7 zeros
    c = _Component(np.array([1, -5, -6]), np.array([[8e-6 - 5e-7j, 0.0586 + 0.1204j, 0.3086 - 0.4016j]]))
    alone = _polished_zeros(c, _substituted_candidates(c))
    assert _short_of_winding(c, alone).all()
    zeros, short = _harmonic_zeros(c)
    assert not short.any()
    assert np.isfinite(zeros).sum() == 7
    assert same_zeros(zeros[0], pencil_zeros(c)[0][0], 1e-12)


def test_both_degrees_above_one_take_the_pencil():
    # u = 0.4 + (0.3 - 0.2i) t + 2 t^2 + 0.2i conj(t) + conj(t)^3, with 7
    # zeros out to 2.18: the pencil's are those Newton steps reach from a
    # grid of starting points
    c = _Component(np.array([2, 1, 0, -1, -3]), np.array([[2.0, 0.3 - 0.2j, 0.4, 0.2j, 1.0]]))
    zeros, short = _harmonic_zeros(c)
    assert not short.any()
    x = np.linspace(-2.5, 2.5, 15)
    t = (x[:, None] + 1j * x[None]).reshape(1, -1)
    with np.errstate(all="ignore"):
        for _ in range(40):
            f = c.at(t)
            dt, dc = c.derivatives(t)
            t = t + (dc * np.conj(f) - np.conj(dt) * f) / (np.abs(dt) ** 2 - np.abs(dc) ** 2)
        hit = np.isfinite(t) & (np.abs(c.at(t)) <= 1e-12 * c.magnitude(t))
    reached = []
    for z in t[hit]:
        if all(abs(z - r) > 1e-8 for r in reached):
            reached.append(z)
    assert len(reached) == 7
    assert same_zeros(zeros[0], np.array(reached), 1e-9)


def test_a_failed_zero_solve_is_loud(monkeypatch):
    # candidates that are all NaN: the bulk photons fall short of their
    # windings, so each raises and a sweep counts them on the grid
    bulk = [photon("ternary", theta, 0.4) for theta in (0.8, 1.6, 2.4)]
    nothing = lambda c: np.full((len(c.coeffs), 30), np.nan + 0j)
    monkeypatch.setattr(topology, "_substituted_candidates", nothing)
    monkeypatch.setattr(topology, "_pencil_candidates", nothing)
    for result in _exact_numbers(*solver_input(bulk)):
        assert isinstance(result, UnsupportedStateError)
        assert "windings" in str(result)
    smap = sphere_sweep(RECIPE_STATES["ternary"], THETAS, ALPHAS, SMALL_GRID)
    assert smap.method.tolist() == [["exact", "exact"], ["grid", "grid"], ["exact", "exact"]]
    assert smap.valid.all()


def test_an_overflowing_companion_gives_nan_roots():
    roots = _companion_roots(np.array([[1e-300, 1e300, 1.0], [1.0, -3.0, 2.0]], dtype=complex))
    assert np.isnan(roots[0]).all()
    assert sorted(roots[1].real.round(12)) == [1.0, 2.0]
