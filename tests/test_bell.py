"""CHSH correlations in heralded two-qubit sectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    BasisMismatchError,
    TSIRELSON_BOUND,
    ZeroProbabilityError,
    balanced_switch_state,
    bell_curves,
    chsh_parameter,
    extract_ghz_state,
    heralded_werner_state,
)
from qskyrm.bell import HERALD_PHASES, BellSubspace


def test_subspace_validation():
    with pytest.raises(ValueError):
        BellSubspace("X", (0, -2))
    with pytest.raises(ValueError):
        BellSubspace("R", (0, 0))


def test_subspace_rejects_non_integral_charges():
    # (0, -2.5) used to be truncated to (0, -2)
    with pytest.raises(TypeError, match="-2.5"):
        BellSubspace("R", (0, -2.5))
    assert BellSubspace("R", (0.0, -2.0)).pair == (0, -2)


def test_ideal_sector_correlations(binary_state):
    # post-selected correlation is cos(theta_B - chi) at the listed settings
    res = chsh_parameter(binary_state)
    a, a2 = res.herald_phases
    b, b2 = res.analyzer_angles
    expected = [
        math.cos(b - a),
        math.cos(b2 - a),
        math.cos(b - a2),
        math.cos(b2 - a2),
    ]
    np.testing.assert_allclose(res.correlations, expected, atol=1e-12)


def test_chsh_saturates_tsirelson(binary_state):
    res = chsh_parameter(binary_state)
    assert abs(res.s_value - TSIRELSON_BOUND) < 1e-12
    assert res.subspace.pair == (0, -2)


def test_chsh_on_lower_sector(binary_state):
    res = chsh_parameter(binary_state, BellSubspace("L", (-2, -4)))
    assert abs(res.s_value - TSIRELSON_BOUND) < 1e-12


def test_chsh_analyzer_period(binary_state):
    base = chsh_parameter(binary_state)
    shifted = chsh_parameter(
        binary_state,
        analyzer_angles=(
            base.analyzer_angles[0] + 2.0 * math.pi,
            base.analyzer_angles[1] + 2.0 * math.pi,
        ),
    )
    assert abs(base.s_value - shifted.s_value) < 1e-9


def test_missing_pair_raises(binary_state):
    with pytest.raises(BasisMismatchError):
        chsh_parameter(binary_state, BellSubspace("R", (0, -5)))


def test_empty_sector_raises(triple_state):
    ghz = extract_ghz_state(triple_state)
    # GHZ keeps only |R,R,0> and |L,L,-6>: the (R, (0,-6)) sector pairs each
    # analyzer outcome with one herald, but the L-pol sector with pair (0,-3)
    # carries no weight at all
    with pytest.raises(ZeroProbabilityError):
        chsh_parameter(ghz, BellSubspace("L", (0, -3)))


def test_werner_family_linear():
    for p in np.linspace(0.0, 1.0, 20):
        res = chsh_parameter(heralded_werner_state(float(p)))
        assert abs(res.s_value - TSIRELSON_BOUND * float(p)) < 1e-9


def test_werner_point_nine():
    res = chsh_parameter(heralded_werner_state(0.9))
    assert abs(res.s_value - 2.5455844122715714) < 1e-9


def test_werner_validation():
    with pytest.raises(ValueError):
        heralded_werner_state(1.2)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
    st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
)
def test_no_setting_beats_tsirelson(p, heralds, analyzers):
    res = chsh_parameter(
        heralded_werner_state(p), herald_phases=heralds, analyzer_angles=analyzers
    )
    assert res.s_value <= TSIRELSON_BOUND + 1e-9


def test_bell_curves_fringes(binary_state):
    angles = np.linspace(0.0, 2.0 * math.pi, 97)
    curves = bell_curves(binary_state, analyzer_angles=angles)
    assert curves.rates.shape == (4, 97)
    idx = {lbl: i for i, lbl in enumerate(curves.herald_settings)}
    # complementary heralds interleave: H + V fringes sum to a constant
    hv = curves.rates[idx["H"]] + curves.rates[idx["V"]]
    np.testing.assert_allclose(hv, hv[0], atol=1e-12)
    # full-visibility fringe: (max - min) / (max + min) = 1
    r = curves.rates[idx["H"]]
    vis = (r.max() - r.min()) / (r.max() + r.min())
    assert abs(vis - 1.0) < 1e-9
    # fringe phase follows the herald phase
    for lbl, chi in HERALD_PHASES.items():
        peak = angles[np.argmax(curves.rates[idx[lbl]])]
        miss = (peak - chi) % (2.0 * math.pi)
        assert min(miss, 2.0 * math.pi - miss) < 0.1


def test_bell_curves_rejects_bad_label(binary_state):
    with pytest.raises(ValueError):
        bell_curves(binary_state, herald_settings=("H", "Q"))
