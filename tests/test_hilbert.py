"""State construction, heralding, and serialization behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    BasisMismatchError,
    EmptyStateError,
    OamBasis,
    ProjectionAngles,
    QPlateParams,
    Space,
    State,
    UnsupportedStateError,
    ZeroProbabilityError,
    apply_qplate,
    balanced_switch_state,
    build_spin_skyrmion_state,
    extract_ghz_state,
    extract_reference_state,
    herald_polarization,
    load_state,
    polarization_ket,
    project_oam,
    restrict_oam_b,
    save_state,
    spdc_pair_state,
    state_from_dict,
    state_overlap,
    state_to_dict,
)
from qskyrm.hilbert import _chi_vector, _normalize_projection

ANGLES = st.tuples(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)


# ---------------------------------------------------------------------------
# bases and spaces
# ---------------------------------------------------------------------------


def test_polarization_kets_orthonormal():
    r, l = polarization_ket("R"), polarization_ket("L")
    h, v = polarization_ket("H"), polarization_ket("V")
    d, a = polarization_ket("D"), polarization_ket("A")
    for k in (r, l, h, v, d, a):
        assert abs(np.vdot(k, k) - 1.0) < 1e-15
    assert abs(np.vdot(r, l)) < 1e-15
    assert abs(np.vdot(h, v)) < 1e-15
    assert abs(np.vdot(d, a)) < 1e-15
    assert np.allclose(h, (r + l) / math.sqrt(2.0))


def test_unknown_polarization_label():
    with pytest.raises(ValueError):
        polarization_ket("X")


def test_tripartite_space_layout():
    space = Space.tripartite(OamBasis((0, -2, -4)))
    assert space.dims == (2, 2, 3)
    assert space.dim == 12
    assert space.is_tripartite
    assert space.axis_position("pol_A") == 0
    assert space.axis_position("pol_B") == 1
    assert space.axis_position("oam_B") == 2


def test_missing_axis_is_unsupported():
    space = Space.tripartite(OamBasis((0, -2, -4)))
    with pytest.raises(UnsupportedStateError, match="state has no oam_A axis"):
        space.axis_position("oam_A")


# photon B alone has no arm-A axes, photon A alone no oam_B
@pytest.mark.parametrize("op, arm, axis", [
    (lambda s: herald_polarization(s, ProjectionAngles(0.5, 0.0)), "B", "pol_A"),
    (lambda s: project_oam(s, "A", 0), "B", "oam_A"),
    (lambda s: apply_qplate(s, "A", QPlateParams(1.0, 0.5)), "B", "pol_A"),
    (extract_reference_state, "A", "oam_B"),
], ids=["herald", "project", "qplate", "reference"])
def test_operations_on_a_missing_axis_name_it(op, arm, axis):
    photon = State.pure(Space.photon(OamBasis((0, -2)), arm=arm), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(UnsupportedStateError, match=f"state has no {axis} axis"):
        op(photon)


def test_oam_basis_rejects_duplicates():
    with pytest.raises(BasisMismatchError):
        OamBasis((0, -2, -2))


def test_state_norm_validation():
    space = Space.tripartite(OamBasis((0, -2, -4)))
    with pytest.raises(ValueError):
        State(space, "pure", np.ones(12, dtype=complex))
    with pytest.raises(EmptyStateError):
        State.pure(space, np.zeros(12, dtype=complex), normalize=True)


@pytest.mark.parametrize(
    "kind, bad",
    [("pure", float("nan")), ("pure", float("inf")), ("density", float("nan"))],
)
def test_state_rejects_non_finite_data(binary_state, kind, bad):
    data = np.array(binary_state.data if kind == "pure" else binary_state.to_density().data)
    data.flat[0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        State(binary_state.space, kind, data)


def test_projection_angles_domain():
    ProjectionAngles(0.0, 0.0)
    ProjectionAngles(math.pi, 2.0 * math.pi)  # closed at both alpha endpoints
    with pytest.raises(ValueError):
        ProjectionAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        ProjectionAngles(1.0, -0.1)
    with pytest.raises(ValueError):
        ProjectionAngles(1.0, 7.0)


@settings(max_examples=40, deadline=None)
@given(ANGLES)
def test_projection_ket_normalized(angles):
    theta, alpha = angles
    k = ProjectionAngles(theta, alpha).ket()
    assert abs(np.vdot(k, k).real - 1.0) < 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("seed", range(4))
def test_density_kets_are_its_rank(binary_state, rank, seed):
    # eigh leaves round-off in place of the zero eigenvalues; none of it may
    # come back as a ket
    rng = np.random.default_rng(seed)
    dim = binary_state.data.size
    kets = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    rho = kets.T @ kets.conj()
    rho /= np.trace(rho).real
    out = State.density(binary_state.space, rho).kets().reshape(-1, dim)
    assert out.shape[0] == rank
    assert np.abs(out.T @ out.conj() - rho).max() <= 1e-15


# ---------------------------------------------------------------------------
# construction pipeline
# ---------------------------------------------------------------------------


def test_balanced_switch_amplitudes(binary_state):
    s = binary_state
    assert s.space.oam_basis("B").ells == (0, -2, -4)
    assert abs(s.amplitude("R", "R", 0) - 0.5) < 1e-15
    assert abs(s.amplitude("R", "L", -2) - 0.5) < 1e-15
    assert abs(s.amplitude("L", "R", -2) - 0.5) < 1e-15
    assert abs(s.amplitude("L", "L", -4) - 0.5) < 1e-15
    assert abs(s.amplitude("R", "L", 0)) < 1e-15


@pytest.mark.parametrize("labels, named", [
    (("H", "R", 0), "'H'"),
    (("R", None, 0), "None"),
    (("R", "R", 7), "7"),
])
def test_amplitude_rejects_unknown_labels(binary_state, labels, named):
    with pytest.raises(BasisMismatchError, match=named):
        binary_state.amplitude(*labels)
    with pytest.raises(TypeError):
        binary_state.amplitude()


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", 1.5, None])
def test_basis_lookup_takes_only_charges(binary_state, value):
    # True == 1, so a plain tuple lookup would find charge 1 by equality
    basis = OamBasis((1, 0, -2))
    with pytest.raises(TypeError):
        basis.index(value)
    with pytest.raises(TypeError):
        _ = value in basis
    with pytest.raises(TypeError):
        binary_state.amplitude("R", "R", value)


def test_basis_lookup_reads_integral_floats(binary_state):
    basis = OamBasis((1, 0, -2))
    assert basis.index(-2.0) == basis.index(np.int64(-2)) == 2
    assert 1.0 in basis and 3.0 not in basis
    assert binary_state.amplitude("R", "L", -2.0) == binary_state.amplitude("R", "L", -2)


@pytest.mark.parametrize("ell_a", [True, np.bool_(False), [0, True], {True: 1.0}, [(False, 1.0)]])
def test_projection_rejects_bool_charges(ell_a):
    with pytest.raises(TypeError, match="True|False"):
        build_spin_skyrmion_state(ell_a, QPlateParams(1.0, 0.5))


# each of these used to be truncated by int(): (1.5, -2) became (1, -2)
@pytest.mark.parametrize("build, named", [
    (lambda: OamBasis((1.5, -2)), "1.5"),
    (lambda: balanced_switch_state((0, -3.5, -6)), "-3.5"),
    (lambda: spdc_pair_state((0.7, 2)), "0.7"),
    (lambda: build_spin_skyrmion_state({1.5: 1.0}, QPlateParams(1.0, 0.5)), "1.5"),
    (lambda: build_spin_skyrmion_state([(1.5, 1.0)], QPlateParams(1.0, 0.5)), "1.5"),
    (lambda: build_spin_skyrmion_state([("1", 1.0)], QPlateParams(1.0, 0.5)), "'1'"),
], ids=["basis", "balanced", "spdc", "mapping", "pair", "string"])
def test_charges_reject_non_integers(build, named):
    with pytest.raises(TypeError, match=f"charge must be an integer, got {named}"):
        build()


def test_integral_float_charges_are_integers():
    assert OamBasis((0, -2.0, np.float64(-4.0))).ells == (0, -2, -4)
    assert all(type(l) is int for l in OamBasis((0, -2.0)).ells)
    assert balanced_switch_state((0.0, -3, -6.0)).space.oam_basis("B").ells == (0, -3, -6)
    built = build_spin_skyrmion_state([-0.0], QPlateParams(1.0, 0.5))
    assert built.space.oam_basis("B").ells == (0, -2, -4)


def test_pipeline_matches_explicit_ladder(binary_state):
    built = build_spin_skyrmion_state(0, QPlateParams(1.0, 0.5))
    assert built.space.oam_basis("B").ells == (0, -2, -4)
    assert abs(abs(state_overlap(built, binary_state)) - 1.0) < 1e-12


def test_pipeline_ladder_direction():
    s = build_spin_skyrmion_state(1, QPlateParams(1.5, 0.5))
    assert s.space.oam_basis("B").ells == (-1, -4, -7)


def test_spdc_pair_anticorrelated():
    s = spdc_pair_state((0, 1, -3))
    psi = s.tensor()
    basis_a = s.space.oam_basis("A")
    basis_b = s.space.oam_basis("B")
    for l in (0, 1, -3):
        amp = psi[0, basis_a.index(l), 0, basis_b.index(-l)]
        assert abs(amp - 1.0 / math.sqrt(3.0)) < 1e-12


def test_spdc_pair_needs_a_charge():
    with pytest.raises(EmptyStateError):
        spdc_pair_state(())


def test_qplate_tuning_zero_is_identity():
    state = spdc_pair_state((0, 2))
    out = apply_qplate(state, "B", QPlateParams(1.0, 0.0))
    assert out.space.oam_basis("B").ells == state.space.oam_basis("B").ells
    assert abs(abs(state_overlap(out, state)) - 1.0) < 1e-12


def test_qplate_tuning_one_full_conversion():
    state = spdc_pair_state((0,))  # |R,0>_A |R,0>_B
    out = apply_qplate(state, "B", QPlateParams(1.0, 1.0))
    psi = out.tensor()
    basis = out.space.oam_basis("B")
    assert abs(psi[0, 0, 1, basis.index(-2)] - 1.0) < 1e-12


def test_qplate_collision_is_not_an_isometry():
    # |R,2> and |L,0> both feed |R,2>/|L,0> after a q=1 plate; the balanced
    # antisymmetric input interferes destructively and the norm check trips
    basis = OamBasis((2, 0))
    space = Space.photon(basis)
    psi = np.zeros(space.dims, dtype=complex)
    psi[0, basis.index(2)] = 1.0 / math.sqrt(2.0)
    psi[1, basis.index(0)] = -1.0 / math.sqrt(2.0)
    state = State(space, "pure", psi.reshape(-1))
    with pytest.raises(ValueError):
        apply_qplate(state, "B", QPlateParams(1.0, 0.5))


def test_qplate_requires_pure_state(binary_state):
    with pytest.raises(UnsupportedStateError):
        apply_qplate(binary_state.to_density(), "B", QPlateParams(1.0, 0.5))


# ---------------------------------------------------------------------------
# heralding and projections
# ---------------------------------------------------------------------------


def test_herald_north_pole(binary_state):
    cond, prob = herald_polarization(binary_state, ProjectionAngles(0.0, 0.0))
    assert abs(prob - 0.5) < 1e-12
    psi = cond.tensor()
    basis = cond.space.oam_basis("B")
    assert abs(psi[0, basis.index(0)] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(psi[1, basis.index(-2)] - 1.0 / math.sqrt(2.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(ANGLES)
def test_herald_probability_is_half(angles):
    # reduced pol-A state of the balanced ladder is maximally mixed
    state = balanced_switch_state((0, -2, -4))
    _, prob = herald_polarization(state, ProjectionAngles(*angles))
    assert abs(prob - 0.5) < 1e-12


def test_herald_completeness(binary_state):
    # orthogonal heralds split the state: probabilities sum to one
    _, p1 = herald_polarization(binary_state, ProjectionAngles(0.8, 1.1))
    _, p2 = herald_polarization(
        binary_state, ProjectionAngles(math.pi - 0.8, 1.1 + math.pi)
    )
    assert abs(p1 + p2 - 1.0) < 1e-12


def test_herald_density_input_matches_pure(binary_state):
    angles = ProjectionAngles(1.0, 2.0)
    cond_p, prob_p = herald_polarization(binary_state, angles)
    cond_d, prob_d = herald_polarization(binary_state.to_density(), angles)
    assert abs(prob_p - prob_d) < 1e-12
    rho_p = cond_p.to_density().data
    assert np.allclose(rho_p, cond_d.data, atol=1e-12)


def test_herald_zero_probability():
    # state with pol_A fixed to R cannot herald onto pure L
    basis = OamBasis((0, -2))
    space = Space.tripartite(basis)
    psi = np.zeros(space.dims, dtype=complex)
    psi[0, 0, 0] = 1.0
    state = State(space, "pure", psi.reshape(-1))
    with pytest.raises(ZeroProbabilityError):
        herald_polarization(state, ProjectionAngles(math.pi, 0.0))


def test_project_oam_drop_axis(binary_state):
    out, prob = project_oam(binary_state, "B", {0: 1.0})
    assert abs(prob - 0.25) < 1e-12
    assert not out.space.has_axis("oam_B")
    assert abs(out.tensor()[0, 0] - 1.0) < 1e-12  # collapses onto |R,R>


def test_chi_vector_keeps_normalized_entries():
    # the projection is normalized once; the overlap ket carries those
    # amplitudes unchanged
    entries = _normalize_projection({0: 1, -2: 1j, 5: 0.3})
    chi = _chi_vector(OamBasis((0, -2, 5, 7)), entries)
    assert chi.tolist() == [a for _, a in entries] + [0j]


def test_restrict_oam_b_keeps_coherence(binary_state):
    out = restrict_oam_b(binary_state, (0, -4))
    assert abs(out.amplitude("R", "R", 0) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(out.amplitude("L", "L", -4) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(out.amplitude("R", "L", -2)) < 1e-15


def test_extract_ghz_default(triple_state):
    ghz = extract_ghz_state(triple_state)
    assert abs(ghz.amplitude("R", "R", 0) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(ghz.amplitude("L", "L", -6) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(ghz.amplitude("R", "L", -3)) < 1e-15


def test_extract_reference_default(triple_state):
    ref = extract_reference_state(triple_state)
    assert abs(ref.amplitude("R", "L", -3) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(ref.amplitude("L", "R", -3) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(ref.amplitude("R", "R", 0)) < 1e-15


# ---------------------------------------------------------------------------
# overlaps and serialization
# ---------------------------------------------------------------------------


def test_state_overlap_conjugate_symmetry(binary_state, triple_state):
    ab = state_overlap(binary_state, triple_state)
    ba = state_overlap(triple_state, binary_state)
    assert abs(ab - np.conj(ba)) < 1e-14
    # ladders share only the top charge, each with amplitude 1/2
    assert abs(ab - 0.25) < 1e-12


def test_state_dict_roundtrip(binary_state):
    doc = state_to_dict(binary_state)
    back = state_from_dict(doc)
    assert back.space.oam_basis("B").ells == (0, -2, -4)
    assert abs(abs(state_overlap(back, binary_state)) - 1.0) < 1e-15


def test_save_load_roundtrip(tmp_path, binary_state):
    path = tmp_path / "state.json"
    save_state(path, binary_state, meta={"note": "x"})
    back, meta = load_state(path)
    assert meta["note"] == "x"
    assert abs(abs(state_overlap(back, binary_state)) - 1.0) < 1e-15


def test_save_load_density(tmp_path, binary_state):
    path = tmp_path / "rho.json"
    rho = binary_state.to_density()
    save_state(path, rho)
    back, _ = load_state(path)
    assert back.kind == "density"
    assert np.allclose(back.data, rho.data, atol=1e-15)
