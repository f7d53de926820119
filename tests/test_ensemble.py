"""Every state operation runs over the state's ket ensemble.

The reference functions below are the density-matrix formulas the toolkit
used before pure and mixed states shared one code path: the herald and OAM
projection sandwich ``einsum("i,ij...,j->...")``, the masked restriction, the
mode-sandwiched Stokes matrix ``einsum("jkmn,kyx,nyx->jmyx")`` and the Bell
expectation <m|rho|m>.  The ensemble path must agree with them on random
mixtures of every rank, including rank-deficient ones whose eigenvalues come
out as tiny negatives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    GridSpec,
    OamBasis,
    ProjectionAngles,
    Space,
    State,
    herald_polarization,
    mode_stack,
    project_oam,
    restrict_oam_b,
    stokes_of_photon_state,
)
from qskyrm.bell import BellSubspace, _coincidence_probability
from qskyrm.hilbert import Axis, polarization_ket

TOL = 1e-12
GRID = GridSpec(nx=24, ny=24, half_extent=3.0, waist=1.0)
LADDERS = [(0, -2), (0, -2, -4), (1, -1, -3)]


# ---------------------------------------------------------------------------
# reference formulas (density matrix in, density matrix out)
# ---------------------------------------------------------------------------


def ref_sandwich(state, name, vec):
    """rho restricted by <vec| . |vec> on axis ``name``: (cond / p, p)."""
    n = len(state.space.axes)
    i = state.space.axis_position(name)
    rho = np.moveaxis(state.to_density().tensor(), (i, n + i), (0, 1))
    cond = np.einsum("i,ij...,j->...", vec.conj(), rho, vec)
    d = state.space.drop_axis(name).dim
    cond = cond.reshape(d, d)
    prob = float(np.trace(cond).real)
    return cond / prob, prob


def ref_herald(state, angles):
    return ref_sandwich(state, "pol_A", angles.ket())


def ref_project_keep(state, coeffs):
    """Kept-axis projection: |chi><chi| (x) conditional state over the basis
    widened by the requested charges (appended in request order)."""
    io = state.space.axis_position("oam_B")
    basis = state.space.oam_basis("B")
    nrm = math.sqrt(sum(abs(a) ** 2 for a in coeffs.values()))
    chi_in = np.array([coeffs.get(l, 0.0) for l in basis.ells], dtype=complex) / nrm
    cond, prob = ref_sandwich(state, "oam_B", chi_in)
    wide = OamBasis(basis.ells + tuple(l for l in coeffs if l not in basis))
    chi = np.array([coeffs.get(l, 0.0) for l in wide.ells], dtype=complex) / nrm
    space = state.space.replace_basis("B", wide)
    n = len(space.axes)
    rest = tuple(d for k, d in enumerate(space.dims) if k != io)
    mat = np.multiply.outer(np.outer(chi, chi.conj()), cond)
    mat = mat.reshape((wide.dim, wide.dim) + rest + rest)
    mat = np.moveaxis(mat, (0, 1), (io, n + io))
    return mat.reshape(space.dim, space.dim), prob, space


def ref_restrict(state, ells):
    n = len(state.space.axes)
    io = state.space.axis_position("oam_B")
    mask = np.array([l in ells for l in state.space.oam_basis("B").ells])
    rho = np.moveaxis(state.to_density().tensor(), (io, n + io), (0, 1)).copy()
    rho[~mask] = 0.0
    rho[:, ~mask] = 0.0
    rho = np.moveaxis(rho, (0, 1), (io, n + io)).reshape(state.dim, state.dim)
    return rho / np.trace(rho).real


def ref_stokes(state, grid):
    ip = state.space.axis_position("pol_B")
    modes = mode_stack(state.space.oam_basis("B").ells, grid)
    rho = state.to_density().tensor()
    if ip == 1:
        rho = np.transpose(rho, (1, 0, 3, 2))
    p = np.einsum("jkmn,kyx,nyx->jmyx", rho, modes, np.conj(modes))
    return np.stack(
        [
            (p[0, 0] + p[1, 1]).real,
            2.0 * p[0, 1].real,
            -2.0 * p[0, 1].imag,
            (p[0, 0] - p[1, 1]).real,
        ]
    )


def ref_coincidence(state, chi, theta_b, subspace):
    basis = state.space.oam_basis("B")
    herald = np.array([1.0, np.exp(1j * chi)], dtype=complex) / math.sqrt(2.0)
    analyzer = np.zeros(basis.dim, dtype=complex)
    analyzer[basis.index(subspace.pair[0])] = 1.0 / math.sqrt(2.0)
    analyzer[basis.index(subspace.pair[1])] = np.exp(-1j * theta_b) / math.sqrt(2.0)
    m = np.kron(herald, np.kron(polarization_ket(subspace.pol_b), analyzer))
    rho = state.to_density().data
    return float(np.vdot(m, rho @ m).real)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_state(space, rank, form, seed):
    """``form``: "pure" (a ket), "outer" (to_density() of a ket) or "mixture"
    (random weights over ``rank`` random kets, so rank-deficient below dim)."""
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(rank, space.dim)) + 1j * rng.normal(size=(rank, space.dim))
    if form != "mixture":
        psi = State.pure(space, kets[0], normalize=True)
        return psi if form == "pure" else psi.to_density()
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    w = rng.uniform(0.05, 1.0, size=rank)
    rho = np.einsum("k,ki,kj->ij", w / w.sum(), kets, kets.conj())
    return State.density(space, 0.5 * (rho + rho.conj().T))


def as_density(state):
    return state.to_density().data


ENSEMBLES = st.tuples(
    st.sampled_from(LADDERS),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["pure", "outer", "mixture"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def tripartite(ensemble):
    ladder, rank, form, seed = ensemble
    space = Space.tripartite(OamBasis(ladder))
    return random_state(space, min(rank, space.dim), form, seed)


# ---------------------------------------------------------------------------
# the accessor itself
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ENSEMBLES)
def test_kets_rebuild_the_state(ensemble):
    state = tripartite(ensemble)
    kets = state.kets()
    assert kets.shape[1:] == state.space.dims
    flat = kets.reshape(len(kets), -1)
    np.testing.assert_allclose(flat.T @ flat.conj(), as_density(state), atol=TOL)
    if state.is_pure:
        assert len(kets) == 1


# ---------------------------------------------------------------------------
# the merged operations against the reference formulas
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    ENSEMBLES,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_herald_matches_reference(ensemble, theta, alpha):
    state = tripartite(ensemble)
    angles = ProjectionAngles(theta, alpha)
    out, prob = herald_polarization(state, angles)
    ref, ref_prob = ref_herald(state, angles)
    assert out.kind == state.kind
    assert abs(prob - ref_prob) < TOL
    np.testing.assert_allclose(as_density(out), ref, atol=TOL)


@settings(max_examples=80, deadline=None)
@given(ENSEMBLES, st.data())
def test_project_oam_matches_reference(ensemble, data):
    state = tripartite(ensemble)
    ells = state.space.oam_basis("B").ells
    inside = data.draw(st.lists(st.sampled_from(ells), min_size=1, max_size=2, unique=True))
    outside = data.draw(st.sampled_from([[], [7]]))  # 7 is in no ladder
    amps = data.draw(
        st.lists(
            st.complex_numbers(min_magnitude=0.2, max_magnitude=1.0),
            min_size=len(inside) + len(outside),
            max_size=len(inside) + len(outside),
        )
    )
    coeffs = dict(zip(inside + outside, amps))

    out, prob = project_oam(state, "B", coeffs, keep_axis=False)
    ref, ref_prob = ref_sandwich(
        state,
        "oam_B",
        np.array([coeffs.get(l, 0.0) for l in ells], dtype=complex)
        / math.sqrt(sum(abs(a) ** 2 for a in amps)),
    )
    assert out.kind == state.kind
    assert not out.space.has_axis("oam_B")
    assert abs(prob - ref_prob) < TOL
    np.testing.assert_allclose(as_density(out), ref, atol=TOL)

    out, prob = project_oam(state, "B", coeffs, keep_axis=True)
    ref, ref_prob, ref_space = ref_project_keep(state, coeffs)
    assert out.kind == state.kind
    assert out.space == ref_space
    assert abs(prob - ref_prob) < TOL
    np.testing.assert_allclose(as_density(out), ref, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(ENSEMBLES, st.data())
def test_restrict_oam_b_matches_reference(ensemble, data):
    state = tripartite(ensemble)
    ells = state.space.oam_basis("B").ells
    keep = data.draw(st.lists(st.sampled_from(ells), min_size=1, unique=True))
    out = restrict_oam_b(state, keep)
    assert out.kind == state.kind
    np.testing.assert_allclose(as_density(out), ref_restrict(state, keep), atol=TOL)


@settings(max_examples=40, deadline=None)
@given(ENSEMBLES, st.booleans())
def test_stokes_matches_reference(ensemble, oam_first):
    ladder, rank, form, seed = ensemble
    basis = OamBasis(ladder)
    axes = (Axis("pol_B", "pol"), Axis("oam_B", "oam", basis))
    space = Space(axes[::-1] if oam_first else axes)
    state = random_state(space, min(rank, space.dim), form, seed)
    # the envelope-free maps grow toward the window's edge: the tolerance is
    # relative to their largest value
    want = ref_stokes(state, GRID)
    got = stokes_of_photon_state(state, GRID).free
    np.testing.assert_allclose(got, want, atol=TOL * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    ENSEMBLES,
    st.sampled_from(["R", "L"]),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_coincidence_matches_reference(ensemble, pol_b, chi, theta_b):
    state = tripartite(ensemble)
    ells = state.space.oam_basis("B").ells
    subspace = BellSubspace(pol_b, (ells[-1], ells[0]))
    got = _coincidence_probability(state, chi, theta_b, subspace)
    assert abs(got - ref_coincidence(state, chi, theta_b, subspace)) < TOL


@pytest.mark.parametrize("keep_axis", [True, False])
def test_density_projection_extends_basis_like_pure(binary_state, keep_axis):
    coeffs = {0: 1.0, 5: 1.0j}
    pure, p_pure = project_oam(binary_state, "B", coeffs, keep_axis=keep_axis)
    dens, p_dens = project_oam(binary_state.to_density(), "B", coeffs, keep_axis=keep_axis)
    assert dens.kind == "density"
    assert dens.space == pure.space
    assert abs(p_pure - p_dens) < TOL
    np.testing.assert_allclose(dens.data, as_density(pure), atol=TOL)
