"""Measurement model and density-matrix reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskyrm import (
    BasisMismatchError,
    MeasurementRecord,
    OamBasis,
    Space,
    State,
    balanced_switch_state,
    build_projector_set,
    fidelity,
    forward_model,
    heralded_werner_state,
    purity,
    reconstruct,
    simulate_counts,
)
from qskyrm.tomography import (
    _SHOT_NOISE_FTOL,
    _estimate_probabilities,
    _measurement_matrix,
    _misfit,
    _project_density,
    _stack_real,
    _unstack,
)


def random_pure(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ells = tuple(range(dim // 4))
    space = Space.tripartite(OamBasis(ells))
    return State.pure(space, v, normalize=True)


@pytest.fixture(scope="module")
def pset2():
    return build_projector_set(2)


@pytest.fixture(scope="module")
def pset3():
    return build_projector_set(3)


# ---------------------------------------------------------------------------
# setting family
# ---------------------------------------------------------------------------


def test_setting_family_sizes(pset2, pset3):
    assert len(pset2) == 216 and pset2.dim == 8
    assert len(pset3) == 540 and pset3.dim == 12
    with pytest.raises(ValueError):
        build_projector_set(4)


def test_groups_resolve_identity(pset3):
    # every normalization group is a complete product basis
    d = pset3.dim
    for group in pset3.groups:
        acc = np.zeros((d, d), dtype=complex)
        for k in group:
            acc += pset3.projector(k)
        np.testing.assert_allclose(acc, np.eye(d), atol=1e-12)


def test_every_setting_has_an_owner_group(pset3):
    for k in range(len(pset3)):
        assert k in pset3.groups[pset3.owner_group[k]]


def test_forward_probabilities_sum_per_group(pset3, binary_state):
    rec = forward_model(binary_state, pset3)
    for group in pset3.groups:
        assert abs(rec.values[list(group)].sum() - 1.0) < 1e-12


def test_forward_model_linearity(pset2):
    a = random_pure(8, 3).to_density()
    b = random_pure(8, 4).to_density()
    mix = State(a.space, "density", 0.3 * a.data + 0.7 * b.data)
    pa = forward_model(a, pset2).values
    pb = forward_model(b, pset2).values
    pm = forward_model(mix, pset2).values
    np.testing.assert_allclose(pm, 0.3 * pa + 0.7 * pb, atol=1e-12)


def test_maximally_mixed_is_flat(pset3):
    space = Space.tripartite(OamBasis((0, -2, -4)))
    rho = State(space, "density", np.eye(12) / 12.0)
    rec = forward_model(rho, pset3)
    np.testing.assert_allclose(rec.values, 1.0 / 12.0, atol=1e-12)


@pytest.mark.parametrize("d_sp, seed", [(2, 31), (3, 32), (3, 33)])
def test_forward_model_matches_trace_rule(pset2, pset3, d_sp, seed):
    pset = pset2 if d_sp == 2 else pset3
    a = random_pure(pset.dim, seed).to_density()
    b = random_pure(pset.dim, seed + 100).to_density()
    mix = State(a.space, "density", 0.6 * a.data + 0.4 * b.data)
    for state in (a, mix):
        p = forward_model(state, pset).values
        ref = [np.trace(state.data @ pset.projector(k)).real for k in range(len(pset))]
        np.testing.assert_allclose(p, ref, rtol=0.0, atol=1e-14)


def test_forward_model_dimension_check(pset2, binary_state):
    with pytest.raises(BasisMismatchError):
        forward_model(binary_state, pset2)  # 12-dim state, 8-dim settings


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def test_simulate_counts_deterministic(pset3, binary_state):
    probs = forward_model(binary_state, pset3)
    a = simulate_counts(probs, 1000, seed=9)
    b = simulate_counts(probs, 1000, seed=9)
    c = simulate_counts(probs, 1000, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.kind == "counts" and a.total_per_setting == 1000 and a.seed == 9


def test_simulate_counts_scale(pset3, binary_state):
    probs = forward_model(binary_state, pset3)
    rec = simulate_counts(probs, 10000, seed=2)
    # group totals concentrate around the per-setting budget
    totals = [rec.values[list(g)].sum() for g in pset3.groups]
    assert abs(np.mean(totals) - 10000) < 300


def test_estimated_probabilities_invert_exact_counts(pset3, binary_state):
    # counts proportional to the true probabilities estimate back exactly,
    # because each owner group's total is the common scale factor
    probs = forward_model(binary_state, pset3)
    rec = MeasurementRecord(1e6 * probs.values, "counts", 1000000, 0)
    p = _estimate_probabilities(rec, pset3)
    np.testing.assert_allclose(p, probs.values, atol=1e-12)


def test_simulate_counts_validation(pset3, binary_state):
    probs = forward_model(binary_state, pset3)
    counts = simulate_counts(probs, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_counts(counts, 100, seed=1)  # counts are not probabilities
    with pytest.raises(ValueError):
        simulate_counts(probs, 0, seed=1)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def _reference_objective(rho, p_hat, b):
    """The misfit over rho written directly over the kets b_k, as
    three-operand einsums, with its gradient in [Re rho, Im rho]."""
    err = np.einsum("ki,ij,kj->k", b.conj(), rho, b).real - p_hat
    w = np.einsum("k,ki,kj->ij", err, b.conj(), b)
    return float(err @ err), 2.0 * np.concatenate([w.real.ravel(), -w.imag.ravel()])


def _gram_form(A, p_hat):
    return A.T @ A, A.T @ p_hat, float(p_hat @ p_hat)


def random_kets(rng, n, d):
    b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def random_density(rng, d, rank=None):
    g = rng.normal(size=(d, rank or d)) + 1j * rng.normal(size=(d, rank or d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 40))
def test_objective_matches_ket_reference(seed, d, n):
    rng = np.random.default_rng(seed)
    b = random_kets(rng, n, d)
    p_hat = rng.uniform(0.0, 1.0, size=n)
    rho = random_density(rng, d)
    A, r = _measurement_matrix(b), _stack_real(rho)
    f, grad = _misfit(r, *_gram_form(A, p_hat))
    f_ref, grad_ref = _reference_objective(rho, p_hat, b)
    # the Gram form sums p.p, -2 p.p_hat and p_hat.p_hat, so their rounding,
    # not f's, sets its scale when p nearly fits
    scale = (np.linalg.norm(A @ r) + np.linalg.norm(p_hat)) ** 2
    assert abs(f - f_ref) <= 1e-14 * scale
    np.testing.assert_allclose(grad, grad_ref, rtol=0.0, atol=1e-12)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    d = 4
    A = _measurement_matrix(random_kets(rng, 20, d))
    p_hat = rng.uniform(0.0, 0.5, size=20)
    gram = _gram_form(A, p_hat)
    r = rng.normal(scale=0.3, size=2 * d * d)
    _, grad = _misfit(r, *gram)
    eps = 1e-6
    for k in range(r.size):
        rp, rm = r.copy(), r.copy()
        rp[k] += eps
        rm[k] -= eps
        fd = (_misfit(rp, *gram)[0] - _misfit(rm, *gram)[0]) / (2.0 * eps)
        assert abs(fd - grad[k]) < 1e-6 * max(1.0, abs(fd))


def _random_matrix(seed, d):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 3.0)
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_spectrum_projection_is_physical_and_idempotent(seed, d):
    x = _random_matrix(seed, d)
    r = _project_density(_stack_real(x), d)
    rho = _unstack(r, d)
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    np.testing.assert_allclose(_project_density(r, d), r, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_spectrum_projection_is_the_nearest_density_matrix(seed, d):
    # projection onto a convex set: <x - P(x), sigma - P(x)> <= 0 for every
    # sigma in the set
    x = _random_matrix(seed, d)
    p = _unstack(_project_density(_stack_real(x), d), d)
    rng = np.random.default_rng(seed + 1)
    for rank in range(1, d + 1):
        sigma = random_density(rng, d, rank)
        assert np.trace((x - p) @ (sigma - p)).real <= 1e-12


def _simplex_by_bisection(w):
    """Projection onto the unit simplex: max(w - theta, 0) summing to one."""
    lo, hi = w.min() - 1.0, w.max()
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        lo, hi = (theta, hi) if np.maximum(w - theta, 0.0).sum() > 1.0 else (lo, theta)
    return np.maximum(w - 0.5 * (lo + hi), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=10))
def test_spectrum_projection_of_a_diagonal_is_the_simplex_projection(w):
    w = np.array(w)
    d = w.size
    rho = _unstack(_project_density(_stack_real(np.diag(w).astype(complex)), d), d)
    np.testing.assert_allclose(rho, np.diag(_simplex_by_bisection(w)), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d_sp", [2, 3])
def test_step_is_the_inverse_lipschitz_constant_over_traceless_matrices(d_sp):
    pset = build_projector_set(d_sp)
    e = _stack_real(np.eye(pset.dim)) / math.sqrt(pset.dim)
    traceless = np.eye(e.size) - np.outer(e, e)
    lam = np.linalg.eigvalsh(traceless @ pset.gram @ traceless)[-1]
    assert abs(pset.step * 2.0 * lam - 1.0) < 1e-12
    assert pset.step > 0.5 / np.linalg.eigvalsh(pset.gram)[-1]


def test_noiseless_mixed_state_is_recovered(pset3):
    rho = random_density(np.random.default_rng(0), pset3.dim)
    assert np.linalg.eigvalsh(rho).min() > 1e-5  # full rank
    target = State(Space.tripartite(OamBasis((0, 1, 2))), "density", rho)
    result = reconstruct(forward_model(target, pset3), pset3)
    assert result.converged
    assert np.abs(result.rho_hat.data - rho).max() <= 1e-8


def _plain_projected_gradient(record, pset, tol=1e-14):
    """Unaccelerated projected gradient with step 1/(2 lambda_max(A^T A)),
    run until a step moves no entry by more than tol."""
    A = pset.measurement_matrix
    p_hat = _estimate_probabilities(record, pset)
    gram, h, _ = _gram_form(A, p_hat)
    step = 0.5 / np.linalg.eigvalsh(gram)[-1]
    d = pset.dim
    x = _stack_real(np.eye(d) / d)
    for _ in range(20000):
        m = _unstack(x - 2.0 * step * (gram @ x - h), d)
        w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
        x_new = _stack_real((v * _simplex_by_bisection(w)) @ v.conj().T)
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    raise AssertionError("reference fit did not converge")


@pytest.mark.parametrize("seed", [1, 5])
def test_count_fit_matches_plain_projected_gradient(pset3, binary_state, seed):
    record = simulate_counts(forward_model(binary_state, pset3), 10000, seed=seed)
    reference = _plain_projected_gradient(record, pset3)
    result = reconstruct(record, pset3)
    assert result.converged and result.iterations <= 100  # the reference takes ~800
    p_hat = _estimate_probabilities(record, pset3)
    A = pset3.measurement_matrix
    excess = result.residual**2 - float(np.sum((A @ reference - p_hat) ** 2))
    # the fit stops once a step gains less than ftol; it ends within a few
    # ftol of the optimum, so some 1e-5 from it, far below the shot noise
    ftol = _SHOT_NOISE_FTOL * float(p_hat.sum()) / 10000
    assert -1e-15 <= excess <= 10.0 * ftol
    assert np.abs(_stack_real(result.rho_hat.data) - reference).max() <= 1e-4


def test_noiseless_roundtrip_small(pset2):
    target = random_pure(8, 21)
    rec = forward_model(target, pset2)
    result = reconstruct(rec, pset2, target=target)
    assert result.fidelity_vs_target >= 0.999
    assert result.converged and result.termination in ("ftol", "gtol")
    evals = np.linalg.eigvalsh(result.rho_hat.data)
    assert evals.min() >= -1e-10


def test_reconstruct_without_target(pset2):
    target = random_pure(8, 22)
    rec = forward_model(target, pset2)
    result = reconstruct(rec, pset2)
    assert result.fidelity_vs_target is None
    assert fidelity(result.rho_hat, target) >= 0.999


def test_reconstruct_deterministic(pset2):
    target = random_pure(8, 23)
    rec = simulate_counts(forward_model(target, pset2), 2000, seed=3)
    r1 = reconstruct(rec, pset2, target=target)
    r2 = reconstruct(rec, pset2, target=target)
    assert np.array_equal(r1.rho_hat.data, r2.rho_hat.data)
    assert r1.iterations == r2.iterations


def test_count_fit_stops_at_shot_noise_floor(pset3, binary_state):
    record = simulate_counts(forward_model(binary_state, pset3), 10000, seed=5)
    result = reconstruct(record, pset3, target=binary_state)
    assert result.iterations < 1000
    assert result.termination != "iteration_cap"
    assert result.converged
    assert result.fidelity_vs_target >= 0.98


def test_iteration_cap_is_not_convergence(pset3, binary_state):
    record = simulate_counts(forward_model(binary_state, pset3), 10000, seed=5)
    result = reconstruct(record, pset3, max_iterations=5)
    assert result.iterations == 5
    assert result.termination == "iteration_cap"
    assert not result.converged


def test_record_length_check(pset2):
    bad = MeasurementRecord(np.zeros(10), "probabilities")
    with pytest.raises(BasisMismatchError):
        reconstruct(bad, pset2)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_purity_limits(binary_state):
    assert abs(purity(binary_state) - 1.0) < 1e-12
    space = Space.tripartite(OamBasis((0, -2, -4)))
    mixed = State(space, "density", np.eye(12) / 12.0)
    assert abs(purity(mixed) - 1.0 / 12.0) < 1e-12


def test_fidelity_pure_pure(binary_state, triple_state):
    assert abs(fidelity(binary_state, binary_state) - 1.0) < 1e-12
    # ladders share one product amplitude of 1/2
    assert abs(fidelity(binary_state, triple_state) - 0.0625) < 1e-12


def test_fidelity_symmetry_mixed():
    a = heralded_werner_state(0.3)
    b = heralded_werner_state(0.8)
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10


def test_werner_fidelity_closed_form():
    # F(rho_p, psi) = p + (1 - p)/4 in the heralded sector
    psi = heralded_werner_state(1.0)
    for p in (0.0, 0.25, 0.5, 0.9):
        rho = heralded_werner_state(p)
        assert abs(fidelity(rho, psi) - (p + 0.25 * (1.0 - p))) < 1e-12


def test_fidelity_dimension_check(binary_state):
    small = heralded_werner_state(0.5)
    with pytest.raises(BasisMismatchError):
        fidelity(binary_state.to_density(), small)
