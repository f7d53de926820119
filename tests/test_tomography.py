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
    _build_l,
    _estimate_probabilities,
    _measurement_matrix,
    _misfit_objective,
    _tril_indexing,
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


def _reference_objective(x, p_hat, b, d, rows, cols):
    """The misfit written directly over the kets b_k, as three-operand einsums."""
    n_off = rows.size
    L = _build_l(x, d, rows, cols)
    a = L @ L.conj().T
    t = np.trace(a).real
    rho = a / t
    err = np.einsum("ki,ij,kj->k", b.conj(), rho, b).real - p_hat
    w = np.einsum("k,ki,kj->ij", err, b, b.conj())
    g = (2.0 / t) * (w - np.trace(w @ rho).real * np.eye(d)) @ L
    grad = np.concatenate(
        [
            2.0 * np.diag(g).real * np.exp(x[:d]),
            2.0 * g[rows, cols].real,
            2.0 * g[rows, cols].imag,
        ]
    )
    return float(err @ err), grad


def random_kets(rng, n, d):
    b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return b / np.linalg.norm(b, axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 40))
def test_objective_matches_ket_reference(seed, d, n):
    rng = np.random.default_rng(seed)
    rows, cols = _tril_indexing(d)
    b = random_kets(rng, n, d)
    p_hat = rng.uniform(0.0, 1.0, size=n)
    x = rng.normal(scale=0.5, size=d + 2 * rows.size)
    f, grad = _misfit_objective(x, p_hat, _measurement_matrix(b), d, rows, cols)
    f_ref, grad_ref = _reference_objective(x, p_hat, b, d, rows, cols)
    # f is a sum of squared differences of probabilities, so rounding of p
    # (relative to p, not to p - p_hat) sets its scale when p nearly fits
    assert abs(f - f_ref) <= 1e-14 * max(f_ref, float(p_hat @ p_hat))
    np.testing.assert_allclose(grad, grad_ref, rtol=0.0, atol=1e-12)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    d = 4
    rows, cols = _tril_indexing(d)
    n_par = d + 2 * rows.size
    A = _measurement_matrix(random_kets(rng, 20, d))
    p_hat = rng.uniform(0.0, 0.5, size=20)
    x = rng.normal(scale=0.3, size=n_par)
    _, grad = _misfit_objective(x, p_hat, A, d, rows, cols)
    eps = 1e-6
    for k in range(n_par):
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        fp, _ = _misfit_objective(xp, p_hat, A, d, rows, cols)
        fm, _ = _misfit_objective(xm, p_hat, A, d, rows, cols)
        fd = (fp - fm) / (2.0 * eps)
        assert abs(fd - grad[k]) < 1e-6 * max(1.0, abs(fd))


def test_cholesky_parametrization_is_physical():
    rng = np.random.default_rng(5)
    d = 6
    rows, cols = _tril_indexing(d)
    x = rng.normal(size=d + 2 * rows.size)
    L = _build_l(x, d, rows, cols)
    rho = L @ L.conj().T
    rho /= np.trace(rho).real
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() >= -1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_noiseless_roundtrip_small(pset2):
    target = random_pure(8, 21)
    rec = forward_model(target, pset2)
    result = reconstruct(rec, pset2, init_seed=1, target=target)
    assert result.fidelity_vs_target >= 0.999
    assert result.converged and result.termination in ("ftol", "gtol")
    evals = np.linalg.eigvalsh(result.rho_hat.data)
    assert evals.min() >= -1e-10


def test_reconstruct_without_target(pset2):
    target = random_pure(8, 22)
    rec = forward_model(target, pset2)
    result = reconstruct(rec, pset2, init_seed=1)
    assert result.fidelity_vs_target is None
    assert fidelity(result.rho_hat, target) >= 0.999


def test_reconstruct_deterministic(pset2):
    target = random_pure(8, 23)
    rec = simulate_counts(forward_model(target, pset2), 2000, seed=3)
    r1 = reconstruct(rec, pset2, init_seed=6, target=target)
    r2 = reconstruct(rec, pset2, init_seed=6, target=target)
    assert np.array_equal(r1.rho_hat.data, r2.rho_hat.data)
    assert r1.iterations == r2.iterations


def test_count_fit_stops_at_shot_noise_floor(pset3, binary_state):
    record = simulate_counts(forward_model(binary_state, pset3), 10000, seed=5)
    result = reconstruct(record, pset3, init_seed=5, target=binary_state)
    assert result.iterations < 1000
    assert result.termination != "iteration_cap"
    assert result.converged
    assert result.fidelity_vs_target >= 0.98


def test_iteration_cap_is_not_convergence(pset3, binary_state):
    record = simulate_counts(forward_model(binary_state, pset3), 10000, seed=5)
    result = reconstruct(record, pset3, init_seed=5, max_iterations=5)
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
