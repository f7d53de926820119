"""Acceptance gate: every release criterion, one pass/fail line each.

Run with plain pytest; each criterion prints

    [PASS|FAIL] criterion <k> <name>: <measured values>

directly to the terminal (bypassing capture) and then asserts.  Tolerances
are stated inline next to each check.
"""

import math
import time

import numpy as np
import pytest

from qskyrm import (
    GridSpec,
    OamBasis,
    ProjectionAngles,
    QPlateParams,
    Space,
    State,
    TSIRELSON_BOUND,
    apply_qplate,
    balanced_switch_state,
    build_projector_set,
    build_spin_skyrmion_state,
    chsh_parameter,
    conditional_stokes,
    extract_ghz_state,
    forward_model,
    herald_polarization,
    heralded_werner_state,
    locate_quasiparticles,
    normalize_stokes,
    reconstruct,
    simulate_counts,
    skyrmion_density,
    skyrmion_number,
    spdc_pair_state,
    sphere_sweep,
    track_dynamics,
)

GRID = GridSpec(512, 512, 4.0, 1.0)
EQUATOR = 0.5 * math.pi


def report(capsys, index, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {index} {name}: {detail}")
    assert ok, f"criterion {index} {name}: {detail}"


def number_at(state, theta, alpha=0.0, grid=GRID):
    unit = normalize_stokes(conditional_stokes(state, ProjectionAngles(theta, alpha), grid))
    return skyrmion_number(skyrmion_density(unit))


@pytest.fixture(scope="module")
def binary_state():
    return balanced_switch_state((0, -2, -4))


@pytest.fixture(scope="module")
def triple_state():
    return balanced_switch_state((0, -3, -6))


@pytest.fixture(scope="module")
def tomography_fits(binary_state):
    """Noiseless random-state fit plus twenty seeded count-level fits."""
    pset = build_projector_set(3)

    rng = np.random.default_rng(11)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    random_target = State.pure(
        Space.tripartite(OamBasis((0, -2, -4))), v, normalize=True
    )
    t0 = time.perf_counter()
    noiseless = reconstruct(
        forward_model(random_target, pset), pset, target=random_target
    )
    noiseless_time = time.perf_counter() - t0

    probs = forward_model(binary_state, pset)
    poisson = []
    times = []
    for seed in range(20):
        record = simulate_counts(probs, 10000, seed)
        t0 = time.perf_counter()
        result = reconstruct(record, pset, target=binary_state)
        times.append(time.perf_counter() - t0)
        poisson.append(result)
    return {
        "pset": pset,
        "noiseless": noiseless,
        "noiseless_time": noiseless_time,
        "poisson": poisson,
        "poisson_times": times,
        "probs": probs,
    }


def test_criterion_1_binary_sphere_sweep(binary_state, capsys):
    t0 = time.perf_counter()
    smap = sphere_sweep(binary_state, grid=GRID)  # default 9 x 8 angle grid
    elapsed = time.perf_counter() - t0
    assert smap.n_values.shape == (9, 8) and smap.valid.all()
    poles = np.concatenate([smap.n_values[0], smap.n_values[-1]])
    equator = smap.n_values[4]
    pole_err = float(np.abs(poles + 2.0).max())
    eq_err = float(np.abs(equator + 4.0).max())
    ok = pole_err <= 0.1 and eq_err <= 0.1 and elapsed <= 60.0
    report(
        capsys,
        1,
        "binary switch sphere sweep",
        ok,
        f"pole |n+2| max {pole_err:.4f} (tol 0.1), equator |n+4| max {eq_err:.4f} "
        f"(tol 0.1), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_deeper_ladder(triple_state, capsys):
    n_north = number_at(triple_state, 0.0)
    n_south = number_at(triple_state, math.pi)
    n_eq = number_at(triple_state, EQUATOR)
    pole_err = max(abs(n_north + 3.0), abs(n_south + 3.0))
    eq_err = abs(n_eq + 6.0)
    ok = pole_err <= 0.1 and eq_err <= 0.1
    report(
        capsys,
        2,
        "deeper ladder switch",
        ok,
        f"poles {n_north:.4f}/{n_south:.4f} (target -3 +- 0.1), "
        f"equator {n_eq:.4f} (target -6 +- 0.1)",
    )


def test_criterion_3_ternary_switch(capsys):
    state = build_spin_skyrmion_state([0, -1], QPlateParams(2.5, 0.5))
    n_north = number_at(state, 0.0)
    n_eq = number_at(state, EQUATOR)
    n_south = number_at(state, math.pi)
    ok = (
        abs(n_north + 5.0) <= 0.15
        and abs(n_eq + 10.0) <= 0.15
        and abs(n_south + 6.0) <= 0.15
    )
    report(
        capsys,
        3,
        "ternary switch",
        ok,
        f"north {n_north:.4f} (target -5), equator {n_eq:.4f} (target -10), "
        f"south {n_south:.4f} (target -6), tol 0.15",
    )


def test_criterion_4_ghz_landscape(triple_state, capsys):
    ghz = extract_ghz_state(triple_state)
    n_north = number_at(ghz, 0.0)
    n_south = number_at(ghz, math.pi)
    n_eq = number_at(ghz, EQUATOR)
    pole_err = max(abs(n_north), abs(n_south))
    eq_err = abs(n_eq + 6.0)
    ok = pole_err <= 0.05 and eq_err <= 0.1
    report(
        capsys,
        4,
        "three-way entangled landscape",
        ok,
        f"poles {n_north:.4f}/{n_south:.4f} (target 0 +- 0.05), "
        f"equator {n_eq:.4f} (target -6 +- 0.1)",
    )


def test_criterion_5_quasiparticle_counts(binary_state, triple_state, capsys):
    reports = {}
    for name, state in (("binary", binary_state), ("triple", triple_state)):
        unit = normalize_stokes(
            conditional_stokes(state, ProjectionAngles(EQUATOR, 0.0), GRID)
        )
        reports[name] = locate_quasiparticles(skyrmion_density(unit))
    residues = {
        name: abs(r.total - sum(s.charge for s in r.regions) - r.central_charge)
        for name, r in reports.items()
    }
    ok = (
        reports["binary"].count == 2
        and reports["triple"].count == 3
        and max(residues.values()) < 0.1
    )
    report(
        capsys,
        5,
        "equator quasiparticle counts",
        ok,
        f"binary count {reports['binary'].count} (want 2), "
        f"triple count {reports['triple'].count} (want 3), "
        f"additivity residue max {max(residues.values()):.2e} (tol 0.1)",
    )


def test_criterion_6_dynamics(binary_state, triple_state, capsys):
    alphas = np.linspace(0.0, 2.0 * math.pi, 25)
    two_fold = track_dynamics(
        binary_state, [ProjectionAngles(1.26, a) for a in alphas], GRID
    )
    three_fold = track_dynamics(
        triple_state, [ProjectionAngles(1.26, a) for a in alphas], GRID
    )
    orbit2 = float(np.abs(two_fold.net_orbit()).max())
    spin2 = float(np.abs(two_fold.net_spin()).max())
    orbit3 = float(np.abs(three_fold.net_orbit()).max())
    spin3 = float(np.abs(three_fold.net_spin()).max())

    thetas = np.linspace(0.63, 1.57, 5)
    merge = track_dynamics(
        binary_state, [ProjectionAngles(t, 3.77) for t in thetas], GRID
    )
    radii_ok = all(
        np.all(np.diff(merge.radii[np.isfinite(merge.radii[:, k]), k]) < 0.0)
        for k in range(merge.n_tracks)
    )
    ok = (
        abs(orbit2 - math.pi) <= 0.1
        and abs(spin2 - math.pi) <= 0.15
        and abs(orbit3 - 2.0 * math.pi / 3.0) <= 0.1
        and abs(spin3 - 4.0 * math.pi / 3.0) <= 0.15
        and radii_ok
    )
    report(
        capsys,
        6,
        "orbit and spin dynamics",
        ok,
        f"2-fold orbit {orbit2:.4f} (pi +- 0.1) spin {spin2:.4f} (pi +- 0.15); "
        f"3-fold orbit {orbit3:.4f} (2pi/3 +- 0.1) spin {spin3:.4f} (4pi/3 +- 0.15); "
        f"radii strictly decreasing {radii_ok}",
    )


def test_criterion_7_tomography_roundtrip(tomography_fits, capsys):
    noiseless = tomography_fits["noiseless"]
    fidelities = [r.fidelity_vs_target for r in tomography_fits["poisson"]]
    median_f = float(np.median(fidelities))
    slowest = max(
        tomography_fits["poisson_times"] + [tomography_fits["noiseless_time"]]
    )
    ok = (
        noiseless.fidelity_vs_target >= 0.999
        and median_f >= 0.98
        and slowest <= 120.0
    )
    report(
        capsys,
        7,
        "tomography round trip",
        ok,
        f"noiseless F {noiseless.fidelity_vs_target:.6f} (>= 0.999), count-level "
        f"median F {median_f:.5f} over 20 seeds (>= 0.98), slowest fit "
        f"{slowest:.1f}s (limit 120s)",
    )


def test_criterion_8_chsh(binary_state, capsys):
    s_ideal = chsh_parameter(binary_state).s_value
    ideal_err = abs(s_ideal - TSIRELSON_BOUND)

    werner_err = 0.0
    s_max = s_ideal
    for p in np.linspace(0.0, 1.0, 20):
        s = chsh_parameter(heralded_werner_state(float(p))).s_value
        werner_err = max(werner_err, abs(s - TSIRELSON_BOUND * float(p)))
        s_max = max(s_max, s)
    # off-optimal settings must not exceed the bound either
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, a2, b, b2 = rng.uniform(0.0, 2.0 * math.pi, 4)
        s = chsh_parameter(
            binary_state, herald_phases=(a, a2), analyzer_angles=(b, b2)
        ).s_value
        s_max = max(s_max, s)
    ok = (
        ideal_err <= 1e-6
        and werner_err <= 1e-3
        and s_max <= TSIRELSON_BOUND + 1e-9
    )
    report(
        capsys,
        8,
        "CHSH",
        ok,
        f"ideal |S - 2 sqrt 2| {ideal_err:.2e} (tol 1e-6), Werner max error "
        f"{werner_err:.2e} over 20 p-values (tol 1e-3), max S {s_max:.9f} "
        f"(bound {TSIRELSON_BOUND:.9f} + 1e-9)",
    )


def test_criterion_9_numerical_convergence(binary_state, capsys):
    fine = GridSpec(1024, 1024, 6.0, 1.0)
    finer = GridSpec(2048, 2048, 6.0, 1.0)
    n_pole = number_at(binary_state, 0.0, grid=fine)
    n_eq = number_at(binary_state, EQUATOR, grid=fine)
    int_err = max(abs(n_pole + 2.0), abs(n_eq + 4.0))
    d_pole = abs(number_at(binary_state, 0.0, grid=finer) - n_pole)
    d_eq = abs(number_at(binary_state, EQUATOR, grid=finer) - n_eq)
    ok = int_err < 0.02 and max(d_pole, d_eq) < 0.05
    report(
        capsys,
        9,
        "numerical convergence",
        ok,
        f"1024^2 integer misses {abs(n_pole + 2.0):.4f}/{abs(n_eq + 4.0):.4f} "
        f"(tol 0.02), halving the spacing moves n by {d_pole:.4f}/{d_eq:.4f} "
        f"(tol 0.05)",
    )


def test_criterion_10_invariant_suite(binary_state, tomography_fits, capsys):
    checks = {}

    # pointwise Stokes purity of a pure heralded texture
    field = conditional_stokes(binary_state, ProjectionAngles(1.1, 0.7), GRID)
    purity_gap = float(
        np.abs(field.s1**2 + field.s2**2 + field.s3**2 - field.s0**2).max()
    )
    checks["stokes purity"] = purity_gap < 1e-12

    # norm preservation through the construction pipeline
    pair = spdc_pair_state((0, 2, 4))
    plated = apply_qplate(pair, "B", QPlateParams(1.0, 0.5))
    norm_gap = abs(float(np.linalg.norm(plated.data)) - 1.0)
    _, p1 = herald_polarization(binary_state, ProjectionAngles(0.9, 0.3))
    _, p2 = herald_polarization(
        binary_state, ProjectionAngles(math.pi - 0.9, 0.3 + math.pi)
    )
    herald_gap = abs(p1 + p2 - 1.0)
    checks["norm preservation"] = norm_gap < 1e-12 and herald_gap < 1e-12

    # projector completeness on every normalization group
    pset = tomography_fits["pset"]
    d = pset.dim
    complete_gap = 0.0
    for group in pset.groups:
        acc = sum(pset.projector(k) for k in group)
        complete_gap = max(complete_gap, float(np.abs(acc - np.eye(d)).max()))
    checks["projector completeness"] = complete_gap < 1e-12

    # every reconstructed density matrix stays positive semidefinite
    min_eval = min(
        float(np.linalg.eigvalsh(r.rho_hat.data).min())
        for r in [tomography_fits["noiseless"]] + tomography_fits["poisson"]
    )
    checks["reconstruction PSD"] = min_eval >= -1e-10

    # determinism per seed across independent reruns
    record_a = simulate_counts(tomography_fits["probs"], 10000, 0)
    record_b = simulate_counts(tomography_fits["probs"], 10000, 0)
    refit = reconstruct(record_a, pset, target=binary_state)
    checks["determinism"] = np.array_equal(record_a.values, record_b.values) and (
        np.array_equal(refit.rho_hat.data, tomography_fits["poisson"][0].rho_hat.data)
    )

    ok = all(checks.values())
    detail = ", ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in checks.items())
    report(capsys, 10, "invariant suites", ok, detail)
