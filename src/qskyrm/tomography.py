"""Synthetic state tomography of the two-polarization x OAM space.

Measurement model
-----------------
Each setting is a rank-1 product projector ``M_k = P_a x P_b x P_s``: a
polarization analyzer on each photon drawn from the six eigenvectors of the
Pauli operators (H, V, D, A, R, L) and a spatial analyzer on photon B drawn
from the OAM basis kets plus, for every mode pair (i, j), the four
superpositions ``(|i> + e^{i phi}|j>)/sqrt(2)`` with phi in {0, pi/2, pi,
3pi/2}.  For a three-mode space that is 6 * 6 * 15 = 540 settings, indexed
``k = (ia * 6 + ib) * n_spatial + is``.

The settings organize into complete sub-bases: a polarization basis pair on
each photon ({H,V}, {D,A} or {R,L}) combined with a complete spatial triple
(the three kets, or an orthogonal superposition pair plus the leftover ket).
Probabilities over such a group sum to one, and simulated counts are
converted back to probabilities by normalizing within each setting's group,
the way coincidence rates are normalized in practice.

Born probabilities are linear in rho.  :attr:`ProjectorSet.measurement_matrix`
caches the real ``(n_settings, 2 d^2)`` matrix ``A`` whose row k is
``[Re, -Im]`` of ``conj(b_k) x b_k``, so that ``p = A r`` with
``r = [Re rho, Im rho]``, rho flattened row-major.  The forward model and the
fit share it.

Reconstruction minimizes ``f(r) = |A r - p_hat|^2`` over density matrices,
directly on r.  In Gram form ``f = r.G r - 2 h.r + c`` with ``G = A^T A``
(:attr:`ProjectorSet.gram`), ``h = A^T p_hat`` and ``c = p_hat.p_hat``, and
``grad f = 2 (G r - h)``.  The optimizer is accelerated projected gradient
(FISTA; Shang, Zhang & Ng, PRA 95, 062336, 2017) from the maximally mixed
state, with the momentum restarted whenever f rises.  Each step projects
onto the density matrices: Hermitize, diagonalize, and project the spectrum
onto the unit simplex (Smolin, Gambetta & Smith, PRL 108, 070502, 2012), so
every iterate is Hermitian, positive semidefinite and unit trace.

Stopping rule.  With Poisson counts the residual at the true state is about
``sigma^2 = sum_k p_hat_k / N`` (N counts per setting), so refining the fit
below a small fraction of that floor only fits noise.  A count-level fit
stops (``"ftol"``) once one step lowers f by less than
``_SHOT_NOISE_FTOL * sigma^2``; noiseless probability records have no floor
and use ``_NOISELESS_FTOL``.  Every fit also stops (``"gtol"``) once the
gradient-mapping norm falls below ``_GRADIENT_TOL``.  ``max_iterations`` is
only a safety cap, and :attr:`ReconstructionResult.termination` says which
test ended the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from .errors import BasisMismatchError, UnsupportedStateError
from .hilbert import OamBasis, Space, State, polarization_ket, state_overlap

__all__ = [
    "ProjectorSet",
    "MeasurementRecord",
    "ReconstructionResult",
    "build_projector_set",
    "forward_model",
    "simulate_counts",
    "reconstruct",
    "purity",
    "fidelity",
]

POL_LABELS = ("H", "V", "D", "A", "R", "L")
_POL_PAIRS = ((0, 1), (2, 3), (4, 5))  # {H,V}, {D,A}, {R,L}
_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
_PHASE_LABELS = ("0", "90", "180", "270")

# stop a count-level fit once an iteration gains less than this fraction of
# the expected shot-noise residual sigma^2 = sum_k p_hat_k / N
_SHOT_NOISE_FTOL = 2e-7
# noiseless records have no floor, so their test sits near machine precision
_NOISELESS_FTOL = 1e-15
# every fit also stops once the gradient-mapping norm falls below this
_GRADIENT_TOL = 1e-8


@dataclass(frozen=True)
class ProjectorSet:
    """Full product-projector family for a given spatial dimension.

    ``labels[k]`` is the (pol_A, pol_B, spatial) label triple of setting k;
    ``groups`` lists the complete sub-basis groups as index tuples and
    ``owner_group[k]`` the group a setting's counts are normalized in.
    """

    d_sp: int
    spatial_kets: np.ndarray  # (n_spatial, d_sp)
    spatial_labels: tuple[str, ...]
    labels: tuple[tuple[str, str, str], ...]
    groups: tuple[tuple[int, ...], ...]
    owner_group: np.ndarray  # (n_settings,)

    def __post_init__(self):
        kets = np.asarray(self.spatial_kets, dtype=complex)
        owner = np.asarray(self.owner_group, dtype=int)
        kets.setflags(write=False)
        owner.setflags(write=False)
        object.__setattr__(self, "spatial_kets", kets)
        object.__setattr__(self, "owner_group", owner)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 4 * self.d_sp

    @cached_property
    def product_kets(self) -> np.ndarray:
        """All setting kets stacked, shape (n_settings, 4 * d_sp)."""
        pol = np.array([polarization_ket(lbl) for lbl in POL_LABELS])
        ab = np.einsum("ai,bj->abij", pol, pol).reshape(36, 4)
        out = np.einsum("ai,sj->asij", ab, self.spatial_kets).reshape(len(self), self.dim)
        out.setflags(write=False)
        return out

    @cached_property
    def measurement_matrix(self) -> np.ndarray:
        """Real (n_settings, 2 * dim**2) matrix A with p = A @ [Re rho, Im rho].

        rho is flattened row-major; cached for the life of the set.
        """
        out = _measurement_matrix(self.product_kets)
        out.setflags(write=False)
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """G = A^T A for A = :attr:`measurement_matrix`; cached for the life of the set."""
        a = self.measurement_matrix
        out = a.T @ a
        out.setflags(write=False)
        return out

    @cached_property
    def step(self) -> float:
        """Projected-gradient step 1/L, with L = 2 lambda_max(G) over traceless r.

        Projecting onto density matrices ignores a multiple of the identity,
        so the gradient's trace part never moves an iterate.  The settings'
        projectors sum to a multiple of the identity, so the identity's r is
        an eigenvector of G; its eigenvalue is left out.
        """
        e = _stack_real(np.eye(self.dim)) / math.sqrt(self.dim)
        w = np.linalg.eigvalsh(self.gram)
        w = np.delete(w, np.argmin(np.abs(w - e @ self.gram @ e)))
        return 0.5 / float(w[-1])

    def projector(self, k: int) -> np.ndarray:
        m = self.product_kets[k]
        return np.outer(m, m.conj())


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-setting outcomes: Born probabilities or Poisson counts."""

    values: np.ndarray
    kind: str  # "probabilities" | "counts"
    total_per_setting: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("probabilities", "counts"):
            raise ValueError(f"kind must be 'probabilities' or 'counts', got {self.kind!r}")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("values must be a flat array")
        if self.kind == "probabilities":
            if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
                raise ValueError("probabilities must lie in [0, 1]")
            arr = np.clip(arr, 0.0, 1.0)
        else:
            if arr.min() < 0 or not np.allclose(arr, np.round(arr)):
                raise ValueError("counts must be non-negative integers")
            if self.total_per_setting is None or self.total_per_setting < 1:
                raise ValueError("count records need total_per_setting >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimated density matrix plus convergence and witness summaries.

    ``residual`` is the 2-norm of the final probability misfit;
    ``fidelity_vs_target`` is None when no target was supplied.
    ``iterations`` counts projected-gradient steps, and ``gradient_norm`` is
    the gradient-mapping norm ``|y - x+| / step`` of the last one.
    ``termination`` names the test that ended the fit: ``"ftol"`` (one step
    lowered the misfit by less than the stopping tolerance), ``"gtol"``
    (``gradient_norm`` below the fixed ``_GRADIENT_TOL`` = 1e-8) or
    ``"iteration_cap"`` (``max_iterations`` ran out).
    ``converged`` is true exactly for ``"ftol"`` and ``"gtol"``.
    """

    rho_hat: State
    residual: float
    purity: float
    iterations: int
    converged: bool
    termination: str
    gradient_norm: float
    fidelity_vs_target: float | None = None


@cache
def build_projector_set(d_sp: int) -> ProjectorSet:
    """Standard overcomplete setting family for a d_sp-mode spatial space.

    Built once per process and d_sp, so the set's cached matrices are too.
    """
    if d_sp not in (2, 3):
        raise ValueError(f"d_sp must be 2 or 3, got {d_sp}")
    eye = np.eye(d_sp, dtype=complex)
    kets = [eye[i] for i in range(d_sp)]
    labels = [f"ket:{i}" for i in range(d_sp)]
    pairs = list(combinations(range(d_sp), 2))
    for i, j in pairs:
        for phase, plabel in zip(_PHASES, _PHASE_LABELS):
            kets.append((eye[i] + np.exp(1j * phase) * eye[j]) / math.sqrt(2.0))
            labels.append(f"sup:{i},{j}:{plabel}")
    spatial_kets = np.array(kets)
    spatial_labels = tuple(labels)
    n_spatial = len(labels)

    # complete spatial sub-bases: the kets, and per pair the two orthogonal
    # superposition pairs, (0, 180) and (90, 270), each completed by the
    # leftover kets
    spatial_sets = [tuple(range(d_sp))]
    for p_idx, (i, j) in enumerate(pairs):
        base = d_sp + 4 * p_idx
        rest = tuple(k for k in range(d_sp) if k not in (i, j))
        spatial_sets += [(base, base + 2) + rest, (base + 1, base + 3) + rest]

    setting_labels = tuple(
        (pa, pb, s) for pa in POL_LABELS for pb in POL_LABELS for s in spatial_labels
    )
    groups = tuple(
        tuple((ia * 6 + ib) * n_spatial + s for ia in pa for ib in pb for s in s_set)
        for pa in _POL_PAIRS
        for pb in _POL_PAIRS
        for s_set in spatial_sets
    )
    # a ket setting also completes superposition groups; the first group that
    # holds it, its ket group, owns it
    owner = np.zeros(len(setting_labels), dtype=int)
    for g in reversed(range(len(groups))):
        owner[list(groups[g])] = g

    return ProjectorSet(d_sp, spatial_kets, spatial_labels, setting_labels, groups, owner)


def _density_matrix(state: State) -> np.ndarray:
    if not state.space.is_tripartite:
        raise UnsupportedStateError("tomography expects the canonical tripartite layout")
    return state.to_density().data


def forward_model(state: State, pset: ProjectorSet) -> MeasurementRecord:
    """Born-rule probabilities p_k = Tr(rho M_k) for every setting."""
    rho = _density_matrix(state)
    if rho.shape[0] != pset.dim:
        raise BasisMismatchError(
            f"state dimension {rho.shape[0]} does not match setting dimension {pset.dim}"
        )
    p = np.einsum("kj,j->k", pset.measurement_matrix, _stack_real(rho))
    return MeasurementRecord(np.clip(p, 0.0, 1.0), "probabilities")


def simulate_counts(
    record: MeasurementRecord, total_per_setting: int, seed: int
) -> MeasurementRecord:
    """Poisson-draw counts with mean total_per_setting * p_k, seeded."""
    if record.kind != "probabilities":
        raise ValueError("simulate_counts expects a probability record")
    if total_per_setting < 1:
        raise ValueError("total_per_setting must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(total_per_setting * record.values).astype(float)
    return MeasurementRecord(counts, "counts", total_per_setting, seed)


def _estimate_probabilities(record: MeasurementRecord, pset: ProjectorSet) -> np.ndarray:
    if record.kind == "probabilities":
        return np.asarray(record.values, dtype=float)
    counts = record.values
    group_totals = np.array([counts[list(g)].sum() for g in pset.groups])
    totals = group_totals[pset.owner_group]
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    return p


def _measurement_matrix(kets: np.ndarray) -> np.ndarray:
    """Rows ``[Re, -Im]`` of ``conj(b_k) x b_k`` for kets b_k, shape (n, 2 d^2)."""
    m = np.einsum("ki,kj->kij", kets.conj(), kets).reshape(len(kets), -1)
    return np.concatenate([m.real, -m.imag], axis=1)


def _stack_real(rho: np.ndarray) -> np.ndarray:
    """[Re rho, Im rho], flattened row-major: the column space of A."""
    return np.concatenate([rho.real.ravel(), rho.imag.ravel()])


def _unstack(r: np.ndarray, d: int) -> np.ndarray:
    """The (d, d) complex matrix whose :func:`_stack_real` is r."""
    return (r[: d * d] + 1j * r[d * d :]).reshape(d, d)


def _misfit(r: np.ndarray, gram: np.ndarray, h: np.ndarray, c: float) -> tuple[float, np.ndarray]:
    """f(r) = r.G r - 2 h.r + c and its gradient 2 (G r - h)."""
    half = gram @ r - h
    return float(r @ (half - h)) + c, 2.0 * half


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto the unit simplex {x >= 0, sum x = 1}."""
    u = np.sort(w)[::-1]
    excess = np.cumsum(u) - 1.0
    last = np.nonzero(u > excess / np.arange(1, w.size + 1))[0][-1]
    return np.maximum(w - excess[last] / (last + 1), 0.0)


def _project_density(r: np.ndarray, d: int) -> np.ndarray:
    """Stacked density matrix nearest to the stacked matrix r in Frobenius norm."""
    m = _unstack(r, d)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return _stack_real((v * _simplex(w)) @ v.conj().T)


def reconstruct(
    record: MeasurementRecord,
    pset: ProjectorSet,
    target: State | None = None,
    max_iterations: int = 5000,
) -> ReconstructionResult:
    """Least-squares density-matrix fit with guaranteed physicality.

    Deterministic: it starts from the maximally mixed state.  The stopping
    rules are those of the module docstring; ``max_iterations`` is a safety
    cap.
    """
    if len(record) != len(pset):
        raise BasisMismatchError(
            f"record has {len(record)} entries for {len(pset)} settings"
        )
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    p_hat = _estimate_probabilities(record, pset)
    A = pset.measurement_matrix
    gram, step, d = pset.gram, pset.step, pset.dim
    h = p_hat @ A
    c = float(p_hat @ p_hat)
    if record.kind == "counts":
        ftol = _SHOT_NOISE_FTOL * float(p_hat.sum()) / record.total_per_setting
    else:
        ftol = _NOISELESS_FTOL

    x = _stack_real(np.eye(d) / d)
    f, grad = _misfit(x, gram, h, c)
    y, grad_y, t = x, grad, 1.0
    termination = "iteration_cap"
    for iterations in range(1, max_iterations + 1):
        x_new = _project_density(y - step * grad_y, d)
        gradient_norm = float(np.linalg.norm(y - x_new)) / step
        f_new, grad_new = _misfit(x_new, gram, h, c)
        decrease, x_old, grad_old = f - f_new, x, grad
        x, f, grad = x_new, f_new, grad_new
        if gradient_norm < _GRADIENT_TOL:
            termination = "gtol"
            break
        if 0.0 <= decrease < ftol:
            termination = "ftol"
            break
        if decrease < 0.0:  # f rose: restart the momentum
            t, beta = 1.0, 0.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            t, beta = t_next, (t - 1.0) / t_next
        # the gradient is affine in r, so it extrapolates with the iterate
        y = x + beta * (x - x_old)
        grad_y = grad + beta * (grad - grad_old)

    rho = _unstack(x, d)
    rho = 0.5 * (rho + rho.conj().T)
    # charge labels come from the target when given; otherwise plain indices
    if target is not None:
        space = target.space
    else:
        space = Space.tripartite(OamBasis(tuple(range(pset.d_sp))))
    rho_state = State(space, "density", rho)
    fid = fidelity(rho_state, target) if target is not None else None
    return ReconstructionResult(
        rho_hat=rho_state,
        residual=float(np.linalg.norm(A @ x - p_hat)),
        purity=purity(rho_state),
        iterations=iterations,
        converged=termination in ("ftol", "gtol"),
        termination=termination,
        gradient_norm=gradient_norm,
        fidelity_vs_target=fid,
    )


def purity(state: State) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    if state.is_pure:
        return 1.0
    rho = state.data
    return float(np.einsum("ij,ji->", rho, rho).real)


def fidelity(a: State, b: State) -> float:
    """Uhlmann fidelity, squared-overlap convention: F(|x>,|y>) = |<x|y>|^2."""
    if a.is_pure and b.is_pure:
        return float(abs(state_overlap(a, b)) ** 2)
    if a.dim != b.dim:
        raise BasisMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    if a.is_pure or b.is_pure:
        psi = a if a.is_pure else b
        rho = b if a.is_pure else a
        val = np.vdot(psi.data, rho.data @ psi.data).real
        return float(min(max(val, 0.0), 1.0))
    evals, evecs = np.linalg.eigh(b.data)
    evals = np.clip(evals, 0.0, None)
    sqrt_b = (evecs * np.sqrt(evals)) @ evecs.conj().T
    inner = sqrt_b @ a.data @ sqrt_b
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(np.sqrt(lam).sum() ** 2, 1.0))
