"""Finite-dimensional spin-orbit Hilbert spaces for heralded photon pairs.

Conventions
-----------
* Circular polarization basis ``(R, L)``, in that order.  ``R`` maps to the
  north pole of the polarization sphere, i.e. S3 = +1.
* The canonical tripartite layout is ``pol_A (slowest) x pol_B x oam_B
  (fastest)`` with dimension ``2 * 2 * d_sp``.
* Orbital-angular-momentum (OAM) bases are ordered tuples of distinct integer
  topological charges.  The ordering is fixed when a state is created and is
  recorded verbatim on export.
* Intermediate states in the pair-source pipeline carry extra axes (an OAM
  axis for arm A); conditional states after heralding carry fewer.  The same
  :class:`State` container covers all of them, with the axis layout held in
  :class:`Space`.

Linear polarization labels used by the measurement modules are fixed here so
every module shares one convention::

    H = (|R> + |L>)/sqrt(2)      S1 = +1
    V = (|R> - |L>)/sqrt(2)      S1 = -1
    D = (|R> + i|L>)/sqrt(2)     S2 = +1
    A = (|R> - i|L>)/sqrt(2)     S2 = -1
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BasisMismatchError,
    EmptyStateError,
    UnsupportedStateError,
    ZeroProbabilityError,
)

__all__ = [
    "OamBasis",
    "Axis",
    "Space",
    "State",
    "QPlateParams",
    "ProjectionAngles",
    "SpdcSpectrum",
    "polarization_ket",
    "apply_qplate",
    "spdc_pair_state",
    "build_spin_skyrmion_state",
    "balanced_switch_state",
    "herald_polarization",
    "project_oam",
    "project_oam_b",
    "restrict_oam_b",
    "extract_ghz_state",
    "extract_reference_state",
    "state_overlap",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
]

_NORM_ATOL = 1e-9
_HERM_ATOL = 1e-9
_EIG_FLOOR = -1e-10
_PROB_FLOOR = 1e-12

_POL_KETS = {
    "R": np.array([1.0, 0.0], dtype=complex),
    "L": np.array([0.0, 1.0], dtype=complex),
    "H": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "V": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "D": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "A": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}


def polarization_ket(label: str) -> np.ndarray:
    """Unit ket for one of the six standard polarization labels, in (R, L)."""
    try:
        return _POL_KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


@dataclass(frozen=True)
class OamBasis:
    """Ordered set of distinct integer OAM charges."""

    ells: tuple[int, ...]

    def __post_init__(self):
        ells = tuple(int(l) for l in self.ells)
        if len(ells) == 0:
            raise EmptyStateError("OAM basis must contain at least one charge")
        if len(set(ells)) != len(ells):
            raise BasisMismatchError(f"duplicate OAM charges in basis {ells}")
        object.__setattr__(self, "ells", ells)

    @property
    def dim(self) -> int:
        return len(self.ells)

    def index(self, ell: int) -> int:
        try:
            return self.ells.index(ell)
        except ValueError:
            raise BasisMismatchError(f"charge {ell} not in basis {self.ells}") from None

    def __contains__(self, ell: int) -> bool:
        return ell in self.ells


@dataclass(frozen=True)
class Axis:
    """One tensor factor: a polarization or an OAM axis of a named arm."""

    name: str  # "pol_A", "oam_A", "pol_B", "oam_B"
    kind: str  # "pol" | "oam"
    basis: OamBasis | None = None

    def __post_init__(self):
        if self.kind not in ("pol", "oam"):
            raise ValueError(f"axis kind must be 'pol' or 'oam', got {self.kind!r}")
        if self.kind == "oam" and self.basis is None:
            raise ValueError("oam axis needs a basis")
        if self.kind == "pol" and self.basis is not None:
            raise ValueError("pol axis takes no basis")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "pol" else self.basis.dim

    @property
    def arm(self) -> str:
        return self.name.rsplit("_", 1)[1]


@dataclass(frozen=True)
class Space:
    """Ordered tensor product of axes; first axis is slowest in the flat index."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names {names}")

    @staticmethod
    def tripartite(oam_basis: OamBasis) -> "Space":
        return Space(
            (
                Axis("pol_A", "pol"),
                Axis("pol_B", "pol"),
                Axis("oam_B", "oam", oam_basis),
            )
        )

    @staticmethod
    def photon(oam_basis: OamBasis, arm: str = "B") -> "Space":
        return Space((Axis(f"pol_{arm}", "pol"), Axis(f"oam_{arm}", "oam", oam_basis)))

    @staticmethod
    def pair(oam_a: OamBasis, oam_b: OamBasis) -> "Space":
        return Space(
            (
                Axis("pol_A", "pol"),
                Axis("oam_A", "oam", oam_a),
                Axis("pol_B", "pol"),
                Axis("oam_B", "oam", oam_b),
            )
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(ax.dim for ax in self.axes)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def axis_position(self, name: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.name == name:
                return i
        raise KeyError(name)

    def axis(self, name: str) -> Axis:
        return self.axes[self.axis_position(name)]

    def has_axis(self, name: str) -> bool:
        return any(ax.name == name for ax in self.axes)

    def oam_basis(self, arm: str = "B") -> OamBasis:
        return self.axis(f"oam_{arm}").basis

    def replace_basis(self, arm: str, basis: OamBasis) -> "Space":
        axes = tuple(
            Axis(ax.name, ax.kind, basis) if ax.name == f"oam_{arm}" else ax
            for ax in self.axes
        )
        return Space(axes)

    def drop_axis(self, name: str) -> "Space":
        axes = tuple(ax for ax in self.axes if ax.name != name)
        if not axes:
            raise ValueError("cannot drop the last axis")
        return Space(axes)

    @property
    def is_tripartite(self) -> bool:
        return tuple(ax.name for ax in self.axes) == ("pol_A", "pol_B", "oam_B")


@dataclass(frozen=True)
class State:
    """Pure amplitude vector or density matrix over a :class:`Space`.

    ``data`` is complex128, finite and read-only.  Pure vectors are validated
    to unit norm; density matrices to Hermitian, unit trace, and eigenvalues
    above -1e-10.  :meth:`kets` views either kind as an ensemble of weighted
    kets whose projectors sum to the state.  Heralding, OAM projections and
    restrictions, Stokes synthesis and Bell probabilities run over that
    ensemble, so pure and mixed inputs share one code path, and a state they
    return keeps the input's ``kind``.
    """

    space: Space
    kind: str  # "pure" | "density"
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("pure", "density"):
            raise ValueError(f"kind must be 'pure' or 'density', got {self.kind!r}")
        arr = np.array(self.data, dtype=complex)
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.kind} state data holds non-finite values")
        dim = self.space.dim
        if self.kind == "pure":
            if arr.shape != (dim,):
                raise BasisMismatchError(
                    f"pure state needs shape ({dim},), got {arr.shape}"
                )
            nrm = np.linalg.norm(arr)
            if abs(nrm - 1.0) > _NORM_ATOL:
                raise ValueError(f"pure state norm {nrm!r} is not 1")
        else:
            if arr.shape != (dim, dim):
                raise BasisMismatchError(
                    f"density matrix needs shape ({dim},{dim}), got {arr.shape}"
                )
            if not np.allclose(arr, arr.conj().T, atol=_HERM_ATOL):
                raise ValueError("density matrix is not Hermitian")
            tr = np.trace(arr).real
            if abs(tr - 1.0) > _NORM_ATOL:
                raise ValueError(f"density matrix trace {tr!r} is not 1")
            if np.linalg.eigvalsh(arr).min() < _EIG_FLOOR:
                raise ValueError("density matrix has a negative eigenvalue")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def pure(space: Space, amplitudes: np.ndarray, normalize: bool = False) -> "State":
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if normalize:
            nrm = np.linalg.norm(arr)
            if nrm < _PROB_FLOOR:
                raise EmptyStateError("cannot normalize a zero vector")
            arr = arr / nrm
        return State(space, "pure", arr)

    @staticmethod
    def density(space: Space, matrix: np.ndarray) -> "State":
        return State(space, "density", np.asarray(matrix, dtype=complex))

    # -- views --------------------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    @property
    def dim(self) -> int:
        return self.space.dim

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one index per axis (two per axis if density)."""
        dims = self.space.dims
        if self.is_pure:
            return self.data.reshape(dims)
        return self.data.reshape(dims + dims)

    def kets(self) -> np.ndarray:
        """Ket ensemble with the weights folded in: shape ``(rank, *space.dims)``
        with ``rho = sum_k |k><k|``.

        A pure state gives its amplitude tensor under one leading axis; a
        density matrix gives the eigenvectors of its positive eigenvalues w,
        each scaled by sqrt(w).
        """
        if self.is_pure:
            return self.data.reshape((1,) + self.space.dims)
        w, v = np.linalg.eigh(self.data)
        keep = w > 0.0
        return (v[:, keep] * np.sqrt(w[keep])).T.reshape((-1,) + self.space.dims)

    def to_density(self) -> "State":
        if not self.is_pure:
            return self
        return State.density(self.space, np.outer(self.data, self.data.conj()))

    def amplitude(self, pol_a: str = None, pol_b: str = None, ell_b: int = None) -> complex:
        """Single amplitude of a pure tripartite state by labels."""
        if not self.is_pure:
            raise UnsupportedStateError("amplitude lookup is for pure states")
        if not self.space.is_tripartite:
            raise UnsupportedStateError("amplitude lookup is for tripartite states")
        ia = {"R": 0, "L": 1}[pol_a]
        ib = {"R": 0, "L": 1}[pol_b]
        isp = self.space.oam_basis("B").index(ell_b)
        return complex(self.tensor()[ia, ib, isp])


@dataclass(frozen=True)
class QPlateParams:
    """Geometric-phase plate: charge q (half-integer allowed) and tuning in [0, 1].

    Tuning 0 leaves the beam untouched, tuning 1 converts fully; at tuning t
    each ``|R, l>`` component maps to ``sqrt(1-t)|R, l> + sqrt(t)|L, l-2q>``
    and each ``|L, l>`` to ``sqrt(1-t)|L, l> + sqrt(t)|R, l+2q>``.
    """

    q: float
    tuning: float = 0.5

    def __post_init__(self):
        two_q = 2.0 * self.q
        if abs(two_q - round(two_q)) > 1e-9:
            raise ValueError(f"2q must be an integer, got q={self.q}")
        if not 0.0 <= self.tuning <= 1.0:
            raise ValueError(f"tuning must lie in [0, 1], got {self.tuning}")

    @property
    def charge_shift(self) -> int:
        return int(round(2.0 * self.q))


@dataclass(frozen=True)
class ProjectionAngles:
    """Point on the heralding sphere: theta in [0, pi], alpha in [0, 2*pi].

    Both alpha endpoints name the same physical setting; the closed interval
    lets full-circle sweeps state their last sample directly.
    """

    theta: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.alpha)):
            raise ValueError("angles must be finite")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not -1e-12 <= self.alpha <= 2.0 * math.pi + 1e-12:
            raise ValueError(f"alpha must lie in [0, 2*pi], got {self.alpha}")

    def ket(self) -> np.ndarray:
        """Heralding polarization ket cos(t/2)|R> + sin(t/2) e^{i alpha}|L>."""
        half = 0.5 * self.theta
        return np.array(
            [math.cos(half), math.sin(half) * np.exp(1j * self.alpha)], dtype=complex
        )


@dataclass(frozen=True)
class SpdcSpectrum:
    """Real, non-negative OAM amplitudes of the pair source, unit L2 norm."""

    weights: Mapping[int, float]

    def __post_init__(self):
        w = {int(l): float(a) for l, a in dict(self.weights).items()}
        if not w:
            raise EmptyStateError("spectrum has no entries")
        if any(a < 0.0 for a in w.values()):
            raise ValueError("spectrum amplitudes must be non-negative")
        nrm = math.sqrt(sum(a * a for a in w.values()))
        if nrm <= 0.0:
            raise EmptyStateError("spectrum has zero total weight")
        object.__setattr__(self, "weights", {l: a / nrm for l, a in w.items()})

    @staticmethod
    def flat(ells: Sequence[int]) -> "SpdcSpectrum":
        return SpdcSpectrum({int(l): 1.0 for l in ells})

    def amplitude(self, ell: int) -> float:
        return self.weights.get(int(ell), 0.0)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _union(ells: Iterable[int], more: Iterable[int]) -> tuple[int, ...]:
    """``ells`` then ``more``, each charge once, in order of first appearance."""
    return tuple(dict.fromkeys((*ells, *more)))


def _occupancy(psi: np.ndarray, axis: int) -> np.ndarray:
    """Squared norm of each slice of ``psi`` along ``axis``."""
    return np.sum(np.abs(psi) ** 2, axis=tuple(i for i in range(psi.ndim) if i != axis))


def _on_charges(psi: np.ndarray, axis: int, basis: OamBasis, ells: Sequence[int]):
    """``psi`` with its OAM ``axis`` (over ``basis``) re-expressed over ``ells``:
    listed charges keep their slice, new ones are zero, the rest are dropped."""
    where = {l: i for i, l in enumerate(basis.ells)}
    hit = [k for k, l in enumerate(ells) if l in where]
    out = np.zeros(psi.shape[:axis] + (len(ells),) + psi.shape[axis + 1:], dtype=complex)
    lead = (slice(None),) * axis
    out[lead + (hit,)] = psi[lead + ([where[ells[k]] for k in hit],)]
    return out


def apply_qplate(state: State, arm: str, params: QPlateParams) -> State:
    """Apply a geometric-phase plate to the named arm of a pure state.

    The OAM basis of that arm is extended with whatever shifted charges
    acquire amplitude; charges already in the basis are never removed.  The
    map is written with real branch amplitudes, so it is an isometry exactly
    when no shifted component lands on an occupied ``|L, l-2q>`` /
    ``|R, l+2q>`` slot, which holds for every state the pair-source pipeline
    produces.
    """
    if not state.is_pure:
        raise UnsupportedStateError("apply_qplate acts on pure states only")
    if arm not in ("A", "B"):
        raise ValueError(f"arm must be 'A' or 'B', got {arm!r}")
    try:
        ip = state.space.axis_position(f"pol_{arm}")
        io = state.space.axis_position(f"oam_{arm}")
    except KeyError:
        raise UnsupportedStateError(
            f"state carries no polarization+OAM axes for arm {arm!r}"
        ) from None

    basis = state.space.axes[io].basis
    shift = params.charge_shift
    keep = math.sqrt(1.0 - params.tuning)
    move = math.sqrt(params.tuning)

    shifted = [l - shift for l in basis.ells] + [l + shift for l in basis.ells]
    wide = OamBasis(_union(basis.ells, shifted))

    psi = np.moveaxis(state.tensor(), (ip, io), (0, 1))
    rest = psi.shape[2:]
    out = np.zeros((2, wide.dim) + rest, dtype=complex)
    for k, l in enumerate(basis.ells):
        out[0, wide.index(l)] += keep * psi[0, k]
        out[1, wide.index(l - shift)] += move * psi[0, k]
        out[1, wide.index(l)] += keep * psi[1, k]
        out[0, wide.index(l + shift)] += move * psi[1, k]

    # drop added charges that stayed empty; original charges are kept
    occupied = [l for l, occ in zip(wide.ells, _occupancy(out, 1)) if occ > 0.0]
    final = OamBasis(_union(basis.ells, occupied))
    out = np.moveaxis(_on_charges(out, 1, wide, final.ells), (0, 1), (ip, io))
    space = state.space.replace_basis(arm, final)
    return State(space, "pure", out.reshape(-1))


def spdc_pair_state(ells_a: Sequence[int], spectrum: SpdcSpectrum | None = None) -> State:
    """Anti-correlated pair state sum_l c_l |R, l>_A |R, -l>_B before the plates."""
    ells_a = tuple(int(l) for l in ells_a)
    if spectrum is None:
        spectrum = SpdcSpectrum.flat(ells_a)
    amps = np.array([spectrum.amplitude(l) for l in ells_a], dtype=float)
    if np.linalg.norm(amps) <= 0.0:
        raise EmptyStateError("all requested charges have zero source weight")
    amps = amps / np.linalg.norm(amps)
    basis_a = OamBasis(ells_a)
    basis_b = OamBasis(tuple(-l for l in ells_a))
    space = Space.pair(basis_a, basis_b)
    psi = np.zeros(space.dims, dtype=complex)
    for k, l in enumerate(ells_a):
        psi[0, k, 0, basis_b.index(-l)] = amps[k]
    return State(space, "pure", psi.reshape(-1))


def _normalize_projection(ell_a) -> list[tuple[int, complex]]:
    if isinstance(ell_a, (int, np.integer)):
        entries = [(int(ell_a), 1.0 + 0.0j)]
    elif isinstance(ell_a, Mapping):
        entries = [(int(l), complex(a)) for l, a in ell_a.items()]
    else:
        entries = []
        for item in ell_a:
            if isinstance(item, (int, np.integer)):
                entries.append((int(item), 1.0 + 0.0j))
            else:
                l, a = item
                entries.append((int(l), complex(a)))
    if not entries:
        raise EmptyStateError("projection needs at least one charge")
    if len({l for l, _ in entries}) != len(entries):
        raise BasisMismatchError("duplicate charges in projection")
    nrm = math.sqrt(sum(abs(a) ** 2 for _, a in entries))
    if nrm <= 0.0:
        raise EmptyStateError("projection has zero weight")
    return [(l, a / nrm) for l, a in entries]


def build_spin_skyrmion_state(ell_a, params: QPlateParams) -> State:
    """Tripartite state from the pair source, two plates, and an arm-A OAM filter.

    The pair source has a flat spectrum over the arm-A charges l and l + 2q
    of each filter charge l.
    ``ell_a`` selects the spatial projection on photon A: a single charge, a
    mapping ``{charge: amplitude}``, or a sequence of charges/(charge,
    amplitude) pairs (amplitudes are normalized).  For a single charge l the
    photon-B OAM ladder is ``(-l, -l-2q, -l-4q)`` in that order; for a k-term
    projection the ladders interleave into one basis sorted by charge.
    """
    proj = _normalize_projection(ell_a)
    shift = params.charge_shift
    if shift == 0:
        raise ValueError("plate charge q must be non-zero to build a ladder")

    pair = spdc_pair_state(_union((), (c for l, _ in proj for c in (l, l + shift))))
    pair = apply_qplate(pair, "A", params)
    pair = apply_qplate(pair, "B", params)
    out, _ = project_oam(pair, "A", proj, keep_axis=False)

    # canonical tripartite ordering: ladders from each projection charge,
    # deduplicated, descending for positive q (ascending for negative)
    ladder = _union((), (-l - k * shift for l, _ in proj for k in range(3)))
    return _reorder_oam(out, "B", order=sorted(ladder, reverse=shift > 0))


def balanced_switch_state(ells: Sequence[int]) -> State:
    """Balanced tripartite state for an explicit three-charge ladder.

    Returns (|R,R,l1> + |R,L,l2> + |L,R,l2> + |L,L,l3>)/2 over the given
    ``(l1, l2, l3)``.
    """
    l1, l2, l3 = (int(l) for l in ells)
    basis = OamBasis((l1, l2, l3))
    space = Space.tripartite(basis)
    psi = np.zeros(space.dims, dtype=complex)
    psi[0, 0, basis.index(l1)] = 0.5
    psi[0, 1, basis.index(l2)] = 0.5
    psi[1, 0, basis.index(l2)] = 0.5
    psi[1, 1, basis.index(l3)] = 0.5
    return State(space, "pure", psi.reshape(-1))


def _reorder_oam(state: State, arm: str, order: Sequence[int]) -> State:
    """Reindex a pure state's OAM axis to the given charge order, dropping
    charges with zero occupancy."""
    io = state.space.axis_position(f"oam_{arm}")
    basis = state.space.axes[io].basis
    psi = state.tensor()
    occupancy = _occupancy(psi, io)
    # anything not mentioned in `order` goes last
    ranked = _union([l for l in order if l in basis], basis.ells)
    charges = tuple(l for l in ranked if occupancy[basis.index(l)] > 0.0)
    space = state.space.replace_basis(arm, OamBasis(charges))
    return State(space, "pure", _on_charges(psi, io, basis, charges).reshape(-1))


def _from_kets(space: Space, kets: np.ndarray, pure: bool) -> State:
    """State over ``space`` from a ket ensemble shaped as by :meth:`State.kets`:
    the single ket itself when ``pure``, else ``rho = sum_k |k><k|``."""
    flat = kets.reshape(len(kets), -1)
    if pure:
        return State(space, "pure", flat[0])
    return State(space, "density", flat.T @ flat.conj())


def herald_polarization(state: State, angles: ProjectionAngles) -> tuple[State, float]:
    """Project arm A's polarization onto the heralding ket and drop that axis.

    Each ket of the state's ensemble is contracted with the heralding ket; the
    heralding probability is the total squared norm of what remains.  Returns
    the renormalized conditional state (for the canonical tripartite input:
    photon B over pol_B x oam_B, of the input's kind) and that probability.
    """
    try:
        ip = state.space.axis_position("pol_A")
    except KeyError:
        raise UnsupportedStateError("state has no pol_A axis to herald on") from None
    cond = np.tensordot(angles.ket().conj(), state.kets(), axes=(0, ip + 1))
    prob = float(np.sum(np.abs(cond) ** 2))
    if prob < _PROB_FLOOR:
        raise ZeroProbabilityError(
            f"heralding probability {prob:.3e} below {_PROB_FLOOR:.0e}"
        )
    space = state.space.drop_axis("pol_A")
    return _from_kets(space, cond / math.sqrt(prob), state.is_pure), prob


def _chi_vector(basis: OamBasis, coeffs) -> np.ndarray:
    entries = _normalize_projection(coeffs)
    chi = np.zeros(basis.dim, dtype=complex)
    for l, a in entries:
        if l in basis:
            chi[basis.index(l)] = a
    return chi


def project_oam(
    state: State, arm: str, coeffs, keep_axis: bool = True
) -> tuple[State, float]:
    """Project the named arm's OAM onto the superposition given by ``coeffs``.

    ``coeffs`` follows the same forms as in :func:`build_spin_skyrmion_state`
    and is normalized.  Each ket of the state's ensemble is contracted with
    the requested OAM ket; the probability is the total squared norm of what
    remains.  Requested charges absent from the state's basis contribute
    nothing to the probability; with ``keep_axis`` they do appear in the
    output (every ket collapses onto the full requested OAM ket, so the basis
    is extended to hold it).  Without ``keep_axis`` the axis is removed.
    Returns the renormalized state, of the input's kind, and the projection
    probability.
    """
    try:
        io = state.space.axis_position(f"oam_{arm}")
    except KeyError:
        raise UnsupportedStateError(f"state has no OAM axis for arm {arm!r}") from None
    basis = state.space.axes[io].basis
    entries = _normalize_projection(coeffs)
    chi_in = _chi_vector(basis, entries)
    if np.linalg.norm(chi_in) == 0.0:
        raise ZeroProbabilityError("projection charges are all outside the basis")

    overlap = np.tensordot(chi_in.conj(), state.kets(), axes=(0, io + 1))
    prob = float(np.sum(np.abs(overlap) ** 2))
    if prob < _PROB_FLOOR:
        raise ZeroProbabilityError(
            f"projection probability {prob:.3e} below {_PROB_FLOOR:.0e}"
        )
    if not keep_axis:
        # overlap's axes follow the remaining order, which matches `space`
        space = state.space.drop_axis(f"oam_{arm}")
        return _from_kets(space, overlap / math.sqrt(prob), state.is_pure), prob
    wide = OamBasis(_union(basis.ells, (l for l, _ in entries)))
    amps = dict(entries)
    chi_full = np.array([amps.get(l, 0.0) for l in wide.ells], dtype=complex)
    out = np.multiply.outer(chi_full, overlap / math.sqrt(prob))
    out = np.moveaxis(out, 0, io + 1)
    space = state.space.replace_basis(arm, wide)
    return _from_kets(space, out, state.is_pure), prob


def project_oam_b(state: State, coeffs) -> State:
    """Rank-one filter of photon B's OAM onto ``coeffs``; axis kept, renormalized."""
    out, _ = project_oam(state, "B", coeffs, keep_axis=True)
    return out


def restrict_oam_b(state: State, ells: Sequence[int]) -> State:
    """Constrain photon B's OAM to the subspace spanned by ``ells``.

    Unlike :func:`project_oam_b` this keeps coherences between the retained
    charges, so entanglement with the other axes survives.
    """
    io = state.space.axis_position("oam_B")
    basis = state.space.axes[io].basis
    keep = [l for l in ells if l in basis]
    if not keep:
        raise ZeroProbabilityError("no requested charge is present in the basis")
    mask = np.array([l in keep for l in basis.ells], dtype=bool)
    kets = np.moveaxis(state.kets(), io + 1, 0).copy()
    kets[~mask] = 0.0
    nrm = np.linalg.norm(kets)
    if nrm**2 < _PROB_FLOOR:
        raise ZeroProbabilityError("subspace restriction annihilated the state")
    return _from_kets(state.space, np.moveaxis(kets, 0, io + 1) / nrm, state.is_pure)


def _ladder(state: State) -> tuple[int, ...]:
    ells = state.space.oam_basis("B").ells
    if len(ells) != 3:
        raise BasisMismatchError(f"extraction expects a three-charge ladder, got {ells}")
    return ells


def extract_ghz_state(state: State) -> State:
    """Constrain photon B's OAM to the outer charges of its three-charge ladder.

    This turns the balanced state into (|R,R,l1> + |L,L,l3>)/sqrt(2), the
    three-way entangled form.
    """
    l1, _, l3 = _ladder(state)
    return restrict_oam_b(state, (l1, l3))


def extract_reference_state(state: State) -> State:
    """Filter photon B's OAM onto the middle charge of its three-charge ladder."""
    return project_oam_b(state, {_ladder(state)[1]: 1.0})


# ---------------------------------------------------------------------------
# overlaps and serialization
# ---------------------------------------------------------------------------


def state_overlap(a: State, b: State) -> complex:
    """Inner product <a|b> of two pure states with matching axis layouts.

    OAM bases may differ; they are merged before the contraction.
    """
    if not (a.is_pure and b.is_pure):
        raise UnsupportedStateError("state_overlap takes pure states")
    names_a = tuple(ax.name for ax in a.space.axes)
    names_b = tuple(ax.name for ax in b.space.axes)
    if names_a != names_b:
        raise BasisMismatchError(f"axis layouts differ: {names_a} vs {names_b}")
    ta, tb = a.tensor(), b.tensor()
    for i, (ax_a, ax_b) in enumerate(zip(a.space.axes, b.space.axes)):
        if ax_a.kind == "oam":
            ells = _union(ax_a.basis.ells, ax_b.basis.ells)
            ta = _on_charges(ta, i, ax_a.basis, ells)
            tb = _on_charges(tb, i, ax_b.basis, ells)
    return complex(np.vdot(ta, tb))


def state_to_dict(state: State) -> dict:
    """JSON-ready description: basis order, OAM charges, kind, [re, im] pairs."""
    oam = {
        ax.arm: list(ax.basis.ells)
        for ax in state.space.axes
        if ax.kind == "oam"
    }
    flat = state.data.ravel()
    return {
        "basis_order": [ax.name for ax in state.space.axes],
        "oam_basis": oam["B"] if set(oam) == {"B"} else oam,
        "kind": state.kind,
        "amplitudes": [[float(z.real), float(z.imag)] for z in flat],
    }


def _axis_names(value) -> list[str]:
    names = list(value)
    if not all(isinstance(name, str) for name in names):
        raise TypeError("axis names must be strings")
    return names


def _oam_charges(value) -> dict[str, tuple[int, ...]]:
    if isinstance(value, Mapping):
        return {arm: tuple(int(l) for l in ells) for arm, ells in value.items()}
    return {"B": tuple(int(l) for l in value)}


def _complex_entries(value) -> np.ndarray:
    return np.array([complex(re, im) for re, im in value], dtype=complex)


def _document_entry(payload: Mapping, key: str, parse):
    """``parse(payload[key])``; an entry of the wrong JSON type raises a
    ValueError that names it."""
    try:
        return parse(payload[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state document entry {key!r} is malformed: {exc}") from None


def state_from_dict(payload: Mapping) -> State:
    """Inverse of :func:`state_to_dict`; a malformed document raises ValueError."""
    if not isinstance(payload, Mapping):
        raise ValueError("state document must be a JSON object")
    for key in ("basis_order", "oam_basis", "kind", "amplitudes"):
        if key not in payload:
            raise ValueError(f"state document has no {key!r} entry")
    kind = payload["kind"]
    if kind not in ("pure", "density"):
        raise ValueError(f"state kind must be 'pure' or 'density', got {kind!r}")
    names = _document_entry(payload, "basis_order", _axis_names)
    bases = {
        arm: OamBasis(ells)
        for arm, ells in _document_entry(payload, "oam_basis", _oam_charges).items()
    }
    axes = []
    for name in names:
        axis_kind, _, arm = name.partition("_")
        if axis_kind == "pol":
            axes.append(Axis(name, "pol"))
        elif axis_kind == "oam":
            try:
                axes.append(Axis(name, "oam", bases[arm]))
            except KeyError:
                raise BasisMismatchError(f"no OAM basis given for arm {arm!r}") from None
        else:
            raise BasisMismatchError(f"unknown axis name {name!r}")
    space = Space(tuple(axes))
    flat = _document_entry(payload, "amplitudes", _complex_entries)
    if kind == "pure":
        return State(space, "pure", flat)
    dim = space.dim
    return State(space, "density", flat.reshape(dim, dim))


def save_state(path, state: State, meta: Mapping | None = None) -> None:
    doc = state_to_dict(state)
    if meta:
        doc["meta"] = dict(meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_state(path) -> tuple[State, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return state_from_dict(doc), dict(doc.get("meta", {}))
