"""Heralded CHSH correlation tests in two-qubit sectors.

Heralding photon A in the equatorial polarization basis ``(|R> +
e^{i chi}|L>)/sqrt(2)`` and analyzing photon B with the spatial superposition
``(|l_i> + e^{-i theta_B}|l_j>)/sqrt(2)`` inside one circular-polarization
sector realizes a standard two-qubit Bell scenario between photon A's
polarization and photon B's OAM pair.  The four herald labels map to
equatorial phases H: 0, V: pi, D: pi/2, A: 3pi/2, so {H, V} and {D, A} are
the two analyzer bases on the A side.

Correlations are post-selected on the coincidence combinations::

    E(chi, th) = [P(chi, th) + P(chi+pi, th+pi) - P(chi, th+pi) - P(chi+pi, th)]
                 / (sum of the four)

matching how coincidence-counted fringes are combined.  The default CHSH
settings (a, a') = (0, pi/2) and (b, b') = (pi/4, 3pi/4) are optimal for the
maximally entangled sector and yield S = 2 sqrt(2) there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BasisMismatchError, UnsupportedStateError, ZeroProbabilityError
from .hilbert import OamBasis, Space, State, _charge, polarization_ket

__all__ = [
    "HERALD_PHASES",
    "BellSubspace",
    "BellCurveSet",
    "ChshResult",
    "TSIRELSON_BOUND",
    "bell_curves",
    "chsh_parameter",
    "heralded_werner_state",
]

HERALD_PHASES = {"H": 0.0, "V": math.pi, "D": 0.5 * math.pi, "A": 1.5 * math.pi}

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class BellSubspace:
    """Two-qubit sector: a circular pol-B label and an OAM mode pair."""

    pol_b: str = "R"
    pair: tuple[int, int] = (0, -2)

    def __post_init__(self):
        if self.pol_b not in ("R", "L"):
            raise ValueError(f"pol_b must be 'R' or 'L', got {self.pol_b!r}")
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError(f"pair must hold two distinct charges, got {self.pair}")
        object.__setattr__(self, "pair", (_charge(self.pair[0]), _charge(self.pair[1])))


@dataclass(frozen=True)
class BellCurveSet:
    """Coincidence fringes: rates[i, j] for herald_settings[i], angles[j]."""

    subspace: BellSubspace
    herald_settings: tuple[str, ...]
    analyzer_angles: tuple[float, ...]
    rates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rates, dtype=float)
        shape = (len(self.herald_settings), len(self.analyzer_angles))
        if arr.shape != shape:
            raise ValueError(f"rates must have shape {shape}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)


@dataclass(frozen=True)
class ChshResult:
    """CHSH value with the settings and four correlations that produced it."""

    s_value: float
    herald_phases: tuple[float, float]
    analyzer_angles: tuple[float, float]
    correlations: tuple[float, float, float, float]
    subspace: BellSubspace


def _default_subspace(state: State) -> BellSubspace:
    ells = state.space.oam_basis("B").ells
    if len(ells) < 2:
        raise BasisMismatchError("state needs at least two OAM charges for a Bell test")
    return BellSubspace("R", (ells[0], ells[1]))


def _coincidence_probability(
    state: State, chi: float, theta_b: float, subspace: BellSubspace
) -> float:
    if not state.space.is_tripartite:
        raise UnsupportedStateError("Bell tests expect the canonical tripartite layout")
    basis = state.space.oam_basis("B")
    for ell in subspace.pair:
        if ell not in basis:
            raise BasisMismatchError(
                f"subspace charge {ell} is missing from the basis {basis.ells}"
            )
    herald = np.array([1.0, np.exp(1j * chi)], dtype=complex) / math.sqrt(2.0)
    analyzer = np.zeros(basis.dim, dtype=complex)
    analyzer[basis.index(subspace.pair[0])] = 1.0 / math.sqrt(2.0)
    analyzer[basis.index(subspace.pair[1])] = np.exp(-1j * theta_b) / math.sqrt(2.0)
    m = np.kron(herald, np.kron(polarization_ket(subspace.pol_b), analyzer))
    kets = state.kets().reshape(-1, state.dim)
    return float(sum(abs(np.vdot(m, k)) ** 2 for k in kets))


def bell_curves(
    state: State,
    subspace: BellSubspace | None = None,
    analyzer_angles: Sequence[float] | None = None,
    herald_settings: Sequence[str] = ("H", "V", "D", "A"),
) -> BellCurveSet:
    """Coincidence fringes versus analyzer angle for each herald setting."""
    if subspace is None:
        subspace = _default_subspace(state)
    if analyzer_angles is None:
        analyzer_angles = np.linspace(0.0, 2.0 * math.pi, 25)
    angles = tuple(float(t) for t in analyzer_angles)
    settings = tuple(herald_settings)
    for label in settings:
        if label not in HERALD_PHASES:
            raise ValueError(f"herald setting must be one of {sorted(HERALD_PHASES)}, got {label!r}")
    rates = np.array(
        [
            [
                _coincidence_probability(state, HERALD_PHASES[lbl], theta, subspace)
                for theta in angles
            ]
            for lbl in settings
        ]
    )
    return BellCurveSet(subspace, settings, angles, rates)


def _correlation(state: State, chi: float, theta: float, subspace: BellSubspace) -> float:
    combos = [
        (chi, theta, +1.0),
        (chi + math.pi, theta + math.pi, +1.0),
        (chi, theta + math.pi, -1.0),
        (chi + math.pi, theta, -1.0),
    ]
    num = 0.0
    den = 0.0
    for c, t, sign in combos:
        p = _coincidence_probability(state, c, t, subspace)
        num += sign * p
        den += p
    if den < 1e-30:
        raise ZeroProbabilityError("no coincidence weight in the chosen subspace")
    return num / den


def chsh_parameter(
    state: State,
    subspace: BellSubspace | None = None,
    herald_phases: tuple[float, float] = (0.0, 0.5 * math.pi),
    analyzer_angles: tuple[float, float] = (0.25 * math.pi, 0.75 * math.pi),
) -> ChshResult:
    """CHSH S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| from Born probabilities."""
    if subspace is None:
        subspace = _default_subspace(state)
    a, a_prime = herald_phases
    b, b_prime = analyzer_angles
    e_ab = _correlation(state, a, b, subspace)
    e_ab2 = _correlation(state, a, b_prime, subspace)
    e_a2b = _correlation(state, a_prime, b, subspace)
    e_a2b2 = _correlation(state, a_prime, b_prime, subspace)
    s = abs(e_ab - e_ab2 + e_a2b + e_a2b2)
    return ChshResult(
        s_value=float(s),
        herald_phases=(float(a), float(a_prime)),
        analyzer_angles=(float(b), float(b_prime)),
        correlations=(e_ab, e_ab2, e_a2b, e_a2b2),
        subspace=subspace,
    )


def heralded_werner_state(
    p: float, ells: tuple[int, int] = (0, -2), pol_b: str = "R"
) -> State:
    """Isotropic mixture p |Psi><Psi| + (1-p) Pi/4 in one heralded sector.

    |Psi> = (|R>_A|l1> + |L>_A|l2>)/sqrt(2) with photon B's polarization fixed
    to ``pol_b``, embedded as a density matrix on the tripartite space over
    exactly the two charges.  Its CHSH value at the default settings is
    2 sqrt(2) p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    subspace = BellSubspace(pol_b, tuple(ells))
    basis = OamBasis(subspace.pair)
    space = Space.tripartite(basis)
    psi = np.zeros(space.dims, dtype=complex)
    ib = 0 if pol_b == "R" else 1
    psi[0, ib, 0] = 1.0 / math.sqrt(2.0)
    psi[1, ib, 1] = 1.0 / math.sqrt(2.0)
    psi = psi.reshape(-1)
    pol_proj = np.zeros((2, 2))
    pol_proj[ib, ib] = 1.0
    sector = np.kron(np.eye(2), np.kron(pol_proj, np.eye(basis.dim)))
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * sector / 4.0
    return State(space, "density", rho)
