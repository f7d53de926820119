"""Bit-exact pins of state construction and tomography's setting groups.

Each case hashes the JSON of a family of results (``state_to_dict`` floats
are written with ``repr``, so the digest sees every bit of every amplitude).
The digests were recorded with numpy 2.4 on x86-64; a rewrite of the basis
bookkeeping must reproduce them exactly, last digits included.
"""

import hashlib
import json

import numpy as np
import pytest

from qskyrm import (
    QPlateParams,
    State,
    ZeroProbabilityError,
    apply_qplate,
    build_projector_set,
    build_spin_skyrmion_state,
    extract_ghz_state,
    extract_reference_state,
    project_oam,
    spdc_pair_state,
    state_to_dict,
)

Q_VALUES = (1.0, -1.0, 0.5, 1.5, 2.5)
TUNINGS = (0.0, 0.5, 1.0)
ELL_A = {
    "single_0": 0,
    "single_1": [1],
    "single_neg2": -2,
    "multi_0_neg1": [0, -1],
    "multi_0_1_3": [0, 1, 3],
    "complex_map": {0: 1.0, 2: 0.5j},
    "complex_pairs": [(0, 1.0 + 1.0j), (-1, 0.3)],
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _built(ell_a) -> dict:
    return {
        f"{q}/{t}": build_spin_skyrmion_state(ell_a, QPlateParams(q, t))
        for q in Q_VALUES
        for t in TUNINGS
    }


BUILD_DIGESTS = {
    "single_0": "1bd283efb0258b31db7753792f3658302bdf9dc2bb9597d7c03feedbb97f333d",
    "single_1": "4557331879e61d7c1286aceade51436be978a8e425805e2ee43af29326d4db15",
    "single_neg2": "349460494d4ae9fabe8dac2ea42758a0379e145e22f065de0cc54e2457a9d143",
    "multi_0_neg1": "b998258999a5976fad9600128ed715b494e6d8e2ce3f5245fc139319a4624292",
    "multi_0_1_3": "b6a4ad52720f047c50b78aba70707e7e35176f813dda42a6e7c15a563ac1cb78",
    "complex_map": "5786959b9aaa7006d41b7a4858ee038ee1b816677dcaa5b831d3bcf2f704833b",
    "complex_pairs": "72e1cf821f9e144b5ac1f62efa2959b50091dcc2520baad2b44acde75f769ed0",
}


@pytest.mark.parametrize("name", sorted(ELL_A))
def test_build_spin_skyrmion_state_bytes(name):
    docs = {k: state_to_dict(s) for k, s in _built(ELL_A[name]).items()}
    assert _digest(docs) == BUILD_DIGESTS[name]


EXTRACT_DIGEST = "fa400b7de05273a764794cbf5cff976c5640f9f964fe35e184c42abc36b81eb9"


def test_extraction_bytes():
    out = {}
    for name, ell_a in sorted(ELL_A.items()):
        for key, state in _built(ell_a).items():
            if state.space.oam_basis("B").dim == 3:
                out[f"{name}/{key}/ghz"] = state_to_dict(extract_ghz_state(state))
                out[f"{name}/{key}/ref"] = state_to_dict(extract_reference_state(state))
    assert len(out) > 40
    assert _digest(out) == EXTRACT_DIGEST


QPLATE_DIGEST = "c15d24477ac4c0dc1d68cda4ce9c9ad652e8ee9c9af74a64a0c18f6fa5b5e646"


def test_apply_qplate_bytes():
    out = {}
    for ells in ((0,), (0, 2), (0, 1, -3)):
        pair = spdc_pair_state(ells)
        for q in (1.0, -1.0, 0.5, 1.5):
            for t in (0.0, 0.3, 1.0):
                params = QPlateParams(q, t)
                a = apply_qplate(pair, "A", params)
                out[f"{ells}/{q}/{t}/A"] = state_to_dict(a)
                out[f"{ells}/{q}/{t}/B"] = state_to_dict(apply_qplate(pair, "B", params))
                out[f"{ells}/{q}/{t}/AB"] = state_to_dict(apply_qplate(a, "B", params))
    assert _digest(out) == QPLATE_DIGEST


PROJECT_DIGEST = "8d9486195b0ca31481f295c770adcf46ca08a0ba54077c01997a25d8bb264eb7"
COEFFS = (
    {0: 1.0, -2: 1.0j},
    [(0, 1.0), (-4, 0.5 + 0.5j)],
    [0, 7],
    {-2: 1.0, 5: 2.0},
    [(-4, 1.0), (9, 1.0j), (0, 0.25)],
)


def _inputs() -> dict:
    binary = build_spin_skyrmion_state(0, QPlateParams(1.0, 0.5))
    rho = 0.8 * np.outer(binary.data, binary.data.conj())
    mixed = State.density(binary.space, rho + 0.2 * np.eye(binary.dim) / binary.dim)
    pair = apply_qplate(spdc_pair_state((0, 2, -4)), "B", QPlateParams(1.0, 0.5))
    return {
        "binary/B": (binary, "B"),
        "mixed/B": (mixed, "B"),
        "pair/A": (pair, "A"),
        "pair/B": (pair, "B"),
        "pair_density/B": (pair.to_density(), "B"),
    }


def test_project_oam_bytes():
    out = {}
    for name, (state, arm) in _inputs().items():
        for k, coeffs in enumerate(COEFFS):
            # keys end in /False: the digest was recorded when project_oam
            # could also keep the axis, from its axis-dropping cases alone
            try:
                proj, prob = project_oam(state, arm, coeffs)
            except ZeroProbabilityError:  # no overlap with the arm's charges
                out[f"{name}/{k}/False"] = "ZeroProbabilityError"
                continue
            out[f"{name}/{k}/False"] = [state_to_dict(proj), prob]
    assert _digest(out) == PROJECT_DIGEST


PROJECTOR_SET_DIGESTS = {
    2: "153308734030498de7c228ab9630fbdb028a1d803f5d01d2fdf372e16a2ecc97",
    3: "0d9ac37ee26fc32f0831389e62891b8ede7c5f9c17cb01b9bbf3ba81107118d9",
}


@pytest.mark.parametrize("d_sp", [2, 3])
def test_projector_set_groups_bytes(d_sp):
    pset = build_projector_set(d_sp)
    doc = {
        "labels": [list(lbl) for lbl in pset.labels],
        "groups": [list(g) for g in pset.groups],
        "owner_group": pset.owner_group.tolist(),
    }
    assert _digest(doc) == PROJECTOR_SET_DIGESTS[d_sp]
