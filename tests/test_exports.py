"""Every name a module exports must exist, so a deleted helper leaves no dangling export.

The package namespace is the union of the library modules' ``__all__``
lists, so each public name is declared once, in its own module.
"""

import importlib
import inspect
import pkgutil

import pytest

import qskyrm

MODULES = ["qskyrm"] + [
    f"qskyrm.{info.name}" for info in pkgutil.iter_modules(qskyrm.__path__)
]
LIBRARY = ["bell", "errors", "hilbert", "modes", "stokesfield", "tomography", "topology"]

# qskyrm.__all__ before the package built it from the module lists, less
# SpdcSpectrum and project_oam_b, which no caller used and were deleted; the
# package must keep exporting each of these
PARENT_EXPORTS = [
    "BasisMismatchError", "BellSubspace", "ChshResult", "ConfigError", "DynamicsTrace",
    "EmptyFieldError", "EmptyStateError", "GridSpec", "InsufficientCoverageError",
    "MeasurementRecord", "MissingInputError", "OamBasis", "ProjectionAngles",
    "ProjectorSet", "QPlateParams", "QskyrmError", "QuasiparticleReport",
    "ReconstructionResult", "SkyrmionDensityField", "Space", "SphereMap",
    "State", "StokesField", "TSIRELSON_BOUND", "UnitStokesField", "UnsupportedStateError",
    "ZeroProbabilityError", "__version__", "apply_qplate", "balanced_switch_state",
    "bell_curves", "build_projector_set", "build_spin_skyrmion_state", "chsh_parameter",
    "conditional_stokes", "extract_ghz_state", "extract_reference_state", "fidelity",
    "forward_model", "grid_axes", "herald_polarization", "heralded_werner_state", "lg_mode",
    "load_state", "locate_quasiparticles", "mode_stack", "normalize_stokes",
    "orientation_psi", "polar_coords", "polarization_ket", "project_oam",
    "purity", "reconstruct", "restrict_oam_b", "save_state", "simulate_counts",
    "skyrmion_density", "skyrmion_number", "spdc_pair_state", "sphere_sweep",
    "state_from_dict", "state_overlap", "state_to_dict", "stokes_of_photon_state",
    "track_dynamics",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"qskyrm.{name}")
    for attr in module.__all__:
        assert attr in qskyrm.__all__
        assert getattr(qskyrm, attr) is getattr(module, attr)


@pytest.mark.parametrize("name", LIBRARY)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"qskyrm.{name}")
    defined = [
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_keeps_its_exports():
    assert sorted(set(PARENT_EXPORTS) - set(qskyrm.__all__)) == []
    assert qskyrm.__all__[0] == "__version__"
