"""Span tracer that wraps qskyrm's public functions from outside the package.

Each traced function gets one wrapper, installed under every module name the
function is reachable through (``qskyrm.cli.sphere_sweep`` as well as
``qskyrm.topology.sphere_sweep``), so every call is seen whichever module's
globals it goes through.  A span records its wall time; a function's self time
is its total minus the time of the traced spans it called.  Spans stay in
memory as per-function aggregates.  ``uninstall`` puts the originals back.

A function of ``TRACED`` that the package no longer has is an error, not a
metric that reads 0: a renamed or inlined layer must be renamed here too.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# layer -> public functions that get a span; the neighbours of the measured
# functions are traced too, so that their time does not land in a caller's
# self time
TRACED = {
    "hilbert": (
        "herald_polarization",
        "balanced_switch_state",
        "build_spin_skyrmion_state",
        "extract_ghz_state",
        "load_state",
        "save_state",
        "state_to_dict",
    ),
    "modes": ("mode_stack",),
    "stokesfield": (
        "stokes_of_photon_state",
        "conditional_stokes",
        "normalize_stokes",
        "orientation_psi",
    ),
    "topology": (
        "skyrmion_density",
        "skyrmion_number",
        "sphere_sweep",
        "locate_quasiparticles",
        "track_dynamics",
    ),
    "tomography": (
        "build_projector_set",
        "forward_model",
        "simulate_counts",
        "reconstruct",
        "purity",
        "fidelity",
    ),
    "export": (
        "write_json",
        "write_csv",
        "write_pgm",
        "config_hash",
        "sphere_rows",
        "trace_rows",
        "record_rows",
    ),
    "cli": ("main", "resolve_config"),
}

PACKAGE = "qskyrm"
_WRITERS = ("export.write_json", "export.write_csv", "export.write_pgm")


class TracerError(Exception):
    """A function of ``TRACED`` cannot be wrapped."""


class Stat:
    __slots__ = ("calls", "self_s", "density_self_s", "cells",
                 "filled_sum", "valid_sum", "iterations", "cap_hits", "bytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.density_self_s = 0.0
        self.cells = 0
        self.filled_sum = 0.0
        self.valid_sum = 0.0
        self.iterations = 0
        self.cap_hits = 0
        self.bytes = 0


class Tracer:
    """Aggregates spans per traced function while installed.

    Built after the package is imported; raises ``TracerError`` at once when
    a function of ``TRACED`` is missing.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []
        # id(function) -> (qualified name, function)
        self._targets: dict[int, tuple[str, object]] = {}
        missing = []
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    self._targets[id(fn)] = (f"{layer}.{fname}", fn)
                else:
                    missing.append(f"{layer}.{fname}")
        if missing:
            raise TracerError("not in the package: " + ", ".join(missing))
        param = inspect.signature(
            sys.modules[f"{PACKAGE}.tomography"].reconstruct).parameters.get("max_iterations")
        # reconstruct's default max_iterations
        self._iteration_cap = None if param is None else param.default

    def _record(self, name: str, args, kwargs, result, own: float):
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.self_s += own
        if name == "stokesfield.stokes_of_photon_state":
            st.cells += int(result.s0.size)
            if not args[0].is_pure:
                st.density_self_s += own
        elif name == "stokesfield.normalize_stokes":
            st.filled_sum += 1.0 - float(result.mask.mean())
        elif name == "topology.sphere_sweep":
            st.valid_sum += float(result.valid.mean())
        elif name == "tomography.reconstruct":
            cap = kwargs.get("max_iterations", self._iteration_cap)
            st.iterations += result.iterations
            st.cap_hits += int(cap is not None and result.iterations >= cap)
        elif name in _WRITERS:
            # a PGM sidecar goes through write_json, so count the raster only
            st.bytes += os.path.getsize(args[0])

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._record(name, args, kwargs, result, elapsed - child)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of ``TRACED`` wherever a qskyrm module holds it."""
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self._targets.items()}
        installed = set()
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                target = self._targets.get(id(value))
                if target is not None and target[1] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                    installed.add(id(value))
        unwrapped = [name for key, (name, _fn) in self._targets.items() if key not in installed]
        if unwrapped:
            self.uninstall()
            raise TracerError("no wrapper installed for: " + ", ".join(unwrapped))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())
