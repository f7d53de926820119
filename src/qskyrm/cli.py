"""Command-line frontend for building states and reproducing the analyses.

Subcommands: build-state, sphere, stokes-field, skyrmion-number,
quasiparticles, dynamics, tomography, bell.

Configuration lives in an optional JSON file (--config) that flags override;
flags win.  ``_OPTIONS`` is the single list of settings: each row declares one
config key with its default, flag, help text, parser and validator, and the
defaults, flags and per-field checks all derive from it.  Unknown config keys
are rejected and the full configuration is validated before anything is
computed or written.  Output directories come from --out, the config, or the
QSKYRM_OUTPUT_DIR environment variable, in that order.  Every command is
deterministic for a given (config, seed): no timestamps are written anywhere,
so reruns are byte-identical, and each product embeds the SHA-256 of its
resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 missing input file,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import __version__
from .bell import BellSubspace, bell_curves, chsh_parameter, heralded_werner_state
from .errors import ConfigError, MissingInputError, QskyrmError
from .export import (
    config_hash,
    curves_rows,
    record_rows,
    sphere_rows,
    trace_rows,
    write_csv,
    write_json,
    write_pgm,
)
from .hilbert import (
    ProjectionAngles,
    QPlateParams,
    State,
    balanced_switch_state,
    build_spin_skyrmion_state,
    extract_ghz_state,
    extract_reference_state,
    herald_polarization,
    load_state,
    save_state,
    state_to_dict,
)
from .modes import GridSpec
from .stokesfield import conditional_stokes, normalize_stokes, orientation_psi
from .tomography import (
    build_projector_set,
    fidelity,
    forward_model,
    purity,
    reconstruct,
    simulate_counts,
)
from .topology import (
    locate_quasiparticles,
    photon_frame,
    skyrmion_number,
    sphere_sweep,
    track_dynamics,
)

OUTPUT_DIR_ENV = "QSKYRM_OUTPUT_DIR"
PLATEAU_TOL = 0.15


@dataclass
class RunConfig:
    command: str
    out_dir: str
    seed: int
    grid: GridSpec
    intensity_floor: float
    central_radius: float | None
    state_file: str | None
    ell_a: list
    q: float
    tuning: float
    ladder: list | None
    extract: str
    theta: list | None
    alpha: list | None
    theta_fixed: float | None
    alpha_fixed: float | None
    total_per_setting: int | None
    noiseless: bool
    witnesses_only: bool
    target_file: str | None
    pol_b: str
    pair: tuple[int, int] | None
    werner_p: float | None
    semantic: dict = field(repr=False, default_factory=dict)

    def hash(self) -> str:
        return config_hash(self.semantic)

    def meta(self) -> dict:
        return {"tool": "qskyrm", "version": __version__, "config_sha256": self.hash()}

    def fixed_angles(self) -> ProjectionAngles:
        theta = 0.5 * math.pi if self.theta_fixed is None else self.theta_fixed
        alpha = 0.0 if self.alpha_fixed is None else self.alpha_fixed
        return ProjectionAngles(theta, alpha)


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------


def _number_list(kind):
    """Parser for comma-separated ``kind`` values in flag text."""

    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise ConfigError(
                f"cannot parse {text!r} as comma-separated {kind.__name__}s"
            ) from None

    return parse


def _checked(convert, ok, message: str):
    """Validator: ``convert`` the raw value, then reject it unless ``ok``."""

    def check(raw):
        value = convert(raw)
        if not ok(value):
            raise ConfigError(message.format(value))
        return value

    return check


def _integer(key: str):
    """Converter for an integer setting: bools, strings and non-integral
    numbers are config errors that name ``key``, never truncated."""

    def convert(raw) -> int:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or (
            isinstance(raw, float) and not raw.is_integer()
        ):
            raise ConfigError(f"{key} must be an integer, got {raw!r}")
        return int(raw)

    return convert


def _real(key: str):
    """Converter for a real setting: an int or a float, as a float; bools,
    strings and null are config errors that name ``key``."""

    def convert(raw) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{key} must be a number, got {raw!r}")
        return float(raw)

    return convert


def _switch(key: str):
    """Converter for an on/off setting: only JSON true or false."""

    def convert(raw) -> bool:
        if not isinstance(raw, bool):
            raise ConfigError(f"{key} must be true or false, got {raw!r}")
        return raw

    return convert


def _nullable(check):
    return lambda raw: None if raw is None else check(raw)


def _snap_angle(value: float, hi: float) -> float:
    # hand-typed bounds like 3.1416 overshoot by less than rounding noise
    if 0.0 < abs(value - hi) < 1e-4:
        return hi
    if 0.0 < abs(value) < 1e-4:
        return 0.0
    return value


def _theta(key: str):
    real = _real(key)
    return lambda raw: ProjectionAngles(_snap_angle(real(raw), math.pi)).theta


def _alpha(key: str):
    real = _real(key)
    return lambda raw: ProjectionAngles(0.0, _snap_angle(real(raw), 2.0 * math.pi)).alpha


def _each(convert):
    return lambda raw: [convert(item) for item in raw]


def _is_charge(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _parse_projection(raw) -> list:
    if _is_charge(raw):
        return [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"state.ell_a must be a charge or a nonempty list, got {raw!r}")
    amplitude = _real("state.ell_a amplitude")
    entries = []
    for item in raw:
        if _is_charge(item):
            entries.append(item)
        elif isinstance(item, list) and len(item) in (2, 3) and _is_charge(item[0]):
            parts = [amplitude(part) for part in item[1:]]
            entries.append((item[0], complex(*parts)))
        else:
            raise ConfigError(
                f"state.ell_a entries must be charges or [charge, re(, im)], got {item!r}"
            )
    return entries


class _Option(NamedTuple):
    """One setting: config key, default, flag, help text, parser and validator."""

    key: str  # dotted config key: "seed" or "section.name"
    default: object
    flag: str
    help: str
    # int or float is the argparse type, a tuple lists the choices, bool makes a
    # switch, and a function parses the flag text after argparse, so that a bad
    # list is a config error (exit 2 with a message) rather than a usage error
    flag_type: object = None
    check: Callable = lambda raw: raw  # merged value -> RunConfig value; raises if bad
    field: str = ""  # RunConfig field, when it is not the key's last part


_INTS, _FLOATS = _number_list(int), _number_list(float)
_EXTRACTS = ("none", "ghz", "reference")

# the single list of settings (see the module docstring), in --help order
_OPTIONS = (
    _Option("output_dir", None, "--out", "output directory", field="out_dir",
            check=lambda raw: raw or os.environ.get(OUTPUT_DIR_ENV) or "qskyrm-out"),
    _Option("seed", 7, "--seed", "seed for anything stochastic", int, _integer("seed")),
    _Option("grid.n", 512, "--grid-n", "grid cells per side", int, _integer("grid.n"),
            "grid_n"),
    _Option("grid.half_extent", 4.0, "--half-extent", "half window size (waist units)",
            float, _real("grid.half_extent")),
    _Option("grid.waist", 1.0, "--waist", "mode waist", float, _real("grid.waist")),
    _Option("analysis.intensity_floor", 1e-6, "--floor", "relative intensity floor", float,
            _checked(_real("analysis.intensity_floor"), lambda v: 0.0 < v <= 1.0,
                     "analysis.intensity_floor must lie in (0, 1], got {}")),
    _Option("state.file", None, "--state", "input state file (overrides built state)",
            field="state_file"),
    _Option("state.ell_a", [0], "--ell-a", "comma-separated arm-A projection charges",
            _INTS, _parse_projection),
    _Option("state.q", 1.0, "--q", "plate charge q (2q integer)", float,
            lambda raw: QPlateParams(_real("state.q")(raw)).q),
    _Option("state.tuning", 0.5, "--tuning", "plate tuning in [0, 1]", float,
            lambda raw: QPlateParams(1.0, _real("state.tuning")(raw)).tuning),
    _Option("state.ladder", None, "--ladder", "explicit l1,l2,l3 balanced-state charges",
            _INTS, _nullable(_checked(lambda raw: [_integer("state.ladder")(l) for l in raw],
                                      lambda v: len(v) == len(set(v)) == 3,
                                      "state.ladder needs 3 distinct charges, got {}"))),
    _Option("state.extract", "none", "--extract", "post-build filter", _EXTRACTS,
            _checked(lambda raw: raw, lambda v: v in _EXTRACTS,
                     "state.extract must be none|ghz|reference, got {!r}")),
    _Option("sweep.theta", None, "--theta", "comma-separated polar heralding angles",
            _FLOATS, _nullable(_each(_theta("sweep.theta")))),
    _Option("sweep.alpha", None, "--alpha", "comma-separated azimuthal heralding angles",
            _FLOATS, _nullable(_each(_alpha("sweep.alpha")))),
    _Option("sweep.theta_fixed", None, "--theta-fixed", "fixed polar angle", float,
            _nullable(_theta("sweep.theta_fixed"))),
    _Option("sweep.alpha_fixed", None, "--alpha-fixed", "fixed azimuthal angle", float,
            _nullable(_alpha("sweep.alpha_fixed"))),
    _Option("analysis.central_radius", None, "--central-radius", "central-region radius",
            float, _nullable(_checked(_real("analysis.central_radius"), lambda v: v > 0.0,
                                      "analysis.central_radius must be positive"))),
    _Option("tomography.total_per_setting", 10000, "--total-per-setting",
            "mean counts per setting", int,
            _nullable(_checked(_integer("tomography.total_per_setting"), lambda v: v >= 1,
                               "tomography.total_per_setting must be >= 1"))),
    _Option("tomography.noiseless", False, "--noiseless", "skip count noise", bool,
            _switch("tomography.noiseless")),
    _Option("tomography.witnesses_only", False, "--witnesses-only",
            "only evaluate witnesses on --state", bool,
            _switch("tomography.witnesses_only")),
    _Option("tomography.target_file", None, "--target", "target state file for fidelity"),
    _Option("bell.pol_b", "R", "--pol-b", "photon-B polarization sector", ("R", "L"), str),
    _Option("bell.pair", None, "--pair", "comma-separated OAM pair for the Bell subspace",
            _INTS, _nullable(lambda raw: tuple(_integer("bell.pair")(l) for l in raw))),
    _Option("bell.werner_p", None, "--werner-p", "Werner mixing weight", float,
            _nullable(_checked(_real("bell.werner_p"), lambda v: 0.0 <= v <= 1.0,
                               "bell.werner_p must lie in [0, 1], got {}"))),
)


def _slot(doc: dict, key: str) -> tuple[dict, str]:
    """The dict holding dotted ``key`` in ``doc`` (made if absent), and its name there."""
    section, _, name = key.rpartition(".")
    return (doc.setdefault(section, {}) if section else doc), name


def _check_keys(section: dict, allowed: dict, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _merged_config(path: str | None) -> dict:
    """Defaults overlaid with the config file at ``path``, if any."""
    merged: dict = {}
    for opt in _OPTIONS:
        holder, name = _slot(merged, opt.key)
        holder[name] = opt.default
    if path is None:
        return merged
    if not os.path.exists(path):
        raise MissingInputError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except ValueError as exc:  # bytes that are not UTF-8
            raise ConfigError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _check_keys(doc, merged, path)
    for key, value in doc.items():
        if isinstance(merged[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _check_keys(value, merged[key], f"{path}:{key}")
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def _apply_flag_overrides(merged: dict, args: argparse.Namespace) -> None:
    for opt in _OPTIONS:
        value = getattr(args, opt.flag[2:].replace("-", "_"))
        if value is None:
            continue
        if callable(opt.flag_type) and not isinstance(opt.flag_type, type):
            value = opt.flag_type(value)
        holder, name = _slot(merged, opt.key)
        holder[name] = value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Parse, merge, and fully validate the configuration for one command."""
    merged = _merged_config(args.config)
    _apply_flag_overrides(merged, args)

    try:
        values = {}
        for opt in _OPTIONS:
            holder, name = _slot(merged, opt.key)
            values[opt.field or name] = opt.check(holder[name])
        n = values.pop("grid_n")
        grid = GridSpec(n, n, values.pop("half_extent"), values.pop("waist"))

        pair = values["pair"]
        if pair is not None or values["werner_p"] is not None:
            BellSubspace(values["pol_b"], pair if pair is not None else (0, -2))

        if args.command == "dynamics":
            theta, alpha = values["theta"], values["alpha"]
            if (theta is None) == (alpha is None):
                raise ConfigError("dynamics needs exactly one of sweep.theta, sweep.alpha")
            varying = theta if theta is not None else alpha
            if len(varying) < 5:
                raise ConfigError(f"dynamics sweep needs at least 5 samples, got {len(varying)}")
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None

    semantic = {k: v for k, v in merged.items() if k != "output_dir"}
    semantic["command"] = args.command
    return RunConfig(command=args.command, grid=grid, semantic=semantic, **values)


def _load_state_checked(path: str) -> State:
    if not os.path.exists(path):
        raise MissingInputError(f"state file not found: {path}")
    state, _ = load_state(path)
    return state


def _resolve_state(cfg: RunConfig) -> State:
    if cfg.state_file is not None:
        state = _load_state_checked(cfg.state_file)
    elif cfg.ladder is not None:
        state = balanced_switch_state(cfg.ladder)
    else:
        state = build_spin_skyrmion_state(cfg.ell_a, QPlateParams(cfg.q, cfg.tuning))
    if cfg.extract == "ghz":
        state = extract_ghz_state(state)
    elif cfg.extract == "reference":
        state = extract_reference_state(state)
    return state


def _out(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_state(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    path = _out(cfg, "state.json")
    save_state(path, state, meta=cfg.meta())
    ells = state.space.oam_basis("B").ells if state.space.has_axis("oam_B") else ()
    print(f"wrote {path} ({state.kind}, OAM basis {list(ells)})")


def _plateaus(sphere_map) -> list[int]:
    seen: list[int] = []
    flat_n = sphere_map.n_values.ravel()
    flat_v = sphere_map.valid.ravel()
    for n, ok in zip(flat_n, flat_v):
        if not ok:
            continue
        nearest = int(round(float(n)))
        if abs(float(n) - nearest) <= PLATEAU_TOL and nearest not in seen:
            seen.append(nearest)
    return seen


def cmd_sphere(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    smap = sphere_sweep(state, cfg.theta, cfg.alpha, cfg.grid, cfg.intensity_floor)
    header, rows = sphere_rows(smap)
    write_csv(_out(cfg, "sphere.csv"), header, rows)
    plateaus = _plateaus(smap)
    write_json(
        _out(cfg, "sphere.json"),
        {
            "theta_samples": smap.theta_samples,
            "alpha_samples": smap.alpha_samples,
            "n_values": smap.n_values,
            "valid": smap.valid,
            "plateaus": plateaus,
            "meta": cfg.meta(),
        },
    )
    print("plateaus: " + (", ".join(str(p) for p in plateaus) if plateaus else "(none)"))


def _frame(cfg: RunConfig, state: State, angles: ProjectionAngles):
    """Unit field and density of photon B heralded at ``angles``."""
    photon, _ = herald_polarization(state, angles)
    return photon_frame(photon, cfg.grid, cfg.intensity_floor)


def cmd_skyrmion_number(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    angles = cfg.fixed_angles()
    n = skyrmion_number(_frame(cfg, state, angles)[1])
    write_json(
        _out(cfg, "skyrmion_number.json"),
        {
            "theta": angles.theta,
            "alpha": angles.alpha,
            "n": n,
            "rounded": int(round(n)),
            "meta": cfg.meta(),
        },
    )
    print(f"n({angles.theta:.3f}, {angles.alpha:.3f}) = {n:.4f}")


def cmd_stokes_field(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    angles = cfg.fixed_angles()
    fieldmap = conditional_stokes(state, angles, cfg.grid)
    unit = normalize_stokes(fieldmap, cfg.intensity_floor)
    for idx, name in enumerate(("s0", "s1", "s2", "s3")):
        write_pgm(_out(cfg, f"stokes_{name}.pgm"), fieldmap.values[idx])
    write_pgm(_out(cfg, "stokes_psi.pgm"), orientation_psi(unit))
    write_json(
        _out(cfg, "stokes.json"),
        {
            "theta": angles.theta,
            "alpha": angles.alpha,
            "total_power": fieldmap.total_power,
            "resolved_fraction": float(unit.mask.mean()),
            "meta": cfg.meta(),
        },
    )
    print(f"wrote Stokes rasters (power {fieldmap.total_power:.6f})")


def cmd_quasiparticles(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    angles = cfg.fixed_angles()
    report = locate_quasiparticles(_frame(cfg, state, angles)[1], cfg.central_radius)
    write_json(
        _out(cfg, "quasiparticles.json"),
        {
            "theta": angles.theta,
            "alpha": angles.alpha,
            "count": report.count,
            "central_charge": report.central_charge,
            "total": report.total,
            "regions": [
                {
                    "centroid": list(r.centroid),
                    "charge": r.charge,
                    "area": r.area,
                    "radius": r.radius,
                    "azimuth": r.azimuth,
                }
                for r in report.regions
            ],
            "meta": cfg.meta(),
        },
    )
    charges = ", ".join(f"{r.charge:+.3f}" for r in report.regions)
    print(
        f"count {report.count} (central {report.central_charge:+.3f}"
        + (f", satellites {charges}" if charges else "")
        + f", total {report.total:+.3f})"
    )


def _sweep_angles(cfg: RunConfig) -> list[ProjectionAngles]:
    fixed = cfg.fixed_angles()
    if cfg.theta is not None:
        return [ProjectionAngles(t, fixed.alpha) for t in cfg.theta]
    return [ProjectionAngles(fixed.theta, a) for a in cfg.alpha]


def cmd_dynamics(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    sweep = _sweep_angles(cfg)
    rendered = set()

    def render(i: int, unit, density) -> None:
        write_pgm(_out(cfg, f"frame_{i:03d}_sigma.pgm"), density.sigma)
        write_pgm(_out(cfg, f"frame_{i:03d}_psi.pgm"), orientation_psi(unit))
        rendered.add(i)

    trace = track_dynamics(
        state, sweep, cfg.grid, cfg.central_radius, cfg.intensity_floor, on_frame=render
    )
    header, rows = trace_rows(trace)
    write_csv(_out(cfg, "dynamics.csv"), header, rows)
    write_json(
        _out(cfg, "dynamics.json"),
        {
            "sweep_param": trace.sweep_param,
            "param_values": trace.param_values,
            "counts": trace.counts,
            "ambiguous": trace.ambiguous,
            "net_orbit": trace.net_orbit(),
            "net_spin": trace.net_spin(),
            "meta": cfg.meta(),
        },
    )
    # every frame gets a raster; the tracker drops a sample it cannot herald
    # or resolve, and computing that frame again raises the reason
    for i in sorted(set(range(len(sweep))) - rendered):
        render(i, *_frame(cfg, state, sweep[i]))
    orbits = ", ".join(f"{v:+.3f}" for v in trace.net_orbit())
    print(f"{trace.n_tracks} track(s); net orbit [{orbits}]")


def cmd_tomography(cfg: RunConfig) -> None:
    if cfg.witnesses_only:
        if cfg.state_file is None:
            raise ConfigError("--witnesses-only needs --state pointing at a density file")
        rho = _load_state_checked(cfg.state_file)
        target = (
            _load_state_checked(cfg.target_file) if cfg.target_file is not None else None
        )
        doc = {
            "purity": purity(rho),
            "fidelity_vs_target": None if target is None else fidelity(rho, target),
            "meta": cfg.meta(),
        }
        write_json(_out(cfg, "tomography.json"), doc)
        print(f"purity {doc['purity']:.6f}")
        return

    state = _resolve_state(cfg)
    d_sp = state.space.oam_basis("B").dim
    pset = build_projector_set(d_sp)
    probabilities = forward_model(state, pset)
    if cfg.noiseless or cfg.total_per_setting is None:
        record = probabilities
    else:
        record = simulate_counts(probabilities, cfg.total_per_setting, cfg.seed)
    header, rows = record_rows(pset, record)
    write_csv(_out(cfg, "measurements.csv"), header, rows)
    target = (
        _load_state_checked(cfg.target_file)
        if cfg.target_file is not None
        else state
    )
    result = reconstruct(record, pset, init_seed=cfg.seed, target=target)
    write_json(
        _out(cfg, "tomography.json"),
        {
            "fidelity_vs_target": result.fidelity_vs_target,
            "purity": result.purity,
            "residual": result.residual,
            "iterations": result.iterations,
            "converged": result.converged,
            "termination": result.termination,
            "record_kind": record.kind,
            "n_settings": len(pset),
            "rho": state_to_dict(result.rho_hat),
            "meta": cfg.meta(),
        },
    )
    print(
        f"fidelity {result.fidelity_vs_target:.6f}, purity {result.purity:.6f} "
        f"({result.iterations} iterations)"
    )


def cmd_bell(cfg: RunConfig) -> None:
    if cfg.werner_p is not None:
        pair = cfg.pair if cfg.pair is not None else (0, -2)
        state = heralded_werner_state(cfg.werner_p, pair, cfg.pol_b)
        subspace = BellSubspace(cfg.pol_b, pair)
    else:
        state = _resolve_state(cfg)
        if cfg.pair is not None:
            subspace = BellSubspace(cfg.pol_b, cfg.pair)
        else:
            ells = state.space.oam_basis("B").ells
            subspace = BellSubspace(cfg.pol_b, (ells[0], ells[1]))
    curves = bell_curves(state, subspace)
    header, rows = curves_rows(curves)
    write_csv(_out(cfg, "bell_fringes.csv"), header, rows)
    result = chsh_parameter(state, subspace)
    write_json(
        _out(cfg, "bell.json"),
        {
            "s_value": result.s_value,
            "correlations": result.correlations,
            "herald_phases": result.herald_phases,
            "analyzer_angles": result.analyzer_angles,
            "subspace": {"pol_b": subspace.pol_b, "pair": subspace.pair},
            "meta": cfg.meta(),
        },
    )
    print(f"S = {result.s_value:.6f}")


_COMMANDS = {
    "build-state": cmd_build_state,
    "sphere": cmd_sphere,
    "stokes-field": cmd_stokes_field,
    "skyrmion-number": cmd_skyrmion_number,
    "quasiparticles": cmd_quasiparticles,
    "dynamics": cmd_dynamics,
    "tomography": cmd_tomography,
    "bell": cmd_bell,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    for opt in _OPTIONS:
        kind = opt.flag_type
        if kind is bool:  # absent is None, not False, so a config's true stands
            extra = {"action": "store_true", "default": None}
        elif kind in (int, float):
            extra = {"type": kind}
        elif isinstance(kind, tuple):
            extra = {"choices": kind}
        else:
            extra = {}
        common.add_argument(opt.flag, help=opt.help, **extra)

    parser = argparse.ArgumentParser(
        prog="qskyrm",
        description="Heralded photon skyrmion textures: construction, topology, verification",
    )
    parser.add_argument("--version", action="version", version=f"qskyrm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=handler.__doc__)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        _COMMANDS[cfg.command](cfg)
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QskyrmError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


def entry_point() -> None:
    raise SystemExit(main())
