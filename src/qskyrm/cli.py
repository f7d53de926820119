"""Command-line frontend for building states and reproducing the analyses.

Subcommands: build-state, sphere, stokes-field, skyrmion-number,
quasiparticles, dynamics, tomography, bell.

Configuration lives in an optional JSON file (--config) that flags override;
flags win.  ``_OPTIONS`` is the single list of settings: each row declares one
config key with its default, flag, help text and one ``kind`` (its type), plus
a rule where the setting has a range or maps its value.  The defaults, the
flags and the type check of each merged value all derive from it: a file value
must have its flag's type (an integral float counts as an integer; nothing else
is coerced), and null is accepted exactly where the default is null.  Unknown
config keys are rejected and the full configuration is validated before
anything is computed or written.  Output directories come from --out, the
config, or the QSKYRM_OUTPUT_DIR environment variable, in that order.  Every
command is deterministic for a given (config, seed): no timestamps are written
anywhere, so reruns are byte-identical, and each product embeds the SHA-256 of
its resolved configuration.

Exit codes: 0 success, 2 configuration error, 3 missing input file (a
directory where a file is expected included), 4 numerical failure.
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
    _charge,
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
    _sweep_axis,
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
    total_per_setting: int
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


_WANTED = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(kind, raw):
    """The merged value ``raw`` of a setting as its ``kind`` says.

    An int takes an integral float as the integer it names; a float takes an
    int.  Bools, strings and other numbers are never coerced: a value of the
    wrong JSON type is a config error, which the caller prefixes with the key.
    """
    if isinstance(kind, list):
        if not isinstance(raw, list):
            raise ConfigError(f"must be a list, got {raw!r}")
        return [_typed(kind[0], item) for item in raw]
    if isinstance(kind, tuple):
        ok = raw in kind
    elif kind in (int, float):
        ok = isinstance(raw, (int, float)) and not isinstance(raw, bool) and (
            kind is float or not isinstance(raw, float) or raw.is_integer()
        )
    elif kind in (bool, str):
        ok = isinstance(raw, kind)
    else:  # a parser of its own
        return kind(raw)
    if not ok:
        raise ConfigError(f"must be {_WANTED.get(kind) or '|'.join(kind)}, got {raw!r}")
    return kind(raw) if kind in (int, float) else raw


def _require(ok, requirement: str):
    """Rule that keeps a value when ``ok(value)``; else a config error saying
    ``requirement``, formatted with the value."""

    def rule(value):
        if not ok(value):
            raise ConfigError(requirement.format(value))
        return value

    return rule


def _snap_angle(value: float, hi: float) -> float:
    # hand-typed bounds like 3.1416 overshoot by less than rounding noise
    if 0.0 < abs(value - hi) < 1e-4:
        return hi
    if 0.0 < abs(value) < 1e-4:
        return 0.0
    return value


def _theta(value: float) -> float:
    return ProjectionAngles(_snap_angle(value, math.pi)).theta


def _alpha(value: float) -> float:
    return ProjectionAngles(0.0, _snap_angle(value, 2.0 * math.pi)).alpha


def _charge_or_none(raw) -> int | None:
    """``raw`` as the OAM charge it names (``hilbert._charge``: an integral
    float counts, a bool does not), or None when it names none."""
    try:
        return _charge(raw)
    except TypeError:
        return None


def _parse_projection(raw) -> list:
    """state.ell_a's file form: a bare charge, or a list of charges and
    ``[charge, re(, im)]`` entries; its flag form is a list of charges."""
    charge = _charge_or_none(raw)
    if charge is not None:
        return [charge]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"must be a charge or a nonempty list, got {raw!r}")
    entries = []
    for item in raw:
        charge = _charge_or_none(item)
        if charge is not None:
            entries.append(charge)
        elif (
            isinstance(item, list)
            and len(item) in (2, 3)
            and (charge := _charge_or_none(item[0])) is not None
        ):
            entries.append((charge, complex(*(_typed(float, part) for part in item[1:]))))
        else:
            raise ConfigError(f"entries must be charges or [charge, re(, im)], got {item!r}")
    return entries


class _Option(NamedTuple):
    """One setting: config key, default, flag, help text, kind and rule."""

    key: str  # dotted config key: "seed" or "section.name"
    default: object
    flag: str
    help: str
    # the setting's one type: int, float, bool, str, a tuple of choices, or
    # [int] / [float] for a list.  It makes the flag (an argparse type, a
    # switch, choices, or comma-separated text parsed after argparse so that a
    # bad list is a config error, exit 2, rather than a usage error) and checks
    # the merged value through _typed; null passes only where the default is
    # null.  A function parses the value itself: state.ell_a's file form is
    # richer than the list of charges its flag takes.
    kind: object
    rule: Callable = lambda value: value  # typed value -> RunConfig value: range or mapping
    field: str = ""  # RunConfig field, when it is not the key's last part


# the single list of settings (see the module docstring), in --help order
_OPTIONS = (
    _Option("output_dir", None, "--out", "output directory", str, field="out_dir"),
    _Option("seed", 7, "--seed", "seed for anything stochastic", int),
    _Option("grid.n", 512, "--grid-n", "grid cells per side", int, field="grid_n"),
    _Option("grid.half_extent", 4.0, "--half-extent", "half window size (waist units)", float),
    _Option("grid.waist", 1.0, "--waist", "mode waist", float),
    _Option("analysis.intensity_floor", 1e-6, "--floor",
            "relative intensity floor of stokes.json's resolved_fraction", float,
            _require(lambda v: 0.0 < v <= 1.0, "must lie in (0, 1], got {}")),
    _Option("state.file", None, "--state", "input state file (overrides built state)", str,
            field="state_file"),
    _Option("state.ell_a", [0], "--ell-a", "comma-separated arm-A projection charges",
            _parse_projection),
    _Option("state.q", 1.0, "--q", "plate charge q (2q integer)", float,
            lambda v: QPlateParams(v).q),
    _Option("state.tuning", 0.5, "--tuning", "plate tuning in [0, 1]", float,
            lambda v: QPlateParams(1.0, v).tuning),
    _Option("state.ladder", None, "--ladder", "explicit l1,l2,l3 balanced-state charges",
            [int], _require(lambda v: len(v) == len(set(v)) == 3,
                            "needs 3 distinct charges, got {}")),
    _Option("state.extract", "none", "--extract", "post-build filter",
            ("none", "ghz", "reference")),
    _Option("sweep.theta", None, "--theta", "comma-separated polar heralding angles",
            [float], lambda v: [_theta(t) for t in v]),
    _Option("sweep.alpha", None, "--alpha", "comma-separated azimuthal heralding angles",
            [float], lambda v: [_alpha(a) for a in v]),
    _Option("sweep.theta_fixed", None, "--theta-fixed", "fixed polar angle", float, _theta),
    _Option("sweep.alpha_fixed", None, "--alpha-fixed", "fixed azimuthal angle", float, _alpha),
    _Option("analysis.central_radius", None, "--central-radius", "central-region radius",
            float, _require(lambda v: v > 0.0, "must be positive")),
    _Option("tomography.total_per_setting", 10000, "--total-per-setting",
            "mean counts per setting", int, _require(lambda v: v >= 1, "must be >= 1")),
    _Option("tomography.noiseless", False, "--noiseless", "skip count noise", bool),
    _Option("tomography.witnesses_only", False, "--witnesses-only",
            "only evaluate witnesses on --state", bool),
    _Option("tomography.target_file", None, "--target", "target state file for fidelity", str),
    _Option("bell.pol_b", "R", "--pol-b", "photon-B polarization sector", ("R", "L")),
    _Option("bell.pair", None, "--pair", "comma-separated OAM pair for the Bell subspace",
            [int], tuple),
    _Option("bell.werner_p", None, "--werner-p", "Werner mixing weight", float,
            _require(lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1], got {}")),
)


def _slot(doc: dict, key: str) -> tuple[dict, str]:
    """The dict holding dotted ``key`` in ``doc`` (made if absent), and its name there."""
    section, _, name = key.rpartition(".")
    return (doc.setdefault(section, {}) if section else doc), name


def _check_keys(section: dict, allowed: dict, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _input_file(path: str, what: str) -> str:
    """``path``, when it names a file; a missing path or a directory is a
    missing input."""
    if not os.path.isfile(path):
        raise MissingInputError(f"{what} file not found: {path}")
    return path


def _merged_config(path: str | None) -> dict:
    """Defaults overlaid with the config file at ``path``, if any."""
    merged: dict = {}
    for opt in _OPTIONS:
        holder, name = _slot(merged, opt.key)
        holder[name] = opt.default
    if path is None:
        return merged
    with open(_input_file(path, "config"), encoding="utf-8") as fh:
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
        if not isinstance(opt.kind, (type, tuple)):  # a list, or state.ell_a's charges
            value = _number_list(opt.kind[0] if isinstance(opt.kind, list) else int)(value)
        holder, name = _slot(merged, opt.key)
        holder[name] = value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Parse, merge, and fully validate the configuration for one command."""
    merged = _merged_config(args.config)
    _apply_flag_overrides(merged, args)

    try:
        # the hash reads each setting as its kind takes it, so a charge or a
        # count written 64.0 hashes as 64
        values, semantic = {}, {"command": args.command}
        for opt in _OPTIONS:
            holder, name = _slot(merged, opt.key)
            raw = holder[name]
            try:
                typed = None if raw is None and opt.default is None else _typed(opt.kind, raw)
                values[opt.field or name] = None if typed is None else opt.rule(typed)
            except ConfigError as exc:
                raise ConfigError(f"{opt.key} {exc}") from None
            if opt.key != "output_dir":
                slot, name = _slot(semantic, opt.key)
                slot[name] = typed
        values["out_dir"] = values["out_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "qskyrm-out"
        n = values.pop("grid_n")
        grid = GridSpec(n, n, values.pop("half_extent"), values.pop("waist"))

        pair = values["pair"]
        if pair is not None or values["werner_p"] is not None:
            BellSubspace(values["pol_b"], pair if pair is not None else (0, -2))

        cfg = RunConfig(command=args.command, grid=grid, semantic=semantic, **values)
        if args.command == "dynamics":
            if (cfg.theta is None) == (cfg.alpha is None):
                raise ConfigError("dynamics needs exactly one of sweep.theta, sweep.alpha")
            _sweep_axis(_sweep_angles(cfg))
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _load_state_checked(path: str) -> State:
    state, _ = load_state(_input_file(path, "state"))
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
    smap = sphere_sweep(state, cfg.theta, cfg.alpha, cfg.grid)
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
            "method": smap.method,
            "outer_radius": smap.outer_radius,
            "core_scale": smap.core_scale,
            "plateaus": plateaus,
            "meta": cfg.meta(),
        },
    )
    print("plateaus: " + (", ".join(str(p) for p in plateaus) if plateaus else "(none)"))


def _frame(cfg: RunConfig, state: State, angles: ProjectionAngles):
    """Unit field and density of photon B heralded at ``angles``."""
    photon, _ = herald_polarization(state, angles)
    return photon_frame(photon, cfg.grid)


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
    for name in ("s0", "s1", "s2", "s3"):
        write_pgm(_out(cfg, f"stokes_{name}.pgm"), getattr(fieldmap, name))
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

    def render(i: int, unit, density, psi) -> None:
        write_pgm(_out(cfg, f"frame_{i:03d}_sigma.pgm"), density.sigma)
        write_pgm(_out(cfg, f"frame_{i:03d}_psi.pgm"), psi)
        rendered.add(i)

    trace = track_dynamics(state, sweep, cfg.grid, cfg.central_radius, on_frame=render)
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
        _frame(cfg, state, sweep[i])
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
    if cfg.noiseless:
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
        kind = opt.kind
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


if __name__ == "__main__":
    entry_point()
