"""Command-line frontend for building states and reproducing the analyses.

Subcommands: build-state, sphere, stokes-field, skyrmion-number,
quasiparticles, dynamics, tomography, bell.

Configuration lives in an optional JSON file (--config) that flags override;
flags win.  Unknown config keys are rejected and the full configuration is
validated before anything is computed or written.  Output directories come
from --out, the config, or the QSKYRM_OUTPUT_DIR environment variable, in
that order.  Every command is deterministic for a given (config, seed): no
timestamps are written anywhere, so reruns are byte-identical, and each
product embeds the SHA-256 of its resolved configuration.

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
    DEFAULT_ALPHA_SAMPLES,
    DEFAULT_THETA_SAMPLES,
    locate_quasiparticles,
    skyrmion_density,
    skyrmion_number,
    sphere_sweep,
    track_dynamics,
)

OUTPUT_DIR_ENV = "QSKYRM_OUTPUT_DIR"
PLATEAU_TOL = 0.15

_DEFAULTS = {
    "output_dir": None,
    "seed": 7,
    "grid": {"n": 512, "half_extent": 4.0, "waist": 1.0},
    "state": {
        "file": None,
        "ell_a": [0],
        "q": 1.0,
        "tuning": 0.5,
        "ladder": None,
        "extract": "none",
    },
    "sweep": {"theta": None, "alpha": None, "theta_fixed": None, "alpha_fixed": None},
    "analysis": {"intensity_floor": 1e-6, "central_radius": None},
    "tomography": {
        "total_per_setting": 10000,
        "noiseless": False,
        "witnesses_only": False,
        "target_file": None,
    },
    "bell": {"pol_b": "R", "pair": None, "werner_p": None},
}


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


def _check_keys(section: dict, allowed: dict, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise MissingInputError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _check_keys(doc, _DEFAULTS, path)
    for key, defaults in _DEFAULTS.items():
        if isinstance(defaults, dict) and key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _check_keys(doc[key], defaults, f"{path}:{key}")
    return doc


def _merge(doc: dict) -> dict:
    merged = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            section = dict(default)
            section.update(doc.get(key, {}))
            merged[key] = section
        else:
            merged[key] = doc.get(key, default)
    return merged


def _parse_numbers(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as comma-separated {kind.__name__}s") from None


def _snap_angle(value: float, hi: float) -> float:
    # hand-typed bounds like 3.1416 overshoot by less than rounding noise
    if 0.0 < abs(value - hi) < 1e-4:
        return hi
    if 0.0 < abs(value) < 1e-4:
        return 0.0
    return value


def _parse_projection(raw) -> list:
    if isinstance(raw, int):
        return [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"state.ell_a must be a charge or a nonempty list, got {raw!r}")
    entries = []
    for item in raw:
        if isinstance(item, int):
            entries.append(item)
        elif isinstance(item, list) and len(item) in (2, 3) and isinstance(item[0], int):
            amp = complex(item[1], item[2] if len(item) == 3 else 0.0)
            entries.append((item[0], amp))
        else:
            raise ConfigError(
                f"state.ell_a entries must be charges or [charge, re(, im)], got {item!r}"
            )
    return entries


def _apply_flag_overrides(merged: dict, args: argparse.Namespace) -> None:
    if args.out is not None:
        merged["output_dir"] = args.out
    if args.seed is not None:
        merged["seed"] = args.seed
    grid = merged["grid"]
    if args.grid_n is not None:
        grid["n"] = args.grid_n
    if args.half_extent is not None:
        grid["half_extent"] = args.half_extent
    if args.waist is not None:
        grid["waist"] = args.waist
    state = merged["state"]
    if args.state is not None:
        state["file"] = args.state
    if args.ell_a is not None:
        state["ell_a"] = _parse_numbers(args.ell_a, int)
    if args.q is not None:
        state["q"] = args.q
    if args.tuning is not None:
        state["tuning"] = args.tuning
    if args.ladder is not None:
        state["ladder"] = _parse_numbers(args.ladder, int)
    if args.extract is not None:
        state["extract"] = args.extract
    sweep = merged["sweep"]
    if args.theta is not None:
        sweep["theta"] = _parse_numbers(args.theta)
    if args.alpha is not None:
        sweep["alpha"] = _parse_numbers(args.alpha)
    if args.theta_fixed is not None:
        sweep["theta_fixed"] = args.theta_fixed
    if args.alpha_fixed is not None:
        sweep["alpha_fixed"] = args.alpha_fixed
    analysis = merged["analysis"]
    if args.floor is not None:
        analysis["intensity_floor"] = args.floor
    if args.central_radius is not None:
        analysis["central_radius"] = args.central_radius
    tomo = merged["tomography"]
    if args.total_per_setting is not None:
        tomo["total_per_setting"] = args.total_per_setting
    if args.noiseless:
        tomo["noiseless"] = True
    if args.witnesses_only:
        tomo["witnesses_only"] = True
    if args.target is not None:
        tomo["target_file"] = args.target
    bell = merged["bell"]
    if args.pol_b is not None:
        bell["pol_b"] = args.pol_b
    if args.pair is not None:
        bell["pair"] = _parse_numbers(args.pair, int)
    if args.werner_p is not None:
        bell["werner_p"] = args.werner_p


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Parse, merge, and fully validate the configuration for one command."""
    merged = _merge(_load_config_file(args.config))
    _apply_flag_overrides(merged, args)

    out_dir = merged["output_dir"] or os.environ.get(OUTPUT_DIR_ENV) or "qskyrm-out"

    try:
        g = merged["grid"]
        grid = GridSpec(int(g["n"]), int(g["n"]), float(g["half_extent"]), float(g["waist"]))

        s = merged["state"]
        ell_a = _parse_projection(s["ell_a"])
        q = float(s["q"])
        tuning = float(s["tuning"])
        QPlateParams(q, tuning)  # range validation
        ladder = s["ladder"]
        if ladder is not None:
            ladder = [int(l) for l in ladder]
            if len(ladder) != 3 or len(set(ladder)) != 3:
                raise ConfigError(f"state.ladder needs 3 distinct charges, got {ladder}")
        extract = s["extract"]
        if extract not in ("none", "ghz", "reference"):
            raise ConfigError(f"state.extract must be none|ghz|reference, got {extract!r}")

        sw = merged["sweep"]
        two_pi = 2.0 * math.pi
        theta = None if sw["theta"] is None else [_snap_angle(float(t), math.pi) for t in sw["theta"]]
        alpha = None if sw["alpha"] is None else [_snap_angle(float(a), two_pi) for a in sw["alpha"]]
        theta_fixed = None if sw["theta_fixed"] is None else _snap_angle(float(sw["theta_fixed"]), math.pi)
        alpha_fixed = None if sw["alpha_fixed"] is None else _snap_angle(float(sw["alpha_fixed"]), two_pi)
        for t in (theta or []):
            ProjectionAngles(t, 0.0)
        for a in (alpha or []):
            ProjectionAngles(0.0, a)
        if theta_fixed is not None or alpha_fixed is not None:
            ProjectionAngles(
                0.5 * math.pi if theta_fixed is None else theta_fixed,
                0.0 if alpha_fixed is None else alpha_fixed,
            )

        an = merged["analysis"]
        floor = float(an["intensity_floor"])
        if not 0.0 < floor <= 1.0:
            raise ConfigError(f"analysis.intensity_floor must lie in (0, 1], got {floor}")
        central_radius = (
            None if an["central_radius"] is None else float(an["central_radius"])
        )
        if central_radius is not None and central_radius <= 0.0:
            raise ConfigError("analysis.central_radius must be positive")

        tm = merged["tomography"]
        total = tm["total_per_setting"]
        total = None if total is None else int(total)
        if total is not None and total < 1:
            raise ConfigError("tomography.total_per_setting must be >= 1")

        bl = merged["bell"]
        pol_b = str(bl["pol_b"])
        pair = bl["pair"]
        if pair is not None:
            pair = tuple(int(l) for l in pair)
        werner_p = None if bl["werner_p"] is None else float(bl["werner_p"])
        if pair is not None or werner_p is not None:
            BellSubspace(pol_b, pair if pair is not None else (0, -2))
        if werner_p is not None and not 0.0 <= werner_p <= 1.0:
            raise ConfigError(f"bell.werner_p must lie in [0, 1], got {werner_p}")

        if args.command == "dynamics":
            if (theta is None) == (alpha is None):
                raise ConfigError("dynamics needs exactly one of sweep.theta, sweep.alpha")
            varying = theta if theta is not None else alpha
            if len(varying) < 5:
                raise ConfigError(f"dynamics sweep needs at least 5 samples, got {len(varying)}")
    except (ValueError, TypeError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    semantic = {k: v for k, v in merged.items() if k != "output_dir"}
    semantic["command"] = args.command
    return RunConfig(
        command=args.command,
        out_dir=out_dir,
        seed=int(merged["seed"]),
        grid=grid,
        intensity_floor=floor,
        central_radius=central_radius,
        state_file=s["file"],
        ell_a=ell_a,
        q=q,
        tuning=tuning,
        ladder=ladder,
        extract=extract,
        theta=theta,
        alpha=alpha,
        theta_fixed=theta_fixed,
        alpha_fixed=alpha_fixed,
        total_per_setting=total,
        noiseless=bool(tm["noiseless"]),
        witnesses_only=bool(tm["witnesses_only"]),
        target_file=tm["target_file"],
        pol_b=pol_b,
        pair=pair,
        werner_p=werner_p,
        semantic=semantic,
    )


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
    smap = sphere_sweep(
        state,
        cfg.theta if cfg.theta is not None else DEFAULT_THETA_SAMPLES,
        cfg.alpha if cfg.alpha is not None else DEFAULT_ALPHA_SAMPLES,
        cfg.grid,
        cfg.intensity_floor,
    )
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


def cmd_skyrmion_number(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    angles = cfg.fixed_angles()
    unit = normalize_stokes(
        conditional_stokes(state, angles, cfg.grid), cfg.intensity_floor
    )
    n = skyrmion_number(skyrmion_density(unit))
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
    unit = normalize_stokes(
        conditional_stokes(state, angles, cfg.grid), cfg.intensity_floor
    )
    report = locate_quasiparticles(skyrmion_density(unit), cfg.central_radius)
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
    if cfg.theta is not None:
        alpha = 0.0 if cfg.alpha_fixed is None else cfg.alpha_fixed
        return [ProjectionAngles(t, alpha) for t in cfg.theta]
    theta = 0.5 * math.pi if cfg.theta_fixed is None else cfg.theta_fixed
    return [ProjectionAngles(theta, a) for a in cfg.alpha]


def cmd_dynamics(cfg: RunConfig) -> None:
    state = _resolve_state(cfg)
    sweep = _sweep_angles(cfg)
    trace = track_dynamics(state, sweep, cfg.grid, cfg.central_radius, cfg.intensity_floor)
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
    for i, angles in enumerate(sweep):
        unit = normalize_stokes(
            conditional_stokes(state, angles, cfg.grid), cfg.intensity_floor
        )
        density = skyrmion_density(unit)
        write_pgm(_out(cfg, f"frame_{i:03d}_sigma.pgm"), density.sigma)
        write_pgm(_out(cfg, f"frame_{i:03d}_psi.pgm"), orientation_psi(unit))
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
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="seed for anything stochastic")
    common.add_argument("--grid-n", type=int, help="grid cells per side")
    common.add_argument("--half-extent", type=float, help="half window size (waist units)")
    common.add_argument("--waist", type=float, help="mode waist")
    common.add_argument("--floor", type=float, help="relative intensity floor")
    common.add_argument("--state", help="input state file (overrides built state)")
    common.add_argument("--ell-a", help="comma-separated arm-A projection charges")
    common.add_argument("--q", type=float, help="plate charge q (2q integer)")
    common.add_argument("--tuning", type=float, help="plate tuning in [0, 1]")
    common.add_argument("--ladder", help="explicit l1,l2,l3 balanced-state charges")
    common.add_argument(
        "--extract", choices=("none", "ghz", "reference"), help="post-build filter"
    )
    common.add_argument("--theta", help="comma-separated polar heralding angles")
    common.add_argument("--alpha", help="comma-separated azimuthal heralding angles")
    common.add_argument("--theta-fixed", type=float, help="fixed polar angle")
    common.add_argument("--alpha-fixed", type=float, help="fixed azimuthal angle")
    common.add_argument("--central-radius", type=float, help="central-region radius")
    common.add_argument("--total-per-setting", type=int, help="mean counts per setting")
    common.add_argument("--noiseless", action="store_true", help="skip count noise")
    common.add_argument(
        "--witnesses-only", action="store_true", help="only evaluate witnesses on --state"
    )
    common.add_argument("--target", help="target state file for fidelity")
    common.add_argument("--pol-b", choices=("R", "L"), help="photon-B polarization sector")
    common.add_argument("--pair", help="comma-separated OAM pair for the Bell subspace")
    common.add_argument("--werner-p", type=float, help="Werner mixing weight")

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
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
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
