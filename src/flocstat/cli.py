"""Command-line interface: run, sweep, eigen, steady, check.

The CLI reads INI run configurations (or named presets shipped with the
package), drives the solvers, and writes deterministic CSV outputs.

Exit codes
----------
0   success
2   configuration error (every violated key is listed on stderr), or a
    run whose inputs the solver rejects before its first step
3   solver non-convergence (steady-state iteration), or a grid too coarse
    for the eigen solver (for the steady hypothesis reports, also one on
    which an eigenfunction underflows to zero)
4   the simulation verdict was blow-up

INI schema
----------
``[model]``     d0, du, dv, yu, yv, gamma_s  (required); m, gamma_u, gamma_v
``[kinetics]``  f, g, alpha, beta            (required; descriptor strings)
``[initial]``   S, u, v                      (required; constant or samples)
``[controls]``  t_end (required; finite and positive); grid_n (at least 16,
                default 201)
``[sweep]``     parameter (one of d0/du/dv/yu/yv/gamma_s), values

For ``m`` species the per-species entries (du, dv, yu, yv, gamma_u, gamma_v)
are space- or comma-separated lists of ``m`` floats, kinetics descriptors are
separated by ``;``, and the initial attached/isolated profiles are
``;``-separated per species.  Growth descriptors: ``monod a b``, ``haldane a b c``, ``zero``.
Exchange-rate descriptors: ``constant c``, ``linear_total c``,
``attached_times_total``, ``one_plus_attached_times_total``,
``power_total c l``.

Initial values: a single float means a constant profile; two or more floats
are samples at evenly spaced abscissae on [0, 1], interpolated linearly onto
the simulation grid.  Every sample must be finite and nonnegative.

The solver settings are the defaults of :func:`flocstat.pde.simulate` and
:func:`flocstat.steady.fixed_point_solve`; a run writes monitors.csv and
snapshots at 11 equispaced times.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .diagnostics import reproductive_numbers
from .eigen import lambda_bracket, solve_principal
from .model import (
    AttachedTimesTotalRate,
    ConstantRate,
    FlocRate,
    GrowthLaw,
    Haldane,
    KineticsSpec,
    LinearTotalRate,
    ModelParams,
    Monod,
    OnePlusAttachedTimesTotalRate,
    PowerTotalRate,
    ZeroGrowth,
    check_structural_conditions,
)
from .pde import Grid, SimulationResult, StateField, classify_outcome, monitor_keys, simulate
from .steady import (
    check_coexistence_hypotheses,
    check_extinction_hypotheses,
    fixed_point_solve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BLOW_UP = 4

PRESET_ALIASES = {
    "fig1": "fig1a",
    "fig2": "fig2a",
    "fig3": "fig3a",
    "fig6": "fig6p",
}

_SWEEPABLE = ("d0", "du", "dv", "yu", "yv", "gamma_s")


class ConfigError(Exception):
    """Raised by :func:`parse_config`; carries every detected violation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


# --------------------------------------------------------------------------
# descriptor parsing
# --------------------------------------------------------------------------


def _parse_growth(text: str) -> GrowthLaw:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty growth descriptor")
    kind, args = tokens[0].lower(), tokens[1:]
    if kind == "monod":
        if len(args) != 2:
            raise ValueError("monod takes 2 arguments: monod <a> <b>")
        return Monod(float(args[0]), float(args[1]))
    if kind == "haldane":
        if len(args) != 3:
            raise ValueError("haldane takes 3 arguments: haldane <a> <b> <c>")
        return Haldane(float(args[0]), float(args[1]), float(args[2]))
    if kind == "zero":
        if args:
            raise ValueError("zero takes no arguments")
        return ZeroGrowth()
    raise ValueError(
        f"unknown growth law {tokens[0]!r} (expected monod, haldane, or zero)"
    )


def _parse_rate(text: str) -> FlocRate:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty rate descriptor")
    kind, args = tokens[0].lower(), tokens[1:]
    if kind == "constant":
        if len(args) != 1:
            raise ValueError("constant takes 1 argument: constant <c>")
        return ConstantRate(float(args[0]))
    if kind == "linear_total":
        if len(args) != 1:
            raise ValueError("linear_total takes 1 argument: linear_total <c>")
        return LinearTotalRate(float(args[0]))
    if kind == "attached_times_total":
        if args:
            raise ValueError("attached_times_total takes no arguments")
        return AttachedTimesTotalRate()
    if kind == "one_plus_attached_times_total":
        if args:
            raise ValueError("one_plus_attached_times_total takes no arguments")
        return OnePlusAttachedTimesTotalRate()
    if kind == "power_total":
        if len(args) != 2:
            raise ValueError("power_total takes 2 arguments: power_total <c> <l>")
        return PowerTotalRate(float(args[0]), int(args[1]))
    raise ValueError(
        f"unknown rate law {tokens[0]!r} (expected constant, linear_total, "
        "attached_times_total, one_plus_attached_times_total, or power_total)"
    )


def _parse_floats(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise ValueError("no numeric values given")
    return values


Profile = tuple[float, ...]


# --------------------------------------------------------------------------
# run configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Controls:
    """Horizon and grid of a run."""

    t_end: float
    grid_n: int = 201


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter (m = 1 only) and its values."""

    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description (deterministic: carries no seed)."""

    params: ModelParams
    kin: KineticsSpec
    initial_S: Profile
    initial_u: tuple[Profile, ...]
    initial_v: tuple[Profile, ...]
    controls: Controls
    sweep: Optional[SweepAxis] = None


_REQUIRED_KEYS = {
    "model": ("d0", "du", "dv", "yu", "yv", "gamma_s"),
    "kinetics": ("f", "g", "alpha", "beta"),
    "initial": ("S", "u", "v"),
    "controls": ("t_end",),
}

_KNOWN_KEYS = {
    "model": {"m", "d0", "du", "dv", "yu", "yv", "gamma_s", "gamma_u", "gamma_v"},
    "kinetics": {"f", "g", "alpha", "beta"},
    "initial": {"S", "u", "v"},
    "controls": {"t_end", "grid_n"},
    "sweep": {"parameter", "values"},
}


def _horizon_problem(t_end: float) -> Optional[str]:
    """Why ``t_end`` cannot be a run's horizon, or None if it can."""
    if not math.isfinite(t_end):
        return "must be finite"
    if not t_end > 0:
        return "must be positive"
    return None


def _collect(
    problems: list[str],
    section: str,
    key: str,
    parser: Callable[[str], object],
    raw: Optional[str],
):
    """Parse one value, recording (not raising) any violation."""
    if raw is None:
        return None
    try:
        return parser(raw)
    except (ValueError, OverflowError) as exc:
        problems.append(f"[{section}] {key}: {exc}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse an INI document into a :class:`RunConfig`.

    Collects *every* violation (unknown sections/keys, missing required keys,
    malformed values, inconsistent species counts) and raises a single
    :class:`ConfigError` listing them all; an empty document therefore names
    every required key.
    """
    problems: list[str] = []
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep key case (S vs s)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax: {exc}"]) from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                problems.append(f"[{section}] unknown key {key!r}")
    for section, keys in _REQUIRED_KEYS.items():
        for key in keys:
            if not cp.has_option(section, key):
                problems.append(f"[{section}] missing required key {key!r}")

    def raw(section: str, key: str) -> Optional[str]:
        return cp.get(section, key) if cp.has_option(section, key) else None

    # ---- [model] -------------------------------------------------------
    m = _collect(problems, "model", "m", int, raw("model", "m"))
    if m is None:
        m = 1
    elif m < 1:
        problems.append("[model] m: must be a positive integer")
        m = 1

    def model_floats(key: str, per_species: bool) -> Optional[tuple[float, ...]]:
        text_value = raw("model", key)
        values = _collect(problems, "model", key, _parse_floats, text_value)
        if values is None:
            return None
        if per_species and len(values) not in (1, m):
            problems.append(
                f"[model] {key}: expected 1 or {m} values, got {len(values)}"
            )
            return None
        if not per_species and len(values) != 1:
            problems.append(f"[model] {key}: expected a single value")
            return None
        return values

    d0 = model_floats("d0", per_species=False)
    du = model_floats("du", per_species=True)
    dv = model_floats("dv", per_species=True)
    yu = model_floats("yu", per_species=True)
    yv = model_floats("yv", per_species=True)
    gamma_s = model_floats("gamma_s", per_species=False)
    gamma_u = model_floats("gamma_u", per_species=True) if raw("model", "gamma_u") else (0.0,)
    gamma_v = model_floats("gamma_v", per_species=True) if raw("model", "gamma_v") else (0.0,)

    params: Optional[ModelParams] = None
    if None not in (d0, du, dv, yu, yv, gamma_s, gamma_u, gamma_v):
        try:
            params = ModelParams(
                m=m,
                d0=d0[0],
                du=du if len(du) == m else du * m,
                dv=dv if len(dv) == m else dv * m,
                yu=yu if len(yu) == m else yu * m,
                yv=yv if len(yv) == m else yv * m,
                gamma_s=gamma_s[0],
                gamma_u=gamma_u if len(gamma_u) == m else gamma_u * m,
                gamma_v=gamma_v if len(gamma_v) == m else gamma_v * m,
            )
        except (ValueError, TypeError) as exc:
            problems.append(f"[model] {exc}")

    # ---- [kinetics] ------------------------------------------------------
    def kinetics_list(key: str, parser: Callable[[str], object]) -> Optional[tuple]:
        text_value = raw("kinetics", key)
        if text_value is None:
            return None
        pieces = [p.strip() for p in text_value.split(";")]
        parsed = []
        for piece in pieces:
            item = _collect(problems, "kinetics", key, parser, piece)
            if item is None:
                return None
            parsed.append(item)
        if len(parsed) not in (1, m):
            problems.append(
                f"[kinetics] {key}: expected 1 or {m} descriptors, got {len(parsed)}"
            )
            return None
        return tuple(parsed) if len(parsed) == m else tuple(parsed) * m

    f_laws = kinetics_list("f", _parse_growth)
    g_laws = kinetics_list("g", _parse_growth)
    alpha = kinetics_list("alpha", _parse_rate)
    beta = kinetics_list("beta", _parse_rate)

    kin: Optional[KineticsSpec] = None
    if None not in (f_laws, g_laws, alpha, beta):
        try:
            kin = KineticsSpec(f=f_laws, g=g_laws, alpha=alpha, beta=beta)
        except (ValueError, TypeError) as exc:
            problems.append(f"[kinetics] {exc}")

    # ---- [initial] -------------------------------------------------------
    def initial_profiles(key: str, per_species: bool) -> Optional[tuple[Profile, ...]]:
        text_value = raw("initial", key)
        if text_value is None:
            return None
        pieces = [p.strip() for p in text_value.split(";")] if per_species else [text_value]
        profiles = []
        for piece in pieces:
            values = _collect(problems, "initial", key, _parse_floats, piece)
            if values is None:
                return None
            if not all(map(math.isfinite, values)):
                problems.append(f"[initial] {key}: values must be finite")
                return None
            if any(val < 0 for val in values):
                problems.append(f"[initial] {key}: values must be nonnegative")
                return None
            profiles.append(values)
        if per_species and len(profiles) not in (1, m):
            problems.append(
                f"[initial] {key}: expected 1 or {m} profiles, got {len(profiles)}"
            )
            return None
        if per_species and len(profiles) == 1:
            profiles = profiles * m
        return tuple(profiles)

    initial_S = initial_profiles("S", per_species=False)
    initial_u = initial_profiles("u", per_species=True)
    initial_v = initial_profiles("v", per_species=True)

    # ---- [controls] ------------------------------------------------------
    t_end = _collect(problems, "controls", "t_end", float, raw("controls", "t_end"))
    if t_end is not None and (problem := _horizon_problem(t_end)):
        problems.append(f"[controls] t_end: {problem}")
        t_end = None
    grid_n = _collect(problems, "controls", "grid_n", int, raw("controls", "grid_n"))
    if grid_n is not None and grid_n < 16:
        problems.append("[controls] grid_n: must be at least 16")
        grid_n = None

    # ---- [sweep] ---------------------------------------------------------
    sweep: Optional[SweepAxis] = None
    if cp.has_section("sweep"):
        parameter = raw("sweep", "parameter")
        values_text = raw("sweep", "values")
        if parameter is None:
            problems.append("[sweep] missing required key 'parameter'")
        elif parameter not in _SWEEPABLE:
            problems.append(
                f"[sweep] parameter: {parameter!r} is not sweepable "
                f"(choose one of {', '.join(_SWEEPABLE)})"
            )
            parameter = None
        if values_text is None:
            problems.append("[sweep] missing required key 'values'")
        values = _collect(problems, "sweep", "values", _parse_floats, values_text)
        if parameter is not None and values is not None:
            if m != 1:
                problems.append("[sweep] sweeps support single-species runs only")
            else:
                sweep = SweepAxis(parameter=parameter, values=values)

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        params=params,
        kin=kin,
        initial_S=initial_S,
        initial_u=initial_u,
        initial_v=initial_v,
        controls=Controls(t_end) if grid_n is None else Controls(t_end, grid_n),
        sweep=sweep,
    )


def load_config(path: Union[str, Path]) -> RunConfig:
    """Read and parse an INI run configuration from ``path``."""
    return parse_config(Path(path).read_text())


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------


def _presets_dir() -> Path:
    return Path(__file__).resolve().parent / "presets"


def available_presets() -> tuple[str, ...]:
    """Names of all shipped presets (aliases excluded)."""
    return tuple(sorted(p.stem for p in _presets_dir().glob("*.ini")))


def preset_text(name: str) -> str:
    """Raw INI text of the named preset (aliases resolved)."""
    resolved = PRESET_ALIASES.get(name, name)
    path = _presets_dir() / f"{resolved}.ini"
    if not path.is_file():
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return path.read_text()


def load_preset(name: str) -> RunConfig:
    """Parse the named preset into a :class:`RunConfig`."""
    return parse_config(preset_text(name))


# --------------------------------------------------------------------------
# initial data and CSV writers
# --------------------------------------------------------------------------


def _profile_on_grid(profile: Profile, grid: Grid) -> np.ndarray:
    if len(profile) == 1:
        return np.full(grid.n, profile[0])
    abscissae = np.linspace(0.0, 1.0, len(profile))
    return np.interp(grid.x, abscissae, np.asarray(profile, dtype=float))


def build_initial_state(config: RunConfig, grid: Grid) -> StateField:
    """Materialize the configured initial data on ``grid``."""
    S = _profile_on_grid(config.initial_S, grid)
    u = np.stack([_profile_on_grid(p, grid) for p in config.initial_u])
    v = np.stack([_profile_on_grid(p, grid) for p in config.initial_v])
    return StateField(grid=grid, S=S, u=u, v=v)


def _fmt(value: float) -> str:
    return repr(float(value))


def monitor_columns(m: int) -> list[str]:
    """The columns of monitors.csv: simulate's monitors without ``clamp``."""
    return [key for key in monitor_keys(m) if key != "clamp"]


def write_monitors_csv(path: Path, result: SimulationResult) -> None:
    """Write the per-step monitor table (fixed column set, repr floats)."""
    cols = monitor_columns(result.initial.m)
    _write_float_table(path, cols, [result.monitors[c] for c in cols])


def write_snapshot_csv(path: Path, state: StateField) -> None:
    header = ["x", "S"]
    columns = [state.grid.x, state.S]
    for i in range(state.m):
        header += [f"u_{i + 1}", f"v_{i + 1}"]
        columns += [state.u[i], state.v[i]]
    _write_float_table(path, header, columns)


def _write_float_table(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length float columns as CSV, each cell formatted by _fmt.

    ``tolist`` turns a column into Python floats once; their ``repr`` is the
    text _fmt gives, without converting each numpy scalar on its own.
    """
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in zip(*(col.tolist() for col in columns)):
            handle.write(",".join(map(repr, row)) + "\n")


def write_outputs(out_dir: Path, config: RunConfig, result: SimulationResult) -> None:
    """Write monitors.csv and snapshot_<k>.csv under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_monitors_csv(out_dir / "monitors.csv", result)
    for k, snap in enumerate(result.snapshots):
        write_snapshot_csv(out_dir / f"snapshot_{k}.csv", snap)


# --------------------------------------------------------------------------
# experiment drivers
# --------------------------------------------------------------------------


def _simulate_config(config: RunConfig) -> SimulationResult:
    initial = build_initial_state(config, Grid(config.controls.grid_n))
    return simulate(initial, config.params, config.kin, t_end=config.controls.t_end)


def run_experiment(
    config: RunConfig, out_dir: Union[str, Path]
) -> tuple[SimulationResult, str]:
    """Simulate ``config``, write CSVs into ``out_dir``, return (result, verdict)."""
    result = _simulate_config(config)
    outcome = classify_outcome(result)
    write_outputs(Path(out_dir), config, result)
    return result, outcome.label


def _apply_sweep_value(params: ModelParams, parameter: str, value: float) -> ModelParams:
    if parameter in ("d0", "gamma_s"):
        return replace(params, **{parameter: value})
    return replace(params, **{parameter: (value,)})


SUMMARY_COLUMNS = [
    "parameter",
    "value",
    "verdict",
    "t_final",
    "sup_S",
    "sup_u_1",
    "sup_v_1",
    "l1_S",
    "l1_u_1",
    "l1_v_1",
    "R_u",
    "R_v",
    "error",
]


def _sweep_point(
    config: RunConfig, axis: SweepAxis, value: float, out_dir: Path, index: int
) -> dict[str, str]:
    """Run one sweep point; never raises (failures land in the row)."""
    row = dict.fromkeys(SUMMARY_COLUMNS, "")
    row["parameter"] = axis.parameter
    row["value"] = _fmt(value)
    try:
        params = _apply_sweep_value(config.params, axis.parameter, value)
        point = replace(config, params=params, sweep=None)
        point_dir = out_dir / f"point_{index:03d}"
        result, verdict = run_experiment(point, point_dir)
        final = result.final
        grid = final.grid
        row["verdict"] = verdict
        row["t_final"] = _fmt(result.verdict.t_final)
        row["sup_S"] = _fmt(float(np.max(final.S)))
        row["sup_u_1"] = _fmt(float(np.max(final.u[0])))
        row["sup_v_1"] = _fmt(float(np.max(final.v[0])))
        row["l1_S"] = _fmt(grid.integrate(final.S))
        row["l1_u_1"] = _fmt(grid.integrate(final.u[0]))
        row["l1_v_1"] = _fmt(grid.integrate(final.v[0]))
        repro = reproductive_numbers(params, point.kin, grid_n=point.controls.grid_n)
        row["R_u"] = _fmt(repro.R_u)
        row["R_v"] = _fmt(repro.R_v)
    except Exception as exc:  # noqa: BLE001 - per-point failures are data
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep(config: RunConfig, out_dir: Union[str, Path]) -> list[dict[str, str]]:
    """Run the sweep points one after another, in sweep order, and write
    summary.csv with one row per point.

    Each point writes its CSVs to its own ``point_NNN`` directory.  A failed
    point contributes a row with its error message instead of aborting the
    sweep.
    """
    if config.sweep is None:
        raise ConfigError(["configuration has no [sweep] section"])
    axis = config.sweep
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    rows = [
        _sweep_point(config, axis, value, out_path, i)
        for i, value in enumerate(axis.values)
    ]
    with (out_path / "summary.csv").open("w", newline="") as handle:
        # quotes only fields that need it, such as error messages with commas
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows([row[c] for c in SUMMARY_COLUMNS] for row in rows)
    return rows


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _load_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError(["give either --config or --preset, not both"])
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError([f"config file not found: {path}"])
        config = load_config(path)
    elif args.preset is not None:
        try:
            config = load_preset(args.preset)
        except KeyError as exc:
            raise ConfigError([str(exc.args[0])]) from exc
    else:
        raise ConfigError(["one of --config or --preset is required"])
    controls = config.controls
    if getattr(args, "grid_n", None) is not None:
        if args.grid_n < 16:
            raise ConfigError(["--grid-n must be at least 16"])
        controls = replace(controls, grid_n=args.grid_n)
    if getattr(args, "t_end", None) is not None:
        if problem := _horizon_problem(args.t_end):
            raise ConfigError([f"--t-end {problem}"])
        controls = replace(controls, t_end=args.t_end)
    return replace(config, controls=controls)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    try:
        result, verdict = run_experiment(config, args.out)
    except ValueError as exc:
        print(f"run rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    line = f"verdict: {verdict}"
    if result.verdict.kind == "blow_up":
        line += f" (detected at t={result.verdict.t_final:.6g}, {result.verdict.reason})"
    print(line)
    print(f"outputs written to {Path(args.out).resolve()}")
    return EXIT_BLOW_UP if result.verdict.kind == "blow_up" else EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    rows = sweep(config, args.out)
    failures = sum(1 for row in rows if row["error"])
    print(
        f"sweep over {config.sweep.parameter}: {len(rows)} points, "
        f"{failures} failed; summary at {Path(args.out).resolve() / 'summary.csv'}"
    )
    for row in rows:
        tag = row["verdict"] if not row["error"] else f"ERROR ({row['error']})"
        print(f"  {config.sweep.parameter}={row['value']}: {tag}")
    return EXIT_OK


def _cmd_eigen(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    params = config.params
    n = config.controls.grid_n
    entries = [("d0", params.d0)]
    for i, d in enumerate(params.du, start=1):
        entries.append((f"du_{i}", d))
    for i, d in enumerate(params.dv, start=1):
        entries.append((f"dv_{i}", d))
    for label, d in entries:
        try:
            pair = solve_principal(d, n=n)
        except ValueError as exc:
            print(f"{label}: d={d:g}: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        bracket = lambda_bracket(d)
        kind = "enclosure" if bracket.enclosure else "tail bound"
        # the bracket encloses the exact eigenvalue, so a grid value
        # outside it shows the grid's discretization error
        flag = "" if bracket.lower < pair.value < bracket.upper else " OUTSIDE-BRACKET"
        print(
            f"{label}: d={d:g} lambda={pair.value!r} "
            f"bracket=({bracket.lower!r}, {bracket.upper!r}) [{kind}]{flag}"
        )
    return EXIT_OK


def _cmd_steady(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    params, kin = config.params, config.kin
    grid_n = config.controls.grid_n
    grid = Grid(grid_n)
    initial = build_initial_state(config, grid)
    depletion = np.clip(1.0 - initial.S, 0.0, None)
    try:
        state = fixed_point_solve((depletion, initial.u[0], initial.v[0]), params, kin)
    except ValueError as exc:
        print(f"steady solve rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if np.isnan(state.residual):
        print(f"steady solve stopped: {state.reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "steady.csv"
    _write_float_table(
        path,
        ["x", "depletion", "S", "u", "v"],
        [grid.x, state.Stilde, state.substrate, state.u, state.v],
    )
    print(
        f"fixed point: converged={state.converged} iterations={state.iterations} "
        f"residual={state.residual:.3e} pde_residual={state.pde_residual:.3e}"
    )
    print(f"profile written to {path.resolve()}")
    try:
        extinction = [
            check_extinction_hypotheses(params, kin, which, grid_n=grid_n)
            for which in ("attached", "isolated")
        ]
        coex = check_coexistence_hypotheses(params, kin, grid_n=grid_n)
    except ValueError as exc:
        print(f"hypothesis reports: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    for report in extinction:
        print(
            f"extinction[{report.which}]: all_satisfied={report.all_satisfied} "
            f"window_nonempty={report.window_nonempty} "
            f"eigenvalue={report.eigenvalue:.6f} "
            f"attenuation={report.kernel_attenuation:.6f}"
        )
        for clause in report.clauses:
            print(f"  - {clause.name}: satisfied={clause.satisfied} margin={clause.margin:+.4e}")
    print(
        f"coexistence: feasible={coex.feasible} feasible_points={coex.feasible_count} "
        f"binding={coex.binding_clause} theta={coex.theta:.4e} rho={coex.rho:.4e}"
    )
    for clause in coex.clauses:
        print(f"  - {clause.name}: satisfied={clause.satisfied} margin={clause.margin:+.4e}")
    if not state.converged:
        print(f"steady solve stopped: {state.reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    params, kin = config.params, config.kin
    report = check_structural_conditions(params, kin)
    print(f"quasipositive: {report.quasipositive}")
    print(
        f"mass_control: {report.mass_control} "
        f"(weights={report.mass_weights}, K1={report.mass_K1:g}, K2={report.mass_K2:g})"
    )
    print(
        f"rate_growth_bound: {report.rate_growth_bound} "
        f"(degree={report.rate_growth_l}, h={report.rate_growth_h:g})"
    )
    branches = ", ".join(
        f"species {i + 1}: {branch or 'none'} (K={K:g}, r={r:g})"
        for i, (branch, K, r) in enumerate(report.balance_branches)
    )
    print(f"one_sided_balance: {report.one_sided_balance} ({branches})")
    print(
        f"exchange_floor: {report.exchange_floor} "
        f"(delta={report.exchange_delta:g}, yield products: {report.yuyv_class})"
    )
    for name, verdict, witness in (
        ("quasipositive", report.quasipositive, report.qp_witness),
        ("mass_control", report.mass_control, report.mass_witness),
        ("one_sided_balance", report.one_sided_balance, report.balance_witness),
        ("exchange_floor", report.exchange_floor, report.exchange_witness),
    ):
        if verdict == "violated" and witness is not None:
            point = ", ".join(f"{float(w):g}" for w in witness)
            print(f"  witness[{name}]: ({point})")
    if params.m == 1:
        try:
            repro = reproductive_numbers(params, kin, grid_n=config.controls.grid_n)
        except ValueError as exc:
            print(f"reproductive numbers: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        print(
            f"reproductive numbers: R_u={repro.R_u:.6f} R_v={repro.R_v:.6f} "
            f"({repro.classification})"
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, presets: str) -> None:
    parser.add_argument("--config", help="path to an INI run configuration")
    parser.add_argument("--preset", help="name of a shipped preset: " + presets)
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--grid-n", type=int, dest="grid_n", help="override grid size")
    parser.add_argument("--t-end", type=float, dest="t_end", help="override end time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocstat",
        description=(
            "Numerical laboratory for a chemostat with attached/isolated "
            "bacterial phases: simulation, eigenvalue, steady-state, and "
            "structural-condition tools."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = ", ".join(available_presets())
    specs = [
        ("run", "simulate one configuration and write CSV outputs", _cmd_run),
        ("sweep", "run a one-parameter family and write summary.csv", _cmd_sweep),
        ("eigen", "principal washout eigenvalues with analytic brackets", _cmd_eigen),
        ("steady", "steady-state fixed point and hypothesis reports", _cmd_steady),
        ("check", "structural-condition report and reproductive numbers", _cmd_check),
    ]
    for name, help_text, handler in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, presets)
        sp.set_defaults(handler=handler)
        if name == "sweep":
            # points run in one thread; the flag is accepted and ignored so
            # that existing `sweep --threads K` command lines keep working
            sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
