"""Command-line interface: run, sweep, eigen, steady, check.

The CLI reads INI run configurations (or named presets shipped with the
package), drives the solvers, and writes deterministic CSV outputs.

Exit codes
----------
0   success
2   configuration error (every violated key is listed on stderr), a run
    whose inputs the solver rejects before its first step, or an output
    directory or file that cannot be created or written
3   solver non-convergence (the steady-state iteration, or a run stalled
    by its step budget ``flocstat.pde.MAX_STEPS``), a steady root that is
    linearly unstable, or a grid too coarse for the eigen solver (for the
    steady hypothesis reports, also one on which an eigenfunction
    underflows to zero)
4   the simulation verdict was blow-up
141 stdout was closed by its reader before the verb, or ``--help``, finished
    printing (as ``| true`` does): files written before then are complete,
    the rest of the report and the verb's own exit code are lost.  141 is
    128 + SIGPIPE, the code a shell reports for a program that a closed pipe
    stops

INI schema
----------
``[model]``     m (species count, default 1); d0, gamma_s (required; one value
                each); du, dv, yu, yv (required; 1 or m values each);
                gamma_u, gamma_v (1 or m values each, default 0)
``[kinetics]``  f, g (required; 1 or m growth descriptors each); alpha, beta
                (required; 1 or m rate descriptors each)
``[initial]``   S (required; one profile); u, v (required; 1 or m profiles
                each)
``[controls]``  t_end (required; finite and positive); grid_n (at least 16,
                default 201); ``--t-end`` and ``--grid-n`` override them,
                under the same checks
``[sweep]``     optional, single-species runs only: parameter (required; one
                of d0, du, dv, yu, yv, gamma_s) and values (required; one or
                more floats)

The table ``_SCHEMA`` below is this schema; :func:`parse_config` reads every
key through it.  Values are separated by spaces or commas; descriptors and
profiles by ``;``.  A key with 1 entry gives it to every species.
Growth descriptors: ``monod a b``, ``haldane a b c``, ``zero``.
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
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Sequence, Union

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
    component_labels,
)
from .operators import MIN_GRID_N
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
EXIT_STDOUT_CLOSED = 141

PRESET_ALIASES = {"fig1": "fig1a", "fig2": "fig2a", "fig3": "fig3a", "fig6": "fig6p"}


class ConfigError(Exception):
    """Raised by :func:`parse_config`; carries every detected violation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


# --------------------------------------------------------------------------
# descriptor parsing
# --------------------------------------------------------------------------


#: descriptor name -> law class; a class's fields are its arguments,
#: converted to int or float as annotated
_GROWTH_LAWS = {"monod": Monod, "haldane": Haldane, "zero": ZeroGrowth}
_RATE_LAWS = {
    "constant": ConstantRate,
    "linear_total": LinearTotalRate,
    "attached_times_total": AttachedTimesTotalRate,
    "one_plus_attached_times_total": OnePlusAttachedTimesTotalRate,
    "power_total": PowerTotalRate,
}


def _parse_law(text: str, laws: dict, kind: str) -> Union[GrowthLaw, FlocRate]:
    """The law a descriptor ``<name> <arg> ...`` names; ``kind`` ("growth"
    or "rate") names the table ``laws`` in messages."""
    tokens = text.split()
    if not tokens:
        raise ValueError(f"empty {kind} descriptor")
    name, args = tokens[0].lower(), tokens[1:]
    if name not in laws:
        *others, last = laws
        raise ValueError(
            f"unknown {kind} law {tokens[0]!r} (expected {', '.join(others)}, or {last})"
        )
    arguments = fields(laws[name])
    if len(args) != len(arguments):
        if not arguments:
            raise ValueError(f"{name} takes no arguments")
        usage = " ".join(f"<{f.name}>" for f in arguments)
        plural = "s" if len(arguments) > 1 else ""
        raise ValueError(f"{name} takes {len(arguments)} argument{plural}: {name} {usage}")
    return laws[name](*((int if f.type in (int, "int") else float)(arg)
                        for f, arg in zip(arguments, args)))


Profile = tuple[float, ...]


def _parse_floats(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise ValueError("no numeric values given")
    return values


def _parse_float(text: str) -> float:
    values = _parse_floats(text)
    if len(values) != 1:
        raise ValueError("expected a single value")
    return values[0]


def _parse_profile(text: str) -> Profile:
    """One float (a constant profile) or samples at evenly spaced abscissae."""
    values = _parse_floats(text)
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    if any(val < 0 for val in values):
        raise ValueError("values must be nonnegative")
    return values


def _per_species(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """A parser of ``;``-separated entries, each read by ``parse``."""
    return lambda text: tuple(parse(piece.strip()) for piece in text.split(";"))


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


def _species_problem(m: int) -> Optional[str]:
    return None if m >= 1 else "must be a positive integer"


def _horizon_problem(t_end: float) -> Optional[str]:
    """Why ``t_end`` cannot be a run's horizon, or None if it can."""
    if not math.isfinite(t_end):
        return "must be finite"
    if not t_end > 0:
        return "must be positive"
    return None


def _grid_problem(grid_n: int) -> Optional[str]:
    return None if grid_n >= MIN_GRID_N else f"must be at least {MIN_GRID_N}"


def _sweep_problem(parameter: str) -> Optional[str]:
    if parameter in _SWEEPABLE:
        return None
    return f"{parameter!r} is not sweepable (choose one of {', '.join(_SWEEPABLE)})"


@dataclass(frozen=True)
class _Key:
    """How :func:`parse_config` reads one INI key.

    ``parse`` turns the key's text into its value and raises ValueError on
    bad text; ``check`` says why a parsed value is out of range, or returns
    None.  A per-species key names its entries (``values``, ``descriptors``
    or ``profiles``) in ``entries``: it holds 1 of them, for every species,
    or m.
    """

    parse: Callable[[str], object]
    required: bool = False
    entries: Optional[str] = None
    check: Callable[[object], Optional[str]] = lambda value: None

    def read(self, text: str, m: int):
        """The value ``text`` gives for m species; raises ValueError."""
        value = self.parse(text)
        if problem := self.check(value):
            raise ValueError(problem)
        if self.entries is None:
            return value
        if len(value) not in (1, m):
            raise ValueError(f"expected 1 or {m} {self.entries}, got {len(value)}")
        return value * m if len(value) == 1 else value


#: the [model] key that sets the species count m of the per-species keys
_SPECIES = "m"

_FLOAT = _Key(_parse_float, required=True)
_VALUES = _Key(_parse_floats, required=True, entries="values")
_FEED = _Key(_parse_floats, entries="values")
_GROWTH = _Key(_per_species(partial(_parse_law, laws=_GROWTH_LAWS, kind="growth")),
               required=True, entries="descriptors")
_RATE = _Key(_per_species(partial(_parse_law, laws=_RATE_LAWS, kind="rate")),
             required=True, entries="descriptors")
_PROFILES = _Key(_per_species(_parse_profile), required=True, entries="profiles")

#: the INI schema: section -> key -> how it is read, in the order that
#: problems are reported.  A key left out takes the default of the field it
#: fills (ModelParams.gamma_u/gamma_v, Controls.grid_n; m is 1).
_SCHEMA: dict[str, dict[str, _Key]] = {
    "model": {
        _SPECIES: _Key(int, check=_species_problem),
        "d0": _FLOAT, "du": _VALUES, "dv": _VALUES, "yu": _VALUES, "yv": _VALUES,
        "gamma_s": _FLOAT, "gamma_u": _FEED, "gamma_v": _FEED,
    },
    "kinetics": {"f": _GROWTH, "g": _GROWTH, "alpha": _RATE, "beta": _RATE},
    "initial": {"S": _Key(_parse_profile, required=True), "u": _PROFILES, "v": _PROFILES},
    "controls": {
        "t_end": _Key(float, required=True, check=_horizon_problem),
        "grid_n": _Key(int, check=_grid_problem),
    },
    "sweep": {
        "parameter": _Key(str, required=True, check=_sweep_problem),
        "values": _Key(_parse_floats, required=True),
    },
}

#: the physical parameters: the required [model] keys
_SWEEPABLE = tuple(key for key, spec in _SCHEMA["model"].items() if spec.required)


def parse_config(text: str) -> RunConfig:
    """Parse an INI document into a :class:`RunConfig`.

    Collects *every* violation (unknown sections/keys, missing required keys,
    malformed values, inconsistent species counts) and raises a single
    :class:`ConfigError` listing them all; an empty document therefore names
    every required key.
    """
    problems: list[str] = []
    # no default section: [DEFAULT] is an unknown section like any other,
    # rather than keys merged into every section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keep key case (S vs s)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax: {exc}"]) from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        problems += [f"[{section}] unknown key {key!r}"
                     for key in cp[section] if key not in _SCHEMA[section]]
    # [sweep] may be left out; its missing keys are reported as it is read
    problems += [f"[{section}] missing required key {key!r}"
                 for section, keys in _SCHEMA.items() if section != "sweep"
                 for key, spec in keys.items() if spec.required and not cp.has_option(section, key)]

    m = 1

    def build(section: str, make: Callable[..., object], report_missing: bool = False):
        """``make`` called with the keys given in ``section``; None, with the
        problems recorded, if a key is missing or bad or ``make`` fails."""
        nonlocal m
        values, complete = {}, True
        for key, spec in _SCHEMA[section].items():
            if not cp.has_option(section, key):
                if spec.required and report_missing:
                    problems.append(f"[{section}] missing required key {key!r}")
                complete = complete and not spec.required
                continue
            try:
                value = spec.read(cp.get(section, key), m)
            except (ValueError, OverflowError) as exc:
                problems.append(f"[{section}] {key}: {exc}")
                value = None
            if key == _SPECIES:  # a bad count is reported; the others are read for m = 1
                m = value or 1
            elif value is None:
                complete = False
            else:
                values[key] = value
        if not complete:
            return None
        try:
            return make(**values)
        except (ValueError, TypeError) as exc:
            problems.append(f"[{section}] {exc}")
            return None

    def sweep_axis(**axis) -> SweepAxis:
        if m != 1:
            raise ValueError("sweeps support single-species runs only")
        return SweepAxis(**axis)

    params = build("model", lambda **model: ModelParams(m=m, **model))
    kin = build("kinetics", KineticsSpec)
    initial = build("initial", dict)
    controls = build("controls", Controls)
    sweep = build("sweep", sweep_axis, report_missing=True) if cp.has_section("sweep") else None
    if problems:
        raise ConfigError(problems)
    return RunConfig(params=params, kin=kin, controls=controls, sweep=sweep,
                     **{f"initial_{key}": profile for key, profile in initial.items()})


def load_config(path: Union[str, Path]) -> RunConfig:
    """Read and parse an INI run configuration from ``path``."""
    return parse_config(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _presets_dir() -> Path:
    """The shipped presets' directory, resolved once per process."""
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
    return path.read_text(encoding="utf-8")


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


def _write_float_table(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length float columns as CSV, each cell formatted by _fmt;
    ``tolist`` gives Python floats, whose ``repr`` is that text, a chunk at a time."""
    chunk = 256
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), chunk):
            for row in zip(*(col[i:i + chunk].tolist() for col in columns)):
                handle.write(",".join(map(repr, row)) + "\n")


def write_outputs(out_dir: Path, result: SimulationResult) -> None:
    """Write monitors.csv (``result.monitors`` in order) and snapshot_<k>.csv
    (``x`` and one column per component) under ``out_dir``, and remove
    every other file named snapshot_<k>.csv there, left by an earlier run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_float_table(out_dir / "monitors.csv", list(result.monitors),
                       list(result.monitors.values()))
    for k, snap in enumerate(result.snapshots):
        _write_float_table(out_dir / f"snapshot_{k}.csv", ["x", *component_labels(snap.m)],
                           [snap.grid.x, *snap.stack()])
    _remove_snapshots(out_dir, keep=len(result.snapshots))


def _remove_snapshots(out_dir: Path, keep: int) -> None:
    """Remove every file named snapshot_<k>.csv under ``out_dir`` with
    ``k >= keep``; ``k`` is written without leading zeros."""
    for path in out_dir.glob("snapshot_*.csv"):
        k = path.name[len("snapshot_"):-len(".csv")]
        if (k.isascii() and k.isdigit() and k == str(int(k))
                and int(k) >= keep and path.is_file()):
            path.unlink()


# --------------------------------------------------------------------------
# experiment drivers
# --------------------------------------------------------------------------


def _simulate_config(config: RunConfig) -> SimulationResult:
    initial = build_initial_state(config, Grid(config.controls.grid_n))
    return simulate(initial, config.params, config.kin, t_end=config.controls.t_end)


def run_experiment(
    config: RunConfig, out_dir: Union[str, Path]
) -> tuple[SimulationResult, str]:
    """Simulate ``config``, write CSVs into ``out_dir``, return (result, verdict).

    ``out_dir`` is created before the simulation starts, so that an output
    path that cannot be created fails before any stepping; a simulation
    that raises removes again every directory this call created.
    """
    out_path = Path(out_dir)
    # the directories mkdir creates, deepest first
    created = [path for path in (out_path, *out_path.parents) if not path.exists()]
    out_path.mkdir(parents=True, exist_ok=True)
    try:
        result = _simulate_config(config)
    except Exception:
        for path in created:
            path.rmdir()
        raise
    write_outputs(out_path, result)
    return result, classify_outcome(result)


def _apply_sweep_value(params: ModelParams, parameter: str, value: float) -> ModelParams:
    """``params`` with ``parameter = value``: a float for a single-value key,
    a 1-tuple for a per-species one."""
    per_species = _SCHEMA["model"][parameter].entries is not None
    return replace(params, **{parameter: (value,) if per_species else value})


#: the columns of summary.csv that copy the last monitor row of a point
_FINAL_MONITORS = tuple(key for key in monitor_keys(1) if key.startswith(("sup_", "l1_")))

SUMMARY_COLUMNS = ["parameter", "value", "verdict", "t_final", *_FINAL_MONITORS,
                   "R_u", "R_v", "error"]


def _point_row(axis: SweepAxis, value: float, error: str = "") -> dict[str, str]:
    """A summary row that names its point and ``error``, every other cell empty."""
    return {**dict.fromkeys(SUMMARY_COLUMNS, ""), "parameter": axis.parameter,
            "value": _fmt(value), "error": error}


def _sweep_point(config: RunConfig, out_dir: Path, index: int) -> dict[str, str]:
    """Run sweep point ``index``; never raises (failures land in the row)."""
    axis = config.sweep
    row = _point_row(axis, axis.values[index])
    try:
        params = _apply_sweep_value(config.params, axis.parameter, axis.values[index])
        point = replace(config, params=params, sweep=None)
        point_dir = out_dir / f"point_{index:03d}"
        result, verdict = run_experiment(point, point_dir)
        row["verdict"] = verdict
        row["t_final"] = _fmt(result.verdict.t_final)
        for key in _FINAL_MONITORS:
            row[key] = _fmt(result.monitors[key][-1])
        repro = reproductive_numbers(params, point.kin, grid_n=point.controls.grid_n)
        row["R_u"] = _fmt(repro.R_u)
        row["R_v"] = _fmt(repro.R_v)
    except Exception as exc:  # noqa: BLE001 - per-point failures are data
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _smallest_diffusivity(params: ModelParams, parameter: str, value: float) -> float:
    """The smallest diffusivity of the sweep point ``parameter = value``;
    -inf for a point whose parameters are invalid (it fails at once)."""
    try:
        point = _apply_sweep_value(params, parameter, value)
    except ValueError:
        return -math.inf
    return min(point.diffusivities)


def _clear_points(out_path: Path) -> None:
    """Remove what an earlier sweep left in each ``point_NNN`` directory of
    ``out_path``: its monitors.csv and snapshots, then the directory itself
    if that empties it.  Other files, and the directories holding them, stay."""
    for point in out_path.glob("point_*"):
        k = point.name[len("point_"):]
        if not (k.isascii() and k.isdigit() and point.name == f"point_{int(k):03d}"
                and point.is_dir()):
            continue
        monitors = point / "monitors.csv"
        if monitors.is_file():
            monitors.unlink()
        _remove_snapshots(point, keep=0)
        if not any(point.iterdir()):
            point.rmdir()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_point(config: RunConfig, out_path: Path, i: int) -> tuple[int, BinaryIO]:
    """Fork a process that runs sweep point ``i`` and pickles its row into a
    pipe; return its pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the point's process, which leaves only by os._exit
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(_sweep_point(config, out_path, i), pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    return pid, open(read_end, "rb")


def sweep(config: RunConfig, out_dir: Union[str, Path]) -> list[dict[str, str]]:
    """Run each point in its own forked process, at most one per usable CPU
    at a time, and write summary.csv with one row per point, in sweep order.

    Points start in ascending order of their smallest diffusivity, ties in
    sweep order: the smaller it is, the more steps a point tends to take.
    Each point writes its CSVs to its own ``point_NNN`` directory.  A failed
    point, or one whose process dies, gets a row with its error message.
    No point's process outlives this call, even when it raises.  Forked
    (POSIX only), a point starts with flocstat imported; the calling
    process should run no other threads.
    """
    if config.sweep is None:
        raise ConfigError(["configuration has no [sweep] section"])
    axis = config.sweep
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    _clear_points(out_path)
    workers = min(len(axis.values), _usable_cpus())
    pending = sorted(range(len(axis.values)), key=lambda i: _smallest_diffusivity(
        config.params, axis.parameter, axis.values[i]))
    rows: list = [None] * len(axis.values)
    running = {}  # read end of a running point's pipe -> (index, pid)
    try:
        while pending or running:
            while pending and len(running) < workers:
                pid, pipe = _start_point(config, out_path, i := pending.pop(0))
                running[pipe] = (i, pid)
            # a pipe is read to its end before its process is waited for: a
            # row larger than the pipe's buffer cannot block both
            for pipe in select.select(list(running), [], [])[0]:
                i, pid = running.pop(pipe)
                with pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                rows[i] = pickle.loads(data) if code == 0 and data else _point_row(
                    axis, axis.values[i], f"point process killed by signal {-code}"
                    if code < 0 else f"point process exited with code {code}")
    finally:
        for pipe, (_, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
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
        try:
            config = load_config(path)
        except OSError as exc:  # main reads any other OSError as an output failure
            raise ConfigError([f"cannot read config file: {exc}"]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    elif args.preset is not None:
        try:
            config = load_preset(args.preset)
        except KeyError as exc:
            raise ConfigError([str(exc.args[0])]) from exc
    else:
        raise ConfigError(["one of --config or --preset is required"])
    # each [controls] key has a flag --<key> that overrides it
    overrides, problems = {}, []
    for key, spec in _SCHEMA["controls"].items():
        value = getattr(args, key)
        if value is not None:
            if problem := spec.check(value):
                problems.append(f"--{key.replace('_', '-')} {problem}")
            overrides[key] = value
    if problems:
        raise ConfigError(problems)
    return replace(config, controls=replace(config.controls, **overrides))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_from_args(args)
    try:
        result, verdict = run_experiment(config, args.out)
    except ValueError as exc:
        print(f"run rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # the step budget ran out
        print(f"run stopped: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
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
    _write_float_table(path, ["x", "depletion", "S", "u", "v"],
                       [grid.x, state.Stilde, state.substrate, state.u, state.v])
    at_rounding = (f" (at rounding level {state.rounding_level:.3e})"
                   if state.pde_residual <= state.rounding_level else "")
    print(
        f"fixed point: converged={state.converged} iterations={state.iterations} "
        f"residual={state.residual:.3e} pde_residual={state.pde_residual:.3e}{at_rounding}"
    )
    print(f"profile written to {path.resolve()}")
    if state.unstable:
        print("steady root is unstable: det(-J) < 0, so its linearization has an odd "
              "number of positive real eigenvalues", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
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
    print(
        f"mass_control: {report.mass_control} "
        f"(weights={report.mass_weights}, K1={report.mass_K1:g})"
    )
    print(f"rate_growth_bound: degree={report.rate_growth_l}, h={report.rate_growth_h:g}")
    branches = ", ".join(
        f"species {i + 1}: " + (f"{branch} (K={K:g}, r={r:g})" if branch
                                else f"none (declared r={r:g})")
        for i, (branch, K, r) in enumerate(report.balance_branches)
    )
    print(f"one_sided_balance: {report.one_sided_balance} ({branches})")
    print(f"exchange_floor: {report.exchange_floor} (yield products: {report.yuyv_class})")
    labels = component_labels(params.m)
    for name, ray in (("mass_control", report.mass_ray), ("exchange_floor", report.exchange_ray)):
        if ray is not None:
            along = " = ".join(labels[k] for k in ray)
            print(f"  ray[{name}]: {along} = s -> inf, every other component 0")
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
    else:
        print(f"reproductive numbers: defined for single-species models only (m={params.m})")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, presets: str) -> None:
    parser.add_argument("--config", help="path to an INI run configuration")
    parser.add_argument("--preset", help="name of a shipped preset: " + presets)
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--grid-n", type=int, help="override grid size")
    parser.add_argument("--t-end", type=float, help="override end time")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that writes its help without argparse's guard,
    which drops an ``OSError`` of the write: unbuffered, a help into a closed
    pipe then raises into :func:`main`'s ``BrokenPipeError`` handling."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process on first use and
    shared by every later call: building it takes about a millisecond, a
    preset glob included."""
    parser = _Parser(
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
            # points run one per usable CPU whatever K is; the flag is
            # accepted and ignored so that `sweep --threads K` keeps working
            sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code == 0:  # --help went to stdout: flush it while its failure is caught
                sys.stdout.flush()
            raise
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to the null device, so that the flush at exit of what
        # is left in its buffer cannot fail again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_STDOUT_CLOSED
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
