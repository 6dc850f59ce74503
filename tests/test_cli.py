"""Tests for config parsing, presets, CSV outputs, sweeps, and exit codes."""

import csv
import importlib
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flocstat as fs
from flocstat.cli import (
    EXIT_BLOW_UP,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_STDOUT_CLOSED,
    PRESET_ALIASES,
    _SCHEMA,
    _apply_sweep_value,
    _write_float_table,
    available_presets,
    build_initial_state,
    main,
    preset_text,
)
from flocstat.pde import monitor_keys

MINIMAL = """\
[model]
d0 = 1
du = 1
dv = 10
yu = 0.1
yv = 0.1
gamma_s = 1

[kinetics]
f = monod 4 1
g = monod 5 1
alpha = attached_times_total
beta = one_plus_attached_times_total

[initial]
S = 0.1
u = 1
v = 1

[controls]
t_end = 2
grid_n = 101
"""

TWO_SPECIES = MINIMAL.replace("du = 1", "du = 1 2").replace(
    "dv = 10", "dv = 10 10"
).replace("yu = 0.1", "yu = 0.1 0.2").replace(
    "yv = 0.1", "yv = 0.1 0.2"
).replace(
    "f = monod 4 1", "f = monod 4 1; haldane 3 1 1"
).replace("d0 = 1", "d0 = 1\nm = 2")


def assert_no_child_process() -> None:
    """This process has no child left, not even one that has exited and is
    yet to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParseConfig:
    def test_minimal_document(self):
        cfg = fs.parse_config(MINIMAL)
        assert cfg.params.d0 == 1.0
        assert cfg.params.dv == (10.0,)
        assert isinstance(cfg.kin.f[0], fs.Monod)
        assert cfg.controls.t_end == 2.0
        assert cfg.controls.grid_n == 101
        assert cfg.sweep is None

    def test_empty_document_names_every_required_key(self):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config("")
        text = "\n".join(err.value.problems)
        for section, key in [
            ("model", "d0"), ("model", "du"), ("model", "dv"),
            ("model", "yu"), ("model", "yv"), ("model", "gamma_s"),
            ("kinetics", "f"), ("kinetics", "g"),
            ("kinetics", "alpha"), ("kinetics", "beta"),
            ("initial", "S"), ("initial", "u"), ("initial", "v"),
            ("controls", "t_end"),
        ]:
            assert f"[{section}] missing required key '{key}'" in text
        assert len(err.value.problems) == 14

    def test_collects_multiple_violations(self):
        bad = MINIMAL.replace("du = 1", "du = fast\nmystery = 3").replace(
            "f = monod 4 1", "f = monod 4"
        )
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(bad)
        text = "\n".join(err.value.problems)
        assert "[model] du" in text
        assert "unknown key 'mystery'" in text
        assert "[kinetics] f" in text
        assert len(err.value.problems) == 3

    @pytest.mark.parametrize("key", ["gamma_u", "gamma_v"])
    def test_empty_optional_feed_rejected(self, key):
        """An optional key given without a value is an error, not 0."""
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(MINIMAL.replace("gamma_s = 1", f"gamma_s = 1\n{key} ="))
        assert err.value.problems == (f"[model] {key}: no numeric values given",)

    def test_unknown_section_rejected(self):
        with pytest.raises(fs.ConfigError, match="unknown section"):
            fs.parse_config(MINIMAL + "\n[extras]\nknob = 1\n")

    def test_construction_violation_reported(self):
        with pytest.raises(fs.ConfigError, match="positive"):
            fs.parse_config(MINIMAL.replace("yu = 0.1", "yu = -1"))

    def test_tabulated_initial_profile(self):
        cfg = fs.parse_config(MINIMAL.replace("\nu = 1", "\nu = 0 1 0")
                              .replace("S = 0.1", "S = 0 1 0"))
        assert cfg.initial_S == (0.0, 1.0, 0.0)
        assert cfg.initial_u == ((0.0, 1.0, 0.0),)
        grid = fs.Grid(cfg.controls.grid_n)
        state = build_initial_state(cfg, grid)
        for profile in (state.S, state.u[0]):
            assert profile[0] == 0.0
            assert profile[50] == pytest.approx(1.0)
            assert profile[-1] == 0.0

    def test_negative_initial_rejected(self):
        with pytest.raises(fs.ConfigError, match="nonnegative"):
            fs.parse_config(MINIMAL.replace("v = 1", "v = -0.5"))

    @pytest.mark.parametrize("value", ["inf", "nan", "0 inf 1"])
    def test_non_finite_initial_rejected(self, value):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(MINIMAL.replace("\nu = 1", f"\nu = {value}"))
        assert err.value.problems == ("[initial] u: values must be finite",)

    @pytest.mark.parametrize("key, descriptor, message", [
        ("f", "monod 4", "monod takes 2 arguments: monod <a> <b>"),
        ("f", "MONOD 4 1 2", "monod takes 2 arguments: monod <a> <b>"),
        ("f", "haldane 3 1", "haldane takes 3 arguments: haldane <a> <b> <c>"),
        ("f", "zero 1", "zero takes no arguments"),
        ("f", "bogus 1", "unknown growth law 'bogus' (expected monod, haldane, or zero)"),
        ("f", "Constant 1", "unknown growth law 'Constant' (expected monod, haldane, or zero)"),
        ("f", "", "empty growth descriptor"),
        ("f", "monod x 1", "could not convert string to float: 'x'"),
        ("f", "monod -1 1", "Monod coefficient a must be positive, got -1.0"),
        ("alpha", "constant", "constant takes 1 argument: constant <c>"),
        ("alpha", "constant 1 2", "constant takes 1 argument: constant <c>"),
        ("alpha", "linear_total", "linear_total takes 1 argument: linear_total <c>"),
        ("alpha", "attached_times_total 1", "attached_times_total takes no arguments"),
        ("alpha", "one_plus_attached_times_total 1",
         "one_plus_attached_times_total takes no arguments"),
        ("alpha", "power_total 1", "power_total takes 2 arguments: power_total <c> <l>"),
        ("alpha", "power_total 1 2.5", "invalid literal for int() with base 10: '2.5'"),
        ("alpha", "power_total 1 0", "PowerTotalRate exponent must be an integer >= 1, got 0"),
        ("alpha", "monod 4 1", "unknown rate law 'monod' (expected constant, linear_total, "
                               "attached_times_total, one_plus_attached_times_total, or "
                               "power_total)"),
        ("alpha", "", "empty rate descriptor"),
    ])
    def test_descriptor_messages(self, key, descriptor, message):
        line = {"f": "f = monod 4 1", "alpha": "alpha = attached_times_total"}[key]
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(MINIMAL.replace(line, f"{key} = {descriptor}"))
        assert err.value.problems == (f"[kinetics] {key}: {message}",)

    @pytest.mark.parametrize("key, descriptor, law", [
        ("f", "monod 4 1", fs.Monod(4.0, 1.0)),
        ("f", "Haldane 3 1 2", fs.Haldane(3.0, 1.0, 2.0)),
        ("f", "zero", fs.ZeroGrowth()),
        ("alpha", "constant 0.5", fs.ConstantRate(0.5)),
        ("alpha", "linear_total 2", fs.LinearTotalRate(2.0)),
        ("alpha", "attached_times_total", fs.AttachedTimesTotalRate()),
        ("alpha", "one_plus_attached_times_total", fs.OnePlusAttachedTimesTotalRate()),
        ("alpha", "power_total 0.5 3", fs.PowerTotalRate(0.5, 3)),
    ])
    def test_descriptors_build_their_laws(self, key, descriptor, law):
        line = {"f": "f = monod 4 1", "alpha": "alpha = attached_times_total"}[key]
        parsed = getattr(fs.parse_config(MINIMAL.replace(line, f"{key} = {descriptor}")).kin,
                         key)[0]
        assert parsed == law
        assert [type(x) for x in vars(parsed).values()] == [type(x) for x in vars(law).values()]

    def test_sweep_section(self):
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 0.1 1 10\n")
        assert cfg.sweep.parameter == "dv"
        assert cfg.sweep.values == (0.1, 1.0, 10.0)

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(fs.ConfigError, match="not sweepable"):
            fs.parse_config(MINIMAL + "\n[sweep]\nparameter = q\nvalues = 1\n")

    def test_two_species_document(self):
        cfg = fs.parse_config(TWO_SPECIES)
        assert cfg.params.m == 2
        assert isinstance(cfg.kin.f[1], fs.Haldane)
        assert len(cfg.kin.alpha) == 2
        assert len(cfg.initial_u) == 2

    @pytest.mark.parametrize("document, line, replacement, problem", [
        (TWO_SPECIES, "du = 1 2", "du = 1 2 3", "[model] du: expected 1 or 2 values, got 3"),
        (TWO_SPECIES, "f = monod 4 1; haldane 3 1 1", "f = monod 4 1; zero; zero",
         "[kinetics] f: expected 1 or 2 descriptors, got 3"),
        (TWO_SPECIES, "\nu = 1", "\nu = 1; 0 1; 2",
         "[initial] u: expected 1 or 2 profiles, got 3"),
        (MINIMAL, "d0 = 1", "d0 = 1 2", "[model] d0: expected a single value"),
        (MINIMAL, "d0 = 1", "d0 = 1\nm = 0", "[model] m: must be a positive integer"),
        (MINIMAL, "grid_n = 101", "grid_n = 15", "[controls] grid_n: must be at least 16"),
        (MINIMAL, "t_end = 2", "t_end = 0", "[controls] t_end: must be positive"),
    ])
    def test_value_messages(self, document, line, replacement, problem):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(document.replace(line, replacement))
        assert err.value.problems == (problem,)

    @pytest.mark.parametrize("sweep, problem", [
        ("values = 1 2", "[sweep] missing required key 'parameter'"),
        ("parameter = dv", "[sweep] missing required key 'values'"),
    ])
    def test_sweep_missing_key_messages(self, sweep, problem):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(MINIMAL + f"\n[sweep]\n{sweep}\n")
        assert err.value.problems == (problem,)

    def test_sweep_rejects_several_species(self):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(TWO_SPECIES + "\n[sweep]\nparameter = dv\nvalues = 1 2\n")
        assert err.value.problems == ("[sweep] sweeps support single-species runs only",)

    def test_every_section_broken_at_once(self):
        """Unknown keys and sections first, in document order; then the
        missing required keys; then each section's values in schema order."""
        text = """\
[model]
m = 2
d0 = 1 2
du = 1 2 3
dv = 10
yu = -1
gamma_s = 1
gamma_u = x
knob = 3

[kinetics]
f = monod 4 1; monod 4 1; monod 4 1
g = monod 5 1
alpha = power_total 1
beta = one_plus_attached_times_total

[initial]
S = 0.1; 0.2
u = 1; 1; 1
v = -1

[controls]
t_end = -1
grid_n = 8

[sweep]
values = a

[extras]
x = 1
"""
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(text)
        assert err.value.problems == (
            "[model] unknown key 'knob'",
            "unknown section [extras]",
            "[model] missing required key 'yv'",
            "[model] d0: expected a single value",
            "[model] du: expected 1 or 2 values, got 3",
            "[model] gamma_u: could not convert string to float: 'x'",
            "[kinetics] f: expected 1 or 2 descriptors, got 3",
            "[kinetics] alpha: power_total takes 2 arguments: power_total <c> <l>",
            "[initial] S: could not convert string to float: '0.1;'",
            "[initial] u: expected 1 or 2 profiles, got 3",
            "[initial] v: values must be nonnegative",
            "[controls] t_end: must be positive",
            "[controls] grid_n: must be at least 16",
            "[sweep] missing required key 'parameter'",
            "[sweep] values: could not convert string to float: 'a'",
        )

    def test_default_section_is_an_unknown_section(self):
        """A [DEFAULT] section is reported once, and none of its keys
        reaches another section."""
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config("[DEFAULT]\nt_end = 3\n\n" + preset_text("fig2a"))
        assert err.value.problems == ("unknown section [DEFAULT]",)


class TestPresets:
    def test_all_presets_round_trip(self):
        names = fs.available_presets()
        assert names == (
            "blowup_demo", "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
            "fig4d", "fig4e", "fig4f", "fig4g", "fig5h", "fig5i", "fig5j", "fig5k",
            "fig5l", "fig5m", "fig6n", "fig6o", "fig6p", "motility", "washout_demo",
        )
        for name in names:
            cfg = fs.load_preset(name)
            assert cfg.params is not None
            assert cfg.kin is not None
            assert cfg.controls.t_end > 0

    def test_motility_preset_is_the_benchmark_sweep_and_the_fig4_points(self, monkeypatch):
        """The motility preset is the benchmark's motility configuration with
        t_end = 100 for 25, and its points are fig4e, fig4d, fig4f and
        fig4g, apart from their controls."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        bench = fs.parse_config(workloads.MOTILITY_CONFIG.format(
            values=" ".join(map(repr, workloads.MOTILITY_VALUES))))
        motility = fs.load_preset("motility")
        assert bench.controls.t_end == 25
        assert motility == replace(bench, controls=replace(bench.controls, t_end=100.0))
        for value, figure in zip(motility.sweep.values, ("fig4e", "fig4d", "fig4f", "fig4g")):
            params = _apply_sweep_value(motility.params, "dv", value)
            point = replace(motility, params=params, controls=None, sweep=None)
            assert point == replace(fs.load_preset(figure), controls=None), figure

    def test_aliases_resolve(self):
        for alias, target in PRESET_ALIASES.items():
            a, b = fs.load_preset(alias), fs.load_preset(target)
            assert a == b

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="available"):
            fs.load_preset("fig99")

    def test_demo_presets_present(self):
        names = fs.available_presets()
        assert "blowup_demo" in names
        assert "washout_demo" in names


class TestRunExperiment:
    def test_outputs_and_verdict(self, tmp_path):
        cfg = fs.parse_config(MINIMAL)
        result, verdict = fs.run_experiment(cfg, tmp_path)
        assert verdict in ("coexistence", "extinction-u", "extinction-v", "washout")
        monitors = tmp_path / "monitors.csv"
        assert monitors.is_file()
        header = monitors.read_text().splitlines()[0]
        assert header == "t,sup_S,sup_u_1,sup_v_1,l1_S,l1_u_1,l1_v_1,mass,Q,dt"
        snaps = sorted(tmp_path.glob("snapshot_*.csv"))
        assert len(snaps) == 11
        snap_header = snaps[0].read_text().splitlines()[0]
        assert snap_header == "x,S,u_1,v_1"

    def test_monitor_columns_m2(self):
        assert monitor_keys(2) == [
            "t", "sup_S", "sup_u_1", "sup_v_1", "sup_u_2", "sup_v_2",
            "l1_S", "l1_u_1", "l1_v_1", "l1_u_2", "l1_v_2", "mass", "Q", "dt",
        ]

    @pytest.mark.parametrize("m", [1, 2])
    def test_monitors_csv_header_is_monitor_keys(self, tmp_path, m):
        text = MINIMAL.replace("d0 = 1", f"d0 = 1\nm = {m}").replace("t_end = 2", "t_end = 0.1")
        result, _verdict = fs.run_experiment(fs.parse_config(text), tmp_path)
        header = (tmp_path / "monitors.csv").read_text().splitlines()[0]
        assert header.split(",") == monitor_keys(m) == list(result.monitors)

    def test_snapshot_rows_ordered_by_x(self, tmp_path):
        cfg = fs.parse_config(MINIMAL)
        fs.run_experiment(cfg, tmp_path)
        rows = (tmp_path / "snapshot_0.csv").read_text().splitlines()[1:]
        xs = [float(r.split(",")[0]) for r in rows]
        assert xs == sorted(xs)
        assert len(xs) == cfg.controls.grid_n

    def test_bitwise_reproducible_outputs(self, tmp_path):
        cfg = fs.parse_config(MINIMAL)
        fs.run_experiment(cfg, tmp_path / "a")
        fs.run_experiment(cfg, tmp_path / "b")
        for name in ["monitors.csv"] + [f"snapshot_{k}.csv" for k in range(11)]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_negative_zero_sample_is_written_as_zero(self, tmp_path, capsys):
        """``u = -0`` is a nonnegative sample, and the run starts from +0.0:
        no ``-0.0`` in the initial snapshot or in the first monitor row."""
        config = tmp_path / "minus_zero.ini"
        config.write_text(preset_text("fig6n").replace("\nu = 1\n", "\nu = -0\n"))
        assert main(["run", "--config", str(config), "--t-end", "0.1",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "-0.0" not in (tmp_path / "out" / "snapshot_0.csv").read_text()
        with (tmp_path / "out" / "monitors.csv").open(newline="") as handle:
            assert next(csv.DictReader(handle))["sup_u_1"] == "0.0"
        state = build_initial_state(fs.parse_config(config.read_text()), fs.Grid(21))
        assert not np.signbit(state.u).any()

    def test_rerun_replaces_the_snapshots_of_an_earlier_run(self, tmp_path, capsys):
        """A blow-up run into the directory of a longer run leaves only its
        own snapshots there; files the run does not name stay."""
        out = tmp_path / "o"
        assert main(["run", "--preset", "fig2a", "--t-end", "1", "--out", str(out)]) == EXIT_OK
        kept = ["notes.txt", "snapshot_final.csv", "snapshot_01.csv", "snapshot_3.csv.bak"]
        for name in kept:
            (out / name).write_text("kept\n")
        (out / "snapshot_9.csv").unlink()
        (out / "snapshot_9.csv").mkdir()
        assert main(["run", "--preset", "blowup_demo", "--out", str(out)]) == EXIT_BLOW_UP
        capsys.readouterr()
        snapshots = sorted(p.name for p in out.glob("snapshot_*.csv") if p.is_file())
        assert snapshots == ["snapshot_0.csv", "snapshot_01.csv", "snapshot_1.csv",
                             "snapshot_final.csv"]
        assert (out / "snapshot_9.csv").is_dir()
        assert all((out / name).read_text() == "kept\n" for name in kept)
        config = fs.load_preset("blowup_demo")
        last = (out / "snapshot_1.csv").read_text().splitlines()
        assert len(last) == 1 + config.controls.grid_n


class TestWriteFloatTable:
    def test_large_table_is_formatted_in_bounded_memory(self, tmp_path):
        """50 000 rows of 10 columns, not a whole number of chunks, written
        with a traced peak far below the 16 MB their Python floats take at
        once; every cell reads as its ``repr``, extremes included."""
        rows = 50_000
        rng = np.random.default_rng(7)
        columns = [rng.standard_normal(rows) * 10.0 ** k for k in range(-5, 5)]
        columns[0][:4] = [-0.0, 5e-324, 1e308, -1e308]
        columns[9][-3:] = [0.0, -5e-324, 2.2250738585072014e-308]
        header = [f"c{j}" for j in range(10)]
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            _write_float_table(path, header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        cells = [col.tolist() for col in columns]
        expected = ",".join(header) + "\n" + "".join(
            ",".join(repr(col[i]) for col in cells) + "\n" for i in range(rows))
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1].startswith("-0.0,")

    def test_empty_columns_write_the_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_float_table(path, ["a", "b"], [np.empty(0), np.empty(0)])
        assert path.read_text() == "a,b\n"


class TestSweep:
    def test_summary_schema_and_failure_row(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 10 0.001\n"
        cfg = fs.parse_config(text)
        rows = fs.sweep(cfg, tmp_path)
        assert len(rows) == 2
        # dv = 0.001 violates the grid diffusion limit at n = 101 and must
        # land in the error column instead of aborting the sweep
        assert rows[0]["error"] == ""
        assert rows[0]["verdict"]
        assert rows[1]["error"] != ""
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == (
            "parameter,value,verdict,t_final,sup_S,sup_u_1,sup_v_1,"
            "l1_S,l1_u_1,l1_v_1,R_u,R_v,error"
        )
        assert len(summary) == 3

    def test_error_with_commas_reads_back_as_one_field(self, tmp_path, monkeypatch):
        message = "grid too coarse: d=0.001, n=502, use n >= 501"

        def failing_run(config, out_dir):
            raise ValueError(message)

        monkeypatch.setattr("flocstat.cli.run_experiment", failing_run)
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5\n")
        fs.sweep(cfg, tmp_path)
        with (tmp_path / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert None not in rows[0] and len(rows[0]) == 13
        assert rows[0]["error"] == f"ValueError: {message}"

    def test_rerun_into_a_used_out_equals_a_sweep_into_an_empty_one(self, tmp_path):
        """A rerun with fewer values removes the CSVs of every point_NNN
        directory before its points run, and each directory that empties:
        dv = 10's outputs leave point_001, where dv = 0.001 fails, and
        point_002 goes.  Any other file stays."""

        def swept(values: str, out: Path) -> dict:
            text = MINIMAL.replace("t_end = 2", "t_end = 0.1")
            fs.sweep(fs.parse_config(text + f"\n[sweep]\nparameter = dv\nvalues = {values}\n"), out)
            return {path.relative_to(out).as_posix(): path.is_file() and path.read_bytes()
                    for path in out.rglob("*")}

        used = tmp_path / "used"
        swept("1 10 3", used)
        assert swept("1 0.001", used) == swept("1 0.001", tmp_path / "empty")
        kept = [used / "point_001" / "notes.txt", used / "point_01" / "monitors.csv"]
        for path in kept:
            path.parent.mkdir(exist_ok=True)
            path.write_text("kept\n")
        swept("1 0.001", used)
        assert all(path.read_text() == "kept\n" for path in kept)
        assert sorted(p.name for p in (used / "point_001").iterdir()) == ["notes.txt"]

    def test_rows_in_sweep_order_and_rerun_identical(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nparameter = yu\nvalues = 0.3 0.1 0.2\n"
        cfg = fs.parse_config(text)
        rows = fs.sweep(cfg, tmp_path / "a")
        assert [r["value"] for r in rows] == ["0.3", "0.1", "0.2"]
        assert all(r["error"] == "" for r in rows)
        fs.sweep(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_summary_copies_last_monitor_row(self, tmp_path):
        """Each sup/L1 cell of summary.csv is, as text, the cell of the same
        column in the last row of that point's monitors.csv."""
        text = MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 10 0.05\n"
        fs.sweep(fs.parse_config(text), tmp_path)
        with (tmp_path / "summary.csv").open(newline="") as handle:
            summary = list(csv.DictReader(handle))
        assert len(summary) == 2
        for index, row in enumerate(summary):
            with (tmp_path / f"point_{index:03d}" / "monitors.csv").open(newline="") as handle:
                last = list(csv.DictReader(handle))[-1]
            for key in ("sup_S", "sup_u_1", "sup_v_1", "l1_S", "l1_u_1", "l1_v_1"):
                assert row[key] == last[key], (index, key)

    def test_reproductive_numbers_in_rows(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 10\n"
        cfg = fs.parse_config(text)
        rows = fs.sweep(cfg, tmp_path)
        assert float(rows[0]["R_u"]) == pytest.approx(1.7065, abs=1e-3)
        assert float(rows[0]["R_v"]) == pytest.approx(2.4589, abs=1e-3)

    def test_worker_points_match_run_experiment_in_this_process(self, tmp_path):
        """Every file a point's process writes is byte-identical to
        run_experiment on that point's config in the calling process, and no
        point's process outlives the sweep.  (A rerun's summary.csv is pinned
        by test_rows_in_sweep_order_and_rerun_identical.)"""
        text = MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 10 0.05 1\n"
        cfg = fs.parse_config(text)
        fs.sweep(cfg, tmp_path / "a")
        assert_no_child_process()
        for index, value in enumerate(cfg.sweep.values):
            point = replace(cfg, params=replace(cfg.params, dv=(value,)), sweep=None)
            fs.run_experiment(point, tmp_path / "alone" / str(index))
            swept = tmp_path / "a" / f"point_{index:03d}"
            alone = tmp_path / "alone" / str(index)
            names = sorted(p.name for p in alone.iterdir())
            assert sorted(p.name for p in swept.iterdir()) == names
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), (index, name)

    @pytest.mark.parametrize("parameter, values, order", [
        ("dv", "10 0.5 2 0.5 1", [1, 3, 0, 2, 4]),
        ("d0", "2 0.5 0.7", [1, 2, 0]),
        ("yu", "0.3 0.1 0.2", [0, 1, 2]),
    ])
    def test_points_submitted_by_smallest_diffusivity(self, tmp_path, monkeypatch, parameter,
                                                      values, order):
        """Points start in ascending order of their smallest diffusivity
        (MINIMAL's are d0 = du = 1, dv = 10), ties in sweep order;
        summary.csv keeps sweep order."""
        started = []
        real_start = fs.cli._start_point

        def recording_start(config, out_path, i):
            started.append(i)
            return real_start(config, out_path, i)

        monkeypatch.setattr("flocstat.cli._start_point", recording_start)
        cfg = fs.parse_config(MINIMAL + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\n")
        rows = fs.sweep(cfg, tmp_path)
        assert started == order
        assert [float(row["value"]) for row in rows] == list(cfg.sweep.values)
        with (tmp_path / "summary.csv").open(newline="") as handle:
            assert [row["value"] for row in csv.DictReader(handle)] == [r["value"] for r in rows]
        assert all(row["error"] == "" for row in rows)

    def test_rows_in_sweep_order_when_the_first_point_is_slowest(self, tmp_path, monkeypatch):
        """The first point finishes last; its row still comes first.  Forked
        point processes inherit the patched run_experiment."""
        text = MINIMAL + "\n[sweep]\nparameter = yu\nvalues = 0.3 0.1 0.2\n"
        cfg = fs.parse_config(text)
        fs.sweep(cfg, tmp_path / "plain")
        real_run = fs.cli.run_experiment

        def slow_first(config, out_dir):
            if config.params.yu == (0.3,):
                time.sleep(0.5)
            return real_run(config, out_dir)

        monkeypatch.setattr("flocstat.cli.run_experiment", slow_first)
        rows = fs.sweep(cfg, tmp_path / "slow")
        assert [r["value"] for r in rows] == ["0.3", "0.1", "0.2"]
        assert (tmp_path / "slow" / "summary.csv").read_bytes() == (
            tmp_path / "plain" / "summary.csv"
        ).read_bytes()

    def test_dying_worker_ends_in_error_rows_not_a_hang(self, tmp_path):
        """A point whose process exits mid-point gets a row naming its exit
        code; summary.csv is still written, sweep exits 0 and no point's
        process is left."""
        (tmp_path / "sweep.ini").write_text(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 1 5 10\n")
        code = (
            "import os\n"
            "import flocstat.cli as cli\n"
            "real_run = cli.run_experiment\n"
            "def run_or_die(config, out_dir):\n"
            "    if config.params.dv == (5.0,):\n"
            "        os._exit(1)\n"
            "    return real_run(config, out_dir)\n"
            "cli.run_experiment = run_or_die\n"
            "print(cli.main(['sweep', '--config', 'sweep.ini', '--out', 'out']))\n"
            "try:\n"
            "    print(os.waitpid(-1, os.WNOHANG))\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
        )
        src = Path(fs.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-2:] == [str(EXIT_OK), "no child"]
        with (tmp_path / "out" / "summary.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["value"] for row in rows] == ["1.0", "5.0", "10.0"]
        assert rows[1]["error"] == "point process exited with code 1"
        assert rows[0]["error"] == rows[2]["error"] == ""
        assert rows[0]["verdict"] and rows[2]["verdict"]

    @staticmethod
    def assert_only_dv_5_dies(tmp_path, monkeypatch, die, error):
        """Only dv = 5, whose process calls ``die``, gets an error row, and
        that row is ``error``: the rows and files of dv = 1 and dv = 10 equal
        those of a sweep in which no point dies.  Forked point processes
        inherit the patched run_experiment."""
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 1 5 10\n")
        clean = fs.sweep(cfg, tmp_path / "clean")
        real_run = fs.cli.run_experiment

        def run_or_die(config, out_dir):
            if config.params.dv == (5.0,):
                die()
            return real_run(config, out_dir)

        monkeypatch.setattr("flocstat.cli.run_experiment", run_or_die)
        rows = fs.sweep(cfg, tmp_path / "dying")
        assert_no_child_process()
        assert rows[1] == {**clean[1], **dict.fromkeys(fs.cli.SUMMARY_COLUMNS[2:], ""),
                           "error": error}
        assert [rows[0], rows[2]] == [clean[0], clean[2]]
        for index in (0, 2):
            swept, alone = (tmp_path / run / f"point_{index:03d}" for run in ("dying", "clean"))
            names = sorted(p.name for p in alone.iterdir())
            assert sorted(p.name for p in swept.iterdir()) == names
            for name in names:
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), (index, name)

    def test_dying_worker_takes_only_its_own_point(self, tmp_path, monkeypatch):
        self.assert_only_dv_5_dies(tmp_path, monkeypatch, lambda: os._exit(1),
                                   "point process exited with code 1")

    def test_point_killed_by_a_signal_takes_only_its_own_point(self, tmp_path, monkeypatch):
        self.assert_only_dv_5_dies(tmp_path, monkeypatch,
                                   lambda: os.kill(os.getpid(), signal.SIGKILL),
                                   "point process killed by signal 9")

    def test_row_larger_than_the_pipe_buffer_comes_back_whole(self, tmp_path, monkeypatch):
        """A point's row travels through a pipe whose buffer holds 64 KiB; a
        200 000-character error message arrives whole, in the returned row
        and in summary.csv."""
        message = "x" * 200_000

        def failing_run(config, out_dir):
            raise ValueError(message)

        monkeypatch.setattr("flocstat.cli.run_experiment", failing_run)
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5 10\n")
        rows = fs.sweep(cfg, tmp_path)
        assert_no_child_process()
        assert [row["error"] for row in rows] == [f"ValueError: {message}"] * 2
        # longer than the csv module's default field limit: read as text
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert [line.endswith(f",ValueError: {message}") for line in summary] == [False, True, True]

    def test_exception_in_the_parent_leaves_no_child_process(self, tmp_path, monkeypatch):
        """With two points running at a time, the third starts only after a
        row has come back; an exception raised there kills and reaps the
        point still running (dv = 5 sleeps so that it is) before it
        propagates."""
        real_run, real_start = fs.cli.run_experiment, fs.cli._start_point
        started = []

        def slow_five(config, out_dir):
            if config.params.dv == (5.0,):
                time.sleep(30)
            return real_run(config, out_dir)

        def start_two(config, out_path, i):
            started.append(i)
            if len(started) == 3:
                raise RuntimeError("parent fails")
            return real_start(config, out_path, i)

        monkeypatch.setattr("flocstat.cli.run_experiment", slow_five)
        monkeypatch.setattr("flocstat.cli._start_point", start_two)
        monkeypatch.setattr("flocstat.cli._usable_cpus", lambda: 2)
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 1 5 10\n")
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="parent fails"):
            fs.sweep(cfg, tmp_path)
        assert time.monotonic() - t0 < 20
        assert started == [0, 1, 2]
        assert_no_child_process()
        assert not (tmp_path / "summary.csv").exists()


class TestMainEntry:
    def test_run_exit_ok(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig2a", "--t-end", "2",
                     "--grid-n", "101", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("verdict: ")

    def test_run_two_species_verdict_names_each_extinct_phase(self, tmp_path, capsys):
        """With no exchange the four phases compete for S alone: species 2
        cannot grow and v1 outgrows u1, so u1, u2 and v2 die out."""
        config = tmp_path / "two.ini"
        config.write_text(
            MINIMAL.replace("d0 = 1", "d0 = 1\nm = 2").replace("dv = 10", "dv = 1")
            .replace("f = monod 4 1", "f = monod 4 1; zero")
            .replace("g = monod 5 1", "g = monod 5 1; zero")
            .replace("alpha = attached_times_total", "alpha = constant 0")
            .replace("beta = one_plus_attached_times_total", "beta = constant 0")
            .replace("t_end = 2\ngrid_n = 101", "t_end = 100\ngrid_n = 201")
        )
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("verdict: extinction-u1,u2,v2\n")

    def test_run_exit_blow_up(self, tmp_path, capsys):
        code = main(["run", "--preset", "blowup_demo", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_BLOW_UP
        assert "blow-up" in out
        assert "t=" in out

    def test_run_stalled_by_step_budget_exits_3_with_one_line(self, tmp_path, capsys,
                                                              monkeypatch):
        """fig2a takes 586 steps, accepted and rejected, to its horizon; a
        budget of 100 stalls it."""
        monkeypatch.setattr(fs.pde, "MAX_STEPS", 100)
        code = main(["run", "--preset", "fig2a", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("run stopped: step budget 100 exhausted at t=")
        assert not (tmp_path / "out").exists()

    def test_run_rejected_before_first_step_exits_2(self, tmp_path, capsys):
        """Inputs that simulate rejects up front: a grid too coarse for
        fig4e's dv=0.001, and initial data above the blow-up threshold 1e8."""
        cfg_path = tmp_path / "above_threshold.ini"
        cfg_path.write_text(MINIMAL.replace("\nu = 1", "\nu = 2e8"))
        for source, needle in ((["--preset", "fig4e", "--grid-n", "100"], "grid too coarse"),
                               (["--config", str(cfg_path)], "does not exceed the initial sup")):
            code = main(["run", *source, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG
            assert len(err.strip().splitlines()) == 1 and needle in err

    def test_sampled_initial_substrate_runs_on_every_verb(self, tmp_path, capsys):
        """A sampled [initial] S reaches run, steady and every sweep point."""
        text = preset_text("fig2a").replace("S = 0.1\n", "S = 0.1 1 0.1\n")
        assert text != preset_text("fig2a")
        config = tmp_path / "sampled.ini"
        config.write_text(text)
        sweep = tmp_path / "sweep.ini"
        sweep.write_text(text + "\n[sweep]\nparameter = dv\nvalues = 5 10\n")
        for verb, source in (("run", config), ("steady", config), ("sweep", sweep)):
            code = main([verb, "--config", str(source), "--t-end", "0.1",
                         "--out", str(tmp_path / verb)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, (verb, captured.err)
            assert "Traceback" not in captured.err and "ERROR" not in captured.out
        with (tmp_path / "sweep" / "summary.csv").open(newline="") as handle:
            assert [row["error"] for row in csv.DictReader(handle)] == ["", ""]

    @pytest.mark.parametrize("key", ["gamma_s", "gamma_u", "gamma_v"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_feed_exits_2(self, tmp_path, capsys, key, value):
        """A non-finite feed is a configuration error, not a blow-up at t=0."""
        feeds = {"gamma_s": "1", "gamma_u": "0", "gamma_v": "0", key: value}
        config = tmp_path / "feed.ini"
        config.write_text(MINIMAL.replace(
            "gamma_s = 1\n", "".join(f"{name} = {text}\n" for name, text in feeds.items())))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith(f"configuration error:\n  - [model] feed concentration {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["out", "nest/a/b"])
    def test_horizon_within_time_tolerance_exits_2(self, tmp_path, capsys, out):
        """A positive horizon no longer than simulate's time tolerance would
        end the run before its first step; the run removes every directory
        of the output path it created."""
        code = main(["run", "--preset", "fig2a", "--t-end", "1e-13",
                     "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("run rejected: ") and "time tolerance" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", [
        "dt_init", "dt_min", "sup_threshold", "snapshots", "steady_tol",
        "steady_max_iter", "steady_damping", "write_monitors", "write_snapshots",
    ])
    def test_removed_setting_exits_2(self, tmp_path, capsys, key):
        """Solver settings and output toggles are not configurable."""
        if key.startswith("write_"):
            extra, problem = f"\n[outputs]\n{key} = false\n", "unknown section [outputs]"
        else:
            extra, problem = f"{key} = 201\n", f"[controls] unknown key {key!r}"
        cfg_path = tmp_path / "removed.ini"
        cfg_path.write_text(MINIMAL + extra)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error:\n  - {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, value):
        """A horizon of inf would end the run before its first step."""
        cfg_path = tmp_path / "horizon.ini"
        cfg_path.write_text(MINIMAL.replace("t_end = 2", f"t_end = {value}"))
        for source, problem in (
            (["--preset", "fig2a", f"--t-end={value}"], "--t-end must be finite"),
            (["--config", str(cfg_path)], "[controls] t_end: must be finite"),
        ):
            code = main(["run", *source, "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == f"configuration error:\n  - {problem}\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, problems", [
        (["--grid-n", "15"], ["--grid-n must be at least 16"]),
        (["--t-end", "0"], ["--t-end must be positive"]),
        (["--grid-n", "8", "--t-end", "-1"],
         ["--t-end must be positive", "--grid-n must be at least 16"]),
    ], ids=["grid-n", "t-end", "both"])
    def test_bad_override_flags_exit_2(self, tmp_path, capsys, flags, problems):
        """The flags are checked as their [controls] keys are; each bad one
        is listed."""
        code = main(["run", "--preset", "fig2a", *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error:\n" + "".join(
            f"  - {problem}\n" for problem in problems)
        assert not (tmp_path / "out").exists()

    def test_config_error_exit(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        code = main(["run", "--config", str(missing), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_requires_some_source(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_eigen_verb(self, tmp_path, capsys):
        code = main(["eigen", "--preset", "fig2a", "--grid-n", "401"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("d0: d=1 lambda=1.17")
        assert "enclosure" not in lines[0]

    def test_eigen_flags_value_outside_its_bracket(self, capsys):
        """dv=0.001 at n=1001 resolves at cell Peclet 0.5, but its grid
        eigenvalue 267.96 lies outside the enclosure (250.0025, 250.0099)."""
        code = main(["eigen", "--preset", "fig4e", "--grid-n", "1001"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert [line.endswith("] OUTSIDE-BRACKET") for line in lines] == [False, False, True]
        assert lines[2].startswith("dv_1: d=0.001 lambda=267.957")

    def test_check_verb(self, capsys):
        code = main(["check", "--preset", "fig2a"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("mass_control: satisfied ")
        assert "quasipositive" not in out
        assert "reproductive numbers" in out
        # h = (1 + sqrt 2)/2, the sup of (1 + V) T / (T^2 + 1) at T = V
        assert "rate_growth_bound: degree=2, h=1.20711\n" in out
        # violated by the degrees of the exchange laws: no constant or ray
        # goes with it
        assert "one_sided_balance: violated (species 1: none (declared r=3))\n" in out
        # attachment T*V vanishes on v = 0, so no delta > 0 bounds u alone
        assert out.count("ray[") == 1
        assert ("exchange_floor: violated (yield products: all_products_below_one)\n"
                "  ray[exchange_floor]: u_1 = s -> inf, every other component 0\n") in out

    @pytest.mark.parametrize("line, replacement, pinned", [
        ("beta = one_plus_attached_times_total", "beta = linear_total 0",
         "one_sided_balance: satisfied (species 1: isolated (K=0, r=1))\n"),
        ("beta = one_plus_attached_times_total", "beta = power_total 0 1",
         "one_sided_balance: satisfied (species 1: isolated (K=0, r=1))\n"),
        ("alpha = attached_times_total\nbeta = one_plus_attached_times_total",
         "alpha = constant 0\nbeta = constant 1",
         "exchange_floor: violated (yield products: all_products_below_one)\n"
         "  ray[exchange_floor]: u_1 = s -> inf, every other component 0\n"),
    ])
    def test_check_zero_laws_have_degree_0(self, tmp_path, capsys, line, replacement, pinned):
        """An identically zero law has no terms: degree 0 whatever its
        class, and it vanishes without attached biomass."""
        config = tmp_path / "zero.ini"
        config.write_text(MINIMAL.replace(line, replacement))
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert pinned in capsys.readouterr().out

    def test_check_boundary_reproductive_numbers(self, tmp_path, capsys):
        """f = Monod(2*lambda(du), 1) at feed 1 grows at exactly lambda(du),
        and both exchange rates vanish at the origin: R_u is exactly 1."""
        lam = fs.solve_principal(1.0, 101).value
        config = tmp_path / "boundary.ini"
        config.write_text(MINIMAL.replace("f = monod 4 1", f"f = monod {2.0 * lam!r} 1")
                          .replace("g = monod 5 1", "g = zero"))
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            "reproductive numbers: R_u=1.000000 R_v=0.000000 (boundary)\n")

    def test_check_mass_control_ray(self, capsys):
        """blowup_demo: yu*yv = 4 > 1 with linear rates; the weighted sum
        grows like s^2 along u_1 = v_1 = s."""
        assert main(["check", "--preset", "blowup_demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert ("mass_control: violated (weights=(2.0, 3.0, 3.0), K1=0)\n" in out)
        assert "  ray[mass_control]: u_1 = v_1 = s -> inf, every other component 0\n" in out
        assert "one_sided_balance: satisfied (species 1: isolated (K=1, r=2))\n" in out
        assert "exchange_floor: not_applicable (yield products: some_product_exceeds_one)\n" in out

    def test_check_verb_two_species_says_why_no_reproductive_numbers(self, tmp_path, capsys):
        config = tmp_path / "two.ini"
        config.write_text(TWO_SPECIES)
        code = main(["check", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "rate_growth_bound: degree=2, h=2.22474\n" in captured.out
        assert captured.out.endswith(
            "reproductive numbers: defined for single-species models only (m=2)\n")
        assert "R_u" not in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("l, bound", [(400, "h=3.87337e+120"), (1024, "h=inf"),
                                          (1600, "h=inf")])
    def test_check_rate_growth_bound_beyond_the_float_range(self, tmp_path, capsys, l, bound):
        """With two species the T -> inf limit of h is c * 2**(l-1): past
        the float range it is inf, with nothing on stderr, also where
        2**(1-l) underflows to 0 and the zero-degree detachment's limit is
        0 / 0."""
        config = tmp_path / "power.ini"
        config.write_text(TWO_SPECIES.replace("alpha = attached_times_total",
                                              f"alpha = power_total 3 {l}")
                          .replace("beta = one_plus_attached_times_total", "beta = constant 1"))
        assert main(["check", "--config", str(config)]) == EXIT_OK
        captured = capsys.readouterr()
        assert f"rate_growth_bound: degree={l}, {bound}\n" in captured.out
        assert captured.err == ""

    def test_steady_verb(self, tmp_path, capsys):
        code = main(["steady", "--preset", "fig2a", "--grid-n", "201",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert re.search(r"^fixed point: converged=True iterations=10 "
                         r"residual=\S+ pde_residual=", out, re.M)
        assert "coexistence: feasible=False" in out
        assert (tmp_path / "steady.csv").is_file()

    def test_steady_rerun_byte_identical(self, tmp_path, capsys):
        """Two runs write the same steady.csv, with one repr float per cell."""
        paths = []
        for name in ("a", "b"):
            assert main(["steady", "--preset", "fig2a", "--out", str(tmp_path / name)]) == EXIT_OK
            paths.append(tmp_path / name / "steady.csv")
        text = paths[0].read_bytes()
        assert paths[1].read_bytes() == text

        config = fs.load_preset("fig2a")
        initial = build_initial_state(config, fs.Grid(config.controls.grid_n))
        state = fs.fixed_point_solve(
            (np.clip(1.0 - initial.S, 0.0, None), initial.u[0], initial.v[0]),
            config.params, config.kin,
        )
        x, substrate = state.grid.x, state.substrate
        rows = ["x,depletion,S,u,v\n"]
        for j in range(state.grid.n):
            cells = (x[j], state.Stilde[j], substrate[j], state.u[j], state.v[j])
            rows.append(",".join(repr(float(c)) for c in cells) + "\n")
        assert text == "".join(rows).encode()

    @pytest.mark.parametrize("grid_n, note",
                             [("201", ""), ("4001", " (at rounding level 3.813e-08)")])
    def test_steady_notes_a_pde_residual_at_rounding_level(self, tmp_path, capsys, grid_n, note):
        """fig2a's pde_residual is above the rounding level of T X at 201
        nodes and below it at 4001, where the fixed-point line says so."""
        code = main(["steady", "--preset", "fig2a", "--grid-n", grid_n, "--out", str(tmp_path)])
        line = capsys.readouterr().out.splitlines()[0]
        assert code == EXIT_OK
        assert re.fullmatch(r"fixed point: converged=True iterations=10 residual=\S+ "
                            r"pde_residual=[0-9.e+-]+" + re.escape(note), line)

    def test_steady_verb_coarse_grid_exits_without_traceback(self, tmp_path, capsys):
        """fig4e's dv=0.001 at n=501 is too coarse for the eigen solver that
        the hypothesis reports use: exit 3 with one line, profile written."""
        code = main(["steady", "--preset", "fig4e", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert "fixed point: converged=True" in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "grid too coarse" in captured.err
        assert (tmp_path / "steady.csv").is_file()

    def test_steady_fine_grid_reports_overflowed_attenuation(self, tmp_path, capsys):
        """exp(1/d) overflows for fig4e's dv=0.001; on 1001 nodes the eigen
        solve succeeds, and the attenuation clause fails with margin -inf."""
        code = main(["steady", "--preset", "fig4e", "--grid-n", "1001",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        assert ("extinction[isolated]: all_satisfied=False window_nonempty=False "
                "eigenvalue=267.957659 attenuation=inf\n"
                "  - growth-beats-kernel-attenuation: satisfied=False margin=-inf\n"
                ) in captured.out

    def test_steady_unstable_root_exits_3_with_one_line(self, tmp_path, capsys):
        """blowup_demo's solve converges to a root that det(-J) < 0 flags
        unstable: the profile is written, the hypothesis reports are not."""
        code = main(["steady", "--preset", "blowup_demo", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert "fixed point: converged=True iterations=8 " in captured.out
        assert "extinction[" not in captured.out
        assert captured.err == ("steady root is unstable: det(-J) < 0, so its linearization "
                                "has an odd number of positive real eigenvalues\n")
        assert (tmp_path / "steady.csv").is_file()

    def test_steady_stalled_preset_converges_by_newton(self, tmp_path, capsys):
        """fig6n, on which damped Picard stalls, converges as the
        pseudo-time step grows towards Newton's."""
        code = main(["steady", "--preset", "fig6n", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        assert re.search(r"^fixed point: converged=True iterations=14 "
                         r"residual=\S+ pde_residual=", captured.out, re.M)
        assert (tmp_path / "steady.csv").is_file()

    def test_check_verb_coarse_grid_exits_without_traceback(self, capsys):
        code = main(["check", "--preset", "fig4e"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert "mass_control:" in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "grid too coarse" in captured.err

    def test_threads_flag_hidden_and_only_on_sweep(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--threads" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig2a", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2  # argparse's usage error

    def test_calls_share_one_parser(self, capsys):
        """main builds its parser once per process; a usage error on the
        shared parser still exits 2, every time."""
        fs.cli.build_parser.cache_clear()
        for _ in range(2):
            assert main(["eigen", "--preset", "fig2a"]) == EXIT_OK
            with pytest.raises(SystemExit) as exc:
                main(["eigen", "--no-such-flag"])
            assert exc.value.code == 2
        info = fs.cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    def test_sweep_verb(self, tmp_path, capsys):
        # --threads is accepted and ignored on sweep
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5 10\n")
        code = main(["sweep", "--config", str(cfg_path), "--threads", "2",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.csv").is_file()

    @pytest.mark.parametrize("verb", ["run", "steady", "sweep"])
    def test_uncreatable_out_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, verb):
        """An --out below a regular file cannot be created; run finds that
        out before it simulates."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("run simulated before creating its output directory")

        monkeypatch.setattr("flocstat.cli.simulate", no_simulation)
        (tmp_path / "afile").write_text("")
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5 10\n")
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path / "afile" / "x")])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith("cannot write outputs: ")
        assert "Not a directory" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_unreadable_config_is_a_configuration_error(self, tmp_path, capsys, monkeypatch):
        """Only output failures read as "cannot write outputs"."""
        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("flocstat.cli.load_config", unreadable)
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(MINIMAL)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error:\n  - cannot read config file: "
            f"[Errno 13] Permission denied: '{cfg_path}'\n"
        )

    @pytest.mark.parametrize("verb", ["run", "sweep", "eigen", "steady", "check"])
    def test_config_that_is_not_utf8_is_a_configuration_error(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "latin.ini"
        cfg_path.write_bytes(b"\xff" + MINIMAL.encode())
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error:\n  - cannot read config file {cfg_path}: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_preset_without_sweep_section_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "fig2a", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error:\n  - configuration has no [sweep] section\n"
        )
        assert not (tmp_path / "out").exists()


# every (verb, preset) pair whose exit code is not 0; run and sweep end at
# t = 1, after blowup_demo's blow-up near t = 0.70
NONZERO_EXITS = {
    ("run", "blowup_demo"): EXIT_BLOW_UP,
    # motility is the only shipped preset with a [sweep] section
    **{("sweep", preset): EXIT_CONFIG for preset in available_presets() if preset != "motility"},
    # fig4e's dv=0.001 sits at cell Peclet 1 on its 501-node grid
    ("eigen", "fig4e"): EXIT_NO_CONVERGENCE,
    ("check", "fig4e"): EXIT_NO_CONVERGENCE,
    **{("steady", preset): EXIT_NO_CONVERGENCE for preset in ("blowup_demo", "fig4e")},
}


class TestExitCodeMatrix:
    def test_every_verb_on_every_preset_exits_with_its_pinned_code(self, tmp_path, capsys):
        """A call that raises out of main fails the test with its traceback.
        No call writes a traceback, and a call that exits 3 or 4 writes at
        most one line to stderr."""
        got, errs = {}, {}
        for preset in available_presets():
            for verb in ("run", "sweep", "eigen", "steady", "check"):
                short = ["--t-end", "1"] if verb in ("run", "sweep") else []
                out = tmp_path / verb / preset
                got[verb, preset] = main([verb, "--preset", preset, "--out", str(out), *short])
                errs[verb, preset] = capsys.readouterr().err
        assert got == {key: NONZERO_EXITS.get(key, EXIT_OK) for key in got}
        assert [key for key, err in errs.items() if "Traceback" in err] == []
        assert [key for key, code in got.items()
                if code in (EXIT_NO_CONVERGENCE, EXIT_BLOW_UP)
                and len(errs[key].splitlines()) > 1] == []


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, written", [
        (["steady", "--preset", "fig3a"], "steady.csv"),
        (["run", "--preset", "fig2a", "--t-end", "0.1"], "monitors.csv"),
    ])
    def test_reader_that_closes_stdout_gets_its_own_exit_code(self, tmp_path, argv, written,
                                                              unbuffered):
        """As in `flocstat ... | true`: the files are written, stderr stays
        empty, and the exit code is 141, not the 2 of an output failure,
        whether stdout is buffered or not."""
        src = Path(fs.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        with subprocess.Popen([sys.executable, "-m", "flocstat", *argv, "--out", "out"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
                              env=env) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_STDOUT_CLOSED == 141
        assert err == b""
        assert (tmp_path / "out" / written).is_file()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["steady", "--help"]], ids=["main", "steady"])
    def test_help_into_a_closed_stdout_exits_141(self, argv, unbuffered):
        """`flocstat --help | true`: the help fails to reach its reader
        inside the handling of a verb's report, not at interpreter exit
        (stdout buffered) and not in argparse, which would discard the
        failed write (unbuffered)."""
        src = Path(fs.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        with subprocess.Popen([sys.executable, "-m", "flocstat", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (EXIT_STDOUT_CLOSED, b"")


# grids at cell Peclet 1 whose eigen solves rounding leaves with a positive
# upper band (fig2a's du = 0.025 on 21 nodes) and a zero one (fig4e's
# dv = 0.0001 on 5001 nodes)
UNIT_PECLET_CASES = [
    *((verb, "fig2a", "du = 1", "du = 0.025", 21) for verb in ("run", "eigen", "check")),
    *((verb, "fig4e", "dv = 0.001", "dv = 0.0001", 5001) for verb in ("eigen", "check", "steady")),
]


class TestUnitPeclet:
    @pytest.mark.parametrize("verb, preset, old, new, grid_n", UNIT_PECLET_CASES)
    def test_unresolved_eigen_grid_is_one_line(self, tmp_path, verb, preset, old, new, grid_n):
        """The eigen solve refuses the grid before numpy can warn: `run`
        exits 2, the other verbs 3, each with one line on stderr."""
        text = preset_text(preset).replace(f"\n{old}\n", f"\n{new}\n")
        assert text != preset_text(preset)
        (tmp_path / "pe1.ini").write_text(text)
        src = Path(fs.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "flocstat", verb, "--config", "pe1.ini",
             "--grid-n", str(grid_n), "--out", "out"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == (EXIT_CONFIG if verb == "run" else EXIT_NO_CONVERGENCE)
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert "not resolved at cell Peclet 1.000" in done.stderr
        assert "RuntimeWarning" not in done.stderr and "infs or NaNs" not in done.stderr

    @pytest.mark.parametrize("verb", ["run", "eigen", "check", "steady"])
    def test_subnormal_diffusivity_is_one_line(self, tmp_path, capsys, verb):
        """At du = 1e-320, 1/(2d) overflows a double: the cell Peclet number
        is inf, and the grid hint is an exact integer, not an OverflowError."""
        text = preset_text("fig2a").replace("\ndu = 1\n", "\ndu = 1e-320\n")
        (tmp_path / "tiny.ini").write_text(text)
        code = main([verb, "--config", str(tmp_path / "tiny.ini"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == (EXIT_CONFIG if verb == "run" else EXIT_NO_CONVERGENCE)
        assert len(err.splitlines()) == 1, err
        assert "grid too coarse" in err and "cell Peclet" in err and " inf > 1" in err
        assert re.search(r"use n >=? 5000055664706\d{300,}$", err)


class TestPackaging:
    def test_readme_cli_flags_exist(self, capsys):
        """Every --flag on a verb's line of the README's CLI usage block is a
        documented option of that verb."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        usage = re.search(r"## CLI\n\n```\n(.*?)```", readme, flags=re.S).group(1)
        lines = [line.split() for line in usage.splitlines() if line.startswith("flocstat ")]
        assert [words[1] for words in lines] == ["run", "sweep", "eigen", "steady", "check"]
        for words in lines:
            with pytest.raises(SystemExit):
                main([words[1], "--help"])
            options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
            named = set(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
            assert named and named <= options, (words[1], named - options)

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        config = fs.parse_config(blocks[0])
        assert config.sweep is not None and config.sweep.parameter == "dv"

    def test_readme_config_format_names_every_key(self):
        """Every section and key of the schema is shown, as an INI line or a
        commented one, in the README's config format."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"### Config format\n(.*?)\n### ", readme, flags=re.S).group(1)
        for section, keys in _SCHEMA.items():
            assert f"\n[{section}]\n" in text, section
            for key in keys:
                assert re.search(rf"^(# )?{key} = ", text, flags=re.M), (section, key)

    def test_readme_library_example_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        monkeypatch.chdir(tmp_path)
        exec(compile(blocks[0], "README.md", "exec"), {})
        verdict, sup_u = capsys.readouterr().out.split()
        assert verdict == "extinction-v" and float(sup_u) > 0.0
        assert (tmp_path / "out" / "fig2a" / "monitors.csv").is_file()

    def test_readme_names_are_exported(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        named = set(re.findall(r"\bfs\.(\w+)", readme))
        assert "simulate" in named
        assert sorted(named - set(fs.__all__)) == []

    def test_readme_preset_table_names_every_preset(self):
        """README's preset table has one row per shipped preset, its aliases
        line is PRESET_ALIASES, and its overview counts the presets."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = re.search(r"## Presets\n(.*?)\n## ", readme, flags=re.S).group(1)
        rows = re.findall(r"^\| ([\w /]+?) \|", section, flags=re.M)
        names = [name.strip() for row in rows for name in row.split("/")]
        assert sorted(names) == sorted(["preset", *available_presets()])
        aliases = re.search(r"^Aliases: (.*)$", section, flags=re.M).group(1)
        assert dict(re.findall(r"`(\w+)`→(\w+)", aliases)) == PRESET_ALIASES
        count = re.search(r"(\d+) bundled presets", readme).group(1)
        assert int(count) == len(available_presets())

    def test_every_export_resolves(self):
        assert [name for name in fs.__all__ if not hasattr(fs, name)] == []

    def test_python_m_flocstat_runs_without_warnings(self, tmp_path):
        src = Path(fs.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "flocstat", "eigen", "--preset", "fig2a"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("d0: d=1 lambda=")

    def test_python_m_flocstat_sweep_runs_without_warnings(self, tmp_path):
        """Forking the sweep's workers raises no warning, even as an error."""
        (tmp_path / "sweep.ini").write_text(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5 10 1\n")
        src = Path(fs.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "flocstat", "sweep", "--config", "sweep.ini",
             "--out", "out"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("sweep over dv: 3 points, 0 failed;")

    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        """Importing the CLI loads no heavy scipy subpackage, and no process
        pool's modules."""
        src = Path(fs.__file__).resolve().parents[1]
        code = (
            "import sys, flocstat.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special', "
            "'scipy.linalg', 'numpy.f2py', 'concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "[]"

    def test_sweep_imports_no_module(self, tmp_path):
        """A sweep loads no module that importing the CLI did not: its point
        processes are plain forks, so neither ``multiprocessing`` nor
        ``concurrent.futures`` is imported."""
        src = Path(fs.__file__).resolve().parents[1]
        code = (
            "import contextlib, io, sys\n"
            "import flocstat.cli as cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['sweep', '--preset', 'motility', '--t-end', '0.1'])\n"
            "print(code, sorted(set(sys.modules) - before),\n"
            "      sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"{EXIT_OK} [] []\n"

    def test_no_verb_imports_the_scipy_linalg_package(self, tmp_path):
        """No verb loads any scipy.linalg module: the LAPACK routines are
        numpy's own, so neither scipy/linalg/__init__.py, whose set-up is
        most of a CLI process's start-up, nor scipy's LAPACK extension is
        loaded, not even deferred.  The scipy package itself is imported, and
        must be: perfbench's worker reads ``sys.modules["scipy"].__version__``."""
        src = Path(fs.__file__).resolve().parents[1]
        code = (
            "import contextlib, io, sys\n"
            "from flocstat.cli import main\n"
            "for argv in (['run', '--preset', 'blowup_demo'], ['steady', '--preset', 'fig2a'],\n"
            "             ['eigen', '--preset', 'fig2a'], ['check', '--preset', 'fig2a']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv + ['--out', 'out'])\n"
            "    print(argv[0], code, 'scipy' in sys.modules, 'scipy.linalg' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"run {EXIT_BLOW_UP} True False",
            f"steady {EXIT_OK} True False",
            f"eigen {EXIT_OK} True False",
            f"check {EXIT_OK} True False",
            "[]",
        ]
