"""Tests for config parsing, presets, CSV outputs, sweeps, and exit codes."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flocstat as fs
from flocstat.cli import (
    EXIT_BLOW_UP,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    PRESET_ALIASES,
    available_presets,
    build_initial_state,
    main,
    monitor_columns,
)

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

    def test_unknown_section_rejected(self):
        with pytest.raises(fs.ConfigError, match="unknown section"):
            fs.parse_config(MINIMAL + "\n[extras]\nknob = 1\n")

    def test_construction_violation_reported(self):
        with pytest.raises(fs.ConfigError, match="positive"):
            fs.parse_config(MINIMAL.replace("yu = 0.1", "yu = -1"))

    def test_tabulated_initial_profile(self):
        cfg = fs.parse_config(MINIMAL.replace("\nu = 1", "\nu = 0 1 0"))
        grid = fs.Grid(cfg.controls.grid_n)
        state = build_initial_state(cfg, grid)
        assert state.u[0, 0] == 0.0
        assert state.u[0, 50] == pytest.approx(1.0)
        assert state.u[0, -1] == 0.0

    def test_negative_initial_rejected(self):
        with pytest.raises(fs.ConfigError, match="nonnegative"):
            fs.parse_config(MINIMAL.replace("v = 1", "v = -0.5"))

    @pytest.mark.parametrize("value", ["inf", "nan", "0 inf 1"])
    def test_non_finite_initial_rejected(self, value):
        with pytest.raises(fs.ConfigError) as err:
            fs.parse_config(MINIMAL.replace("\nu = 1", f"\nu = {value}"))
        assert err.value.problems == ("[initial] u: values must be finite",)

    def test_sweep_section(self):
        cfg = fs.parse_config(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 0.1 1 10\n")
        assert cfg.sweep.parameter == "dv"
        assert cfg.sweep.values == (0.1, 1.0, 10.0)

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(fs.ConfigError, match="not sweepable"):
            fs.parse_config(MINIMAL + "\n[sweep]\nparameter = q\nvalues = 1\n")

    def test_two_species_document(self):
        text = MINIMAL.replace("du = 1", "du = 1 2").replace(
            "dv = 10", "dv = 10 10"
        ).replace("yu = 0.1", "yu = 0.1 0.2").replace(
            "yv = 0.1", "yv = 0.1 0.2"
        ).replace(
            "f = monod 4 1", "f = monod 4 1; haldane 3 1 1"
        ).replace("d0 = 1", "d0 = 1\nm = 2")
        cfg = fs.parse_config(text)
        assert cfg.params.m == 2
        assert isinstance(cfg.kin.f[1], fs.Haldane)
        assert len(cfg.kin.alpha) == 2
        assert len(cfg.initial_u) == 2


class TestPresets:
    def test_all_presets_round_trip(self):
        names = fs.available_presets()
        assert len(names) == 21
        for name in names:
            cfg = fs.load_preset(name)
            assert cfg.params is not None
            assert cfg.kin is not None
            assert cfg.controls.t_end > 0

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
        assert monitor_columns(2) == [
            "t", "sup_S", "sup_u_1", "sup_v_1", "sup_u_2", "sup_v_2",
            "l1_S", "l1_u_1", "l1_v_1", "l1_u_2", "l1_v_2", "mass", "Q", "dt",
        ]

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

    def test_reproductive_numbers_in_rows(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 10\n"
        cfg = fs.parse_config(text)
        rows = fs.sweep(cfg, tmp_path)
        assert float(rows[0]["R_u"]) == pytest.approx(1.7065, abs=1e-3)
        assert float(rows[0]["R_v"]) == pytest.approx(2.4589, abs=1e-3)


class TestMainEntry:
    def test_run_exit_ok(self, tmp_path, capsys):
        code = main(["run", "--preset", "fig2a", "--t-end", "2",
                     "--grid-n", "101", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("verdict: ")

    def test_run_exit_blow_up(self, tmp_path, capsys):
        code = main(["run", "--preset", "blowup_demo", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_BLOW_UP
        assert "blow-up" in out
        assert "t=" in out

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

    def test_horizon_within_time_tolerance_exits_2(self, tmp_path, capsys):
        """A positive horizon no longer than simulate's time tolerance would
        end the run before its first step."""
        code = main(["run", "--preset", "fig2a", "--t-end", "1e-13",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("run rejected: ") and "time tolerance" in err
        assert not (tmp_path / "out").exists()

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
        assert "quasipositive: satisfied" in out
        assert "reproductive numbers" in out

    def test_steady_verb(self, tmp_path, capsys):
        code = main(["steady", "--preset", "fig2a", "--grid-n", "201",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "fixed point: converged=True" in out
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

    def test_steady_non_finite_iterate_exits_3(self, tmp_path, capsys):
        code = main(["steady", "--preset", "blowup_demo", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert captured.err == "steady solve stopped: non-finite iterate at iteration 12\n"
        assert not (tmp_path / "steady.csv").exists()

    def test_steady_not_contracting_exits_3_with_one_line(self, tmp_path, capsys):
        code = main(["steady", "--preset", "fig6n", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert "fixed point: converged=False" in captured.out
        assert "coexistence: feasible=" in captured.out
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("steady solve stopped: not contracting: ")
        assert (tmp_path / "steady.csv").is_file()

    def test_check_verb_coarse_grid_exits_without_traceback(self, capsys):
        code = main(["check", "--preset", "fig4e"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert "quasipositive:" in captured.out
        assert len(captured.err.strip().splitlines()) == 1
        assert "grid too coarse" in captured.err

    def test_threads_flag_hidden_and_only_on_sweep(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--threads" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig2a", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2  # argparse's usage error

    def test_sweep_verb(self, tmp_path, capsys):
        # --threads is accepted and ignored on sweep
        cfg_path = tmp_path / "sweep.ini"
        cfg_path.write_text(MINIMAL + "\n[sweep]\nparameter = dv\nvalues = 5 10\n")
        code = main(["sweep", "--config", str(cfg_path), "--threads", "2",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.csv").is_file()

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
    # no shipped preset has a [sweep] section
    **{("sweep", preset): EXIT_CONFIG for preset in available_presets()},
    # fig4e's dv=0.001 sits at cell Peclet 1 on its 501-node grid
    ("eigen", "fig4e"): EXIT_NO_CONVERGENCE,
    ("check", "fig4e"): EXIT_NO_CONVERGENCE,
    **{("steady", preset): EXIT_NO_CONVERGENCE
       for preset in ("blowup_demo", "fig4e", "fig6n", "fig6o", "fig6p")},
}


class TestExitCodeMatrix:
    def test_every_verb_on_every_preset_exits_with_its_pinned_code(self, tmp_path, capsys):
        """A call that raises out of main fails the test with its traceback."""
        got = {}
        for preset in available_presets():
            for verb in ("run", "sweep", "eigen", "steady", "check"):
                short = ["--t-end", "1"] if verb in ("run", "sweep") else []
                out = tmp_path / verb / preset
                got[verb, preset] = main([verb, "--preset", preset, "--out", str(out), *short])
        capsys.readouterr()
        assert got == {key: NONZERO_EXITS.get(key, EXIT_OK) for key in got}


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

    def test_every_export_resolves(self):
        assert [name for name in fs.__all__ if not hasattr(fs, name)] == []

    @pytest.mark.parametrize("argv", [
        ["blowup_search.py", "--t-end", "2", "--max-doublings", "6"],
        ["motility_sweep.py", "--t-end", "0.05", "--values", "0.1", "1", "--out", "out"],
        ["reproduce_figures.py", "--only", "fig2a", "--t-end", "0.05", "--out", "out"],
    ])
    def test_script_runs(self, tmp_path, argv):
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert done.returncode == 0, done.stderr

    def test_python_m_flocstat_runs_without_warnings(self, tmp_path):
        src = Path(fs.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "flocstat", "eigen", "--preset", "fig2a"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("d0: d=1 lambda=")

    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        src = Path(fs.__file__).resolve().parents[1]
        code = (
            "import sys, flocstat.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "[]"
