import functools
import json
import math
import os
import re
import subprocess
import sys

import pytest

import dampedeuler
from dampedeuler import cli
from dampedeuler.cli import csv_columns, main
from dampedeuler.config import ConfigError, load_config, resolve_config
from dampedeuler.verify import check_partition_of_unity
from dampedeuler.littlewood_paley import build_filter_bank
from dampedeuler.fields import GridSpec

from conftest import bump_run_doc


def write_config(path, **overrides):
    doc = {
        "physics": {"alpha": 0.5, "gamma": 1},
        "grid": {"n": 32},
        "time": {"dt": 2e-3, "t_end": 0.2, "record_every": 10},
        "ic": {"u_preset": "taylor_green"},
    }
    for section, patch in overrides.items():
        doc.setdefault(section, {}).update(patch)
    path.write_text(json.dumps(doc))
    return doc


class TestConfigValidation:
    def test_defaults_fill_in(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        resolved = load_config(str(cfg))
        assert resolved["pressure"]["tol"] == 1e-10
        assert resolved["smallness"]["K"] == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="physics.viscosity"):
            resolve_config({"physics": {"viscosity": 0.1}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="turbulence"):
            resolve_config({"turbulence": {}})

    def test_negative_alpha_names_key(self):
        with pytest.raises(ConfigError, match="physics.alpha"):
            resolve_config({"physics": {"alpha": -1.0}})

    def test_besov_indices_parse_inf(self):
        resolved = resolve_config({"track": {"besov_indices": [[1, "inf", 1], [2, 2, 1]]}})
        from dampedeuler.config import parse_besov_indices

        indices = parse_besov_indices(resolved["track"]["besov_indices"])
        assert math.isinf(indices[0].p)
        assert indices[1].p == 2.0

    def test_bad_gamma(self):
        with pytest.raises(ConfigError, match="physics.gamma"):
            resolve_config({"physics": {"gamma": 2}})


class TestRunCommand:
    def test_successful_run_outputs(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == ",".join(csv_columns(1))
        # t_end/(dt*record_every) + 1 rows
        assert len(lines) - 1 == 11
        # strict numeric format: 17 significant digits, '.' separator
        cell = lines[1].split(",")[1]
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", cell)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is True
        assert summary["config"]["physics"]["alpha"] == 0.5
        assert any(c["theorem_id"] == "gamma1_2d" for c in summary["conditions"])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, ic={"u_preset": "random_shell", "u_params": {"j": 2, "amplitude": 0.3}, "seed": 5})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()

    def test_summary_counts_the_pressure_solves(self, tmp_path):
        # ten steps of the bump_contrast4_n64 benchmark workload: four solves
        # a step and one for the final record; counts only, so reruns match
        cfg = tmp_path / "bump.json"
        cfg.write_text(json.dumps(bump_run_doc(3.0)))
        summaries = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            summaries.append(json.loads((out / "summary.json").read_text()))
        expected = {"pressure": {"solves": 41, "iterations": 110, "max_iterations": 8}}
        assert summaries[0]["telemetry"] == summaries[1]["telemetry"] == expected

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        write_config(cfg, physics={"alpha": -1.0})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "physics.alpha" in capsys.readouterr().err

    def test_t_end_off_the_step_grid_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        write_config(cfg, time={"dt": 0.003, "t_end": 0.01})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "t_end" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invariant_abort_keeps_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "abort.json"
        write_config(
            cfg,
            physics={"alpha": 0.5, "gamma": 0},
            ic={"rho_preset": "single_mode", "rho_params": {"k": 1, "amplitude": 0.6}},
            pressure={"max_iter": 1},
            time={"dt": 2e-3, "t_end": 1.0, "record_every": 10},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert (out / "records.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is False
        assert summary["failure"]


class TestCheckCommand:
    def test_uniform_density_passes(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        write_config(cfg)
        assert main(["check", "--config", str(cfg)]) == 0
        reports = json.loads(capsys.readouterr().out)
        planar = next(r for r in reports if r["theorem_id"] == "gamma1_2d")
        assert planar["lhs"][0] == 0.0
        assert planar["satisfied"] is True

    def test_reference_small_data_config(self, tmp_path, capsys):
        # norms close to (|u0| = 1, |rho0-1| = 0.01): lhs near 1.12, satisfied
        cfg = tmp_path / "check.json"
        write_config(
            cfg,
            physics={"alpha": 1.0, "gamma": 1},
            grid={"n": 64},
            ic={
                "u_preset": "taylor_green",
                "u_params": {"amplitude": 0.501},
                "rho_preset": "single_mode",
                "rho_params": {"k": 1, "amplitude": 0.01},
            },
        )
        assert main(["check", "--config", str(cfg)]) == 0
        reports = json.loads(capsys.readouterr().out)
        planar = next(r for r in reports if r["theorem_id"] == "gamma1_2d")
        assert 0.9 <= planar["lhs"][0] <= 1.4
        assert planar["satisfied"] is True

    def test_large_data_fails_with_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        write_config(
            cfg,
            physics={"alpha": 0.1, "gamma": 1},
            ic={
                "u_preset": "taylor_green",
                "u_params": {"amplitude": 10.0},
                "rho_preset": "single_mode",
                "rho_params": {"k": 1, "amplitude": 0.8},
            },
            time={"dt": 1e-3, "t_end": 0.0, "record_every": 1},
        )
        assert main(["check", "--config", str(cfg)]) == 3

    def test_gamma0_uses_general_pair(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        write_config(cfg, physics={"alpha": 2.0, "gamma": 0})
        code = main(["check", "--config", str(cfg)])
        reports = json.loads(capsys.readouterr().out)
        assert any(r["theorem_id"] == "gamma0_general" for r in reports)
        governing = next(r for r in reports if r["theorem_id"] == "gamma0_general")
        assert code == (0 if governing["satisfied"] else 3)


class TestConditionsOutOfFloatRange:
    """A left-hand side that overflows reads Infinity, u0 = 0 gives 0, and no
    report holds NaN."""

    @staticmethod
    def lhs(reports):
        return {r["theorem_id"]: (r["lhs"], r["satisfied"]) for r in reports}

    def test_huge_surrogate_constant(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        write_config(cfg, smallness={"K": 1000.0})
        assert main(["check", "--config", str(cfg)]) == 0  # uniform density: planar lhs 0
        assert self.lhs(json.loads(capsys.readouterr().out)) == {
            "gamma1_general": ([math.inf], False), "gamma1_2d": ([0.0], True)}

    @pytest.mark.parametrize("value", [1e100, 1e160])
    def test_huge_constant_density(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, time={"t_end": 0.02}, ic={"rho_params": {"value": value}})
        expected = {"gamma1_general": ([math.inf], False), "gamma1_2d": ([math.inf], False)}
        assert main(["check", "--config", str(cfg)]) == 3
        assert self.lhs(json.loads(capsys.readouterr().out)) == expected
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        if value < 1e150:
            assert code == 0
            assert summary["completed"] is True
            assert self.lhs(summary["conditions"]) == expected
        else:  # |grad Pi| near 1e160: its L^2 norm overflows, an abort rather than NaN rows
            assert code == 2
            assert summary["completed"] is False
            assert summary["failure"] == "diagnostics not finite at t = 0: l2_gradPi = inf"
            assert (out / "records.csv").read_text() == ",".join(csv_columns(1)) + "\n"

    def test_zero_velocity_over_a_huge_bump(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        write_config(cfg, physics={"gamma": 0},
                     ic={"u_params": {"amplitude": 0.0}, "rho_preset": "gaussian_bump",
                         "rho_params": {"amplitude": 999.0}})
        assert main(["check", "--config", str(cfg)]) == 0
        assert self.lhs(json.loads(capsys.readouterr().out)) == {
            "gamma1_general": ([0.0], True), "gamma0_general": ([0.0, 0.0], True)}


class TestVerifyCommand:
    def test_quick_level_passes_within_a_minute(self):
        import time

        from dampedeuler.verify import run_verification

        start = time.perf_counter()
        checks = run_verification("quick")
        elapsed = time.perf_counter() - start
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        assert elapsed < 60.0

    def test_partition_check_detects_tampering(self):
        bank = build_filter_bank(GridSpec(n=32))
        assert check_partition_of_unity(bank=bank).passed
        boxes = list(bank.boxes)
        broken = boxes[2].copy()  # block 1, at the mode (3, 0)
        broken[3, 0] += 1e-3
        boxes[2] = broken
        tampered = type(bank)(bank.grid, bank.j_max, tuple(boxes))
        assert not check_partition_of_unity(bank=tampered).passed

    def test_failed_check_exits_3(self, monkeypatch, capsys):
        from dampedeuler import cli
        from dampedeuler.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_verification", lambda level: [CheckResult("broken", False, "forced")]
        )
        assert main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_raising_check_is_a_fail_line(self, monkeypatch, capsys):
        from dampedeuler import verify
        from dampedeuler.elliptic import PressureSolveError

        def passing(*args, **kwargs):
            return verify.CheckResult("stub", True, "stubbed")

        @functools.wraps(verify.check_lax_milgram)  # a stand-in under the check's own name
        def raising(*args, **kwargs):
            raise PressureSolveError("pressure solve stalled", residual=1.0, iterations=500)

        for name in [n for n in vars(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, passing)
        monkeypatch.setattr(verify, "check_lax_milgram", raising)
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert re.search(r"^lax_milgram +FAIL .* raised PressureSolveError: pressure solve stalled$", out, re.M), out


class TestCrashesFoundByFuzzing:
    """Minimal configs on which run or check used to end in a traceback."""

    def test_subnormal_velocity_runs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"n": 16}, time={"dt": 0.01, "t_end": 0.02, "record_every": 1},
                     ic={"u_preset": "swirl", "u_params": {"amplitude": 1e-310}})
        assert main(["check", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_overflowing_step_count_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"n": 16}, time={"dt": 1e-12, "t_end": 1e300})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: time.t_end: ")

    def test_overflowing_besov_weight_aborts_naming_its_column(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"n": 16}, time={"dt": 0.01, "t_end": 0.02, "record_every": 1},
                     track={"besov_indices": [[2000, 2, 1]]})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["completed"]
        assert "besov_u_0 = inf" in summary["failure"]


class TestSweepCommand:
    def test_alpha_sweep_recovers_rates(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 1.5, "record_every": 5})
        out = tmp_path / "sweep_out"
        code = main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "0.25,0.5,1.0", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        for value in (0.25, 0.5, 1.0):
            fit = summary["runs"][f"{value:g}"]["decay_fits"]["l2_u"]
            assert abs(fit["rate"] - value) / value <= 0.01
            assert (out / f"physics.alpha={value:g}" / "records.csv").exists()

    def test_empty_values_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        write_config(cfg)
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "", "--out", str(tmp_path / "o"),
        ]) == 1

    def test_unknown_param_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        write_config(cfg)
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.dragons",
            "--values", "1,2", "--out", str(tmp_path / "o"),
        ]) == 1

    def test_close_values_get_distinct_directories(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "sweep.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        out = tmp_path / "o"
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "0.1,0.1000001", "--out", str(out),
        ]) == 0
        assert (out / "physics.alpha=0.1" / "summary.json").exists()
        assert (out / "physics.alpha=0.1000001" / "summary.json").exists()
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["runs"]["0.1000001"]["config"]["physics"]["alpha"] == 0.1000001

    def test_duplicate_values_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        write_config(cfg)
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "0.5,0.5", "--out", str(tmp_path / "o"),
        ]) == 1
        assert "duplicate" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integer_key_can_be_swept(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "sweep.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        out = tmp_path / "o"
        assert main([
            "sweep", "--config", str(cfg), "--param", "ic.seed",
            "--values", "1,2", "--out", str(out),
        ]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["values"] == [1, 2]
        assert summary["runs"]["2"]["config"]["ic"]["seed"] == 2
        assert (out / "ic.seed=1" / "records.csv").exists()

    def test_density_amplitude_sweep_monotone_condition(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "sweep.json"
        write_config(
            cfg,
            time={"dt": 2e-3, "t_end": 0.0, "record_every": 1},
            ic={"rho_preset": "single_mode", "rho_params": {"k": 1, "amplitude": 0.0}},
        )
        out = tmp_path / "rho_sweep"
        code = main([
            "sweep", "--config", str(cfg), "--param", "ic.rho_params.amplitude",
            "--values", "0,0.1,0.2", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        lhs = []
        for v in ("0", "0.1", "0.2"):
            planar = next(
                c for c in summary["runs"][v]["conditions"] if c["theorem_id"] == "gamma1_2d"
            )
            lhs.append(planar["lhs"][0])
        assert lhs[0] < lhs[1] < lhs[2]


class TestConfigErrorsAtRunTime:
    @pytest.mark.parametrize("amplitude", [2.0, math.nan])
    def test_preset_rejecting_a_value_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, amplitude
    ):
        monkeypatch.setenv("THREADS", "2")  # the sweep runs in a process pool
        cfg = tmp_path / "bad.json"
        write_config(
            cfg,
            time={"t_end": 0.0},
            ic={"rho_preset": "single_mode", "rho_params": {"amplitude": amplitude}},
        )
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["check", "--config", str(cfg)],
            ["sweep", "--config", str(cfg), "--param", "physics.alpha",
             "--values", "0.5,1", "--out", str(tmp_path / "s")],
        ):
            assert main(argv) == 1, argv
            assert ("config error: ic.rho_params: rejected by preset 'single_mode': "
                    in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("u_preset, amplitude", [
        ("taylor_green", math.nan),
        ("random_shell", math.inf),
    ])
    def test_non_finite_velocity_is_a_config_error(self, tmp_path, capsys, u_preset, amplitude):
        cfg = tmp_path / "bad.json"
        write_config(
            cfg,
            grid={"n": 16},
            time={"t_end": 0.0},
            ic={"u_preset": u_preset, "u_params": {"amplitude": amplitude}},
        )
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["check", "--config", str(cfg)],
        ):
            assert main(argv) == 1, argv
            assert (f"config error: ic.u_params: rejected by preset {u_preset!r}: amplitude: "
                    "expected a finite number") in capsys.readouterr().err
        assert not out.exists()

    def test_removed_dealias_fraction_is_a_config_error(self, tmp_path, capsys):
        # the truncation is the fixed 2/3 rule of the grid; the key is gone
        cfg = tmp_path / "old.json"
        write_config(cfg, grid={"n": 32, "dealias_fraction": 2.0 / 3.0})
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["check", "--config", str(cfg)],
        ):
            assert main(argv) == 1, argv
            assert "config error: grid.dealias_fraction: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, preset, params, message", [
        ("u", "random_shell", {"seed": 1.5}, "seed: expected an integer, got 1.5"),
        ("u", "random_shell", {"j": 1.5}, "j: expected an integer, got 1.5"),
        ("u", "swirl", {"amplitude": "2"}, "amplitude: expected a finite number, got '2'"),
        ("u", "taylor_green", {"amplitude": True}, "amplitude: expected a finite number, got True"),
        ("rho", "single_mode", {"k": 1.5}, "k: expected an integer, got 1.5"),
        ("rho", "gaussian_bump", {"amplitude": math.inf}, "amplitude: expected a finite number, got inf"),
    ], ids=["shell-seed", "shell-j", "swirl-string", "tg-bool", "single_mode-k", "bump-inf"])
    def test_preset_parameter_type_is_a_config_error(
        self, tmp_path, capsys, kind, preset, params, message
    ):
        cfg = tmp_path / "bad.json"
        write_config(cfg, grid={"n": 16}, time={"t_end": 0.0},
                     ic={f"{kind}_preset": preset, f"{kind}_params": params})
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["check", "--config", str(cfg)],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"config error: ic.{kind}_params: " in err and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("kind, preset, key", [
        ("u", "random_shell", "amplitude"),
        ("u", "taylor_green", "amplitude"),
        ("u", "swirl", "amplitude"),
        ("rho", "gaussian_bump", "amplitude"),
        ("rho", "constant", "value"),
    ])
    def test_overflowing_preset_is_a_config_error(self, tmp_path, capsys, kind, preset, key):
        # finite, but the field overflows once scaled, transformed or squared;
        # the tier-1 filter turns any RuntimeWarning on the way into an error
        cfg = tmp_path / "huge.json"
        write_config(cfg, grid={"n": 16}, time={"t_end": 0.0},
                     ic={f"{kind}_preset": preset, f"{kind}_params": {key: 1e308}})
        name = "velocity" if kind == "u" else "density"
        out = tmp_path / "o"
        for argv in (
            ["run", "--config", str(cfg), "--out", str(out)],
            ["check", "--config", str(cfg)],
        ):
            assert main(argv) == 1, argv
            assert f"config error: ic.{kind}_params: initial {name} overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_sweep_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        write_config(cfg)
        out = tmp_path / "o"
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "nan", "--out", str(out),
        ]) == 1
        assert "config error: physics.alpha:" in capsys.readouterr().err
        assert not out.exists()

    def test_cfl_advisory_once_per_run(self, tmp_path):
        import warnings

        cfg = tmp_path / "cfl.json"
        write_config(cfg, time={"dt": 0.2, "t_end": 0.0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert sum("CFL" in str(w.message) for w in caught) == 1


def _no_simulation(config):
    raise AssertionError("a simulation started")


class TestRefusedBeforeAnyRun:
    @pytest.mark.parametrize("name", ["records.csv", "summary.json"])
    def test_run_refuses_existing_output(self, tmp_path, capsys, monkeypatch, name):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("kept")
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert str(out / name) in capsys.readouterr().err
        assert (out / name).read_text() == "kept"

    @pytest.mark.parametrize("existing", ["physics.alpha=0.5", "sweep_summary.json"])
    def test_sweep_refuses_existing_output(self, tmp_path, capsys, monkeypatch, existing):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "sweep.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        out = tmp_path / "o"
        out.mkdir()
        (out / existing).write_text("kept")
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "0.25,0.5", "--out", str(out),
        ]) == 1
        assert str(out / existing) in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [existing]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_naming_a_file_refused(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "c.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        out = tmp_path / "afile"
        out.write_text("kept")
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            args += ["--param", "physics.alpha", "--values", "0.25,0.5"]
        assert main([command, *args]) == 1
        assert f"{command} error: --out {out} exists and is not a directory" in capsys.readouterr().err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_below_a_file_refused(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("THREADS", "1")
        cfg = tmp_path / "c.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub"
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        args = ["--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            args += ["--param", "physics.alpha", "--values", "0.25,0.5"]
        assert main([command, *args]) == 1
        assert (f"{command} error: --out {out} lies below {afile}, which exists and is not "
                f"a directory") in capsys.readouterr().err
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_threads_rejected(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("THREADS", threads)
        cfg = tmp_path / "sweep.json"
        write_config(cfg, time={"dt": 2e-3, "t_end": 0.0, "record_every": 1})
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        assert main([
            "sweep", "--config", str(cfg), "--param", "physics.alpha",
            "--values", "0.25,0.5", "--out", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"sweep error: THREADS must be a positive integer, got {threads!r}" in err
        assert not (tmp_path / "o").exists()


class TestImports:
    def test_cli_loads_no_pool_and_no_self_checks(self):
        # run imports only what it uses: sweep loads the process pool, and
        # verify the self-checks, when they are called
        code = ("import sys, dampedeuler.cli; print(' '.join(m for m in sys.modules"
                " if m.split('.')[0] in ('concurrent', 'multiprocessing') or m == 'dampedeuler.verify'))")
        src = os.path.dirname(os.path.dirname(dampedeuler.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == []
