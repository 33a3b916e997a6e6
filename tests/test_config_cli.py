import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bentlattice
from bentlattice import ConfigError
from bentlattice.cli import main as cli_main
from bentlattice.config import (MAX_SWEEP_POINTS, SCHEMA, apply_overrides,
                                canonical_dump, parse_config_text, resolve,
                                scenario_from_text, sweep_point_count)
from bentlattice.fieldio import read_csv
from bentlattice.presets import preset_names, preset_text
from bentlattice.runner import run_scenario, sweep_axis_values

MINIMAL_TWO_LEVEL = """
[scenario]
tier = two_level
[drive]
kind = single_cycle
period_cm = 0.6676
phi0 = 6.0
[numerics]
z_end_cm = 0.6676
[output]
prefix = mini
"""


def _two_level_sweep_rows(tmp_path, axis, values, overrides=()):
    """Rows of a two-level sweep of MINIMAL_TWO_LEVEL over ``axis``."""
    text = MINIMAL_TWO_LEVEL.replace("tier = two_level", "tier = sweep")
    text += f"\n[sweep]\ntier = two_level\naxis = {axis}\nvalues = {values}\n"
    run_scenario(scenario_from_text(text, list(overrides)), str(tmp_path))
    return read_csv(tmp_path / "mini_sweep.csv")[1]


def _two_level_p_final(overrides):
    """P_final of a single MINIMAL_TWO_LEVEL run with the overrides."""
    scn = scenario_from_text(MINIMAL_TWO_LEVEL, overrides)
    return run_scenario(scn, None)["summary"]["P_final"]


class TestParsing:
    def test_unknown_key_carries_path(self):
        with pytest.raises(ConfigError, match="drive.amplitude_nm"):
            parse_config_text("[drive]\namplitude_nm = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[turbo]\nx = 1\n")

    def test_bad_enum_rejected(self):
        text = MINIMAL_TWO_LEVEL.replace("single_cycle", "sawtooth")
        with pytest.raises(ConfigError, match="drive.kind"):
            scenario_from_text(text)

    def test_drive_amplitude_exclusivity(self):
        text = MINIMAL_TWO_LEVEL + "\n[drive]\namplitude_um = 10\nphi0 = 1\n"
        with pytest.raises(ConfigError, match="amplitude"):
            scenario_from_text(text)

    def test_missing_z_end_rejected(self):
        text = MINIMAL_TWO_LEVEL.replace("z_end_cm = 0.6676", "")
        with pytest.raises(ConfigError, match="z_end"):
            scenario_from_text(text)

    def test_comments_and_blanks_ignored(self):
        scn = scenario_from_text("# top\n" + MINIMAL_TWO_LEVEL + "\n# tail\n")
        assert scn.tier == "two_level"

    def test_overrides(self):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL,
                                 overrides=["drive.phi0=4.0",
                                            "output.prefix=other"])
        assert scn.resolved["drive"]["phi0"] == 4.0
        assert scn.prefix == "other"

    def test_bad_override_path(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["nosection=1"])

    def test_canonical_round_trip(self):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL)
        text = canonical_dump(scn.resolved)
        again = resolve(parse_config_text(text))
        assert again == scn.resolved

    @pytest.mark.parametrize("preset", preset_names())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_canonical_round_trip_of_drawn_floats(self, preset, data):
        # every float key of the preset, set to a drawn finite value,
        # comes back from the canonical text unchanged
        parsed = parse_config_text(preset_text(preset))
        floats = [(sec, key) for sec, keys in resolve(parsed).items()
                  for key in keys if SCHEMA[sec][key][0] == "float"]
        # values that resolve bounds are drawn inside their bounds, so that
        # few draws are filtered out: a census threshold in (0, 1) and a
        # sweep range of at most MAX_SWEEP_POINTS points
        bounded = {("numerics", "census_threshold"): st.floats(
            0.0, 1.0, exclude_min=True, exclude_max=True)}
        for sec, key in floats:
            parsed.setdefault(sec, {})[key] = abs(data.draw(
                bounded.get((sec, key), st.floats(allow_nan=False,
                                                  allow_infinity=False)),
                label=f"{sec}.{key}"))
        sweep = parsed["sweep"]
        sweep["step"] = max(sweep["step"], abs(
            sweep["stop"] - sweep["start"]) / (MAX_SWEEP_POINTS - 1))
        try:
            resolved = resolve(parsed)
        except ConfigError:
            assume(False)  # e.g. a drawn sweep.stop below sweep.start
        assert resolve(parse_config_text(canonical_dump(resolved))) == resolved

    def test_sweep_axis_must_be_numeric(self):
        text = MINIMAL_TWO_LEVEL.replace("tier = two_level", "tier = sweep")
        text += "\n[sweep]\ntier = two_level\naxis = drive.kind\n"
        with pytest.raises(ConfigError, match="numeric"):
            scenario_from_text(text)


class TestPresets:
    def test_all_presets_validate(self):
        names = preset_names()
        assert {"fig2a", "fig2b", "fig3", "fig3b", "fig3c", "fig4_bands",
                "fig5a", "fig5b", "fig5c"} <= set(names)
        for name in names:
            scn = scenario_from_text(preset_text(name))
            assert scn.tier in ("two_level", "tight_binding", "dirac", "bpm",
                                "bands", "sweep")
            # the geometry guards of the parameter classes accept every preset
            scn.drive_profile()
            scn.optics_params()

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError):
            preset_text("fig99")


class TestSweepValues:
    def test_inclusive_grid(self):
        values = sweep_axis_values({"start": 0.0, "stop": 8.0, "step": 0.05,
                                    "values": None})
        assert len(values) == 161
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(8.0)

    def test_explicit_values(self):
        values = sweep_axis_values({"values": (1.0, 2.0), "start": 0,
                                    "stop": 0, "step": 1})
        assert values == [1.0, 2.0]

    def test_point_count_ceiling(self):
        # the count is arithmetic, so a tiny step is refused by resolve
        # before any point list is built (no test builds one: without the
        # ceiling, the list of 8e300 points would take all memory)
        at_ceiling = {"start": 0.0, "stop": MAX_SWEEP_POINTS - 1.0,
                      "step": 1.0}
        assert sweep_point_count(at_ceiling) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="sweep.step"):
            sweep_point_count({**at_ceiling, "stop": float(MAX_SWEEP_POINTS)})
        for overrides in (["sweep.step=1e-300"],
                          ["sweep.start=-1e308", "sweep.stop=1e308"]):
            with pytest.raises(ConfigError, match="sweep.step") as info:
                scenario_from_text(preset_text("fig3"), overrides)
            assert info.value.field == "sweep.step"
        assert sweep_point_count(
            scenario_from_text(preset_text("fig3")).section("sweep")) == 161


class TestRunner:
    def test_two_level_run_outputs(self, tmp_path):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL)
        manifest = run_scenario(scn, str(tmp_path))
        assert manifest["summary"]["P_final"] == pytest.approx(0.4182, abs=2e-3)
        header, rows = read_csv(tmp_path / "mini_trajectory.csv")
        assert header == ["z_cm", "P", "re_rm", "im_rm", "re_rp", "im_rp"]
        assert rows[0][1] == 0.0
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "mini_resolved.cfg").exists()

    def test_reruns_are_bit_identical(self, tmp_path):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL)
        m1 = run_scenario(scn, str(tmp_path / "a"))
        m2 = run_scenario(scn, str(tmp_path / "b"))
        assert m1["outputs"] == m2["outputs"]
        assert m1["config_sha256"] == m2["config_sha256"]

    def test_resolved_config_reproduces_run(self, tmp_path):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL)
        m1 = run_scenario(scn, str(tmp_path / "a"))
        resolved_text = (tmp_path / "a" / "mini_resolved.cfg").read_text()
        scn2 = scenario_from_text(resolved_text)
        m2 = run_scenario(scn2, str(tmp_path / "b"))
        assert m1["outputs"] == m2["outputs"]

    def test_single_point_sweep_equals_run(self, tmp_path):
        direct = run_scenario(scenario_from_text(MINIMAL_TWO_LEVEL),
                              str(tmp_path / "run"))
        sweep_text = MINIMAL_TWO_LEVEL.replace("tier = two_level",
                                               "tier = sweep")
        sweep_text += "\n[sweep]\ntier = two_level\naxis = drive.phi0\nvalues = 6.0\n"
        swept = run_scenario(scenario_from_text(sweep_text),
                             str(tmp_path / "sweep"))
        header, rows = read_csv(tmp_path / "sweep" / "mini_sweep.csv")
        assert header[3] == "drive.phi0"
        assert len(rows) == 1
        assert rows[0][4] == direct["summary"]["P_final"]
        assert rows[0][5] == "ok"

    def test_sweep_flags_failing_points(self, tmp_path):
        sweep_text = MINIMAL_TWO_LEVEL.replace("tier = two_level",
                                               "tier = sweep")
        # a negative period is rejected by the drive constructor
        sweep_text += ("\n[sweep]\ntier = two_level\naxis = drive.period_cm\n"
                       "values = 0.6676,-1.0\n")
        manifest = run_scenario(scenario_from_text(sweep_text),
                                str(tmp_path))
        assert manifest["summary"]["n_failed"] == 1
        assert manifest["summary"]["status"] == "partial"
        _, rows = read_csv(tmp_path / "mini_sweep.csv")
        assert rows[0][5] == "ok"
        assert rows[1][5].startswith("error:")

    def test_parallel_sweep_matches_serial(self, tmp_path):
        # a two-level sweep always runs batched; a tight-binding one goes
        # through the worker pool when jobs > 1
        sweep_text = MINIMAL_TWO_LEVEL.replace("tier = two_level",
                                               "tier = sweep")
        sweep_text += ("\n[lattice]\nn_sites = 16\n"
                       "[sweep]\ntier = tight_binding\naxis = drive.phi0\n"
                       "values = 1,2,3\n")
        run_scenario(scenario_from_text(sweep_text), str(tmp_path / "serial"),
                     jobs=1)
        run_scenario(scenario_from_text(sweep_text), str(tmp_path / "par"),
                     jobs=2)
        name = "mini_sweep.csv"
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize("axis, values", [
        ("drive.period_cm", "0.6676,0.5,0.81"),
        ("input.qa_over_pi", "0.2,0.25,0.3"),
    ], ids=["period", "qa"])
    def test_batched_sweep_rows_equal_runs(self, tmp_path, axis, values):
        # the period points each have their own step grid (n, h); the qa
        # points share one and are advanced as one batch
        rows = _two_level_sweep_rows(tmp_path, axis, values)
        for row, value in zip(rows, values.split(",")):
            assert row[5] == "ok"
            assert row[4] == _two_level_p_final([f"{axis}={value}"])

    @pytest.mark.parametrize("axis, values, column, scale", [
        ("drive.period_cm", "0.6676,0.5,0.81", 1, 1.0),
        ("input.qa_over_pi", "0.2,0.25,0.3", 2, np.pi),
        ("lattice.delta_cm", "1.817,1.5,2.0", 3, 1.0),
    ], ids=["period", "qa", "delta"])
    def test_sweep_rows_carry_the_point_value(self, tmp_path, axis, values,
                                              column, scale):
        # the lambda_cm, qa and swept-axis columns hold each point's value,
        # not the base scenario's
        rows = _two_level_sweep_rows(tmp_path, axis, values)
        assert [row[column] for row in rows] == [
            float(value) * scale for value in values.split(",")]

    @pytest.mark.parametrize("axis, values, overrides, error", [
        ("drive.period_cm", "0.6676,-1.0,0.5", [], "ParameterError"),
        ("lattice.delta_cm", "1.817,0.0,1.0",
         ["input.qa_over_pi=0.5", "numerics.matrix_kind=reduced"],
         "DegenerateGapError"),
    ], ids=["negative_period", "closed_gap"])
    def test_batched_sweep_keeps_point_errors(self, tmp_path, axis, values,
                                              overrides, error):
        rows = _two_level_sweep_rows(tmp_path, axis, values, overrides)
        good = values.split(",")[::2]
        assert [row[5] for row in rows] == ["ok", f"error:{error}", "ok"]
        assert np.isnan(rows[1][4])
        for row, value in zip(rows[::2], good):
            assert row[4] == _two_level_p_final([*overrides,
                                                 f"{axis}={value}"])

    def test_manifest_checksums_match_files(self, tmp_path):
        import hashlib
        scn = scenario_from_text(MINIMAL_TWO_LEVEL)
        manifest = run_scenario(scn, str(tmp_path))
        stored = json.loads((tmp_path / "manifest.json").read_text())
        for name, digest in stored["outputs"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest


class TestCli:
    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "fig5c" in out

    def test_run_preset(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "fig3c", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "P_final" in out

    def test_run_with_overrides(self, tmp_path):
        code = cli_main(["run", "--preset", "fig3c", "--set",
                         "drive.phi0=4.0", "--out", str(tmp_path)])
        assert code == 0
        stored = json.loads((tmp_path / "manifest.json").read_text())
        assert stored["summary"]["P_final"] > 0.9

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\ntier = warp\n")
        assert cli_main(["run", "--config", str(bad),
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("override", ["drive.phi0=inf",
                                          "lattice.sigma_cm=nan",
                                          "numerics.dz_cm=nan"])
    def test_non_finite_override_exit_code(self, tmp_path, capsys, override):
        code = cli_main(["run", "--preset", "fig3c", "--set", override,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["numerics.z_end_cm=-1",
                                          "numerics.dz_cm=0",
                                          "numerics.dz_cm=-0.001",
                                          "numerics.snapshot_every=0"])
    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "fig2a"],
        ["run", "--preset", "fig2a", "--set", "scenario.tier=tight_binding"],
        ["run", "--preset", "fig2a", "--set", "scenario.tier=dirac"],
        ["run", "--preset", "fig5b"],
        ["sweep", "--preset", "fig3"],
    ], ids=["two_level", "tight_binding", "dirac", "bpm", "fig3_sweep"])
    def test_bad_step_override_exit_code(self, tmp_path, capsys, argv,
                                         override):
        code = cli_main([*argv, "--set", override, "--out", str(tmp_path)])
        assert code == 2
        key = override.split("=", 1)[0]
        assert f"config error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["bands", "--preset", "fig4_bands", "--set", "bands.n_bands=-1"],
         2, "config error: bands.n_bands"),
        (["bands", "--preset", "fig4_bands", "--set", "bands.n_bands=0"],
         2, "config error: bands.n_bands"),
        (["bands", "--preset", "fig4_bands", "--set", "bands.n_q=0"],
         2, "config error: bands.n_q"),
        (["bands", "--preset", "fig4_bands", "--set", "bands.n_q=8",
          "--set", "bands.dump_modes=1", "--set", "bands.mode_q_index=99"],
         2, "config error: bands.mode_q_index"),
        (["run", "--preset", "fig3b", "--set", "numerics.drive_length_cm=5"],
         2, "config error: numerics.drive_length_cm: unknown key"),
        (["run", "--preset", "fig3b", "--set", "drive.period_cm=1e-300"],
         3, "dz"),
        (["run", "--preset", "fig3b", "--set", "lattice.sigma_cm=1e200"],
         3, "overflow"),
        (["run", "--preset", "fig3b", "--set", "lattice.delta_cm=1e150"],
         3, "occupation norm drifted by nan"),
        (["run", "--preset", "fig5b", "--set", "optics.dn1=1e300",
          "--set", "optics.dn2=1e300", "--set", "numerics.z_end_cm=0.01"],
         3, "cell operator is not finite"),
        (["sweep", "--preset", "fig3", "--set", "sweep.start=2",
          "--set", "sweep.stop=1"], 2, "config error: sweep.stop"),
        (["sweep", "--preset", "fig3", "--set", "sweep.values=,"],
         2, "config error: sweep.values"),
        (["sweep", "--preset", "fig3", "--set", "sweep.tier=bands"],
         2, "config error: sweep.tier"),
        (["sweep", "--preset", "fig3", "--set", "sweep.n_target=0"],
         2, "config error: sweep.n_target: unknown key"),
        (["sweep", "--preset", "fig3", "--set", "sweep.axis=bands.n_q",
          "--set", "sweep.values=8,16"], 2, "config error: sweep.axis"),
        (["sweep", "--preset", "fig3", "--set", "sweep.axis=sweep.step"],
         2, "config error: sweep.axis"),
        (["sweep", "--preset", "fig3", "--set", "sweep.tier=bpm", "--set",
          "sweep.axis=bands.n_q"], 2, "config error: sweep.axis"),
        (["bands", "--preset", "fig4_bands", "--set",
          "bands.n_plane_waves=160"], 2, "config error: bands.n_plane_waves"),
        (["bands", "--preset", "fig4_bands", "--set",
          "bands.n_plane_waves=39"], 2, "config error: bands.n_plane_waves"),
        (["run", "--preset", "fig5b", "--set", "bands.n_plane_waves=80"],
         2, "config error: bands.n_plane_waves"),
        (["run", "--preset", "fig5b", "--set", "bands.n_bands=1"],
         2, "config error: bands.n_bands"),
        (["run", "--preset", "fig5b", "--set", "numerics.z_end_cm=0.3",
          "--set", "numerics.census_threshold=1.5"],
         2, "config error: numerics.census_threshold"),
        (["run", "--preset", "fig5b", "--set", "numerics.z_end_cm=0.3",
          "--set", "numerics.census_merge_um=-1"],
         2, "config error: numerics.census_merge_um"),
        (["run", "--preset", "fig3b", "--set", "scenario.tier=dirac",
          "--set", "input.n_points=0"], 3, "n_points must be positive"),
        (["run", "--preset", "fig3b", "--set", "scenario.tier=dirac",
          "--set", "input.n_points=-4"], 3, "n_points must be positive"),
        (["run", "--preset", "fig3b", "--set", "scenario.tier=dirac",
          "--set", "input.xi_span=0"], 3, "xi_span must be positive"),
        (["run", "--preset", "fig5b", "--set", "numerics.grid_points=0"],
         3, "grid_points must be positive"),
        (["run", "--preset", "fig5b", "--set", "numerics.grid_points=-8"],
         3, "grid_points must be positive"),
        (["run", "--preset", "fig5b", "--set", "input.w0_um=0"],
         3, "w0_um must be positive"),
        (["run", "--preset", "fig3b", "--set", "scenario.tier=tight_binding",
          "--set", "input.packet=gaussian", "--set", "input.width_sites=0"],
         3, "width_sites must be positive"),
        (["run", "--preset", "fig3b", "--set", "optics.n_s=0"],
         3, "n_s must be positive"),
        (["run", "--preset", "fig3b", "--set", "optics.spacing_um=0"],
         3, "spacing_um must be positive"),
        (["run", "--preset", "fig3b", "--set", "lattice.spacing_um=0"],
         3, "spacing_um must be positive"),
        (["run", "--preset", "fig3b", "--set", "lattice.spacing_um=-1"],
         3, "spacing_um must be positive"),
        (["run", "--preset", "fig5b", "--set",
          "numerics.absorber_strength_cm=-5", "--set", "numerics.z_end_cm=1"],
         3, "absorber strength_cm must be non-negative"),
    ], ids=["n_bands_negative", "n_bands_zero", "n_q_zero", "mode_q_index",
            "drive_length_cm", "step_ceiling", "sigma_overflow",
            "nan_summary", "non_finite_bands", "empty_sweep_range",
            "empty_sweep_values", "bands_sweep", "sweep_n_target",
            "unread_bands_axis", "sweep_section_axis", "bpm_unread_bands_axis",
            "even_plane_waves", "few_plane_waves", "bpm_even_plane_waves",
            "bpm_one_band", "census_threshold", "census_merge_negative",
            "dirac_no_points", "dirac_negative_points", "dirac_zero_span",
            "bpm_no_points", "bpm_negative_points", "bpm_zero_spot",
            "packet_zero_width", "optics_zero_index", "optics_zero_spacing",
            "lattice_zero_spacing", "lattice_negative_spacing",
            "bpm_negative_absorber"])
    def test_input_boundary_exit_code(self, tmp_path, capsys, argv, code,
                                      message):
        with np.errstate(all="ignore"):
            assert cli_main([*argv, "--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err

    def test_sweep_of_non_finite_points_fails(self, tmp_path):
        # delta = 1e150 overflows every point's coupling, so each point's
        # amplitudes turn NaN: each row is an error, none is written as ok
        with np.errstate(all="ignore"):
            code = cli_main(["sweep", "--preset", "fig3", "--set",
                             "lattice.delta_cm=1e150", "--out", str(tmp_path)])
        assert code == 3
        summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
        assert summary["n_failed"] == summary["n_points"] == 161
        _, rows = read_csv(tmp_path / "fig3_sweep.csv")
        assert len(rows) == 161
        assert {row[5] for row in rows} == {"error:AccuracyError"}

    def test_overflowing_steppers_raise_no_numpy_warnings(self, tmp_path,
                                                          capsys):
        # the composed stepper keeps inf and NaN quiet; the typed checks
        # report them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = cli_main(["sweep", "--preset", "fig3", "--set",
                              "lattice.delta_cm=1e150",
                              "--out", str(tmp_path / "sweep")])
            run = cli_main(["run", "--preset", "fig2a", "--set",
                            "scenario.tier=tight_binding", "--set",
                            "lattice.delta_cm=1e150",
                            "--out", str(tmp_path / "run")])
        assert sweep == 3
        _, rows = read_csv(tmp_path / "sweep" / "fig3_sweep.csv")
        assert [row[5] for row in rows] == ["error:AccuracyError"] * 161
        assert run == 3
        err = capsys.readouterr().err
        assert "power drifted by nan" in err and "retry with dz" in err
        assert "Warning" not in err

    def test_spot_below_grid_spacing_exit_code(self, tmp_path, capsys):
        argv = ["run", "--preset", "fig5b", "--set", "input.w0_um=1e-300",
                "--set", "numerics.z_end_cm=0.01", "--out", str(tmp_path)]
        assert cli_main(argv) == 3
        assert "grid spacing" in capsys.readouterr().err

    def test_non_finite_list_entry_rejected(self, monkeypatch):
        from bentlattice import AccuracyError, runner
        monkeypatch.setitem(
            runner._TIER_RUNNERS, "two_level",
            lambda scn: ({"packet_velocities": [1.0, np.nan]}, ()))
        with pytest.raises(AccuracyError, match="packet_velocities"):
            run_scenario(scenario_from_text(MINIMAL_TWO_LEVEL), None)

    def test_failed_check_writes_no_file(self, tmp_path, monkeypatch):
        # outputs are built and written only after the summary passes its
        # checks, so a failed run leaves neither tables nor a manifest
        from bentlattice import AccuracyError, runner
        iterated = []

        def outputs():
            iterated.append(True)
            yield "trajectory.csv", runner.write_csv, (["z_cm"], [[0.0]])

        monkeypatch.setitem(runner._TIER_RUNNERS, "two_level",
                            lambda scn: ({"P_final": np.nan}, outputs()))
        with pytest.raises(AccuracyError, match="P_final"):
            run_scenario(scenario_from_text(MINIMAL_TWO_LEVEL), str(tmp_path))
        assert iterated == []
        assert list(tmp_path.iterdir()) == []

    def test_numeric_error_exit_code(self, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(MINIMAL_TWO_LEVEL
                       + "\n[numerics]\ndz_cm = 0.3\nz_end_cm = 300.0\n"
                       + "[drive]\nkind = sinusoidal\nperiod_cm = 2.8556\nphi0 = 0.4\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3

    def test_package_draws_no_random_numbers(self):
        # the package is deterministic: no module imports or reaches an RNG
        def draws_random(name):
            name = name.replace("np.", "numpy.", 1)
            return (name.split(".")[0] in ("random", "secrets")
                    or name.startswith("numpy.random")
                    or name.endswith("default_rng"))

        found = []
        for path in Path(bentlattice.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}"
                             for alias in node.names]
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)):
                    names = [f"{node.value.id}.{node.attr}"]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in names if draws_random(name)]
        assert found == []


TB_CONFIG = """
[scenario]
tier = tight_binding
[lattice]
n_sites = 64
[drive]
kind = single_cycle
period_cm = 0.6676
phi0 = 6.0
[input]
packet = bloch
[numerics]
z_end_cm = 0.6676
snapshot_every = 1000
gauge = gauged
boundary = periodic
[output]
prefix = tb
"""

DIRAC_CONFIG = """
[scenario]
tier = dirac
[drive]
kind = single_cycle
period_cm = 0.6676
phi0 = 6.0
[input]
xi_span = 128.0
n_points = 512
width_xi = 12.0
[numerics]
z_end_cm = 0.6676
snapshot_every = 500
[output]
prefix = sp
"""

BANDS_CONFIG = """
[scenario]
tier = bands
[bands]
n_plane_waves = 81
n_q = 32
n_bands = 3
dump_modes = 1
[output]
prefix = bd
"""


class TestOtherTierRunners:
    def test_tight_binding_tier(self, tmp_path):
        manifest = run_scenario(scenario_from_text(TB_CONFIG), str(tmp_path))
        assert manifest["summary"]["P_final"] == pytest.approx(0.418, abs=5e-3)
        assert manifest["summary"]["power_drift"] < 1e-9
        header, rows = read_csv(tmp_path / "tb_sites.csv")
        assert header == ["z", "site", "re", "im"]
        assert len(rows) % 64 == 0
        header2, _ = read_csv(tmp_path / "tb_transition.csv")
        assert header2 == ["z_cm", "P"]

    def test_straight_axis_drift_does_not_add_up(self):
        # a straight axis repeats one step map 4000 times, so the rounding
        # of the composed block products adds up coherently unless each is
        # renormalised (3.5e-13 without, 2.4e-14 with)
        scn = scenario_from_text(preset_text("fig2a"), overrides=[
            "scenario.tier=tight_binding", "lattice.n_sites=64",
            "numerics.z_end_cm=2", "input.packet=gaussian",
            "input.width_sites=6", "drive.kind=straight"])
        assert run_scenario(scn, None)["summary"]["power_drift"] <= 5e-14

    def test_tight_binding_self_check(self):
        scn = scenario_from_text(TB_CONFIG,
                                 overrides=["numerics.self_check=1"])
        manifest = run_scenario(scn, None)
        assert manifest["summary"]["self_check_P_final"] < 1e-6

    def test_dirac_tier(self, tmp_path):
        manifest = run_scenario(scenario_from_text(DIRAC_CONFIG),
                                str(tmp_path))
        summary = manifest["summary"]
        assert summary["plus_weight_final"] == pytest.approx(0.452, abs=5e-3)
        assert summary["norm_drift"] < 1e-9
        assert summary["k0"] == pytest.approx(-np.pi / 2)
        dumps = sorted(tmp_path.glob("sp_spinor*.bin"))
        assert dumps
        from bentlattice.fieldio import read_field_dump
        comps, meta = read_field_dump(dumps[-1])
        assert len(comps) == 2 and meta["n"] == 512

    def test_bands_tier(self, tmp_path):
        manifest = run_scenario(scenario_from_text(BANDS_CONFIG),
                                str(tmp_path))
        summary = manifest["summary"]
        assert summary["fitted_sigma_cm"] == pytest.approx(2.0, rel=0.02)
        assert summary["fitted_delta_cm"] == pytest.approx(1.817, rel=0.02)
        header, rows = read_csv(tmp_path / "bd_bands.csv")
        assert header == ["qa_over_pi", "band_index", "omega_cm_inv"]
        assert len(rows) == 3 * 32
        assert list(tmp_path.glob("bd_mode_q*_band*.bin"))

    def test_tabulated_drive_through_config(self):
        import numpy as np
        z = np.linspace(0.0, 1.0, 41)
        phi = 0.4 * np.sin(2 * np.pi * z)
        text = ("[scenario]\ntier = two_level\n[drive]\nkind = tabulated\n"
                + "table_z_cm = " + ",".join(map(str, z)) + "\n"
                + "table_phi = " + ",".join(map(str, phi)) + "\n"
                + "[numerics]\nz_end_cm = 1.0\n[output]\nprefix = tab\n")
        manifest = run_scenario(scenario_from_text(text), None)
        assert 0.0 < manifest["summary"]["P_final"] < 1.0

    def test_two_level_self_check(self):
        scn = scenario_from_text(MINIMAL_TWO_LEVEL,
                                 overrides=["numerics.self_check=1"])
        manifest = run_scenario(scn, None)
        assert manifest["summary"]["self_check_P_final"] < 1e-6

    def test_dirac_self_check(self):
        scn = scenario_from_text(DIRAC_CONFIG,
                                 overrides=["numerics.self_check=1"])
        manifest = run_scenario(scn, None)
        assert 0.0 < manifest["summary"]["self_check_plus_weight"] < 1e-4

    def test_bpm_self_check(self):
        scn = scenario_from_text(preset_text("fig5b"), overrides=[
            "numerics.self_check=1", "numerics.z_end_cm=0.3",
            "numerics.grid_points=4096"])
        manifest = run_scenario(scn, None)
        assert 0.0 < manifest["summary"]["self_check_band_populations"] < 1e-4

    def test_bpm_census_merge_zero_is_honoured(self, tmp_path):
        # a merge radius of 0 merges no segments; read as unset, it would
        # merge within the default 2 spacings and give the observables of 20
        observables = []
        for merge in ("0", "20"):
            out = tmp_path / merge
            run_scenario(scenario_from_text(preset_text("fig5b"), overrides=[
                "numerics.z_end_cm=0.3",
                f"numerics.census_merge_um={merge}"]), str(out))
            observables.append((out / "fig5b_observables.csv").read_bytes())
        assert observables[0] != observables[1]
