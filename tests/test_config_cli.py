import json

import numpy as np
import pytest

from bentlattice import ConfigError
from bentlattice.cli import main as cli_main
from bentlattice.config import (apply_overrides, canonical_dump,
                                parse_config_text, resolve, scenario_from_text)
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
        _, rows = read_csv(tmp_path / "sweep" / "mini_sweep.csv")
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
        sweep_text = MINIMAL_TWO_LEVEL.replace("tier = two_level",
                                               "tier = sweep")
        sweep_text += ("\n[sweep]\ntier = two_level\naxis = drive.phi0\n"
                       "start = 1.0\nstop = 3.0\nstep = 0.5\n")
        m1 = run_scenario(scenario_from_text(sweep_text),
                          str(tmp_path / "serial"), jobs=1)
        m2 = run_scenario(scenario_from_text(sweep_text),
                          str(tmp_path / "par"), jobs=3)
        name = "mini_sweep.csv"
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()

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
        code = cli_main(["run", "--preset", "fig3c",
                         "--out", str(tmp_path), "--seedless"])
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

    def test_numeric_error_exit_code(self, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(MINIMAL_TWO_LEVEL
                       + "\n[numerics]\ndz_cm = 0.3\nz_end_cm = 300.0\n"
                       + "[drive]\nkind = sinusoidal\nperiod_cm = 2.8556\nphi0 = 0.4\n")
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 3

    def test_seedless_guard_blocks_rng(self):
        from bentlattice.cli import _rng_guard
        with _rng_guard(True):
            with pytest.raises(Exception):
                np.random.random()
        np.random.random()  # restored afterwards


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
