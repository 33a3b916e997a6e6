"""Startup cost: scipy and multiprocessing load only on the runs that call them.

The test modules import scipy themselves, so every check here runs in a
fresh interpreter that imports only ``bentlattice`` from this checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bentlattice

SRC = Path(bentlattice.__file__).resolve().parent.parent

# runs main() in process once per argv (each into its own output directory)
# and prints every exit code and the scipy and multiprocessing modules loaded
_RUN_AND_LIST = """
import json, sys
from bentlattice.cli import main
codes = [main([*argv, "--out", f"out{i}"])
         for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({"codes": codes, "modules": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "multiprocessing"))}))
"""


def _fresh(args, cwd):
    """Run ``python args`` in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(runs, cwd):
    """Modules of scipy and multiprocessing loaded after in-process runs."""
    out = json.loads(_fresh(["-c", _RUN_AND_LIST, json.dumps(runs)],
                            cwd).splitlines()[-1])
    assert out["codes"] == [0] * len(runs)
    return set(out["modules"])


def test_cli_import_loads_no_scipy_or_multiprocessing(tmp_path):
    assert _loaded_after([], tmp_path) == set()


def test_two_level_tight_binding_and_dirac_runs_load_no_scipy(tmp_path):
    runs = [
        ["run", "--preset", "fig2a"],
        ["run", "--preset", "fig3b", "--set", "scenario.tier=dirac"],
        ["sweep", "--preset", "fig3"],
        ["run", "--preset", "fig2a", "--set", "scenario.tier=tight_binding",
         "--set", "lattice.n_sites=16", "--set", "numerics.z_end_cm=2"],
    ]
    assert _loaded_after(runs, tmp_path) == set()


def test_bpm_run_loads_fft_and_linalg_only(tmp_path):
    loaded = _loaded_after([["run", "--preset", "fig5b", "--set",
                             "numerics.z_end_cm=0.05"]], tmp_path)
    assert {"scipy.fft", "scipy.linalg"} <= loaded
    assert not {"scipy.optimize", "scipy.interpolate"} & loaded
    assert not any(m.startswith("multiprocessing") for m in loaded)


_TABULATED = """[scenario]
tier = two_level
[drive]
kind = tabulated
table_z_cm = 0.0,0.25,0.5,0.75,1.0
table_phi = 0.0,0.4,0.0,-0.4,0.0
[numerics]
z_end_cm = 1.0
[output]
prefix = tab
"""

_TIGHT_BINDING_SWEEP = """[scenario]
tier = sweep
[lattice]
n_sites = 16
[drive]
kind = single_cycle
period_cm = 0.6676
phi0 = 0.0
[numerics]
z_end_cm = 0.6676
[sweep]
tier = tight_binding
axis = drive.phi0
values = 1,2
[output]
prefix = tb
"""


@pytest.mark.parametrize("argv, config", [
    (["bands", "--preset", "fig4_bands", "--set", "bands.n_q=8",
      "--out", "out"], None),
    (["calibrate"], None),
    (["run", "--config", "scenario.cfg", "--out", "out"], _TABULATED),
    (["sweep", "--config", "scenario.cfg", "--jobs", "2", "--out", "out"],
     _TIGHT_BINDING_SWEEP),
], ids=["bands", "calibrate", "tabulated_drive", "pool_sweep"])
def test_deferred_import_paths_run_in_fresh_interpreter(tmp_path, argv,
                                                        config):
    # each path imports its scipy module or multiprocessing where it is
    # called; in a fresh interpreter nothing has imported it before
    if config is not None:
        (tmp_path / "scenario.cfg").write_text(config)
    _fresh(["-m", "bentlattice.cli", *argv], tmp_path)
