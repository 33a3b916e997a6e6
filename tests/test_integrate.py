import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import bentlattice
from bentlattice import DriveProfile, ParameterError
from bentlattice.bpm import (OpticsParams, TransverseGrid, bpm_run,
                             gaussian_tilted_input)
from bentlattice.dirac import XiGrid, dirac_evolve, gaussian_spinor_packet
from bentlattice.integrate import (BLOCK_STEPS, default_dz, rk4_evolve,
                                   snapshot_steps, snapshot_stride, step_grid)
from bentlattice.tight_binding import (Boundary, Branch, Gauge, ModeVector,
                                       SuperlatticeParams, bloch_mode_state,
                                       evolve_bare, evolve_gauged)
from bentlattice.two_level import evolve, ground_state

SRC = Path(bentlattice.__file__).parent


class TestStepRule:
    def test_default_dz(self):
        bent = DriveProfile.from_phase_amplitude("single_cycle", 6.0, 0.6676)
        assert default_dz(bent) == 0.6676 / 2000.0
        assert default_dz(DriveProfile.straight()) == 5e-4

    def test_step_grid_hits_the_endpoint(self):
        n, h = step_grid(1.0, 0.3)
        assert n == 3 and h == 1.0 / 3
        assert step_grid(0.1, 0.3) == (1, 0.1)

    @pytest.mark.parametrize("span, dz", [
        (0.0, 0.1), (-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1),
        (1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
        (1.0, 1e-320), (1.0, 1e-9), (0.6676, 5e-304)])
    def test_step_grid_rejects(self, span, dz):
        with pytest.raises(ParameterError):
            step_grid(span, dz)

    def test_snapshot_stride(self):
        assert snapshot_stride(None, 40) == 40
        assert snapshot_stride(7, 40) == 7
        with pytest.raises(ParameterError):
            snapshot_stride(0, 40)


# step counts on either side of the first two block ends
BLOCK_EDGES = [BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
               2 * BLOCK_STEPS - 1, 2 * BLOCK_STEPS, 2 * BLOCK_STEPS + 1]


class TestRk4Stepper:
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    @pytest.mark.parametrize("gauge", [Gauge.BARE, Gauge.GAUGED])
    def test_hard_wall_states_do_not_depend_on_the_stride(self, n, gauge):
        params = SuperlatticeParams(2.0, 1.817, n_sites=8)
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 1.0, 0.6676)
        mode = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                                params)
        state = ModeVector(mode.amplitudes, gauge)
        evolver = evolve_bare if gauge is Gauge.BARE else evolve_gauged
        runs = {stride: evolver(state, params, drive, n * 1e-3, dz=1e-3,
                                snapshot_every=stride,
                                boundary=Boundary.HARD_WALL)
                for stride in (1, 7, 256, None)}
        every = runs[1]
        assert len(every.z) == n + 1
        for stride, traj in runs.items():
            steps = snapshot_steps(n, snapshot_stride(stride, n))
            np.testing.assert_array_equal(traj.z, every.z[steps])
            np.testing.assert_array_equal(traj.states, every.states[steps])

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_monitor_sees_the_block_ends(self, n):
        def rhs(d, y):
            return -1j * (d * y + y[::-1])

        def samples(zs):
            return np.cos(zs).tolist()

        y0 = np.array([1.0, 0.0], dtype=complex)
        every = rk4_evolve(rhs, samples, y0, 0.0, n, 1e-2,
                           snapshot_steps(n, 1))
        assert every.shape == (n + 1, 2)
        seen = []
        ends = rk4_evolve(rhs, samples, y0, 0.0, n, 1e-2,
                          snapshot_steps(n, n),
                          lambda i, y: seen.append((i, y)))
        np.testing.assert_array_equal(ends, every[[0, n]])
        assert [i for i, _ in seen] == [*range(BLOCK_STEPS, n, BLOCK_STEPS),
                                        n]
        for i, y in seen:
            np.testing.assert_array_equal(y, every[i])


def _two_level(drive, **kw):
    params = SuperlatticeParams(2.0, 1.817)
    state = ground_state(params.q_from_qa(np.pi / 4), params)
    return evolve(state, drive, params, z_end=0.1, **kw)


def _tight_binding(drive, **kw):
    params = SuperlatticeParams(2.0, 1.817, n_sites=8)
    state = bloch_mode_state(params.q_from_qa(np.pi / 4), Branch.MINUS,
                             params)
    return evolve_gauged(state, params, drive, z_end=0.1, **kw)


def _dirac(drive, **kw):
    params = SuperlatticeParams(2.0, 1.817)
    field = gaussian_spinor_packet(XiGrid.centered(64.0, 64), 0.0, 4.0,
                                   params)
    return dirac_evolve(field, drive, params, 0.1, **kw)


def _bpm(drive, dz=None, **kw):
    optics = OpticsParams()
    grid = TransverseGrid.for_cells(optics, 8, 256)
    field = gaussian_tilted_input(20.0, 0.0, optics, grid)
    if dz is not None:
        kw["dz_cm"] = dz
    return bpm_run(field, optics, drive, 0.1, n_guides=16, **kw)


@pytest.mark.parametrize("bad", [{"dz": 0.0}, {"dz": -1e-3},
                                 {"snapshot_every": 0}],
                         ids=["dz_zero", "dz_negative", "snapshot_zero"])
@pytest.mark.parametrize("tier", [_two_level, _tight_binding, _dirac, _bpm],
                         ids=["two_level", "tight_binding", "dirac", "bpm"])
def test_bad_step_input_rejected(tier, bad):
    drive = DriveProfile.from_phase_amplitude("single_cycle", 1.0, 0.6676)
    with pytest.raises(ParameterError):
        tier(drive, **bad)


def _source_text():
    return "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(SRC.glob("*.py")))


def test_source_holds_one_step_rule_and_one_unit_constant():
    text = _source_text()
    assert len(re.findall(r"^CM_PER_UM\s*=", text, re.M)) == 1
    assert len(re.findall(r"period_cm\s*/\s*2000", text)) == 1
    assert len(re.findall(r"int\(round\([^()]*/\s*dz", text)) == 1


def test_source_holds_one_lattice_bloch_basis():
    # the splitting w(qa), the branch eigenvector with its zone-edge error
    # and the (s1, s2) pair layout are written once, in tight_binding.py
    text = _source_text()
    splitting = (r"4\s*\*\s*[\w.]*sigma\w*\s*\*\*\s*2\s*\*\s*"
                 r"(?:np\.cos\([^()]*\)|\w+)\s*\*\*\s*2")
    assert len(re.findall(splitting, text)) == 1
    assert text.count('"delta = 0 at the zone edge') == 1
    assert "_branch_eigenvectors" not in text
    assert "_sublattice_spectra" not in text
    for path in sorted(SRC.glob("*.py")):
        if path.name != "tight_binding.py":
            assert not re.search(r"\(2,\s*-1\)",
                                 path.read_text(encoding="utf-8")), path.name
    for module in ("tight_binding.py", "diagnostics.py"):
        text = (SRC / module).read_text(encoding="utf-8")
        assert "to_sublattice_pairs(" in text


def test_source_holds_one_two_level_stepper_and_sampled_lattice_drive():
    # one composed stepper serves two-level runs, batches and periodic
    # lattice runs: Magnus step maps in closed form, one block loop, no loop
    # over single steps
    assert len(re.findall(r"^def _step_maps\(", _source_text(), re.M)) == 1
    tree = ast.parse((SRC / "integrate.py").read_text(encoding="utf-8"))
    kernel, = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "_advance"]
    loops = [ast.unparse(node.iter) for node in ast.walk(kernel)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert sum("half_step_blocks(" in it for it in loops) == 1
    assert [it for it in loops if it.startswith("range(")] == []
    # the tiers step through the kernel, not through block loops of their own
    for module in ("two_level.py", "tight_binding.py"):
        text = (SRC / module).read_text(encoding="utf-8")
        assert "_advance(" in text and "half_step_blocks(" not in text
    tree = ast.parse((SRC / "two_level.py").read_text(encoding="utf-8"))
    loops = [ast.unparse(node.iter) for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert [it for it in loops if it.startswith("range(")] == [
        "range(0, len(runs), TREE_RUNS)"]
    # the hard-wall lattice right-hand sides read drive samples taken once
    # on the half-step grid and fill preallocated neighbours
    text = (SRC / "tight_binding.py").read_text(encoding="utf-8")
    rhs = [ast.unparse(node) for node in ast.walk(ast.parse(text))
           if isinstance(node, ast.FunctionDef) and node.name == "rhs"]
    assert len(rhs) == 2
    for body in rhs:
        assert not re.search(r"drv\.(phase|force)\(|np\.roll\(", body)
    assert "np.roll(" not in text
    # both lattice boundaries run one plan: the RK4 stepper takes the
    # stepper contract of _advance, and only tight_binding.py lays out a
    # lattice step grid
    tree = ast.parse((SRC / "integrate.py").read_text(encoding="utf-8"))
    rk4, = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "rk4_evolve"]
    assert [a.arg for a in rk4.args.args] == [
        "rhs", "samples", "y0", "z0", "n", "h", "steps", "monitor"]
    assert "callback" not in ast.unparse(rk4)
    calls = [ast.unparse(node.func) for module in ("integrate.py",
                                                   "tight_binding.py")
             for node in ast.walk(ast.parse((SRC / module).read_text(
                 encoding="utf-8")))
             if isinstance(node, ast.Call)]
    assert calls.count("step_grid") == 1
    assert "_evolve_sites" not in text and "_evolve_bloch" not in text


def test_source_holds_one_output_writer():
    # the tier runners return their outputs unwritten and take only the
    # scenario; run_scenario alone places files in the output directory
    from bentlattice.runner import _TIER_RUNNERS
    for tier_runner in _TIER_RUNNERS.values():
        assert len(inspect.signature(tier_runner).parameters) == 1
    holders = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if "os.path.join(out_dir" in ast.get_source_segment(text, node):
                holders.add((path.name, getattr(node, "name", None)))
    assert holders == {("runner.py", "run_scenario")}


def test_source_holds_one_float_format_and_one_check_cadence():
    # fieldio alone spells the float format of every text output, tables
    # are handed to it as arrays, and the spinor tier checks its grid edge
    # at the stepper's block ends
    text = _source_text()
    assert len(re.findall(r"\.17g", text)) == 1
    assert "_SizedRows" not in text
    assert "CHECK_EVERY" not in text
