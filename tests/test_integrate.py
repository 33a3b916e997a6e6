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
from bentlattice.integrate import (BLOCK_STEPS, TREE_STEPS, default_dz,
                                   rk4_evolve, snapshot_steps, step_grid)
from bentlattice.tight_binding import (Boundary, Branch, Gauge, ModeVector,
                                       SuperlatticeParams, bloch_mode_state,
                                       evolve_bare, evolve_gauged,
                                       gaussian_packet_state)
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

    def test_snapshot_steps(self):
        np.testing.assert_array_equal(snapshot_steps(40, None), [0, 40])
        np.testing.assert_array_equal(snapshot_steps(40, 7),
                                      [0, 7, 14, 21, 28, 35, 40])
        with pytest.raises(ParameterError):
            snapshot_steps(40, 0)


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
            steps = snapshot_steps(n, stride)
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


def _magnus(tier, drive, n, stride):
    """``(z, states)`` of an n-step run of the composed stepper at 1e-3 cm
    steps: the two-level tier or a periodic lattice of ``tier`` sites."""
    if tier == "two_level":
        traj = _two_level(drive, z_end=n * 1e-3, dz=1e-3,
                          snapshot_every=stride)
        return traj.z, traj.r
    params = SuperlatticeParams(2.0, 1.817, n_sites=tier)
    state = gaussian_packet_state(params.q_from_qa(np.pi / 4), tier / 8,
                                  params)
    traj = evolve_gauged(state, params, drive, n * 1e-3, dz=1e-3,
                         snapshot_every=stride)
    return traj.z, traj.states


class TestMagnusSnapshots:
    """The composed stepper keeps the states of its stride-1 runs at
    ``snapshot_steps``, bit for bit, whichever tree nodes a snapshot reads
    and whether or not its block has snapshots at all."""

    # (tier, block length): one column and the 4 momentum columns of 8
    # sites take TREE_STEPS-step blocks, the 64 of 128 sites 256-step ones
    @pytest.mark.parametrize(("tier", "block", "n"), [
        pytest.param(tier, block, n, id=f"{tier}-{n}")
        for tier, block in (("two_level", TREE_STEPS), (8, TREE_STEPS),
                            (128, 256))
        for n in (block - 1, block, block + 1,
                  2 * block - 1, 2 * block, 2 * block + 1)])
    def test_states_do_not_depend_on_the_stride(self, tier, block, n):
        drive = DriveProfile.from_phase_amplitude("sinusoidal", 1.0, 0.6676)
        runs = {stride: _magnus(tier, drive, n, stride)
                for stride in (1, 7, block, None)}
        z_every, every = runs[1]
        assert len(z_every) == n + 1
        for stride, (z, states) in runs.items():
            steps = snapshot_steps(n, stride)
            np.testing.assert_array_equal(z, z_every[steps])
            np.testing.assert_array_equal(states, every[steps])


def _two_level(drive, **kw):
    params = SuperlatticeParams(2.0, 1.817)
    state = ground_state(params.q_from_qa(np.pi / 4), params)
    return evolve(state, drive, params, **{"z_end": 0.1, **kw})


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


class TestStrangSnapshots:
    """The spinor and BPM loops keep the states of their stride-1 runs at
    ``snapshot_steps``, bit for bit, as the hard-wall lattice runs do."""

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_dirac_states_do_not_depend_on_the_stride(self, n):
        drive = DriveProfile.from_phase_amplitude("single_cycle", 1.0, 0.6676)
        runs = {stride: _dirac(drive, dz=0.1 / n, snapshot_every=stride)
                for stride in (1, 7, None)}
        every = runs[1]
        assert len(every.z) == n + 1
        for stride, traj in runs.items():
            steps = snapshot_steps(n, stride)
            np.testing.assert_array_equal(traj.z, every.z[steps])
            np.testing.assert_array_equal(traj.psi1, every.psi1[steps])
            np.testing.assert_array_equal(traj.psi2, every.psi2[steps])

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_bpm_states_do_not_depend_on_the_stride(self, n):
        drive = DriveProfile.from_phase_amplitude("single_cycle", 1.0, 0.1)
        # coarse steps take up to a quarter of the power into the absorber
        runs = {stride: _bpm(drive, dz=0.1 / n, snapshot_every=stride,
                             intake_warn=1.0, intake_error=1.0)
                for stride in (1, 7, None)}
        every = runs[1]
        assert len(every.z) == n + 1 and every.absorbed[-1] > 0
        for stride, traj in runs.items():
            steps = snapshot_steps(n, stride)
            np.testing.assert_array_equal(traj.z, every.z[steps])
            np.testing.assert_array_equal(traj.fields, every.fields[steps])
            np.testing.assert_array_equal(traj.absorbed,
                                          every.absorbed[steps])


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
    # the pair layout is one FFT pair, with no dense (n, n) matrix beside
    # it, and the packet builder sums its modes through the same layout
    assert "sublattice_transform" not in _source_text()
    builder = inspect.getsource(gaussian_packet_state)
    assert "from_sublattice_pairs(" in builder
    assert not re.search(r"^\s*for\b", builder, re.M)


def test_source_holds_one_snapshot_schedule_and_one_block_loop():
    # integrate.py alone decides which steps are snapshots and where blocks
    # end; every stepping tier asks it for its snapshot steps
    for path in sorted(SRC.glob("*.py")):
        if path.name != "integrate.py":
            text = path.read_text(encoding="utf-8")
            assert "% snapshot_every" not in text, path.name
            assert not re.search(r"range\([^()]*BLOCK_STEPS", text), path.name
    for module in ("two_level.py", "tight_binding.py", "dirac.py", "bpm.py"):
        text = (SRC / module).read_text(encoding="utf-8")
        assert "snapshot_steps(" in text, module


def test_source_holds_one_x_space_multiply_per_bpm_step():
    # adjacent Strang half-steps and the absorber mask are one composite
    # array; a snapshot reads through the trailing half-step and never
    # writes back into the stepped field
    tree = ast.parse((SRC / "bpm.py").read_text(encoding="utf-8"))
    run, = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "bpm_run"]
    loop, = [node for node in ast.walk(run) if isinstance(node, ast.For)
             and ast.unparse(node.iter) == "range(n_steps)"]
    multiplies = [node for node in ast.walk(loop)
                  if isinstance(node, ast.AugAssign)
                  and isinstance(node.op, ast.Mult)
                  and ast.unparse(node.target) == "env"]
    assert len(multiplies) == 1
    assert "static_half" not in ast.unparse(loop)


def test_source_holds_one_bpm_stepper():
    # the beam tier steps in the bent frame alone: bpm.py holds one step
    # loop, no function of it takes a gauge, and the package exports no
    # second beam gauge
    text = (SRC / "bpm.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    loops = [ast.unparse(node.iter) for node in ast.walk(tree)
             if isinstance(node, ast.For)]
    assert [it for it in loops if "n_steps" in it] == ["range(n_steps)"]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.While)]
    arguments = [arg.arg for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 for arg in node.args.args + node.args.kwonlyargs]
    assert "gauge" not in arguments
    assert not re.search(r"SHIFTED_K|shifted_k|BpmGauge", text)
    assert not hasattr(bentlattice, "BpmGauge")
    assert "BpmGauge" not in _source_text()


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


def test_source_holds_one_map_product():
    # the composed stepper multiplies its complex maps in one place, and
    # reads snapshots off the block's product tree, with no prefix products
    text = _source_text()
    assert len(re.findall(r"^def _compose\(", text, re.M)) == 1
    for removed in ("_prefix", "_STATE_SIGNS"):
        assert not re.search(rf"\b{removed}\b", text), removed


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


def test_source_holds_one_entry_per_observable():
    # each diagnostics observable has one entry: the continuum projection
    # is one stacked product over momenta, the census squares each
    # snapshot once, and the bare-gauge lattice transform is written once
    text = (SRC / "diagnostics.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert not [node for node in ast.walk(functions["band_amplitudes"])
                if isinstance(node, (ast.For, ast.comprehension))]
    series = ast.get_source_segment(text, functions["observables_series"])
    assert series.count("np.abs(traj.fields)") == 1
    assert text.count("np.multiply.outer(phi") == 1
    source = _source_text()
    for removed in ("track_packets", "miniband_transition_fraction",
                    "q_resolved", "_band_amplitudes", "packet_count",
                    "q_from_zone_edge_k", "quasi_energy_for_drive"):
        assert not re.search(rf"\b{removed}\b", source), removed
