"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402

CLI_MAIN = run.import_cli()


ORIGINALS = [getattr(sys.modules[f"{layers.PACKAGE}.{module}"], attr)
             for module, attr in (t.name.rsplit(".", 1)
                                  for t in layers.TARGETS)]


def _bindings():
    """(module, attribute) -> function for every binding of a target."""
    return {(name, key): value
            for name, module in sys.modules.items()
            if name.startswith(layers.PACKAGE) and module is not None
            for key, value in vars(module).items()
            if any(value is fn for fn in ORIGINALS)}


def test_wrappers_replace_every_binding_and_restore_the_originals():
    before = _bindings()
    # runner binds write_csv by name and the package re-exports drive.phase
    assert ("bentlattice.runner", "write_csv") in before
    assert ("bentlattice", "phase") in before
    with Tracer(layers.PACKAGE, layers.TARGETS):
        assert not _bindings()
    assert _bindings() == before


def test_failed_install_restores_what_it_had_replaced():
    before = _bindings()
    tracer = Tracer(layers.PACKAGE, (*layers.TARGETS, Target("drive.missing")))
    with pytest.raises(AttributeError):
        tracer.install()
    assert _bindings() == before


def test_self_time_of_synthetic_nested_spans():
    names = ["root", "child", "leaf"]
    spans = [
        (0, -1, 0, 100),    # root 100 ns, children cover 30 + 20
        (1, 0, 10, 40),     # child 30 ns, leaf covers 5
        (2, 1, 15, 20),     # leaf 5 ns
        (1, 0, 50, 70),     # second child 20 ns, no children
        (0, -1, 200, 210),  # second root 10 ns
    ]
    assert self_times(spans, names) == pytest.approx(
        {"root": 60e-9, "child": 45e-9, "leaf": 5e-9}, abs=1e-18)


def test_self_times_sum_to_root_durations_for_real_calls():
    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    case = workloads.cases("trajectory", 0)[2]            # fig3b dirac
    with tracer:
        record = run.run_case(CLI_MAIN, case, 0, tracer)
    assert not record.problems
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [tracer.names[s[0]] for s in roots] == [layers.INVOCATION]
    root_s = (roots[0][3] - roots[0][2]) * 1e-9
    assert sum(self_times(tracer.spans, tracer.names).values()) == \
        pytest.approx(root_s, rel=1e-9)
    assert root_s <= record.wall
    counts = layers.layer_metrics({}, tracer.counts)
    assert counts["dirac.point_steps"] == 2048 * 2000
    assert counts["config.resolve_calls"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_is_bit_identical_to_untraced(workload):
    cases = workloads.cases(workload, 0)
    plain = run.run_pass(CLI_MAIN, cases, 0)
    tracer = Tracer(layers.PACKAGE, layers.TARGETS)
    with tracer:
        traced = run.run_pass(CLI_MAIN, cases, 0, tracer)
    assert [r.problems for r in plain + traced] == [[]] * (2 * len(cases))
    # the summaries, and the SHA-256 of every output file, match exactly
    assert repr([r.summary for r in traced]) == \
        repr([r.summary for r in plain])
    assert [r.outputs for r in traced] == [r.outputs for r in plain]


def test_seed_zero_runs_the_presets_and_other_seeds_only_perturb():
    for workload in workloads.WORKLOADS:
        base = workloads._CASES[workload]
        assert [c.argv for c in workloads.cases(workload, 0)] == \
            [c.argv for c in base]
        again = workloads.cases(workload, 7)
        assert [c.argv for c in again] == \
            [c.argv for c in workloads.cases(workload, 7)]
        for case, varied in zip(base, again):
            extra = varied.argv[len(case.argv):]
            assert varied.argv[:len(case.argv)] == case.argv
            assert len(extra) == 2 * len(case.perturb)
            keys = [s.split("=")[0] for s in extra[1::2]]
            assert keys == [key for key, _, _ in case.perturb]


def test_check_flags_reference_misses_only_at_seed_zero():
    case = workloads.cases("trajectory", 0)[0]
    good = {"P_final": 0.2997202154626402, "norm_error": 1e-11}
    off = dict(good, P_final=0.31)
    assert workloads.check(case, good, 0) == []
    assert workloads.check(case, off, 0)
    assert workloads.check(case, off, 3) == []
    assert workloads.check(case, dict(good, P_final=float("nan")), 3)
    assert workloads.check(case, dict(good, norm_error=1e-6), 3)


def test_every_layer_metric_has_a_unit():
    row = layers.layer_metrics({}, Counter())
    assert set(row) | {"process.cpu_s", "trace.pass_s", "trace.overhead_s"} \
        == set(layers.UNITS)
