"""Benchmark of the bentlattice CLI: one closed-loop client, in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

The benchmark imports ``bentlattice`` from ``src/`` next to this directory
and calls ``bentlattice.cli.main`` once per case, each call starting after
the previous one returned, with ``--jobs 1`` and a fresh output directory.
After one warm-up pass it repeats passes over the workload's cases until
``--seconds`` have passed (at least three).  Every invocation is checked
(see workloads.py); a non-zero exit, an exception or a wrong headline counts
as failed.

``--trace 0`` reports the end-to-end metrics: median pass wall time, peak
RSS, and ``setup_s``, the median time a fresh interpreter takes to import
``bentlattice.cli``.  ``--trace 1`` alternates untraced and traced passes
and reports per-layer self times and counts (see layers.py) and the median
process CPU time of the untraced passes; the spans are written to
``.perfbench_out/``.  Each case's median wall and CPU time are printed next
to its headline values either way.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every invocation was correct, 1 when
one failed, and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import layers
import workloads
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_REPEATS = 5
_IMPORT_TIMER = ("import time; t = time.perf_counter(); "
                 "import bentlattice.cli; "
                 "print(repr(time.perf_counter() - t))")


def import_cli():
    """``bentlattice.cli.main`` from this checkout's ``src/`` only."""
    if not (SRC / "bentlattice" / "cli.py").is_file():
        raise ImportError(f"no bentlattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bentlattice.cli
    if Path(bentlattice.cli.__file__).resolve().parent != SRC / "bentlattice":
        raise ImportError(f"imported {bentlattice.cli.__file__}, not {SRC}")
    return bentlattice.cli.main


def machine_facts():
    import scipy

    model = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset (library default)")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def measure_setup_s():
    """Median seconds a fresh interpreter spends importing bentlattice.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):          # the first one fills caches
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


class Record(NamedTuple):
    """One invocation as the client saw it."""

    wall: float
    cpu: float
    summary: dict         # the manifest's summary
    outputs: dict         # output file name -> SHA-256, from the manifest
    problems: list        # empty when the invocation was correct


def run_case(cli_main, case, seed, tracer=None):
    """Invoke the CLI once for ``case`` in a fresh directory and check it."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as out_dir:
        argv = [*case.argv, "--out", out_dir, "--jobs", "1"]
        span = (tracer.span(layers.INVOCATION) if tracer
                else contextlib.nullcontext())
        problems = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = cli_main(argv)
        except Exception:                       # the client must keep going
            code = None
            problems.append(traceback.format_exc().strip())
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        manifest = {"summary": {}, "outputs": {}}
        if code is not None and code != 0:
            problems.append(f"exit code {code}")
        path = Path(out_dir) / "manifest.json"
        if path.is_file():
            manifest = json.loads(path.read_text())
        elif code == 0:
            problems.append("no manifest.json")
    if code == 0:
        problems += workloads.check(case, manifest["summary"], seed)
    return Record(wall, cpu, manifest["summary"], manifest["outputs"],
                  problems)


def run_pass(cli_main, cases, seed, tracer=None):
    gc.collect()
    return [run_case(cli_main, case, seed, tracer) for case in cases]


def pass_wall(records):
    return sum(r.wall for r in records)


def pass_cpu(records):
    return sum(r.cpu for r in records)


def measure(args, cli_main, cases):
    """Warm up, then run passes for ``args.seconds``; returns a result dict."""
    all_passes = [run_pass(cli_main, cases, args.seed)]      # warm-up
    untraced, traced, layer_rows, accounted, span_passes = [], [], [], [], []
    tracer = Tracer(layers.PACKAGE, layers.TARGETS) if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(run_pass(cli_main, cases, args.seed))
        if tracer is not None:
            tracer.spans.clear()
            tracer.counts.clear()
            with tracer:
                traced.append(run_pass(cli_main, cases, args.seed, tracer))
            selfs = self_times(tracer.spans, tracer.names)
            layer_rows.append(layers.layer_metrics(selfs, tracer.counts))
            accounted.append(sum(selfs.values()))
            span_passes.append(np.array(tracer.spans, dtype=np.int64))
    all_passes += untraced + traced
    if tracer is not None:
        write_spans(args, tracer.names, span_passes)
    return {"untraced": untraced, "traced": traced, "layers": layer_rows,
            "accounted": accounted, "all": all_passes}


def write_spans(args, names, span_passes):
    """Save every traced pass's spans as (name id, parent, start, end) rows.

    ``pass_first`` holds each pass's first row; parent indices are relative
    to it, and -1 marks a root span.
    """
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
             names=np.array(names),
             spans=np.concatenate(span_passes).reshape(-1, 4),
             pass_first=np.cumsum([0] + [len(p) for p in span_passes[:-1]]))


def report(args, cases, result, facts, setup_s):
    """Print the per-case table and return the final JSON object."""
    records = [r for p in result["all"] for r in p]
    attempted = len(records)
    failed = sum(1 for r in records if r.problems)
    for r in records:
        if r.problems:
            print("FAILED:", "; ".join(r.problems), file=sys.stderr)
    untraced = result["untraced"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} measured passes, error_rate "
          f"{failed / attempted:.4f} ({failed}/{attempted})")
    per_case = []
    for i, case in enumerate(cases):
        headline = {k: untraced[-1][i].summary.get(k)
                    for k in case.headline_keys()}
        per_case.append({"name": case.name, "argv": list(case.argv),
                         "wall_s": [p[i].wall for p in untraced],
                         "cpu_s": [p[i].cpu for p in untraced],
                         "headline": headline})
        head = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in headline.items())
        print(f"  {case.name:<18} "
              f"wall {statistics.median(per_case[-1]['wall_s']):8.4f} s  "
              f"cpu {statistics.median(per_case[-1]['cpu_s']):8.4f} s  {head}")
    print("machine", json.dumps(facts, sort_keys=True))

    wall_s = statistics.median([pass_wall(p) for p in untraced])
    if args.trace:
        rows = result["layers"]
        values = {name: statistics.median([row[name] for row in rows])
                  for name in rows[0]}
        traced_s = statistics.median([pass_wall(p) for p in result["traced"]])
        values["process.cpu_s"] = statistics.median(
            [pass_cpu(p) for p in untraced])
        values["trace.pass_s"] = traced_s
        values["trace.overhead_s"] = traced_s - wall_s
        print(f"  traced pass {traced_s:.4f} s, of which layer and runner "
              f"self times {statistics.median(result['accounted']):.4f} s")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({
        "machine": facts, "argv": sys.argv[1:],
        "cases": per_case, "result": out}, indent=2, default=str) + "\n")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli_main = import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import bentlattice: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    setup_s = None if args.trace else measure_setup_s()
    cases = workloads.cases(args.workload, args.seed)
    result = measure(args, cli_main, cases)
    out = report(args, cases, result, facts, setup_s)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
