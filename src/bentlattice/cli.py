"""Command-line interface: run, sweep, bands, calibrate, presets.

Exit codes: 0 success, 2 configuration/schema error (message carries the
dotted field path), 3 numeric or domain failure (including sweeps with
flagged rows and a run too large for memory).
"""

from __future__ import annotations

import argparse
import sys

from .bands import calibrate_channel
from .bpm import OpticsParams
from .config import scenario_from_file, scenario_from_text, unread_overrides
from .errors import BentLatticeError, ConfigError
from .presets import preset_names, preset_text
from .runner import run_scenario


def _load_scenario(args):
    if getattr(args, "preset", None):
        scn = scenario_from_text(preset_text(args.preset), args.set or [])
    elif getattr(args, "config", None):
        scn = scenario_from_file(args.config, args.set or [])
    else:
        raise ConfigError("either --config or --preset is required")
    reader = f"the {scn.tier} tier"
    if scn.tier == "sweep":
        reader += f" or its {scn.section('sweep')['tier']} points"
    for path in unread_overrides(scn, args.set):
        print(f"warning: --set {path} is not read by {reader}",
              file=sys.stderr)
    return scn


def _add_common(parser):
    parser.add_argument("--config", help="scenario config file")
    parser.add_argument("--preset", help="bundled preset name (see presets)")
    parser.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for sweeps over the "
                        "tight_binding, dirac and bpm tiers (two-level "
                        "sweeps run as one batched call)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bentlattice",
        description="Curved binary waveguide superlattice simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
            ("run", "execute one scenario"),
            ("sweep", "execute a parameter sweep scenario"),
            ("bands", "compute a band diagram and tight-binding fit")):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)

    p_cal = sub.add_parser("calibrate",
                           help="pin channel geometry to target sigma/delta")
    p_cal.add_argument("--target-sigma", type=float, default=2.0)
    p_cal.add_argument("--target-delta", type=float, default=1.817)
    p_cal.add_argument("--width-lo", type=float, default=2.4)
    p_cal.add_argument("--width-hi", type=float, default=4.2)

    p_pre = sub.add_parser("presets", help="list bundled presets")
    p_pre.add_argument("action", nargs="?", default="list",
                       choices=["list"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return 0
        if args.command == "calibrate":
            result = calibrate_channel(args.target_sigma, args.target_delta,
                                       OpticsParams(),
                                       width_bracket=(args.width_lo,
                                                      args.width_hi))
            print(f"channel_width_um = {result.optics.channel_width_um:.6g}")
            print(f"dn2 = {result.optics.dn2:.8g}")
            print(f"fitted sigma = {result.fitted_sigma:.6g} 1/cm")
            print(f"fitted delta = {result.fitted_delta:.6g} 1/cm")
            return 0

        scn = _load_scenario(args)
        if args.command == "sweep" and scn.tier != "sweep":
            raise ConfigError("sweep command needs a sweep-tier scenario",
                              "scenario.tier")
        if args.command == "bands" and scn.tier != "bands":
            raise ConfigError("bands command needs a bands-tier scenario",
                              "scenario.tier")
        manifest = run_scenario(scn, args.out, jobs=args.jobs)
        summary = manifest["summary"]
        for key in sorted(summary):
            print(f"{key} = {summary[key]}")
        if summary.get("status") == "partial":
            print("some sweep points failed; see the status column",
                  file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BentLatticeError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric error: out of memory ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
