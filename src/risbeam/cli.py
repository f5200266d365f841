"""Command-line front end.

Subcommands: synthesize | broadcast-cdf | ofdma-eval | gradcheck | beamshift
| scaling-probe. Every run writes its data files plus a machine-readable
report.json into --out; exit status is nonzero when a command's assertion
fails (gradient threshold, ripple bound, shift mismatch).

A flag whose dest is ``scenario.<key>`` overrides that scenario key, so the
scenario's checks and ``config_hash`` cover it; every other flag is a keyword
argument of the command's runner ``harness.run_<command>``, checked before
any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import harness
from .analysis import rate_scale
from .scenario import PRESETS, ScenarioConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Flat-top reflected-beam synthesis and downlink-rate "
                    "evaluation for surface-assisted wideband mmWave MIMO-OFDM.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON scenario file (defaults are built in)")
    common.add_argument("--seed", type=int, metavar="U64", dest="scenario.seed",
                        help="override the scenario seed")
    common.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: ./out)")
    common.add_argument("--preset", choices=tuple(PRESETS), default="ci",
                        help="trial-count preset (default: ci)")
    overhead = argparse.ArgumentParser(add_help=False)
    overhead.add_argument("--overhead-fraction", type=float, default=0.0, metavar="F",
                          help="scale rates by (1 - F) for estimation overhead")

    p = sub.add_parser("synthesize", parents=[common], help="synthesize the flat-top "
                       "design, emit pattern.csv / trace.csv / result.json")
    p.add_argument("--assert-ripple-db", type=float, metavar="X",
                   help="fail (exit 1) when the flat-top ripple exceeds X dB")
    p.add_argument("--batch-channels", type=int, metavar="N", dest="scenario.batch_channels",
                   help="also synthesize over N fresh channel draws and emit "
                        "per-angle mean/std (pattern_stats.csv)")
    sub.add_parser("broadcast-cdf", parents=[common, overhead], help="empirical "
                   "downlink-rate CDFs: proposed vs. random-phase vs. no surface")
    sub.add_parser("ofdma-eval", parents=[common, overhead], help="Monte Carlo vs. "
                   "closed-form OFDMA rate over Rice-factor and power sweeps")
    sub.add_parser("gradcheck", parents=[common], help="finite-difference audit of the "
                   "analytic gradients (exit 1 above threshold)")
    p = sub.add_parser("beamshift", parents=[common], help="shifted-coverage "
                       "prediction vs. measured -3 dB region")
    p.add_argument("--from-deg", type=float, metavar="PHI0",
                   dest="scenario.beamshift.incident_from_deg",
                   help="design incident angle in degrees")
    p.add_argument("--to-deg", type=float, metavar="PHI1",
                   dest="scenario.beamshift.incident_to_deg",
                   help="re-illumination incident angle in degrees")
    sub.add_parser("scaling-probe", parents=[common], help="achieved flat-top power over "
                   "(element count, beamwidth) cells")
    return parser


def _ripple_bound(config: ScenarioConfig, db: float) -> None:
    if not 0.0 <= db < math.inf:
        raise ValueError(f"ripple bound must be finite and nonnegative, got {db}")


# Each runner flag's check of a given value; it raises ValueError.
_RUNNER_FLAG_CHECKS = {
    "assert_ripple_db": _ripple_bound,
    "overhead_fraction": lambda config, f: rate_scale(config.subcarriers, config.cp_length, f),
}


def _override(spec, path: str, value):
    """``spec`` with the key at the dotted ``path`` set to ``value``."""
    key, dot, rest = path.partition(".")
    return dataclasses.replace(spec, **{
        key: _override(getattr(spec, key), rest, value) if dot else value})


def _load_config(args: argparse.Namespace) -> tuple[ScenarioConfig, dict]:
    """The scenario with every given ``scenario.<key>`` flag applied, and the
    runner's keyword arguments: the other flags, each checked."""
    config = ScenarioConfig.load(args.config, args.preset)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "config", "out", "preset")}
    for dest, value in flags.items():
        if dest.startswith("scenario.") and value is not None:
            config = _override(config, dest.removeprefix("scenario."), value)
    runner_flags = {k: v for k, v in flags.items() if not k.startswith("scenario.")}
    for name, value in runner_flags.items():
        if value is not None:
            try:
                _RUNNER_FLAG_CHECKS[name](config, value)
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    return config, runner_flags


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, runner_flags = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # looked up at call time, so a rebound runner is the one that runs
    run = getattr(harness, "run_" + args.command.replace("-", "_"))
    report = run(config, args.out, **runner_flags)
    summary = {k: v for k, v in report["payload"].items()
               if not isinstance(v, (list, dict))}
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"outputs in {args.out}: {', '.join(report['outputs'])}")
    return int(report["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
