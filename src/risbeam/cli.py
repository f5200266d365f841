"""Command-line front end.

Subcommands: synthesize | broadcast-cdf | ofdma-eval | gradcheck | beamshift
| scaling-probe. Every run writes its data files plus a machine-readable
report.json into --out; exit status is nonzero when a command's assertion
fails (gradient threshold, ripple bound, shift mismatch).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .analysis import rate_scale
from .scenario import PRESETS, ScenarioConfig, incident_angle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Flat-top reflected-beam synthesis and downlink-rate "
                    "evaluation for surface-assisted wideband mmWave MIMO-OFDM.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH",
                       help="JSON scenario file (defaults are built in)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override the scenario seed")
        p.add_argument("--out", default="out", metavar="DIR",
                       help="output directory (default: ./out)")
        p.add_argument("--preset", choices=tuple(PRESETS), default="ci",
                       help="trial-count preset (default: ci)")

    p = sub.add_parser("synthesize", help="synthesize the flat-top design, "
                       "emit pattern.csv / trace.csv / result.json")
    common(p)
    p.add_argument("--assert-ripple-db", type=float, metavar="X",
                   help="fail (exit 1) when the flat-top ripple exceeds X dB")
    p.add_argument("--batch-channels", type=int, metavar="N",
                   help="also synthesize over N fresh channel draws and emit "
                        "per-angle mean/std (pattern_stats.csv)")

    p = sub.add_parser("broadcast-cdf", help="empirical downlink-rate CDFs: "
                       "proposed vs. random-phase vs. no surface")
    common(p)
    p.add_argument("--overhead-fraction", type=float, default=0.0, metavar="F",
                   help="scale rates by (1 - F) for estimation overhead")

    p = sub.add_parser("ofdma-eval", help="Monte Carlo vs. closed-form OFDMA "
                       "rate over Rice-factor and power sweeps")
    common(p)
    p.add_argument("--overhead-fraction", type=float, default=0.0, metavar="F")

    p = sub.add_parser("gradcheck", help="finite-difference audit of the "
                       "analytic gradients (exit 1 above threshold)")
    common(p)

    p = sub.add_parser("beamshift", help="shifted-coverage prediction vs. "
                       "measured -3 dB region")
    common(p)
    p.add_argument("--from-deg", type=float, metavar="PHI0",
                   help="design incident angle in degrees")
    p.add_argument("--to-deg", type=float, metavar="PHI1",
                   help="re-illumination incident angle in degrees")

    p = sub.add_parser("scaling-probe", help="achieved flat-top power over "
                       "(element count, beamwidth) cells")
    common(p)
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.load(args.config, args.preset)
    overrides = {"seed": args.seed, "batch_channels": getattr(args, "batch_channels", None)}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items()
                                            if v is not None})
    checks = {"overhead_fraction": lambda f: rate_scale(config.subcarriers, config.cp_length, f),
              "from_deg": incident_angle, "to_deg": incident_angle}
    for name, check in checks.items():
        if getattr(args, name, None) is not None:
            try:
                check(getattr(args, name))
            except ValueError as exc:
                raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "synthesize":
        report = harness.run_synthesize(config, args.out,
                                        assert_ripple_db=args.assert_ripple_db)
    elif args.command == "broadcast-cdf":
        report = harness.run_broadcast_cdf(config, args.out,
                                           overhead_fraction=args.overhead_fraction)
    elif args.command == "ofdma-eval":
        report = harness.run_ofdma_eval(config, args.out,
                                        overhead_fraction=args.overhead_fraction)
    elif args.command == "gradcheck":
        report = harness.run_gradcheck(config, args.out)
    elif args.command == "beamshift":
        report = harness.run_beamshift(config, args.out, from_deg=args.from_deg,
                                       to_deg=args.to_deg)
    elif args.command == "scaling-probe":
        report = harness.run_scaling_probe(config, args.out)
    else:  # pragma: no cover - argparse enforces the choices
        return 2

    summary = {k: v for k, v in report["payload"].items()
               if not isinstance(v, (list, dict))}
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"outputs in {args.out}: {', '.join(report['outputs'])}")
    return int(report["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
