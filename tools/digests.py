"""Digest every data file the six risbeam subcommands write for one config,
preset and seed, so two trees (or two runs of one tree) compare with diff.

    python3 tools/digests.py --scratch DIR [--config PATH] [--preset ci] \
        [--seed N] [--src SRC] > digests.txt

DIR must be new or empty, so no file of an earlier run is digested. Each
subcommand runs in a fresh process with SRC (default: this tree's src/) on
PYTHONPATH and writes into DIR/<command>. Scenario keys such as
batch_channels go in the --config file. The output lists
`sha256  <command>/<file>` for every file a run wrote, then
`exit <code>  <command>` per run. report.json holds the wall time, so its
line reads `<command>/report.json -wall_time_s` and digests the canonical
JSON (sorted keys, no spaces) of the report without that key. Exit 1 when
a run crashed: it left no report.json or exited with a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("synthesize", "broadcast-cdf", "ofdma-eval", "gradcheck", "beamshift",
            "scaling-probe")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--config")
    parser.add_argument("--preset", default="ci")
    parser.add_argument("--seed")
    parser.add_argument("--src", default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    if args.scratch.exists() and any(args.scratch.iterdir()):
        parser.error(f"{args.scratch} is not empty")
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    shared = ["--preset", args.preset]
    for flag, value in (("--config", args.config), ("--seed", args.seed)):
        shared += [flag, value] if value else []
    crashed, exits = False, []
    for command in COMMANDS:
        out = args.scratch / command
        code = subprocess.run([sys.executable, "-m", "risbeam.cli", command, "--out", str(out),
                               *shared], env=env, stdout=subprocess.DEVNULL).returncode
        exits.append(f"exit {code}  {command}")
        crashed |= code >= 2 or not (out / "report.json").is_file()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data, name = path.read_bytes(), path.name
            if name == "report.json":
                report = json.loads(data)
                del report["wall_time_s"]
                data = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
                name += " -wall_time_s"
            print(f"{hashlib.sha256(data).hexdigest()}  {command}/{name}")
    print("\n".join(exits))
    return int(crashed)


if __name__ == "__main__":
    sys.exit(main())
