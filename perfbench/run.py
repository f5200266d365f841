"""risbeam benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each unit is one `risbeam` CLI run
in a fresh interpreter (`unit.py`), so lazy caches start cold as they do
for a user. Units run one after another; a unit starts only if it is
expected to end within `--seconds`, so a run takes about `--seconds` on
any machine. BLAS runs one thread per unit (see BLAS_ENV); the count is
recorded.

`--seed N` yields DRAWS scenario seeds, N*DRAWS + i. With `--trace 0` the
first unit's scenario seed runs twice (for the digest check) and every
further unit takes the next one, so the medians average over as many
channel draws as the run has units; the solver work differs between draws.
The end-to-end metrics are the median CLI wall time, the median set-up
time (set-up-only probes plus every unit) and the median peak RSS.
`--trace 1` runs the first scenario seed only, alternating untraced and
traced units, and reports the per-layer metrics from the traced ones
(`tracer.py`): calls, inclusive and self time per function, deterministic
solver counts, and the tracing overhead.

Every unit is checked (exit code, the workload's output checks, identical
data-file digests across the repeats of one scenario seed; in traced runs
identical solver counts and the pattern-cost completeness check). The last line of
standard output is the JSON result; a fuller record, with the environment,
goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_NAMES, aggregate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2          # set-up-only units before the timed loop
DRAWS = 64                # scenario seeds per workload seed, more than a run uses
MIN_TRACED = 2            # traced runs whose counts must repeat exactly
# One BLAS thread. OpenBLAS's default (one per core) gains no wall time on
# these array sizes, while its second thread spins on the other core for the
# whole run: wall time then follows whatever else that core is doing.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0        # no unit may run past this point of the run


def _median(values):
    return statistics.median(values) if values else 0.0


def run_unit(workdir: Path, index: int, cli_args: list[str], seed: int, *,
             setup_only: bool = False, trace: bool = False, timeout: float) -> dict:
    """Run one unit; returns its result record (``error`` set on failure)."""
    udir = workdir / f"unit{index:03d}"
    udir.mkdir()
    result_file = udir / "result.json"
    out_dir = udir / "out"
    cmd = [sys.executable, str(HERE / "unit.py"), "--result", str(result_file)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--", *cli_args, "--seed", str(seed), "--out", str(out_dir)]
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rec = {"index": index, "seed": seed, "setup_only": setup_only, "traced": trace,
           "dir": udir}
    with open(udir / "stdout.txt", "w") as out, open(udir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {timeout:.0f} s"
            return rec
    if proc.returncode != 0 or not result_file.is_file():
        tail = (udir / "stderr.txt").read_text().strip().splitlines()[-1:]
        rec["error"] = f"unit exited {proc.returncode}: {' '.join(tail)}"
        return rec
    rec.update(json.loads(result_file.read_text()))
    if not setup_only:
        if rec["exit_code"] != 0:
            rec["error"] = f"CLI exited {rec['exit_code']}"
        else:
            rec["report"] = json.loads((out_dir / "report.json").read_text())
            rec["digest"] = data_digest(out_dir)
    return rec


def data_digest(out_dir: Path) -> str:
    """SHA-256 over the data files; report.json carries the wall time, which
    is outside the byte-determinism contract."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name != "report.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int, units: list[dict]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": next((u["blas_threads"] for u in units
                              if u.get("blas_threads") is not None), None),
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running unit,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "risbeam" / "cli.py").is_file():
        print(f"error: no risbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / f"{tag}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(wl.config, indent=2) + "\n")
    cli_args = [wl.command, "--config", str(config_path)]
    seeds = [args.seed * DRAWS + i for i in range(DRAWS)]
    if args.trace:
        seeds = seeds[:1]

    t_start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    units: list[dict] = []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            units.append(run_unit(workdir, len(units), cli_args, seeds[0],
                                  setup_only=True, timeout=remaining()))
        t_loop = time.perf_counter()
        n_untraced = n_traced = 0
        while True:
            trace = bool(args.trace) and n_traced < n_untraced
            seed = seeds[max(n_untraced + n_traced - 1, 0) % len(seeds)]
            t_unit = time.perf_counter()
            rec = run_unit(workdir, len(units), cli_args, seed, trace=trace,
                           timeout=max(remaining(), 1.0))
            unit_s = time.perf_counter() - t_unit
            units.append(rec)
            n_traced += trace
            n_untraced += not trace
            if "error" in rec and rec["error"].startswith("timed out"):
                break
            enough = (n_traced >= MIN_TRACED and n_untraced >= 1 if args.trace
                      else n_untraced >= 2)
            # stop before a unit that would end past --seconds (or the deadline)
            if enough and (time.perf_counter() - t_loop + unit_s > args.seconds
                           or remaining() < 2.0 * unit_s + 5.0):
                break
        loop_s = time.perf_counter() - t_loop
        outcome = evaluate(wl, units, bool(args.trace))
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "command": wl.command, "scenario_seeds": seeds, "config": wl.config,
            "why": wl.why,
            "loop_seconds": loop_s, "environment": environment(args.seed, units),
            **outcome,
            "units": [{k: v for k, v in u.items() if k not in ("dir", "trace", "report")}
                      for u in units],
        }
        if args.trace:
            traced = [u for u in units if u["traced"] and "error" not in u]
            if traced:
                spans_file = results_dir / f"{tag}.spans.json"
                spans_file.write_text(json.dumps(traced[0]["trace"]))
                record["spans_file"] = str(spans_file.relative_to(ROOT))
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_summary(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def deterministic_counts(unit: dict, agg: dict) -> dict:
    """Solver counts and per-function call counts of one traced unit."""
    calls = {k: v for k, v in agg.items() if k.endswith(".calls")}
    return {**unit["trace"]["counts"], **calls}


def evaluate(wl, units: list[dict], trace: bool) -> dict:
    """Apply every correctness check and compute the metrics."""
    runs = [u for u in units if not u["setup_only"]]
    for u in runs:
        if "error" not in u:
            problems = wl.check(u["report"], u["dir"] / "out")
            if problems:
                u["error"] = "; ".join(problems)
            else:
                u["quality"] = wl.quality(u["report"])
    good = [u for u in runs if "error" not in u]

    # byte determinism: every repeat of one (config, seed) writes the same data
    first: dict[int, dict] = {}
    for u in good:
        ref = first.setdefault(u["seed"], u)
        if u["digest"] != ref["digest"]:
            u["error"] = (f"data digest {u['digest'][:12]} != unit {ref['index']} "
                          f"of seed {u['seed']}: {ref['digest'][:12]}")

    traced = [u for u in runs if u["traced"] and "error" not in u]
    layer = {}
    if traced:
        aggs = [aggregate(u["trace"]) for u in traced]
        ref = deterministic_counts(traced[0], aggs[0])
        for u, agg in zip(traced[1:], aggs[1:]):
            diff = {k: (ref[k], v) for k, v in deterministic_counts(u, agg).items()
                    if ref.get(k) != v}
            if diff:
                u["error"] = f"counts differ from the first traced run: {diff}"
        counts = traced[0]["trace"]["counts"]
        missing = traced[0]["trace"]["missing"]
        # completeness: every theta-cost evaluation goes through rcg_minimize,
        # plus the one initial cost per start that synthesize computes itself
        expected = (counts["manifold.rcg_minimize.cost_evals"]
                    + counts["synthesis.synthesize.starts"])
        seen = aggs[0]["pattern.pattern_cost.calls"]
        if seen != expected:
            for u in traced:
                u["error"] = (f"pattern_cost calls {seen} != rcg cost evals + starts "
                              f"{expected}: a caller bypasses the traced bindings")
        for key in aggs[0]:
            if key.endswith(".calls"):
                layer[key] = {"value": aggs[0][key], "unit": "count"}
            else:
                layer[key] = {"value": _median([a[key] for a in aggs]), "unit": "s"}
        for key in COUNT_NAMES:
            if key not in ("manifold.armijo_search.accepted", "synthesis.synthesize.starts"):
                layer[key] = {"value": counts[key], "unit": "count"}
        evals = counts["manifold.armijo_search.cost_evals"]
        layer["manifold.searches_per_cost_eval"] = {
            "value": counts["manifold.armijo_search.accepted"] / evals if evals else 0.0,
            "unit": "ratio"}

    failed = [u for u in units if "error" in u]
    untraced = [u for u in runs if not u["traced"] and "error" not in u]
    setups = [u["setup_s"] for u in units if "setup_s" in u and "error" not in u]
    wall = _median([u["wall_s"] for u in untraced])
    if trace:
        traced_wall = _median([u["wall_s"] for u in runs if u["traced"] and "error" not in u])
        layer["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics = layer
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median([u["peak_rss_mb"] for u in untraced]),
                            "unit": "MB"},
        }
    quality = {}
    for u in good:
        for k, v in u.get("quality", {}).items():
            quality.setdefault(k, []).append(v)
    return {
        "correct": not failed and bool(untraced) and (not trace or bool(traced)),
        "attempted": len(units),
        "failed": len(failed),
        "error_rate": len(failed) / len(units),
        "samples": {"wall_s": len(untraced), "setup_s": len(setups),
                    "traced": len([u for u in runs if u["traced"]])},
        "quality": {k: _median(v) for k, v in quality.items()},
        "errors": [f"unit {u['index']}: {u['error']}" for u in failed],
        "not_traced": missing if traced else [],
        "metrics": metrics,
    }


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} ({record['command']}), seed {record['seed']}, "
          f"trace {record['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"units: {record['attempted']} attempted, {record['failed']} failed, "
          f"error_rate {record['error_rate']:.3f}; samples {record['samples']}")
    for err in record["errors"]:
        print(f"  FAILED {err}")
    if record["not_traced"]:
        print(f"not traced (function not found): {', '.join(record['not_traced'])}")
    for k, v in record["quality"].items():
        print(f"quality {k}: {v:.6g}")
    for k, v in record["metrics"].items():
        print(f"{k}: {v['value']:.6g} {v['unit']}")


if __name__ == "__main__":
    sys.exit(main())
